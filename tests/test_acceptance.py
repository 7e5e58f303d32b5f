"""Acceptance suite.

Ten end-to-end criteria, one test each.  Every test prints a single
PASS/FAIL line (visible with `pytest -s` or in failure output) and
enforces a wall-clock budget.  Tolerances are stated inline; the
expected numbers come from the closed forms checked independently in
the per-module suites.

Run just this file with:  pytest tests/test_acceptance.py -s
"""

import math
import time

import numpy as np
import pytest

from harmradius.coefficients import BoundFamily, power_sums
from harmradius.extremals import (
    convex_witness_profile,
    get_extremal,
    koebe_witness_profile,
    one_term_extremal,
    uniform_witness_profile,
)
from harmradius.bloch import bloch_table
from harmradius.membership import (
    c_h2_numeric,
    coeff_condition,
    coefficient_growth_check,
    injectivity_oracle,
    starlike_scan,
)
from harmradius.maps import HarmonicMap
from harmradius.radii import (
    convex_family_radius,
    jacobian_roots,
    koebe_family_radius,
    radius_by_bisection,
    uniform_family_radius,
)

from conftest import random_accepted_sequences

KOEBE_RADIUS = 0.11290293120791771
CONVEX_RADIUS = 0.16487765151863348


def finish(num, name, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.3f}s exceeds budget {budget}s")
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.3f}s / {budget}s)")
    assert not failures, "; ".join(failures)


def test_criterion_01_koebe_family_radius():
    t0 = time.perf_counter()
    failures = []
    closed = koebe_family_radius()
    bisected = radius_by_bisection(BoundFamily.koebe(), 0.0)
    for report in (closed, bisected):
        if abs(report.radius - 0.112903) > 1e-6:
            failures.append(f"{report.method} radius {report.radius!r} off 0.112903")
    if closed.residual > 1e-12:
        failures.append(f"quartic residual {closed.residual:.3e} > 1e-12")
    finish(1, "close-to-convexity radius, harmonic Koebe bounds", t0, 0.1, failures)


def test_criterion_02_convex_family_radius():
    t0 = time.perf_counter()
    failures = []
    closed = convex_family_radius()
    bisected = radius_by_bisection(BoundFamily.convex(), 0.0)
    for report in (closed, bisected):
        if abs(report.radius - 0.164878) > 1e-6:
            failures.append(f"{report.method} radius {report.radius!r} off 0.164878")
    if closed.residual > 1e-12:
        failures.append(f"cubic residual {closed.residual:.3e} > 1e-12")
    finish(2, "close-to-convexity radius, convex bounds", t0, 0.1, failures)


def test_criterion_03_koebe_witness_sign_pattern():
    t0 = time.perf_counter()
    failures = []
    profile = koebe_witness_profile()
    roots = jacobian_roots(profile, 0.0, 0.25)
    expected = [KOEBE_RADIUS, CONVEX_RADIUS]
    if len(roots) != 2:
        failures.append(f"expected 2 roots on (0, 0.25), got {roots}")
    else:
        for got, want in zip(sorted(roots), expected):
            if abs(got - want) > 1e-6:
                failures.append(f"root {got!r} off {want!r}")
    values = profile(np.linspace(0.1140, 0.1638, 100))
    if not np.all(values < 0):
        failures.append(f"Jacobian not negative between the roots: "
                        f"max {values.max():.3e}")
    finish(3, "witness Jacobian roots and negativity window", t0, 0.5, failures)


def test_criterion_04_convex_witness_roots():
    t0 = time.perf_counter()
    failures = []
    roots = jacobian_roots(convex_witness_profile(), 0.0, 0.35)
    expected = [CONVEX_RADIUS, 0.2928932188134524]
    if len(roots) != 2:
        failures.append(f"expected 2 roots on (0, 0.35), got {roots}")
    else:
        for got, want in zip(sorted(roots), expected):
            if abs(got - want) > 1e-6:
                failures.append(f"root {got!r} off {want!r}")
        second = sorted(roots)[1]
        if abs(second - (2.0 - math.sqrt(2.0)) / 2.0) > 1e-12:
            failures.append(f"second root {second!r} is not (2-sqrt2)/2 to 1e-12")
    finish(4, "convex witness Jacobian roots", t0, 0.5, failures)


def test_criterion_05_uniform_family_lattice():
    t0 = time.perf_counter()
    failures = []
    for c in np.linspace(0.25, 4.0, 10):
        for b1 in np.linspace(0.0, 0.9, 10):
            r_star = uniform_family_radius(c, b1).radius
            residual = abs(uniform_witness_profile(c, b1)(r_star))
            if residual > 1e-10:
                failures.append(f"J(c={c:.3g}, b1={b1:.3g}) at radius = "
                                f"{residual:.3e}")
            r_bis = radius_by_bisection(BoundFamily.uniform(c, b1), 0.0).radius
            if abs(r_bis - r_star) > 1e-10:
                failures.append(f"bisection off closed form at c={c:.3g}, "
                                f"b1={b1:.3g}: {abs(r_bis - r_star):.3e}")
    finish(5, "uniform-bound radius lattice, 10x10", t0, 1.0, failures)


def test_criterion_06_bloch_table_values():
    t0 = time.perf_counter()
    failures = []
    expected = {
        1.0: (0.22421, 0.12629, 0.251602, 0.143904),
        2.0: (0.11992, 0.06367, 0.152633, 0.082622),
        3.0: (0.08311, 0.04328, 0.109765, 0.0580693),
    }
    rows = bloch_table([1.0, 2.0, 3.0])
    for row in rows:
        phi, psi, r_s, big_r = expected[row.M]
        if abs(row.r_S - r_s) > 1e-5:
            failures.append(f"M={row.M}: r_S {row.r_S!r} off {r_s}")
        if abs(row.R_S - big_r) > 1e-5:
            failures.append(f"M={row.M}: R_S {row.R_S!r} off {big_r}")
        if abs(row.phi - phi) > 1e-4:
            failures.append(f"M={row.M}: phi {row.phi!r} off {phi}")
        if abs(row.psi - psi) > 1e-4:
            failures.append(f"M={row.M}: psi {row.psi!r} off {psi}")
        if not row.r_S > row.phi:
            failures.append(f"M={row.M}: r_S {row.r_S!r} <= phi {row.phi!r}")
    finish(6, "bounded-map radius table, M in {1,2,3}", t0, 0.1, failures)


def test_criterion_07_power_sum_identities():
    t0 = time.perf_counter()
    failures = []
    for r in (0.1, 0.3, 0.5):
        s1, s2, s3 = power_sums(r)
        n = np.arange(1, 201)
        partial = (float(np.sum(n * r ** n)),
                   float(np.sum(n ** 2 * r ** n)),
                   float(np.sum(n ** 3 * r ** (n - 1))))
        # all three tails are dominated by the heaviest one
        tail = 201 ** 3 * r ** 200 / (1 - r)
        for closed, direct, tag in zip((s1, s2, s3), partial, "123"):
            if abs(closed - direct) > tail + 1e-10:
                failures.append(f"sum {tag} at r={r}: closed {closed!r} vs "
                                f"direct {direct!r}")
    s1, s2, s3 = power_sums(0.5)
    for got, want in ((s1, 2.0), (s2, 6.0), (s3, 52.0)):
        if abs(got - want) > 1e-10:
            failures.append(f"triple at 0.5: {got!r} off {want}")
    finish(7, "power-sum closed forms vs direct summation", t0, 0.1, failures)


def test_criterion_08_implication_property_suite():
    t0 = time.perf_counter()
    failures = []
    sequences = random_accepted_sequences(200)
    for i, seq in enumerate(sequences):
        if coeff_condition(seq).verdict != "satisfied":
            failures.append(f"seq {i}: coefficient condition not satisfied")
            continue
        f = HarmonicMap.from_series(seq)
        for name, report in (
            ("growth", coefficient_growth_check(seq)),
            ("c-h2", c_h2_numeric(f, 0.0)),
            ("starlike", starlike_scan(f, 0.999)),
        ):
            if report.verdict != "satisfied":
                failures.append(f"seq {i}: {name} verdict {report.verdict} "
                                f"(margin {report.margin:.3e})")
    for n, theta, anti in ((2, 0.0, False), (3, 0.0, False),
                           (2, math.pi, True), (5, 1.0, True)):
        f = one_term_extremal(n, theta, anti=anti)
        for name, report in (("coeff", coeff_condition(f)),
                             ("growth", coefficient_growth_check(f))):
            if abs(report.margin) > 1e-14:
                failures.append(f"boundary example n={n} anti={anti}: {name} "
                                f"margin {report.margin:.3e} not 0")
    finish(8, "membership implications on 200 random sequences", t0, 30.0,
           failures)


def test_criterion_09_series_vs_closed_form():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260814)
    z = 0.5 * rng.uniform(0.0, 1.0, 50) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 50))
    for label in ("koebe", "convex_L", "F0", "L0"):
        f = get_extremal(label)
        truncated = f.section(80, 80)
        err = np.max(np.abs(f(z) - truncated(z)))
        if err > 1e-10:
            failures.append(f"{label}: series vs closed form differ by {err:.3e}")
    w = 0.9 * rng.uniform(0.1, 1.0, 20) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 20))
    dil = get_extremal("koebe").dilatation(w)
    err = np.max(np.abs(dil - w))
    if err > 1e-12:
        failures.append(f"Koebe dilatation differs from z by {err:.3e}")
    finish(9, "series and closed-form backings agree", t0, 1.0, failures)


def test_criterion_10_injectivity_witness():
    t0 = time.perf_counter()
    failures = []
    collision = injectivity_oracle(get_extremal("F0"), 0.2, 256)
    if collision.verdict != "violated":
        failures.append(f"F0 at r=0.2 should collide, got {collision.verdict}")
    clean = injectivity_oracle(get_extremal("koebe").dilate(0.112903), 0.999, 256)
    if clean.verdict == "violated":
        failures.append(f"scaled Koebe map inside the radius reported a "
                        f"collision: {clean.witness}")
    finish(10, "range collision beyond the radius, none inside", t0, 10.0,
           failures)
