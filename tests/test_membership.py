"""Membership checks: coefficient tests and sampled scans."""

import math
import random
import re
import sys

import numpy as np
import pytest

from harmradius import (
    BoundFamily,
    CoefficientSeq,
    GridSpec,
    HarmonicMap,
    MembershipReport,
    c_h2_numeric,
    closed_form_radius,
    coeff_condition,
    coefficient_growth_check,
    convex_family_radius,
    get_extremal,
    identity_map,
    injectivity_oracle,
    koebe_family_radius,
    one_term_extremal,
    radius_by_bisection,
    starlike_scan,
    weighted_sum,
)
from harmradius._util import round12
from harmradius.coefficients import TailBound

from conftest import random_accepted_sequences


# -- GridSpec -------------------------------------------------------------------

def test_grid_radii_shape():
    g = GridSpec(50, 16, 0.8)
    rs = g.radii()
    assert len(rs) == 50
    assert rs[-1] == 0.8           # r_max included
    assert rs[0] > 0.0             # zero excluded
    assert np.all(np.diff(rs) > 0)


def test_grid_contains_positive_real_axis():
    pts = GridSpec(10, 8, 0.5).points()
    reals = pts[np.abs(pts.imag) < 1e-15]
    assert np.any(reals.real > 0)
    assert len(pts) == 80


def test_grid_points_are_fresh_and_unchanged():
    for grid in (GridSpec(), GridSpec(10, 8, 0.5), GridSpec(r_max=0.3)):
        pts = grid.points()
        ang = np.exp(2j * np.pi * np.arange(grid.n_angular) / grid.n_angular)
        assert pts.tobytes() == np.outer(grid.radii(), ang).ravel().tobytes()
        pts[0] = 0.0  # the caller's own array
        assert grid.points()[0] != 0.0


def test_grid_validation():
    with pytest.raises(ValueError, match="grid size must be >= 2, got 1"):
        GridSpec(1, 8, 0.5)
    with pytest.raises(ValueError, match="grid size must be >= 1, got 0"):
        GridSpec(2, 0, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 8, 1.0)
    # counts are integers: a float fails here, not inside np.geomspace
    for radial, angular in ((10.5, 8.7), (10.0, 8), (10, 8.0), (True, 8)):
        with pytest.raises(TypeError, match="grid size must be an integer"):
            GridSpec(radial, angular, 0.5)
    assert len(GridSpec(np.int64(10), np.int32(8), 0.5).points()) == 80


def test_grid_point_cap():
    assert len(GridSpec(512, 512).radii()) == 512  # the cap itself is allowed
    # a 10^13-circle grid would allocate 80 TB; the cap refuses it first
    for radial, angular in ((10 ** 13, 64), (513, 512), (2, 10 ** 13)):
        with pytest.raises(ValueError, match="exceeds the 262144 points"):
            GridSpec(radial, angular)


def test_report_verdict_validation():
    with pytest.raises(ValueError):
        MembershipReport("maybe", 0.0)


# -- coeff_condition ---------------------------------------------------------------

def test_coeff_condition_boundary_case():
    rep = coeff_condition(CoefficientSeq({2: 0.5}, {}, 2), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.boundary


def test_coeff_condition_stated_family():
    n = 3
    seq = CoefficientSeq({n: (n + 1) / (2 * n * n)}, {n: (n - 1) / (2 * n * n)}, n)
    rep = coeff_condition(seq, 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.boundary


def test_coeff_condition_violated():
    rep = coeff_condition(CoefficientSeq({2: 1.0}, {}, 2), 0.0)
    assert rep.verdict == "violated"
    assert rep.margin == pytest.approx(-1.0, abs=1e-15)
    assert rep.witness == 2


def test_coeff_condition_precondition_on_b1():
    rep = coeff_condition(CoefficientSeq({}, {1: 0.85}, 1), 0.2)
    assert rep.verdict == "violated"
    assert "precondition" in rep.note
    assert rep.margin == pytest.approx(0.8 - 0.85, abs=1e-15)


def test_coeff_condition_accepts_series_map():
    rep = coeff_condition(one_term_extremal(4, 1.0), 0.0)
    assert rep.verdict == "satisfied" and rep.boundary


def test_coefficient_checks_read_a_series_map_without_compiling_it():
    # past the series-map degree cap: only the sampled checks must refuse it
    f = HarmonicMap.from_series(CoefficientSeq({10 ** 13: 1e-15}, {}, 10 ** 13))
    assert coeff_condition(f).margin == pytest.approx(0.99, abs=1e-12)
    assert coefficient_growth_check(f).witness == 10 ** 13
    with pytest.raises(ValueError, match="up to degree 10000"):
        c_h2_numeric(f, 0.0, GridSpec(4, 4))


def test_coeff_condition_rejects_closed_form_map():
    with pytest.raises(ValueError, match=re.escape(
            "koebe: closed-form map has no finite coefficient sequence")):
        coeff_condition(get_extremal("koebe"), 0.0)


def test_coefficient_checks_refuse_a_bound_family():
    for check in (coeff_condition, coefficient_growth_check):
        with pytest.raises(TypeError, match="expected a CoefficientSeq or a series-backed"):
            check(BoundFamily.koebe())


def test_coeff_condition_refuses_a_non_finite_sum():
    # the uniform family's S(0.5) at c = 1e308 overflows to inf: the radius
    # solver reads that inf as S > 1, while the check has no margin to report
    family = BoundFamily.uniform(1e308)
    assert weighted_sum(family, 0.5) == math.inf
    assert radius_by_bisection(family).radius == pytest.approx(5e-309, rel=1e-12)
    with pytest.raises(ValueError, match=re.escape("coefficient sum S(1-) is not finite")):
        coeff_condition(get_extremal("f0", 1e308).dilate(0.5))


def test_coefficient_checks_overflow_into_their_refusals():
    # the stored sum 2 * 5e307 + 3 * 5e307 passes the float range: S(1-) is inf
    seq = CoefficientSeq({2: 5e307, 3: 5e307}, {}, 3)
    with pytest.raises(ValueError, match=re.escape("coefficient sum S(1-) is not finite")):
        coeff_condition(seq)
    # |a_2|^2 = 1e400 passes it in the growth check's sum of squares
    for a2 in (1e200, 1e154):
        with pytest.raises(ValueError, match=re.escape(
                "sum of squares n^2 (|a_n|^2 + |b_n|^2) is not finite")):
            coefficient_growth_check(CoefficientSeq({2: a2}, {3: 1e154}, 3))


DILATIONS = (1.0, 0.999, 0.9, math.sqrt(0.5), 0.5, 0.3, 0.123456789, 1e-3, 5e-324)


def _random_series(rng):
    """A sparse sequence whose S(1-) lies in [0.2, 3], with a summable tail or none."""
    n_max = rng.randint(2, 60)
    draw = lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-6, 0)
    a = {n: draw() for n in rng.sample(range(2, n_max + 1), rng.randint(0, n_max - 1))}
    b = {n: draw() for n in rng.sample(range(2, n_max + 1), rng.randint(0, n_max - 1))}
    total = math.fsum(n * abs(v) for c in (a, b) for n, v in c.items()) or 1.0
    scale = rng.uniform(0.2, 3.0) / total
    a = {n: v * scale for n, v in a.items()}
    b = {n: v * scale for n, v in b.items()}
    if rng.random() < 0.5:
        b[1] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    tail = rng.choice([None, None, -2.5, -3.0, -4.5])
    if tail is not None:
        tail = TailBound(tail, rng.uniform(0.0, 0.1))
    return CoefficientSeq(a, b, n_max, tail)


def test_coefficient_checks_on_a_dilated_series_map_match_a_sequence_dilated_by_hand():
    # the reference: the dilated map's coefficients a_n rho^(n-1), stored as
    # a sequence of their own, with the undilated tail, which still bounds them
    rng = random.Random(20261020)
    for _ in range(300):
        seq = _random_series(rng)
        f = HarmonicMap.from_series(seq)
        for rho in DILATIONS:
            by_hand = CoefficientSeq({n: v * rho ** (n - 1) for n, v in seq.a.items()},
                                     {n: v * rho ** (n - 1) for n, v in seq.b.items()},
                                     seq.truncation, seq.tail)
            for beta in (0.0, 0.3):
                for check in (coeff_condition, coefficient_growth_check):
                    assert repr(check(f.dilate(rho), beta)) == repr(check(by_hand, beta)), (
                        seq, rho, beta, check.__name__)


# label, f0's (c, b1), the family, and the signs of a_n (n >= 2) and b_n
NAMED_MAPS = [
    ("koebe", (), BoundFamily("koebe"), 1, 1),
    ("F0", (), BoundFamily("koebe"), -1, -1),
    ("convex_L", (), BoundFamily("convex"), 1, -1),
    ("L0", (), BoundFamily("convex"), -1, 1),
    ("f0", (1.0, 0.0), BoundFamily.uniform(1.0, 0.0), -1, -1),
    ("f0", (2.0, 0.3), BoundFamily.uniform(2.0, 0.3), -1, -1),
    ("f0", (0.1, 0.5), BoundFamily.uniform(0.1, 0.5), -1, -1),
]


NAMED_IDS = [m[0] + (":%g,%g" % m[1] if m[1] else "") for m in NAMED_MAPS]


@pytest.mark.parametrize("label, params, family, sign_a, sign_b", NAMED_MAPS, ids=NAMED_IDS)
def test_coeff_condition_flips_at_the_radius_of_each_named_map(label, params, family,
                                                               sign_a, sign_b):
    f = get_extremal(label, *params)
    for n in range(1, 61):
        a, b = family.bounds(n)
        assert f.coefficient(n) == (1.0 if n == 1 else sign_a * a, sign_b * b)
    radius = closed_form_radius(family).radius
    expected = [("satisfied", False), ("satisfied", True), ("violated", False)]
    for k, (verdict, boundary) in zip((0.99, 1.0, 1.01), expected):
        g = f.dilate(k * radius)
        rep, summed = coeff_condition(g), coeff_condition(g.section(3000, 3000))
        assert (rep.verdict, rep.boundary) == (verdict, boundary)
        assert (rep.verdict, rep.witness) == (summed.verdict, summed.witness)
        assert rep.margin == pytest.approx(summed.margin, abs=1e-12)
        assert abs(rep.margin) > 1e-3 if k != 1.0 else abs(rep.margin) <= 4.5e-16
        # the growth check has no closed form on a named map
        with pytest.raises(ValueError, match=re.escape(
                f"{g.label}: closed-form map has no finite coefficient sequence")):
            coefficient_growth_check(g)


@pytest.mark.parametrize("label, params, family, sign_a, sign_b", NAMED_MAPS[::2],
                         ids=NAMED_IDS[::2])
def test_coeff_condition_witness_is_the_heaviest_term_of_a_named_map(label, params, family,
                                                                     sign_a, sign_b):
    f = get_extremal(label, *params)
    for rho in (0.6, 0.9, 0.99, 0.999):  # past every radius
        terms = {1: family.bounds(1)[1]}
        terms.update((n, n * sum(family.bounds(n)) * rho ** (n - 1)) for n in range(2, 20000))
        rep = coeff_condition(f.dilate(rho))
        assert (rep.verdict, rep.witness) == ("violated", max(terms, key=terms.get))
        assert rep.note == f"the {family.kind} family's S(r) in closed form at r={rho!r}"
    # a dilation next to 1 puts the heaviest term near n = 3e16 (koebe): the
    # bracket reaches it in some 100 steps, with no walk over the indices
    rep = coeff_condition(f.dilate(0.9999999999999999))
    assert rep.verdict == "violated" and rep.witness >= 2
    # the note gives rho in full: to 12 digits it would read r=1, where S(r) diverges
    assert rep.note == (f"the {family.kind} family's S(r) in closed form "
                        "at r=0.9999999999999999")


def test_coeff_condition_beta_shifts_margin():
    seq = CoefficientSeq({2: 0.25}, {}, 2)
    assert coeff_condition(seq, 0.0).margin == pytest.approx(0.5, abs=1e-15)
    assert coeff_condition(seq, 0.4).margin == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        coeff_condition(seq, 1.0)


def test_coeff_condition_monotone_in_coefficients():
    base = CoefficientSeq({2: 0.2}, {}, 5)
    more = CoefficientSeq({2: 0.2, 5: 0.01}, {}, 5)
    assert coeff_condition(more, 0.0).margin < coeff_condition(base, 0.0).margin


# -- coefficient_growth_check ---------------------------------------------------------

def test_growth_identity_margins():
    rep = coefficient_growth_check(identity_map(), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(1.0, abs=1e-15)
    beta = 0.5
    rep = coefficient_growth_check(identity_map().source[0], beta)
    assert rep.margin == pytest.approx((1 - beta) ** 2, abs=1e-15)
    assert "per-index margin 0.5" in rep.note


def test_growth_boundary_example():
    for anti in (False, True):
        rep = coefficient_growth_check(one_term_extremal(5, 0.7, anti), 0.0)
        assert rep.verdict == "satisfied"
        assert abs(rep.margin) <= 1e-14
        assert rep.boundary


def test_growth_violated_at_index():
    rep = coefficient_growth_check(CoefficientSeq({2: 0.9}, {}, 2), 0.0)
    assert rep.verdict == "violated"
    assert rep.witness == 2
    assert rep.margin == pytest.approx(1.0 - 4 * 0.81, abs=1e-12)


def test_growth_balanced_pair_passes_first_family():
    # |a_n| = |b_n| makes the difference condition trivial
    seq = CoefficientSeq({3: 0.1}, {3: 0.1}, 3)
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.verdict == "satisfied"
    # binding slack is the per-index one: 1/3 - |0.1 - 0.1|
    assert rep.margin == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert "sum-of-squares margin 0.82" in rep.note


def test_growth_ignores_stored_zero():
    # a stored zero at index 40 is not a checked index: same report as without it
    with_zero = coefficient_growth_check(CoefficientSeq({2: 0.1, 40: 0}, {}, 40))
    without = coefficient_growth_check(CoefficientSeq({2: 0.1}, {}, 40))
    assert with_zero == without
    assert with_zero.witness == 2
    assert with_zero.margin == pytest.approx(0.5 - 0.1, abs=1e-15)


def test_growth_b1_enters_aggregate():
    seq = CoefficientSeq({}, {1: 0.6}, 1)
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.margin == pytest.approx(1 - 0.36, abs=1e-15)


def test_growth_tailed_sequence_inconclusive():
    seq = CoefficientSeq({2: 0.1}, {}, 4, tail=TailBound(-4.0, 0.01))
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.verdict == "inconclusive"
    assert "tail" in rep.note


# -- c_h2_numeric -----------------------------------------------------------------

def test_c_h2_identity_margin_exact():
    rep = c_h2_numeric(identity_map(), 0.0, GridSpec(20, 8, 0.9))
    assert rep.verdict == "satisfied"
    assert rep.margin == 1.0
    rep = c_h2_numeric(identity_map(), 0.3, GridSpec(20, 8, 0.9))
    assert rep.margin == pytest.approx(0.7, abs=1e-15)


def test_c_h2_dilated_koebe_inside_radius():
    K = get_extremal("koebe")
    rep = c_h2_numeric(K.dilate(0.112903), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin > 0


def test_c_h2_dilated_koebe_outside_radius():
    K = get_extremal("koebe")
    rep = c_h2_numeric(K.dilate(0.5), 0.0)
    assert rep.verdict == "violated"
    # failure shows up along the positive real axis near the rim
    z = rep.witness
    assert z.real > 0.9
    assert abs(z.imag) < z.real * math.tan(2 * math.pi / 64) + 1e-12


def test_c_h2_respects_supplied_grid():
    # the inequality for dilate(K, rho) crosses at rho |z| ~ 0.1129
    K = get_extremal("koebe").dilate(0.2)
    rep = c_h2_numeric(K, 0.0, GridSpec(30, 8, 0.3))
    assert rep.grid_spec == GridSpec(30, 8, 0.3).describe()
    assert rep.verdict == "satisfied"  # 0.2 * 0.3 is inside the radius
    assert c_h2_numeric(K, 0.0).verdict == "violated"  # 0.2 * 0.999 is not


@pytest.mark.parametrize("check", [
    lambda f: c_h2_numeric(f, 0.0),
    lambda f: starlike_scan(f, 0.999),
], ids=["c-h2", "starlike"])
def test_sampled_checks_refuse_non_finite_samples(check):
    # every n|a_n| is finite, but the sampled sums overflow near the rim
    f = HarmonicMap.from_series(CoefficientSeq({n: 3e306 for n in range(2, 12)}, {}, 11))
    with pytest.raises(ValueError, match="map evaluation is not finite on the grid"):
        check(f)


# -- starlike_scan -----------------------------------------------------------------

def test_starlike_identity():
    rep = starlike_scan(identity_map(), 0.9)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(1.0, abs=1e-15)


def test_starlike_dilated_koebe():
    r_s = koebe_family_radius().radius
    rep = starlike_scan(get_extremal("koebe").dilate(r_s), 0.999)
    assert rep.verdict == "satisfied"


def test_starlike_witness_violated():
    rep = starlike_scan(get_extremal("F0"), 0.2)
    assert rep.verdict == "violated"
    assert rep.witness is not None


def test_starlike_singularity_report():
    # f(z) = z - 2 z^2 vanishes at z = 1/2, which the grid hits exactly
    f = HarmonicMap.from_series(CoefficientSeq({2: -2.0}, {}, 2))
    rep = starlike_scan(f, 0.5, GridSpec(10, 8, 0.5))
    assert rep.verdict == "inconclusive"
    assert "singularity" in rep.note
    assert rep.witness == 0.5 + 0j


@pytest.mark.parametrize("r", [1e-9, 1e-11, 1e-13, 1e-100])
def test_starlike_tiny_radius_agrees_with_the_dilated_map(r):
    # f(z) = z + O(z^2) has no zero on the grid: the singularity test scales
    # with the disk, so a tiny disk reads as the dilated map's disk does
    K = get_extremal("koebe")
    small = starlike_scan(K, r, GridSpec(20, 8, r))
    dilated = starlike_scan(K.dilate(r), 0.5, GridSpec(20, 8, 0.5))
    for rep in (small, dilated):
        assert rep.verdict == "satisfied"
        assert rep.margin == pytest.approx(1.0, abs=1e-8)


def test_starlike_refuses_exactly_the_grids_with_a_subnormal_inner_circle():
    # numpy's complex division of a subnormal by a subnormal is not finite, so
    # such a grid has a refusal of its own, not "map evaluation is not finite"
    for f in (get_extremal("koebe"), get_extremal("F0")):
        for r in np.geomspace(1e-300, 5e-324, 120).tolist():
            for grid in (GridSpec(20, 8, r), GridSpec(200, 64, r)):
                if grid.radii()[0] >= sys.float_info.min:
                    assert starlike_scan(f, r, grid).verdict == "satisfied", r
                else:
                    with pytest.raises(ValueError, match="too small"):
                        starlike_scan(f, r, grid)


def test_starlike_grid_must_fit_radius():
    with pytest.raises(ValueError):
        starlike_scan(identity_map(), 0.5, GridSpec(10, 8, 0.9))
    with pytest.raises(ValueError):
        starlike_scan(identity_map(), 1.0)


# -- injectivity_oracle ---------------------------------------------------------------

def test_injectivity_identity_inconclusive():
    rep = injectivity_oracle(identity_map(), 0.9, 128)
    assert rep.verdict == "inconclusive"
    assert rep.margin > 0


def test_injectivity_witness_collision():
    rep = injectivity_oracle(get_extremal("F0"), 0.2, 256)
    assert rep.verdict == "violated"
    assert rep.margin < 0
    z1, z2 = rep.witness
    f = get_extremal("F0")
    assert abs(f(z1) - f(z2)) <= 1e-9
    assert abs(z1 - z2) > 2 * (0.4 / 255)
    assert abs(z1) <= 0.2 and abs(z2) <= 0.2


def test_newton_gives_up_on_a_singular_jacobian_and_outside_the_disk():
    from harmradius.membership import _newton_collide

    # g(z) = z^2 has J = 1 - 4|z|^2, zero at z = 1/2, where no step can be solved for
    fold = HarmonicMap.from_series(CoefficientSeq({}, {2: 1.0}, 2))
    assert fold.jacobian(0.5) == 0.0
    assert _newton_collide(fold, fold(0.5) + 0.1, 0.5, 0.9, 1.0) is None
    # the identity's one step from 0 lands on the target 0.8, outside |z| <= 0.5
    assert _newton_collide(identity_map(), 0.8, 0j, 0.5, 1.0) is None
    assert _newton_collide(identity_map(), 0.4, 0j, 0.5, 1.0) == (0.4 + 0j, 0.0)


def test_newton_stops_on_a_step_below_the_image_rounding():
    # z + 1e13 z^40 sends 0.9 to 1.48e11, whose ulp is 2^-15: a target one ulp
    # away asks for a step of 4.5e-18, which leaves z = 0.9 as it is.  The
    # residual stays at the ulp, far above 1e-13, and the step test stops
    # Newton after one step
    from harmradius.membership import _newton_collide

    f = HarmonicMap.from_series(CoefficientSeq({40: 1e13}, {}, 40))
    steps = []

    class Counting:
        def __call__(self, z):
            return f(z)

        def wirtinger(self, z):
            steps.append(z)
            return f.wirtinger(z)

    target = f(0.9) + 2.0 ** -15
    assert math.ulp(target.real) == 2.0 ** -15
    assert _newton_collide(Counting(), target, 0.9, 0.95, 1.0) == (0.9 + 0j, 2.0 ** -15)
    assert steps == [0.9]


def test_ring_newton_refines_each_pair_and_gives_up_on_a_singular_step():
    from harmradius.membership import _ring_collide

    # F0 has real coefficients, so its ring's double points at r = 0.2 are
    # conjugate pairs; the identity's speeds at opposite points are parallel,
    # where no step can be solved for, and a pair that starts collided stays
    f, rho = get_extremal("F0"), 0.2 * (1.0 - 2.0 ** -50)
    z1, z2, resid = _ring_collide(f, rho, np.array([0.5]), np.array([-0.55]), 1.0)
    assert resid[0] <= 1e-13 and abs(z1[0] - z2[0].conjugate()) < 1e-12
    assert abs(abs(z1[0]) - rho) < 1e-16 and abs(abs(z2[0]) - rho) < 1e-16
    z1, z2, resid = _ring_collide(identity_map(), 0.5, np.array([0.0, 1.0]),
                                  np.array([np.pi, 1.0]), 1.0)
    assert math.isnan(resid[0]) and resid[1] == 0.0 and z1[1] == z2[1]


def test_injectivity_no_near_coincidence_between_separated_samples():
    # a map that stretches its grid apart, so that no two separated samples
    # have near images; its ring has a double point, which the ring refines
    f = HarmonicMap.from_series(CoefficientSeq({3: 500.0}, {2: 400.0}, 3))
    _assert_witness(f, 0.3, 8, injectivity_oracle(f, 0.3, 8), RING_NOTE)


def test_injectivity_dilated_koebe_no_collision():
    K = get_extremal("koebe").dilate(0.112903)
    rep = injectivity_oracle(K, 0.999, 256)
    assert rep.verdict == "inconclusive"


# the note of a report the argument-principle stage settled
STAGE_NOTE = "argument principle: J > 0 at every sample and the image of |z|=r is a simple polygon"
# the note of a collision the stage refined on its ring, and of one refined
# across the sample of least J
RING_NOTE = re.compile(r"images coincide to \S+ at separated points of the ring \|z\|=r")
PAIR_NOTE = re.compile(r"images coincide to \S+ at separated points")
# the note of a report whose pairs across the sample of least J do not refine
UNREFINED_NOTE = "no pair across the sample of least J refined to a collision"


def _assert_witness(f, r, resolution, rep, note=None):
    """rep is a refined collision: two points of |z| <= r more than two
    pitches apart whose images, f at each point alone, lie within the
    collision tolerance, which sets the margin; its note is note, or
    either of RING_NOTE and PAIR_NOTE."""
    pitch = 2.0 * r / (resolution - 1)
    tol = 1e-9 * min(1.0, pitch / 1e-4)
    notes = [note] if note else [RING_NOTE, PAIR_NOTE]
    assert rep.verdict == "violated" and any(n.fullmatch(rep.note) for n in notes), rep
    z1, z2 = rep.witness
    resid = abs(f(z1) - f(z2))
    assert abs(z1) <= r and abs(z2) <= r and abs(z1 - z2) > 2.0 * pitch
    assert resid <= tol and rep.margin == resid - tol


def _ring(r, resolution):
    """The oracle's ring samples."""
    m = 4 * resolution
    return r * (1.0 - 2.0 ** -50) * np.exp(2j * np.pi * np.arange(m) / m)


def _grid_images(f, r, resolution):
    """The oracle's samples of |z| <= r, in its order, and their images."""
    axis = np.linspace(-r, r, resolution)
    xs, ys = np.meshgrid(axis, axis)
    pts = (xs + 1j * ys).ravel()
    pts = pts[np.abs(pts) <= r]
    return pts, f(pts)


def _record_crossings(monkeypatch):
    """Log the count of crossings of every _crossings call the oracle makes
    on its ring images, None where it refuses them."""
    from harmradius import membership

    log = []
    crossings = membership._crossings

    def recording(p):
        out = crossings(p)
        log.append(None if out is None else out[0].size)
        return out

    monkeypatch.setattr(membership, "_crossings", recording)
    return log


# F0 and L0 past their radii, the identity, and Koebe just inside its radius
ORACLE_CASES = [("F0", 0.2, 64), ("F0", 0.2, 256), ("F0", 0.15, 256), ("F0", 0.21, 512),
                ("F0", 0.18, 128), ("L0", 0.18, 128), ("identity", 0.9, 128),
                ("koebe", 0.999, 256)]


def _oracle_map(label):
    if label == "identity":
        return identity_map()
    if label == "koebe":
        return get_extremal("koebe").dilate(0.112903)
    if label == "f0":
        return get_extremal("f0", 2.0, 0.3)
    return get_extremal(label)


def _sweep(seed=15, size=10):
    """Seeded (map, r, resolution) draws: maps that fold (F0, L0, f0 past
    their radii) and maps that do not, resolutions log-uniform in [8, 512)
    (ORACLE_CASES holds the 512 case)."""
    rng = np.random.default_rng(seed)
    labels = ["F0", "L0", "f0", "identity", "koebe", "convex_L"]
    cases = [("F0", 0.2, 8)]  # about 50 samples
    for _ in range(size - 1):
        label = labels[rng.integers(len(labels))]
        r = 0.999 if label == "koebe" else float(rng.uniform(0.05, 0.6))
        cases.append((label, round(r, 3), int(2 ** rng.uniform(3, 9))))
    return cases


def _stage_sweep(seed=17, size=16):
    """Seeded (label, parameters, r, resolution) draws for the stage: F0 and
    L0 at 1.0-1.8 times their radii, f0 with random parameters, and the
    one-term maps z + (a/n) z^n and z + (a/n) conj(z^n) with a in [0.5, 3];
    resolutions log-uniform in [8, 256)."""
    rng = np.random.default_rng(seed)

    def resolution():
        return int(2 ** rng.uniform(3, 8))

    cases = []
    for label, radius in (("F0", koebe_family_radius().radius),
                          ("L0", convex_family_radius().radius)):
        cases += [(label, (), round(radius * rng.uniform(1.0, 1.8), 4), resolution())
                  for _ in range(size)]
    cases += [("f0", (round(rng.uniform(0.5, 4.0), 3), round(rng.uniform(0.0, 0.9), 3)),
               round(rng.uniform(0.05, 0.9), 3), resolution()) for _ in range(size)]
    cases += [("one-term", (int(rng.integers(2, 8)), round(rng.uniform(0.5, 3.0), 3),
                            bool(rng.integers(2))),
               round(rng.uniform(0.3, 0.99), 3), resolution()) for _ in range(2 * size)]
    return cases


def _ring_sweep(seed=19, size=12):
    """Seeded (label, parameters, r, resolution) draws: F0 and L0 at 1.0005
    to 2 times their radii, resolutions log-uniform in [8, 256)."""
    rng = np.random.default_rng(seed)
    return [(label, (), round(radius * rng.uniform(1.0005, 2.0), 5), int(2 ** rng.uniform(3, 8)))
            for label, radius in (("F0", koebe_family_radius().radius),
                                  ("L0", convex_family_radius().radius))
            for _ in range(size)]


def _stage_map(label, params):
    if label == "one-term":
        n, a, anti = params
        term = {n: a / n}
        return HarmonicMap.from_series(CoefficientSeq({} if anti else term,
                                                      term if anti else {}, n))
    return get_extremal(label, *params) if params else _oracle_map(label)


# F0 at 256 between its radius and the ring's crossover, about 0.1649: its
# ring polygon is simple up to 0.1625, and the grid's least J decides
FOLD_CASES = [("F0", (), r, 256) for r in (0.1525, 0.155, 0.1575, 0.16, 0.1625, 0.165)]

# Each case's report from the oracle as it was with the grid pair search
# (6936da8), to 12 significant digits as the CLI prints them: ("ring",
# margin, z1, z2) for a collision refined on the ring, ("settled", margin)
# for a map the argument principle settled, and the verdict of a report of
# the search
GRID_SEARCH_REPORTS = {
    ("F0", (), 0.2, 64): ("ring", -9.99997283345e-10,
        0.173589838486+0.0993305993857j, 0.173589838486-0.0993305993857j),
    ("F0", (), 0.2, 256): ("ring", -9.99999764078e-10,
        0.173589838486+0.0993305993857j, 0.173589838486-0.0993305993857j),
    ("F0", (), 0.15, 256): "violated",
    ("F0", (), 0.21, 512): ("ring", -9.99990583553e-10,
        0.176380360026+0.113973543409j, 0.176380360026-0.113973543409j),
    ("F0", (), 0.18, 128): ("ring", -9.99998677849e-10,
        0.168421334754+0.0635157775639j, 0.168421334754-0.0635157775639j),
    ("L0", (), 0.18, 128): ("ring", -9.99997876698e-10,
        0.168421644413+0.0635149564541j, 0.168421025103-0.0635165986424j),
    ("identity", (), 0.9, 128): ("settled", 0.0708661407323),
    ("koebe", (), 0.999, 256): ("settled", 0.0391764695882),
    ("F0", (), 0.2, 8): ("ring", -9.9999983801e-10,
        0.173589838486+0.0993305993857j, 0.173589838486-0.0993305993857j),
    ("convex_L", (), 0.499, 33): ("settled", 0.155937499),
    ("koebe", (), 0.999, 9): ("settled", 1.248749999),
    ("f0", (), 0.13, 158): ("settled", 0.00828025377707),
    ("identity", (), 0.24, 53): ("settled", 0.0461538451538),
    ("L0", (), 0.48, 267): ("ring", -9.99999751747e-10,
        0.467604327393+0.108379855153j, -0.0365806267697-0.478604072011j),
    ("convex_L", (), 0.355, 401): ("settled", 0.008874999),
    ("convex_L", (), 0.539, 40): ("settled", 0.138205127205),
    ("F0", (), 0.177, 73): ("ring", -9.99987787421e-10,
        0.167693416431+0.056638485905j, 0.167693416431-0.056638485905j),
    ("identity", (), 0.232, 350): ("settled", 0.00664756346991),
    ("F0", (), 0.1892, 13): ("ring", -9.99976484023e-10,
        0.170730608368+0.0815334248416j, 0.170730608368-0.0815334248416j),
    ("F0", (), 0.1633, 28): "violated",
    ("F0", (), 0.1323, 30): "violated",
    ("F0", (), 0.1516, 66): "violated",
    ("F0", (), 0.1794, 8): ("ring", -9.99996942283e-10,
        0.168274763817+0.0621929566931j, 0.168274763817-0.0621929566931j),
    ("F0", (), 0.1358, 64): "violated",
    ("F0", (), 0.1205, 254): "violated",
    ("F0", (), 0.1881, 9): ("ring", -9.99999873377e-10,
        0.170448384276+0.0795547503143j, 0.170448384276-0.0795547503143j),
    ("F0", (), 0.1642, 66): "violated",
    ("F0", (), 0.1135, 14): "inconclusive",
    ("F0", (), 0.1278, 39): "violated",
    ("F0", (), 0.1641, 38): "violated",
    ("F0", (), 0.196, 134): ("ring", -9.99999765203e-10,
        0.172512167894+0.0930352187544j, 0.172512167894-0.0930352187544j),
    ("F0", (), 0.1491, 16): "inconclusive",
    ("F0", (), 0.1453, 158): "violated",
    ("F0", (), 0.1444, 248): "violated",
    ("L0", (), 0.2395, 18): ("ring", -9.87733936835e-10,
        0.18541555581+0.151595915722j, 0.185417291239-0.15159379311j),
    ("L0", (), 0.2518, 78): ("ring", -9.99965902275e-10,
        0.189540164479+0.165764188078j, 0.189539774734-0.165764633724j),
    ("L0", (), 0.2328, 21): ("ring", -9.05757108731e-10,
        0.18325664695+0.143571728932j, 0.183260430812-0.143566899036j),
    ("L0", (), 0.248, 42): ("ring", -9.99978130434e-10,
        0.188239101415+0.161462195881j, 0.188248110585-0.161451692035j),
    ("L0", (), 0.251, 52): ("ring", -9.99982319677e-10,
        0.189264616181+0.164863292039j, 0.189266150722-0.164861530355j),
    ("L0", (), 0.1809, 186): ("ring", -9.99999965306e-10,
        0.168642081896+0.0654573006904j, 0.168642151922-0.0654571202782j),
    ("L0", (), 0.1671, 23): ("ring", -9.9993309171e-10,
        0.165378742343+0.0239224075128j, 0.16537884138-0.023921722843j),
    ("L0", (), 0.1875, 26): ("ring", -7.95993306506e-10,
        0.170296231204+0.0784566353966j, 0.170294057035-0.078461354427j),
    ("L0", (), 0.2463, 53): ("ring", -9.99939395675e-10,
        0.187670136948+0.159510531621j, 0.187670158588-0.15951050616j),
    ("L0", (), 0.2593, 43): ("ring", -9.96472710428e-10,
        0.19215821603+0.174102584738j, 0.192156788732-0.174104160042j),
    ("L0", (), 0.2759, 26): ("ring", -9.91086574446e-10,
        0.198228405692+0.191901821713j, 0.198231021706-0.191899119418j),
    ("L0", (), 0.2372, 45): ("ring", -9.97270253016e-10,
        0.184667903808+0.148867744334j, 0.184669389903-0.14886590084j),
    ("L0", (), 0.1678, 17): ("ring", -9.99986240173e-10,
        0.165538042139+0.0274589986109j, 0.165538042137-0.0274589986226j),
    ("L0", (), 0.1759, 18): ("ring", -9.99913770365e-10,
        0.16742960459+0.0539271499981j, 0.16742960459-0.0539271499967j),
    ("L0", (), 0.1657, 22): "inconclusive",
    ("L0", (), 0.2142, 75): ("ring", -9.99999555911e-10,
        0.177593461624+0.119758934483j, 0.177593470129-0.11975892187j),
    ("f0", (3.453, 0.374), 0.587, 48): ("ring", -9.99999644555e-10,
        0.559692578052+0.176955412671j, -0.559692578052+0.176955412671j),
    ("f0", (1.308, 0.179), 0.434, 125): "violated",
    ("f0", (2.576, 0.629), 0.671, 68): ("ring", -9.99998778755e-10,
        0.636916306001+0.211136494121j, -0.636916306001+0.211136494121j),
    ("f0", (1.355, 0.398), 0.487, 8): "violated",
    ("f0", (1.534, 0.323), 0.059, 56): ("settled", 0.0107272717273),
    ("f0", (2.421, 0.081), 0.262, 183): "violated",
    ("f0", (2.034, 0.234), 0.783, 38): ("ring", -9.99999306111e-10,
        0.761740263627+0.181220227264j, -0.761740263627+0.181220227264j),
    ("f0", (2.689, 0.813), 0.513, 13): ("ring", -9.99999875873e-10,
        0.476097235225+0.191050837765j, -0.476097235225+0.191050837765j),
    ("f0", (2.999, 0.842), 0.406, 79): ("ring", -9.99958255467e-10,
        0.375325454915+0.154812153569j, -0.375325454915+0.154812153569j),
    ("f0", (3.56, 0.141), 0.715, 41): ("ring", -9.99999313365e-10,
        0.687393252087+0.196762590412j, -0.687393252087+0.196762590412j),
    ("f0", (2.434, 0.832), 0.741, 12): ("ring", -9.9999944212e-10,
        0.703179716335+0.233707694641j, -0.703179716335+0.233707694641j),
    ("f0", (1.952, 0.608), 0.74, 13): ("ring", -9.9999720453e-10,
        0.710338492883+0.20741076522j, -0.710338492883+0.20741076522j),
    ("f0", (2.954, 0.467), 0.116, 48): "violated",
    ("f0", (2.071, 0.399), 0.277, 28): "violated",
    ("f0", (3.167, 0.308), 0.78, 91): ("ring", -9.99998220177e-10,
        0.75259097292+0.204955671985j, -0.75259097292+0.204955671985j),
    ("f0", (3.133, 0.362), 0.197, 8): "violated",
    ("one-term", (7, 1.664, False), 0.566, 11): ("settled", 0.565999999),
    ("one-term", (2, 2.694, False), 0.57, 161): ("ring", -9.99999776227e-10,
        -0.371195248701+0.432566858811j, -0.371195248701-0.432566858811j),
    ("one-term", (4, 1.937, True), 0.896, 216): ("ring", -9.99999842991e-10,
        0.841518043623+0.307674149479j, 0.841518043623-0.307674149479j),
    ("one-term", (2, 0.507, True), 0.742, 44): ("settled", 0.172558138535),
    ("one-term", (3, 1.398, True), 0.778, 28): ("settled", 0.288148147148),
    ("one-term", (6, 1.629, True), 0.445, 24): ("settled", 0.19347825987),
    ("one-term", (2, 2.059, False), 0.916, 63): ("ring", -9.99999352634e-10,
        -0.485672656629+0.776645395662j, -0.485672656629-0.776645395662j),
    ("one-term", (7, 1.845, False), 0.479, 30): ("settled", 0.165172412793),
    ("one-term", (3, 2.898, False), 0.661, 57): ("ring", -9.99999799852e-10,
        0.262472052145+0.606654285275j, -0.262472052145+0.606654285275j),
    ("one-term", (2, 0.829, False), 0.909, 150): ("settled", 0.0610067104094),
    ("one-term", (6, 2.237, True), 0.943, 83): ("ring", -9.99999191745e-10,
        0.906273811157+0.260608478779j, 0.906273811157-0.260608478779j),
    ("one-term", (5, 0.871, True), 0.458, 17): ("settled", 0.286249999),
    ("one-term", (4, 1.534, False), 0.332, 186): ("settled", 0.0179459449459),
    ("one-term", (2, 1.334, True), 0.483, 102): ("settled", 0.0478217811782),
    ("one-term", (7, 2.987, True), 0.358, 37): ("settled", 0.0994444434444),
    ("one-term", (4, 1.968, True), 0.852, 30): ("ring", -9.99999861222e-10,
        0.820191984498+0.230627640504j, 0.820191984498-0.230627640504j),
    ("one-term", (6, 2.912, True), 0.485, 25): ("settled", 0.202083332333),
    ("one-term", (6, 2.907, False), 0.346, 65): ("settled", 0.054062499),
    ("one-term", (4, 2.417, True), 0.355, 13): ("settled", 0.295833332333),
    ("one-term", (5, 2.863, True), 0.672, 47): ("settled", 0.146086955522),
    ("one-term", (6, 0.998, True), 0.871, 8): ("settled", 1.24428571329),
    ("one-term", (7, 2.605, True), 0.388, 27): ("settled", 0.149230768231),
    ("one-term", (5, 2.441, False), 0.423, 31): ("settled", 0.140999999),
    ("one-term", (3, 0.597, True), 0.559, 14): ("settled", 0.429999999),
    ("one-term", (2, 0.925, False), 0.569, 9): ("settled", 0.711249999),
    ("one-term", (5, 1.039, False), 0.768, 86): ("settled", 0.0903529401765),
    ("one-term", (5, 0.767, False), 0.664, 48): ("settled", 0.141276594745),
    ("one-term", (5, 1.449, True), 0.486, 8): ("settled", 0.694285713286),
    ("one-term", (7, 0.851, False), 0.513, 20): ("settled", 0.269999999),
    ("one-term", (3, 2.662, False), 0.934, 30): ("ring", -9.99999751747e-10,
        0.610347400799+0.706988012867j, -0.610347400799+0.706988012867j),
    ("one-term", (3, 2.843, True), 0.765, 9): ("ring", -9.99936605876e-10,
        0.64039994449+0.41846494608j, 0.64039994449-0.41846494608j),
    ("one-term", (4, 2.432, False), 0.572, 206): ("settled", 0.0279024380244),
    ("F0", (), 0.1604, 197): "violated",
    ("F0", (), 0.14386, 9): "inconclusive",
    ("F0", (), 0.148, 96): "violated",
    ("F0", (), 0.20109, 51): ("ring", -9.99998943828e-10,
        0.173887319852+0.10099697072j, 0.173887319852-0.10099697072j),
    ("F0", (), 0.14813, 191): "violated",
    ("F0", (), 0.21769, 36): ("ring", -9.99998548709e-10,
        0.178620007987+0.124434034117j, 0.178620007987-0.124434034117j),
    ("F0", (), 0.15919, 67): "violated",
    ("F0", (), 0.19349, 68): ("ring", -9.99975755024e-10,
        0.171847163955+0.0889209330852j, 0.171847163955-0.0889209330852j),
    ("F0", (), 0.16182, 37): "violated",
    ("F0", (), 0.18586, 192): ("ring", -9.99999957792e-10,
        0.169878809893+0.0753997980717j, 0.169878809893-0.0753997980717j),
    ("F0", (), 0.11837, 10): "inconclusive",
    ("F0", (), 0.1989, 39): ("ring", -9.99999745521e-10,
        0.173291285179+0.0976285843439j, 0.173291285179-0.0976285843439j),
    ("L0", (), 0.29303, 51): ("ring", -9.97883887157e-10,
        0.20489883946+0.209482807142j, 0.204900651907-0.20948103434j),
    ("L0", (), 0.24107, 218): ("ring", -6.18733398376e-10,
        0.18592655817+0.153447254348j, 0.185935589179-0.153436311141j),
    ("L0", (), 0.22567, 75): ("ring", -9.99999220864e-10,
        0.181031055138+0.134739400235j, 0.181029777929-0.134741116231j),
    ("L0", (), 0.25452, 11): ("ring", -9.82020146283e-10,
        0.190479850837+0.168813082506j, 0.190480585112-0.168812253985j),
    ("L0", (), 0.19258, 135): ("ring", -5.92679766898e-10,
        0.171604811214+0.0874004872302j, 0.171611600338-0.0873871559743j),
    ("L0", (), 0.2511, 84): ("ring", -9.99991725067e-10,
        0.189297787739+0.164977445601j, 0.189301528425-0.16497315338j),
    ("L0", (), 0.23977, 152): ("ring", -9.99958216564e-10,
        0.185499954753+0.151919122189j, 0.185509419242-0.151907564895j),
    ("L0", (), 0.30537, 35): ("ring", -9.90020316254e-10,
        0.209959978729+0.2217377826j, 0.209959898275-0.22173785878j),
    ("L0", (), 0.18624, 142): ("ring", -9.99970218254e-10,
        0.16997514102+0.0761169431552j, 0.169974756864-0.0761178009994j),
    ("L0", (), 0.2472, 55): ("ring", -9.99999811242e-10,
        0.187972619114+0.160543247953j, 0.187973867629-0.160541786114j),
    ("L0", (), 0.24872, 9): ("ring", -9.99997085665e-10,
        0.188487325072+0.162278053622j, 0.188488059415-0.162277200672j),
    ("L0", (), 0.24947, 11): ("ring", -9.99997515256e-10,
        0.188742714658+0.163130219651j, 0.188742714435-0.16313021991j),
    ("F0", (), 0.1525, 256): "violated",
    ("F0", (), 0.155, 256): "violated",
    ("F0", (), 0.1575, 256): "violated",
    ("F0", (), 0.16, 256): "violated",
    ("F0", (), 0.1625, 256): "violated",
    ("F0", (), 0.165, 256): ("ring", -9.99999994362e-10,
        0.164905065322+0.00559637662093j, 0.164905065322-0.00559637662093j),
}


def _recorded(rep):
    """rep as GRID_SEARCH_REPORTS records it."""
    if rep.note == STAGE_NOTE and rep.witness is None:
        return "settled", round12(rep.margin)
    if RING_NOTE.fullmatch(rep.note):
        return ("ring", round12(rep.margin),
                *(complex(round12(z.real), round12(z.imag)) for z in rep.witness))
    return rep.verdict


@pytest.mark.parametrize("label, params, r, resolution",
                         [(label, (), r, res) for label, r, res in ORACLE_CASES + _sweep()]
                         + _stage_sweep() + _ring_sweep() + FOLD_CASES)
def test_injectivity_stage_changes_only_the_note(label, params, r, resolution):
    # each report against the grid pair search's: a ring collision and a
    # settled map are unchanged, a violation stays violated with a checked
    # witness, and an inconclusive report may turn violated only with one
    f = _stage_map(label, params)
    got = injectivity_oracle(f, r, resolution)
    want = GRID_SEARCH_REPORTS[label, params, r, resolution]
    if got.verdict == "violated" and want in ("violated", "inconclusive"):
        _assert_witness(f, r, resolution, got)
    else:
        assert _recorded(got) == want


def _reaches(pitch):
    """Reaches at a grid's scale: the powers of two from the largest at or
    below 5/16 of a pitch while they stay below 5 pitches, then 5 pitches."""
    first = 2.0 ** math.floor(math.log2(5.0 * pitch / 16))
    return [first * 2 ** k for k in range(5) if first * 2 ** k < 5.0 * pitch] + [5.0 * pitch]


def _full_search_reference(f, r, resolution):
    """A full search of the grid's images, made with scipy's k-d tree: the
    pairs of samples more than two pitches apart whose images lie within the
    first of _reaches(pitch) that holds 2000 of them, sorted on (image
    distance, i, j).  The first 2000 are Newton-refined, the second point
    onto the first's image, and the first pair that refines to a collision
    is the report; None when none does."""
    from scipy.spatial import cKDTree

    from harmradius.membership import _newton_collide

    pitch = 2.0 * r / (resolution - 1)
    scale = min(1.0, pitch / 1e-4)
    tol = 1e-9 * scale
    pts, images = _grid_images(f, r, resolution)
    tree = cKDTree(np.column_stack([images.real, images.imag]))
    for reach in _reaches(pitch):
        i, j = tree.query_pairs(reach, output_type="ndarray").T
        far = np.abs(pts[i] - pts[j]) > 2.0 * pitch
        i, j = i[far], j[far]
        dist = np.abs(images[i] - images[j])
        if np.count_nonzero(dist <= reach * (1.0 - 1e-9)) >= 2000:
            break
    for k in np.lexsort((j, i, dist))[:2000]:
        z1, z2 = complex(pts[i[k]]), complex(pts[j[k]])
        refined = _newton_collide(f, f(z1), z2, r, scale)
        if refined is not None and abs(refined[0] - z1) > 2.0 * pitch and refined[1] <= tol:
            return MembershipReport("violated", refined[1] - tol, (z1, refined[0]), "",
                                    note=f"images coincide to {refined[1]:.3g} at separated points")
    return None


@pytest.mark.parametrize("label, r, resolution", ORACLE_CASES)
def test_injectivity_report_matches_full_sort_selection(label, r, resolution):
    # the oracle finds a collision where a full search of the grid's images
    # does, each with a checked witness, and settles the identity and Koebe,
    # where the search finds none
    f = _oracle_map(label)
    got = injectivity_oracle(f, r, resolution)
    want = _full_search_reference(f, r, resolution)
    if label in ("identity", "koebe"):
        assert want is None and got.note == STAGE_NOTE
    else:
        _assert_witness(f, r, resolution, want, PAIR_NOTE)
        _assert_witness(f, r, resolution, got)


@pytest.mark.parametrize("label, r, resolution", _sweep())
def test_injectivity_report_matches_full_search_on_a_seeded_sweep(label, r, resolution):
    # a map the oracle settles has no collision a full search finds, and
    # every other report is a collision with a checked witness; the ring may
    # find one the search does not (F0 at resolution 8)
    f = _oracle_map(label)
    got = injectivity_oracle(f, r, resolution)
    want = _full_search_reference(f, r, resolution)
    if want is not None:
        _assert_witness(f, r, resolution, want, PAIR_NOTE)
    if got.note == STAGE_NOTE:
        assert want is None
    else:
        _assert_witness(f, r, resolution, got)


@pytest.mark.parametrize("resolution", [64, 256, 512])
def test_singular_pair_across_a_fold(resolution):
    # F0 at r = 0.15, past its radius: J < 0 on part of the ring, whose image
    # polygon is simple, so the ring decides nothing.  The fold J = 0 on the
    # segment to the least-J sample lies near the radius, and the pair across
    # it is a collision, one point on each side of the fold
    from harmradius.membership import _crossings

    f, r = get_extremal("F0"), 0.15
    pitch = 2.0 * r / (resolution - 1)
    ring = _ring(r, resolution)
    assert f.jacobian(ring).min() < 0.0 and _crossings(f(ring))[0].size == 0
    rep = injectivity_oracle(f, r, resolution)
    _assert_witness(f, r, resolution, rep, PAIR_NOTE)
    z1, z2 = rep.witness
    assert f.jacobian(z1) * f.jacobian(z2) < 0.0
    assert all(abs(z - koebe_family_radius().radius) < 2.0 * pitch for z in rep.witness)


@pytest.mark.parametrize("resolution", [64, 512])
def test_singular_pair_at_a_branch_point(resolution):
    # z + 1e13 z^40 has g' = 0 and J = |h'|^2, which only touches 0 at the 39
    # zeros of h', on |z| = (4e14)^(-1/39) = 0.4223: branch points, where f is
    # two-to-one.  J > 0 at every sample and none of the ring's crossings
    # refines to a collision; the pair across the least-J sample, along v = 1
    # and i, is one
    from harmradius.membership import _crossings

    f, r = HarmonicMap.from_series(CoefficientSeq({40: 1e13}, {}, 40)), 0.9
    ring, (pts, _) = _ring(r, resolution), _grid_images(f, r, resolution)
    assert f.jacobian(ring).min() > 0.0 and f.jacobian(pts).min() > 0.0
    assert _crossings(f(ring))[0].size > 0
    rep = injectivity_oracle(f, r, resolution)
    _assert_witness(f, r, resolution, rep, PAIR_NOTE)
    if resolution == 512:
        assert all(abs(abs(z) - 4e14 ** (-1 / 39)) < 0.01 for z in rep.witness)


@pytest.mark.parametrize("f, r, resolution", [
    # a pitch of 0.026: all but one pair across F0's fold leave the disk, and
    # Newton gives up on that one
    (get_extremal("F0"), 0.11837, 10),
    # images up to 3e14, whose rounding leaves every refined residual above tol
    (HarmonicMap.from_series(CoefficientSeq({5: 1e16}, {}, 5)), 0.5, 16),
], ids=["F0-coarse", "huge-images"])
def test_singular_pair_that_does_not_refine_stays_inconclusive(monkeypatch, f, r, resolution):
    # the margin is the least residual of a pair refined more than two
    # pitches apart, minus tol, or 5 pitches - tol when none is
    from harmradius import membership

    pitch = 2.0 * r / (resolution - 1)
    tol = 1e-9 * min(1.0, pitch / 1e-4)
    calls = []  # (target, start, result) of every Newton refinement
    newton = membership._newton_collide

    def recording(f, target, z, r, scale):
        calls.append((target, z, newton(f, target, z, r, scale)))
        return calls[-1][2]

    monkeypatch.setattr(membership, "_newton_collide", recording)
    rep = injectivity_oracle(f, r, resolution)
    assert rep.verdict == "inconclusive" and rep.witness is None and rep.note == UNREFINED_NOTE
    # each pair is refined in both orders: a target is the image of another start
    first = {f(z): z for _, z, _ in calls}
    resid = [out[1] for target, _, out in calls
             if out is not None and abs(out[0] - first[target]) > 2.0 * pitch]
    assert calls and len(calls) % 2 == 0
    assert rep.margin == (min(resid) if resid else 5.0 * pitch) - tol


@pytest.mark.parametrize("resolution", [64, 256])
def test_injectivity_boundary_loop_is_decided_on_the_ring(resolution):
    # z + 0.6 z^2 is sense-preserving off z = -1/1.2, which no sample hits,
    # and its image of |z| = 0.99 loops round the image of that point: the
    # ring's crossing refines to a collision
    from harmradius.membership import _crossings

    f, r = HarmonicMap.from_series(CoefficientSeq({2: 0.6}, {}, 2)), 0.99
    ring, (grid, _) = _ring(r, resolution), _grid_images(f, r, resolution)
    assert f.jacobian(ring).min() > 0.0 and f.jacobian(grid).min() > 0.0
    assert _crossings(f(ring))[0].size > 0
    _assert_witness(f, r, resolution, injectivity_oracle(f, r, resolution), RING_NOTE)


def _segments_meet(p1, p2, q1, q2):
    """Whether the closed segments p1p2 and q1q2 meet, in exact integer
    arithmetic (Cormen et al., Introduction to Algorithms, section 33.1)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(a, b, c):  # c, collinear with ab, lies within ab's box
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    d1, d2 = cross(q1, q2, p1), cross(q1, q2, p2)
    d3, d4 = cross(p1, p2, q1), cross(p1, p2, q2)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return ((d1 == 0 and on_segment(q1, q2, p1)) or (d2 == 0 and on_segment(q1, q2, p2))
            or (d3 == 0 and on_segment(p1, p2, q1)) or (d4 == 0 and on_segment(p1, p2, q2)))


def _crossings_by_all_pairs(vertices):
    m = len(vertices)
    edges = [(vertices[k], vertices[(k + 1) % m]) for k in range(m)]
    return [(i, j) for i in range(m) for j in range(i + 2, m)
            if (i, j) != (0, m - 1) and _segments_meet(*edges[i], *edges[j])]


def _lattice_polygons(rng):
    """(scale, vertices) of closed polygons on a small integer lattice, which
    brings repeated vertices, collinear overlaps and vertices on edges:
    star-shaped ones, then ones for each edge case of a sweep by x."""
    for _ in range(400):
        m = int(rng.integers(4, 40))
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        radii = rng.uniform(0.2, 1.0, m) * (1.0 if rng.integers(3) else rng.uniform(0, 3, m))
        scale = int(rng.choice([3, 8, 40]))
        pts = np.round(scale * radii * np.exp(1j * angles))
        if rng.integers(4) == 0:  # a few swapped vertices fold the polygon
            k = rng.integers(m, size=2)
            pts[k] = pts[k[::-1]]
        yield scale, pts
    for _ in range(40):
        m = int(rng.integers(4, 40))
        # many vertices on each of three x values: ties in the sort, and vertical edges
        yield 6, rng.integers(0, 3, m) + 1j * rng.integers(-6, 7, m)
        # vertical and horizontal edges in turn
        x, y = rng.integers(-8, 9, (2, m // 2 + 2))
        yield 8, np.repeat(x, 2) + 1j * np.roll(np.repeat(y, 2), 1)
        # out along x = 0, 1, ..., n and back: edges whose x-ranges only touch
        # at an end, and meet there where the two walks share a vertex
        n = m // 2
        yield n, np.r_[np.arange(n + 1), np.arange(n, -1, -1)] + 1j * rng.integers(0, 3, 2 * n + 2)
        # a few long edges among short ones: antipodal vertices on a fine star
        pts = np.round(40 * np.exp(1j * np.sort(rng.uniform(0.0, 2 * np.pi, 2 * m))))
        k = rng.integers(2 * m, size=int(rng.integers(1, 4)))
        pts[k] = -pts[k]
        yield 40, pts


def test_crossings_match_all_pairs_test(rng):
    from harmradius.membership import _crossings

    seen = set()
    for scale, pts in _lattice_polygons(rng):
        want = _crossings_by_all_pairs([(int(p.real), int(p.imag)) for p in pts])
        i, j, s, t = _crossings(pts)
        assert list(zip(i.tolist(), j.tolist())) == want, pts.tolist()
        # the parameters name the meeting point on both edges, 1/2 on parallel ones
        a, d = pts, np.roll(pts, -1) - pts
        assert ((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)).all()
        parallel = d[i].real * d[j].imag == d[i].imag * d[j].real
        assert (s[parallel] == 0.5).all() and (t[parallel] == 0.5).all()
        gap = np.abs(a[i] + s * d[i] - a[j] - t * d[j])[~parallel]
        assert (gap <= 1e-12 * scale).all(), pts.tolist()
        seen.add(bool(want))
    assert seen == {True, False}


def test_stage_refuses_non_finite_samples():
    # the ring's crossing test takes finite images spanning at most _MAX_SPAN
    # (about 1.34e154), and the oracle refuses the others
    from harmradius.membership import _crossings

    square = np.array([0, 1, 1 + 1j, 1j])
    for p in (square, 1e150 * square):
        assert all(part.size == 0 for part in _crossings(p))
    for bad in (np.nan, np.inf, complex(np.nan, 0.5)):
        assert _crossings(np.append(square, bad)) is None
    assert _crossings(1e154 * square) is None  # spans 1.41e154
    with np.errstate(over="ignore", invalid="ignore"):  # as the oracle calls it
        assert _crossings(1e308 * (2 * square - 1 - 1j)) is None  # edges overflow

    class Constant:  # the identity's images, with one Jacobian everywhere
        def __init__(self, jacobian):
            self.value = jacobian

        def __call__(self, z):
            return z

        def jacobian(self, z):
            return np.full(np.shape(z), self.value)

        def wirtinger(self, z):  # arrays on arrays, as a map's are
            return np.ones_like(z), np.zeros_like(z)

    # J > 0 at every sample settles; J = 0 or J < 0 does not, and a Jacobian
    # that is not finite is refused
    assert injectivity_oracle(Constant(1.0), 0.5, 16).note == STAGE_NOTE
    for value in (0.0, -1.0):
        assert injectivity_oracle(Constant(value), 0.5, 16).note == UNREFINED_NOTE
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="map evaluation is not finite on the grid"):
            injectivity_oracle(Constant(value), 0.5, 16)


def test_stage_needs_f_z_to_wind_zero_times():
    # J > 0 on a simple ring image settles only where f_z = h' has no zero
    # inside the ring: winding 0 times over the ring samples, none of them 0
    class Winding:  # the identity's images and J = 1, with f_z = h'(z)
        def __init__(self, h_prime):
            self.h_prime = h_prime

        def __call__(self, z):
            return z

        def jacobian(self, z):
            return np.ones(np.shape(z))

        def wirtinger(self, z):
            return self.h_prime(z), np.zeros_like(z)

    edge = _ring(0.5, 16)[0]  # the ring sample on the positive real axis
    assert injectivity_oracle(Winding(lambda z: z - 0.9), 0.5, 16).note == STAGE_NOTE
    # f_z winds twice, once, and is 0 at a ring sample
    for h_prime in (lambda z: z * z, lambda z: z - 0.1, lambda z: z - edge):
        rep = injectivity_oracle(Winding(h_prime), 0.5, 16)
        assert rep.verdict == "inconclusive" and rep.note == UNREFINED_NOTE


@pytest.mark.parametrize("r", [1e-11, 1e-12, 1e-14, 1e-100])
def test_injectivity_tiny_radius_is_not_violated(monkeypatch, r):
    # F0 is univalent near 0: a grid far finer than 1e-9 must not report the
    # images of neighbouring samples as a collision, and its ring image is
    # simple, so the crossing test finds no crossing
    log = _record_crossings(monkeypatch)
    rep = injectivity_oracle(get_extremal("F0"), r, 64)
    assert rep.verdict == "inconclusive"
    assert rep.margin >= 0.0
    assert log == [0]
    rep = injectivity_oracle(get_extremal("koebe").dilate(0.1), min(r, 1e-14), 16)
    assert rep.verdict == "inconclusive"


def test_injectivity_refuses_radii_whose_squared_reach_underflows():
    from harmradius.membership import _MIN_REACH

    for resolution in (8, 64, 512):
        # the radius whose 5/16 of a pitch is _MIN_REACH, and the radii about it:
        # those below it are refused
        least = _MIN_REACH * 16 / 5 * (resolution - 1) / 2
        radii = [least * (1.0 + d) for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0)]
        for r in radii + [math.nextafter(least, 0.0), math.nextafter(least, 1.0)]:
            if 5.0 * (2.0 * r / (resolution - 1)) / 16 < _MIN_REACH:
                with pytest.raises(ValueError, match="too small"):
                    injectivity_oracle(identity_map(), r, resolution)
            else:
                assert injectivity_oracle(identity_map(), r, resolution).verdict == "inconclusive"
        for r in (least / 2, 1e-200, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                injectivity_oracle(identity_map(), r, resolution)


def test_injectivity_oracle_memory():
    import tracemalloc

    f = get_extremal("F0")
    koebe = get_extremal("koebe")
    for g in (f, koebe, koebe.dilate(0.112903)):  # imports and first-call set-up outside the count
        injectivity_oracle(g, 0.2, 64)

    def peak_of(r, g=f):
        tracemalloc.start()
        try:
            return injectivity_oracle(g, r, 512), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for r in (0.15, 0.16):  # the ring's polygon is simple: the grid's least J decides
        rep, peak = peak_of(r)
        assert rep.verdict == "violated" and PAIR_NOTE.fullmatch(rep.note)
        # 7.5 MB measured at both radii: J is evaluated on the grid in slices
        assert peak < 9 * 2 ** 20, f"r={r}: {peak / 2 ** 20:.1f} MB"
    for r in (0.18, 0.2):  # the ring decides, and no grid is built
        rep, peak = peak_of(r)
        assert RING_NOTE.fullmatch(rep.note)
        # 0.6 MB measured, where the grid's points alone take 3.1 MB
        assert peak < 2 ** 20, f"r={r}: {peak / 2 ** 20:.1f} MB"
    for g, r in ((koebe, 0.9), (koebe.dilate(0.112903), 0.999)):
        # the ring settles, and no grid is built: 0.7 and 0.5 MB measured, 7.6
        # and 8.2 MB when J was also sampled on the grid
        rep, peak = peak_of(r, g)
        assert rep.note == STAGE_NOTE
        assert peak < 2 ** 20, f"{g.label} r={r}: {peak / 2 ** 20:.1f} MB"


def test_crossings_on_an_uneven_ring():
    # the harmonic Koebe ring at r = 0.9, 2048 samples: a few long edges
    # among many short ones, where a search out to the longest edge tested
    # 1.8 M of the 2.1 M edge pairs; the sweep tests those that overlap in x
    import tracemalloc

    from harmradius.membership import _crossings

    f = get_extremal("koebe")
    p = f(_ring(0.9, 512))
    _crossings(p[:64])  # first-call set-up outside the count
    tracemalloc.start()
    try:
        i, _, _, _ = _crossings(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.size == 0
    # 0.6 MB measured; 141.5 MB with the search out to the longest edge
    assert peak < 4 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
    rep = injectivity_oracle(f, 0.9, 512)
    assert rep.verdict == "inconclusive" and rep.note == STAGE_NOTE


def test_ckdtree_is_a_lazy_module_attribute():
    # no check calls cKDTree; it stays as the hook perfbench's tracer wraps
    import scipy.spatial

    from harmradius import membership

    assert membership.cKDTree is scipy.spatial.cKDTree
    assert "cKDTree" in vars(membership)  # stored by the first lookup
    with pytest.raises(AttributeError, match="no_such_name"):
        membership.no_such_name


def test_grid_descriptions_keep_every_digit_of_the_radius():
    # 0.9999999999999999 is the float below 1, inside the disk; :g read it as 1
    for r in (0.9999999999999999, 0.1129031):
        assert GridSpec(8, 4, r).describe().endswith(f"r_max={r!r}")
        for f in (get_extremal("F0"), identity_map()):  # every map answers on |z| < 1
            rep = injectivity_oracle(f, r, 8)
            assert f"cartesian grid on |z|<={r!r}, pitch" in rep.grid_spec
    # at the two largest radii a grid takes, r_max e^(i theta) would round onto
    # |z| = 1: the outer circle is sampled inside, and r_max is printed
    f = get_extremal("koebe").dilate(0.1)
    for r in (0.9999999999999999, 0.9999999999999998):
        grid = GridSpec(8, 64, r)
        for rep in (c_h2_numeric(f, 0.0, grid), starlike_scan(f, r, grid)):
            assert rep.verdict == "satisfied"
            assert rep.grid_spec.endswith(f"r_max={r!r}")
    assert GridSpec(8, 4, np.float64(0.5)).describe().endswith("r_max=0.5")


def test_injectivity_validation():
    with pytest.raises(ValueError, match=re.escape("resolution must lie in [8, 512]")):
        injectivity_oracle(identity_map(), 0.5, 600)
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 1.2, 64)
    # 64.9 is refused, not run as a 64x64 grid
    for bad in (64.9, 64.0, np.float64(64.0), True):
        with pytest.raises(TypeError, match="resolution must be an integer"):
            injectivity_oracle(identity_map(), 0.5, bad)
    assert injectivity_oracle(identity_map(), 0.5, np.int64(16)).verdict == "inconclusive"


# -- implication properties ------------------------------------------------------------

def test_accepted_sequences_pass_downstream_checks():
    grid = GridSpec(100, 32, 0.999)
    for seq in random_accepted_sequences(30):
        assert coeff_condition(seq, 0.0).verdict == "satisfied"
        f = HarmonicMap.from_series(seq)
        assert c_h2_numeric(f, 0.0, grid).verdict == "satisfied"
        assert coefficient_growth_check(seq, 0.0).verdict == "satisfied"
        assert starlike_scan(f, 0.999, grid).verdict == "satisfied"


def test_rejected_necessity_fixture():
    # all-nonpositive coefficients: condition is two-sided there, and
    # z - z^2 fails both the sum test and the sampled derivative test
    seq = CoefficientSeq({2: -1.0}, {}, 2)
    assert coeff_condition(seq, 0.0).verdict == "violated"
    f = HarmonicMap.from_series(seq)
    assert c_h2_numeric(f, 0.0).verdict == "violated"
