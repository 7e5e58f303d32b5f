"""Membership checks: coefficient tests and sampled scans."""

import math

import numpy as np
import pytest

from harmradius import (
    CoefficientSeq,
    GridSpec,
    HarmonicMap,
    MembershipReport,
    UnsupportedOperation,
    c_h2_numeric,
    coeff_condition,
    coefficient_growth_check,
    harmonic_koebe,
    identity_map,
    injectivity_oracle,
    koebe_family_radius,
    koebe_witness,
    one_term_extremal,
    starlike_scan,
)
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


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 8, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 8, 1.0)


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
    with pytest.raises(UnsupportedOperation):
        coeff_condition(harmonic_koebe(), 0.0)


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
    rep = coefficient_growth_check(identity_map().as_sequence(), beta)
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
    K = harmonic_koebe()
    rep = c_h2_numeric(K.dilate(0.112903), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin > 0


def test_c_h2_dilated_koebe_outside_radius():
    K = harmonic_koebe()
    rep = c_h2_numeric(K.dilate(0.5), 0.0)
    assert rep.verdict == "violated"
    # failure shows up along the positive real axis near the rim
    z = rep.witness
    assert z.real > 0.9
    assert abs(z.imag) < z.real * math.tan(2 * math.pi / 64) + 1e-12


def test_c_h2_respects_supplied_grid():
    # the inequality for dilate(K, rho) crosses at rho |z| ~ 0.1129
    K = harmonic_koebe().dilate(0.2)
    rep = c_h2_numeric(K, 0.0, GridSpec(30, 8, 0.3))
    assert rep.grid_spec == GridSpec(30, 8, 0.3).describe()
    assert rep.verdict == "satisfied"  # 0.2 * 0.3 is inside the radius
    assert c_h2_numeric(K, 0.0).verdict == "violated"  # 0.2 * 0.999 is not


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
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
    rep = starlike_scan(harmonic_koebe().dilate(r_s), 0.999)
    assert rep.verdict == "satisfied"


def test_starlike_witness_violated():
    rep = starlike_scan(koebe_witness(), 0.2)
    assert rep.verdict == "violated"
    assert rep.witness is not None


def test_starlike_singularity_report():
    # f(z) = z - 2 z^2 vanishes at z = 1/2, which the grid hits exactly
    f = HarmonicMap.from_series(CoefficientSeq({2: -2.0}, {}, 2))
    rep = starlike_scan(f, 0.5, GridSpec(10, 8, 0.5))
    assert rep.verdict == "inconclusive"
    assert "singularity" in rep.note
    assert rep.witness == 0.5 + 0j


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
    rep = injectivity_oracle(koebe_witness(), 0.2, 256)
    assert rep.verdict == "violated"
    assert rep.margin < 0
    z1, z2 = rep.witness
    f = koebe_witness()
    assert abs(f(z1) - f(z2)) <= 1e-9
    assert abs(z1 - z2) > 2 * (0.4 / 255)
    assert abs(z1) <= 0.2 and abs(z2) <= 0.2


def test_injectivity_dilated_koebe_no_collision():
    K = harmonic_koebe().dilate(0.112903)
    rep = injectivity_oracle(K, 0.999, 256)
    assert rep.verdict == "inconclusive"


def test_injectivity_validation():
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 0.5, 600)
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 1.2, 64)


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
