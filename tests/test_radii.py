"""Radius solvers, Jacobian root location, sharpness certification."""

import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmradius import (
    EXTREMALS,
    WITNESSES,
    BoundFamily,
    CoefficientSeq,
    JacobianProfile,
    NoRadiusError,
    RadiusReport,
    TailBound,
    closed_form_radius,
    convex_family_radius,
    convex_witness_profile,
    get_extremal,
    identity_map,
    jacobian_roots,
    koebe_family_radius,
    koebe_witness_profile,
    radius_by_bisection,
    uniform_family_radius,
    uniform_witness_profile,
    verify_sharpness,
    weighted_sum,
)
from harmradius.radii import _solve


# -- closed forms -------------------------------------------------------------

def test_koebe_radius_value_and_residual():
    rep = koebe_family_radius()
    assert rep.radius == pytest.approx(0.112903, abs=1e-6)
    assert rep.residual <= 1e-12
    assert rep.method == "closed_form"


def test_koebe_radius_alternate_closed_forms():
    r = koebe_family_radius().radius
    alt1 = 1.0 + math.sqrt(2.0) / 4.0 - math.sqrt(math.sqrt(2.0) + 1.0 / 8.0)
    alt2 = (4.0 + math.sqrt(2.0) - math.sqrt(2.0 + 16.0 * math.sqrt(2.0))) / 4.0
    assert r == pytest.approx(alt1, abs=1e-12)
    assert r == pytest.approx(alt2, abs=1e-12)


@pytest.mark.parametrize("closed_form, expected, coeffs", [
    (koebe_family_radius, 0.1129029312079177, (2, -8, 11, -10, 1)),
    (convex_family_radius, 0.16487765151863348, (2, -6, 7, -1)),
], ids=["koebe", "convex"])
def test_family_radius_is_nearest_double(closed_form, expected, coeffs):
    # the S(r) = 1 polynomial, evaluated exactly, changes sign between the
    # two half-ulp midpoints around the radius: no other double lies closer
    r = closed_form().radius
    assert r == expected
    p = lambda x: sum(k * x ** e for e, k in enumerate(reversed(coeffs)))
    lo = (Fraction(r) + Fraction(math.nextafter(r, 0.0))) / 2
    hi = (Fraction(r) + Fraction(math.nextafter(r, 1.0))) / 2
    assert p(lo) * p(hi) < 0


def test_uniform_radius_validates_once(monkeypatch):
    # the uniform bound c is checked once per call, by BoundFamily
    from harmradius._util import check_real

    calls = []

    def counting(x, what, *args):
        if what == "uniform bound c":
            calls.append(x)
        return check_real(x, what, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("harmradius.") and hasattr(module, "check_real"):
            monkeypatch.setattr(module, "check_real", counting)
    assert uniform_family_radius(2.0, 0.3).radius == pytest.approx(0.139337034176)
    assert calls == [2.0]
    calls.clear()
    assert get_extremal("f0", 2.0, 0.3).coefficient(1) == (1, -0.3)
    assert calls == [2.0]
    calls.clear()
    assert uniform_witness_profile(2.0, 0.3).label == "f0"
    assert calls == [2.0]


def test_convex_radius_value_and_residual():
    rep = convex_family_radius()
    assert rep.radius == pytest.approx(0.164878, abs=1e-6)
    assert rep.residual <= 1e-12


def test_convex_radius_radical_form():
    # real root of 2r^3 - 6r^2 + 7r - 1 via the cubic formula
    u = (-18.0 + math.sqrt(330.0)) ** (1.0 / 3.0)
    radical = 1.0 + u / 6.0 ** (2.0 / 3.0) - 1.0 / (6.0 * (-18.0 + math.sqrt(330.0))) ** (1.0 / 3.0)
    assert convex_family_radius().radius == pytest.approx(radical, abs=1e-12)


def test_uniform_radius_values():
    assert uniform_family_radius(4.0 / math.pi).radius == pytest.approx(0.251602,
                                                                        abs=1e-5)
    assert uniform_family_radius(1.0).radius == pytest.approx(1 - 1 / math.sqrt(2),
                                                              abs=1e-15)
    assert uniform_family_radius(1.0).residual <= 1e-12


def test_uniform_radius_monotone():
    cs = np.linspace(0.25, 4.0, 12)
    radii = [uniform_family_radius(c).radius for c in cs]
    assert all(x > y for x, y in zip(radii, radii[1:]))
    bs = np.linspace(0.0, 0.95, 12)
    radii = [uniform_family_radius(1.0, b).radius for b in bs]
    assert all(x > y for x, y in zip(radii, radii[1:]))


def test_uniform_radius_limit_b1_to_one():
    assert uniform_family_radius(2.0, 1 - 1e-12).radius == pytest.approx(0.0,
                                                                         abs=1e-6)


@pytest.mark.parametrize("b1", [0.0, 0.3, 0.999])
def test_uniform_radius_has_no_cancellation(b1):
    # 1 - sqrt(c/(c+1-b1)) in 700-digit decimal arithmetic, from c where the
    # radius nears 1 to c where it is still a normal double, near 1e-304
    for c in np.geomspace(1e-15, 1e300, 200):
        rep = uniform_family_radius(c, b1)
        with localcontext() as ctx:
            ctx.prec = 700
            C, B = Decimal(float(c)), Decimal(b1)
            ref = 1 - (C / (C + 1 - B)).sqrt()
            assert abs(Decimal(rep.radius) / ref - 1) <= Decimal("1e-15"), c
        assert 0.0 < rep.radius < 1.0 and not rep.saturated
        if c >= 1e-6:
            assert rep.residual <= rep.tolerance, c


@pytest.mark.parametrize("b1", [0.0, 0.3, 0.999])
def test_uniform_tolerance_covers_one_ulp_of_the_radius(b1):
    # for small c, S'(r) = 2c/(1-r)^3 is so steep that one ulp of r moves S
    # past 1e-9; a saturated report has S <= 1 up to r = 1 - 1e-12 instead
    for c in np.geomspace(1e-320, 1e308, 400):
        rep = uniform_family_radius(c, b1)
        if rep.saturated:
            assert weighted_sum(BoundFamily.uniform(c, b1), rep.radius) <= 1.0, c
        else:
            assert rep.residual <= rep.tolerance, c
    assert uniform_family_radius(1e-20).tolerance > 1e-9
    assert uniform_family_radius(1.0).tolerance == 1e-9


def test_uniform_radius_saturates_like_bisection():
    # the radius of a tiny c rounds to 1 (or prints as 1 at 12 digits)
    for c in (5e-324, 1e-30):
        closed = uniform_family_radius(c)
        bisected = radius_by_bisection(BoundFamily.uniform(c))
        assert closed.saturated and bisected.saturated
        assert closed.radius == bisected.radius == 1.0 - 1e-12
    huge = uniform_family_radius(1e308)
    assert huge.radius == pytest.approx(5e-309, rel=1e-12)
    assert huge.residual <= huge.tolerance


def test_uniform_radius_validation():
    with pytest.raises(ValueError):
        uniform_family_radius(-1.0)
    with pytest.raises(ValueError):
        uniform_family_radius(1.0, 1.0)
    for c in (math.nan, math.inf, -math.inf):
        message = re.escape(f"uniform bound c must lie in (0, inf), got {c!r}")
        with pytest.raises(ValueError, match=message):
            uniform_family_radius(c)
        with pytest.raises(ValueError, match=message):
            BoundFamily.uniform(c)


# -- bisection engine ------------------------------------------------------------

def test_bisection_matches_closed_forms():
    assert radius_by_bisection(BoundFamily.koebe()).radius == pytest.approx(
        koebe_family_radius().radius, abs=1e-10)
    assert radius_by_bisection(BoundFamily.convex()).radius == pytest.approx(
        convex_family_radius().radius, abs=1e-10)
    for c, b in ((0.5, 0.0), (1.0, 0.3), (3.0, 0.7)):
        assert radius_by_bisection(BoundFamily.uniform(c, b)).radius == pytest.approx(
            uniform_family_radius(c, b).radius, abs=1e-10)


def test_bisection_report_invariants():
    rep = radius_by_bisection(BoundFamily.koebe())
    assert rep.method == "bisection"
    assert rep.bracket[1] - rep.bracket[0] <= rep.tolerance
    assert rep.bracket[0] <= rep.radius <= rep.bracket[1]
    assert rep.residual <= 1e-12
    assert not rep.saturated
    # a saturated report, tailed or not, lies in its bracket, collapsed onto 1 - 1e-12
    for seq in (CoefficientSeq({2: 0.1}, {}, 2), CoefficientSeq({2: 0.1}, {}, 2,
                                                                TailBound(-3.0, 0.01))):
        rep = radius_by_bisection(seq)
        assert rep.saturated and rep.bracket == (1.0 - 1e-12, 1.0 - 1e-12)
        assert rep.bracket[0] <= rep.radius <= rep.bracket[1]


def test_bisection_on_explicit_sequence():
    # S(r) = 2 r for z + z^2: crossing exactly at 1/2
    seq = CoefficientSeq({2: 1.0}, {}, 2)
    rep = radius_by_bisection(seq)
    assert rep.radius == pytest.approx(0.5, abs=1e-12)
    rep = radius_by_bisection(seq, beta=0.5)
    assert rep.radius == pytest.approx(0.25, abs=1e-12)


def test_bisection_saturates_for_small_sequences():
    # S(r) = r stays below 1 on [0, 1)
    seq = CoefficientSeq({2: 0.5}, {}, 2)
    rep = radius_by_bisection(seq)
    assert rep.saturated
    assert rep.radius == pytest.approx(1.0, abs=1e-11)


def test_bisection_no_radius():
    with pytest.raises(NoRadiusError):
        radius_by_bisection(CoefficientSeq({}, {1: 0.5}, 1), beta=0.6)
    with pytest.raises(NoRadiusError):
        radius_by_bisection(BoundFamily.uniform(1.0, 0.7), beta=0.4)


def test_bisection_divergent_tail_crossing_beyond_series_limit():
    # S(0.999) < 1, but a tail of degree >= -2 sends S(1^-) to infinity
    seq = CoefficientSeq({2: 0.01}, {}, 10 ** 12, TailBound(1.0, 1e-3))
    with pytest.raises(ValueError, match="crossing lies beyond r=0.999"):
        radius_by_bisection(seq)
    # a zero tail constant adds nothing: the stored sum stays below 1
    assert radius_by_bisection(CoefficientSeq({2: 0.01}, {}, 10 ** 12,
                                              TailBound(1.0, 0.0))).saturated


def test_bisection_zero_tail_constant_is_no_tail():
    # the majorant of a steep tail overflows to inf; a zero constant must
    # not turn that into 0 * inf = nan
    untailed = CoefficientSeq({2: 0.3}, {}, 3)
    tailed = CoefficientSeq({2: 0.3}, {}, 3, TailBound(300.0, 0.0))
    rep = radius_by_bisection(tailed)
    assert rep == radius_by_bisection(untailed)
    assert (rep.radius, rep.saturated) == (0.999999999999, True)
    assert weighted_sum(tailed, 0.9999) == weighted_sum(untailed, 0.9999)


def test_bisection_rejects_other_types():
    with pytest.raises(TypeError):
        radius_by_bisection(identity_map())


def test_weighted_sum_sign_around_radius():
    for fam in (BoundFamily.koebe(), BoundFamily.convex(),
                BoundFamily.uniform(2.0, 0.1)):
        r = radius_by_bisection(fam).radius
        for d in (1e-6, 1e-3, 0.05):
            assert weighted_sum(fam, r - d) < 1.0
            if r + d < 1.0:
                assert weighted_sum(fam, r + d) > 1.0


def test_radius_report_validation():
    with pytest.raises(ValueError):
        RadiusReport(0.5, "guess", 0.0, 0.0)


# -- jacobian roots ----------------------------------------------------------------

def test_koebe_witness_roots():
    roots = jacobian_roots(koebe_witness_profile(), 0.0, 0.25)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(koebe_family_radius().radius, abs=1e-9)
    assert roots[1] == pytest.approx(convex_family_radius().radius, abs=1e-9)


def test_convex_witness_roots():
    roots = jacobian_roots(convex_witness_profile(), 0.0, 0.35)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(convex_family_radius().radius, abs=1e-9)
    assert roots[1] == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)


def test_uniform_witness_smallest_root_is_radius():
    for c, b in ((0.5, 0.0), (2.0, 0.4)):
        roots = jacobian_roots(uniform_witness_profile(c, b), 0.0, 0.999)
        assert roots[0] == pytest.approx(uniform_family_radius(c, b).radius,
                                         abs=1e-9)


def test_jacobian_roots_constant_profile_empty():
    assert jacobian_roots(identity_map(), 0.0, 0.9) == []


def test_jacobian_roots_accepts_map():
    roots = jacobian_roots(get_extremal("F0"), 0.0, 0.25)
    assert roots[0] == pytest.approx(koebe_family_radius().radius, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
def test_jacobian_roots_exact_zero_sample_is_one_root(sign):
    # J = +-(r - c) vanishes exactly at the scan's 5001st sample, whichever
    # sign its left neighbour has
    c = float(np.linspace(0.0, 0.999, 10000)[5000])
    assert jacobian_roots(JacobianProfile("t", ((sign, -sign * c),), 0)) == [c]


def test_solve_returns_an_exact_zero_midpoint():
    assert _solve(lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5) == (0.5, 0.5, 0.5)


def test_jacobian_roots_interval_validation():
    with pytest.raises(ValueError):
        jacobian_roots(koebe_witness_profile(), 0.5, 0.2)
    with pytest.raises(ValueError):
        jacobian_roots(koebe_witness_profile(), 0.0, 1.0)


# -- sharpness ---------------------------------------------------------------------

def test_sharpness_all_three_witnesses():
    rep = verify_sharpness(koebe_witness_profile(), koebe_family_radius().radius)
    assert rep.passed
    assert rep.interior_min > 0
    assert rep.root_residual <= 1e-9
    assert rep.exterior_margin > 0

    rep = verify_sharpness(convex_witness_profile(), convex_family_radius().radius)
    assert rep.passed

    rep = verify_sharpness(uniform_witness_profile(1.0),
                           uniform_family_radius(1.0).radius)
    assert rep.passed
    assert rep.r_claimed == pytest.approx(0.292893, abs=1e-6)


def test_sharpness_accepts_map_witness():
    rep = verify_sharpness(get_extremal("F0"), koebe_family_radius().radius)
    assert rep.passed


def test_sharpness_rejects_wrong_radius():
    rep = verify_sharpness(koebe_witness_profile(), 0.1)
    assert not rep.passed
    assert rep.root_residual > 1e-9
    # claiming past the first root fails the interior positivity check
    rep = verify_sharpness(koebe_witness_profile(), 0.15)
    assert not rep.passed
    assert rep.interior_min < 0


def _sharpness_both_paths(profile, claimed):
    """verify_sharpness by float profile calls, as in a process without
    numpy, and by one array call, as in a process that has it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sys.modules, "numpy")
        cold = verify_sharpness(profile, claimed)
        assert "numpy" not in sys.modules
    return cold, verify_sharpness(profile, claimed)


def _witness(label, *params):
    """(profile, radius) of a sharpness witness, as the CLI pairs them."""
    kind, profile = EXTREMALS[label][0], WITNESSES[label]
    return profile(*params), closed_form_radius(BoundFamily(kind, *params)).radius


WITNESS_ARGS = (st.sampled_from([("F0",), ("L0",)])
                | st.tuples(st.just("f0"), st.floats(1e-6, 1e6),
                            st.floats(0.0, 0.999)))


@settings(max_examples=150, deadline=None)
@given(args=WITNESS_ARGS, scale=st.floats(0.5, 1.5))
def test_sharpness_float_and_array_paths_agree(args, scale):
    profile, root = _witness(*args)
    claimed = min(root * scale, 0.998)
    cold, warm = _sharpness_both_paths(profile, claimed)
    assert cold == warm
    assert math.copysign(1.0, cold.interior_min) == math.copysign(1.0, warm.interior_min)
    if claimed * 1000 / 1001 > root * (1 + 1e-9):  # the last sample lies past the root
        assert cold.interior_min < 0.0


def _last_sample_at(x):
    """A claimed radius r whose last interior sample, 1000 (r/1001), is x."""
    r = x * 1001 / 1000
    for _ in range(64):
        r = math.nextafter(r, 0.0)
    for _ in range(128):
        if 1000 * (r / 1001) == x:
            return r
        r = math.nextafter(r, 1.0)
    raise AssertionError(f"no claimed radius has its last sample at {x!r}")


@pytest.mark.parametrize("args, zero, sign", [
    (("F0",), 0.1129029312079177, 1.0),
    (("L0",), 0.16487765151863348, -1.0),
    (("f0", 0.25, 0.25), 0.5, 1.0),
], ids=["F0", "L0", "f0"])
def test_sharpness_paths_agree_on_a_signed_zero_sample(args, zero, sign):
    # J is exactly +0.0 or -0.0 at these floats; placed as the last interior
    # sample, that zero is the interior minimum on both paths, sign included
    profile, _ = _witness(*args)
    assert profile(zero) == 0.0 and math.copysign(1.0, profile(zero)) == sign
    cold, warm = _sharpness_both_paths(profile, _last_sample_at(zero))
    assert cold == warm
    for rep in (cold, warm):
        assert rep.interior_min == 0.0 and not rep.passed
        assert math.copysign(1.0, rep.interior_min) == sign


def test_sharpness_paths_agree_on_a_nan_sample():
    # inf * 0 at the last sample, 0.5: numpy's min propagates the NaN
    profile = JacobianProfile("inf", ((math.inf,), (1.0, -0.5)), 0)
    cold, warm = _sharpness_both_paths(profile, _last_sample_at(0.5))
    assert math.isnan(cold.interior_min) and math.isnan(warm.interior_min)
    assert cold[:3] == warm[:3] and cold[4:] == warm[4:]


def test_sharpness_radius_domain():
    with pytest.raises(ValueError):
        verify_sharpness(koebe_witness_profile(), 0.9995)
