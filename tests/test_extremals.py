"""Named extremal maps, witness Jacobians, power-sum closed forms."""

import cmath
import math
import struct

import numpy as np
import pytest

from harmradius import (
    CONVEX_EXTREMAL_CONVEXITY_RADIUS,
    EXTREMALS,
    FAMILY_POLYNOMIALS,
    PARAMETERS,
    WITNESSES,
    BoundFamily,
    closed_form_radius,
    convex_extremal,
    convex_family_radius,
    convex_witness,
    convex_witness_profile,
    get_extremal,
    harmonic_koebe,
    jacobian_roots,
    koebe_witness,
    koebe_witness_profile,
    one_term_extremal,
    power_sums,
    uniform_family_radius,
    uniform_witness,
    uniform_witness_profile,
    verify_sharpness,
)


# -- coefficients of the named maps -------------------------------------------

def test_koebe_coefficients():
    K = harmonic_koebe()
    assert K.coefficient(1) == (1.0 + 0j, 0j)
    assert K.coefficient(2) == (2.5 + 0j, 0.5 + 0j)
    a7, b7 = K.coefficient(7)
    assert a7.real == pytest.approx(15 * 8 / 6)
    assert b7.real == pytest.approx(13 * 6 / 6)


def test_convex_extremal_coefficients():
    L = convex_extremal()
    assert L.coefficient(3) == (2.0 + 0j, -1.0 + 0j)
    assert L.coefficient(1) == (1.0 + 0j, 0j)


def test_witness_coefficients():
    assert koebe_witness().coefficient(2) == (-2.5 + 0j, -0.5 + 0j)
    assert koebe_witness().coefficient(1) == (1.0 + 0j, 0j)
    assert convex_witness().coefficient(2) == (-1.5 + 0j, 0.5 + 0j)
    f0 = uniform_witness(1.5, 0.25)
    assert f0.coefficient(1) == (1.0 + 0j, -0.25 + 0j)
    assert f0.coefficient(4) == (-0.75 + 0j, -0.75 + 0j)


def test_uniform_witness_initial_derivative():
    for b1 in (0.0, 0.3, 0.85):
        f0 = uniform_witness(2.0, b1)
        _, fzbar = f0.wirtinger(0.0)
        # g'(0) = -b1: the anti-analytic derivative at 0 is its conjugate
        assert fzbar == pytest.approx(-b1 + 0j, abs=1e-15)


def test_uniform_witness_validation():
    with pytest.raises(ValueError):
        uniform_witness(0.0)
    with pytest.raises(ValueError):
        uniform_witness(1.0, 1.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            uniform_witness(c)
        with pytest.raises(ValueError, match="finite"):
            uniform_witness_profile(c, 0.2)


# -- closed form vs series ------------------------------------------------------

@pytest.mark.parametrize("factory", [
    harmonic_koebe, convex_extremal, koebe_witness, convex_witness,
    lambda: uniform_witness(1.5, 0.25),
])
def test_closed_form_agrees_with_series(factory, rng):
    f = factory()
    s = f.section(80, 80)
    for _ in range(50):
        z = rng.uniform(0, 0.5) * cmath.exp(2j * math.pi * rng.uniform())
        assert s(z) == pytest.approx(f(z), abs=1e-10)
        sz, szb = s.wirtinger(z)
        fz, fzb = f.wirtinger(z)
        assert sz == pytest.approx(fz, abs=1e-8)
        assert szb == pytest.approx(fzb, abs=1e-8)


# The base extremals' closed forms as they read before halving became a
# product by 0.5: the reference for the bits of the current ones.
def _halved_by_division(z):
    q, zz = 1 - z, z * z
    return {
        "_koebe_h": (z - zz / 2 + z * zz / 6) / (q * (q * q)),
        "_koebe_g": (zz / 2 + z * zz / 6) / (q * (q * q)),
        "_convex_h": (z / (1 - z) + z / (1 - z) ** 2) / 2,
        "_convex_g": (z / (1 - z) - z / (1 - z) ** 2) / 2,
        "_convex_dh": (1 / (q * q) + (1 + z) / (q * (q * q))) / 2,
        "_convex_dg": (1 / (q * q) - (1 + z) / (q * (q * q))) / 2,
    }


def test_halving_by_product_keeps_the_bits(rng):
    from harmradius import extremals

    # real-axis, imaginary-axis and random points, and 0; zero parts are +0.0,
    # as in every grid the package samples (a -0.0 part can flip a zero's sign)
    axis = list(rng.uniform(-0.95, 0.95, 40)) + [0.5, -0.5, 1e-3, -1e-3]
    points = ([complex(x, 0.0) for x in axis] + [complex(0.0, y) for y in axis] + [0j]
              + list(rng.uniform(-0.6, 0.6, 40) + 1j * rng.uniform(-0.6, 0.6, 40)))
    arr = np.array(points)
    want = _halved_by_division(arr)
    for name, values in want.items():
        form = getattr(extremals, name)
        assert form(arr).tobytes() == values.tobytes(), name
        for z in points:
            got, ref = form(z), _halved_by_division(z)[name]
            assert struct.pack("2d", got.real, got.imag) == struct.pack("2d", ref.real, ref.imag)


def test_koebe_dilatation_is_z(rng):
    K = harmonic_koebe()
    for _ in range(20):
        z = rng.uniform(0, 0.9) * cmath.exp(2j * math.pi * rng.uniform())
        assert K.dilatation(z) == pytest.approx(z, abs=1e-12)


def test_koebe_boundary_behavior():
    K = harmonic_koebe()
    val = K(-0.999)
    assert abs(val.imag) < 1e-12
    assert val.real == pytest.approx(-1.0 / 6.0, abs=1e-2)
    # real on the real axis, increasing toward the slit tip
    xs = np.linspace(-0.95, -0.05, 20)
    vals = K(xs)
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.all(vals.real > -1.0 / 6.0)


def test_convex_extremal_real_axis():
    L = convex_extremal()
    for x in (-0.7, -0.2, 0.1, 0.45):
        assert L(x).real == pytest.approx(x / (1 - x), abs=1e-14)
        assert L(x).imag == pytest.approx(0.0, abs=1e-15)


def test_convexity_radius_constant():
    assert CONVEX_EXTREMAL_CONVEXITY_RADIUS == pytest.approx(math.sqrt(2) - 1,
                                                             abs=1e-16)


# -- witness Jacobians (profiles) -------------------------------------------------

def test_koebe_witness_jacobian_normalization():
    assert koebe_witness_profile()(0.0) == pytest.approx(1.0, abs=1e-15)


def test_koebe_witness_jacobian_matches_map():
    F0, profile = koebe_witness(), koebe_witness_profile()
    for r in (0.05, 0.14, 0.2, 0.4):
        assert profile(r) == pytest.approx(F0.jacobian(r), abs=1e-9)
    assert profile(0.14) < 0


def test_koebe_witness_jacobian_factored_identity():
    # the polynomial-quotient form equals (1 - S(r)) (2 - (1+r)/(1-r)^3)
    # where S is the koebe-family weighted sum
    profile = koebe_witness_profile()
    for r in np.linspace(0.01, 0.9, 50):
        t1 = 1.0 / (1 - r) ** 2
        t3 = (1 + 4 * r + r * r) / (1 - r) ** 4
        s = (2 * (t3 - 1) + (t1 - 1)) / 3
        expected = (1 - s) * (2 - (1 + r) / (1 - r) ** 3)
        assert profile(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_koebe_witness_sign_pattern():
    profile = koebe_witness_profile()
    lo, hi = 0.112903, 0.164878
    assert np.all(profile(np.linspace(0.01, lo - 1e-3, 100)) > 0)
    assert np.all(profile(np.linspace(lo + 1e-3, hi - 1e-3, 100)) < 0)


def test_convex_witness_jacobian_roots_exact():
    profile = convex_witness_profile()
    r1 = convex_family_radius().radius
    assert abs(profile(r1)) < 1e-12
    r2 = (2 - math.sqrt(2)) / 2
    assert abs(profile(r2)) < 1e-12


def test_convex_witness_jacobian_factored_form():
    # (2 - (1+r)/(1-r)^3)(2 - 1/(1-r)^2), the product of the two
    # dilated-derivative brackets of L0
    profile = convex_witness_profile()
    for r in np.linspace(0.001, 0.9, 80):
        expected = (2 - (1 + r) / (1 - r) ** 3) * (2 - 1 / (1 - r) ** 2)
        assert profile(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_convex_witness_jacobian_expanded_form():
    # factored vs expanded: (2(1-r)^3-(1+r)) * 2(r-1-s)(r-1+s) / (1-r)^5,
    # s = sqrt(2)/2
    profile = convex_witness_profile()
    s = math.sqrt(2) / 2
    for r in np.linspace(0.001, 0.9, 80):
        num = (2 * (1 - r) ** 3 - (1 + r)) * 2 * (r - 1 - s) * (r - 1 + s)
        expected = num / (1 - r) ** 5
        assert profile(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_convex_witness_jacobian_matches_map():
    L0, profile = convex_witness(), convex_witness_profile()
    for r in (0.05, 0.2, 0.31):
        assert profile(r) == pytest.approx(L0.jacobian(r), abs=1e-9)


def test_uniform_witness_jacobian_vanishes_at_radius():
    for c in (0.25, 1.0, 2.5, 4.0):
        for b1 in (0.0, 0.3, 0.9):
            r = uniform_family_radius(c, b1).radius
            assert abs(uniform_witness_profile(c, b1)(r)) < 1e-10


def test_uniform_witness_jacobian_matches_map():
    f0, profile = uniform_witness(1.5, 0.25), uniform_witness_profile(1.5, 0.25)
    for r in (0.1, 0.3, 0.6):
        assert profile(r) == pytest.approx(f0.jacobian(r), abs=1e-9)
        # the unexpanded form (1 + b1)(1 + c - b1 - c/(1-r)^2)
        assert profile(r) == pytest.approx(
            1.25 * (2.25 - 1.5 / (1 - r) ** 2), rel=1e-12, abs=1e-12)


def test_profiles_normalize_at_zero():
    assert koebe_witness_profile()(0.0) == pytest.approx(1.0)
    assert convex_witness_profile()(0.0) == pytest.approx(1.0)
    p = uniform_witness_profile(2.0, 0.3)
    assert p(0.0) == pytest.approx(1.0 - 0.09, abs=1e-15)


def test_profile_domain_check():
    profile = koebe_witness_profile()
    for bad in (1.0, -0.1, math.nan, np.array([0.5, 1.0]), np.array([-0.1, 0.5])):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            profile(bad)
    with pytest.raises(ValueError):
        uniform_witness_profile(-1.0)


ALL_PROFILES = [koebe_witness_profile(), convex_witness_profile(),
                uniform_witness_profile(2.0, 0.3)]


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.label)
def test_profile_array_call_is_bitwise_elementwise(profile):
    # the grid jacobian_roots scans by default, and the witness radii
    for grid in (np.linspace(0.0, 0.999, 10000), np.linspace(0.0, 0.3, 1002)):
        values = profile(grid)
        assert values.dtype == np.float64 and values.shape == grid.shape
        scalar = np.array([profile(float(r)) for r in grid])
        assert np.array_equal(values, scalar)


def test_profiles_carry_their_family_polynomial():
    for label, (kind, factory) in WITNESSES.items():
        profile = factory() if label not in PARAMETERS else factory(1.0)
        if kind in FAMILY_POLYNOMIALS:
            assert FAMILY_POLYNOMIALS[kind] in profile.factors
        assert profile.label == label


@pytest.mark.parametrize("label", ["F0", "L0"])
def test_profile_vanishes_exactly_at_family_radius(label):
    kind, factory = WITNESSES[label]
    radius = closed_form_radius(BoundFamily(kind)).radius
    assert verify_sharpness(factory(), radius).root_residual == 0.0
    assert jacobian_roots(factory(), 0.0, 0.25)[0] == pytest.approx(radius, abs=1e-12)


# -- power-sum closed forms ---------------------------------------------------------

def test_power_sum_identities_at_half():
    s1, s2, s3 = power_sums(0.5)
    assert s1 == pytest.approx(2.0, abs=1e-12)
    assert s2 == pytest.approx(6.0, abs=1e-12)
    assert s3 == pytest.approx(52.0, abs=1e-12)


def test_power_sum_identities_against_summation():
    for r in (0.1, 0.3, 0.5):
        n = np.arange(1, 201, dtype=float)
        p1 = math.fsum(n * r ** n)
        p2 = math.fsum(n * n * r ** n)
        p3 = math.fsum(n ** 3 * r ** (n - 1))
        # remainder majorant: terms decay at least geometrically after n=200
        tail = 201 ** 3 * r ** 200 / (1 - r)
        c1, c2, c3 = power_sums(r)
        assert abs(c1 - p1) <= 1e-10 + tail
        assert abs(c2 - p2) <= 1e-10 + tail
        assert abs(c3 - p3) <= 1e-10 + tail


def test_power_sum_identities_small_r():
    s1, s2, s3 = power_sums(1e-8)
    assert s1 == pytest.approx(1e-8, abs=1e-7)
    assert s2 == pytest.approx(1e-8, abs=1e-7)
    assert s3 == pytest.approx(1.0, abs=1e-7)


def test_power_sum_identities_domain():
    # power_sums is defined on [0, 1), and so is the identities subcommand
    # (test_cli.py::test_identities_domain_error)
    assert power_sums(0.0) == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        power_sums(1.0)
    with pytest.raises(ValueError):
        power_sums(-0.1)


# -- one-term boundary maps -------------------------------------------------------

def test_one_term_analytic():
    f = one_term_extremal(3, 0.0)
    z = 0.3 + 0.2j
    assert f(z) == pytest.approx(z + z ** 3 / 3, abs=1e-15)


def test_one_term_anti():
    f = one_term_extremal(2, math.pi, anti=True)
    z = 0.25 - 0.4j
    assert f(z) == pytest.approx(z - (z ** 2).conjugate() / 2, abs=1e-15)


def test_one_term_validation():
    with pytest.raises(ValueError):
        one_term_extremal(1)


# -- registry ----------------------------------------------------------------------

def test_registry_labels():
    assert set(EXTREMALS) == {"koebe", "convex_L", "F0", "L0", "f0"}


def test_get_extremal_dispatch():
    assert get_extremal("koebe").label == "koebe"
    assert get_extremal("convex_L").label == "convex_L"
    f0 = get_extremal("f0", c=2.0, b1_abs=0.1)
    assert f0.label == "f0"
    with pytest.raises(ValueError):
        get_extremal("f0")  # c is required
    with pytest.raises(ValueError):
        get_extremal("koebe", c=1.0)
    with pytest.raises(ValueError):
        get_extremal("nope")


def test_witness_table_pairs_each_witness_with_its_family():
    assert set(WITNESSES) <= set(EXTREMALS)
    for label, (kind, profile) in WITNESSES.items():
        params = (2.0, 0.3) if label in PARAMETERS else ()
        assert len(params) == len(PARAMETERS.get(label, ()))
        witness = profile(*params)
        assert witness.label == label == get_extremal(label, *params).label
        radius = closed_form_radius(BoundFamily(kind, *params)).radius
        assert verify_sharpness(witness, radius).passed
