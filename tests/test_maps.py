"""HarmonicMap evaluation, derivatives, dilation, sections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmradius import (
    EXTREMALS,
    PARAMETERS,
    CoefficientSeq,
    EvaluationDomainError,
    HarmonicMap,
    UnsupportedOperation,
    get_extremal,
    harmonic_koebe,
    identity_map,
)
from harmradius.maps import SERIES_EVAL_MAX

from conftest import fd_wirtinger, fd_jacobian


def _sample_seq():
    return CoefficientSeq({2: 0.25 + 0.1j, 5: -0.02}, {1: 0.3j, 3: 0.05}, 5)


def _brute_eval(seq, z):
    h = z + sum(v * z ** n for n, v in seq.a.items())
    g = sum(v * z ** n for n, v in seq.b.items())
    return h + complex(g).conjugate()


# -- identity ---------------------------------------------------------------

def test_identity_map():
    f = identity_map()
    assert f(0.3 + 0.2j) == 0.3 + 0.2j
    assert f.wirtinger(0.1j) == (1.0 + 0j, 0j)
    assert f.jacobian(0.5) == 1.0
    assert f.dilatation(0.2) == 0j
    assert f.coefficient(1) == (1.0 + 0j, 0j)


# -- series backing -----------------------------------------------------------

def test_series_eval_matches_direct_summation(rng):
    seq = _sample_seq()
    f = HarmonicMap.from_series(seq)
    for _ in range(20):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert f(z) == pytest.approx(_brute_eval(seq, z), abs=1e-14)


def test_series_eval_vectorized(rng):
    f = HarmonicMap.from_series(_sample_seq())
    zs = (rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(-0.5, 0.5, 8))
    out = f(zs)
    assert out.shape == (8,)
    for z, w in zip(zs, out):
        assert w == pytest.approx(f(complex(z)), abs=1e-15)


def test_series_map_is_compiled_on_first_evaluation_up_to_degree_cap():
    # index 10^13: a dense polynomial would take 146 TiB, so the cap must
    # refuse it before any allocation; the stored sequence stays readable
    f = HarmonicMap.from_series(CoefficientSeq({10 ** 13: 1e-15}, {}, 10 ** 13))
    assert f.as_sequence().a == {10 ** 13: 1e-15}
    assert f.has_coefficients and f.dilate(0.5).is_series
    message = "up to degree 10000; the highest stored index is 10000000000000"
    for evaluate in (f, f.wirtinger, f.jacobian, f.dilate(0.5)):
        with pytest.raises(ValueError, match=message):
            evaluate(0.1)
    # the cap itself compiles
    g = HarmonicMap.from_series(CoefficientSeq({10 ** 4: 1e-9}, {}, 10 ** 4))
    assert g(0.5) == pytest.approx(0.5, abs=1e-15)


def test_wirtinger_matches_finite_differences(rng):
    f = HarmonicMap.from_series(_sample_seq())
    for _ in range(10):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fz, fzbar = f.wirtinger(z)
        ofz, ofzbar = fd_wirtinger(f, z)
        assert fz == pytest.approx(ofz, abs=2e-9)
        assert fzbar == pytest.approx(ofzbar, abs=2e-9)


def test_jacobian_matches_fd_determinant(rng):
    for f in (HarmonicMap.from_series(_sample_seq()), harmonic_koebe()):
        for _ in range(10):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
            assert f.jacobian(z) == pytest.approx(fd_jacobian(f, z), abs=1e-5)


def test_dilatation_is_ratio():
    f = HarmonicMap.from_series(_sample_seq())
    z = 0.2 + 0.1j
    fz, fzbar = f.wirtinger(z)
    assert f.dilatation(z) == pytest.approx(fzbar.conjugate() / fz, abs=1e-15)


def test_dilatation_raises_at_critical_point():
    # h'(z) = 1 - 2z vanishes at z = 1/2
    f = HarmonicMap.from_series(CoefficientSeq({2: -1.0}, {}, 2))
    with pytest.raises(ZeroDivisionError):
        f.dilatation(0.5)


# -- domain guards ------------------------------------------------------------

def test_series_domain_guard():
    f = HarmonicMap.from_series(_sample_seq())
    f(SERIES_EVAL_MAX)  # boundary of the trusted region is allowed
    with pytest.raises(EvaluationDomainError):
        f(0.9995)
    with pytest.raises(EvaluationDomainError):
        f(np.array([0.1, 0.9999j]))


def test_closed_form_domain_guard():
    f = harmonic_koebe()
    f(0.9995)  # fine: closed forms work on the open disk
    with pytest.raises(EvaluationDomainError):
        f(1.0)
    with pytest.raises(EvaluationDomainError):
        f(-1.2)


# -- normalization ------------------------------------------------------------

def test_constructor_rejects_unnormalized_h():
    with pytest.raises(ValueError):
        HarmonicMap.from_closed_form(
            "bad", lambda z: z + 0.1, lambda z: 0 * z,
            lambda z: 1.0 + 0 * z, lambda z: 0 * z)
    with pytest.raises(ValueError):
        HarmonicMap.from_closed_form(
            "bad", lambda z: 2 * z, lambda z: 0 * z,
            lambda z: 2.0 + 0 * z, lambda z: 0 * z)


def test_constructor_rejects_expanding_g():
    with pytest.raises(ValueError):
        HarmonicMap.from_closed_form(
            "bad", lambda z: z, lambda z: z,
            lambda z: 1.0 + 0 * z, lambda z: 1.0 + 0 * z)


# -- dilation -------------------------------------------------------------------

def test_dilate_eval_definition(rng):
    f = HarmonicMap.from_series(_sample_seq())
    g = f.dilate(0.4)
    for _ in range(10):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
        assert g(z) == pytest.approx(f(0.4 * z) / 0.4, abs=1e-14)


def test_dilate_coefficients_pick_up_powers():
    f = HarmonicMap.from_series(_sample_seq())
    g = f.dilate(0.5)
    a2, b2 = g.coefficient(2)
    assert a2 == pytest.approx((0.25 + 0.1j) * 0.5, abs=1e-16)
    a1, b1 = g.coefficient(1)
    assert a1 == 1.0 + 0j and b1 == 0.3j  # index 1 unscaled


def test_dilate_composes():
    f = HarmonicMap.from_series(_sample_seq())
    g1 = f.dilate(0.8).dilate(0.5)
    g2 = f.dilate(0.4)
    for n in range(1, 6):
        for x, y in zip(g1.coefficient(n), g2.coefficient(n)):
            assert x == pytest.approx(y, abs=1e-14)


def test_dilate_validates():
    f = identity_map()
    with pytest.raises(ValueError):
        f.dilate(0.0)
    with pytest.raises(ValueError):
        f.dilate(1.0001)
    assert f.dilate(1.0) is f


# -- sections and sequences ----------------------------------------------------

def test_section_is_prefix():
    f = HarmonicMap.from_series(_sample_seq())
    s = f.section(2, 1)
    assert s.coefficient(2)[0] == f.coefficient(2)[0]
    assert s.coefficient(1)[1] == f.coefficient(1)[1]
    assert s.coefficient(3) == (0j, 0j)  # truncated away
    assert s.coefficient(5) == (0j, 0j)


def test_section_of_closed_form_with_rule():
    K = harmonic_koebe()
    s = K.section(4, 4)
    assert s.is_series
    assert s.coefficient(2) == (2.5 + 0j, 0.5 + 0j)
    assert s.coefficient(3)[0] == pytest.approx(14.0 / 3.0)
    # partial sums approximate the map well inside the disk; the first
    # dropped terms contribute about (A_5 + B_5) 0.1^5 ~ 2e-4
    assert s(0.1) == pytest.approx(K(0.1), abs=5e-4)
    s10 = K.section(10, 10)
    assert s10(0.1) == pytest.approx(K(0.1), abs=1e-8)


def test_section_degree_validation():
    with pytest.raises(ValueError):
        identity_map().section(0, 0)


def test_closed_form_without_rule_cannot_section():
    f = HarmonicMap.from_closed_form(
        "opaque", lambda z: z, lambda z: 0 * z,
        lambda z: 1.0 + 0 * z, lambda z: 0 * z)
    with pytest.raises(UnsupportedOperation):
        f.section(3, 3)
    with pytest.raises(UnsupportedOperation):
        f.coefficient(2)
    assert not f.has_coefficients


@pytest.mark.parametrize("label", [*sorted(EXTREMALS), "series"])
def test_coefficient_index_is_any_integer_but_bool(label):
    if label == "series":
        f = HarmonicMap.from_series(_sample_seq())
    else:
        f = get_extremal(label, 2.0) if label in PARAMETERS else get_extremal(label)
    assert f.coefficient(np.int64(3)) == f.coefficient(3)
    assert f.dilate(0.5).coefficient(np.int32(4)) == f.dilate(0.5).coefficient(4)
    for bad in (3.0, np.float64(3.0), True, np.bool_(True), "3"):
        with pytest.raises(TypeError, match="index must be an integer"):
            f.coefficient(bad)
    with pytest.raises(ValueError):
        f.coefficient(np.int64(0))


def test_as_sequence_roundtrip_and_closed_refusal():
    seq = _sample_seq()
    assert HarmonicMap.from_series(seq).as_sequence() == seq
    with pytest.raises(UnsupportedOperation):
        harmonic_koebe().as_sequence()


def test_section_of_dilated_map_folds_scale():
    f = HarmonicMap.from_series(_sample_seq()).dilate(0.5)
    s = f.section(5, 5)
    for n in range(1, 6):
        for x, y in zip(s.coefficient(n), f.coefficient(n)):
            assert x == pytest.approx(y, abs=1e-16)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_dilate_composition_property(r, s):
    f = HarmonicMap.from_series(CoefficientSeq({3: 0.2j}, {2: 0.1}, 3))
    g1 = f.dilate(r).dilate(s)
    g2 = f.dilate(r * s)
    for n in (1, 2, 3):
        for x, y in zip(g1.coefficient(n), g2.coefficient(n)):
            assert abs(x - y) <= 1e-14
