"""HarmonicMap evaluation, derivatives, dilation, sections."""

import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmradius import (
    EXTREMALS,
    BoundFamily,
    CoefficientSeq,
    EvaluationDomainError,
    HarmonicMap,
    get_extremal,
    identity_map,
)
from harmradius.coefficients import SERIES_EVAL_MAX
from harmradius.maps import ClosedForm, _compile

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
    assert f.source[0].a == {10 ** 13: 1e-15}
    assert f.dilate(0.5).is_series
    message = "up to degree 10000; the highest stored index is 10000000000000"
    for evaluate in (f, f.wirtinger, f.jacobian, f.dilate(0.5)):
        with pytest.raises(ValueError, match=message):
            evaluate(0.1)
    # coefficients and sections read the sequence and build no polynomial
    assert f.coefficient(1) == (1.0 + 0j, 0j) and f.coefficient(2) == (0j, 0j)
    assert f.coefficient(10 ** 13) == (1e-15 + 0j, 0j)
    assert f.dilate(0.5).coefficient(2) == (0j, 0j)
    assert f.section(3, 1).source == (CoefficientSeq({}, {}, 3), 1.0)
    # the cap itself compiles
    g = HarmonicMap.from_series(CoefficientSeq({10 ** 4: 1e-9}, {}, 10 ** 4))
    assert g(0.5) == pytest.approx(0.5, abs=1e-15)


def test_compiled_evaluators_match_numpy_polynomial_bit_for_bit(rng):
    from numpy.polynomial import polynomial as npoly

    def rand(size):
        return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)

    for degree in range(1, 60):
        for zeros in ("none", "top", "sparse"):
            a, b = rand(degree + 1), 0.1 * rand(degree + 1)
            if zeros == "top":
                a[degree] = b[degree] = 0.0
            if zeros == "sparse":
                # interior zeros, which the evaluators do not add, and a
                # b1 that may be 0, -0.0 or nonzero: the last coefficient of g'
                a[rng.random(degree + 1) < 0.6] = 0.0
                b[rng.random(degree + 1) < 0.6] = 0.0
                b[1] = (0.0, complex(-0.0, 0.0), b[1])[degree % 3]
            seq = CoefficientSeq(dict(enumerate(a[2:], 2)), dict(enumerate(b[1:], 1)), degree)
            ch = np.array([0, 1, *a[2:]], dtype=complex)
            cg = np.array([0, *b[1:]], dtype=complex)
            forms = _compile(seq)
            pairs = [(forms.f, (ch, cg)), (forms.df, (npoly.polyder(ch), npoly.polyder(cg)))]
            for w in (0.5 * rand((3, 4)), np.asarray(0.5 * rand(1)[0]), np.asarray(0j),
                      np.array([0j, 0.3, -0.4, 0.25j, -0.5j])):
                for evaluate, cs in pairs:
                    for got, c in zip(evaluate(w), cs, strict=True):
                        got, want = np.asarray(got), np.asarray(npoly.polyval(w, c))
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (degree, zeros)
            # numbers leave the zero terms out too; they must give the sum of
            # every term, zero signs included, in plain Python arithmetic
            for w in (complex(0.5 * rand(1)[0]), 0j, complex(-0.0, 0.0), complex(-0.4, -0.0),
                      complex(-0.0, 0.3)):
                for evaluate, cs in pairs:
                    for got, c in zip(evaluate(w), cs, strict=True):
                        want = 0.0
                        for k in reversed(c.tolist()):
                            want = want * w + k
                        assert type(got) is complex, (degree, zeros, w)
                        assert (struct.pack("dd", got.real, got.imag)
                                == struct.pack("dd", want.real, want.imag)), (degree, zeros, w)


def test_wirtinger_matches_finite_differences(rng):
    f = HarmonicMap.from_series(_sample_seq())
    for _ in range(10):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fz, fzbar = f.wirtinger(z)
        ofz, ofzbar = fd_wirtinger(f, z)
        assert fz == pytest.approx(ofz, abs=2e-9)
        assert fzbar == pytest.approx(ofzbar, abs=2e-9)


def test_jacobian_matches_fd_determinant(rng):
    for f in (HarmonicMap.from_series(_sample_seq()), get_extremal("koebe")):
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

DISK_MESSAGE = "evaluation requires |z| < 1"


def test_series_domain_guard():
    # a series map is its stored polynomial, exact on the whole open disk
    f = HarmonicMap.from_series(_sample_seq())
    for z in (SERIES_EVAL_MAX, 0.9995, math.nextafter(1.0, 0.0), -0.9999999j):
        assert f(z) == pytest.approx(_brute_eval(_sample_seq(), z), abs=1e-14)
    for z in (1.0, np.array([0.1, 1j]), -1.2):
        with pytest.raises(EvaluationDomainError, match=re.escape(DISK_MESSAGE)):
            f(z)


def test_closed_form_domain_guard():
    f = get_extremal("koebe")
    f(0.9995)  # fine: closed forms work on the open disk
    for z in (1.0, -1.2):
        with pytest.raises(EvaluationDomainError, match=re.escape(DISK_MESSAGE)):
            f(z)


# -- scalar and array paths ------------------------------------------------------

# A number is evaluated in plain complex arithmetic and an array by numpy;
# the two round differently (numpy divides by multiplying by a reciprocal),
# so they agree to a float64 tolerance fixed here, relative to the size of
# the value, or to 1 where a small value is a cancellation of terms of
# order 1 (J to |h'|^2 + |g'|^2, the terms it is the difference of).
PATH_RTOL = 1e-14


def _path_maps():
    seq = CoefficientSeq({n: (-0.3 + 0.2j) / n ** 3 for n in range(2, 31)},
                         {n: (0.1 - 0.15j) / n ** 3 for n in range(1, 31)}, 30)
    closed = [get_extremal(label, *((2.0, 0.3) if kind == "uniform" else ()))
              for label, (kind, _, _) in sorted(EXTREMALS.items())]
    series = [HarmonicMap.from_series(_sample_seq()), HarmonicMap.from_series(seq)]
    return [*closed, *series, get_extremal("koebe").dilate(0.3), series[1].dilate(0.5)]


@pytest.mark.parametrize("f", _path_maps(), ids=lambda f: f.label)
def test_scalar_and_array_paths_agree(f, rng):
    rho = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, 200))
    zs = rho * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 200))
    values, (fz, fzbar) = f(zs), f.wirtinger(zs)
    jac, mu = f.jacobian(zs), f.dilatation(zs)
    for k, z in enumerate(zs.tolist()):
        got = [f(z), *f.wirtinger(z), f.dilatation(z)]
        for g, want in zip(got, (values[k], fz[k], fzbar[k], mu[k])):
            assert abs(g - want) <= PATH_RTOL * max(1.0, abs(want)), (f.label, z)
        scale = abs(fz[k]) ** 2 + abs(fzbar[k]) ** 2
        assert abs(f.jacobian(z) - jac[k]) <= PATH_RTOL * max(1.0, scale), (f.label, z)


@pytest.mark.parametrize("f", [get_extremal("koebe"), HarmonicMap.from_series(_sample_seq())],
                         ids=lambda f: f.label)
def test_scalar_path_refuses_at_the_array_boundary(f):
    # one domain for every map: the float below 1 is evaluated, 1 is not
    limit = math.nextafter(1.0, 0.0)
    beyond = math.nextafter(limit, 2.0)
    for evaluate in (f, f.wirtinger, f.jacobian, f.dilatation):
        for direction in (1.0, -1j):
            evaluate(limit * direction)
            evaluate(np.array([limit * direction]))
            messages = []
            for z in (beyond * direction, np.float64(beyond) * direction,
                      np.asarray(beyond * direction), np.array([0.0, beyond * direction])):
                with pytest.raises(EvaluationDomainError) as info:
                    evaluate(z)
                messages.append(str(info.value))
            assert set(messages) == {DISK_MESSAGE}, messages


def test_numbers_and_zero_d_arrays_take_the_scalar_path():
    z = 0.07 + 0.02j
    for f in (get_extremal("F0").dilate(0.9), identity_map(),
              HarmonicMap.from_series(_sample_seq()).dilate(0.9)):
        for w in (np.complex128(z), np.asarray(z)):
            assert f(w) == f(z) and f.wirtinger(w) == f.wirtinger(z)
            assert f.jacobian(w) == f.jacobian(z) and f.dilatation(w) == f.dilatation(z)
        for w in (0.05, np.float64(0.05), np.float32(0.05), np.asarray(0.05), 0, np.int64(0)):
            assert type(f(w)) is complex and type(f.dilatation(w)) is complex
            assert type(f.jacobian(w)) is float
            assert [type(v) for v in f.wirtinger(w)] == [complex, complex]
        assert f(np.float32(0.05)) == f(float(np.float32(0.05)))
        for w in (np.array([z]), np.full((2, 3), z), [z, 0.0]):
            assert isinstance(f(w), np.ndarray) and f(w).shape == np.shape(w)
            assert f.jacobian(w).dtype == float and f.dilatation(w).shape == np.shape(w)


def test_scalar_evaluation_imports_no_numpy():
    code = """
import sys
import harmradius as hr
for f in (hr.get_extremal("F0"), hr.get_extremal("f0", 2.0, 0.3).dilate(0.5),
          hr.HarmonicMap.from_series(hr.CoefficientSeq({2: 0.1j}, {3: 0.01}, 3))):
    f(0.05), f.wirtinger(0.05j), f.jacobian(0.05), f.dilatation(0.05)
assert "numpy" not in sys.modules, "scalar evaluation loaded numpy"
"""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


# -- normalization and construction ---------------------------------------------

NAMED = [("koebe", ()), ("convex_L", ()), ("F0", ()), ("L0", ()), ("f0", (1.0,)),
         ("f0", (2.0, 0.3))]


@pytest.mark.parametrize("label, params", NAMED,
                         ids=[label + (":%s" % ",".join(map(str, p)) if p else "")
                              for label, p in NAMED])
def test_named_maps_are_normalized(label, params):
    # the hand-coded evaluators agree with the coefficients their bounds give
    f = get_extremal(label, *params)
    b1 = f.coefficient(1)[1]
    assert f(0) == 0 and f(0j) == 0
    assert f.wirtinger(0) == (1, b1.conjugate())
    assert abs(b1) < 1


def test_undilated_evaluation_leaves_its_input_unchanged(rng):
    # an undilated map evaluates the caller's complex array itself, not a scaled copy
    z = 0.7 * rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    before = z.tobytes()
    maps = [HarmonicMap.from_series(_sample_seq()), identity_map()]
    maps += [get_extremal(label, *([1.5, 0.25] if kind == "uniform" else []))
             for label, (kind, _, _) in EXTREMALS.items()]
    for f in maps:
        for evaluate in (f, f.wirtinger, f.jacobian, f.dilatation):
            out = evaluate(z)
            assert z.tobytes() == before, (f.label, evaluate)
            assert all(v is not z for v in (out if isinstance(out, tuple) else (out,)))


def test_dilate_calls_no_evaluator(monkeypatch):
    from harmradius import maps

    calls = []
    named_forms = maps.named_forms
    monkeypatch.setattr(maps, "named_forms", lambda *b: calls.append(b) or named_forms(*b))
    f = HarmonicMap("x", (BoundFamily("uniform", 1e-300), 1, 1))
    g = f.dilate(0.5).dilate(0.5)
    # a named map builds its evaluators on its first evaluation, not on dilate
    assert calls == [] and "_forms" not in vars(g)
    assert g.source == (BoundFamily("uniform", 1e-300), 0.25)
    assert g.coefficient(2) == (0.125e-300 + 0j, 0.125e-300 + 0j)
    assert g(0.5) == 0.5 and calls == [(BoundFamily("uniform", 1e-300), 1, 1)]
    assert "_forms" in vars(g) and "_forms" not in vars(f)


def test_constructor_takes_a_series_or_bounds():
    # one positional definition: a CoefficientSeq or a named map's row
    koebe = BoundFamily("koebe")
    for signs in ((0, 1), (1, 2)):
        with pytest.raises(ValueError, match="signs must be [+]1 or -1"):
            HarmonicMap("bad", (koebe, *signs))
    # each sign is an integer by check_index's rule: a bool or a float is refused
    for signs in ((True, -1), (1, 1.0), (-1, 0.5), (np.True_, 1)):
        with pytest.raises(TypeError, match="a named map's sign must be an integer, got "):
            HarmonicMap("bad", (koebe, *signs))
    f = HarmonicMap("x", (koebe, 1, np.int64(-1)))
    assert f._definition == (koebe, 1, -1) and type(f._definition[2]) is int
    assert f.coefficient(2) == (2.5 + 0j, -0.5 + 0j) and not f.is_series
    for removed in ("series", "bounds", "forms", "scale"):
        with pytest.raises(TypeError, match=removed):
            HarmonicMap("bad", **{removed: _sample_seq()})
    assert ClosedForm._fields == ("f", "df")
    assert HarmonicMap("K", (koebe, 1, 1)).coefficient(2) == (2.5 + 0j, 0.5 + 0j)
    # a label and a definition, nothing more: dilate is the one way to scale
    with pytest.raises(TypeError, match="positional"):
        HarmonicMap("s", _sample_seq(), 0.5)
    g = HarmonicMap("s", _sample_seq()).dilate(0.5)
    assert g.is_series and g.source == (_sample_seq(), 0.5)
    assert g.coefficient(2) == (0.5 * (0.25 + 0.1j), 0j)


DEFINITION_MESSAGE = "definition must be a CoefficientSeq or (BoundFamily, sign_a, sign_b), got "


def test_series_must_be_a_coefficient_seq():
    for series in ({2: 0.1}, BoundFamily("koebe"), ({2: 0.1}, {}, 2), None):
        with pytest.raises(TypeError, match=re.escape(f"{DEFINITION_MESSAGE}{series!r}")):
            HarmonicMap("bad", series)


def test_bounds_must_be_a_family_and_two_signs():
    koebe = BoundFamily("koebe")
    for bounds in (("koebe", 1, 1), (koebe, 1), (koebe, 1, 1, 1), [koebe, 1, 1], koebe):
        with pytest.raises(TypeError, match=re.escape(f"{DEFINITION_MESSAGE}{bounds!r}")):
            HarmonicMap("bad", bounds)


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
    # each factor is in (0, 1], but the composed scale underflows to 0
    g = f.dilate(1e-200)
    with pytest.raises(ValueError, match=re.escape("scale must lie in (0, 1], got 0.0")):
        g.dilate(1e-200)


@pytest.mark.parametrize("f, builder", [
    (HarmonicMap.from_series(_sample_seq()), "_compile"),
    (get_extremal("F0"), "named_forms"),
], ids=["series", "named"])
def test_dilate_keeps_built_evaluators(monkeypatch, f, builder):
    # the evaluators read the scaled point, never the scale: a dilated map
    # shares those already built, and building them once serves both
    from harmradius import maps

    calls = []
    build = getattr(maps, builder)
    monkeypatch.setattr(maps, builder, lambda *a: calls.append(a) or build(*a))
    f = HarmonicMap(f.label, f._definition)
    value = f(0.4)
    g = f.dilate(0.5)
    assert g(0.8) == pytest.approx(value / 0.5, abs=1e-15)
    assert len(calls) == 1 and vars(g)["_forms"] is vars(f)["_forms"]
    assert g.label == f"dilate({f.label},0.5)" and (f.source[1], g.source[1]) == (1.0, 0.5)


@pytest.mark.parametrize("f", [HarmonicMap.from_series(_sample_seq()), get_extremal("koebe")],
                         ids=["series", "named"])
def test_f_refuses_a_scale_below_the_least_normal_float(f):
    # f(rz)/r: numpy divides an array by multiplying by 1/r, which overflows
    # past 1/DBL_MAX, and a number loses digits; the derivatives divide by nothing
    z = np.array([0.3 + 0.1j, -0.5j])
    for scale in (sys.float_info.min / 2, 1e-310, 1e-320, 5e-324):
        g = f.dilate(scale)
        message = re.escape(f"{g.label}: f is not evaluated at scale {scale!r}, "
                            "below the least normal float")
        for point in (z, z[0]):
            with pytest.raises(EvaluationDomainError, match=message):
                g(point)
        fz, fzbar = g.wirtinger(z)
        assert np.allclose(fz, 1.0) and np.allclose(fzbar, np.conj(f.coefficient(1)[1]))
        assert np.allclose(g.jacobian(z), 1.0 - abs(f.coefficient(1)[1]) ** 2)
        assert np.allclose(g.dilatation(z), f.coefficient(1)[1])
    # the least normal float itself is evaluated, on both paths
    g = f.dilate(sys.float_info.min)
    assert g(z[0]) == pytest.approx(z[0] + f.coefficient(1)[1].conjugate() * z[0].conjugate())
    assert g(z)[0] == g(z[0])


def test_dilate_label_keeps_every_digit():
    # r printed by repr, as a grid_spec prints its radius: :g would print 1
    r = 0.9999999999999999
    assert get_extremal("F0").dilate(r).label == f"dilate(F0,{r!r})"
    assert identity_map().dilate(np.float64(0.1129031)).label == "dilate(identity,0.1129031)"


# -- sections and sequences ----------------------------------------------------

def test_section_is_prefix():
    f = HarmonicMap.from_series(_sample_seq())
    s = f.section(2, 1)
    assert s.coefficient(2)[0] == f.coefficient(2)[0]
    assert s.coefficient(1)[1] == f.coefficient(1)[1]
    assert s.coefficient(3) == (0j, 0j)  # truncated away
    assert s.coefficient(5) == (0j, 0j)


def test_section_of_closed_form_with_rule():
    K = get_extremal("koebe")
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
    for n, m, message in ((0, 0, ">= 1, got 0"), (1, -1, ">= 0, got -1")):
        with pytest.raises(ValueError, match=f"section degree must be {message}"):
            identity_map().section(n, m)
    # a degree is an integer: no truncation of 2.5, and no failure inside range()
    for n, m in ((2.5, 2), (2, 2.0), (True, 1), (2, np.float64(1.0))):
        with pytest.raises(TypeError, match="section degree must be an integer"):
            get_extremal("koebe").section(n, m)
    s = get_extremal("koebe").section(np.int64(3), np.int32(2))
    assert s.coefficient(3) == (get_extremal("koebe").coefficient(3)[0], 0j)


@pytest.mark.parametrize("n, m", [(3000, 3000), (1, 0), (2, 7), (7, 2)])
def test_section_reads_each_index_once(monkeypatch, n, m):
    calls = []
    coefficient = HarmonicMap.coefficient
    monkeypatch.setattr(HarmonicMap, "coefficient",
                        lambda self, k: calls.append(k) or coefficient(self, k))
    f = get_extremal("F0").dilate(0.1)
    s = f.section(n, m)
    assert calls == list(range(1, max(n, m) + 1))
    monkeypatch.undo()
    for k in range(1, max(n, m) + 2):
        a, b = f.coefficient(k)
        assert s.coefficient(k) == (a if k <= n else 0j, b if k <= m else 0j)


@pytest.mark.parametrize("label", [*sorted(EXTREMALS), "series"])
def test_coefficient_index_is_any_integer_but_bool(label):
    if label == "series":
        f = HarmonicMap.from_series(_sample_seq())
    else:
        f = get_extremal(label, *((2.0,) if EXTREMALS[label][0] == "uniform" else ()))
    assert f.coefficient(np.int64(3)) == f.coefficient(3)
    assert f.dilate(0.5).coefficient(np.int32(4)) == f.dilate(0.5).coefficient(4)
    for bad in (3.0, np.float64(3.0), True, np.bool_(True), "3"):
        with pytest.raises(TypeError, match="index must be an integer"):
            f.coefficient(bad)
    with pytest.raises(ValueError):
        f.coefficient(np.int64(0))


def test_source_is_the_sequence_or_family_and_the_dilation():
    seq = _sample_seq()
    # a series map hands on the sequence it was built from, dilated or not
    f = HarmonicMap.from_series(seq)
    assert f.source[0] is seq and f.source[1] == 1.0
    g = f.dilate(0.5).dilate(0.5)
    assert g.source[0] is seq and g.source[1] == 0.25
    # a named map its family, however it is signed
    assert get_extremal("koebe").source == (BoundFamily.koebe(), 1.0)
    assert get_extremal("F0").dilate(0.1).source == (BoundFamily.koebe(), 0.1)
    assert get_extremal("f0", 2.0, 0.3).source == (BoundFamily.uniform(2.0, 0.3), 1.0)


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
