"""Coefficient sequences, bound families, weighted sums, JSON I/O."""

import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmradius import (
    BoundFamily,
    CoefficientSeq,
    TailBound,
    load_sequence,
    power_sums,
    save_sequence,
    sequence_from_dict,
    sequence_to_dict,
    weighted_sum,
    weighted_sum_limit,
)
from harmradius.coefficients import (
    _ZETA_CORRECTIONS,
    SERIES_EVAL_MAX,
    _hurwitz_zeta_majorant,
    _moduli,
    _tail_sum,
    weighted_sum_tail,
)

from conftest import brute_weighted_sum


# -- construction and validation --------------------------------------------

def test_seq_basic_fields():
    seq = CoefficientSeq({2: 0.5 + 0j}, {1: 0.25 + 0j, 3: -0.125j}, 3)
    assert seq.b1 == 0.25 + 0j
    assert seq.truncation == 3
    assert seq.a[2] == 0.5 + 0j


def test_seq_rejects_a1():
    with pytest.raises(ValueError):
        CoefficientSeq({1: 2.0}, {}, 2)


def test_seq_rejects_bad_b_index():
    with pytest.raises(ValueError):
        CoefficientSeq({}, {0: 1.0}, 2)


def test_seq_indices_become_ints():
    seq = CoefficientSeq({np.int64(2): 0.1}, {np.int64(1): 0.2}, 2)
    assert [type(n) for n in (*seq.a, *seq.b)] == [int, int]
    with pytest.raises(TypeError):
        CoefficientSeq({True: 0.1}, {}, 2)


def test_seq_rejects_index_beyond_truncation():
    with pytest.raises(ValueError):
        CoefficientSeq({5: 1.0}, {}, 4)


def test_seq_truncation_is_an_integer():
    for truncation in (2.5, 3.0, "3", True):
        with pytest.raises(TypeError, match="truncation must be an integer"):
            CoefficientSeq({2: 0.1}, {}, truncation)
    seq = CoefficientSeq({2: 0.1}, {}, np.int64(3))
    assert seq.truncation == 3 and type(seq.truncation) is int


def test_seq_rejects_large_b1():
    with pytest.raises(ValueError):
        CoefficientSeq({}, {1: 1.0}, 1)
    with pytest.raises(ValueError):
        CoefficientSeq({}, {1: -1.0 + 0j}, 1)
    CoefficientSeq({}, {1: 0.999}, 1)  # strictly inside is fine


def test_seq_rejects_nonfinite():
    with pytest.raises(ValueError):
        CoefficientSeq({2: complex("inf")}, {}, 2)
    with pytest.raises(ValueError):
        CoefficientSeq({}, {2: complex("nan")}, 2)
    with pytest.raises(ValueError):  # finite b_5, but 5*|b_5| overflows
        CoefficientSeq({}, {5: 1e308}, 5)


def test_tail_bound_validation():
    TailBound(degree=-3.0, constant=1.0)
    with pytest.raises(ValueError):
        TailBound(degree=-3.0, constant=-1.0)


def test_seq_tail_must_be_a_tail_bound():
    # refused where it enters, not at the first weighted_sum
    for tail in ((-3.0, 0.01), "tail", 0.01, {"degree": -3.0, "constant": 0.01}):
        with pytest.raises(TypeError, match=re.escape(
                f"tail must be a TailBound or None, got {tail!r}")):
            CoefficientSeq({2: 0.1}, {}, 2, tail)


def test_scaled_multiplies_by_powers():
    # the moduli of the map dilated by rho: |a_n rho^(n-1)| and |b_n rho^(n-1)|
    seq = CoefficientSeq({2: 1.0, 4: -2.0j}, {1: 0.5, 3: 1.0, 5: 0.0}, 5)
    assert _moduli(seq, 0.5) == {1: (0.0, 0.5),  # b1 carries rho^0
                                 2: (0.5, 0.0), 3: (0.0, 0.25), 4: (2.0 * 0.125, 0.0),
                                 5: (0.0, 0.0)}
    assert _moduli(seq) == _moduli(seq, 1.0) == {1: (0.0, 0.5), 2: (1.0, 0.0), 3: (0.0, 1.0),
                                                 4: (2.0, 0.0), 5: (0.0, 0.0)}


def test_scaled_rejects_bad_rho():
    # a sequence is dilated only as a series map, whose dilate checks rho
    from harmradius import HarmonicMap

    f = HarmonicMap.from_series(CoefficientSeq({2: 1.0}, {}, 2))
    for rho in (0.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(
                f"dilation parameter must lie in (0, 1], got {rho!r}")):
            f.dilate(rho)


# -- stock bounds ------------------------------------------------------------

def test_koebe_bounds_values():
    koebe = BoundFamily("koebe")
    assert koebe.bounds(1) == (1.0, 0.0)
    assert koebe.bounds(2) == (2.5, 0.5)
    a3, b3 = koebe.bounds(3)
    assert a3 == pytest.approx(14.0 / 3.0, abs=1e-15)
    assert b3 == pytest.approx(10.0 / 6.0, abs=1e-15)


def test_convex_bounds_values():
    convex = BoundFamily("convex")
    assert convex.bounds(1) == (1.0, 0.0)
    assert convex.bounds(2) == (1.5, 0.5)
    assert convex.bounds(3) == (2.0, 1.0)


def test_uniform_bounds_values():
    uniform = BoundFamily.uniform(2.0, 0.3)
    assert uniform.bounds(1) == (1.0, 0.3)
    assert uniform.bounds(2) == uniform.bounds(40) == (1.0, 1.0)
    # A_n + B_n is the bound c on |a_n| + |b_n|, so the terms sum to S(r)
    r = 0.2
    terms = [n * sum(uniform.bounds(n)) * r ** (n - 1) for n in range(2, 200)]
    assert 0.3 + math.fsum(terms) == pytest.approx(weighted_sum(uniform, r), rel=1e-15)


def test_bounds_reject_bad_index():
    for family in (BoundFamily("koebe"), BoundFamily("convex"), BoundFamily.uniform(1.0, 0.5)):
        # a numpy integer passes; a bool or a float is not an index; n < 1 is refused
        assert family.bounds(np.int64(3)) == family.bounds(3)
        for bad in (True, np.bool_(False), 3.0, np.float64(2.0)):
            with pytest.raises(TypeError, match="bound index must be an integer"):
                family.bounds(bad)
        for bad in (0, -1, np.int32(0)):
            with pytest.raises(ValueError, match="bound index must be >= 1"):
                family.bounds(bad)


def test_family_constructors():
    k = BoundFamily.koebe()
    assert k.kind == "koebe" and k.b1_abs == 0.0
    u = BoundFamily.uniform(2.0, 0.25)
    assert u.kind == "uniform" and u.c == 2.0 and u.b1_abs == 0.25
    with pytest.raises(ValueError):
        BoundFamily.uniform(0.0)
    with pytest.raises(ValueError):
        BoundFamily.uniform(1.0, 1.0)
    # the family keeps the floats its checks return, so bounds and S(r) see
    # floats whatever real number type c and b1_abs arrived as
    for family in (BoundFamily("uniform", 2), BoundFamily("uniform", 1.0)._replace(c=2),
                   BoundFamily("uniform", 2, np.float64(0.0)),
                   BoundFamily("uniform", np.int64(3))._replace(c=Fraction(2), b1_abs=0)):
        assert family == ("uniform", 2.0, 0.0)
        assert type(family.c) is float and type(family.b1_abs) is float
        assert family.bounds(2) == (1.0, 1.0)
        assert weighted_sum(family, 0.5) == 6.0
    assert type(BoundFamily("koebe", None, 0).b1_abs) is float
    # a string or a bool is not a number, by the constructor and by _replace
    for build, bad in ((lambda: BoundFamily("uniform", "2"), "c"),
                       (lambda: BoundFamily("uniform", True), "c"),
                       (lambda: BoundFamily("uniform", 1.0)._replace(c="2"), "c"),
                       (lambda: BoundFamily("uniform", 2.0, False), "b1_abs"),
                       (lambda: BoundFamily("uniform", 2.0, np.False_), "b1_abs"),
                       (lambda: BoundFamily.uniform(2.0, "0.3"), "b1_abs")):
        with pytest.raises(TypeError, match=f"{bad} must be a real number, got "):
            build()
    with pytest.raises(ValueError, match=re.escape("uniform bound c must lie in (0, inf), got 0.0")):
        BoundFamily("uniform", 2)._replace(c=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "koebe", "c": 3.0}, "family 'koebe' takes no parameters"),
    ({"kind": "koebe", "c": float("nan")}, "family 'koebe' takes no parameters"),
    ({"kind": "convex", "b1_abs": 0.5}, "family 'convex' takes no parameters"),
    ({"kind": "uniform"}, "family 'uniform' requires the bound parameter c"),
    ({"kind": "elliptic"}, "unknown family kind 'elliptic'"),
])
def test_family_parameters_per_kind(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BoundFamily(**kwargs)


def test_parameterless_families_take_b1_abs_by_the_real_rule():
    # a bool is not "no parameter": it is refused as the uniform family refuses it
    for kind in ("koebe", "convex"):
        for b1 in (False, np.False_):
            with pytest.raises(TypeError, match=re.escape(f"b1_abs must be a real number, "
                                                          f"got {b1!r}")):
                BoundFamily(kind, None, b1)
        assert BoundFamily(kind, None, 0) == BoundFamily(kind)
    with pytest.raises(TypeError, match=re.escape("b1_abs must be a real number, got False")):
        BoundFamily("uniform", 1.0, False)


# -- power sums --------------------------------------------------------------

def test_power_sums_against_brute_force():
    for r in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
        n = np.arange(1, 3000, dtype=float)
        s1 = math.fsum(n * r ** n)
        s2 = math.fsum(n * n * r ** n)
        s3 = math.fsum(n ** 3 * r ** (n - 1))
        c1, c2, c3 = power_sums(r)
        assert c1 == pytest.approx(s1, abs=1e-11)
        assert c2 == pytest.approx(s2, abs=1e-11)
        assert c3 == pytest.approx(s3, abs=1e-10)


def test_weighted_sum_checks_r_once_per_call(monkeypatch):
    import harmradius.coefficients as coefficients

    families = (BoundFamily.koebe(), BoundFamily.convex(), BoundFamily.uniform(2.0, 0.3))
    seen = []
    check_real = coefficients.check_real

    def counted(x, what, *args):
        seen.append(what)
        return check_real(x, what, *args)

    monkeypatch.setattr(coefficients, "check_real", counted)
    for family in families:
        seen.clear()
        weighted_sum(family, 0.1)
        assert seen == ["r"], family.kind
    seen.clear()
    power_sums(0.1)
    assert seen == ["r"]


def test_power_sums_domain():
    with pytest.raises(ValueError):
        power_sums(1.0)
    with pytest.raises(ValueError):
        power_sums(-0.1)


# -- weighted sums -----------------------------------------------------------

def test_weighted_sum_sequence_matches_brute_force(rng):
    for _ in range(25):
        k = int(rng.integers(1, 6))
        idx = rng.choice(np.arange(2, 30), size=k, replace=False)
        a = {int(n): complex(rng.normal(), rng.normal()) for n in idx[: k // 2 + 1]}
        b = {int(n): complex(rng.normal(), rng.normal()) for n in idx[k // 2 + 1:]}
        b[1] = complex(rng.uniform(-0.9, 0.9))
        seq = CoefficientSeq(a, b, 30)
        for r in (0.0, 0.2, 0.77):
            assert weighted_sum(seq, r) == pytest.approx(
                brute_weighted_sum(seq, r), abs=1e-13)


def test_weighted_sum_koebe_closed_form():
    fam = BoundFamily.koebe()
    for r in (0.05, 0.112903, 0.3, 0.8):
        n = np.arange(2, 4000, dtype=float)
        brute = math.fsum(n * (2 * n * n + 1) / 3 * r ** (n - 1))
        assert weighted_sum(fam, r) == pytest.approx(brute, rel=1e-12, abs=1e-12)
    assert weighted_sum(fam, 0.0) == 0.0


def test_weighted_sum_convex_closed_form():
    fam = BoundFamily.convex()
    for r in (0.05, 0.164878, 0.5):
        n = np.arange(2, 4000, dtype=float)
        brute = math.fsum(n * n * r ** (n - 1))  # (n+1)/2 + (n-1)/2 = n
        assert weighted_sum(fam, r) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_weighted_sum_uniform_closed_form():
    fam = BoundFamily.uniform(1.5, 0.25)
    for r in (0.0, 0.1, 0.5, 0.9):
        n = np.arange(2, 5000, dtype=float)
        brute = 0.25 + math.fsum(n * 1.5 * r ** (n - 1))
        assert weighted_sum(fam, r) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_weighted_sum_domain_errors():
    fam = BoundFamily.koebe()
    with pytest.raises(ValueError):
        weighted_sum(fam, 1.0)
    with pytest.raises(ValueError):
        weighted_sum(fam, -0.2)
    with pytest.raises(TypeError):
        weighted_sum("koebe", 0.5)
    with pytest.raises(TypeError, match="expected CoefficientSeq, got BoundFamily"):
        weighted_sum_limit(fam)


def test_weighted_sum_scaled_composition(rng):
    # S of the map dilated by rho, at r, is S(rho r): the moduli rho^(n-1) |a_n|
    seq = CoefficientSeq({2: 0.3, 7: 0.04}, {1: 0.2, 4: 0.1j}, 8)
    for rho in (0.3, 0.9):
        dilated = CoefficientSeq({n: v * rho ** (n - 1) for n, v in seq.a.items()},
                                 {n: v * rho ** (n - 1) for n, v in seq.b.items()}, 8)
        assert _moduli(seq, rho) == _moduli(dilated)
        for r in (0.25, 0.8):
            assert weighted_sum(dilated, r) == pytest.approx(
                weighted_sum(seq, rho * r), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.94), st.floats(0.001, 0.05))
def test_weighted_sum_monotone(r, dr):
    seq = CoefficientSeq({2: 0.4 + 0.1j, 5: 0.02}, {1: 0.15, 3: 0.05j}, 5)
    assert weighted_sum(seq, r + dr) >= weighted_sum(seq, r) - 1e-15


# -- tail handling -----------------------------------------------------------

def test_tail_sum_majorizes_truncated_series():
    # |a_n| <= 0.01 n^-4 for n > 10; tail contribution to S at r
    tail = TailBound(degree=-4.0, constant=0.01)
    seq = CoefficientSeq({2: 0.1}, {}, 10, tail=tail)
    for r in (0.3, 0.9, 0.999):
        n = np.arange(11, 200000, dtype=float)
        true_tail = math.fsum(n * 0.01 * n ** -4.0 * r ** (n - 1))
        bound = weighted_sum_tail(seq, r)
        assert bound >= true_tail - 1e-15
        assert bound <= true_tail + 0.01  # not wildly loose
        assert weighted_sum(seq, r) == pytest.approx(
            weighted_sum(CoefficientSeq({2: 0.1}, {}, 10), r) + bound, abs=1e-15)


# sum_{n>=1} n^p r^(n-1) in closed form, for p = degree + 1 = 0, 1, 2
TAIL_CLOSED_FORMS = {
    -1: lambda r: 1 / (1 - r),
    0: lambda r: 1 / (1 - r) ** 2,
    1: lambda r: (1 + r) / (1 - r) ** 3,
}


@pytest.mark.parametrize("degree", sorted(TAIL_CLOSED_FORMS))
def test_tail_sum_majorizes_exact_closed_form(degree):
    # the float loop must stay above the exact sum, not only near it
    for r in (0.3, 0.9, 0.999):
        q = Fraction(r)
        for start in range(2, 12):
            exact = TAIL_CLOSED_FORMS[degree](q) - sum(
                Fraction(n) ** (degree + 1) * q ** (n - 1) for n in range(1, start))
            bound = Fraction(_tail_sum(degree, start, r))
            assert exact <= bound <= exact * (1 + Fraction(1, 10 ** 9)), (start, r)


def test_tail_refuses_near_boundary():
    seq = CoefficientSeq({2: 0.1}, {}, 10, tail=TailBound(-4.0, 0.01))
    weighted_sum(seq, SERIES_EVAL_MAX)
    with pytest.raises(ValueError):
        weighted_sum(seq, 0.9995)


def test_weighted_sum_limit_exact_series():
    seq = CoefficientSeq({2: 0.25}, {1: 0.5, 3: 0.1j}, 3)
    assert weighted_sum_limit(seq) == pytest.approx(0.5 + 2 * 0.25 + 3 * 0.1, abs=1e-15)


def test_weighted_sum_limit_with_zeta_tail():
    # tail |.| <= c n^-4 summed with weight n: c zeta(3, N+1), bracketed exactly
    # by the partial sum to M-1 plus the integrals of x^-3 from M and from M-1
    c, N, M = 0.02, 12, 400
    seq = CoefficientSeq({}, {}, N, tail=TailBound(-4.0, c))
    head = sum(Fraction(1, n ** 3) for n in range(N + 1, M))
    lo = Fraction(c) * (head + Fraction(1, 2 * M ** 2))
    hi = Fraction(c) * (head + Fraction(1, 2 * (M - 1) ** 2))
    assert lo <= Fraction(weighted_sum_limit(seq)) <= hi


ZETA_ORDERS = [1.0001, 1.01, 1.5, 2.0, 2.5, 3.0, 4.75, 10.0, 20.0, 50.0, 150.0]
ZETA_STARTS = [1, 2, 7, 13, 100, 10 ** 4, 10 ** 8, 10 ** 12]


def test_zeta_corrections_are_bernoulli_quotients():
    # B_2j/(2j)! for j = 1..9 from the recurrence sum_k C(m+1, k) B_k = 0
    bern = [Fraction(1)]
    for m in range(1, 19):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    assert _ZETA_CORRECTIONS == tuple(
        float(bern[2 * j] / math.factorial(2 * j)) for j in range(1, 10))


@pytest.mark.parametrize("s", ZETA_ORDERS)
def test_zeta_majorant_within_integral_bracket(s):
    # zeta(s, a) lies between the partial sum to M-1 plus the integral of
    # x^-s from M, and the same plus the integral from M-1; both ends are
    # computed in 40-digit decimal arithmetic, far below float rounding
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(s)
        for a in ZETA_STARTS:
            m = a + 64
            head = sum(Decimal(n) ** -d for n in range(a, m))
            lo = head + Decimal(m) ** (1 - d) / (d - 1)
            hi = head + Decimal(m - 1) ** (1 - d) / (d - 1)
            bound = Decimal(_hurwitz_zeta_majorant(s, a))
            assert bound >= lo, a
            if lo >= Decimal(1e-290):  # below, the bound is a few subnormal steps
                assert bound <= hi * Decimal("1.000000000001"), a


@pytest.mark.parametrize("s", ZETA_ORDERS)
def test_zeta_majorant_matches_scipy(s):
    special = pytest.importorskip("scipy.special")
    for a in ZETA_STARTS:
        ref = float(special.zeta(s, a))
        # near underflow scipy's own terms lose digits: at s=150, a=110 it
        # lies 1.8e-11 below the decimal bracket
        if ref >= 1e-290:
            assert _hurwitz_zeta_majorant(s, a) == pytest.approx(ref, rel=1e-12, abs=0.0), a


def test_weighted_sum_limit_divergent_tail_rejected():
    seq = CoefficientSeq({2: 0.3}, {}, 5, tail=TailBound(-2.0, 0.1))
    with pytest.raises(ValueError):
        weighted_sum_limit(seq)


# -- JSON round trips --------------------------------------------------------

def test_json_round_trip(tmp_path):
    seq = CoefficientSeq({2: 0.5 + 0.25j, 9: -0.125}, {1: -0.5j, 4: 1e-3}, 12,
                         tail=TailBound(-5.0, 0.75))
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back == seq
    # bytes are deterministic
    save_sequence(seq, tmp_path / "seq2.json")
    assert (tmp_path / "seq.json").read_bytes() == (tmp_path / "seq2.json").read_bytes()


def test_sequence_dict_shape():
    seq = CoefficientSeq({2: 1.0 + 2.0j}, {1: 0.25}, 2)
    d = sequence_to_dict(seq)
    assert d["a"] == [[2, 1.0, 2.0]]
    assert d["b"] == [[1, 0.25, 0.0]]
    assert d["truncation"] == 2
    assert "tail" not in d
    assert sequence_from_dict(json.loads(json.dumps(d))) == seq


def test_sequence_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="sequence document must be a JSON object"):
        sequence_from_dict([1, 2])
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": []})  # missing truncation
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[2, 0.1, 0.0], [2, 0.2, 0.0]], "b": [],
                            "truncation": 3})  # duplicate index
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[3, 0.1, 0.0], [2, 0.2, 0.0]], "b": [],
                            "truncation": 3})  # not increasing
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [], "truncation": 2, "bogus": 1})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[2, 0.1]], "b": [], "truncation": 2})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [], "truncation": None})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [], "truncation": 2,
                            "tail": {"constant": 0.1}})  # no degree
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[2.7, 0.1, 0.0]], "b": [], "truncation": 3})
    # coefficient values and tail fields must be JSON numbers
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[2, None, 0]], "b": [], "truncation": 2})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [], "truncation": 2,
                            "tail": {"degree": None, "constant": 1}})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [[2, "0.1", 0]], "b": [], "truncation": 2})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [[1, 0.1, True]], "truncation": 2})
    with pytest.raises(ValueError):
        sequence_from_dict({"a": [], "b": [], "truncation": 2,
                            "tail": {"degree": -4, "constant": "1"}})
    # each value is finite, but n*|a_n| (the weight in S(r)) is not
    with pytest.raises(ValueError, match="not finite"):
        sequence_from_dict({"a": [[2, 1e308, 1e308]], "b": [], "truncation": 2})


def test_sequence_from_dict_leaves_index_ranges_to_coefficient_seq():
    # the loader checks the JSON rules; CoefficientSeq checks each index's
    # range, with the message it gives a dict, after the loader's rules
    for doc, message in (({"a": [[1, 0.1, 0.0]], "b": []}, "a index must be >= 2, got 1"),
                         ({"a": [], "b": [[0, 0.1, 0.0]]}, "b index must be >= 1, got 0"),
                         ({"a": [[3, 0.1, 0.0]], "b": []}, "a index 3 exceeds truncation 2"),
                         ({"a": [[3, 0.1, 0.0], [1, 0.1, 0.0]], "b": []},
                          "a indices must be strictly increasing")):
        with pytest.raises(ValueError, match=re.escape(message)):
            sequence_from_dict({**doc, "truncation": 2})


def test_sequence_from_dict_accepts_integral_floats():
    seq = sequence_from_dict({"a": [[2.0, 0.1, 0.0]], "b": [], "truncation": 3.0})
    assert seq.a == {2: 0.1 + 0j} and seq.truncation == 3


def test_load_sequence_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_sequence(tmp_path / "absent.json")
