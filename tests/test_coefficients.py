"""Coefficient sequences, bound families, weighted sums, JSON I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmradius import (
    BoundFamily,
    CoefficientSeq,
    TailBound,
    convex_bounds,
    koebe_bounds,
    load_sequence,
    power_sums,
    save_sequence,
    sequence_from_dict,
    sequence_to_dict,
    weighted_sum,
    weighted_sum_limit,
)
from harmradius.coefficients import SERIES_EVAL_MAX, weighted_sum_tail

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


def test_scaled_multiplies_by_powers():
    seq = CoefficientSeq({2: 1.0, 4: 2.0}, {1: 0.5, 3: 1.0}, 4)
    s = seq.scaled(0.5)
    assert s.a[2] == 0.5
    assert s.a[4] == 2.0 * 0.125
    assert s.b[1] == 0.5  # b1 carries rho^0
    assert s.b[3] == 0.25
    assert s.truncation == 4


def test_scaled_rejects_bad_rho():
    seq = CoefficientSeq({2: 1.0}, {}, 2)
    with pytest.raises(ValueError):
        seq.scaled(0.0)
    with pytest.raises(ValueError):
        seq.scaled(1.5)


# -- stock bounds ------------------------------------------------------------

def test_koebe_bounds_values():
    assert koebe_bounds(1) == (1.0, 0.0)
    assert koebe_bounds(2) == (2.5, 0.5)
    a3, b3 = koebe_bounds(3)
    assert a3 == pytest.approx(14.0 / 3.0, abs=1e-15)
    assert b3 == pytest.approx(10.0 / 6.0, abs=1e-15)


def test_convex_bounds_values():
    assert convex_bounds(1) == (1.0, 0.0)
    assert convex_bounds(2) == (1.5, 0.5)
    assert convex_bounds(3) == (2.0, 1.0)


def test_bounds_reject_bad_index():
    with pytest.raises(ValueError):
        koebe_bounds(0)
    with pytest.raises(ValueError):
        convex_bounds(-1)


def test_family_constructors():
    k = BoundFamily.koebe()
    assert k.kind == "koebe" and k.b1_abs == 0.0
    u = BoundFamily.uniform(2.0, 0.25)
    assert u.kind == "uniform" and u.c == 2.0 and u.b1_abs == 0.25
    with pytest.raises(ValueError):
        BoundFamily.uniform(0.0)
    with pytest.raises(ValueError):
        BoundFamily.uniform(1.0, 1.0)


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


def test_weighted_sum_scaled_composition(rng):
    seq = CoefficientSeq({2: 0.3, 7: 0.04}, {1: 0.2, 4: 0.1j}, 8)
    for rho in (0.3, 0.9):
        for r in (0.25, 0.8):
            assert weighted_sum(seq.scaled(rho), r) == pytest.approx(
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


def test_tail_refuses_near_boundary():
    seq = CoefficientSeq({2: 0.1}, {}, 10, tail=TailBound(-4.0, 0.01))
    weighted_sum(seq, SERIES_EVAL_MAX)
    with pytest.raises(ValueError):
        weighted_sum(seq, 0.9995)


def test_weighted_sum_limit_exact_series():
    seq = CoefficientSeq({2: 0.25}, {1: 0.5, 3: 0.1j}, 3)
    assert weighted_sum_limit(seq) == pytest.approx(0.5 + 2 * 0.25 + 3 * 0.1, abs=1e-15)


def test_weighted_sum_limit_with_zeta_tail():
    # tail |.| <= c n^-4 summed with weight n: sum c n^-3 over n > N
    c, N = 0.02, 12
    seq = CoefficientSeq({2: 0.3}, {}, N, tail=TailBound(-4.0, c))
    n = np.arange(N + 1, 400000, dtype=float)
    brute = math.fsum(c * n ** -3.0)
    assert weighted_sum_limit(seq) == pytest.approx(0.6 + brute, abs=1e-9)


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


def test_sequence_from_dict_accepts_integral_floats():
    seq = sequence_from_dict({"a": [[2.0, 0.1, 0.0]], "b": [], "truncation": 3.0})
    assert seq.a == {2: 0.1 + 0j} and seq.truncation == 3


def test_load_sequence_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_sequence(tmp_path / "absent.json")
