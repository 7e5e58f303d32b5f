"""The number rule: every real parameter of a public entry goes through
_util.check_real, so each refuses the same inputs with the same two
messages, and a numpy scalar gives the report of the float it holds."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from harmradius import (
    BoundFamily,
    CoefficientSeq,
    GridSpec,
    HarmonicMap,
    TailBound,
    bloch_radius,
    bloch_table,
    c_h2_numeric,
    coeff_condition,
    coefficient_bound,
    coefficient_growth_check,
    get_extremal,
    injectivity_oracle,
    jacobian_roots,
    koebe_witness_profile,
    one_term_extremal,
    phi,
    power_sums,
    psi,
    radius_by_bisection,
    sequence_from_dict,
    starlike_scan,
    uniform_family_radius,
    uniform_witness_profile,
    verify_sharpness,
    weighted_sum,
    weighted_sum_tail,
)
from harmradius._util import check_index, check_real

KOEBE = BoundFamily.koebe()
SEQ = CoefficientSeq({2: 0.1}, {1: 0.2}, 2)
TAILED = CoefficientSeq({2: 0.1}, {}, 2, TailBound(0.0, 0.01))
F0 = get_extremal("F0")
SERIES = HarmonicMap.from_series(CoefficientSeq({2: 0.12, 5: 0.03 + 0.02j},
                                                {1: 0.0, 3: 0.04j}, 5))
DILATED = SERIES.dilate(0.5)
M_INTERVAL = f"[{math.pi / 4!r}, inf)"

# entry, the name check_real gives the parameter, its interval, a finite
# value outside it (None where the interval is all finite reals) and one inside it
ENTRIES = [
    ("TailBound.degree", lambda x: TailBound(x, 1.0), "tail degree", "(-inf, inf)", None, -3.0),
    ("TailBound.constant", lambda x: TailBound(1.0, x), "tail constant", "[0, inf)", -1.0, 0.5),
    ("HarmonicMap.dilate.series", SERIES.dilate, "dilation parameter", "(0, 1]", 1.5, 0.5),
    ("BoundFamily.c", lambda x: BoundFamily("uniform", x), "uniform bound c", "(0, inf)", 0.0,
     2.0),
    ("BoundFamily.b1_abs", lambda x: BoundFamily.uniform(2.0, x), "b1_abs", "[0, 1)", 1.0, 0.25),
    ("BoundFamily.koebe.b1_abs", lambda x: BoundFamily("koebe", None, x), "b1_abs",
     "[0, 1)", 1.0, 0.0),
    ("power_sums", power_sums, "r", "[0, 1)", 1.0, 0.5),
    ("weighted_sum", lambda x: weighted_sum(KOEBE, x), "r", "[0, 1)", -0.5, 0.5),
    ("weighted_sum.tailed", lambda x: weighted_sum(TAILED, x), "r", "[0, 1)", 1.0, 0.5),
    ("weighted_sum_tail", lambda x: weighted_sum_tail(TAILED, x), "r", "[0, 1)", 1.0, 0.5),
    ("weighted_sum_tail.untailed", lambda x: weighted_sum_tail(SEQ, x), "r", "[0, 1)", 1.5,
     0.5),
    ("radius_by_bisection", lambda x: radius_by_bisection(KOEBE, x), "beta", "[0, 1)", 1.0,
     0.25),
    ("uniform_family_radius", uniform_family_radius, "uniform bound c", "(0, inf)", -2.0, 2.0),
    ("jacobian_roots.lo", lambda x: jacobian_roots(koebe_witness_profile(), x), "lo",
     "[0, 1)", -0.1, 0.05),
    ("jacobian_roots.hi", lambda x: jacobian_roots(koebe_witness_profile(), 0.0, x), "hi",
     "[0, 1)", 1.0, 0.3),
    ("verify_sharpness", lambda x: verify_sharpness(koebe_witness_profile(), x),
     "claimed radius", "(0, 0.999)", 0.9995, 0.1129029312079177),
    ("HarmonicMap.dilate", F0.dilate, "dilation parameter", "(0, 1]", 2.0, 0.5),
    ("GridSpec.r_max", lambda x: GridSpec(r_max=x), "r_max", "(0, 1)", 1.0, 0.5),
    ("coeff_condition", lambda x: coeff_condition(SEQ, x), "beta", "[0, 1)", 1.0, 0.25),
    ("coefficient_growth_check", lambda x: coefficient_growth_check(SEQ, x), "beta",
     "[0, 1)", -0.1, 0.25),
    ("c_h2_numeric", lambda x: c_h2_numeric(F0, x), "beta", "[0, 1)", 1.0, 0.25),
    # with no grid, the default GridSpec(r_max=r) checks the scan radius
    ("starlike_scan", lambda x: starlike_scan(F0, x), "r_max", "(0, 1)", 0.0, 0.25),
    ("injectivity_oracle", lambda x: injectivity_oracle(F0, x), "radius", "(0, 1)", 1.0, 0.2),
    ("coefficient_bound", coefficient_bound, "sup-norm bound M", M_INTERVAL, 0.5, 2.0),
    ("bloch_radius", bloch_radius, "sup-norm bound M", M_INTERVAL, 0.5, 2.0),
    ("bloch_table", lambda x: bloch_table([1.0, x]), "sup-norm bound M", M_INTERVAL, 0.5, 2.0),
    ("phi", phi, "x", "(-inf, inf)", None, 2.0),
    ("psi", psi, "x", "(-inf, inf)", None, 2.5),
    ("one_term_extremal", lambda x: one_term_extremal(2, x), "theta", "(-inf, inf)", None, 0.5),
    ("get_extremal.c", lambda x: get_extremal("f0", x), "uniform bound c", "(0, inf)", 0.0,
     3.0),
    ("get_extremal.b1_abs", lambda x: get_extremal("f0", 2.0, x), "b1_abs", "[0, 1)", 1.0,
     0.25),
    ("uniform_witness_profile", lambda x: uniform_witness_profile(2.0, x), "b1_abs",
     "[0, 1)", 1.0, 0.25),
]
IDS = [name for name, *_ in ENTRIES]
# None stands for an absent parameter here: c is required, b1_abs defaults to 0
NONE_IS_ABSENT = {"BoundFamily.c", "uniform_family_radius", "get_extremal.c",
                  "get_extremal.b1_abs"}


@pytest.mark.parametrize("name, entry, what, interval, outside, inside", ENTRIES, ids=IDS)
def test_real_parameters_refuse_what_is_not_a_real_number(name, entry, what, interval, outside,
                                                          inside):
    for x in (True, np.True_, "0.5", None, 1j, np.complex64(0.5), np.array([0.5])):
        if x is None and name in NONE_IS_ABSENT:
            continue
        with pytest.raises(TypeError, match=re.escape(f"{what} must be a real number, "
                                                       f"got {x!r}")):
            entry(x)


@pytest.mark.parametrize("name, entry, what, interval, outside, inside", ENTRIES, ids=IDS)
def test_real_parameters_refuse_values_outside_their_interval(name, entry, what, interval,
                                                              outside, inside):
    for x in (math.nan, math.inf, -math.inf, outside):
        if x is None:
            continue
        with pytest.raises(ValueError, match=re.escape(f"{what} must lie in {interval}, "
                                                       f"got {x!r}")):
            entry(x)


@pytest.fixture
def checks(monkeypatch):
    """The (name, number) of every check_real and check_index call that the
    package makes while the test runs, in order."""
    seen = []

    def real(x, label, *args):
        seen.append((label, x))
        return check_real(x, label, *args)

    def index(n, low, label):
        seen.append((label, n))
        return check_index(n, low, label)

    for module in [m for n, m in sys.modules.items() if n.startswith("harmradius.")]:
        for check, counted in ((check_real, real), (check_index, index)):
            if getattr(module, check.__name__, None) is check:
                monkeypatch.setattr(module, check.__name__, counted)
    return seen


# entries whose number is an index, not a real parameter: only counted
INDEX_ENTRIES = [
    ("sequence_from_dict", lambda n: sequence_from_dict(
        {"a": [[2, 0.1, 0.0], [n, 0.0, 0.1]], "b": [[1, 0.2, 0.0]], "truncation": 3}),
     "a index", None, None, 3),
]


@pytest.mark.parametrize("name, entry, what, interval, outside, inside", ENTRIES + INDEX_ENTRIES,
                         ids=IDS + [name for name, *_ in INDEX_ENTRIES])
def test_each_entry_checks_its_number_once(checks, name, entry, what, interval, outside,
                                           inside):
    # code inside the package passes a checked number on: of all the checks
    # that the package makes, exactly one sees the entry's number by its name
    entry(inside)
    assert [x for w, x in checks if w == what and x == inside] == [inside]


@pytest.mark.parametrize("grid, what", [(None, "r_max"), (GridSpec(20, 8, 0.1), "scan radius")],
                         ids=["default-grid", "grid"])
def test_starlike_scan_checks_its_radius_once(checks, grid, what):
    # under any name: the default grid's r_max is the scan radius, which a
    # given grid's r_max must not exceed
    starlike_scan(get_extremal("koebe"), 0.2, grid)
    assert [(w, x) for w, x in checks if x == 0.2] == [(what, 0.2)]


@pytest.mark.parametrize("f", [F0, SERIES], ids=["named", "series"])
def test_dilate_checks_its_parameter_only(checks, f):
    # a dilated map is derived from the checked one: neither its signs nor
    # the composed scale are checked again
    f.dilate(0.5)
    assert checks == [("dilation parameter", 0.5)]


@pytest.mark.parametrize("call", [
    lambda beta: coeff_condition(DILATED, beta),
    lambda beta: coefficient_growth_check(DILATED, beta),
], ids=["coeff_condition.dilated-series", "coefficient_growth_check.dilated-series"])
def test_whole_call_checks_beta_only(checks, call):
    # a dilated series map is read in place, not rebuilt and checked again:
    # beta is all there is
    call(0.25)
    assert checks == [("beta", 0.25)]


@pytest.mark.parametrize("call, value", [
    (lambda x: radius_by_bisection(KOEBE, x), 0.1),
    (lambda x: radius_by_bisection(SEQ, x), 0.25),
    (lambda x: uniform_family_radius(x, 0.3), 2),
    (lambda x: coeff_condition(SEQ, x), 0.1),
    (lambda x: coeff_condition(F0.dilate(x)), 0.05),
    (lambda x: coefficient_growth_check(SEQ, x), 0.5),
    (lambda x: c_h2_numeric(F0, x, GridSpec(20, 8, 0.1)), 0.1),
    (lambda x: starlike_scan(F0, x, GridSpec(20, 8, 0.1)), 0.2),
    (lambda x: starlike_scan(F0, 0.2, GridSpec(20, 8, x)), 0.1),
    (lambda x: injectivity_oracle(F0, x, 16), 0.2),
    (lambda x: verify_sharpness(koebe_witness_profile(), x), 0.1129029312079177),
    (lambda x: jacobian_roots(koebe_witness_profile(), x, 0.3), 0.05),
    (lambda x: F0.dilate(x).coefficient(3), 0.5),
    (lambda x: get_extremal("f0", x, 0.25).coefficient(2), 3),
    (lambda x: one_term_extremal(3, x).coefficient(3), 1),
    (bloch_radius, 2),
    (lambda x: bloch_table([x]), 3),
    (phi, 2),
    (psi, 2.5),
])
def test_numpy_scalars_give_the_reports_of_floats(call, value):
    # equal by repr: the same fields, and no numpy scalar where the float had a float
    expected = repr(call(float(value)))
    for x in (np.float64(value), np.int64(value)) if value == int(value) else (np.float64(value),):
        assert repr(call(x)) == expected


def test_grids_store_their_checked_numbers():
    # a GridSpec holds ints and a float r_max, so a Fraction radius samples
    # the grid of its float
    grid = GridSpec(np.int64(20), 8, Fraction(1, 10))
    assert grid == (20, 8, 0.1) and type(grid.n_radial) is int and type(grid.r_max) is float
    assert repr(c_h2_numeric(F0, 0.0, grid)) == repr(c_h2_numeric(F0, 0.0, GridSpec(20, 8, 0.1)))
    assert repr(starlike_scan(F0, Fraction(1, 5))) == repr(starlike_scan(F0, 0.2))


def test_the_sums_compute_with_the_callers_number():
    # the S(r) functions check r without converting it: a Fraction is
    # compared exactly and enters the closed forms as given
    assert power_sums(Fraction(1, 2)) == (Fraction(2), Fraction(6), Fraction(52))
    assert weighted_sum(BoundFamily.convex(), Fraction(1, 2)) == Fraction(11)
    with pytest.raises(ValueError, match=re.escape("r must lie in [0, 1), got 1.0")):
        power_sums(Fraction(1))


def test_coefficient_values_refuse_bools_and_strings():
    for v in (True, np.True_, "0.5"):
        for a, b in (({2: v}, {}), ({}, {1: v})):
            with pytest.raises(TypeError, match=re.escape(f"must be a number, got {v!r}")):
                CoefficientSeq(a, b, 2)
    seq = CoefficientSeq({2: np.float64(0.5), 3: np.int64(1), 4: np.complex64(0.25j)}, {}, 4)
    assert seq.a == {2: 0.5 + 0j, 3: 1 + 0j, 4: 0.25j}


def test_integer_parameters_pass_their_low_bound():
    # the low bound is check_index's, with its message
    for build, message in ((lambda: CoefficientSeq({}, {}, 0), "truncation must be >= 1, got 0"),
                           (lambda: one_term_extremal(1), "one-term index must be >= 2, got 1"),
                           (lambda: F0.section(0, 1), "section degree must be >= 1, got 0"),
                           (lambda: F0.section(1, -1), "section degree must be >= 0, got -1"),
                           (lambda: GridSpec(1, 8), "grid size must be >= 2, got 1"),
                           (lambda: GridSpec(2, 0), "grid size must be >= 1, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    for n in (np.True_, np.bool_(False)):
        with pytest.raises(TypeError, match="must be an integer"):
            F0.coefficient(n)
