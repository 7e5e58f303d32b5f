"""CLI behavior: exit codes, JSON schemas, CSV formats, determinism.

Most tests call main(argv) in-process and capture stdout with capsys;
a few start a subprocess: a smoke test of the installed console script,
and fresh interpreters that check which modules each subcommand loads.
Every successful JSON output is validated against the schema shipped
under docs/schemas/.
"""

import contextlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from harmradius.cli import main
from harmradius.coefficients import (CoefficientSeq, save_sequence, sequence_from_dict,
                                     sequence_to_dict)
from harmradius.bloch import bloch_table, bloch_table_csv
from harmradius.extremals import koebe_witness_profile
from harmradius.maps import HarmonicMap
from harmradius.membership import coeff_condition, coefficient_growth_check
from harmradius.radii import (
    convex_family_radius,
    koebe_family_radius,
    radius_by_bisection,
    uniform_family_radius,
)
from harmradius._util import fmt12, round12

from test_golden import REPORT_SCHEMA

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def check(doc, schema_name):
    Draft202012Validator(schema(schema_name)).validate(doc)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def usage_error(capsys, *argv):
    """argparse's message for a refused argv, which must exit 1 with empty stdout."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 1
    assert captured.out == ""
    return captured.err.splitlines()[-1]


def seq_file(tmp_path, seq, name="seq.json"):
    path = tmp_path / name
    save_sequence(seq, path)
    return str(path)


# -- schema files themselves ------------------------------------------------

@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMA_DIR.glob("*.json")))
def test_schema_files_are_valid_schemas(name):
    Draft202012Validator.check_schema(schema(name))


def test_sequence_files_match_published_schema(tmp_path):
    seq = CoefficientSeq({2: 0.25, 4: 0.1j}, {1: 0.0, 3: 0.05}, 4)
    check(sequence_to_dict(seq), "coefficient_seq.schema.json")


# -- radius ------------------------------------------------------------------

def test_radius_koebe(capsys):
    code, doc, _ = run_json(capsys, "radius", "--family", "koebe")
    assert code == 0
    check(doc, "radius_report.schema.json")
    assert doc["method"] == "closed_form"
    assert doc["radius"] == pytest.approx(0.11290293120791771, abs=1e-11)
    assert doc["bracket"] is None


def test_radius_uniform_params(capsys):
    code, doc, _ = run_json(capsys, "radius", "--family", "uniform:1")
    assert code == 0
    assert doc["radius"] == pytest.approx(0.2928932188134524, abs=1e-11)


def test_radius_bisect_agrees_with_closed(capsys):
    _, closed, _ = run_json(capsys, "radius", "--family", "uniform:2,0.3")
    _, bis, _ = run_json(capsys, "radius", "--family", "uniform:2,0.3",
                         "--method", "bisect")
    assert closed["method"] == "closed_form"
    assert bis["method"] == "bisection"
    assert bis["radius"] == pytest.approx(closed["radius"], abs=1e-10)
    check(bis, "radius_report.schema.json")
    assert bis["bracket"][0] <= bis["radius"] <= bis["bracket"][1]


def test_radius_from_sequence_file(capsys, tmp_path):
    seq = CoefficientSeq({2: 1.0}, {}, 2)
    path = seq_file(tmp_path, seq)
    code, doc, _ = run_json(capsys, "radius", "--seq", path, "--beta", "0.5")
    assert code == 0
    # same rounding the CLI applies, so the comparison is exact
    assert doc["radius"] == round12(radius_by_bisection(seq, 0.5).radius)
    assert doc["beta"] == 0.5


def test_out_of_memory_is_exit_2(capsys, monkeypatch):
    import harmradius.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_identities", exhausted)
    code, doc, _ = run_json(capsys, "identities")
    assert code == 2
    assert doc == {"error": "out of memory", "kind": "memory"}
    check(doc, "error.schema.json")


def test_radius_no_radius_is_exit_2(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({}, {1: 0.9}, 1))
    code, doc, _ = run_json(capsys, "radius", "--seq", path, "--beta", "0.5")
    assert code == 2
    assert doc["kind"] == "no-radius"
    check(doc, "error.schema.json")


@pytest.mark.parametrize("doc", [
    {"a": [], "b": [], "truncation": None},
    {"a": [], "b": [], "truncation": 2, "tail": {"constant": 0.1}},
    {"a": [[2.7, 0.1, 0.0]], "b": [], "truncation": 3},
    {"a": [[2, None, 0]], "b": [], "truncation": 2},
    {"a": [], "b": [], "truncation": 2, "tail": {"degree": None, "constant": 1}},
    {"a": [[2, "0.1", 0]], "b": [], "truncation": 2},
    {"a": [[2, True, 0]], "b": [], "truncation": 2},
    {"a": [], "b": [], "truncation": 2, "tail": None},
    {"a": 5, "truncation": 3},
    {"a": None, "truncation": 3},
    {"b": 1.5, "truncation": 3},
    [1, 2],
], ids=["null-truncation", "tail-without-degree", "fractional-index", "null-value",
        "null-degree", "string-value", "bool-value", "null-tail", "int-a", "null-a",
        "float-b", "not-an-object"])
def test_radius_malformed_seq_file_is_exit_2(capsys, tmp_path, doc):
    # the published schema rejects what the loader rejects
    assert not Draft202012Validator(schema("coefficient_seq.schema.json")).is_valid(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_json(capsys, "radius", "--seq", str(path))
    assert code == 2
    assert out["kind"] == "domain"
    check(out, "error.schema.json")


def test_radius_overflowing_tail_is_exit_2(capsys, tmp_path):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"a": [], "b": [], "truncation": 3,
                                "tail": {"degree": 600, "constant": 1.0}}),
                    encoding="utf-8")
    code, out, _ = run_json(capsys, "radius", "--seq", str(path))
    assert code == 2
    assert out["kind"] == "domain"
    check(out, "error.schema.json")


def test_radius_usage_errors(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({2: 1.0}, {}, 2))
    assert usage_error(capsys, "radius").endswith(
        "one of the arguments --family --seq is required")
    assert usage_error(capsys, "radius", "--family", "koebe", "--seq", path).endswith(
        "argument --seq: not allowed with argument --family")


def test_removed_options_are_usage_errors(capsys, tmp_path):
    # auto takes the closed form wherever --method closed could; --out is > file
    path = seq_file(tmp_path, CoefficientSeq({2: 1.0}, {}, 2))
    for argv in (["radius", "--family", "koebe", "--method", "closed"],
                 ["radius", "--family", "koebe", "--method", "closed", "--beta", "0.3"],
                 ["radius", "--seq", path, "--method", "closed"]):
        assert "argument --method: invalid choice: 'closed'" in usage_error(capsys, *argv)
    assert usage_error(capsys, "jacobian-scan", "--witness", "F0", "--out", "x.csv").endswith(
        "unrecognized arguments: --out x.csv")


def test_radius_unknown_family_exits_1(capsys):
    # bad labels are usage errors that keep the library's message
    for argv, message in (
        (["radius", "--family", "elliptic"], "unknown family kind 'elliptic'"),
        (["radius", "--family", "koebe:1"], "family 'koebe' takes no parameters"),
        (["radius", "--family", "uniform"], "family 'uniform' requires the bound parameter c"),
        (["radius", "--family", "uniform:1,2,3"], "takes at most the parameters c,b1"),
        (["radius", "--family", "uniform:nan"], "uniform bound c must lie in (0, inf), got nan"),
        (["sharpness", "--witness", "F0:1"], "family 'koebe' takes no parameters"),
        (["sharpness", "--witness", "f0"], "family 'uniform' requires the bound parameter c"),
        (["jacobian-scan", "--witness", "K0"], "unknown witness 'K0'"),
        (["membership", "--check", "coeff", "--map", "foo"],
         "unknown extremal 'foo'; known labels: F0, L0, convex_L, f0, koebe"),
        (["membership", "--check", "coeff", "--map", "koebe:1"],
         "family 'koebe' takes no parameters"),
        (["membership", "--check", "coeff", "--map", "convex_L:1"],
         "family 'convex' takes no parameters"),
        (["membership", "--check", "coeff", "--map", "f0"],
         "family 'uniform' requires the bound parameter c"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


OVERFLOW = {"a": [[2, 1e308, 1e308]], "b": [], "truncation": 2}
SAMPLED_OVERFLOW = {"a": [[n, 3e306, 0] for n in range(2, 12)], "b": [], "truncation": 11}
# finite terms 2 * 5e307 and 3 * 5e307 whose sum passes the float range
SUM_OVERFLOW = {"a": [[2, 5e307, 0], [3, 5e307, 0]], "b": [], "truncation": 3}


@pytest.mark.parametrize("argv, doc, message", [
    (["radius"], OVERFLOW, "a[2]: n*|a_n| is not finite"),
    (["membership", "--check", "coeff"], OVERFLOW, "a[2]: n*|a_n| is not finite"),
    (["membership", "--check", "coeff"], SUM_OVERFLOW, "coefficient sum S(1-) is not finite"),
    (["membership", "--check", "c-h2"], SAMPLED_OVERFLOW,
     "map evaluation is not finite on the grid"),
    (["membership", "--check", "starlike"], SAMPLED_OVERFLOW,
     "map evaluation is not finite on the grid"),
], ids=["radius-overflow", "coeff-overflow", "coeff-sum-overflow", "c-h2-nan-margin",
        "starlike-nan-margin"])
def test_non_finite_results_are_exit_2(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--seq", str(path))
    assert code == 2
    doc = json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
    assert doc == {"error": message, "kind": "domain"}
    check(doc, "error.schema.json")


@pytest.mark.parametrize("check_name", ["c-h2", "starlike"])
def test_sampled_check_ignores_huge_truncation(capsys, tmp_path, check_name):
    # the map is the stored polynomial; a truncation of 1e12 allocates nothing
    doc = {"a": [[2, 0.01, 0]], "b": [], "truncation": 10 ** 12}
    check(doc, "coefficient_seq.schema.json")
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "membership", "--check", check_name, "--seq", str(path),
                       "--grid-radial", "20", "--grid-angular", "8")
    assert code in (0, 2)
    check(json.loads(out), "membership_report.schema.json" if code == 0
          else "error.schema.json")


# -- hostile inputs ------------------------------------------------------------

DIVERGENT_TAIL = {"a": [[2, 0.01, 0]], "b": [], "truncation": 10 ** 12,
                  "tail": {"degree": 1, "constant": 0.001}}
STEEP_TAIL = {"a": [], "b": [], "truncation": 3,
              "tail": {"degree": 1e6, "constant": 1e-300}}
HUGE_INDEX = {"a": [[10 ** 13, 1e-15, 0]], "b": [], "truncation": 10 ** 13}
HUGE_GRID = ["membership", "--check", "c-h2", "--map", "F0", "--grid-radial", str(10 ** 13)]
# an injectivity grid on a map dilated below the least normal float, whose f
# is refused, and one whose ring images span more than the crossing test takes
SUBNORMAL_DILATION = ["membership", "--check", "injectivity", "--map", "F0", "--dilate", "1e-310",
                      "--r", "0.2", "--resolution", "32"]
HUGE_SPAN = ["membership", "--check", "injectivity", "--map", "f0:1e300,0", "--r", "0.5",
             "--resolution", "16"]
# sampled checks and a warm sharpness whose numpy evaluation overflows
C_H2_OVERFLOW = ["membership", "--check", "c-h2", "--map", "f0:1e308"]
STARLIKE_OVERFLOW = ["membership", "--check", "starlike", "--map", "f0:1e308,0.9", "--r", "0.9"]
STARLIKE_SUBNORMAL_DILATION = ["membership", "--check", "starlike", "--map", "F0",
                               "--dilate", "1e-320", "--r", "0.5"]
# a starlike grid whose innermost circle, 0.01 r_max, is subnormal
STARLIKE_SUBNORMAL_CIRCLE = ["membership", "--check", "starlike", "--map", "koebe", "--r", "1e-307",
                             "--grid-radial", "20", "--grid-angular", "8"]
SHARPNESS_OVERFLOW = ["sharpness", "--witness", "f0:1e308", "--radius", "0.5"]
# the uniform family's S(r) at c = 1e308 overflows to inf
COEFF_FAMILY_OVERFLOW = ["membership", "--check", "coeff", "--map", "f0:1e308", "--dilate", "0.5"]
# |a_2|^2 = 1e400 passes the float range in the growth check's sum of squares
SQUARES_OVERFLOW = {"a": [[2, 1e200, 0]], "b": [], "truncation": 2}
# the tail majorant would start at index 10^400 + 1, past the float range
HUGE_TRUNCATION = {"a": [], "b": [], "truncation": 10 ** 400,
                   "tail": {"degree": -3, "constant": 0.01}}


def _domain(message):
    return {"error": message, "kind": "domain"}


HUGE_TRUNCATION_ERROR = _domain("truncation exceeds the float range: "
                                "the tail majorant cannot be evaluated")


@pytest.mark.parametrize("argv, doc, expected", [
    (["radius"], DIVERGENT_TAIL, _domain(
        "crossing lies beyond r=0.999 where the tail majorant is not evaluable; "
        "supply more explicit coefficients")),
    (["radius"], STEEP_TAIL, _domain("tail majorant of degree 1e+06 overflows at r=0.999")),
    (HUGE_GRID, None, _domain(
        "grid of 10000000000000x64 points exceeds the 262144 points a grid may sample")),
    (["membership", "--check", "c-h2"], HUGE_INDEX, _domain(
        "series maps are evaluated up to degree 10000; "
        "the highest stored index is 10000000000000")),
    (["bloch-table", "--M", "1e308"], None, _domain(
        "sup-norm bound M = 1e+308 is too large: 8M/pi overflows")),
    (["radius"], HUGE_TRUNCATION, HUGE_TRUNCATION_ERROR),
    (["membership", "--check", "coeff"], HUGE_TRUNCATION, HUGE_TRUNCATION_ERROR),
    (SUBNORMAL_DILATION, None, _domain("dilate(F0,1e-310): f is not evaluated at scale 1e-310, "
                                       "below the least normal float")),
    (HUGE_SPAN, None, _domain("the images of the ring |z|=0.5 span 7.59e+299: "
                              "the crossing test's cross products would overflow")),
    (C_H2_OVERFLOW, None, _domain("map evaluation is not finite on the grid")),
    (STARLIKE_OVERFLOW, None, _domain("map evaluation is not finite on the grid")),
    (STARLIKE_SUBNORMAL_DILATION, None, _domain(
        "dilate(F0,1e-320): f is not evaluated at scale 1e-320, below the least normal float")),
    (STARLIKE_SUBNORMAL_CIRCLE, None, _domain(
        "scan radius 1e-307 is too small: its inner circle is subnormal")),
    # the object a cold process, which samples by float calls, prints too
    (SHARPNESS_OVERFLOW, None, _domain("Out of range float values are not JSON compliant: inf")),
    (COEFF_FAMILY_OVERFLOW, None, _domain("coefficient sum S(1-) is not finite")),
    (["membership", "--check", "growth"], SQUARES_OVERFLOW, _domain(
        "sum of squares n^2 (|a_n|^2 + |b_n|^2) is not finite")),
], ids=["divergent-tail", "steep-tail", "huge-grid", "huge-index-c-h2", "huge-M",
        "huge-truncation-radius", "huge-truncation-coeff", "injectivity-subnormal-dilation",
        "huge-span", "c-h2-overflow", "starlike-overflow", "starlike-subnormal-dilation",
        "starlike-subnormal-circle", "sharpness-overflow", "coeff-family-overflow",
        "growth-squares-overflow"])
def test_hostile_inputs_are_exit_2(capsys, tmp_path, argv, doc, expected):
    if doc is not None:
        check(doc, "coefficient_seq.schema.json")
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--seq", str(path)]
    code, out, _ = run_json(capsys, *argv)
    assert (code, out) == (2, expected)
    check(out, "error.schema.json")


@pytest.mark.parametrize("check_name", ["c-h2", "coeff"])
def test_checks_that_do_not_evaluate_f_answer_at_a_subnormal_dilation(capsys, check_name):
    # f(rz)/r is refused below the least normal float; f_z, f_zbar and the
    # coefficients of dilate(F0,5e-324) are those of z
    code, out, _ = run_json(capsys, "membership", "--check", check_name, "--map", "F0",
                            "--dilate", "5e-324")
    assert (code, out["verdict"], out["margin"]) == (0, "satisfied", 1.0)


@pytest.mark.parametrize("check_name", ["coeff", "growth"])
def test_coefficient_checks_compile_no_map(capsys, tmp_path, check_name):
    # a dense polynomial of degree 10^13 would need 146 TiB; these checks
    # read the stored coefficients only
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(HUGE_INDEX), encoding="utf-8")
    code, doc, _ = run_json(capsys, "membership", "--check", check_name, "--seq", str(path))
    assert code == 0
    check(doc, "membership_report.schema.json")
    assert (doc["subject"], doc["verdict"]) == ("seq-file", "satisfied")


def test_radius_answers_where_the_stored_sum_overflows(capsys, tmp_path):
    # S(r) = 1e308 r + 1.5e308 r^2 is inf near r = 1, which is S > 1 to the
    # solver; its crossing lies near 1e-308, inside the reported bracket
    path = tmp_path / "sum-overflow.json"
    path.write_text(json.dumps(SUM_OVERFLOW), encoding="utf-8")
    code, out, _ = run_json(capsys, "radius", "--seq", str(path))
    assert code == 0
    check(out, "radius_report.schema.json")
    assert (out["radius"], out["saturated"]) == (9.99999999999e-309, False)
    report = radius_by_bisection(sequence_from_dict(SUM_OVERFLOW))
    s = lambda r: 2 * Fraction(5e307) * Fraction(r) + 3 * Fraction(5e307) * Fraction(r) ** 2
    lo, hi = report.bracket
    assert s(lo) < 1 < s(hi) and lo <= report.radius <= hi


def test_radius_zero_tail_constant(capsys, tmp_path):
    # a tail with constant 0 bounds nothing, however steep its degree
    doc = {"a": [[2, 0.3, 0]], "b": [], "truncation": 3,
           "tail": {"degree": 300, "constant": 0}}
    check(doc, "coefficient_seq.schema.json")
    path = tmp_path / "zero-tail.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_json(capsys, "radius", "--seq", str(path))
    assert code == 0
    check(out, "radius_report.schema.json")
    assert (out["radius"], out["saturated"]) == (0.999999999999, True)


def test_radius_missing_seq_file_is_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "radius", "--seq", str(tmp_path / "absent.json"))
    assert code == 3
    assert out == ""
    assert "i/o error" in err


# -- membership ----------------------------------------------------------------

def test_membership_coeff_from_file(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({2: 0.2}, {}, 2))
    code, doc, _ = run_json(capsys, "membership", "--check", "coeff", "--seq", path)
    assert code == 0
    check(doc, "membership_report.schema.json")
    assert doc["verdict"] == "satisfied"
    assert doc["margin"] == pytest.approx(0.6, abs=1e-12)
    assert doc["subject"] == "seq-file"


def test_membership_coeff_needs_coefficients(capsys):
    code, doc, _ = run_json(capsys, "membership", "--check", "coeff", "--map", "F0")
    assert code == 2
    assert doc["kind"] == "domain"
    check(doc, "error.schema.json")


def test_membership_growth_from_file(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({2: 0.1}, {2: 0.1}, 2))
    code, doc, _ = run_json(capsys, "membership", "--check", "growth", "--seq", path)
    assert code == 0
    assert doc["verdict"] == "satisfied"
    check(doc, "membership_report.schema.json")


def test_membership_ch2_dilate_split(capsys):
    # the scaled Koebe map passes well inside the closed-form radius and
    # fails beyond it
    code, ok, _ = run_json(capsys, "membership", "--check", "c-h2",
                           "--map", "koebe", "--dilate", "0.1")
    assert code == 0 and ok["verdict"] == "satisfied"
    code, bad, _ = run_json(capsys, "membership", "--check", "c-h2",
                            "--map", "koebe", "--dilate", "0.2")
    assert code == 0 and bad["verdict"] == "violated"
    assert isinstance(bad["witness"], list) and len(bad["witness"]) == 2
    check(ok, "membership_report.schema.json")
    check(bad, "membership_report.schema.json")


def test_membership_dilated_subject_keeps_every_digit(capsys, tmp_path):
    # every check prints HarmonicMap.dilate's label, with every digit of
    # the dilation
    path = seq_file(tmp_path, CoefficientSeq({2: 0.1}, {1: 0.2}, 2))
    for check_name in ("coeff", "c-h2"):
        code, doc, _ = run_json(capsys, "membership", "--check", check_name, "--seq", path,
                                "--dilate", "0.1129031", "--grid-radial", "20",
                                "--grid-angular", "8")
        assert code == 0
        assert doc["subject"] == "dilate(seq-file,0.1129031)"


def test_membership_dilate_one_is_the_undilated_subject(capsys):
    # HarmonicMap.dilate(1.0) is the map itself: its label and its report
    path = str(Path(__file__).resolve().parent / "golden" / "tailed_seq.json")
    _, undilated, _ = run(capsys, "membership", "--check", "coeff", "--seq", path)
    code, out, _ = run(capsys, "membership", "--check", "coeff", "--seq", path,
                       "--dilate", "1")
    assert code == 0
    assert '"subject": "seq-file"' in out
    assert out == undilated


@pytest.mark.parametrize("check_name", ["c-h2", "starlike", "injectivity"])
def test_series_maps_answer_on_the_whole_open_disk(capsys, check_name):
    # a series map is its stored polynomial, evaluated on every |z| < 1
    path = str(Path(__file__).resolve().parent / "golden" / "tailed_seq.json")
    code, doc, _ = run_json(capsys, "membership", "--check", check_name, "--seq", path,
                            "--r", "0.9995")
    assert code == 0
    check(doc, "membership_report.schema.json")
    assert doc["subject"] == "seq-file" and "0.9995" in doc["grid_spec"]


def test_membership_starlike_f0(capsys):
    code, doc, _ = run_json(capsys, "membership", "--check", "starlike",
                            "--map", "F0", "--r", "0.2")
    assert code == 0
    assert doc["verdict"] == "violated"
    assert doc["margin"] < 0
    check(doc, "membership_report.schema.json")


def test_membership_injectivity_f0(capsys):
    code, doc, _ = run_json(capsys, "membership", "--check", "injectivity",
                            "--map", "F0", "--r", "0.2", "--resolution", "128")
    assert code == 0
    assert doc["verdict"] == "violated"
    assert len(doc["witness"]) == 2 and len(doc["witness"][0]) == 2
    check(doc, "membership_report.schema.json")


def test_membership_grid_options_reach_the_grid(capsys):
    code, doc, _ = run_json(capsys, "membership", "--check", "c-h2",
                            "--map", "koebe", "--dilate", "0.2",
                            "--grid-radial", "50", "--grid-angular", "16", "--r", "0.3")
    assert code == 0
    assert doc["verdict"] == "satisfied"          # 0.2 * 0.3 stays inside
    assert doc["grid_spec"] == "50x16 polar grid, geometric clustering toward r_max=0.3"


@pytest.mark.parametrize("check_name", ["c-h2", "starlike"])
def test_membership_r_is_the_disk_of_every_grid_check(capsys, check_name):
    # --r is the grid's outer radius; there is no separate grid radius
    code, doc, _ = run_json(capsys, "membership", "--check", check_name, "--map", "koebe",
                            "--grid-radial", "20", "--grid-angular", "8", "--r", "0.05")
    assert code == 0
    assert doc["grid_spec"].endswith("r_max=0.05")
    assert usage_error(capsys, "membership", "--check", check_name, "--map", "koebe",
                       "--grid-rmax", "0.05").endswith(
        "unrecognized arguments: --grid-rmax 0.05")


def test_membership_map_and_seq_conflict(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({2: 0.1}, {}, 2))
    assert usage_error(capsys, "membership", "--check", "coeff").endswith(
        "one of the arguments --map --seq is required")
    assert usage_error(capsys, "membership", "--check", "coeff",
                       "--map", "koebe", "--seq", path).endswith(
        "argument --seq: not allowed with argument --map")


def test_membership_unknown_map_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["membership", "--check", "coeff", "--map", "parabolic"])
    assert excinfo.value.code == 1


# -- jacobian-scan ------------------------------------------------------------

def test_jacobian_scan_f0_defaults(capsys):
    code, out, _ = run(capsys, "jacobian-scan", "--witness", "F0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,J"
    assert len(lines) == 1001
    first_r, first_j = lines[1].split(",")
    assert first_r == "0.001"
    assert first_j == fmt12(koebe_witness_profile()(0.001))
    js = [float(line.split(",")[1]) for line in lines[1:]]
    flips = sum(1 for a, b in zip(js, js[1:]) if a * b < 0)
    assert flips == 2


def test_jacobian_scan_l0_has_two_sign_changes(capsys):
    code, out, _ = run(capsys, "jacobian-scan", "--witness", "L0", "--hi", "0.35")
    assert code == 0
    js = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    flips = sum(1 for a, b in zip(js, js[1:]) if a * b < 0)
    assert flips == 2


def test_jacobian_scan_last_abscissa_is_hi(capsys):
    # 0.3 + span * 2/2 rounds to 1.0, which the profile refuses; the scan
    # clamps it to hi
    hi = 0.9999999999999999
    code, out, _ = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--lo", "0.3", "--hi", repr(hi), "--steps", "3")
    assert code == 0
    assert out.splitlines()[-1] == f"{fmt12(hi)},{fmt12(koebe_witness_profile()(hi))}"


def test_jacobian_scan_takes_lo_zero(capsys):
    # the library's interval 0 <= lo < hi < 1: J(0) = 1
    code, out, _ = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--lo", "0", "--hi", "0.2", "--steps", "3")
    assert code == 0
    assert out.splitlines()[1] == "0,1"
    code, _, err = run(capsys, "jacobian-scan", "--witness", "F0", "--lo", "-0.5")
    assert code == 1 and "need 0 <= lo < hi < 1" in err


def test_jacobian_scan_validation(capsys):
    code, _, err = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--lo", "0.3", "--hi", "0.2")
    assert code == 1 and "lo < hi" in err
    code, _, err = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--steps", "2000000")
    assert code == 1 and "steps" in err


# -- bloch-table ----------------------------------------------------------------

def test_bloch_table_json(capsys):
    code, doc, _ = run_json(capsys, "bloch-table")
    assert code == 0
    check(doc, "bloch_table.schema.json")
    assert [row["M"] for row in doc] == [1.0, 2.0, 3.0]
    expected = bloch_table([1.0, 2.0, 3.0])
    for got, row in zip(doc, expected):
        assert got["r_S"] == round12(row.r_S)
        assert got["R_S"] == round12(row.R_S)


def test_bloch_table_csv(capsys):
    code, out, _ = run(capsys, "bloch-table", "--csv")
    assert code == 0
    assert out == bloch_table_csv(bloch_table([1.0, 2.0, 3.0]))
    assert out.splitlines()[0] == "M,phi,psi,r_S,R_S"


def test_bloch_table_custom_bounds(capsys):
    code, doc, _ = run_json(capsys, "bloch-table", "--M", "1.5,2.5")
    assert code == 0
    assert [row["M"] for row in doc] == [1.5, 2.5]


def test_bloch_table_bound_below_pi_quarter(capsys):
    code, doc, _ = run_json(capsys, "bloch-table", "--M", "0.5")
    assert code == 2
    assert doc["kind"] == "domain"


@pytest.mark.parametrize("M", ["nan", "inf", "2,nan"])
def test_bloch_table_non_finite_bound(capsys, M):
    code, doc, _ = run_json(capsys, "bloch-table", "--M", M)
    assert code == 2
    bad = M.split(",")[-1]
    assert doc == {"error": f"sup-norm bound M must lie in [0.7853981633974483, inf), got {bad}",
                   "kind": "domain"}
    check(doc, "error.schema.json")


def test_bloch_table_large_bound_keeps_psi(capsys):
    # psi ~ pi/(16 sqrt(2) M): the direct formula cancelled to -2.49e-08 here
    code, doc, _ = run_json(capsys, "bloch-table", "--M", "1e9")
    assert code == 0
    check(doc, "bloch_table.schema.json")
    assert doc[0]["psi"] == 1.38840091781e-10


# -- sharpness -------------------------------------------------------------

def test_sharpness_l0(capsys):
    code, doc, _ = run_json(capsys, "sharpness", "--witness", "L0")
    assert code == 0
    check(doc, "sharpness_report.schema.json")
    assert doc["passed"] is True
    assert doc["r_claimed"] == round12(convex_family_radius().radius)


def test_sharpness_f0_and_parametrized_witness(capsys):
    code, doc, _ = run_json(capsys, "sharpness", "--witness", "F0")
    assert doc["passed"] is True
    assert doc["r_claimed"] == round12(koebe_family_radius().radius)
    code, doc, _ = run_json(capsys, "sharpness", "--witness", "f0:1")
    assert doc["passed"] is True
    assert doc["r_claimed"] == round12(uniform_family_radius(1.0).radius)


def test_sharpness_overflow_answers_alike_cold_and_warm(capsys):
    # a process without numpy samples by float calls, one with numpy by one
    # array call; both overflow to inf, which the JSON output refuses
    root = Path(__file__).resolve().parents[1]
    script = ("import sys; from harmradius.cli import main; code = main(sys.argv[1:]); "
              "assert 'numpy' not in sys.modules; sys.exit(code)")
    cold = subprocess.run([sys.executable, "-W", "error", "-c", script, *SHARPNESS_OVERFLOW],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    code, out, _ = run(capsys, *SHARPNESS_OVERFLOW)
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, out, "")
    assert json.loads(out) == _domain("Out of range float values are not JSON compliant: inf")


def test_sharpness_wrong_radius_fails_but_exits_0(capsys):
    code, doc, _ = run_json(capsys, "sharpness", "--witness", "F0",
                            "--radius", "0.15")
    assert code == 0
    assert doc["passed"] is False


# -- identities, list-extremals -----------------------------------------------

def test_identities_defaults(capsys):
    code, doc, _ = run_json(capsys, "identities")
    assert code == 0
    check(doc, "identities.schema.json")
    assert doc["sum_n_rn"] == 2.0
    assert doc["sum_n2_rn"] == 6.0
    assert doc["sum_n3_rn_minus1"] == 52.0


def test_identities_domain_error(capsys):
    # power_sums' rule, r in [0, 1): r = 0 has the sums (0, 0, 1)
    for r in ("1.5", "1", "-0.5", "nan"):
        code, doc, _ = run_json(capsys, "identities", "--r", r)
        assert code == 2
        assert doc == {"error": f"r must lie in [0, 1), got {float(r)}", "kind": "domain"}
    code, doc, _ = run_json(capsys, "identities", "--r", "0")
    assert code == 0
    check(doc, "identities.schema.json")
    assert (doc["sum_n_rn"], doc["sum_n2_rn"], doc["sum_n3_rn_minus1"]) == (0.0, 0.0, 1.0)


def test_list_extremals(capsys):
    code, doc, _ = run_json(capsys, "list-extremals")
    assert code == 0
    check(doc, "extremals_list.schema.json")
    labels = [e["label"] for e in doc["extremals"]]
    assert labels == sorted(labels)
    assert set(labels) == {"koebe", "convex_L", "F0", "L0", "f0"}
    by_label = {e["label"]: e["parameters"] for e in doc["extremals"]}
    assert by_label["f0"] == ["c", "b1_abs"]
    assert by_label["koebe"] == []


# -- global behavior -----------------------------------------------------------

def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_identical_invocations_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "radius", "--family", "uniform:2,0.3",
                        "--method", "bisect")
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "bloch-table", "--csv")
        outs.append(out)
    assert outs[0] == outs[1]


def readme_cli_examples():
    """(line, argv) for each line of the sh block under README's "## CLI",
    with my_seq.json read as tests/golden/tailed_seq.json and a stdout
    redirect dropped."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    seq = str(root / "tests" / "golden" / "tailed_seq.json")
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "harmradius", line
        argv = argv[1:argv.index(">")] if ">" in argv else argv[1:]
        examples.append((line, [seq if a == "my_seq.json" else a for a in argv]))
    assert examples
    return examples


def test_readme_cli_examples_run(capsys):
    for line, argv in readme_cli_examples():
        code, out, err = run(capsys, *argv)
        assert code == 0, (line, err)
        if argv[0] != "jacobian-scan" and "--csv" not in argv:
            check(json.loads(out), f"{REPORT_SCHEMA[argv[0]]}.schema.json")


def test_console_script_smoke(capsys):
    # the README's CLI examples, through the installed script: each exits 0
    # and prints what main prints in process
    exe = shutil.which("harmradius")
    if exe is None:
        pytest.skip("console script not on PATH")
    for line, argv in readme_cli_examples():
        proc = subprocess.run([exe, *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (line, proc.stderr)
        assert proc.stdout == run(capsys, *argv)[1], line


# numpy is the one runtime dependency: in a fresh process that refuses to
# import scipy, every subcommand runs, the coefficient and sampled grid
# checks on a tailed sequence and a clean and a folding injectivity check
# among them, and none of them tries to import scipy
COLD_PROCESS = """
import contextlib, io, json, sys

refused = []

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ModuleNotFoundError(f"scipy is refused: {name}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.spatial
except ModuleNotFoundError:
    refused.clear()
else:
    raise AssertionError("scipy was not refused")

import harmradius, harmradius.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert harmradius.cli.main(list(argv)) == 0, argv

run("radius", "--family", "koebe")
run("bloch-table")
run("sharpness", "--witness", "F0")
run("jacobian-scan", "--witness", "F0")
run("membership", "--check", "c-h2", "--map", "F0", "--dilate", "0.1")
run("membership", "--check", "coeff", "--seq", sys.argv[1])
run("membership", "--check", "c-h2", "--seq", sys.argv[1], "--dilate", "0.5",
    "--grid-radial", "40", "--grid-angular", "16")
run("membership", "--check", "starlike", "--seq", sys.argv[1], "--r", "0.5",
    "--grid-radial", "40", "--grid-angular", "16")
run("membership", "--check", "injectivity", "--map", "koebe", "--dilate", "0.112903",
    "--r", "0.999", "--resolution", "64")
run("membership", "--check", "injectivity", "--map", "F0", "--r", "0.2",
    "--resolution", "64")
assert "numpy" in sys.modules
print(json.dumps(refused))
"""


def test_fresh_process_runs_without_scipy():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", COLD_PROCESS,
                           str(root / "tests" / "golden" / "tailed_seq.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# the scalar subcommands, the float profile calls of jacobian-scan and
# sharpness, and the coefficient checks on a sequence file run on the
# standard library: a fresh process loads numpy only for a sampled grid.
# The second sequence saturates: its radius is decided by the tail's S(1^-)
SCALAR_RUNS = """
import contextlib, io, sys
import harmradius, harmradius.cli

def run(*argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()):
        assert harmradius.cli.main(list(argv)) == code, argv

assert "numpy" not in sys.modules, "import harmradius loaded numpy"
run("radius", "--family", "koebe")
run("radius", "--family", "uniform:2,0.3")
run("radius", "--family", "koebe", "--method", "bisect", "--beta", "0.2")
run("radius", "--seq", sys.argv[1])
run("radius", "--seq", sys.argv[2])
run("bloch-table")
run("identities")
run("list-extremals")
run("jacobian-scan", "--witness", "F0", "--steps", "5")
run("jacobian-scan", "--witness", "f0:2,0.3", "--steps", "5")
run("sharpness", "--witness", "F0")
run("sharpness", "--witness", "L0")
run("sharpness", "--witness", "f0:2,0.3")
loaded = sorted({"harmradius.maps", "harmradius.membership"} & set(sys.modules))
assert not loaded, f"a subcommand other than membership loaded {loaded}"
for check in ("coeff", "growth"):
    run("membership", "--check", check, "--seq", sys.argv[1])
    run("membership", "--check", check, "--seq", sys.argv[1], "--dilate", "0.5")
assert "numpy" not in sys.modules, "a coefficient check loaded numpy"
# a closed-form map builds and exits 2 (no coefficient sequence) without numpy
run("membership", "--check", "coeff", "--map", "F0", code=2)
run("membership", "--check", "growth", "--map", "f0:2,0.3", code=2)
# dilated, a named map's coefficient check sums its family's S(r) in closed form
run("membership", "--check", "coeff", "--map", "F0", "--dilate", "0.1")
"""
SCALAR_PROCESS = SCALAR_RUNS + """
assert "numpy" not in sys.modules, "a scalar subcommand loaded numpy"
run("membership", "--check", "c-h2", "--seq", sys.argv[1], "--dilate", "0.5",
    "--grid-radial", "40", "--grid-angular", "16")
assert "numpy" in sys.modules, "a sampled check ran without numpy"
"""
# nor the stdlib's introspection modules; the child runs without site (-S),
# whose .pth files may import typing before the package does
LEAN_PROCESS = SCALAR_RUNS + """
loaded = sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))
assert not loaded, f"a scalar subcommand loaded {loaded}"
"""


def run_scalar_child(script, *flags):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *flags, "-c", script,
                           str(root / "tests" / "golden" / "tailed_seq.json"),
                           str(root / "tests" / "golden" / "tailed_seq_saturated.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


def test_fresh_process_loads_numpy_only_for_numeric_subcommands():
    run_scalar_child(SCALAR_PROCESS)


def test_fresh_scalar_process_loads_no_dataclasses_inspect_or_typing():
    run_scalar_child(LEAN_PROCESS, "-S")


# -- the CLI boundary under arbitrary flags ------------------------------------

NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1e308", "5e-324",
                           "0.05", "0.2", "0.5", "1.5"])
# small counts, or counts far past every cap (rejected before allocation)
COUNTS = st.integers(-2, 12) | st.integers(10 ** 7, 10 ** 20)
# label parameters c or c,b1, drawn from the same hostile numbers
PARAMS = st.lists(NUMBERS, min_size=1, max_size=2).map(",".join)
MAPS = st.sampled_from(["koebe", "convex_L", "F0", "L0", "f0:1"]) | PARAMS.map("f0:{}".format)
WITNESS_LABELS = (st.sampled_from(["F0", "L0", "f0:1", "f0:2,0.3"])
                  | PARAMS.map("f0:{}".format))
FAMILIES = st.sampled_from(["koebe", "convex", "uniform:1"]) | PARAMS.map("uniform:{}".format)
BOUNDS = st.lists(NUMBERS | st.sampled_from(["1e16", "1e200"]), min_size=1,
                  max_size=3).map(",".join)
SCHEMA_OF = {"radius": "radius_report", "membership": "membership_report",
             "sharpness": "sharpness_report", "bloch-table": "bloch_table",
             "identities": "identities"}
SEQ = "{seq}"  # replaced by the path of the drawn --seq document


@st.composite
def seq_docs(draw):
    values = st.sampled_from([0.0, 0.01, -0.2, 0.45, 1e-300, 1e308])
    indices = st.integers(2, 30) | st.sampled_from([10 ** 4 + 1, 10 ** 13])
    entries = {"a": draw(st.dictionaries(indices, st.tuples(values, values), max_size=3)),
               "b": draw(st.dictionaries(st.integers(1, 30), st.tuples(values, values),
                                         max_size=2))}
    doc = {k: [[n, re, im] for n, (re, im) in sorted(v.items())] for k, v in entries.items()}
    top = max([1, *entries["a"], *entries["b"]])
    doc["truncation"] = top + draw(st.sampled_from([0, 3, 10 ** 12]))
    if draw(st.booleans()):
        doc["tail"] = {"degree": draw(st.sampled_from([-4.0, -2.0, 0.0, 1.0, 1e6])),
                       "constant": draw(st.sampled_from([0.0, 1e-300, 0.001, 1.0]))}
    return doc


def _flags(draw, **flags):
    """--name value pairs, each flag drawn or left out."""
    out = []
    for name, values in flags.items():
        if draw(st.booleans()):
            out += [f"--{name.replace('_', '-')}", str(draw(values))]
    return out


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(list(SCHEMA_OF) + ["jacobian-scan"]))
    if cmd == "radius":
        subject = draw(FAMILIES | st.none())
        argv = ["--family", subject] if subject else ["--seq", SEQ]
        return [cmd, *argv, *_flags(draw, beta=NUMBERS,
                                    method=st.sampled_from(["auto", "bisect", "closed"]))]
    if cmd == "membership":
        check_name = draw(st.sampled_from(["coeff", "growth", "c-h2", "starlike",
                                           "injectivity"]))
        subject = draw(MAPS | st.none())
        argv = ["--map", subject] if subject else ["--seq", SEQ]
        # injectivity's default resolution is slow; draw a small or a rejected one
        return [cmd, "--check", check_name, *argv, "--resolution", str(draw(COUNTS)),
                "--grid-radial", str(draw(COUNTS)), "--grid-angular", str(draw(COUNTS)),
                *_flags(draw, dilate=NUMBERS, beta=NUMBERS, r=NUMBERS)]
    if cmd == "jacobian-scan":
        return [cmd, "--witness", draw(WITNESS_LABELS),
                *_flags(draw, lo=NUMBERS, hi=NUMBERS, steps=COUNTS)]
    if cmd == "bloch-table":
        return [cmd, *_flags(draw, M=BOUNDS), *draw(st.sampled_from([[], ["--csv"]]))]
    if cmd == "sharpness":
        return [cmd, "--witness", draw(WITNESS_LABELS), *_flags(draw, radius=NUMBERS)]
    return [cmd, *_flags(draw, r=NUMBERS)]


def _must_answer(argv) -> bool:
    """Whether a parsed argv has an answer by the mathematics: a stock family
    at beta 0 always has a radius in (0, 1), and bloch-table has a row for
    every bound M >= pi/4 whose 8M/pi is finite."""
    if argv[0] == "radius":
        return "--family" in argv and "--beta" not in argv
    if argv[0] == "bloch-table":
        bounds = argv[argv.index("--M") + 1].split(",") if "--M" in argv else []
        return all(float(m) >= math.pi / 4 and math.isfinite(8 * float(m) / math.pi)
                   for m in bounds if m)
    return False


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv(), doc=seq_docs())
@example(argv=["radius", "--seq", SEQ], doc=DIVERGENT_TAIL)
@example(argv=["radius", "--seq", SEQ], doc=STEEP_TAIL)
@example(argv=HUGE_GRID, doc=HUGE_INDEX)
@example(argv=["membership", "--check", "coeff", "--seq", SEQ], doc=HUGE_INDEX)
@example(argv=["bloch-table", "--M", "1e308"], doc=HUGE_INDEX)
@example(argv=["bloch-table", "--M", "1e16"], doc=HUGE_INDEX)
@example(argv=["bloch-table", "--M", ""], doc=HUGE_INDEX)
@example(argv=["bloch-table", "--M", ",,"], doc=HUGE_INDEX)
@example(argv=["radius", "--family", "uniform:1e308"], doc=HUGE_INDEX)
@example(argv=["radius", "--family", "uniform:5e-324"], doc=HUGE_INDEX)
@example(argv=SUBNORMAL_DILATION, doc=HUGE_INDEX)
@example(argv=HUGE_SPAN, doc=HUGE_INDEX)
@example(argv=C_H2_OVERFLOW, doc=HUGE_INDEX)
@example(argv=STARLIKE_OVERFLOW, doc=HUGE_INDEX)
@example(argv=STARLIKE_SUBNORMAL_DILATION, doc=HUGE_INDEX)
@example(argv=SHARPNESS_OVERFLOW, doc=HUGE_INDEX)
@example(argv=["membership", "--check", "coeff", "--map", "koebe", "--dilate", "5e-324"],
         doc=HUGE_INDEX)
@example(argv=["membership", "--check", "coeff", "--map", "f0:2,0.3", "--dilate", "1"],
         doc=HUGE_INDEX)
def test_cli_boundary_answers_or_fails_structured(tmp_path_factory, argv, doc):
    check(doc, "coefficient_seq.schema.json")
    path = tmp_path_factory.getbasetemp() / "drawn_seq.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(path) if a == SEQ else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out = out.getvalue()
    assert code in (0, 1, 2, 3)
    if code != 1 and _must_answer(argv):
        assert code == 0, out
    if code in (1, 3):
        assert out == ""
    elif code == 2:
        check(json.loads(out), "error.schema.json")
    elif argv[0] == "jacobian-scan" or "--csv" in argv:
        assert out.splitlines()[0] in ("r,J", "M,phi,psi,r_S,R_S")
    else:
        check(json.loads(out), f"{SCHEMA_OF[argv[0]]}.schema.json")


@settings(max_examples=100, deadline=None)
@given(doc=seq_docs(), rho=st.sampled_from([1.0, 0.5, 0.3, 1e-3, 5e-324]))
def test_coefficient_checks_read_the_dilated_sequence_of_the_map(tmp_path_factory, doc, rho):
    # coeff and growth on --seq read the dilated series map: their reports
    # are those on its sequence dilated by hand, to the bit, and print its label
    try:
        seq = sequence_from_dict(doc)
    except ValueError:  # a drawn coefficient too large for its index
        assume(False)
    dilated = HarmonicMap.from_series(seq, label="seq-file").dilate(rho)
    by_hand = CoefficientSeq({n: v * rho ** (n - 1) for n, v in seq.a.items()},
                             {n: v * rho ** (n - 1) for n, v in seq.b.items()},
                             seq.truncation, seq.tail)
    for check in (coeff_condition, coefficient_growth_check):
        outcomes = []
        for subject in (dilated, by_hand):
            try:
                outcomes.append(repr(check(subject)))
            except ValueError as exc:
                outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1]
    path = tmp_path_factory.getbasetemp() / "dilated_seq.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for check_name in ("coeff", "growth"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["membership", "--check", check_name, "--seq", str(path),
                         "--dilate", repr(rho)])
        if code == 0:
            assert json.loads(out.getvalue())["subject"] == dilated.label
