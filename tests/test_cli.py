"""CLI behavior: exit codes, JSON schemas, CSV formats, determinism.

Most tests call main(argv) in-process and capture stdout with capsys;
one smoke test exercises the installed console script in a subprocess.
Every successful JSON output is validated against the schema shipped
under docs/schemas/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from harmradius.cli import main
from harmradius.coefficients import CoefficientSeq, save_sequence, sequence_to_dict
from harmradius.bloch import bloch_table, bloch_table_csv
from harmradius.extremals import koebe_witness_profile
from harmradius.radii import (
    convex_family_radius,
    koebe_family_radius,
    radius_by_bisection,
    uniform_family_radius,
)
from harmradius._util import fmt12, round12

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
], ids=["null-truncation", "tail-without-degree", "fractional-index"])
def test_radius_malformed_seq_file_is_exit_2(capsys, tmp_path, doc):
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
    for argv in (
        ["radius"],
        ["radius", "--family", "koebe", "--seq", path],
        ["radius", "--seq", path, "--method", "closed"],
        ["radius", "--family", "koebe", "--method", "closed", "--beta", "0.3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error" in err


def test_radius_unknown_family_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["radius", "--family", "elliptic"])
    assert excinfo.value.code == 1
    assert "unknown family" in capsys.readouterr().err


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
                            "--grid-radial", "50", "--grid-angular", "16",
                            "--grid-rmax", "0.3")
    assert code == 0
    assert doc["verdict"] == "satisfied"          # 0.2 * 0.3 stays inside
    assert "50x16" in doc["grid_spec"] or "50" in doc["grid_spec"]


def test_membership_map_and_seq_conflict(capsys, tmp_path):
    path = seq_file(tmp_path, CoefficientSeq({2: 0.1}, {}, 2))
    code, out, err = run(capsys, "membership", "--check", "coeff",
                         "--map", "koebe", "--seq", path)
    assert code == 1
    assert "exactly one" in err


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


def test_jacobian_scan_out_matches_stdout(capsys, tmp_path):
    args = ["jacobian-scan", "--witness", "F0", "--steps", "50"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    dest = tmp_path / "scan.csv"
    code2, out2, _ = run(capsys, *args, "--out", str(dest))
    assert code2 == 0 and out2 == ""
    assert dest.read_text(encoding="utf-8") == out


def test_jacobian_scan_validation(capsys):
    code, _, err = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--lo", "0.3", "--hi", "0.2")
    assert code == 1 and "lo < hi" in err
    code, _, err = run(capsys, "jacobian-scan", "--witness", "F0",
                       "--steps", "2000000")
    assert code == 1 and "steps" in err


def test_jacobian_scan_unwritable_path_is_exit_3(capsys):
    code, out, err = run(capsys, "jacobian-scan", "--witness", "F0",
                         "--steps", "5", "--out", "/no-such-dir-anywhere/x.csv")
    assert code == 3
    assert "i/o error" in err


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
    for r in ("1.5", "0", "1"):
        code, doc, _ = run_json(capsys, "identities", "--r", r)
        assert code == 2
        assert doc == {"error": "r must lie in (0, 1)", "kind": "domain"}


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


def test_console_script_smoke():
    exe = shutil.which("harmradius")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "radius", "--family", "koebe"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(0.112902931208, abs=1e-11)
