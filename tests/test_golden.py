"""Golden outputs: CLI stdout bytes and exit codes, and demo stdout bytes.

Each case in tests/golden/cases.json names an argv and the exit code it
must return; tests/golden/<name>.out holds the exact stdout.  The string
"{golden}" in an argv is replaced by the path of tests/golden, so cases
can read the checked-in sequence file.  Each script demos/<name>.py is
run in-process as __main__; tests/golden/demos/<name>.out holds its
exact stdout.  Every JSON output validates against its schema in
docs/schemas/ (a failure, exit 2, against error.schema.json).  The
sharpness cases run once more in a fresh process, which has no numpy.

Re-record a case or demo by name, only when a change of its output is
intended and explained:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

An unknown name is refused and nothing is written.  With no name, the
script lists the cases and demos whose bytes would change, writes nothing
and exits 1.
"""

import contextlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from harmradius.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMAS = GOLDEN.parent.parent / "docs" / "schemas"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
DEMOS = sorted((GOLDEN.parent.parent / "demos").glob("*.py"))

REPORT_SCHEMA = {
    "radius": "radius_report", "membership": "membership_report",
    "sharpness": "sharpness_report", "bloch-table": "bloch_table",
    "identities": "identities", "list-extremals": "extremals_list",
}
# every case but the CSV outputs and the usage errors (exit 1, empty stdout)
JSON_CASES = [c for c in CASES if c["exit"] != 1 and c["argv"][0] != "jacobian-scan"
              and "--csv" not in c["argv"]]


def invoke(argv) -> tuple[int, bytes]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def run_demo(path: Path) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    code, out = invoke(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize("case", JSON_CASES, ids=[c["name"] for c in JSON_CASES])
def test_golden_json_matches_schema(case):
    name = "error" if case["exit"] == 2 else REPORT_SCHEMA[case["argv"][0]]
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))
    doc = json.loads((GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8"))
    Draft202012Validator(schema).validate(doc)


# verify_sharpness samples by float calls where numpy is not loaded, and by
# one array call in this process; a fresh process takes the float path
SHARPNESS_CHILD = """
import contextlib, io, json, sys
import harmradius.cli

outs = {}
for case in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outs[case["name"]] = [harmradius.cli.main(case["argv"]), out.getvalue()]
assert "numpy" not in sys.modules, "sharpness loaded numpy"
print(json.dumps(outs))
"""


def test_sharpness_golden_output_without_numpy():
    cases = [c for c in CASES if c["argv"][0] == "sharpness"]
    assert len(cases) == 4
    proc = subprocess.run([sys.executable, "-c", SHARPNESS_CHILD, json.dumps(cases)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    outs = json.loads(proc.stdout)
    for case in cases:
        code, out = outs[case["name"]]
        assert code == case["exit"], case["name"]
        assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    assert run_demo(demo) == (GOLDEN / "demos" / f"{demo.stem}.out").read_bytes()


def test_rerecord_writes_only_the_named_cases(monkeypatch, tmp_path, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    recorded = (GOLDEN / "radius_koebe.out").read_bytes()
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    for path in (golden / "radius_koebe.out", golden / "demos" / "radii_tour.out"):
        path.write_bytes(b"stale\n")
    files = lambda: {p: p.read_bytes() for p in sorted(golden.rglob("*.out"))}
    stale = files()
    # no name: the changed outputs are listed and nothing is written
    assert rerecord([]) == 1 and files() == stale
    assert capsys.readouterr().out.splitlines() == ["radius_koebe: bytes would change",
                                                    "radii_tour: bytes would change"]
    # an unknown name refuses the whole call
    assert rerecord(["radius_koebe", "no_such_case"]) == 2 and files() == stale
    assert "unknown case or demo: no_such_case" in capsys.readouterr().err
    # a name rewrites that output alone
    assert rerecord(["radius_koebe"]) == 0
    assert files() == {**stale, golden / "radius_koebe.out": recorded}


def recording(name: str) -> tuple[Path, bytes, str]:
    """(golden file, bytes now, "" or why the case would not be recorded) of a
    case or demo name."""
    for case in CASES:
        if case["name"] == name:
            code, out = invoke(case["argv"])
            wrong = f"exit {code}, expected {case['exit']}" if code != case["exit"] else ""
            return GOLDEN / f"{name}.out", out, wrong
    demo, = [d for d in DEMOS if d.stem == name]
    return GOLDEN / "demos" / f"{name}.out", run_demo(demo), ""


def rerecord(names) -> int:
    """Rewrite the golden files of the named cases and demos; with no name,
    print those whose bytes would change and write nothing.  The exit code."""
    known = [c["name"] for c in CASES] + [d.stem for d in DEMOS]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown case or demo: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if not names:
        for name in known:
            path, out, wrong = recording(name)
            if wrong or not path.exists() or path.read_bytes() != out:
                print(f"{name}: {wrong or 'bytes would change'}")
        print("nothing written: name the cases and demos to re-record", file=sys.stderr)
        return 1
    recorded = {name: recording(name) for name in names}
    wrong = [f"{name}: {why}" for name, (_, _, why) in recorded.items() if why]
    if wrong:
        print(*wrong, "nothing written", sep="\n", file=sys.stderr)
        return 2
    for path, out, _ in recorded.values():
        path.write_bytes(out)
    print(f"recorded {len(recorded)} of {len(known)} cases and demos under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(rerecord(sys.argv[1:]))
