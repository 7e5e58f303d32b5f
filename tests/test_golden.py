"""Golden CLI outputs: stdout bytes and exit codes of fixed invocations.

Each case in tests/golden/cases.json names an argv and the exit code it
must return; tests/golden/<name>.out holds the exact stdout.  The string
"{golden}" in an argv is replaced by the path of tests/golden, so cases
can read the checked-in sequence file.

Re-record (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from harmradius.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def invoke(argv) -> tuple[int, bytes]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    code, out = invoke(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        code, out = invoke(case["argv"])
        if code != case["exit"]:
            sys.exit(f"{case['name']}: exit {code}, expected {case['exit']}")
        (GOLDEN / f"{case['name']}.out").write_bytes(out)
    print(f"recorded {len(CASES)} cases under {GOLDEN}")
