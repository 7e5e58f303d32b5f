"""Smoke check for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json at minimum size (one cycle
with --seconds 0) on seed 7, not run.py's default, untraced and traced,
and checks that

- every run is correct and its last stdout line is the result object;
- the metrics are exactly BENCHMARK.json's end_to_end / per_layer
  entries (and run.py's tables), each with its unit;
- the reports print every named end-to-end figure (FIGURES) somewhere;
- in a traced run every child span lies inside its parent span, so no
  layer's self time is negative;
- run.py fails, without printing a result, in a directory holding only
  BENCHMARK.json and perfbench/.

It prints every metric with its unit and exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
SECONDS = 0  # one cycle per run

# The end-to-end figures by their per-workload names; each workload's
# report prints the ones that apply to it, with the unit in the name.
FIGURES = (
    "setup_s", "ops_per_s", "failed_frac", "peak_rss_mb",
    "cli_p50_s", "cli_tail_s",
    "radius_p50_ms", "radius_tail_ms", "roots_p50_ms", "roots_tail_ms",
    "injectivity_p50_s", "injectivity_tail_s",
    "gridcheck_p50_ms", "gridcheck_tail_ms",
)


def fail(message: str) -> None:
    print(f"smoke: FAILED: {message}")
    sys.exit(1)


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if expected[0] != run.END_TO_END or expected[1] != run.PER_LAYER:
        fail("BENCHMARK.json metrics differ from run.py's END_TO_END / PER_LAYER")

    printed = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(run.ROOT, workload, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['failed']} of "
                     f"{result['attempted']} operations failed\n" + "\n".join(lines[:-1]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{workload} trace={trace}: metrics/units {got} != {expected[trace]}")
            print(f"== {workload} trace={trace}: {result['attempted']} operations, all correct")
            for name, m in result["metrics"].items():
                print(f"   {name} = {m['value']:.6g} {m['unit']}")
            if trace and not any(ln.startswith("span nesting:") for ln in lines):
                fail(f"{workload}: no span nesting line in the traced report")
            for line in lines[:-1]:
                name = line.split(" = ", 1)[0]
                if name in FIGURES and " = " in line:
                    printed.add(name)
                    print(f"   [figure] {line}")
                if line.startswith("span nesting:"):
                    overhang, least_self = (float(part.rsplit(" ", 2)[1])
                                            for part in line.split(","))
                    if overhang > 1e-9 or least_self < -1e-9:
                        fail(f"{workload}: spans not nested: {line}")
    missing = sorted(set(FIGURES) - printed)
    if missing:
        fail(f"named end-to-end figures not printed: {missing}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"smoke: ok ({len(FIGURES)} named figures, "
          f"{len(expected[0])} end-to-end and {len(expected[1])} per-layer metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
