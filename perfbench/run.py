"""harmradius benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-cold|radius-solve|oracle-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the run sets the workload up several times in fresh
processes (setup_s is their median), sets it up once more in-process,
runs whole cycles of operations for about S seconds, checks every
output and reports the end-to-end metrics, with every time scaled to a
reference machine speed (see Speed).  With --trace 1 it runs
cycles untraced for S/6 seconds, replays them under the span tracer (see
tracer.py), traces the first operations of the other two workloads so
that every layer is measured, replays the cycles untraced once more for
the tracing overhead, and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Outputs land in
perfbench/out/: the result with the environment it was measured in,
and for traced runs the spans (spans-<workload>.npz).
"""

import argparse
import bisect
import json
import math
import mmap
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
# Reference machine speed: the reference kernel's time, in seconds, on the
# machine the end-to-end times are scaled to (about its time on a 2-vCPU
# x86-64 cloud host with Python 3.11).  The kernel runs once per
# REF_EVERY_S of the loop, about 4 % of it.
REF_KERNEL_S = 2.0e-3
REF_EVERY_S = 0.05
REF_BURST = 5
MAX_STRETCH = 2.5  # a loop's wall time is at most this times --seconds

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "primary_p50_ms": "ms",
    "primary_tail_ms": "ms",
    "secondary_p50_ms": "ms",
    "secondary_tail_ms": "ms",
}

PER_LAYER = {
    "import.harmradius_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.child_cpu_s": "s",
    "cli.wait_s": "s",
    "coefficients.weighted_sum_calls": "count",
    "coefficients.weighted_sum_self_ms": "ms",
    "coefficients.weighted_sum_tailed_us": "us",
    "coefficients.weighted_sum_family_us": "us",
    "radii.radius_by_bisection_self_ms": "ms",
    "radii.jacobian_roots_self_ms": "ms",
    "radii.profile_calls_per_roots": "count",
    "radii.verify_sharpness_ms": "ms",
    "extremals.profile_self_ms": "ms",
    "extremals.get_extremal_ms": "ms",
    "maps.array_calls": "count",
    "maps.array_points": "count",
    "maps.scalar_calls": "count",
    "maps.series_eval_self_ms": "ms",
    "maps.closed_eval_self_ms": "ms",
    "maps.from_series_ms": "ms",
    "membership.injectivity_self_ms": "ms",
    "membership.pair_search_ms": "ms",
    "membership.sort_ms": "ms",
    "membership.candidate_pairs": "count",
    "membership.refine_evals": "count",
    "membership.decisive_frac": "fraction",
    "membership.gridcheck_self_ms": "ms",
    "membership.grid_points": "count",
    "bloch.table_ms": "ms",
    "op.self_ms": "ms",
    "import.self_ms": "ms",
    "cli.self_ms": "ms",
    "coefficients.self_ms": "ms",
    "maps.self_ms": "ms",
    "extremals.self_ms": "ms",
    "membership.self_ms": "ms",
    "radii.self_ms": "ms",
    "bloch.self_ms": "ms",
    "shape.cli_import_share": "fraction",
    "shape.injectivity_pair_sort_share": "fraction",
    "shape.roots_profile_share": "fraction",
    "trace.overhead_frac": "fraction",
}

# Per-workload names of the two latency classes, used in the report.
CLASS_NAMES = {
    "cli-cold": ("cli_scalar", "cli_numeric"),
    "radius-solve": ("radius", "roots"),
    "oracle-grid": ("injectivity", "gridcheck"),
}


@dataclass
class Sample:
    op: object
    start: float
    seconds: float
    output: object
    error: str | None
    scaled: float | None = None  # seconds on the reference machine


def _bump(x: float) -> float:
    return math.exp(-x * x) + x / (1.0 + x * x)


class Speed:
    """The machine's speed over time, from a fixed reference kernel timed
    between operations.

    The benchmark shares its cores with other tenants of the host, whose
    load makes the same code run up to 2x slower for seconds or minutes at
    a time.  The ratio of an operation's time to the kernel's, both taken
    in the same stretch of time, stays put, so end-to-end times are
    reported scaled by REF_KERNEL_S / (median of the NEAR kernel timings
    nearest to the operation): what the operation takes on a machine where
    the kernel takes REF_KERNEL_S.  The report also gives the wall times."""

    NEAR = 10

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.random(4096)
        self.z = self.x * (0.5 + 0.25j)
        self.xs = [float(v) - 0.5 for v in self.x[:2048]]
        self.stamps: list[float] = []  # midpoints of the kernel runs
        self.times: list[float] = []
        self.last = time.perf_counter()

    def kernel(self) -> float:
        """Python function calls and float and complex arithmetic over a
        list, an argsort and a complex ufunc, and a first write to each
        page of 1 MiB of fresh memory (the page faults of new arrays)."""
        np = self.np
        acc = 0.0
        for x in self.xs:
            acc += _bump(x)
        z, w = 0.3 + 0.1j, 0j
        for i in range(600):
            u = z * (1.0 + 0.001 * i)
            w = 0.5 * w + (u + u * u / 2 + u ** 3 / 3) / (1.0 - u)
        order = np.argsort(self.x)
        acc += abs(w) + float(np.abs(np.exp(self.z[order])).sum())
        fresh = mmap.mmap(-1, 1 << 20)
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        acc += int(pages[::mmap.PAGESIZE].sum())
        del pages
        fresh.close()
        return acc

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self.kernel()
            self.last = time.perf_counter()
            self.stamps.append(0.5 * (t0 + self.last))
            self.times.append(self.last - t0)

    def tick(self) -> float:
        """Time the kernel once per REF_EVERY_S passed since it last ran
        (at most REF_BURST times); returns the seconds this took."""
        n = min(REF_BURST, int((time.perf_counter() - self.last) / REF_EVERY_S))
        if n == 0:
            return 0.0
        t0 = time.perf_counter()
        self.sample(n)
        return time.perf_counter() - t0

    def scaled(self, start: float, seconds: float) -> float:
        """Reference-machine seconds of `seconds` of wall time from `start`."""
        i = bisect.bisect(self.stamps, start + 0.5 * seconds)
        lo = max(0, min(i - self.NEAR // 2, len(self.times) - self.NEAR))
        return seconds * REF_KERNEL_S / statistics.median(self.times[lo:lo + self.NEAR])


def execute(op, tracer=None) -> Sample:
    span = tracer.open(f"op.{op.kind}") if tracer else None
    t0 = time.perf_counter()
    try:
        out, err = op.run(tracer), None
    except Exception as exc:  # an operation that raises counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return Sample(op, t0, dt, out, err)


def run_cycles(wl, seconds: float, tracer=None, cycles: int | None = None, speed=None):
    """As many whole cycles as bring the loop time nearest to `seconds`
    (at least one), or exactly `cycles`.

    With `speed`, the reference kernel is timed between operations and the
    seconds are reference-machine seconds, so a run does the same number
    of cycles however loaded the host is (but stops after MAX_STRETCH
    times `seconds` of wall time); the returned loop time leaves the
    kernel out."""
    samples = []
    t0 = time.perf_counter()
    probing = done = 0.0
    k = 0
    while (k < cycles) if cycles is not None else (
            k == 0 or (done * (k + 0.5) / k < seconds
                       and time.perf_counter() - t0 < MAX_STRETCH * seconds)):
        c0, p0 = time.perf_counter(), probing
        for op in wl.cycle(k):
            samples.append(execute(op, tracer))
            if speed is not None:
                probing += speed.tick()
        busy = time.perf_counter() - c0 - (probing - p0)
        done += speed.scaled(c0, busy) if speed is not None else busy
        k += 1
    return samples, time.perf_counter() - t0 - probing, k


def validate(samples) -> None:
    """Check every output; a wrong one marks its sample failed."""
    for s in samples:
        if s.error is None:
            try:
                s.op.check(s.output)
            except Exception as exc:
                s.error = f"check failed: {type(exc).__name__}: {exc}"


def tail(values):
    """(value, percentile, n) of the highest order statistic with at
    least ten samples above it; the median when that would lie below it
    (fewer than 21 samples)."""
    v = sorted(values)
    n = len(v)
    if n >= 21:
        return v[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(v), 50.0, n


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Start and wall time of one fresh process that sets the workload up
    and exits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(ROOT), check=True,
                   timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return t0, time.perf_counter() - t0


def import_times() -> dict:
    """`python -X importtime -c "import harmradius"`: the package's
    cumulative time and the self times of numpy's and scipy's modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import harmradius"],
                          cwd=ROOT, env=workloads.child_env(ROOT), check=True,
                          timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    out = {"import.harmradius_ms": 0.0, "import.numpy_ms": 0.0, "import.scipy_ms": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "harmradius":
            out["import.harmradius_ms"] = cumulative_us / 1000.0
        for pkg in ("numpy", "scipy"):
            if name == pkg or name.startswith(pkg + "."):
                out[f"import.{pkg}_ms"] += self_us / 1000.0
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = ROOT / "src" / "harmradius"
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": {p.name: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))},
    }


# -- end-to-end run -------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Run this process and the ones it starts on a single CPU, the one
    whose speed the reference kernel measures; the host's load differs
    from CPU to CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def end_to_end(args, report) -> tuple[dict, list]:
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample(REF_BURST)
        setups.append(setup_seconds(args.workload, args.seed))
    speed.sample(REF_BURST)
    in_loop = len(speed.times)
    wl = workloads.build(args.workload, args.seed, ROOT, OUT)
    speed.sample(REF_BURST)
    samples, wall, cycles = run_cycles(wl, args.seconds, speed=speed)
    speed.sample(REF_BURST)
    validate(samples)
    for s in samples:
        s.scaled = speed.scaled(s.start, s.seconds)
    # the loop's wall time, scaled as its operations are on average
    scaled_wall = wall * (math.fsum(s.scaled for s in samples)
                          / math.fsum(s.seconds for s in samples))

    if args.workload == "cli-cold":
        rss_kb = max(s.output.rss_kb for s in samples if s.output is not None)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(speed.scaled(*t) for t in setups),
        "ops_per_s": len(samples) / scaled_wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    report.append(f"speed: reference kernel p50 "
                  f"{statistics.median(speed.times[:in_loop]) * 1e3:.4f} ms in the set-up, "
                  f"{statistics.median(speed.times[in_loop:]) * 1e3:.4f} ms in the loop "
                  f"({len(speed.times)} timings); times are scaled to "
                  f"{REF_KERNEL_S * 1e3:g} ms, wall times in brackets")
    report.append(f"setup: {SETUP_REPEATS} fresh processes, "
                  + ", ".join(f"{speed.scaled(*t):.4f} ({t[1]:.4f})" for t in setups) + " s")
    report.append(f"ran {cycles} cycles, {len(samples)} operations in {wall:.3f} s wall "
                  f"({len(samples) / wall:.4g} ops/s wall)")
    names = CLASS_NAMES[args.workload]
    for cls, alias in zip(("primary", "secondary"), names):
        scaled = [s.scaled for s in samples if s.op.cls == cls]
        wall_p50 = statistics.median(s.seconds for s in samples if s.op.cls == cls)
        p50 = statistics.median(scaled)
        value, pct, n = tail(scaled)
        metrics[f"{cls}_p50_ms"] = p50 * 1e3
        metrics[f"{cls}_tail_ms"] = value * 1e3
        report.append(f"{cls} = {alias}: p50 {p50 * 1e3:.4f} ms ({wall_p50 * 1e3:.4f}), "
                      f"tail p{pct:.1f} {value * 1e3:.4f} ms, n={n}"
                      + (" (too few samples: the tail is the median)" if pct <= 50 else ""))
    report.extend(_named_figures(args.workload, samples, metrics))
    by_kind: dict[str, list] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s)
    for kind, group in sorted(by_kind.items()):
        report.append(f"  {kind}: n={len(group)} p50 "
                      f"{statistics.median(s.scaled for s in group) * 1e3:.4f} ms "
                      f"({statistics.median(s.seconds for s in group) * 1e3:.4f})")
    return metrics, samples


def _named_figures(workload, samples, metrics) -> list[str]:
    """The end-to-end figures under their per-workload names."""
    failed = sum(s.error is not None for s in samples)
    lines = [f"failed_frac = {failed / len(samples):.6g} (of {len(samples)})",
             f"ops_per_s = {metrics['ops_per_s']:.6g} 1/s",
             f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB",
             f"setup_s = {metrics['setup_s']:.6g} s"]
    if workload == "cli-cold":
        times = [s.scaled for s in samples]
        value, pct, n = tail(times)
        lines += [f"cli_p50_s = {statistics.median(times):.6g} s (n={n})",
                  f"cli_tail_s = {value:.6g} s (p{pct:.1f}, n={n})"]
        return lines
    primary, secondary = CLASS_NAMES[workload]
    p_unit, p_scale = ("s", 1e-3) if workload == "oracle-grid" else ("ms", 1.0)
    lines += [
        f"{primary}_p50_{p_unit} = {metrics['primary_p50_ms'] * p_scale:.6g} {p_unit}",
        f"{primary}_tail_{p_unit} = {metrics['primary_tail_ms'] * p_scale:.6g} {p_unit}",
        f"{secondary}_p50_ms = {metrics['secondary_p50_ms']:.6g} ms",
        f"{secondary}_tail_ms = {metrics['secondary_tail_ms']:.6g} ms",
    ]
    return lines


# -- traced run -------------------------------------------------------------------

def traced(args, report) -> tuple[dict, list, object]:
    import harmradius
    from tracer import SpanTable, Tracer

    imports = [import_times() for _ in range(IMPORT_REPEATS)]
    wl = workloads.build(args.workload, args.seed, ROOT, OUT)
    others = [workloads.build(name, args.seed, ROOT, OUT)
              for name in workloads.WORKLOADS if name != args.workload]

    # The first untraced pass also grows the allocator's heap; the overhead
    # compares the traced pass with the second, equally warm, one.
    first, _, cycles = run_cycles(wl, args.seconds / 6)
    tracer = Tracer()
    tracer.install(harmradius)
    try:
        spanned, wall_traced, _ = run_cycles(wl, 0, tracer, cycles=cycles)
        cross = [execute(op, tracer) for other in others for op in other.head()]
    finally:
        tracer.uninstall()
    plain, wall_plain, _ = run_cycles(wl, 0, cycles=cycles)
    samples = first + spanned + cross + plain
    validate(samples)

    table = SpanTable(tracer)
    metrics = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
    metrics.update(layer_metrics(table, spanned + cross, report))
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    report.append(f"{cycles} cycles untraced in {wall_plain:.3f} s, traced in {wall_traced:.3f} s; "
                  f"{len(cross)} operations of the other workloads traced; "
                  f"{len(table.nid)} spans")
    overhang, least_self = table.nesting()
    report.append(f"span nesting: largest overhang {overhang:.3g} s, "
                  f"smallest self time {least_self:.3g} s")
    report.append(f"self times vs operation spans: largest gap {table.selftime_gap():.3g} s")
    return metrics, samples, table


def layer_metrics(t, samples, report) -> dict:
    np = t.np
    ms = 1e3

    def total(mask, of=None):
        return float(np.sum((t.dur if of is None else of)[mask]))

    m = {}
    cli_samples = [s for s in samples if s.op.kind.startswith("cli.") and s.output is not None]
    main = t.dur[t.mask("cli.main")]
    parse = t.dur[t.mask("cli.parse_args")]
    m["cli.main_ms"] = float(np.median(main)) * ms if main.size else 0.0
    m["cli.parse_ms"] = float(np.median(parse)) * ms if parse.size else 0.0
    m["cli.child_cpu_s"] = statistics.median(s.output.cpu_s for s in cli_samples)
    m["cli.wait_s"] = statistics.median(s.seconds - s.output.cpu_s for s in cli_samples)

    ws = t.mask("coefficients.weighted_sum")
    m["coefficients.weighted_sum_calls"] = int(ws.sum())
    m["coefficients.weighted_sum_self_ms"] = total(ws, t.self_time) * ms
    for variant in ("tailed", "family"):
        v = t.mask(f"coefficients.weighted_sum[{variant}]")
        m[f"coefficients.weighted_sum_{variant}_us"] = (
            total(v, t.self_time) / max(int(v.sum()), 1) * 1e6)

    roots = t.mask("radii.jacobian_roots")
    profile = t.mask("extremals.JacobianProfile.__call__")
    in_roots = profile & (t.owner(roots) >= 0)
    m["radii.radius_by_bisection_self_ms"] = total(t.mask("radii.radius_by_bisection"),
                                                   t.self_time) * ms
    m["radii.jacobian_roots_self_ms"] = total(roots, t.self_time) * ms
    m["radii.profile_calls_per_roots"] = int(in_roots.sum()) / max(int(roots.sum()), 1)
    m["radii.verify_sharpness_ms"] = total(t.mask("radii.verify_sharpness")) * ms
    m["extremals.profile_self_ms"] = total(profile, t.self_time) * ms
    m["extremals.get_extremal_ms"] = total(t.mask("extremals.get_extremal")) * ms

    methods = tuple(f"maps.HarmonicMap.{m_}" for m_ in ("__call__", "wirtinger", "jacobian"))
    maps = t.mask(*methods)
    array = maps & t.mask(*(f"{x}[series,array]" for x in methods),
                          *(f"{x}[closed,array]" for x in methods))
    series = maps & t.mask(*(f"{x}[series" for x in methods))
    m["maps.array_calls"] = int(array.sum())
    m["maps.array_points"] = int(total(array, t.qty))
    m["maps.scalar_calls"] = int((maps & ~array).sum())
    m["maps.series_eval_self_ms"] = total(series, t.self_time) * ms
    m["maps.closed_eval_self_ms"] = total(maps & ~series, t.self_time) * ms
    m["maps.from_series_ms"] = total(t.mask("maps.HarmonicMap.from_series")) * ms

    inj = t.mask("membership.injectivity_oracle")
    inj_owner = t.owner(inj)
    pair = t.mask("membership.pair_search")
    sort = t.mask("membership.sort")
    m["membership.injectivity_self_ms"] = total(inj, t.self_time) * ms
    m["membership.pair_search_ms"] = total(pair) * ms
    m["membership.sort_ms"] = total(sort) * ms
    m["membership.candidate_pairs"] = int(total(t.mask("membership.pair_search[query]"), t.qty))
    m["membership.refine_evals"] = int((maps & ~array & (inj_owner >= 0)).sum())
    verdicts = [s.output.verdict for s in samples
                if s.op.kind.startswith("injectivity.") and s.output is not None]
    m["membership.decisive_frac"] = (sum(v != "inconclusive" for v in verdicts)
                                     / max(len(verdicts), 1))
    checks = t.mask("membership.c_h2_numeric", "membership.starlike_scan",
                    "membership.coeff_condition", "membership.coefficient_growth_check")
    m["membership.gridcheck_self_ms"] = total(checks, t.self_time) * ms
    m["membership.grid_points"] = int(total(array & (t.owner(checks) >= 0), t.qty))
    m["bloch.table_ms"] = total(t.mask("bloch.bloch_table")) * ms

    for layer in ("op", "import", "cli", "coefficients", "maps", "extremals", "membership",
                  "radii", "bloch"):
        m[f"{layer}.self_ms"] = total(t.layer_mask(layer), t.self_time) * ms

    cli_ops = t.mask("op.cli.")
    m["shape.cli_import_share"] = total(t.mask("import.")) / max(total(cli_ops), 1e-12)
    m["shape.injectivity_pair_sort_share"] = (total(pair | sort) / max(total(inj), 1e-12))
    m["shape.roots_profile_share"] = total(in_roots) / max(total(roots), 1e-12)
    report.extend(_shape_lines(t, inj, inj_owner, pair, sort, maps, array, roots, in_roots,
                               cli_ops))
    return m


def _shape_lines(t, inj, inj_owner, pair, sort, maps, array, roots, in_roots, cli_ops):
    """Where the time of the three headline operations goes."""
    np = t.np
    lines = []
    if cli_ops.any():
        op_time = float(np.sum(t.dur[cli_ops]))
        parts = {"import": t.mask("import."), "cli.main": t.mask("cli.main"),
                 "process start/exit": cli_ops}
        shares = {}
        for name, mask in parts.items():
            value = t.self_time if name == "process start/exit" else t.dur
            shares[name] = float(np.sum(value[mask])) / op_time
        lines.append("cli op time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
                     + f" -> largest: {max(shares, key=shares.get)}")
    for name in sorted({t.names[i] for i in t.nid[inj]}):
        calls = t.nid == t.names.index(name)
        owned = np.isin(inj_owner, np.flatnonzero(calls))
        span = float(np.sum(t.dur[calls]))
        parts = {
            "pair search + sort": float(np.sum(t.dur[(pair | sort) & owned])),
            "grid images": float(np.sum(t.dur[maps & array & owned])),
            "Newton refine (scalar map calls)": float(np.sum(t.dur[maps & ~array & owned])),
        }
        parts["injectivity self (rest)"] = span - sum(parts.values())
        lines.append(f"{name}: {int(calls.sum())} calls, "
                     + ", ".join(f"{k} {v / span:.1%}" for k, v in parts.items())
                     + f" -> largest: {max(parts, key=parts.get)}")
    if roots.any():
        span = float(np.sum(t.dur[roots]))
        lines.append(f"jacobian_roots: profile calls {float(np.sum(t.dur[in_roots])) / span:.1%} "
                     f"of {int(roots.sum())} scans")
    return lines


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (timed by the parent run)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "harmradius" / "__init__.py").is_file():
        print(f"perfbench: no harmradius sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workloads.build(args.workload, args.seed, ROOT, OUT)
        return 0

    pin_to_one_cpu()
    report = [f"harmradius benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    env = environment()
    report.append("environment: " + json.dumps(env, sort_keys=True))
    table = None
    if args.trace:
        metrics, samples, table = traced(args, report)
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(args, report)
        units = END_TO_END
    failures = [f"{s.op.kind}: {s.error}" for s in samples if s.error is not None]
    report.append(f"operations: {len(samples)} attempted, {len(failures)} failed")
    report.extend(f"  FAILED {f}" for f in failures[:20])
    report.extend(f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items())

    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, "args": vars(args), "report": report, **result,
                    "samples": [[s.op.kind, s.op.cls, s.seconds, s.scaled, s.error is None]
                                for s in samples]}))
    if table is not None:
        table.np.savez(OUT / f"spans-{args.workload}.npz", names=table.names, nid=table.nid,
                       parent=table.parent, start=table.start, dur=table.dur,
                       self_time=table.self_time, qty=table.qty)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
