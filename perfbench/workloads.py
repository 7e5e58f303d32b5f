"""The three benchmark workloads: seeded inputs, operations and their checks.

Each workload is a closed loop with one caller: ``Workload.cycle(k)``
returns the k-th fixed-proportion batch of operations, drawn from the
workload seed and k alone, so a run that executes cycles 0..K-1 is
reproducible.  Every operation has a class, ``primary`` or ``secondary``,
whose latencies are reported separately, and a check that compares its
output with a benchmark-side reference after the timed loop.  Nothing
generated is filtered out; an operation that raises counts as failed.

- ``cli-cold``: fresh ``python -m harmradius.cli`` processes.  primary =
  subcommands that need only scalar arithmetic (radius, bloch-table,
  identities, list-extremals); secondary = subcommands that evaluate
  numpy grids or profiles (sharpness, jacobian-scan, membership).
- ``radius-solve``: warm library calls.  primary = radius solves
  (tailed and family bisection, closed forms, bloch_table); secondary =
  Jacobian root scans and verify_sharpness.
- ``oracle-grid``: warm library calls.  primary = injectivity_oracle;
  secondary = coefficient and grid membership checks.
"""

import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import references as ref

WORKLOADS = ("cli-cold", "radius-solve", "oracle-grid")
EXTREMAL_LABELS = ["F0", "L0", "convex_L", "f0", "koebe"]
CHILD_TIMEOUT_S = 120
# The bound lists bloch_table is called with: the CLI's default --M and
# the bounded-maps demo.
BLOCH_MS = ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 5.0, 10.0])
# jacobian-scan's default range and step count.
SCAN_LO, SCAN_HI, SCAN_STEPS = 0.001, 0.25, 1000


def child_env(root: Path) -> dict:
    """The environment for child interpreters: the package from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CheckFailed(Exception):
    pass


def need(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(x: float, y: float, rel: float = 1e-10, abs_: float = 0.0) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + abs_


@dataclass
class Op:
    kind: str                       # e.g. "radius.tailed", "cli.sharpness"
    cls: str                        # "primary" | "secondary"
    run: Callable[[object], object]  # run(tracer or None) -> output
    check: Callable[[object], None]  # raises on a wrong output


# -- generated coefficient sequences -------------------------------------------

def _coefficients(rng: Random, n_max: int, weight_total: float, r: float):
    """Sparse complex (a_n, b_n), 2 <= n <= n_max, scaled so that
    sum n (|a_n| + |b_n|) r^(n-1) equals weight_total."""
    idx = sorted(rng.sample(range(2, n_max + 1), rng.randint(1, n_max - 1)))
    raw = {}
    for n in idx:
        raw[n] = [rng.random() * complex(math.cos(t), math.sin(t))
                  for t in (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))]
        if rng.random() < 0.3:
            raw[n][rng.randrange(2)] = 0j
    total = math.fsum(n * (abs(a) + abs(b)) * r ** (n - 1) for n, (a, b) in raw.items())
    s = weight_total / total
    a = [[n, v[0].real * s, v[0].imag * s] for n, v in raw.items() if v[0]]
    b = [[n, v[1].real * s, v[1].imag * s] for n, v in raw.items() if v[1]]
    return a, b


def _b1_entry(rng: Random, modulus: float):
    t = rng.uniform(0, 2 * math.pi)
    return [1, modulus * math.cos(t), modulus * math.sin(t)]


def _stratum(rng: Random, i: int, n: int) -> float:
    """A point of [0, 1) drawn inside the i-th of n equal strata, so a pool
    of n cases spreads evenly whatever the seed."""
    return (i + rng.random()) / n


def tailed_case(rng: Random, u: float, degree: int) -> dict:
    """A sequence with tail degree `degree` whose S(r) crosses 1 - beta
    at r* = 0.2 + 0.65 u.

    The tail constant is the one that puts the crossing at r*, so the
    crossing point (and with it the length of the package's tail-sum
    loop) varies from case to case."""
    n_max = rng.randint(2, 10)
    beta = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
    target = 1.0 - beta
    r_star = 0.2 + 0.65 * u
    b1 = rng.uniform(0.0, 0.3) * target
    stored = rng.uniform(0.4, 0.8) * target
    a, b = _coefficients(rng, n_max, stored - b1, r_star)
    doc = {"a": a, "b": [_b1_entry(rng, b1)] + b, "truncation": n_max}
    tail_sum = ref.series_sum(lambda n: n ** degree, r_star, start=n_max + 1)
    doc["tail"] = {"degree": float(degree),
                   "constant": (target - ref.seq_s(doc, r_star)) / tail_sum}
    return {"doc": doc, "beta": beta}


def accepted_case(rng: Random, u: float) -> dict:
    """A finite sequence of degree 3 + 37 u with S(1) < 1 - beta, so it
    passes all four membership checks (coefficient, growth, c-h2, starlike)."""
    n_max = 3 + int(37 * u)
    beta = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.3)
    budget = rng.uniform(0.5, 0.95) * (1.0 - beta)
    b1 = rng.uniform(0.0, 0.3) * budget
    a, b = _coefficients(rng, n_max, budget - b1, 1.0)
    return {"doc": {"a": a, "b": [_b1_entry(rng, b1)] + b, "truncation": n_max},
            "beta": beta}


def _family(rng: Random) -> tuple[str, float, float]:
    kind = rng.choice(["koebe", "convex", "uniform"])
    if kind == "uniform":
        return kind, rng.uniform(0.2, 5.0), rng.uniform(0.0, 0.5)
    return kind, 0.0, 0.0


def _beta_below(rng: Random, b1: float) -> float:
    """beta with S(0) = b1 < 1 - beta, so a radius exists."""
    return rng.uniform(0.0, 0.8 * (1.0 - b1))


WITNESSES = ("F0", "L0", "f0")


def _witness(rng: Random, label: str) -> tuple[str, float, float]:
    if label == "f0":
        return label, rng.uniform(0.2, 5.0), rng.uniform(0.0, 0.5)
    return label, 0.0, 0.0


def _check_bracket(fn, target):
    def check(report):
        need(not report.saturated, "unexpected saturated radius")
        need(ref.brackets_root(fn, target, report.radius),
             f"radius {report.radius!r} is not within 1e-10 of the S(r) crossing")
    return check


def _check_bloch(Ms):
    def check(rows):
        need(len(rows) == len(Ms), "row count")
        for row, M in zip(rows, Ms):
            want = ref.bloch_row(M)
            got = row if isinstance(row, dict) else row.to_dict()
            for key, value in want.items():
                need(close(got[key], value, 1e-10), f"bloch {key} at M={M}")
    return check


def _check_roots(label, c, b1):
    want = ref.witness_roots(label, c, b1)

    def check(roots):
        need(len(roots) == len(want), f"{label}: roots {roots} != {want}")
        need(all(abs(x - y) <= 1e-9 for x, y in zip(roots, want)), f"{label}: roots {roots}")
    return check


def _check_verdict(verdict):
    """Check a MembershipReport, or its JSON form from the CLI."""
    def check(report):
        got = report["verdict"] if isinstance(report, dict) else report.verdict
        need(got == verdict, f"verdict {got} != {verdict}")
    return check


def _check_collision(r):
    def check(report):
        need(report.verdict == "violated", f"F0 at r={r}: verdict {report.verdict}")
        z1, z2 = report.witness
        need(max(abs(z1), abs(z2)) <= r * (1 + 1e-12), "witness outside the disk")
        need(abs(z1 - z2) > 1e-6, "witness points coincide")
        need(abs(ref.f0_map(z1) - ref.f0_map(z2)) <= 1e-8, "witness images differ")
    return check


def _not_violated(report):
    need(report.verdict != "violated", f"verdict {report.verdict} for an injective map")


# -- cli-cold ------------------------------------------------------------------

@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    cpu_s: float
    rss_kb: int


class CliRunner:
    """Starts one harmradius CLI process at a time and waits for it."""

    def __init__(self, root: Path, out: Path):
        self.root, self.out = root, out
        self.env = child_env(root)
        self.child = str(Path(__file__).resolve().parent / "cli_child.py")
        self.span_file = out / "cli-spans.json"

    def __call__(self, argv, tracer=None) -> CliResult:
        if tracer is None:
            cmd = [sys.executable, "-m", "harmradius.cli", *argv]
        else:
            cmd = [sys.executable, self.child, str(self.span_file), *argv]
            self.span_file.unlink(missing_ok=True)
        with open(self.out / "cli.stdout", "w+b") as fo, open(self.out / "cli.stderr", "w+b") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.root, env=self.env)
            status, usage = _wait(proc)
            fo.seek(0)
            fe.seek(0)
            out, err = fo.read().decode(), fe.read().decode()
        if tracer is not None and status == 0:
            tracer.merge(json.loads(self.span_file.read_text()), tracer.current)
        return CliResult(status, out, err, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _wait(proc):
    """wait4 for proc (for its rusage), killing it after CHILD_TIMEOUT_S."""
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class _Schemas:
    def __init__(self, root: Path):
        self.dir = root / "docs" / "schemas"
        self._validators = {}

    def check(self, name: str, doc) -> None:
        if name not in self._validators:
            import jsonschema

            schema = json.loads((self.dir / f"{name}.schema.json").read_text())
            self._validators[name] = jsonschema.Draft202012Validator(schema)
        errors = [e.message for e in self._validators[name].iter_errors(doc)]
        need(not errors, f"{name} schema: {errors[:2]}")


def _witness_arg(label, c, b1) -> str:
    return f"f0:{c!r},{b1!r}" if label == "f0" else label


def _family_arg(kind, c, b1) -> str:
    return f"uniform:{c!r},{b1!r}" if kind == "uniform" else kind


class CliCold:
    name = "cli-cold"

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.runner = CliRunner(root, out)
        self.schemas = _Schemas(root)
        rng = Random(f"{self.name}/{seed}")
        inputs = out / "cli-inputs"
        inputs.mkdir(exist_ok=True)
        self.tailed, self.accepted = [], []
        for i in range(4):
            tailed = tailed_case(rng, _stratum(rng, i, 4), rng.randint(0, 10))
            accepted = accepted_case(rng, _stratum(rng, i, 4))
            for pool, case, tag in ((self.tailed, tailed, "tailed"),
                                    (self.accepted, accepted, "accepted")):
                path = inputs / f"{tag}-{i}.json"
                path.write_text(json.dumps(case["doc"]))
                pool.append((str(path.relative_to(root)), case))
        self.runner(["list-extremals"])  # warm-up: bytecode and page cache

    def _op(self, kind, cls, argv, check_stdout):
        def check(res: CliResult):
            need(res.rc == 0, f"exit code {res.rc}: {res.stderr[-300:]}")
            check_stdout(res.stdout)
        return Op(f"cli.{kind}", cls, lambda tracer: self.runner(argv, tracer), check)

    def _json(self, schema, then):
        def check(stdout):
            doc = json.loads(stdout)
            self.schemas.check(schema, doc)
            then(doc)
        return check

    def _radius(self, method, fn, target):
        def then(doc):
            need(doc["method"] == method, f"method {doc['method']}")
            need(abs(doc["radius"] - ref.root_of_increasing(fn, target)) <= 1e-10,
                 f"radius {doc['radius']}")
        return self._json("radius_report", then)

    def cycle(self, k: int) -> list[Op]:
        """Half of the k // 2-th round of twelve subcommands: three scalar
        and three numeric ones, so a run stops within a few seconds of
        its target."""
        return self._round(k // 2)[6 * (k % 2):6 * (k % 2) + 6]

    def _round(self, k: int) -> list[Op]:
        rng = Random(f"{self.name}/{self.seed}/{k}")
        ops = []
        # primary: scalar subcommands
        kind, c, b1 = _family(rng)
        ops.append(self._op("radius", "primary", ["radius", "--family", _family_arg(kind, c, b1)],
                            self._radius("closed_form",
                                         lambda r, a=(kind, c, b1): ref.family_s(*a, r), 1.0)))
        kind, c, b1 = _family(rng)
        beta = _beta_below(rng, b1)
        ops.append(self._op("radius-bisect", "primary",
                            ["radius", "--family", _family_arg(kind, c, b1),
                             "--method", "bisect", "--beta", repr(beta)],
                            self._radius("bisection",
                                         lambda r, a=(kind, c, b1): ref.family_s(*a, r),
                                         1.0 - beta)))
        path, case = self.tailed[k % len(self.tailed)]
        ops.append(self._op("radius-seq", "primary",
                            ["radius", "--seq", path, "--beta", repr(case["beta"])],
                            self._radius("bisection", lambda r, d=case["doc"]: ref.seq_s(d, r),
                                         1.0 - case["beta"])))
        Ms = rng.choice(BLOCH_MS)
        argv = ["bloch-table", "--M", ",".join(repr(m) for m in Ms)]
        if rng.random() < 0.5:
            ops.append(self._op("bloch-table", "primary", argv + ["--csv"], self._bloch_csv(Ms)))
        else:
            ops.append(self._op("bloch-table", "primary", argv,
                                self._json("bloch_table", _check_bloch(Ms))))
        r = rng.uniform(0.05, 0.95)
        ops.append(self._op("identities", "primary", ["identities", "--r", repr(r)],
                            self._json("identities", self._identities(r))))
        ops.append(self._op("list-extremals", "primary", ["list-extremals"],
                            self._json("extremals_list", _labels)))
        # secondary: subcommands that evaluate profiles or grids; witnesses,
        # checks and maps rotate, so each seed runs them equally often
        secondary = [self._sharpness(rng, WITNESSES[2 * k % 3]),
                     self._scan(rng, WITNESSES[(2 * k + 1) % 3]),
                     self._membership_seq(k),
                     self._membership_map(rng, k),
                     self._sharpness(rng, WITNESSES[(2 * k + 1) % 3]),
                     self._scan(rng, WITNESSES[2 * k % 3])]
        return [op for pair in zip(ops, secondary) for op in pair]

    def head(self) -> list[Op]:
        """One scalar and one numeric subcommand."""
        ops = self._round(0)
        return [ops[0], ops[7]]

    def _bloch_csv(self, Ms):
        def check(stdout):
            lines = stdout.splitlines()
            need(lines[0] == "M,phi,psi,r_S,R_S", "csv header")
            need(len(lines) == len(Ms) + 1, "csv rows")
            rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
            for row, M in zip(rows, Ms):
                want = ref.bloch_row(M)
                for key in ("M", "phi", "psi", "r_S", "R_S"):
                    need(close(row[key], want[key], 1e-10), f"csv {key} at M={M}")
        return check

    @staticmethod
    def _identities(r):
        def then(doc):
            want = ref.power_sums(r)
            got = (doc["sum_n_rn"], doc["sum_n2_rn"], doc["sum_n3_rn_minus1"])
            need(all(close(x, y, 1e-9) for x, y in zip(got, want)), f"identities at r={r}")
        return then

    def _sharpness(self, rng, label):
        label, c, b1 = _witness(rng, label)
        radius = ref.witness_radius(label, c, b1)

        def then(doc):
            need(doc["passed"] is True, f"sharpness of {label} not passed")
            need(abs(doc["r_claimed"] - radius) <= 1e-10, "claimed radius")
        return self._op("sharpness", "secondary",
                        ["sharpness", "--witness", _witness_arg(label, c, b1)],
                        self._json("sharpness_report", then))

    def _scan(self, rng, label):
        label, c, b1 = _witness(rng, label)
        lo, hi, steps = SCAN_LO, SCAN_HI, SCAN_STEPS

        def check(stdout):
            lines = stdout.splitlines()
            need(lines[0] == "r,J" and len(lines) == steps + 1, "scan shape")
            for i, line in enumerate(lines[1:]):
                got_r, jac = map(float, line.split(","))
                r = lo + (hi - lo) * i / (steps - 1)  # the CLI's own abscissa
                need(abs(got_r - r) <= 1e-11, "scan abscissa")
                need(close(jac, ref.witness_jacobian(label, r, c, b1), 1e-9, 1e-12),
                     f"J({r}) of {label}")
        argv = ["jacobian-scan", "--witness", _witness_arg(label, c, b1),
                "--lo", repr(lo), "--hi", repr(hi), "--steps", str(steps)]
        return self._op("jacobian-scan", "secondary", argv, check)

    def _membership_seq(self, k):
        path, case = self.accepted[k % len(self.accepted)]
        which = ("coeff", "growth", "c-h2")[k % 3]
        argv = ["membership", "--check", which, "--seq", path, "--beta", repr(case["beta"])]
        return self._op("membership-seq", "secondary", argv,
                        self._json("membership_report", _check_verdict("satisfied")))

    def _membership_map(self, rng, k):
        label = ("koebe", "convex_L")[k % 2]
        radius = ref.witness_radius("F0" if label == "koebe" else "L0")
        inside = k // 2 % 2 == 0
        # the default c-h2 grid reaches 0.999, so S(0.999 rho) > 1 shows beyond the radius
        rho = radius * (rng.uniform(0.3, 0.97) if inside else rng.uniform(1.1, 2.0) / 0.999)
        argv = ["membership", "--check", "c-h2", "--map", label, "--dilate", repr(rho)]
        return self._op("membership-map", "secondary", argv,
                        self._json("membership_report",
                                   _check_verdict("satisfied" if inside else "violated")))


def _labels(doc):
    need(sorted(e["label"] for e in doc["extremals"]) == sorted(EXTREMAL_LABELS),
         "extremal labels")


# -- radius-solve --------------------------------------------------------------

class RadiusSolve:
    name = "radius-solve"
    POOL = 128
    # The pool is stratified by crossing point, so cost grows with the
    # index; it is visited with this stride (coprime to POOL, near
    # POOL / golden ratio) so any stretch of a run sees every stratum.
    STRIDE = 79

    def __init__(self, seed: int, root: Path, out: Path):
        import harmradius as hr

        self.hr, self.seed = hr, seed
        rng = Random(f"{self.name}/{seed}")
        self.tailed = []
        for i in range(self.POOL):
            case = tailed_case(rng, _stratum(rng, i, self.POOL), i % 11)
            self.tailed.append((hr.sequence_from_dict(case["doc"]), case))
        for op in self.head():  # warm-up
            op.run(None)

    def cycle(self, k: int) -> list[Op]:
        """Six tailed solves and one untailed one (a family bisection twice
        in four cycles, else a closed form or bloch_table), two profile
        root scans, one map root scan and one sharpness check.  Each class
        median thus falls inside the spread of one kind of operation
        (tailed solves, profile scans), not between two kinds, where noise
        would move it from one to the other."""
        hr = self.hr
        rng = Random(f"{self.name}/{self.seed}/{k}")
        primary = [self._tailed(6 * k + j) for j in range(6)]
        kind, c, b1 = _family(rng)
        if k % 4 < 2:
            beta = _beta_below(rng, b1)
            fam = {"koebe": hr.BoundFamily.koebe, "convex": hr.BoundFamily.convex}.get(
                kind, lambda: hr.BoundFamily.uniform(c, b1))()
            primary.append(Op("radius.family", "primary",
                              lambda t: hr.radius_by_bisection(fam, beta),
                              _check_bracket(lambda r: ref.family_s(kind, c, b1, r), 1.0 - beta)))
        elif k % 4 == 2:
            closed = {"koebe": hr.koebe_family_radius, "convex": hr.convex_family_radius}.get(
                kind, lambda: hr.uniform_family_radius(c, b1))
            primary.append(Op("radius.closed", "primary", lambda t: closed(),
                              _check_bracket(lambda r: ref.family_s(kind, c, b1, r), 1.0)))
        else:
            Ms = rng.choice(BLOCH_MS)
            primary.append(Op("bloch.table", "primary", lambda t: hr.bloch_table(Ms),
                              _check_bloch(Ms)))

        # witnesses in rotation, so every seed scans each of them equally often
        label = WITNESSES[k % 3]
        secondary = [self._roots(rng, label, as_map=False),
                     self._sharpness(rng, WITNESSES[(k + 1) % 3], k),
                     self._roots(rng, WITNESSES[(k + 2) % 3], as_map=True),
                     self._roots(rng, label, as_map=False)]
        ops = []
        for i, op in enumerate(primary):
            ops.append(op)
            if i % 2 == 1:
                ops.append(secondary[i // 2])
        return ops + secondary[3:]

    def head(self) -> list[Op]:
        """One cycle, with the closed form and bloch_table of cycles 2 and 3."""
        return self.cycle(0) + [op for k in (2, 3) for op in self.cycle(k)
                                if op.kind in ("radius.closed", "bloch.table")]

    def _tailed(self, i):
        seq, case = self.tailed[i * self.STRIDE % self.POOL]
        beta = case["beta"]
        return Op("radius.tailed", "primary",
                  lambda t: self.hr.radius_by_bisection(seq, beta),
                  _check_bracket(lambda r: ref.seq_s(case["doc"], r), 1.0 - beta))

    def _profile(self, label, c, b1):
        hr = self.hr
        if label == "F0":
            return hr.koebe_witness_profile()
        if label == "L0":
            return hr.convex_witness_profile()
        return hr.uniform_witness_profile(c, b1)

    def _subject(self, label, c, b1, as_map):
        if not as_map:
            return self._profile(label, c, b1)
        if label == "f0":
            return self.hr.get_extremal(label, c, b1)
        return self.hr.get_extremal(label)

    def _roots(self, rng, label, as_map):
        label, c, b1 = _witness(rng, label)
        return Op("roots.map" if as_map else "roots.profile", "secondary",
                  lambda t: self.hr.jacobian_roots(self._subject(label, c, b1, as_map)),
                  _check_roots(label, c, b1))

    def _sharpness(self, rng, label, m):
        """The m-th sharpness check: on the witness map 3 times in 10 (on
        its profile otherwise), at the witness radius 3 times in 4."""
        label, c, b1 = _witness(rng, label)
        as_map = m % 10 in (1, 4, 7)
        holds = m % 4 != 3
        claimed = ref.witness_radius(label, c, b1) * (1.0 if holds else rng.uniform(1.02, 1.1))

        def check(report):
            need(report.passed is holds, f"sharpness of {label} at {claimed}: {report.passed}")
        return Op("roots.sharpness", "secondary",
                  lambda t: self.hr.verify_sharpness(self._subject(label, c, b1, as_map), claimed),
                  check)


# -- oracle-grid -------------------------------------------------------------

class OracleGrid:
    name = "oracle-grid"
    POOL = 16
    # The pool is stratified by degree, so cost grows with the index; it
    # is visited with this stride (coprime to POOL) so a run's few cycles
    # see every stratum.
    STRIDE = 7
    # harmonic Koebe dilated just inside its radius, checked on the whole disk
    KOEBE_DILATION = 0.112903

    def __init__(self, seed: int, root: Path, out: Path):
        import harmradius as hr

        self.hr, self.seed = hr, seed
        rng = Random(f"{self.name}/{seed}")
        self.accepted = []
        for i in range(self.POOL):
            case = accepted_case(rng, _stratum(rng, i, self.POOL))
            self.accepted.append((hr.sequence_from_dict(case["doc"]), case["beta"]))
        # warm-up at small size: scipy's tree, numpy grids, Newton refinement
        hr.injectivity_oracle(hr.get_extremal("F0"), 0.2, 64)
        hr.c_h2_numeric(hr.HarmonicMap.from_series(self.accepted[0][0]), 0.0)

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for j in range(4):
            ops.extend(self._block(k, j))
        return ops

    def head(self) -> list[Op]:
        return self._block(0, 0)

    def _block(self, k: int, j: int) -> list[Op]:
        hr = self.hr
        rng = Random(f"{self.name}/{self.seed}/{k}/{j}")
        if j in (0, 3):
            # beyond the radius 0.1129; the oracle's work is flat in r on this range
            r, res = rng.uniform(0.15, 0.21), (256, 512)[j == 3]
            inj = Op(f"injectivity.F0-{res}", "primary",
                     lambda t: hr.injectivity_oracle(hr.get_extremal("F0"), r, res),
                     _check_collision(r))
        elif j == 1:
            inj = Op("injectivity.identity", "primary",
                     lambda t: hr.injectivity_oracle(hr.identity_map(), 0.9, 256), _not_violated)
        else:
            inj = Op("injectivity.koebe", "primary",
                     lambda t: hr.injectivity_oracle(
                         hr.get_extremal("koebe").dilate(self.KOEBE_DILATION), 0.999, 256),
                     _not_violated)

        r_max = hr.GridSpec().r_max  # the checks run on their default grid
        seq, beta = self.accepted[(4 * k + j) * self.STRIDE % self.POOL]
        series = hr.HarmonicMap.from_series
        label = ("koebe", "convex_L")[(k + j) % 2]
        radius = ref.witness_radius("F0" if label == "koebe" else "L0")
        rho_in = radius * rng.uniform(0.3, 0.97)
        # S(r_max rho_out) > 1, so the sampled inequality fails on the grid
        rho_out = radius * rng.uniform(1.1, 2.0) / r_max

        def dilated(rho):
            return hr.get_extremal(label).dilate(rho)

        sat, viol = _check_verdict("satisfied"), _check_verdict("violated")
        return [
            inj,
            Op("check.coeff", "secondary", lambda t: hr.coeff_condition(seq, beta), sat),
            Op("check.growth", "secondary", lambda t: hr.coefficient_growth_check(seq, beta), sat),
            Op("check.c-h2-series", "secondary",
               lambda t: hr.c_h2_numeric(series(seq), beta), sat),
            Op("check.starlike-series", "secondary",
               lambda t: hr.starlike_scan(series(seq), r_max), sat),
            Op("check.c-h2-closed", "secondary",
               lambda t: hr.c_h2_numeric(dilated(rho_in), 0.0), sat),
            Op("check.starlike-closed", "secondary",
               lambda t: hr.starlike_scan(dilated(rho_in), r_max), sat),
            Op("check.c-h2-beyond", "secondary",
               lambda t: hr.c_h2_numeric(dilated(rho_out), 0.0), viol),
        ]


CLASSES = {"cli-cold": CliCold, "radius-solve": RadiusSolve, "oracle-grid": OracleGrid}


def build(name: str, seed: int, root: Path, out: Path):
    """Set a workload up: import, input generation and warm-up."""
    return CLASSES[name](seed, root, out)
