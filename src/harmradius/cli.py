"""Command-line interface.

Subcommands expose every computation as a reproducible report: radius,
membership, jacobian-scan, bloch-table, sharpness, identities,
list-extremals.  Output is JSON on stdout by default; tabular outputs
switch to CSV with --csv (bloch-table) or are CSV-only (jacobian-scan).
All floats are printed with 12 significant digits and identical
invocations produce identical bytes.

Exit codes: 0 success, 1 usage, 2 no-radius or domain failure, 3 I/O.
"""

import argparse
import json
import sys

from ._util import round12, fmt12
from .coefficients import BoundFamily, load_sequence, power_sums
from .maps import HarmonicMap, UnsupportedOperation
from .extremals import (
    EXTREMALS,
    get_extremal,
    koebe_witness_profile,
    convex_witness_profile,
    uniform_witness_profile,
)
from .membership import (
    GridSpec,
    coeff_condition,
    coefficient_growth_check,
    c_h2_numeric,
    starlike_scan,
    injectivity_oracle,
)
from .radii import (
    NoRadiusError,
    closed_form_radius,
    radius_by_bisection,
    verify_sharpness,
)
from .bloch import bloch_table, bloch_table_csv

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool
    reserves 2 for domain failures, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _round_tree(x):
    if isinstance(x, bool) or x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, float):
        return round12(x)
    if isinstance(x, dict):
        return {k: _round_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_tree(v) for v in x]
    return x


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(_round_tree(obj), sort_keys=True, indent=2))
    sys.stdout.write("\n")


# -- option value parsers ------------------------------------------------

def _split_params(text: str, what: str):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"{what} takes c or c,b1")
    c = float(parts[0])
    b1 = float(parts[1]) if len(parts) == 2 else 0.0
    return c, b1


def _parse_family(text: str) -> BoundFamily:
    if text == "koebe":
        return BoundFamily.koebe()
    if text == "convex":
        return BoundFamily.convex()
    if text.startswith("uniform:"):
        c, b1 = _split_params(text[len("uniform:"):], "uniform family")
        return BoundFamily.uniform(c, b1)
    raise argparse.ArgumentTypeError(
        f"unknown family {text!r}; use koebe, convex, or uniform:c[,b1]"
    )


def _parse_witness(text: str):
    """-> (JacobianProfile, claimed radius from the matching closed form)."""
    if text == "F0":
        profile, family = koebe_witness_profile(), BoundFamily.koebe()
    elif text == "L0":
        profile, family = convex_witness_profile(), BoundFamily.convex()
    elif text.startswith("f0:"):
        c, b1 = _split_params(text[len("f0:"):], "witness f0")
        profile, family = uniform_witness_profile(c, b1), BoundFamily.uniform(c, b1)
    else:
        raise argparse.ArgumentTypeError(
            f"unknown witness {text!r}; use F0, L0, or f0:c[,b1]"
        )
    return profile, closed_form_radius(family).radius


def _parse_map(text: str) -> HarmonicMap:
    label, _, params = text.partition(":")
    if params:
        c, b1 = _split_params(params, f"extremal {label}")
        return get_extremal(label, c, b1)
    return get_extremal(label)


# -- subcommands -----------------------------------------------------------

def _cmd_radius(args) -> int:
    if (args.family is None) == (args.seq is None):
        raise UsageError("exactly one of --family/--seq is required")
    if args.seq is not None:
        subject = load_sequence(args.seq)
    else:
        subject = args.family
    method = args.method
    if method == "closed" and args.seq is not None:
        raise UsageError("--method closed needs a named family")
    if method == "closed" and args.beta != 0.0:
        raise UsageError("closed forms are derived for beta=0; use --method bisect")
    if method == "auto":
        named = args.family is not None
        method = "closed" if named and args.beta == 0.0 else "bisect"
    if method == "closed":
        report = closed_form_radius(args.family)
    else:
        report = radius_by_bisection(subject, args.beta)
    _emit(report.to_dict())
    return 0


def _cmd_membership(args) -> int:
    if (args.map is None) == (args.seq is None):
        raise UsageError("exactly one of --map/--seq is required")
    if args.seq is not None:
        seq = load_sequence(args.seq)
        subject = HarmonicMap.from_series(seq, label="seq-file")
    else:
        subject = args.map
    if args.dilate is not None:
        subject = subject.dilate(args.dilate)

    check = args.check
    if check == "coeff":
        report = coeff_condition(subject, args.beta)
    elif check == "growth":
        report = coefficient_growth_check(subject, args.beta)
    elif check == "c-h2":
        grid = GridSpec(args.grid_radial, args.grid_angular,
                        args.grid_rmax if args.grid_rmax is not None else 0.999)
        report = c_h2_numeric(subject, args.beta, grid)
    elif check == "starlike":
        grid = GridSpec(args.grid_radial, args.grid_angular,
                        args.grid_rmax if args.grid_rmax is not None else args.r)
        report = starlike_scan(subject, args.r, grid)
    else:
        report = injectivity_oracle(subject, args.r, args.resolution)
    out = {"check": check, "subject": subject.label}
    out.update(report.to_dict())
    _emit(out)
    return 0


def _cmd_jacobian_scan(args) -> int:
    if not 0.0 < args.lo < args.hi < 1.0:
        raise UsageError("need 0 < lo < hi < 1")
    if not 2 <= args.steps <= 10 ** 6:
        raise UsageError("steps must lie in [2, 1e6]")
    profile, _ = args.witness
    lines = ["r,J"]
    span = args.hi - args.lo
    for i in range(args.steps):
        r = args.lo + span * i / (args.steps - 1)
        lines.append(f"{fmt12(r)},{fmt12(profile(r))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bloch_table(args) -> int:
    rows = bloch_table(args.M)
    if args.csv:
        sys.stdout.write(bloch_table_csv(rows))
    else:
        _emit([row.to_dict() for row in rows])
    return 0


def _cmd_sharpness(args) -> int:
    profile, claimed = args.witness
    if args.radius is not None:
        claimed = args.radius
    report = verify_sharpness(profile, claimed)
    _emit(report.to_dict())
    return 0


def _cmd_identities(args) -> int:
    if not 0.0 < args.r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    s1, s2, s3 = power_sums(args.r)
    _emit({
        "r": args.r,
        "sum_n_rn": s1,
        "sum_n2_rn": s2,
        "sum_n3_rn_minus1": s3,
    })
    return 0


def _cmd_list_extremals(args) -> int:
    params = {"f0": ["c", "b1_abs"]}
    _emit({
        "extremals": [
            {"label": label, "parameters": params.get(label, [])}
            for label in sorted(EXTREMALS)
        ]
    })
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmradius",
                     description="Radii of close-to-convexity and starlikeness "
                                 "for coefficient-bounded harmonic mappings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("radius", parents=[], help="radius of a coefficient family")
    p.add_argument("--family", type=_parse_family,
                   help="koebe | convex | uniform:c[,b1]")
    p.add_argument("--seq", help="path to a coefficient sequence JSON file")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--method", choices=["auto", "bisect", "closed"], default="auto")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("membership", help="class membership checks")
    p.add_argument("--check", required=True,
                   choices=["coeff", "growth", "c-h2", "starlike", "injectivity"])
    p.add_argument("--map", type=_parse_map,
                   help="extremal label, e.g. koebe, convex_L, F0, L0, f0:c[,b1]")
    p.add_argument("--seq", help="path to a coefficient sequence JSON file")
    p.add_argument("--dilate", type=float,
                   help="replace f by f(rz)/r before checking")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--r", type=float, default=0.999,
                   help="outer radius for starlike/injectivity checks")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--grid-radial", type=int, default=200)
    p.add_argument("--grid-angular", type=int, default=64)
    p.add_argument("--grid-rmax", type=float, default=None)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("jacobian-scan", help="CSV of a witness Jacobian on [lo, hi]")
    p.add_argument("--witness", type=_parse_witness, required=True,
                   help="F0 | L0 | f0:c[,b1]")
    p.add_argument("--lo", type=float, default=0.001)
    p.add_argument("--hi", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_jacobian_scan)

    p = sub.add_parser("bloch-table", help="univalent-disk radii for bounded maps")
    p.add_argument("--M", type=lambda s: [float(x) for x in s.split(",") if x],
                   default=[1.0, 2.0, 3.0], help="comma-separated sup-norm bounds")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_bloch_table)

    p = sub.add_parser("sharpness", help="verify a witness Jacobian sign pattern")
    p.add_argument("--witness", type=_parse_witness, required=True,
                   help="F0 | L0 | f0:c[,b1]")
    p.add_argument("--radius", type=float,
                   help="claimed radius (default: the family closed form)")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("identities", help="closed power sums vs direct summation")
    p.add_argument("--r", type=float, default=0.5)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("list-extremals", help="labels usable with --map/--witness")
    p.set_defaults(func=_cmd_list_extremals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    except NoRadiusError as exc:
        _emit({"error": str(exc), "kind": "no-radius"})
        return 2
    except (ValueError, ArithmeticError, UnsupportedOperation) as exc:
        _emit({"error": str(exc), "kind": "domain"})
        return 2
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: i/o error: {exc}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
