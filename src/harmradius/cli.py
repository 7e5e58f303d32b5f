"""Command-line interface.

Subcommands expose every computation as a reproducible report: radius,
membership, jacobian-scan, bloch-table, sharpness, identities,
list-extremals.  Output is JSON on stdout by default; tabular outputs
switch to CSV with --csv (bloch-table) or are CSV-only (jacobian-scan).
All floats are printed with 12 significant digits and identical
invocations produce identical bytes.

Exit codes: 0 success, 1 usage, 2 no-radius, domain or out-of-memory
failure, 3 I/O.

Only membership's sampled checks (c-h2, starlike, injectivity) import
numpy, the one dependency; the other subcommands, and membership --check
coeff|growth on a --seq or a --map, run on the standard library alone,
radius on every input.
"""

import argparse
import json
import sys

from ._util import UnsupportedOperation, round12, fmt12
from .coefficients import SERIES_EVAL_MAX, BoundFamily, load_sequence, power_sums
from .extremals import EXTREMALS, WITNESSES, get_extremal
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
    """JSON-ready data: a report record becomes the dict of its fields,
    a complex number [re, im], another tuple a list, a float 12 digits."""
    if hasattr(x, "_asdict"):  # before the tuple branch: records are tuples
        return _round_tree(x._asdict())
    if isinstance(x, complex):
        return [round12(x.real), round12(x.imag)]
    if isinstance(x, float):
        return round12(x)
    if isinstance(x, dict):
        return {k: _round_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_tree(v) for v in x]
    return x


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(_round_tree(obj), sort_keys=True, indent=2,
                                allow_nan=False))
    sys.stdout.write("\n")


# -- option values ---------------------------------------------------------

def _label(build):
    """An argparse type for labels name[:c[,b1]]: build(name, *params), whose
    ValueError becomes a usage error with the library's message."""

    def convert(text: str):
        name, colon, params = text.partition(":")
        try:
            values = [float(p) for p in params.split(",")] if colon else []
            if len(values) > 2:
                raise ValueError(f"{text!r}: a label takes at most the parameters c,b1")
            return build(name, *values)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _witness(label: str, *params):
    """-> (JacobianProfile, claimed radius from the matching closed form)."""
    if label not in WITNESSES:
        raise ValueError(f"unknown witness {label!r}; known labels: {', '.join(WITNESSES)}")
    family = BoundFamily(EXTREMALS[label][0], *params)
    return WITNESSES[label](*params), closed_form_radius(family).radius


def _bounds(text: str) -> list[float]:
    bounds = [float(m) for m in text.split(",") if m]
    if not bounds:
        raise argparse.ArgumentTypeError(f"no bound in {text!r}")
    return bounds


# -- subcommands -----------------------------------------------------------

def _cmd_radius(args) -> int:
    if args.method == "auto" and args.family is not None and args.beta == 0.0:
        report = closed_form_radius(args.family)
    else:
        subject = args.family if args.seq is None else load_sequence(args.seq)
        report = radius_by_bisection(subject, args.beta)
    _emit(report)
    return 0


def _cmd_membership(args) -> int:
    from .maps import HarmonicMap
    from .membership import (GridSpec, c_h2_numeric, coeff_condition,
                             coefficient_growth_check, injectivity_oracle, starlike_scan)

    check = args.check
    subject = (args.map if args.seq is None
               else HarmonicMap.from_series(load_sequence(args.seq), label="seq-file"))
    if args.dilate is not None:
        subject = subject.dilate(args.dilate)

    if check == "coeff":
        report = coeff_condition(subject, args.beta)
    elif check == "growth":
        report = coefficient_growth_check(subject, args.beta)
    elif check == "c-h2":
        report = c_h2_numeric(subject, args.beta,
                              GridSpec(args.grid_radial, args.grid_angular, args.r))
    elif check == "starlike":
        report = starlike_scan(subject, args.r,
                               GridSpec(args.grid_radial, args.grid_angular, args.r))
    else:
        report = injectivity_oracle(subject, args.r, args.resolution)
    _emit({"check": check, "subject": subject.label} | report._asdict())
    return 0


def _cmd_jacobian_scan(args) -> int:
    if not 0.0 <= args.lo < args.hi < 1.0:
        raise argparse.ArgumentTypeError("need 0 <= lo < hi < 1")
    if not 2 <= args.steps <= 10 ** 6:
        raise argparse.ArgumentTypeError("steps must lie in [2, 1e6]")
    profile, _ = args.witness
    lines = ["r,J"]
    span = args.hi - args.lo
    for i in range(args.steps):
        r = min(args.lo + span * i / (args.steps - 1), args.hi)  # the last may round past hi
        lines.append(f"{fmt12(r)},{fmt12(profile(r))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_bloch_table(args) -> int:
    rows = bloch_table(args.M)
    if args.csv:
        sys.stdout.write(bloch_table_csv(rows))
    else:
        _emit(rows)
    return 0


def _cmd_sharpness(args) -> int:
    profile, claimed = args.witness
    if args.radius is not None:
        claimed = args.radius
    _emit(verify_sharpness(profile, claimed))
    return 0


def _cmd_identities(args) -> int:
    s1, s2, s3 = power_sums(args.r)
    _emit({
        "r": args.r,
        "sum_n_rn": s1,
        "sum_n2_rn": s2,
        "sum_n3_rn_minus1": s3,
    })
    return 0


def _cmd_list_extremals(args) -> int:
    # only the uniform family takes parameters: BoundFamily's c and b1_abs
    _emit({
        "extremals": [
            {"label": label, "parameters": list(BoundFamily._fields[1:])
             if EXTREMALS[label][0] == "uniform" else []}
            for label in sorted(EXTREMALS)
        ]
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmradius",
                     description="Radii of close-to-convexity and starlikeness "
                                 "for coefficient-bounded harmonic mappings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("radius", help="radius of a coefficient family")
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--family", type=_label(BoundFamily),
                         help="koebe | convex | uniform:c[,b1]")
    subject.add_argument("--seq", help="path to a coefficient sequence JSON file")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--method", choices=["auto", "bisect"], default="auto",
                   help="auto: the closed form of a named family at beta 0, else bisection")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("membership", help="class membership checks")
    p.add_argument("--check", required=True,
                   choices=["coeff", "growth", "c-h2", "starlike", "injectivity"])
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--map", type=_label(get_extremal),
                         help="extremal label, e.g. koebe, convex_L, F0, L0, f0:c[,b1]")
    subject.add_argument("--seq", help="path to a coefficient sequence JSON file")
    p.add_argument("--dilate", type=float,
                   help="replace f by f(rz)/r before checking")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--r", type=float, default=SERIES_EVAL_MAX,
                   help="radius of the disk |z| <= r that the sampled checks "
                        "(c-h2, starlike, injectivity) cover")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--grid-radial", type=int, default=200)
    p.add_argument("--grid-angular", type=int, default=64)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("jacobian-scan", help="CSV of a witness Jacobian on [lo, hi]")
    p.add_argument("--witness", type=_label(_witness), required=True,
                   help="F0 | L0 | f0:c[,b1]")
    p.add_argument("--lo", type=float, default=0.001)
    p.add_argument("--hi", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_jacobian_scan)

    p = sub.add_parser("bloch-table", help="univalent-disk radii for bounded maps")
    p.add_argument("--M", type=_bounds,
                   default=[1.0, 2.0, 3.0], help="comma-separated sup-norm bounds")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_bloch_table)

    p = sub.add_parser("sharpness", help="verify a witness Jacobian sign pattern")
    p.add_argument("--witness", type=_label(_witness), required=True,
                   help="F0 | L0 | f0:c[,b1]")
    p.add_argument("--radius", type=float,
                   help="claimed radius (default: the family closed form)")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("identities", help="closed forms of the power sums behind the family radii")
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
    except argparse.ArgumentTypeError as exc:  # a rule across options, as in jacobian-scan
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    except NoRadiusError as exc:
        _emit({"error": str(exc), "kind": "no-radius"})
        return 2
    except (ValueError, ArithmeticError, UnsupportedOperation) as exc:
        _emit({"error": str(exc), "kind": "domain"})
        return 2
    except MemoryError as exc:
        _emit({"error": str(exc) or "out of memory", "kind": "memory"})
        return 2
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: i/o error: {exc}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
