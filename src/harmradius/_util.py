"""Shared helpers.

Output formatting: all user-facing floats use 12 significant digits,
below the tolerance floors and above printed-table precision.  Parameter
checks shared by several modules raise ValueError with one message each.
The package's records (specs and reports) are immutable namedtuples.
"""

import math
import operator
from collections import namedtuple

__all__ = ["UnsupportedOperation", "record", "fmt12", "round12", "horner", "horner_array",
           "check_index", "check_beta", "check_uniform"]


class UnsupportedOperation(RuntimeError):
    """Raised when an operation needs a finite coefficient sequence, which a
    named map does not have.

    Defined here, and re-exported by maps, so the CLI can catch it without
    importing numpy."""


def record(name: str, fields: str, defaults=()):
    """The namedtuple base of an immutable record.  A record class subclasses
    it with __slots__ = () and checks its fields in __new__; _make, and so
    _replace, build through that __new__ too."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    """Round through the 12-digit representation, for deterministic JSON."""
    return float(fmt12(x))


def horner(coeffs, x):
    """The polynomial coeffs (highest degree first) at x, a number or a numpy array."""
    acc = 0.0
    for k in coeffs:
        acc = acc * x + k
    return acc


def horner_array(coeffs, x):
    """horner(coeffs, x), bit for bit, for a numpy array x and at least one
    coefficient, computed in place in one accumulator array.

    A zero coefficient before the last is not added.  Adding a zero changes
    at most the sign of a zero part of the accumulator, and so of the
    result; adding a last coefficient with no -0.0 part gives every zero
    part of the result the sign horner gives it.  Before a last coefficient
    with a -0.0 part every coefficient is added."""
    last = coeffs[-1]
    skip_zeros = not any(p == 0.0 and math.copysign(1.0, p) < 0.0
                         for p in (last.real, last.imag))
    acc = 0.0 * x
    for k in coeffs[:-1]:
        if k or not skip_zeros:
            acc += k
        acc *= x
    acc += last
    return acc


def check_index(n, low: int | None, what: str) -> int:
    """An integer n >= low (an operator.index integer, not a bool) as an int;
    low None leaves the range to the caller.  what names n in the errors."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    n = operator.index(n)
    if low is not None and n < low:
        raise ValueError(f"{what} must be >= {low}, got {n}")
    return n


def check_beta(beta: float) -> float:
    """The class parameter beta as a float in [0, 1)."""
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return beta


def check_uniform(c: float, b1_abs: float) -> tuple[float, float]:
    """The uniform-family parameters (finite c > 0, b1_abs in [0, 1)) as floats."""
    c, b1_abs = float(c), float(b1_abs)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("uniform bound c must be finite and positive")
    if not 0.0 <= b1_abs < 1.0:
        raise ValueError("b1_abs must lie in [0, 1)")
    return c, b1_abs
