"""Shared helpers.

Output formatting: all user-facing floats use 12 significant digits,
below the tolerance floors and above printed-table precision.  Parameter
checks shared by several modules raise ValueError with one message each.
The package's records (specs and reports) are immutable namedtuples.
"""

import math
import operator
from collections import namedtuple

__all__ = ["UnsupportedOperation", "record", "fmt12", "round12", "horner", "check_index",
           "check_beta", "check_uniform"]


class UnsupportedOperation(RuntimeError):
    """Raised when an operation needs a backing the map does not have.

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
    """The polynomial coeffs (highest degree first) at x, a float or a numpy array."""
    acc = 0.0
    for k in coeffs:
        acc = acc * x + k
    return acc


def check_index(n, low: int, what: str) -> int:
    """An integer index n >= low (an operator.index integer, not a bool) as an int."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{what} index must be an integer, got {n!r}")
    n = operator.index(n)
    if n < low:
        raise ValueError(f"{what} index must be >= {low}, got {n}")
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
