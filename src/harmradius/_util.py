"""Shared helpers.

Output formatting: all user-facing floats use 12 significant digits,
below the tolerance floors and above printed-table precision.  Every
number parameter is checked by check_index (an integer) or check_real (a
real number), each with one message format for a wrong type and one for
a value out of range.  The records are immutable namedtuples.  Series
maps, profiles and family polynomials share one Horner, horner, for
numbers and arrays.
"""

import math
import operator
from collections import namedtuple


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
    """The polynomial coeffs (highest degree first, at least one) at x, a number
    or a numpy array, in one accumulator that starts at 0.0 * x and is updated
    in place, so an array costs no temporary per term.  A coefficient None
    marks an absent term, which is not added (maps._compile marks a series'
    zero terms so, once per polynomial); the constant term is always added.
    With no None this is the plain loop acc = acc * x + k, bit for bit."""
    acc = 0.0 * x
    for k in coeffs[:-1]:
        if k is not None:
            acc += k
        acc *= x
    acc += coeffs[-1]
    return acc


def dtype_kind(x) -> str:
    """numpy's dtype kind of x ("b" a bool, "c" a complex), "" for a Python number."""
    return getattr(getattr(x, "dtype", None), "kind", "")


def check_index(n, low: int | None, what: str) -> int:
    """An integer n >= low (an operator.index integer, not a bool) as an int;
    low None leaves the range to the caller.  what names n in the errors."""
    if isinstance(n, bool) or dtype_kind(n) == "b" or not hasattr(type(n), "__index__"):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    n = operator.index(n)
    if low is not None and n < low:
        raise ValueError(f"{what} must be >= {low}, got {n}")
    return n


def check_real(x, what: str, low=-math.inf, high=math.inf, ends="()") -> float:
    """x as a float: a real number (no bool, complex, string or array) in the interval
    from low to high with the brackets ends, "[)" for low <= x < high.  x
    itself is compared, so a Fraction is not rounded first."""
    if type(x) is not float and (isinstance(x, (bool, complex)) or dtype_kind(x) in ("b", "c")
                                 or getattr(x, "ndim", 0) or not hasattr(type(x), "__float__")):
        raise TypeError(f"{what} must be a real number, got {x!r}")
    # in the closed interval, and at an end only where ends closes it
    if low <= x <= high and (x != low or ends[0] == "[") and (x != high or ends[1] == "]"):
        return float(x)
    interval = ", ".join(repr(float(v)).removesuffix(".0") for v in (low, high))
    raise ValueError(f"{what} must lie in {ends[0]}{interval}{ends[1]}, got {float(x)!r}")
