"""Shared helpers.

Output formatting: all user-facing floats use 12 significant digits,
below the tolerance floors and above printed-table precision.  Parameter
checks shared by several modules raise ValueError with one message each.
"""

__all__ = ["fmt12", "round12", "check_beta", "check_uniform"]


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    """Round through the 12-digit representation, for deterministic JSON."""
    return float(fmt12(x))


def check_beta(beta: float) -> float:
    """The class parameter beta as a float in [0, 1)."""
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return beta


def check_uniform(c: float, b1_abs: float) -> tuple[float, float]:
    """The uniform-family parameters (c > 0, b1_abs in [0, 1)) as floats."""
    c, b1_abs = float(c), float(b1_abs)
    if c <= 0.0:
        raise ValueError("uniform bound c must be positive")
    if not 0.0 <= b1_abs < 1.0:
        raise ValueError("b1_abs must lie in [0, 1)")
    return c, b1_abs
