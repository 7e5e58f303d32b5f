"""Named extremal harmonic maps and sharpness witnesses.

Five maps are exposed through a label registry for CLI use:

- ``koebe``: the harmonic Koebe function K = H + conj(G), dilatation z,
  coefficients A_n = (2n+1)(n+1)/6, B_n = (2n-1)(n-1)/6.
- ``convex_L``: the convex extremal L = M + conj(N) with coefficients
  ((n+1)/2, -(n-1)/2); maps |z| < r onto a convex region exactly up to
  r = sqrt(2) - 1.
- ``F0``, ``L0``, ``f0``: sharpness witnesses built by coefficient
  negation, 2z - K-style; their Jacobians restricted to the real axis
  have closed forms whose smallest positive roots realize the radii
  computed in the radii module.

Each map carries both a closed-form evaluator and an exact coefficient
rule; tests reconcile the two.  JacobianProfile wraps the real-axis
Jacobian closed forms for the root scanner.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from ._util import check_uniform
from .coefficients import CoefficientSeq
from .maps import HarmonicMap

__all__ = [
    "CONVEX_EXTREMAL_CONVEXITY_RADIUS",
    "JacobianProfile",
    "harmonic_koebe",
    "convex_extremal",
    "koebe_witness",
    "convex_witness",
    "uniform_witness",
    "koebe_witness_jacobian",
    "convex_witness_jacobian",
    "uniform_witness_jacobian",
    "koebe_witness_profile",
    "convex_witness_profile",
    "uniform_witness_profile",
    "one_term_extremal",
    "EXTREMALS",
    "get_extremal",
]

# Largest r such that convex_L maps |z| < r onto a convex region.
CONVEX_EXTREMAL_CONVEXITY_RADIUS = math.sqrt(2.0) - 1.0


# -- the two base extremals ------------------------------------------------

def _koebe_h(z):
    return (z - z * z / 2 + z ** 3 / 6) / (1 - z) ** 3


def _koebe_g(z):
    return (z * z / 2 + z ** 3 / 6) / (1 - z) ** 3


def _koebe_dh(z):
    return (1 + z) / (1 - z) ** 4


def _koebe_dg(z):
    return z * (1 + z) / (1 - z) ** 4


def _koebe_coeff(n: int):
    return (2 * n + 1) * (n + 1) / 6, (2 * n - 1) * (n - 1) / 6


def harmonic_koebe() -> HarmonicMap:
    """The harmonic Koebe function; dilatation g'/h' = z."""
    return HarmonicMap.from_closed_form(
        "koebe", _koebe_h, _koebe_g, _koebe_dh, _koebe_dg, _koebe_coeff
    )


def _convex_h(z):
    return (z / (1 - z) + z / (1 - z) ** 2) / 2


def _convex_g(z):
    return (z / (1 - z) - z / (1 - z) ** 2) / 2


def _convex_dh(z):
    return (1 / (1 - z) ** 2 + (1 + z) / (1 - z) ** 3) / 2


def _convex_dg(z):
    return (1 / (1 - z) ** 2 - (1 + z) / (1 - z) ** 3) / 2


def _convex_coeff(n: int):
    return (n + 1) / 2, -(n - 1) / 2


def convex_extremal() -> HarmonicMap:
    """The convex extremal map L; h + g = z/(1-z), h - g = z/(1-z)^2."""
    return HarmonicMap.from_closed_form(
        "convex_L", _convex_h, _convex_g, _convex_dh, _convex_dg, _convex_coeff
    )


# -- sharpness witnesses ---------------------------------------------------

def _koebe_witness_coeff(n: int):
    if n == 1:
        return 1.0, 0.0
    a, b = _koebe_coeff(n)
    return -a, -b


def koebe_witness() -> HarmonicMap:
    """F0 = (2z - H) - conj(G): the Koebe-family map with negated tail."""
    return HarmonicMap.from_closed_form(
        "F0",
        lambda z: 2 * z - _koebe_h(z),
        lambda z: -_koebe_g(z),
        lambda z: 2 - _koebe_dh(z),
        lambda z: -_koebe_dg(z),
        _koebe_witness_coeff,
    )


def _convex_witness_coeff(n: int):
    if n == 1:
        return 1.0, 0.0
    a, b = _convex_coeff(n)
    return -a, -b


def convex_witness() -> HarmonicMap:
    """L0 = (2z - M) - conj(N): the convex-family map with negated tail."""
    return HarmonicMap.from_closed_form(
        "L0",
        lambda z: 2 * z - _convex_h(z),
        lambda z: -_convex_g(z),
        lambda z: 2 - _convex_dh(z),
        lambda z: -_convex_dg(z),
        _convex_witness_coeff,
    )


def uniform_witness(c: float, b1_abs: float = 0.0) -> HarmonicMap:
    """f0: all tail coefficients at the uniform bound c/2, negated.

    h(z) = z - (c/2) z^2/(1-z), g(z) = -b1_abs z - (c/2) z^2/(1-z), so
    a_n = b_n = -c/2 for n >= 2 and g'(0) = -b1_abs.
    """
    c, b1 = check_uniform(c, b1_abs)
    tail = lambda z: (c / 2) * z * z / (1 - z)
    # d/dz [z^2/(1-z)] = 1/(1-z)^2 - 1
    dtail = lambda z: (c / 2) * (1 / (1 - z) ** 2 - 1)

    def coeff(n: int):
        if n == 1:
            return 1.0, -b1
        return -c / 2, -c / 2

    return HarmonicMap.from_closed_form(
        "f0",
        lambda z: z - tail(z),
        lambda z: -b1 * z - tail(z),
        lambda z: 1 - dtail(z),
        lambda z: -b1 - dtail(z),
        coeff,
    )


# -- closed-form Jacobians on the real axis --------------------------------

def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return r


def koebe_witness_jacobian(r: float) -> float:
    """J along the real axis for F0, as a ratio of real polynomials.

    The denominator is written -(1-r)^7 to keep its sign explicit.
    """
    r = _check_radius(r)
    p = -1 + 7 * r - 6 * r * r + 2 * r ** 3
    q = 1 - 10 * r + 11 * r * r - 8 * r ** 3 + 2 * r ** 4
    return p * q / -((1 - r) ** 7)


def convex_witness_jacobian(r: float) -> float:
    """J along the real axis for L0, in factored form."""
    r = _check_radius(r)
    return (2 - (1 + r) / (1 - r) ** 3) * (2 - 1 / (1 - r) ** 2)


def uniform_witness_jacobian(r: float, c: float, b1_abs: float = 0.0) -> float:
    """J along the real axis for f0(c, b1_abs)."""
    r = _check_radius(r)
    c, b1_abs = check_uniform(c, b1_abs)
    return (1 + b1_abs) * (1 + c - b1_abs - c / (1 - r) ** 2)


@dataclass(frozen=True)
class JacobianProfile:
    """A real-axis Jacobian r -> J(r) on [0, 1), finite away from r=1."""

    label: str
    evaluator: Callable[[float], float]

    def __call__(self, r: float) -> float:
        return float(self.evaluator(_check_radius(r)))


def koebe_witness_profile() -> JacobianProfile:
    return JacobianProfile("F0", koebe_witness_jacobian)


def convex_witness_profile() -> JacobianProfile:
    return JacobianProfile("L0", convex_witness_jacobian)


def uniform_witness_profile(c: float, b1_abs: float = 0.0) -> JacobianProfile:
    c, b1_abs = check_uniform(c, b1_abs)  # validate parameters up front
    return JacobianProfile("f0", lambda r: uniform_witness_jacobian(r, c, b1_abs))


# -- one-term boundary maps ---------------------------------------------------

def one_term_extremal(n: int, theta: float = 0.0, anti: bool = False) -> HarmonicMap:
    """z + (e^(i theta)/n) z^n, or with conj(z^n) when anti is set.

    These sit exactly on the boundary of the coefficient conditions:
    the weight n cancels the modulus 1/n.
    """
    n = int(n)
    if n < 2:
        raise ValueError("one-term index must be >= 2")
    value = cmath.exp(1j * theta) / n
    a, b = ({}, {n: value}) if anti else ({n: value}, {})
    kind = "anti" if anti else "analytic"
    seq = CoefficientSeq(a, b, n)
    return HarmonicMap.from_series(seq, f"one_term({n},{theta:g},{kind})")


# -- registry ----------------------------------------------------------------

EXTREMALS: dict[str, Callable[..., HarmonicMap]] = {
    "koebe": harmonic_koebe,
    "convex_L": convex_extremal,
    "F0": koebe_witness,
    "L0": convex_witness,
    "f0": uniform_witness,
}


def get_extremal(label: str, c: float | None = None,
                 b1_abs: float | None = None) -> HarmonicMap:
    """Look up a named extremal; only "f0" takes (and requires) parameters."""
    try:
        factory = EXTREMALS[label]
    except KeyError:
        known = ", ".join(sorted(EXTREMALS))
        raise ValueError(f"unknown extremal {label!r}; known labels: {known}") from None
    if label == "f0":
        if c is None:
            raise ValueError("extremal 'f0' requires the bound parameter c")
        return factory(c, b1_abs if b1_abs is not None else 0.0)
    if c is not None or b1_abs is not None:
        raise ValueError(f"extremal {label!r} takes no parameters")
    return factory()
