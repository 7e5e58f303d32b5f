"""Named extremal harmonic maps and sharpness witnesses.

Five maps are exposed through a label registry for CLI use:

- ``koebe``: the harmonic Koebe function K = H + conj(G), dilatation z,
  coefficients A_n = (2n+1)(n+1)/6, B_n = (2n-1)(n-1)/6.
- ``convex_L``: the convex extremal L = M + conj(N) with coefficients
  ((n+1)/2, -(n-1)/2); maps |z| < r onto a convex region exactly up to
  r = sqrt(2) - 1.
- ``F0``, ``L0``, ``f0``: sharpness witnesses built by coefficient
  negation, 2z - K-style; their Jacobians restricted to the real axis
  are rational functions whose smallest positive roots realize the
  radii computed in the radii module.

Only f0 takes parameters (PARAMETERS names them).  WITNESSES pairs
each witness with the stock family it is sharp for.  Each map carries
both a closed-form evaluator and an exact coefficient rule; tests
reconcile the two.  A JacobianProfile holds a witness's real-axis
Jacobian as polynomial factors over a power of (r - 1); those of F0 and
L0 include their family's S(r) = 1 polynomial (FAMILY_POLYNOMIALS).

The map factories import maps (and with it numpy) when called; the label
tables and the profiles need neither.
"""

from __future__ import annotations

import cmath
import math

from ._util import check_uniform, horner, record
from .coefficients import FAMILY_POLYNOMIALS, CoefficientSeq, convex_bounds, koebe_bounds

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

    from .maps import HarmonicMap

__all__ = [
    "CONVEX_EXTREMAL_CONVEXITY_RADIUS",
    "JacobianProfile",
    "harmonic_koebe",
    "convex_extremal",
    "koebe_witness",
    "convex_witness",
    "uniform_witness",
    "koebe_witness_profile",
    "convex_witness_profile",
    "uniform_witness_profile",
    "one_term_extremal",
    "EXTREMALS",
    "PARAMETERS",
    "WITNESSES",
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


def harmonic_koebe() -> HarmonicMap:
    """The harmonic Koebe function; dilatation g'/h' = z."""
    from .maps import HarmonicMap

    return HarmonicMap.from_closed_form(
        "koebe", _koebe_h, _koebe_g, _koebe_dh, _koebe_dg, koebe_bounds
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
    a, b = convex_bounds(n)
    return a, -b


def convex_extremal() -> HarmonicMap:
    """The convex extremal map L; h + g = z/(1-z), h - g = z/(1-z)^2."""
    from .maps import HarmonicMap

    return HarmonicMap.from_closed_form(
        "convex_L", _convex_h, _convex_g, _convex_dh, _convex_dg, _convex_coeff
    )


# -- sharpness witnesses ---------------------------------------------------

def _negated_witness(label: str, h, g, dh, dg, coeff) -> HarmonicMap:
    """(2z - h) - conj(g): the base map h + conj(g) with every coefficient
    past a_1 = 1 negated (and b_1 = 0)."""
    from .maps import HarmonicMap

    def witness_coeff(n: int):
        if n == 1:
            return 1.0, 0.0
        a, b = coeff(n)
        return -a, -b

    return HarmonicMap.from_closed_form(
        label,
        lambda z: 2 * z - h(z),
        lambda z: -g(z),
        lambda z: 2 - dh(z),
        lambda z: -dg(z),
        witness_coeff,
    )


def koebe_witness() -> HarmonicMap:
    """F0 = (2z - H) - conj(G): the Koebe-family map with negated tail."""
    return _negated_witness("F0", _koebe_h, _koebe_g, _koebe_dh, _koebe_dg,
                            koebe_bounds)


def convex_witness() -> HarmonicMap:
    """L0 = (2z - M) - conj(N): the convex-family map with negated tail."""
    return _negated_witness("L0", _convex_h, _convex_g, _convex_dh, _convex_dg,
                            _convex_coeff)


def uniform_witness(c: float, b1_abs: float = 0.0) -> HarmonicMap:
    """f0: all tail coefficients at the uniform bound c/2, negated.

    h(z) = z - (c/2) z^2/(1-z), g(z) = -b1_abs z - (c/2) z^2/(1-z), so
    a_n = b_n = -c/2 for n >= 2 and g'(0) = -b1_abs.
    """
    from .maps import HarmonicMap

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

class JacobianProfile(record("JacobianProfile", "label factors pole")):
    """J(r) = prod(horner(factor, r) for factor in factors) / (r - 1)^pole
    on the real axis, for a float r in [0, 1) or a numpy array of them.
    factors is a tuple of coefficient tuples, highest degree first.  The
    pole is applied by repeated multiplication, so an array gives bit for
    bit the values of element-wise float calls."""

    __slots__ = ()

    def __call__(self, r):
        lo, hi = (r.min(), r.max()) if hasattr(r, "min") else (r, r)
        if not 0.0 <= lo <= hi < 1.0:
            raise ValueError("radius must lie in [0, 1)")
        num = den = 1.0
        for factor in self.factors:
            num *= horner(factor, r)
        d = r - 1.0
        for _ in range(self.pole):
            den *= d
        return num / den


def koebe_witness_profile() -> JacobianProfile:
    """F0: J = convex(r) koebe(r) / (r-1)^7, the two family polynomials."""
    return JacobianProfile("F0", (FAMILY_POLYNOMIALS["convex"],
                                  FAMILY_POLYNOMIALS["koebe"]), 7)


def convex_witness_profile() -> JacobianProfile:
    """L0: J = convex(r) (2r^2 - 4r + 1) / (r-1)^5; the second root is 1 - 1/sqrt(2)."""
    return JacobianProfile("L0", (FAMILY_POLYNOMIALS["convex"], (2, -4, 1)), 5)


def uniform_witness_profile(c: float, b1_abs: float = 0.0) -> JacobianProfile:
    """f0: J = (1 + b1)(k r^2 - 2k r + 1 - b1) / (r-1)^2, k = 1 + c - b1, held
    halved and doubled (exact in binary) so that -2k cannot overflow."""
    c, b1_abs = check_uniform(c, b1_abs)
    k = c + (1.0 - b1_abs)
    return JacobianProfile("f0", ((2.0 * (1.0 + b1_abs),),
                                  (k / 2.0, -k, (1.0 - b1_abs) / 2.0)), 2)


# -- one-term boundary maps ---------------------------------------------------

def one_term_extremal(n: int, theta: float = 0.0, anti: bool = False) -> HarmonicMap:
    """z + (e^(i theta)/n) z^n, or with conj(z^n) when anti is set.

    These sit exactly on the boundary of the coefficient conditions:
    the weight n cancels the modulus 1/n.
    """
    from .maps import HarmonicMap

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

# Parameter names of the extremals that take parameters; the others take none.
PARAMETERS: dict[str, tuple[str, ...]] = {"f0": ("c", "b1_abs")}

# Sharpness witness label -> (BoundFamily kind it is extremal for, its profile).
WITNESSES: dict[str, tuple[str, Callable[..., JacobianProfile]]] = {
    "F0": ("koebe", koebe_witness_profile),
    "L0": ("convex", convex_witness_profile),
    "f0": ("uniform", uniform_witness_profile),
}


def get_extremal(label: str, c: float | None = None,
                 b1_abs: float | None = None) -> HarmonicMap:
    """Look up a named extremal; those in PARAMETERS require c, the rest take none."""
    try:
        factory = EXTREMALS[label]
    except KeyError:
        known = ", ".join(sorted(EXTREMALS))
        raise ValueError(f"unknown extremal {label!r}; known labels: {known}") from None
    if label in PARAMETERS:
        if c is None:
            raise ValueError(f"extremal {label!r} requires the bound parameter c")
        return factory(c, b1_abs if b1_abs is not None else 0.0)
    if c is not None or b1_abs is not None:
        raise ValueError(f"extremal {label!r} takes no parameters")
    return factory()
