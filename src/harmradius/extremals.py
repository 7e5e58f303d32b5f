"""Named extremal harmonic maps and sharpness witnesses.

EXTREMALS, the one registry of named maps, gives each label a stock family
and two signs: its coefficients past a_1 = 1 are the family's bounds with
those signs, and named_forms derives its evaluators from them.

- ``koebe`` (++): the harmonic Koebe function K = H + conj(G), dilatation
  z, coefficients A_n = (2n+1)(n+1)/6, B_n = (2n-1)(n-1)/6.
- ``convex_L`` (+-): the convex extremal L = M + conj(N) with coefficients
  ((n+1)/2, -(n-1)/2); maps |z| < r onto a convex region exactly up to
  r = sqrt(2) - 1.
- ``F0`` (--), ``L0`` (-+), ``f0`` (--): sharpness witnesses built by
  coefficient negation, 2z - K-style; their Jacobians restricted to the
  real axis are rational functions whose smallest positive roots realize
  the radii computed in the radii module.

get_extremal builds a map from its row; BoundFamily alone decides which
parameters a label takes (f0's family, uniform, takes c and b1_abs).
WITNESSES gives each witness its JacobianProfile factory: polynomial
factors over a power of (r - 1), among them the S(r) = 1 polynomial of
F0's and L0's family (FAMILY_POLYNOMIALS).

get_extremal imports maps when called; the tables and the profiles need
no map.  None of them imports numpy.
"""

from __future__ import annotations

import cmath
import math

from ._util import check_index, check_real, horner, record
from .coefficients import FAMILY_POLYNOMIALS, BoundFamily, CoefficientSeq

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable

    from .maps import HarmonicMap

__all__ = [
    "CONVEX_EXTREMAL_CONVEXITY_RADIUS",
    "JacobianProfile",
    "koebe_witness_profile",
    "convex_witness_profile",
    "uniform_witness_profile",
    "one_term_extremal",
    "EXTREMALS",
    "WITNESSES",
    "get_extremal",
]

# Largest r such that convex_L maps |z| < r onto a convex region.
CONVEX_EXTREMAL_CONVEXITY_RADIUS = math.sqrt(2.0) - 1.0


# -- evaluators from a family and two signs ---------------------------------

# Each base map has two pair evaluators, (h, g) and (h', g'), which compute
# their shared subexpressions once.  Powers are written as products: numpy
# raises a complex array to an integer power one element at a time, some 20
# times slower than a product.  Halving is a product by 0.5: numpy divides
# complex arrays by the complex 2 + 0j.

def _koebe_f(z):
    q, zz = 1 - z, z * z
    cube, qqq = z * zz / 6, q * (q * q)
    return (z - zz * 0.5 + cube) / qqq, (zz * 0.5 + cube) / qqq


def _koebe_df(z):
    qq = (1 - z) * (1 - z)
    p, qqqq = 1 + z, qq * qq
    return p / qqqq, z * p / qqqq


def _convex_f(z):
    q = 1 - z
    s, t = z / q, z / q ** 2
    return (s + t) * 0.5, (s - t) * 0.5


def _convex_df(z):
    q = 1 - z
    s, t = 1 / (q * q), (1 + z) / (q * (q * q))
    return (s + t) * 0.5, (s - t) * 0.5


def _uniform_base(family: BoundFamily):
    """f0's pair evaluators and signs (-,-): h(z) = z - (c/2) z^2/(1-z) and
    g(z) = -|b1| z - (c/2) z^2/(1-z), so a_n = b_n = -c/2 for n >= 2."""
    c, b1 = family.c, family.b1_abs

    def f(z):
        tail = (c / 2) * z * z / (1 - z)
        return z - tail, -b1 * z - tail

    def df(z):
        # d/dz [z^2/(1-z)] = 1/(1-z)^2 - 1
        dtail = (c / 2) * (1 / (1 - z) ** 2 - 1)
        return 1 - dtail, -b1 - dtail

    return (f, df), -1, -1


# The base maps of the koebe and convex families, with their signs: the
# harmonic Koebe function K (+,+) and the convex extremal L (+,-).
_BASES = {"koebe": ((_koebe_f, _koebe_df), 1, 1), "convex": ((_convex_f, _convex_df), 1, -1)}


def named_forms(family: BoundFamily, sign_a: int, sign_b: int) -> tuple:
    """The pair evaluators f(z) = (h(z), g(z)) and df(z) = (h'(z), g'(z)) of
    the named map with bounds (family, sign_a, sign_b): those of the family's
    base map, K, L or f0, with h -> 2z - h, h' -> 2 - h' (negating a_n, n >= 2)
    or g -> -g, g' -> -g' (negating b_n) for each sign unlike the base's."""
    (f, df), base_a, base_b = (_uniform_base(family) if family.kind == "uniform"
                               else _BASES[family.kind])
    flip_a, flip_b = sign_a != base_a, sign_b != base_b
    if not (flip_a or flip_b):
        return f, df

    def signed_f(z):
        h, g = f(z)
        return (2 * z - h if flip_a else h), (-g if flip_b else g)

    def signed_df(z):
        dh, dg = df(z)
        return (2 - dh if flip_a else dh), (-dg if flip_b else dg)

    return signed_f, signed_df


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
    family = BoundFamily.uniform(c, b1_abs)
    c, b1_abs = family.c, family.b1_abs
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

    n, theta = check_index(n, 2, "one-term index"), check_real(theta, "theta")
    value = cmath.exp(1j * theta) / n
    a, b = ({}, {n: value}) if anti else ({n: value}, {})
    kind = "anti" if anti else "analytic"
    seq = CoefficientSeq(a, b, n)
    return HarmonicMap.from_series(seq, f"one_term({n},{theta:g},{kind})")


# -- registry ----------------------------------------------------------------

# Named map label -> (BoundFamily kind, sign_a, sign_b): the harmonic Koebe
# function K = H + conj(G), the convex extremal L = M + conj(N), and the
# witnesses F0 = (2z - H) - conj(G), L0 = (2z - M) - conj(N) and f0.
EXTREMALS: dict[str, tuple[str, int, int]] = {
    "koebe": ("koebe", 1, 1),
    "convex_L": ("convex", 1, -1),
    "F0": ("koebe", -1, -1),
    "L0": ("convex", -1, 1),
    "f0": ("uniform", -1, -1),
}

# Sharpness witness label -> its profile factory, which takes the parameters
# of the witness's family (its EXTREMALS kind).
WITNESSES: dict[str, Callable[..., JacobianProfile]] = {
    "F0": koebe_witness_profile,
    "L0": convex_witness_profile,
    "f0": uniform_witness_profile,
}


def get_extremal(label: str, c: float | None = None,
                 b1_abs: float | None = None) -> HarmonicMap:
    """The named map of EXTREMALS[label], on BoundFamily(kind, c, b1_abs):
    its family decides which of c and b1_abs (default 0) the label takes."""
    from .maps import HarmonicMap

    try:
        kind, sign_a, sign_b = EXTREMALS[label]
    except KeyError:
        known = ", ".join(sorted(EXTREMALS))
        raise ValueError(f"unknown extremal {label!r}; known labels: {known}") from None
    family = BoundFamily(kind, c, 0.0 if b1_abs is None else b1_abs)
    return HarmonicMap(label, (family, sign_a, sign_b))
