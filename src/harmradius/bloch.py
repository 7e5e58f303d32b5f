"""Bloch-Landau radii for bounded sense-preserving harmonic maps.

A normalized harmonic map of the unit disk with |f| < M has combined
coefficient moduli bounded by c = 4M/pi, so the uniform family machinery
applies: the image of the starlikeness disk |z| < r_S contains a disk of
radius R_S = r_S - c r_S^2/(1 - r_S) (the coefficient bound summed as a
geometric series).  The table builder reproduces both these radii and
the earlier comparison bounds phi, psi evaluated at x = 8M/pi.

M >= pi/4 is forced by the normalization: h'(0) = 1 makes smaller sup
norms impossible.
"""

import math

from ._util import check_real, fmt12, record
from .coefficients import BoundFamily
from .radii import closed_form_radius

__all__ = [
    "MIN_BOUND",
    "PRIOR_ESTIMATE_FACTOR",
    "BlochRow",
    "coefficient_bound",
    "bloch_radius",
    "phi",
    "psi",
    "bloch_table",
    "bloch_table_csv",
    "BLOCH_CSV_HEADER",
]

MIN_BOUND = math.pi / 4.0

# Earlier published lower bound for the univalent-disk radius of bounded
# harmonic maps, approximately 1/(11.105 M).  Exposed for comparison
# only; the table columns use phi and psi instead.
PRIOR_ESTIMATE_FACTOR = 1.0 / 11.105

BLOCH_CSV_HEADER = "M,phi,psi,r_S,R_S"


def coefficient_bound(M: float) -> float:
    """Sharp bound 4M/pi on |a_n| + |b_n| for maps with |f| < M."""
    M = check_real(M, "sup-norm bound M", MIN_BOUND, math.inf, "[)")
    if math.isinf(8.0 * M / math.pi):
        raise ValueError(f"sup-norm bound M = {M:g} is too large: 8M/pi overflows")
    return 4.0 * M / math.pi


def bloch_radius(M: float) -> tuple[float, float]:
    """(r_S, R_S): starlikeness radius and guaranteed univalent-disk radius.

    r_S is the uniform-family radius at c = 4M/pi, b1 = 0;
    R_S = r_S - (4M/pi) r_S^2/(1 - r_S).
    """
    c = coefficient_bound(M)
    r_s = closed_form_radius(BoundFamily.uniform(c)).radius
    big_r = r_s - c * r_s * r_s / (1.0 - r_s)
    return r_s, big_r


def phi(x: float) -> float:
    """Comparison bound x/(sqrt(2)(x^2 + x - 1)); needs x^2 + x - 1 > 0.
    Evaluated as 1/(sqrt(2)(x + 1 - 1/x)), which cannot overflow."""
    x = check_real(x, "x")
    if x * x + x - 1.0 <= 0.0:
        raise ValueError("phi requires x^2 + x - 1 > 0")
    return 1.0 / (math.sqrt(2.0) * (x + 1.0 - 1.0 / x))


def psi(x: float) -> float:
    """Comparison bound (1/sqrt(2))[1 + ((x^2-1)/x) ln((x^2-1)/(x^2+x-1))].

    Natural logarithm; needs x > 1.  With t = x/(x^2+x-1), q = (x^2-1)/x
    and u = -(ln(1-t) + t) = sum_{k>=2} t^k/k the bracket is t - q u,
    which is evaluated without the cancellation of the form above.
    """
    x = check_real(x, "x")
    if x <= 1.0:
        raise ValueError("psi requires x > 1")
    t = 1.0 / (x + 1.0 - 1.0 / x)
    q = (x - 1.0) * (1.0 + 1.0 / x)  # 1 - t = q t
    if t < 0.5:
        # q u = (1-t) t^2 v with v = u/t^2 = sum_{k>=2} t^(k-2)/k
        v, tk, k = 0.0, 1.0, 2
        while tk > 1e-17:
            v += tk / k
            tk *= t
            k += 1
        bracket = t * (1.0 - (1.0 - t) * v)
    else:
        bracket = t + q * (math.log(q * t) + t)
    return bracket / math.sqrt(2.0)


class BlochRow(record("BlochRow", "M c r_S R_S phi psi")):
    """One table row: sup-norm bound M, coefficient bound c = 4M/pi, the
    two radii of this work, and the comparison values phi, psi at 8M/pi."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.c < 1.0:
            raise ValueError("coefficient bound c must be >= 1")
        if not 0.0 < self.r_S < 1.0:
            raise ValueError("r_S must lie in (0, 1)")
        if not 0.0 < self.R_S < self.r_S:
            raise ValueError("R_S must lie in (0, r_S)")
        return self

    def to_dict(self) -> dict:
        return self._asdict()


def bloch_table(Ms) -> list[BlochRow]:
    """One BlochRow per bound M; the comparison columns use x = 8M/pi."""
    rows = []
    for M in Ms:
        r_s, big_r = bloch_radius(M)  # checks M
        M = float(M)
        x = 8.0 * M / math.pi
        rows.append(BlochRow(M, x / 2, r_s, big_r, phi(x), psi(x)))  # x/2 == 4M/pi exactly
    return rows


def bloch_table_csv(rows) -> str:
    """CSV text for a list of BlochRows, 12 significant digits."""
    lines = [BLOCH_CSV_HEADER]
    for row in rows:
        lines.append(",".join(fmt12(v) for v in
                              (row.M, row.phi, row.psi,
                               row.r_S, row.R_S)))
    return "\n".join(lines) + "\n"
