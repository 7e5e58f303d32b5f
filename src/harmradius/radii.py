"""Radius computations for coefficient-bounded harmonic map families.

The central quantity is the weighted coefficient sum S(r) from the
coefficients module: a family member dilated to radius r satisfies the
membership condition exactly when S(r) <= 1 - beta, so the radius of the
class is the unique crossing point of the increasing function S.

Closed forms are provided for the three stock families (koebe, convex,
uniform); bisection handles any BoundFamily or CoefficientSeq.  One
bracketed solver (bisection closed by a secant step) serves the bisection
radii, the convex-family cubic and the Jacobian root scan.  Sharpness of
a radius is certified by locating the first zero of a witness Jacobian
profile and checking its sign pattern.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_beta, check_uniform
from .coefficients import (
    TAIL_EVAL_MAX,
    BoundFamily,
    CoefficientSeq,
    weighted_sum,
    weighted_sum_limit,
)
from .extremals import JacobianProfile
from .maps import HarmonicMap

__all__ = [
    "BISECTION_TOL",
    "NoRadiusError",
    "RadiusReport",
    "SharpnessReport",
    "radius_by_bisection",
    "koebe_family_radius",
    "convex_family_radius",
    "uniform_family_radius",
    "closed_form_radius",
    "jacobian_roots",
    "verify_sharpness",
]

BISECTION_TOL = 1e-12
_MAX_ITER = 200


class NoRadiusError(ValueError):
    """The membership condition already fails at r = 0."""


@dataclass(frozen=True)
class RadiusReport:
    """A computed radius with provenance.

    residual is the defining equation evaluated back at the radius:
    |S(radius) - (1-beta)| for bisection, the polynomial or rational
    residual for closed forms.  bracket is the final bisection interval
    (None for closed forms).  saturated means the condition held on all
    of [0, 1) and the radius is the conventional 1 - 1e-12.
    """

    radius: float
    method: str
    residual: float
    tolerance: float
    bracket: tuple | None = None
    saturated: bool = False
    label: str = ""
    beta: float = 0.0

    def __post_init__(self):
        if self.method not in ("closed_form", "bisection"):
            raise ValueError(f"unknown method {self.method!r}")

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "method": self.method,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "bracket": list(self.bracket) if self.bracket else None,
            "saturated": self.saturated,
            "label": self.label,
            "beta": self.beta,
        }


def _solve(fn, lo: float, hi: float, flo: float, fhi: float,
           tol: float = BISECTION_TOL) -> tuple[float, float, float]:
    """(root, lo, hi): a zero of fn bracketed in the final [lo, hi].

    flo = fn(lo) and fhi = fn(hi) must have opposite signs.  Bisects to
    width tol, then one secant step inside the final bracket sharpens the
    root well below the bracket width.  A midpoint where fn is exactly
    zero is returned at once with the bracket collapsed onto it.
    """
    for _ in range(_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid, mid, mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    if fhi != flo:
        root = lo - flo * (hi - lo) / (fhi - flo)
        root = min(max(root, lo), hi)
    else:
        root = 0.5 * (lo + hi)
    return root, lo, hi


def radius_by_bisection(family, beta: float = 0.0) -> RadiusReport:
    """sup{r in (0,1) : S(r) <= 1 - beta} for a BoundFamily or CoefficientSeq.

    S is increasing, so the sup is the crossing point of S(r) = 1 - beta,
    bracketed by bisection to 1e-12 and polished with one secant step.

    Raises:
        NoRadiusError: S(0) = |b1| already meets or exceeds 1 - beta.
    """
    beta = check_beta(beta)
    if not isinstance(family, (BoundFamily, CoefficientSeq)):
        raise TypeError("expected a BoundFamily or CoefficientSeq")
    target = 1.0 - beta
    label = family.kind if isinstance(family, BoundFamily) else "sequence"

    g0 = weighted_sum(family, 0.0) - target
    if g0 >= 0.0:
        raise NoRadiusError(
            f"condition fails already at r=0: S(0) = {g0 + target:g} >= {target:g}"
        )

    tailed = isinstance(family, CoefficientSeq) and family.tail is not None
    hi = TAIL_EVAL_MAX if tailed else 1.0 - 1e-12
    ghi = weighted_sum(family, hi) - target
    if ghi <= 0.0:
        if tailed and weighted_sum_limit(family) - target > 0.0:
            raise ValueError(
                "crossing lies beyond r=0.999 where the tail majorant "
                "is not evaluable; supply more explicit coefficients"
            )
        return RadiusReport(1.0 - 1e-12, "bisection", abs(ghi), BISECTION_TOL,
                            bracket=(hi, hi), saturated=True, label=label,
                            beta=beta)

    root, lo, hi = _solve(lambda r: weighted_sum(family, r) - target,
                          0.0, hi, g0, ghi)
    residual = abs(weighted_sum(family, root) - target)
    return RadiusReport(root, "bisection", residual, BISECTION_TOL,
                        bracket=(lo, hi), label=label, beta=beta)


def koebe_family_radius() -> RadiusReport:
    """Root in (0,1) of sqrt(2) r^2 - (1+2 sqrt(2)) r + sqrt(2) - 1 = 0.

    Solved with the cancellation-free quadratic formula: the linear
    coefficient dominates, so the small root is computed as c/q.
    """
    a = math.sqrt(2.0)
    b = -(1.0 + 2.0 * math.sqrt(2.0))
    c = math.sqrt(2.0) - 1.0
    disc = b * b - 4.0 * a * c  # = 1 + 8 sqrt(2) > 0
    q = (math.sqrt(disc) - b) / 2.0
    r = c / q
    residual = abs((a * r + b) * r + c)
    return RadiusReport(r, "closed_form", residual, 1e-9, label="koebe")


def convex_family_radius() -> RadiusReport:
    """Unique real root of 2 r^3 - 6 r^2 + 7 r - 1 = 0.

    The derivative 6 r^2 - 12 r + 7 has negative discriminant, so the
    cubic is strictly increasing and has exactly one real root, which
    p(0) = -1 and p(1) = 2 bracket in [0, 1].
    """
    p = lambda r: ((2.0 * r - 6.0) * r + 7.0) * r - 1.0
    r, _, _ = _solve(p, 0.0, 1.0, p(0.0), p(1.0))
    return RadiusReport(r, "closed_form", abs(p(r)), 1e-9, label="convex")


def uniform_family_radius(c: float, b1_abs: float = 0.0) -> RadiusReport:
    """r = 1 - sqrt(c / (c + 1 - b1_abs)); decreasing in both arguments."""
    c, b1 = check_uniform(c, b1_abs)
    r = 1.0 - math.sqrt(c / (c + 1.0 - b1))
    residual = abs(b1 + c * (1.0 / (1.0 - r) ** 2 - 1.0) - 1.0)
    return RadiusReport(r, "closed_form", residual, 1e-9, label="uniform")


def closed_form_radius(family: BoundFamily) -> RadiusReport:
    """The closed-form radius (beta = 0) of a stock bound family."""
    if family.kind == "koebe":
        return koebe_family_radius()
    if family.kind == "convex":
        return convex_family_radius()
    return uniform_family_radius(family.c, family.b1_abs)


def _as_profile(witness) -> JacobianProfile:
    """A HarmonicMap's Jacobian restricted to the real axis; profiles pass through."""
    if isinstance(witness, HarmonicMap):
        return JacobianProfile(witness.label, witness.jacobian)
    return witness


def jacobian_roots(profile, lo: float = 0.0, hi: float = 0.999,
                   num: int = 10000, tol: float = BISECTION_TOL) -> list[float]:
    """Zeros of a Jacobian profile on [lo, hi], sorted.

    Sign changes are bracketed on a num-point scan and refined by
    bisection to tol.  No sign change means an empty list; the profiles
    in scope are low-degree rational functions with well-separated roots,
    so the default scan density cannot straddle two roots in one cell.
    """
    profile = _as_profile(profile)
    if not 0.0 <= lo < hi < 1.0:
        raise ValueError("scan interval must satisfy 0 <= lo < hi < 1")
    grid = np.linspace(lo, hi, int(num))
    vals = np.array([profile(r) for r in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif (a < 0.0) != (b < 0.0):
            roots.append(_solve(profile, float(grid[i]), float(grid[i + 1]),
                                float(a), float(b), tol)[0])
    if len(vals) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots)


@dataclass(frozen=True)
class SharpnessReport:
    """Certificate that a claimed radius is exactly where a witness
    Jacobian first vanishes: J > 0 before it, J ~ 0 at it, J < 0 just
    after (so the witness stops being locally injective there)."""

    passed: bool
    label: str
    r_claimed: float
    interior_min: float
    root_residual: float
    exterior_margin: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "label": self.label,
            "r_claimed": self.r_claimed,
            "interior_min": self.interior_min,
            "root_residual": self.root_residual,
            "exterior_margin": self.exterior_margin,
        }


def verify_sharpness(witness, r_claimed: float,
                     interior_samples: int = 1000) -> SharpnessReport:
    """Check the sign pattern of a witness Jacobian around a claimed radius.

    witness is a JacobianProfile or a HarmonicMap (restricted to the real
    axis).  Passes when min J on (0, r_claimed) is positive,
    |J(r_claimed)| <= 1e-9, and J(r_claimed + 1e-3) < 0.
    """
    witness = _as_profile(witness)
    r = float(r_claimed)
    if not 0.0 < r < 1.0 - 1e-3:
        raise ValueError("claimed radius must lie in (0, 0.999)")
    inner = np.linspace(0.0, r, int(interior_samples) + 2)[1:-1]
    interior_min = min(witness(float(x)) for x in inner)
    root_residual = abs(witness(r))
    exterior_margin = -witness(r + 1e-3)
    passed = (interior_min > 0.0 and root_residual <= 1e-9
              and exterior_margin > 0.0)
    return SharpnessReport(passed, witness.label, r, float(interior_min),
                           float(root_residual), float(exterior_margin))
