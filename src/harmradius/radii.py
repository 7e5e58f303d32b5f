"""Radius computations for coefficient-bounded harmonic map families.

The central quantity is the weighted coefficient sum S(r) from the
coefficients module: a family member dilated to radius r satisfies the
membership condition exactly when S(r) <= 1 - beta, so the radius of the
class is the unique crossing point of the increasing function S.

Closed forms are provided for the three stock families (koebe, convex,
uniform); bisection handles any BoundFamily or CoefficientSeq.  One
bracketed solver (bisection closed by a secant step) serves the bisection
radii, the koebe and convex polynomials (FAMILY_POLYNOMIALS, which the
witness profiles share), the Jacobian root scan and the fold the
injectivity oracle refines across.  Sharpness of a radius
is certified by locating the first zero of a witness Jacobian and checking
its sign pattern.  The root scan evaluates its grid in one numpy call;
verify_sharpness samples with float calls unless numpy is already loaded,
so the radii and the sharpness check need no numpy.
"""

import math
import sys

from ._util import check_real, horner, record
from .coefficients import (
    FAMILY_POLYNOMIALS,
    SERIES_EVAL_MAX,
    BoundFamily,
    CoefficientSeq,
    _has_tail,
    weighted_sum,
    weighted_sum_limit,
)

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
_SCAN_POINTS = 10000  # jacobian_roots scan density
_INTERIOR_SAMPLES = 1000  # verify_sharpness samples of J on (0, r)


class NoRadiusError(ValueError):
    """The membership condition already fails at r = 0."""


class RadiusReport(record("RadiusReport", "radius method residual tolerance bracket "
                          "saturated label beta", (None, False, "", 0.0))):
    """A computed radius with provenance.

    residual is the defining equation evaluated back at the radius:
    |S(radius) - (1-beta)| for bisection, the polynomial or rational
    residual for closed forms.  bracket is the final bisection interval
    (None for closed forms).  saturated means the condition held on all
    of [0, 1) and the radius is the conventional 1 - 1e-12, with the
    bracket collapsed onto it; its residual is taken at 1 - 1e-12, or for
    a tailed sequence at 0.999, |S(0.999) - (1-beta)|, the last r its tail
    majorant is evaluated at.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.method not in ("closed_form", "bisection"):
            raise ValueError(f"unknown method {self.method!r}")
        return self


def _solve(fn, lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float, float]:
    """(root, lo, hi): a zero of fn bracketed in the final [lo, hi].

    flo = fn(lo) and fhi = fn(hi) must be nonzero, of opposite signs.  Bisects to
    width BISECTION_TOL, then one secant step inside the final bracket
    sharpens the root well below the bracket width.  A midpoint where fn
    is exactly zero is returned at once with the bracket collapsed onto it.
    """
    for _ in range(_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid, mid, mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    root = lo - flo * (hi - lo) / (fhi - flo)
    return min(max(root, lo), hi), lo, hi


def radius_by_bisection(family, beta: float = 0.0) -> RadiusReport:
    """sup{r in (0,1) : S(r) <= 1 - beta} for a BoundFamily or CoefficientSeq.

    S is increasing, so the sup is the crossing point of S(r) = 1 - beta,
    bracketed by bisection to 1e-12 and polished with one secant step.

    Raises:
        NoRadiusError: S(0) = |b1| already meets or exceeds 1 - beta.
    """
    beta = check_real(beta, "beta", 0.0, 1.0, "[)")
    if not isinstance(family, (BoundFamily, CoefficientSeq)):
        raise TypeError("expected a BoundFamily or CoefficientSeq")
    target = 1.0 - beta
    label = family.kind if isinstance(family, BoundFamily) else "sequence"

    g0 = weighted_sum(family, 0.0) - target
    if g0 >= 0.0:
        raise NoRadiusError(
            f"condition fails already at r=0: S(0) = {g0 + target:g} >= {target:g}"
        )

    tailed = isinstance(family, CoefficientSeq) and _has_tail(family)
    hi = SERIES_EVAL_MAX if tailed else 1.0 - 1e-12
    ghi = weighted_sum(family, hi) - target
    if ghi <= 0.0:
        # a tail of degree >= -2 has S(1^-) = inf: S crosses beyond hi
        if tailed and (family.tail.degree >= -2.0
                       or weighted_sum_limit(family) > target):
            raise ValueError(
                f"crossing lies beyond r={SERIES_EVAL_MAX} where the tail "
                "majorant is not evaluable; supply more explicit coefficients"
            )
        top = 1.0 - 1e-12  # the conventional radius, and the bracket collapsed onto it
        return RadiusReport(top, "bisection", abs(ghi), BISECTION_TOL, bracket=(top, top),
                            saturated=True, label=label, beta=beta)

    root, lo, hi = _solve(lambda r: weighted_sum(family, r) - target,
                          0.0, hi, g0, ghi)
    residual = abs(weighted_sum(family, root) - target)
    return RadiusReport(root, "bisection", residual, BISECTION_TOL,
                        bracket=(lo, hi), label=label, beta=beta)


def koebe_family_radius() -> RadiusReport:
    """The koebe family's closed-form radius, 0.1129029312079177."""
    return closed_form_radius(BoundFamily.koebe())


def convex_family_radius() -> RadiusReport:
    """The convex family's closed-form radius, 0.16487765151863348."""
    return closed_form_radius(BoundFamily.convex())


def uniform_family_radius(c: float, b1_abs: float = 0.0) -> RadiusReport:
    """The closed-form radius of the uniform family with bound c and |b1|."""
    return closed_form_radius(BoundFamily.uniform(c, b1_abs))


def closed_form_radius(family: BoundFamily) -> RadiusReport:
    """The closed-form radius (beta = 0) of a stock bound family.

    koebe, convex: the (0, 1) root of the family polynomial, residual
    |p(r)|.  uniform: r = 1 - sqrt(q) = (1-q)/(1+sqrt(q)), q = c/(c+1-|b1|),
    residual |S(r) - 1|, saturated (as by bisection) from 1 - 1e-12 on.
    The tolerance is 1e-9, or for uniform the change of S over one ulp of
    r, S'(r) ulp(r) with S'(r) = 2c/(1-r)^3, where that is larger (small c).
    """
    if family.kind == "uniform":
        gap = 1.0 - family.b1_abs
        den = family.c + gap
        s = math.sqrt(family.c / den)
        # 1 - s has one rounding but cancels as s nears 1; (1-q)/(1+s) does not
        r = 1.0 - s if s < 0.5 else gap / den / (1.0 + s)
        saturated, r = r >= 1.0 - 1e-12, min(r, 1.0 - 1e-12)
        tolerance = max(1e-9, 2.0 * (family.c * math.ulp(r)) / (1.0 - r) ** 3)
        return RadiusReport(r, "closed_form", abs(weighted_sum(family, r) - 1.0),
                            tolerance, saturated=saturated, label=family.kind)
    p = lambda x: horner(FAMILY_POLYNOMIALS[family.kind], x)
    r = _solve(p, 0.0, 1.0, p(0.0), p(1.0))[0]
    return RadiusReport(r, "closed_form", abs(p(r)), 1e-9, label=family.kind)


def _jacobian(witness):
    """A HarmonicMap's Jacobian (its jacobian method) restricted to the real
    axis; a profile, which has no such method, is one."""
    return getattr(witness, "jacobian", witness)


def jacobian_roots(profile, lo: float = 0.0, hi: float = 0.999) -> list[float]:
    """Zeros of a Jacobian profile on [lo, hi], sorted.

    Exact zeros of a _SCAN_POINTS-point scan are roots; sign changes
    between two nonzero neighbours are refined by the bracketed solver.
    No sign change means an empty list; the profiles in scope are
    low-degree rational functions with well-separated roots, so the scan
    density cannot straddle two roots in one cell.
    """
    import numpy as np

    jac = _jacobian(profile)
    lo, hi = check_real(lo, "lo", 0.0, 1.0, "[)"), check_real(hi, "hi", 0.0, 1.0, "[)")
    if not lo < hi:
        raise ValueError("scan interval must satisfy 0 <= lo < hi < 1")
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = jac(grid)
    nonzero = vals != 0.0
    cross = nonzero[:-1] & nonzero[1:] & ((vals[:-1] < 0.0) != (vals[1:] < 0.0))
    roots = [float(x) for x in grid[~nonzero]]
    roots += [_solve(jac, float(grid[i]), float(grid[i + 1]),
                     float(vals[i]), float(vals[i + 1]))[0]
              for i in np.flatnonzero(cross)]
    return sorted(roots)


class SharpnessReport(record("SharpnessReport", "passed label r_claimed interior_min "
                             "root_residual exterior_margin")):
    """Certificate that a claimed radius is exactly where a witness
    Jacobian first vanishes: J > 0 before it, J ~ 0 at it, J < 0 just
    after (so the witness stops being locally injective there)."""

    __slots__ = ()


def verify_sharpness(witness, r_claimed: float) -> SharpnessReport:
    """Check the sign pattern of a witness Jacobian around a claimed radius.

    witness is a JacobianProfile or a HarmonicMap (restricted to the real
    axis).  Passes when min J on (0, r_claimed) is positive,
    |J(r_claimed)| <= 1e-9, and J(r_claimed + 1e-3) < 0.  The interior
    samples are numpy's linspace(0, r, 1002) without its ends.
    """
    jac = _jacobian(witness)
    r = check_real(r_claimed, "claimed radius", 0.0, 1.0 - 1e-3)
    # A profile gives the same floats called on an array or element-wise (a
    # map the same to within rounding).  One array call is some 30x faster,
    # but importing numpy for it costs a cold process far more than the
    # float calls, so only a process that has numpy already takes the array
    # path.
    if "numpy" in sys.modules:
        import numpy as np

        inner = np.linspace(0.0, r, _INTERIOR_SAMPLES + 2)[1:-1]
        # an overflow gives the float path's inf or NaN, refused on output
        with np.errstate(over="ignore", invalid="ignore"):
            interior_min = float(jac(inner).min())
    else:
        # linspace's samples: i * (r/n), or (i/n) * r where r/n underflows;
        # the key ranks a NaN first, as numpy's min propagates it
        n = _INTERIOR_SAMPLES + 1
        step = r / n
        interior_min = min((jac(i * step if step else i / n * r) for i in range(1, n)),
                           key=lambda v: (v == v, v))
    root_residual = abs(jac(r))
    exterior_margin = -jac(r + 1e-3)
    passed = (interior_min > 0.0 and root_residual <= 1e-9
              and exterior_margin > 0.0)
    return SharpnessReport(passed, witness.label, r, interior_min,
                           float(root_residual), float(exterior_margin))
