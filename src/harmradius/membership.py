"""Membership checks for coefficient-bounded harmonic map classes.

Two kinds of check live here.  Exact coefficient tests (coeff_condition,
coefficient_growth_check) decide membership from a map's source (see
HarmonicMap.source): a stored sequence, read in place with the dilation's
weights rho^(n-1), and for coeff_condition also a named map dilated by
rho < 1, by its family's S(rho) in closed form.
Sampling checks (c_h2_numeric, starlike_scan, injectivity_oracle) evaluate
a map on a finite grid; they can certify violation with a witness point
but can only report satisfied-on-grid, never a proof, so their verdicts
carry the grid description and, for the injectivity oracle, the verdict
"inconclusive" when no collision is found.  The oracle first tries the
argument principle on its samples: a crossing of the image of |z| = r,
found by a sweep over the image polygon's edges sorted by x, that
refines to a collision decides violated, and a simple boundary image
with J > 0 on it, around which f_z winds 0 times, settles inconclusive.
Otherwise it refines pairs of points across the fold or branch point
that its least J on the ring and a Cartesian grid marks, next to which
the map is two-to-one.
Each covers a disk |z| <= r (a GridSpec's r_max, or the oracle's r) and
evaluates it with numpy's overflow warnings off: the inf or NaN of an
overflow is refused as "map evaluation is not finite on the grid".

Margins are minimum slacks of the defining inequality over the test set.
A margin within BOUNDARY_TOL of zero is reported as satisfied with a
boundary flag: the extremal examples sit exactly on the boundary.

The coefficient checks run on the standard library.  numpy (the module
attribute np) loads on first lookup, made by a sampled check or a grid; a
reassigned attribute is the one used.  The attribute cKDTree loads
scipy.spatial likewise; no check calls it, but perfbench's tracer wraps it.
"""

from __future__ import annotations

import cmath
import math
import sys

from ._util import check_index, check_real, record
from .coefficients import (SERIES_EVAL_MAX, BoundFamily, CoefficientSeq, _has_tail, _moduli,
                           _sum_limit, weighted_sum)
from .maps import HarmonicMap
from .radii import _solve

__all__ = [
    "BOUNDARY_TOL",
    "COLLISION_TOL",
    "GridSpec",
    "MembershipReport",
    "coeff_condition",
    "c_h2_numeric",
    "starlike_scan",
    "injectivity_oracle",
    "coefficient_growth_check",
]

BOUNDARY_TOL = 1e-12
# Two points more than two grid pitches apart whose images, after Newton
# refinement, lie within COLLISION_TOL certify a collision; injectivity_oracle
# scales it down on grids with a pitch below 1e-4.
COLLISION_TOL = 1e-9
# Most points a GridSpec samples: the injectivity oracle's largest grid, 512 x 512.
_MAX_GRID_POINTS = 512 * 512
# Largest radius a GridSpec samples, 1 - 3 * 2^-53: at the two floats above
# it, r_max e^(i theta) rounds to |z| = 1 for most angular counts.
_MAX_CIRCLE = 0.9999999999999997
# Most crossings of its ring polygon the injectivity oracle Newton-refines.
_MAX_REFINED = 2000
# Least 5/16 of a grid pitch the injectivity oracle takes, a power of two,
# 2^-511, whose square is the smallest normal float: at it a ring edge is about
# 3.7e-154 long, so the crossing test's cross product of two edges is about
# 1.4e-307, at the edge of the normal range.
_MIN_REACH = math.sqrt(sys.float_info.min)
# Widest span of ring images the crossing test takes: its square is the
# largest finite float.
_MAX_SPAN = math.sqrt(sys.float_info.max)
# Points per slice of the oracle's grid evaluation of J, so that each temporary stays small.
_BLOCK = 32_768


def __getattr__(name):
    # numpy loads on the first lookup of np, scipy.spatial on that of cKDTree
    if name == "np":
        import numpy as value
    elif name == "cKDTree":
        from scipy.spatial import cKDTree as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _np():
    """numpy, as the module attribute np (see __getattr__)."""
    return sys.modules[__name__].np


class GridSpec(record("GridSpec", "n_radial n_angular r_max", (200, 64, SERIES_EVAL_MAX))):
    """Polar sampling grid: n_radial circles, geometrically clustered
    toward r_max (which is included; 0 is not), times n_angular equally
    spaced angles starting on the positive real axis; at most 512 x 512
    points in all.  It holds the checked numbers: two ints and a float r_max.
    The outer circle is sampled at min(r_max, 0.9999999999999997), so that
    no rounded sample lies on |z| = 1; describe prints r_max itself."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n_radial = check_index(self.n_radial, 2, "grid size")
        n_angular = check_index(self.n_angular, 1, "grid size")
        if n_radial * n_angular > _MAX_GRID_POINTS:
            raise ValueError(f"grid of {n_radial}x{n_angular} points exceeds "
                             f"the {_MAX_GRID_POINTS} points a grid may sample")
        r_max = check_real(self.r_max, "r_max", 0.0, 1.0)
        return super().__new__(cls, n_radial, n_angular, r_max)

    def radii(self) -> np.ndarray:
        np = _np()
        rem = np.geomspace(0.99, 1e-6, self.n_radial - 1)
        return np.append(self.r_max * (1.0 - rem), min(self.r_max, _MAX_CIRCLE))

    def points(self) -> np.ndarray:
        np = _np()
        ang = np.exp(2j * np.pi * np.arange(self.n_angular) / self.n_angular)
        return np.outer(self.radii(), ang).ravel()

    def describe(self) -> str:
        return (f"{self.n_radial}x{self.n_angular} polar grid, geometric "
                f"clustering toward r_max={float(self.r_max)!r}")


class MembershipReport(record("MembershipReport", "verdict margin witness grid_spec boundary "
                              "note", (None, "", False, ""))):
    """Outcome of one membership check.

    margin: minimum slack of the defining inequality over the test set.
    witness: point, index, or point pair achieving the margin (populated
        whenever the verdict is violated).
    boundary: margin was zero to within BOUNDARY_TOL.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.verdict not in ("satisfied", "violated", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        return self


def _graded_verdict(margin: float, witness, grid_spec: str, note: str = "") -> MembershipReport:
    if margin > BOUNDARY_TOL:
        return MembershipReport("satisfied", margin, witness, grid_spec, False, note)
    if margin >= -BOUNDARY_TOL:
        return MembershipReport("satisfied", margin, witness, grid_spec, True, note)
    return MembershipReport("violated", margin, witness, grid_spec, False, note)


# -- exact coefficient checks -----------------------------------------------

def _source(x, closed_form: bool = False) -> tuple:
    """(CoefficientSeq or BoundFamily, rho) that a coefficient check reads: a
    sequence undilated, or a map's source.  A named map is refused
    (ValueError), unless closed_form admits one dilated by rho < 1."""
    if not isinstance(x, (CoefficientSeq, HarmonicMap)):
        raise TypeError("expected a CoefficientSeq or a series-backed HarmonicMap")
    seq, rho = x.source if isinstance(x, HarmonicMap) else (x, 1.0)
    if isinstance(seq, BoundFamily) and not (closed_form and rho < 1.0):
        raise ValueError(f"{x.label}: closed-form map has no finite coefficient sequence")
    return seq, rho


def _family_terms(family, rho: float) -> dict[int, float]:
    """{1: |b1|, n: the heaviest term n (A_n + B_n) rho^(n-1) of a family's S(rho), n >= 2}.
    The terms rise, then fall: a bracket doubles past the top, then halves onto it."""
    term = lambda n: n * sum(family.bounds(n)) * rho ** (n - 1)
    lo, hi = 2, 2
    while term(hi + 1) > term(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if term(mid + 1) <= term(mid) else (mid + 1, hi)
    return {1: family.bounds(1)[1], lo: term(lo)}


def coeff_condition(seq, beta: float = 0.0) -> MembershipReport:
    """Check |b1| + sum n(|a_n|+|b_n|) <= 1 - beta.

    margin = (1-beta) - S(1-).  A map dilated by rho has moduli its source's
    times rho^(n-1).  For a series, S(1-) sums the stored ones so weighted,
    plus the undilated tail's S(1-), which still bounds the dilated tail.
    For a named map dilated by rho < 1 it is the family's S(rho), in closed
    form; an undilated one has no finite sum and is refused, and so is a
    sum that overflows (ValueError).  Requires |b1| < 1-beta up front;
    failing that, returns a violation without summing.
    """
    beta = check_real(beta, "beta", 0.0, 1.0, "[)")
    seq, rho = _source(seq, closed_form=True)
    named = isinstance(seq, BoundFamily)
    b1a = seq.bounds(1)[1] if named else abs(seq.b1)
    spec = "coefficient series, exact limit at r=1"
    if b1a >= 1.0 - beta:
        return MembershipReport("violated", (1.0 - beta) - b1a, 1, spec,
                                note="precondition |b1| < 1 - beta fails")
    margin = (1.0 - beta) - (weighted_sum(seq, rho) if named else _sum_limit(seq, rho))
    if not math.isfinite(margin):
        raise ValueError("coefficient sum S(1-) is not finite")
    witness = None
    if margin < -BOUNDARY_TOL:
        # no single index breaks a sum condition; point at the heaviest term
        terms = (_family_terms(seq, rho) if named
                 else {n: n * (a + b) for n, (a, b) in _moduli(seq, rho).items()})
        witness = max(terms, key=terms.get, default=1)
    note = f"the {seq.kind} family's S(r) in closed form at r={rho!r}" if named else ""
    return _graded_verdict(margin, witness, spec, note)


def coefficient_growth_check(seq, beta: float = 0.0) -> MembershipReport:
    """Necessary coefficient bounds for membership with parameter beta.

    Two families: | |a_n| - |b_n| | <= (1-beta)/n per index n >= 2 where
    a_n or b_n is nonzero, and the aggregate sum
    n^2 (|a_n|^2 + |b_n|^2) <= (1-beta)^2 - |b1|^2.
    margin is the smaller of the two slacks; the note carries both.  A map
    dilated by rho is read as its stored moduli times rho^(n-1); a named
    map, and a sum of squares past the float range (ValueError), are refused.
    """
    beta = check_real(beta, "beta", 0.0, 1.0, "[)")
    seq, rho = _source(seq)
    spec = "coefficient series, exact"
    if _has_tail(seq):
        return MembershipReport(
            "inconclusive", 0.0, None, spec,
            note="tail bound present: per-index growth cannot be checked",
        )
    one = 1.0 - beta
    # indices with a nonzero coefficient; a stored zero checks nothing
    moduli = {n: ab for n, ab in _moduli(seq, rho).items() if n >= 2 and any(ab)}
    per_margin, per_witness = one, None
    for n, (an, bn) in moduli.items():
        slack = one / n - abs(an - bn)
        if slack < per_margin:
            per_margin, per_witness = slack, n
    try:  # ** raises OverflowError past the float range, and so does fsum
        squares = {n: n * n * (an ** 2 + bn ** 2) for n, (an, bn) in moduli.items()}
        total = math.fsum(squares.values())
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ValueError("sum of squares n^2 (|a_n|^2 + |b_n|^2) is not finite")
    agg_margin = one * one - abs(seq.b1) ** 2 - total
    agg_witness = (max(squares, key=squares.get)
                   if agg_margin <= per_margin and squares else None)
    note = f"per-index margin {per_margin:.6g}, sum-of-squares margin {agg_margin:.6g}"
    if per_margin <= agg_margin:
        return _graded_verdict(per_margin, per_witness, spec, note)
    return _graded_verdict(agg_margin, agg_witness, spec, note)


# -- sampled checks ----------------------------------------------------------

def _require_finite(vals: np.ndarray) -> None:
    if not _np().isfinite(vals).all():
        raise ValueError("map evaluation is not finite on the grid")


def _sampled_verdict(vals: np.ndarray, pts: np.ndarray, grid: GridSpec) -> MembershipReport:
    """The graded verdict at the smallest slack vals[i], sampled at pts[i]."""
    np = _np()
    _require_finite(vals)
    i = int(np.argmin(vals))
    return _graded_verdict(float(vals[i]), complex(pts[i]), grid.describe(),
                           note="sampled check: satisfied means satisfied on the grid")


def c_h2_numeric(f: HarmonicMap, beta: float = 0.0,
                 grid: GridSpec | None = None) -> MembershipReport:
    """Sample the defining inequality |f_z - 1| < 1 - beta - |f_zbar|.

    margin = min over the grid of (1-beta) - |f_zbar| - |f_z - 1|.
    """
    np = _np()
    beta = check_real(beta, "beta", 0.0, 1.0, "[)")
    grid = grid or GridSpec()
    pts = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _sampled_verdict
        fz, fzbar = f.wirtinger(pts)
        return _sampled_verdict((1.0 - beta) - np.abs(fzbar) - np.abs(fz - 1.0), pts, grid)


def starlike_scan(f: HarmonicMap, r: float,
                  grid: GridSpec | None = None) -> MembershipReport:
    """Sample the angular derivative of arg f on circles of radius up to r.

    margin = min over sampled z of Re[(z f_z(z) - conj(z) f_zbar(z)) / f(z)],
    the rate of change of arg f along the circle through z.  A sample with
    |f(z)| < 1e-12 r_max yields an inconclusive singularity report; scaled
    by the grid's r_max, the test reads f and its dilation f(rz)/r alike.
    A grid whose innermost circle is subnormal (r_max below about 2.2e-306)
    raises ValueError: numpy's complex division of subnormals is not finite.
    """
    np = _np()
    if grid is None:
        grid = GridSpec(r_max=r)  # checks r, as r_max
    elif grid.r_max > check_real(r, "scan radius", 0.0, 1.0):
        raise ValueError("grid r_max exceeds the scan radius")
    pts = grid.points()
    if pts[0].real < sys.float_info.min:  # pts[0] lies on the innermost circle
        raise ValueError(f"scan radius {float(grid.r_max)!r} is too small: "
                         "its inner circle is subnormal")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _sampled_verdict
        fval = f(pts)
        small = np.abs(fval) < 1e-12 * grid.r_max
        if np.any(small):
            z0 = complex(pts[int(np.argmax(small))])
            return MembershipReport(
                "inconclusive", 0.0, z0, grid.describe(),
                note="singularity: |f(z)| < 1e-12 r_max at a sample point",
            )
        fz, fzbar = f.wirtinger(pts)
        return _sampled_verdict(np.real((pts * fz - np.conj(pts) * fzbar) / fval), pts, grid)


def _newton_collide(f: HarmonicMap, target: complex, z: complex, r: float, scale: float):
    """Refine z so that f(z) = target; returns (z, residual) or None.  The
    stopping tests on the residual and the step are 1e-13 and 1e-14 times
    scale, the grid's image scale (see injectivity_oracle)."""
    for _ in range(25):
        val = f(z) - target
        if abs(val) <= 1e-13 * scale:
            break
        fz, fzbar = f.wirtinger(z)
        fx = fz + fzbar
        fy = 1j * (fz - fzbar)
        det = fx.real * fy.imag - fy.real * fx.imag
        if abs(det) < 1e-14:
            return None
        dx = (-val.real * fy.imag + val.imag * fy.real) / det
        dy = (-fx.real * val.imag + val.real * fx.imag) / det
        step = complex(dx, dy)
        z = z + step
        if abs(z) > r:
            return None
        if abs(step) < 1e-14 * scale:
            break
    return z, abs(f(z) - target)


def _ring_collide(f: HarmonicMap, rho: float, alpha: np.ndarray, beta: np.ndarray,
                  scale: float):
    """Refine each pair of angles so that f(rho e^(i alpha)) = f(rho e^(i beta)),
    all pairs at once; returns the points z1 and z2 and the residuals
    |f(z1) - f(z2)|, nan where Newton gave up.  Newton runs in the arc
    lengths rho alpha and rho beta, along which f moves at
    i(w f_z - conj(w) f_zbar), w = e^(i angle), with _newton_collide's
    stopping tests, pair by pair."""
    np = _np()

    def speed(w):  # df / d(arc length) at rho w
        fz, fzbar = f.wirtinger(rho * w)
        return 1j * (w * fz - np.conj(w) * fzbar)

    alpha, beta = alpha.copy(), beta.copy()
    live, gave_up = np.arange(alpha.size), np.zeros(alpha.size, bool)
    for _ in range(25):
        w1, w2 = np.exp(1j * alpha[live]), np.exp(1j * beta[live])
        val = f(rho * w1) - f(rho * w2)
        go = np.abs(val) > 1e-13 * scale
        live, val, w1, w2 = live[go], val[go], w1[go], w2[go]
        if live.size == 0:
            break
        d1, d2 = speed(w1), -speed(w2)
        det = d1.real * d2.imag - d2.real * d1.imag
        singular = np.abs(det) < 1e-14
        gave_up[live[singular]] = True
        live, val, d1, d2, det = (x[~singular] for x in (live, val, d1, d2, det))
        du = (-val.real * d2.imag + val.imag * d2.real) / det
        dv = (-d1.real * val.imag + val.real * d1.imag) / det
        alpha[live] += du / rho
        beta[live] += dv / rho
        live = live[np.hypot(du, dv) >= 1e-14 * scale]
    z1, z2 = rho * np.exp(1j * alpha), rho * np.exp(1j * beta)
    resid = np.abs(f(z1) - f(z2))
    resid[gave_up] = np.nan
    return z1, z2, resid


def _span(p: np.ndarray) -> float:
    """The diagonal of the bounding box of the points p: inf or nan when
    one is not finite."""
    return math.hypot(p.real.max() - p.real.min(), p.imag.max() - p.imag.min())


def _crossings(p: np.ndarray):
    """The pairs of non-adjacent edges of the closed polygon through the
    points p, in order, that meet, touching included: edge k runs from
    p[k] to p[k + 1].  Returns (i, j, s, t), the pairs i < j in increasing
    order and the parameters in [0, 1] of the meeting point along each
    edge (1/2 on both where the two edges are parallel); or None when p
    is not finite or spans more than _MAX_SPAN (see _span), images the
    oracle refuses, so that every cross product below is finite.

    Two edges that meet overlap in x.  The edges are sorted by their least
    x, and one search finds, for each edge, the later ones that start
    within its x-range: the interval-overlap step of a sweep (Shamos &
    Hoey, FOCS 1976).  Of those pairs, the ones whose y-ranges overlap too
    take the cross-product test."""
    np = _np()
    if not _span(p) <= _MAX_SPAN:
        return None
    m = p.size
    a, b = p, np.roll(p, -1)
    d = b - a
    lo_x, hi_x = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    lo_y, hi_y = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    # sorted by least x: each edge and every later one whose least x is at most its most x
    order = np.argsort(lo_x, kind="stable")
    later = np.searchsorted(lo_x[order], hi_x[order], side="right") - np.arange(1, m + 1)
    u = np.repeat(np.arange(m), later)
    v = u + 1 + np.arange(u.size) - np.repeat(np.cumsum(later) - later, later)
    u, v = order[u], order[v]
    i, j = np.minimum(u, v), np.maximum(u, v)
    gap = j - i
    keep = ((gap > 1) & (gap < m - 1)  # adjacent edges share a vertex by design
            & (lo_y[i] <= hi_y[j]) & (lo_y[j] <= hi_y[i]))
    i, j = i[keep], j[keep]

    def cross(e, q):  # the cross product e x q
        return e.real * q.imag - e.imag * q.real

    apart = ((np.sign(cross(d[i], a[j] - a[i])) * np.sign(cross(d[i], b[j] - a[i])) > 0.0)
             | (np.sign(cross(d[j], a[i] - a[j])) * np.sign(cross(d[j], b[i] - a[j])) > 0.0))
    i, j = i[~apart], j[~apart]
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    # p[i] + s d[i] = p[j] + t d[j]
    w, den = a[j] - a[i], cross(d[i], d[j])
    parallel = den == 0.0
    den = np.where(parallel, 1.0, den)
    s, t = (np.where(parallel, 0.5, np.clip(cross(w, e) / den, 0.0, 1.0)) for e in (d[j], d[i]))
    return i, j, s, t


def _fold(f: HarmonicMap, c: complex) -> complex:
    """Where J = 0 on the segment from 0 to c, when J(0) > 0 > J(c) (a
    fold of f, see radii._solve); otherwise c itself."""
    lo, hi = f.jacobian(0j), f.jacobian(c)
    if not lo > 0.0 > hi:
        return c
    t = _solve(lambda t: f.jacobian(t * c), 0.0, 1.0, lo, hi)[0]
    return t * c


def injectivity_oracle(f: HarmonicMap, r: float,
                       resolution: int = 256) -> MembershipReport:
    """Search for two well-separated points with the same image.

    First, the argument principle (Duren, Hengartner & Laugesen, Amer.
    Math. Monthly 103 (1996) 411-415): a map with J > 0 on |z| <= r whose
    image of |z| = r is a Jordan curve is univalent there.  The oracle
    samples f at 4 * resolution points of the ring |z| = r (pulled in by
    2^-50, so that every sample lies in the disk) and finds where the
    closed polygon through their images crosses itself (see _crossings).
    At most _MAX_REFINED crossings, in edge order, are Newton-refined in
    the two angles to a double point of the ring (see _ring_collide); the
    first whose points lie more than two pitches apart and whose images,
    f evaluated at each point alone, lie within the collision tolerance
    ends the call as violated, with the margin residual - tol and a note
    that names the ring.  When the polygon is simple, J > 0 at the ring's
    samples and f_z = h', nonzero at each, winds 0 times over them (the
    rounded sum of the principal arguments of successive ratios), it
    reports inconclusive, with the margin 5 pitches - tol: h' then has no
    zero in |z| <= r, so |f_zbar / f_z| < 1 on the ring holds inside too
    (maximum principle), and J > 0 on the disk.

    Otherwise a univalent map has J != 0 (Lewy, Bull. Amer. Math. Soc. 42
    (1936) 689-692), and next to a fold or branch point of J the map is
    two-to-one.  The oracle takes the sample of least J, on the ring and
    on a resolution x resolution Cartesian grid over |z| <= r; where J < 0
    there it finds the fold J = 0 on the segment from 0 to it (see _fold),
    and otherwise keeps the sample, a branch point, where J only touches
    0.  It places two points across that point, 1.25, 2, 4 and 8 pitches
    to either side along v = sqrt(-f_zbar / f_z) / |.| (v = 1 where either
    derivative is 0), the direction f folds, and along i v, and
    Newton-refines the second of each, in both orders, onto the image of
    the first (see _newton_collide).  A pair in |z| <= r more than two
    pitches apart with images within the collision tolerance is violated,
    margin residual - tol; otherwise the verdict is inconclusive, since
    sampling cannot prove injectivity, with the margin the least refined
    residual - tol, or 5 pitches - tol when no start refined.

    The collision tolerance is COLLISION_TOL and Newton stops at a residual
    of 1e-13, both times the grid's image scale, min(1, pitch / 1e-4): on
    a grid with a pitch below 1e-4 (a tiny radius) a collision must lie
    far below the grid's own resolution.  A radius whose 5/16 of a pitch
    is below _MIN_REACH (r below about 1e-151 at resolution 512), where the
    crossing test's cross products would underflow, raises ValueError,
    and so do ring images or Jacobians that are not finite,
    and ring images that span more than _MAX_SPAN, where the crossing test
    would overflow.
    """
    np = _np()
    r = check_real(r, "radius", 0.0, 1.0)
    resolution = check_index(resolution, None, "resolution")
    if not 8 <= resolution <= 512:
        raise ValueError("resolution must lie in [8, 512]")
    pitch = 2.0 * r / (resolution - 1)
    if 5.0 * pitch / 16 < _MIN_REACH:
        raise ValueError(f"radius {r!r} is too small for a {resolution}x{resolution} grid: "
                         f"the crossing test's cross products at its pitch would underflow")
    sep = 2.0 * pitch
    scale = min(1.0, pitch / 1e-4)
    tol = COLLISION_TOL * scale
    spec = (f"{resolution}x{resolution} cartesian grid on |z|<={r!r}, "
            f"pitch {pitch:.3g}, Newton-refined collision candidates")

    m = 4 * resolution
    # pulled in by a few ulps, so that no rounded ring sample lies beyond r
    rho = r * (1.0 - 2.0 ** -50)
    ring = rho * np.exp(2j * np.pi * np.arange(m) / m)
    with np.errstate(over="ignore", invalid="ignore"):
        images = f(ring)
        _require_finite(images)
        crossed = _crossings(images)
        if crossed is None:
            raise ValueError(f"the images of the ring |z|={r!r} span {_span(images):.3g}: "
                             f"the crossing test's cross products would overflow")
        if crossed[0].size:
            i, j, s, t = (part[:_MAX_REFINED] for part in crossed)
            edge = 2.0 * math.pi / m
            z1, z2, resid = _ring_collide(f, rho, (i + s) * edge, (j + t) * edge, scale)
            # the crossings in edge order; f at each point alone certifies a collision
            for k in np.flatnonzero((resid <= tol) & (np.abs(z1 - z2) > sep)).tolist():
                w1, w2 = complex(z1[k]), complex(z2[k])
                gap = abs(f(w1) - f(w2))
                if gap <= tol:
                    return MembershipReport(
                        "violated", gap - tol, (w1, w2), spec,
                        note=f"images coincide to {gap:.3g} at separated points of the "
                             f"ring |z|=r",
                    )

        jac = f.jacobian(ring)
        _require_finite(jac)
        if crossed[0].size == 0 and jac.min() > 0.0:
            # f_z winding 0 times has no zero inside the ring, and then J > 0 inside too
            fz = f.wirtinger(ring)[0]
            if fz.all() and abs(np.angle(np.roll(fz, -1) / fz).sum()) < math.pi:
                return MembershipReport(
                    "inconclusive", 5.0 * pitch - tol, None, spec,
                    note="argument principle: J > 0 at every sample and the image "
                         "of |z|=r is a simple polygon",
                )
        axis = np.linspace(-r, r, resolution)
        grid = (axis + 1j * axis[:, None]).ravel()
        grid = grid[np.abs(grid) <= r]
        jac = np.concatenate([jac, *(f.jacobian(grid[k:k + _BLOCK])
                                     for k in range(0, grid.size, _BLOCK))])
        _require_finite(jac)
        k = int(np.argmin(jac))
        centre = _fold(f, complex(ring[k] if k < m else grid[k - m]))
        # where |f_z| = |f_zbar|, f_z v + f_zbar conj(v) = 0: f folds along v
        fz, fzbar = f.wirtinger(centre)
        v = cmath.sqrt(-fzbar / fz) if fz else 0.0
        v = v / abs(v) if 0.0 < abs(v) < math.inf else 1.0

    best = None
    for step in (1.25, 2.0, 4.0, 8.0):
        for u in (v, 1j * v):
            a, b = centre + step * pitch * u, centre - step * pitch * u
            if not (abs(a) <= r and abs(b) <= r):
                continue
            for z1, z2 in ((a, b), (b, a)):
                refined = _newton_collide(f, f(z1), z2, r, scale)
                if refined is None:
                    continue
                z2r, resid = refined
                if abs(z2r - z1) <= sep:
                    continue
                best = resid if best is None else min(best, resid)
                if resid <= tol:
                    return MembershipReport(
                        "violated", resid - tol, (z1, z2r), spec,
                        note=f"images coincide to {resid:.3g} at separated points",
                    )
    return MembershipReport(
        "inconclusive", (5.0 * pitch if best is None else best) - tol, None, spec,
        note="no pair across the sample of least J refined to a collision",
    )
