"""Membership checks for coefficient-bounded harmonic map classes.

Two kinds of check live here.  Exact coefficient tests (coeff_condition,
coefficient_growth_check) decide membership from a stored sequence.
Sampling checks (c_h2_numeric, starlike_scan, injectivity_oracle) evaluate
a map on a finite grid; they can certify violation with a witness point
but can only report satisfied-on-grid, never a proof, so their verdicts
carry the grid description and, for the injectivity oracle, the verdict
"inconclusive" when no collision is found.  The oracle first tries the
argument principle on its samples (J > 0 everywhere and a simple
boundary image) and searches for a collision only when that fails.

Margins are minimum slacks of the defining inequality over the test set.
A margin within BOUNDARY_TOL of zero is reported as satisfied with a
boundary flag: the extremal examples sit exactly on the boundary.

The coefficient checks run on the standard library.  numpy (the module
attribute np) loads on first lookup, made by a sampled check or a grid; a
reassigned attribute is the one used.  The attribute cKDTree loads
scipy.spatial likewise; no check calls it, but perfbench's tracer wraps it.
"""

from __future__ import annotations

import math
import sys

from ._util import check_beta, record
from .coefficients import CoefficientSeq, _has_tail, _moduli, weighted_sum_limit

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .maps import HarmonicMap

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
# Two grid samples whose images land within COLLISION_TOL (after Newton
# refinement) count as one image point; injectivity_oracle scales it down on
# grids with a pitch below 1e-4.
COLLISION_TOL = 1e-9
# Most points a GridSpec samples: the injectivity oracle's largest grid, 512 x 512.
_MAX_GRID_POINTS = 512 * 512
# Most candidate pairs the injectivity oracle Newton-refines, closest images first.
_MAX_REFINED = 2000
# Shortest pair-search reach: its square is the smallest normal float.
_MIN_REACH = math.sqrt(sys.float_info.min)
# Widest image span the pair search takes: its square is the largest finite float.
_MAX_SPAN = math.sqrt(sys.float_info.max)
# Cell offsets: the cell itself and the forward neighbours that pair each two
# touching cells once.
_NEIGHBOURS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


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


class GridSpec(record("GridSpec", "n_radial n_angular r_max", (200, 64, 0.999))):
    """Polar sampling grid: n_radial circles, geometrically clustered
    toward r_max (which is included; 0 is not), times n_angular equally
    spaced angles starting on the positive real axis; at most 512 x 512
    points in all."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_radial < 2 or self.n_angular < 1:
            raise ValueError("grid needs n_radial >= 2, n_angular >= 1")
        if self.n_radial * self.n_angular > _MAX_GRID_POINTS:
            raise ValueError(f"grid of {self.n_radial}x{self.n_angular} points exceeds "
                             f"the {_MAX_GRID_POINTS} points a grid may sample")
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")
        return self

    def radii(self) -> np.ndarray:
        np = _np()
        rem = np.geomspace(0.99, 1e-6, self.n_radial - 1)
        return np.append(self.r_max * (1.0 - rem), self.r_max)

    def points(self) -> np.ndarray:
        np = _np()
        ang = np.exp(2j * np.pi * np.arange(self.n_angular) / self.n_angular)
        return np.outer(self.radii(), ang).ravel()

    def describe(self) -> str:
        return (f"{self.n_radial}x{self.n_angular} polar grid, geometric "
                f"clustering toward r_max={self.r_max:g}")


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


def _as_sequence(x) -> CoefficientSeq:
    if isinstance(x, CoefficientSeq):
        return x
    if hasattr(x, "as_sequence"):  # a series-backed HarmonicMap
        return x.as_sequence()
    raise TypeError("expected a CoefficientSeq or a series-backed HarmonicMap")


# -- exact coefficient checks -----------------------------------------------

def coeff_condition(seq, beta: float = 0.0) -> MembershipReport:
    """Check |b1| + sum n(|a_n|+|b_n|) <= 1 - beta.

    margin = (1-beta) - S(1-).  Requires |b1| < 1-beta up front; failing
    that, a violation report is returned without summing the series.
    """
    beta = check_beta(beta)
    seq = _as_sequence(seq)
    b1a = abs(seq.b1)
    spec = "coefficient series, exact limit at r=1"
    if b1a >= 1.0 - beta:
        return MembershipReport(
            "violated", (1.0 - beta) - b1a, 1, spec,
            note="precondition |b1| < 1 - beta fails",
        )
    margin = (1.0 - beta) - weighted_sum_limit(seq)
    witness = None
    if margin < -BOUNDARY_TOL:
        # no single index breaks a sum condition; point at the heaviest term
        moduli = _moduli(seq)
        witness = max(moduli, key=lambda n: n * sum(moduli[n]), default=1)
    return _graded_verdict(margin, witness, spec)


def coefficient_growth_check(seq, beta: float = 0.0) -> MembershipReport:
    """Necessary coefficient bounds for membership with parameter beta.

    Two families: | |a_n| - |b_n| | <= (1-beta)/n per index n >= 2 where
    a_n or b_n is nonzero, and the aggregate sum
    n^2 (|a_n|^2 + |b_n|^2) <= (1-beta)^2 - |b1|^2.
    margin is the smaller of the two slacks; the note carries both.
    """
    beta = check_beta(beta)
    seq = _as_sequence(seq)
    spec = "coefficient series, exact"
    if _has_tail(seq):
        return MembershipReport(
            "inconclusive", 0.0, None, spec,
            note="tail bound present: per-index growth cannot be checked",
        )
    one = 1.0 - beta
    # indices with a nonzero coefficient; a stored zero checks nothing
    moduli = {n: ab for n, ab in _moduli(seq).items() if n >= 2 and any(ab)}
    per_margin, per_witness = one, None
    for n, (an, bn) in moduli.items():
        slack = one / n - abs(an - bn)
        if slack < per_margin:
            per_margin, per_witness = slack, n
    squares = {n: n * n * (an ** 2 + bn ** 2) for n, (an, bn) in moduli.items()}
    agg_margin = one * one - abs(seq.b1) ** 2 - math.fsum(squares.values())
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
    beta = check_beta(beta)
    grid = grid or GridSpec()
    pts = grid.points()
    fz, fzbar = f.wirtinger(pts)
    return _sampled_verdict((1.0 - beta) - np.abs(fzbar) - np.abs(fz - 1.0), pts, grid)


def starlike_scan(f: HarmonicMap, r: float,
                  grid: GridSpec | None = None) -> MembershipReport:
    """Sample the angular derivative of arg f on circles of radius up to r.

    margin = min over sampled z of Re[(z f_z(z) - conj(z) f_zbar(z)) / f(z)],
    the rate of change of arg f along the circle through z.  A sample with
    |f(z)| < 1e-12 yields an inconclusive singularity report.
    """
    np = _np()
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("scan radius must lie in (0, 1)")
    grid = grid or GridSpec(r_max=r)
    if grid.r_max > r:
        raise ValueError("grid r_max exceeds the scan radius")
    pts = grid.points()
    fval = f(pts)
    small = np.abs(fval) < 1e-12
    if np.any(small):
        z0 = complex(pts[int(np.argmax(small))])
        return MembershipReport(
            "inconclusive", 0.0, z0, grid.describe(),
            note="singularity: |f(z)| < 1e-12 at a sample point",
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


def _closest_first(dist: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Indices of the _MAX_REFINED smallest entries of dist, smallest first;
    equal entries in increasing order of key (distinct keys)."""
    np = _np()
    if dist.size > _MAX_REFINED:
        cut = np.partition(dist, _MAX_REFINED - 1)[_MAX_REFINED - 1]
        keep = np.flatnonzero(dist <= cut)
    else:
        keep = np.arange(dist.size)
    return keep[np.lexsort((key[keep], dist[keep]))][:_MAX_REFINED]


def _sense_preserving(f: HarmonicMap, pts: np.ndarray) -> bool:
    """Whether J > 0, and finite, at every point of pts."""
    jac = f.jacobian(pts)
    return bool(((jac > 0.0) & (jac < math.inf)).all())


def _cell_rows(c: np.ndarray) -> np.ndarray:
    """The occupied cell rows c renumbered from 0, every gap between two
    neighbouring ones capped at 2: touching rows stay touching, the others
    stay apart, and the numbers stay below 2 * c.size."""
    np = _np()
    rows, index = np.unique(c, return_inverse=True)
    number = np.r_[0.0, np.minimum(np.diff(rows), 2.0).cumsum()].astype(np.int64)
    return number[index]


def _cell_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Every index pair i < j of the points (x, y) at most reach apart, by
    the squared test (x[i]-x[j])^2 + (y[i]-y[j])^2 <= reach^2: the pairs
    scipy's cKDTree.query_pairs(reach) returns, as two index arrays.

    The points are bucketed into square cells at least reach wide, and
    each cell is compared with itself and its four forward neighbours
    (Bentley, Stanat & Williams, Inf. Process. Lett. 6 (1977) 209-212)."""
    np = _np()
    frac, exp = math.frexp(reach)
    # a power of two, so that x / side is exact: cells of side reach could
    # part two points one ulp apart by two cells where |x| > 2^53 reach
    side = reach if frac == 0.5 else math.ldexp(1.0, exp)
    # renumbered, so that the keys below cannot overflow
    cx, cy = _cell_rows(np.floor(x / side)), _cell_rows(np.floor(y / side))
    width = int(cy.max()) + 2  # so that no row's cell y +- 1 lands in another row
    key = cx * width + cy
    order = key.argsort(kind="stable")
    start = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
    cells = key[order[start]]
    count = np.diff(np.r_[start, key.size])

    pairs = []
    for dx, dy in _NEIGHBOURS:
        target = cells + dx * width + dy
        at = np.minimum(np.searchsorted(cells, target), cells.size - 1)
        src = np.flatnonzero(cells[at] == target)
        dst = at[src]
        # every (point of src, point of dst) combination, one per row
        n_src, n_dst = count[src], count[dst]
        size = n_src * n_dst
        group = np.repeat(np.arange(src.size), size)
        local = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
        i = order[start[src][group] + local // n_dst[group]]
        j = order[start[dst][group] + local % n_dst[group]]
        if dx == dy == 0:
            i, j = i[i < j], j[i < j]
        near = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= reach * reach
        pairs.append((i[near], j[near]))
    i, j = (np.concatenate(column) for column in zip(*pairs))
    return np.minimum(i, j), np.maximum(i, j)


def _simple_polygon(p: np.ndarray) -> bool:
    """Whether the closed polygon through the points p, in order, is simple:
    no two non-adjacent edges meet, touching included.

    Two edges that meet have midpoints at most the longest edge apart, so
    only the pairs of edges whose midpoints are that near (see _cell_pairs)
    are tested.  A non-finite point, edge or cross product counts as a
    meeting."""
    np = _np()
    m = p.size
    a, b = p, np.roll(p, -1)
    d = b - a
    # padded, so that rounding cannot put two meeting edges' midpoints out of reach
    reach = float(np.abs(d).max()) * (1.0 + 1e-9)
    if not (np.isfinite(p).all() and 0.0 < reach < math.inf):
        return False
    mid = a + d / 2
    i, j = _cell_pairs(mid.real, mid.imag, reach)
    gap = j - i
    keep = (gap > 1) & (gap < m - 1)  # adjacent edges share a vertex by design
    i, j = i[keep], j[keep]

    def side_of(e, q):  # the sign of the cross product e x q; nan stays nan
        return np.sign(e.real * q.imag - e.imag * q.real)

    lo_x, hi_x = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    lo_y, hi_y = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    apart = ((side_of(d[i], a[j] - a[i]) * side_of(d[i], b[j] - a[i]) > 0.0)
             | (side_of(d[j], a[i] - a[j]) * side_of(d[j], b[i] - a[j]) > 0.0)
             | (hi_x[i] < lo_x[j]) | (hi_x[j] < lo_x[i])
             | (hi_y[i] < lo_y[j]) | (hi_y[j] < lo_y[i]))
    return bool(apart.all())


def injectivity_oracle(f: HarmonicMap, r: float,
                       resolution: int = 256) -> MembershipReport:
    """Search for two well-separated points with the same image.

    First, the argument principle (Duren, Hengartner & Laugesen, Amer.
    Math. Monthly 103 (1996) 411-415): a map with J > 0 on |z| <= r whose
    image of |z| = r is a Jordan curve is univalent there.  The oracle
    samples f and J at 4 * resolution points of |z| = r and J on the grid
    below; when J > 0 at every sample and the closed polygon through the
    ring's images is simple (see _simple_polygon), it reports inconclusive,
    with the margin 5 pitches - tol that the search reports when it finds
    no collision, without searching.  Any other map, one with a
    non-finite sample included, goes to the pair search.

    The search samples f on a resolution x resolution Cartesian grid over
    |z| <= r, collects image near-coincidences, within 5 grid pitches, between
    domain points more than two pitches apart, and Newton-refines the
    _MAX_REFINED (2000) candidates with the closest images, closest first;
    equal image distances are refined in the order of the domain indices
    (i, j) of the pair.  A refined pair with image distance at most the
    collision tolerance certifies non-injectivity (verdict violated);
    otherwise the verdict is inconclusive, since sampling cannot prove
    injectivity.

    The pair search reaches out only as far as those candidates need: its
    radius, the reach, doubles from 5/16 of a pitch to 5 pitches and stops
    at the first reach that holds _MAX_REFINED candidates with image
    distance <= reach * (1 - 1e-9).  Every candidate of the 5-pitch search
    up to the _MAX_REFINED-th closest image, ties included, is then among
    them, so the refined pairs are the same.

    The collision tolerance is COLLISION_TOL and Newton stops at a residual
    of 1e-13, both times the grid's image scale, min(1, pitch / 1e-4): on
    a grid with a pitch below 1e-4 (a tiny radius) a collision must lie
    far below the grid's own resolution.  A radius whose shortest reach is
    below _MIN_REACH, where the search's squared distances would underflow
    (r below about 1e-151 at resolution 512), raises ValueError; so do grid
    images that are not finite, or that span more than _MAX_SPAN, where
    they would overflow.
    """
    np = _np()
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    resolution = int(resolution)
    if not 8 <= resolution <= 512:
        raise ValueError("resolution must lie in [8, 512]")
    axis = np.linspace(-r, r, resolution)
    xs, ys = np.meshgrid(axis, axis)
    pts = (xs + 1j * ys).ravel()
    pts = pts[np.abs(pts) <= r]
    pitch = 2.0 * r / (resolution - 1)
    if 5.0 * pitch / 16 < _MIN_REACH:
        raise ValueError(f"radius {r:g} is too small for a {resolution}x{resolution} grid: "
                         f"the pair search's squared distances would underflow")
    sep = 2.0 * pitch
    scale = min(1.0, pitch / 1e-4)
    tol = COLLISION_TOL * scale
    spec = (f"{resolution}x{resolution} cartesian grid on |z|<={r:g}, "
            f"pitch {pitch:.3g}, Newton-refined collision candidates")

    m = 4 * resolution
    # pulled in by a few ulps, so that no rounded ring sample lies beyond r
    ring = r * (1.0 - 2.0 ** -50) * np.exp(2j * np.pi * np.arange(m) / m)
    # a non-finite sample fails the stage below and is refused before the search
    with np.errstate(over="ignore", invalid="ignore"):
        if (_sense_preserving(f, ring) and _simple_polygon(f(ring))
                and _sense_preserving(f, pts)):
            return MembershipReport(
                "inconclusive", 5.0 * pitch - tol, None, spec,
                note="argument principle: J > 0 at every sample and the image "
                     "of |z|=r is a simple polygon",
            )
        images = f(pts)
        _require_finite(images)
        span = math.hypot(images.real.max() - images.real.min(),
                          images.imag.max() - images.imag.min())
    if span > _MAX_SPAN:
        raise ValueError(f"the images of a {resolution}x{resolution} grid on |z|<={r:g} "
                         f"span {span:.3g}: the pair search's squared distances would "
                         f"overflow")

    for k in range(4, -1, -1):
        reach = 5.0 * pitch / 2 ** k
        first, second = _cell_pairs(images.real, images.imag, reach)
        far = np.abs(pts[first] - pts[second]) > sep
        first, second = first[far], second[far]
        dist = np.abs(images[first] - images[second])
        # the guard covers the squared test's rounding of a distance against np.abs's
        if np.count_nonzero(dist <= reach * (1.0 - 1e-9)) >= _MAX_REFINED:
            break
    if first.size == 0:
        return MembershipReport(
            "inconclusive", 5.0 * pitch - tol, None, spec,
            note="no image near-coincidence between separated samples",
        )

    order = _closest_first(dist, first * pts.size + second)
    best = None
    for z1, z2 in zip(pts[first[order]].tolist(), pts[second[order]].tolist()):
        refined = _newton_collide(f, f(z1), z2, r, scale)
        if refined is None:
            continue
        z2r, resid = refined
        if abs(z2r - z1) <= sep:
            continue
        if best is None or resid < best[0]:
            best = (resid, z1, z2r)
        if resid <= tol:
            return MembershipReport(
                "violated", resid - tol, (z1, z2r), spec,
                note=f"images coincide to {resid:.3g} at separated points",
            )
    margin = (best[0] if best else 5.0 * pitch) - tol
    return MembershipReport(
        "inconclusive", margin, None, spec,
        note="near-coincidences did not refine to a collision",
    )
