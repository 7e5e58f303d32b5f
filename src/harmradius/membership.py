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
argument principle on its samples (J > 0 everywhere and a simple
boundary image) and searches for a collision only when that fails.
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

import math
import sys

from ._util import check_index, check_real, record
from .coefficients import (SERIES_EVAL_MAX, BoundFamily, CoefficientSeq, _has_tail, _moduli,
                           _sum_limit, weighted_sum)
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
# Largest radius a GridSpec samples, 1 - 3 * 2^-53: at the two floats above
# it, r_max e^(i theta) rounds to |z| = 1 for most angular counts.
_MAX_CIRCLE = 0.9999999999999997
# Most candidate pairs the injectivity oracle Newton-refines, closest images first.
_MAX_REFINED = 2000
# Shortest pair-search reach: its square is the smallest normal float, and it
# is a power of two, 2^-511.
_MIN_REACH = math.sqrt(sys.float_info.min)
# Widest image span the pair search takes: its square is the largest finite float.
_MAX_SPAN = math.sqrt(sys.float_info.max)
# Points per slice of the oracle's grid evaluations, so that each temporary
# stays small.  numpy elides temporaries of 256 KiB and up, 16,384 complex
# points, which moves the last bits of f and J: every slice of an array over
# _BLOCK / 2 points is over it too (see _blocks).
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
    note = f"the {seq.kind} family's S(r) in closed form at r={rho:.12g}" if named else ""
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


def _blocks(n: int):
    """Slices of range(n), _BLOCK long but for the last, which takes any
    remainder of at most _BLOCK / 2: over n > _BLOCK / 2 each slice is too."""
    cuts = [*range(0, max(n - _BLOCK // 2, 1), _BLOCK), n]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _sense_preserving(f: HarmonicMap, pts: np.ndarray) -> bool:
    """Whether J > 0, and finite, at every point of pts."""
    jac = f.jacobian(pts)
    return bool(((jac > 0.0) & (jac < math.inf)).all())


def _cell_rows(c: np.ndarray) -> np.ndarray:
    """The occupied cell rows c (integers as floats) numbered from 0 below
    2 * c.size, touching rows touching and the others apart: as offsets from
    the lowest when they span fewer than 2 * c.size, as a grid's images mostly
    do, and otherwise with every gap between neighbouring ones capped at 2."""
    np = _np()
    low = c.min()
    if c.max() - low < 2 * c.size:  # exact: integers at most 2 * c.size apart
        return (c - low).astype(np.int64)
    rows, index = np.unique(c, return_inverse=True)
    number = np.r_[0.0, np.minimum(np.diff(rows), 2.0).cumsum()].astype(np.int64)
    return number[index]


def _cell_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Every index pair i < j of the points (x, y) at most reach apart, by
    the squared test (x[i]-x[j])^2 + (y[i]-y[j])^2 <= reach^2: the pairs
    scipy's cKDTree.query_pairs(reach) returns, as two index arrays.

    The points are bucketed into square cells at least reach wide, and
    each cell is compared with itself and its four forward neighbours
    (Bentley, Stanat & Williams, Inf. Process. Lett. 6 (1977) 209-212):
    the next cell of a row is the next key, and one search over the keys
    finds the first of the three in the row above.  Two cells of one point
    each give their pair directly; only the others are expanded."""
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

    # links (src, dst): a cell to each neighbour; a cell of several points also
    # pairs with itself (see triangle)
    same, step = np.flatnonzero(count > 1), np.flatnonzero(np.diff(cells) == 1)
    links = [(step, step + 1)]
    at = np.searchsorted(cells, cells + width - 1)
    for dy in (-1, 0, 1):  # the keys are sorted and distinct: step past each hit
        hit = cells[np.minimum(at, cells.size - 1)] == cells + width + dy
        links.append((np.flatnonzero(hit), at[hit]))
        at = at + hit

    def close(i, j):  # the pairs (i, j) within reach, each as (min, max)
        near = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= reach * reach
        i, j = i[near], j[near]
        return np.minimum(i, j), np.maximum(i, j)

    def ranges(size):  # (g, k) for each g in turn and each k in range(size[g])
        g = np.repeat(np.arange(size.size), size)
        return g, np.arange(g.size) - np.repeat(np.cumsum(size) - size, size)

    def combinations(src, dst):  # every (point of src, point of dst), one per row
        n_dst = count[dst]
        group, local = ranges(count[src] * n_dst)
        p = start[src][group] + local // n_dst[group]
        q = start[dst][group] + local % n_dst[group]
        return order[p], order[q]

    def triangle(cell):  # every (p, q), p < q, of the points of each cell
        n = count[cell]
        group, k = ranges(n - 1)  # each point but the last of its cell, then those after it
        after, local = ranges(n[group] - 1 - k)
        p = (start[cell][group] + k)[after]
        return order[p], order[p + 1 + local]

    pairs = [close(*triangle(same))]
    for src, dst in links:
        one = (count[src] == 1) & (count[dst] == 1)  # one point each: the pair itself
        pairs.append(close(order[start[src[one]]], order[start[dst[one]]]))
        pairs.append(close(*combinations(src[~one], dst[~one])))
    return tuple(np.concatenate(column) for column in zip(*pairs))


def _reaches(pitch: float) -> list[float]:
    """The pair search's reaches: the powers of two from the largest at or
    below 5/16 of a pitch while they stay below 5 pitches, then 5 pitches;
    five or six in all.  Each but the last is its own cell side (see
    _cell_pairs)."""
    reach = math.ldexp(1.0, math.frexp(5.0 * pitch / 16)[1] - 1)
    reaches = []
    while reach < 5.0 * pitch:
        reaches.append(reach)
        reach *= 2.0
    return reaches + [5.0 * pitch]


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
    radius, the reach, runs through the powers of two from the largest at
    or below 5/16 of a pitch, each its own cell side, while they stay below
    5 pitches, then 5 pitches (see _reaches).  It stops at the first reach
    that holds _MAX_REFINED candidates with image distance
    <= reach * (1 - 1e-9).  Every candidate of the 5-pitch search up to the
    _MAX_REFINED-th closest image, ties included, is then among them, so
    the refined pairs are those of the 5-pitch search, for any increasing
    reaches that end at 5 pitches.  f and J are evaluated on the grid in
    slices (see _blocks), which give the bytes of one whole-grid call.

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
    r = check_real(r, "radius", 0.0, 1.0)
    resolution = check_index(resolution, None, "resolution")
    if not 8 <= resolution <= 512:
        raise ValueError("resolution must lie in [8, 512]")
    axis = np.linspace(-r, r, resolution)
    pts = (axis + 1j * axis[:, None]).ravel()
    pts = pts[np.abs(pts) <= r]
    pitch = 2.0 * r / (resolution - 1)
    if 5.0 * pitch / 16 < _MIN_REACH:
        raise ValueError(f"radius {r!r} is too small for a {resolution}x{resolution} grid: "
                         f"the pair search's squared distances would underflow")
    sep = 2.0 * pitch
    scale = min(1.0, pitch / 1e-4)
    tol = COLLISION_TOL * scale
    spec = (f"{resolution}x{resolution} cartesian grid on |z|<={r!r}, "
            f"pitch {pitch:.3g}, Newton-refined collision candidates")

    m = 4 * resolution
    # pulled in by a few ulps, so that no rounded ring sample lies beyond r
    ring = r * (1.0 - 2.0 ** -50) * np.exp(2j * np.pi * np.arange(m) / m)
    # a non-finite sample fails the stage below and is refused before the search
    with np.errstate(over="ignore", invalid="ignore"):
        if (_sense_preserving(f, ring) and _simple_polygon(f(ring))
                and all(_sense_preserving(f, pts[s]) for s in _blocks(pts.size))):
            return MembershipReport(
                "inconclusive", 5.0 * pitch - tol, None, spec,
                note="argument principle: J > 0 at every sample and the image "
                     "of |z|=r is a simple polygon",
            )
        images = np.empty_like(pts)
        for s in _blocks(pts.size):
            images[s] = f(pts[s])
        _require_finite(images)
        span = math.hypot(images.real.max() - images.real.min(),
                          images.imag.max() - images.imag.min())
    if span > _MAX_SPAN:
        raise ValueError(f"the images of a {resolution}x{resolution} grid on |z|<={r!r} "
                         f"span {span:.3g}: the pair search's squared distances would "
                         f"overflow")

    for reach in _reaches(pitch):
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
