"""Membership checks for coefficient-bounded harmonic map classes.

Two kinds of check live here.  Exact coefficient tests (coeff_condition,
coefficient_growth_check) decide membership from a stored sequence.
Sampling checks (c_h2_numeric, starlike_scan, injectivity_oracle) evaluate
a map on a finite grid; they can certify violation with a witness point
but can only report satisfied-on-grid, never a proof, so their verdicts
carry the grid description and, for the injectivity oracle, the verdict
"inconclusive" when no collision is found.

Margins are minimum slacks of the defining inequality over the test set.
A margin within BOUNDARY_TOL of zero is reported as satisfied with a
boundary flag: the extremal examples sit exactly on the boundary.

The coefficient checks run on the standard library.  numpy (the module
attribute np) and scipy.spatial (cKDTree) load on first lookup, made by
a sampled check or a grid; a reassigned attribute is the one used.
"""

from __future__ import annotations

import math
import sys

from ._util import check_beta, record
from .coefficients import CoefficientSeq, _moduli, weighted_sum_limit

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
# refinement) count as one image point.
COLLISION_TOL = 1e-9
# Most points a GridSpec samples: the injectivity oracle's largest grid, 512 x 512.
_MAX_GRID_POINTS = 512 * 512


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
    if seq.tail is not None and seq.tail.constant > 0.0:
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

def _sampled_verdict(vals: np.ndarray, pts: np.ndarray, grid: GridSpec) -> MembershipReport:
    """The graded verdict at the smallest slack vals[i], sampled at pts[i]."""
    np = _np()
    if not np.all(np.isfinite(vals)):
        raise ValueError("map evaluation is not finite on the grid")
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


def _newton_collide(f: HarmonicMap, target: complex, z: complex, r: float):
    """Refine z so that f(z) = target; returns (z, residual) or None."""
    for _ in range(25):
        val = f(z) - target
        if abs(val) <= 1e-13:
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
        if abs(step) < 1e-14:
            break
    return z, abs(f(z) - target)


def injectivity_oracle(f: HarmonicMap, r: float,
                       resolution: int = 256) -> MembershipReport:
    """Search for two well-separated points with the same image.

    Samples f on a resolution x resolution Cartesian grid over |z| <= r,
    collects image near-coincidences between domain points more than two
    grid pitches apart, and Newton-refines each candidate.  A refined pair
    with image distance <= COLLISION_TOL certifies non-injectivity
    (verdict violated); otherwise the verdict is inconclusive, since
    sampling cannot prove injectivity.
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
    sep = 2.0 * pitch
    images = f(pts)
    spec = (f"{resolution}x{resolution} cartesian grid on |z|<={r:g}, "
            f"pitch {pitch:.3g}, Newton-refined collision candidates")

    # a module attribute, not a bare global: the first lookup imports it
    tree = sys.modules[__name__].cKDTree(np.column_stack([images.real, images.imag]))
    raw = tree.query_pairs(5.0 * pitch, output_type="ndarray")
    if raw.size:
        keep = np.abs(pts[raw[:, 0]] - pts[raw[:, 1]]) > sep
        raw = raw[keep]
    if raw.size == 0:
        return MembershipReport(
            "inconclusive", 5.0 * pitch - COLLISION_TOL, None, spec,
            note="no image near-coincidence between separated samples",
        )

    # closest image pairs first; cap the refinement work
    order = np.argsort(np.abs(images[raw[:, 0]] - images[raw[:, 1]]))
    raw = raw[order[:2000]]
    best = None
    for i, j in raw:
        z1, z2 = complex(pts[i]), complex(pts[j])
        refined = _newton_collide(f, f(z1), z2, r)
        if refined is None:
            continue
        z2r, resid = refined
        if abs(z2r - z1) <= sep:
            continue
        if best is None or resid < best[0]:
            best = (resid, z1, z2r)
        if resid <= COLLISION_TOL:
            return MembershipReport(
                "violated", resid - COLLISION_TOL, (z1, z2r), spec,
                note=f"images coincide to {resid:.3g} at separated points",
            )
    margin = (best[0] if best else 5.0 * pitch) - COLLISION_TOL
    return MembershipReport(
        "inconclusive", margin, None, spec,
        note="near-coincidences did not refine to a collision",
    )
