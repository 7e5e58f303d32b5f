"""Membership checks: coefficient tests and sampled scans."""

import math

import numpy as np
import pytest

from harmradius import (
    CoefficientSeq,
    GridSpec,
    HarmonicMap,
    MembershipReport,
    UnsupportedOperation,
    c_h2_numeric,
    coeff_condition,
    coefficient_growth_check,
    convex_family_radius,
    get_extremal,
    harmonic_koebe,
    identity_map,
    injectivity_oracle,
    koebe_family_radius,
    koebe_witness,
    one_term_extremal,
    starlike_scan,
)
from harmradius.coefficients import TailBound

from conftest import random_accepted_sequences


# -- GridSpec -------------------------------------------------------------------

def test_grid_radii_shape():
    g = GridSpec(50, 16, 0.8)
    rs = g.radii()
    assert len(rs) == 50
    assert rs[-1] == 0.8           # r_max included
    assert rs[0] > 0.0             # zero excluded
    assert np.all(np.diff(rs) > 0)


def test_grid_contains_positive_real_axis():
    pts = GridSpec(10, 8, 0.5).points()
    reals = pts[np.abs(pts.imag) < 1e-15]
    assert np.any(reals.real > 0)
    assert len(pts) == 80


def test_grid_points_are_fresh_and_unchanged():
    for grid in (GridSpec(), GridSpec(10, 8, 0.5), GridSpec(r_max=0.3)):
        pts = grid.points()
        ang = np.exp(2j * np.pi * np.arange(grid.n_angular) / grid.n_angular)
        assert pts.tobytes() == np.outer(grid.radii(), ang).ravel().tobytes()
        pts[0] = 0.0  # the caller's own array
        assert grid.points()[0] != 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 8, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 8, 1.0)


def test_grid_point_cap():
    assert len(GridSpec(512, 512).radii()) == 512  # the cap itself is allowed
    # a 10^13-circle grid would allocate 80 TB; the cap refuses it first
    for radial, angular in ((10 ** 13, 64), (513, 512), (2, 10 ** 13)):
        with pytest.raises(ValueError, match="exceeds the 262144 points"):
            GridSpec(radial, angular)


def test_report_verdict_validation():
    with pytest.raises(ValueError):
        MembershipReport("maybe", 0.0)


# -- coeff_condition ---------------------------------------------------------------

def test_coeff_condition_boundary_case():
    rep = coeff_condition(CoefficientSeq({2: 0.5}, {}, 2), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.boundary


def test_coeff_condition_stated_family():
    n = 3
    seq = CoefficientSeq({n: (n + 1) / (2 * n * n)}, {n: (n - 1) / (2 * n * n)}, n)
    rep = coeff_condition(seq, 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.boundary


def test_coeff_condition_violated():
    rep = coeff_condition(CoefficientSeq({2: 1.0}, {}, 2), 0.0)
    assert rep.verdict == "violated"
    assert rep.margin == pytest.approx(-1.0, abs=1e-15)
    assert rep.witness == 2


def test_coeff_condition_precondition_on_b1():
    rep = coeff_condition(CoefficientSeq({}, {1: 0.85}, 1), 0.2)
    assert rep.verdict == "violated"
    assert "precondition" in rep.note
    assert rep.margin == pytest.approx(0.8 - 0.85, abs=1e-15)


def test_coeff_condition_accepts_series_map():
    rep = coeff_condition(one_term_extremal(4, 1.0), 0.0)
    assert rep.verdict == "satisfied" and rep.boundary


def test_coefficient_checks_read_a_series_map_without_compiling_it():
    # past the series-map degree cap: only the sampled checks must refuse it
    f = HarmonicMap.from_series(CoefficientSeq({10 ** 13: 1e-15}, {}, 10 ** 13))
    assert coeff_condition(f).margin == pytest.approx(0.99, abs=1e-12)
    assert coefficient_growth_check(f).witness == 10 ** 13
    with pytest.raises(ValueError, match="up to degree 10000"):
        c_h2_numeric(f, 0.0, GridSpec(4, 4))


def test_coeff_condition_rejects_closed_form_map():
    with pytest.raises(UnsupportedOperation):
        coeff_condition(harmonic_koebe(), 0.0)


def test_coeff_condition_beta_shifts_margin():
    seq = CoefficientSeq({2: 0.25}, {}, 2)
    assert coeff_condition(seq, 0.0).margin == pytest.approx(0.5, abs=1e-15)
    assert coeff_condition(seq, 0.4).margin == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        coeff_condition(seq, 1.0)


def test_coeff_condition_monotone_in_coefficients():
    base = CoefficientSeq({2: 0.2}, {}, 5)
    more = CoefficientSeq({2: 0.2, 5: 0.01}, {}, 5)
    assert coeff_condition(more, 0.0).margin < coeff_condition(base, 0.0).margin


# -- coefficient_growth_check ---------------------------------------------------------

def test_growth_identity_margins():
    rep = coefficient_growth_check(identity_map(), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(1.0, abs=1e-15)
    beta = 0.5
    rep = coefficient_growth_check(identity_map().as_sequence(), beta)
    assert rep.margin == pytest.approx((1 - beta) ** 2, abs=1e-15)
    assert "per-index margin 0.5" in rep.note


def test_growth_boundary_example():
    for anti in (False, True):
        rep = coefficient_growth_check(one_term_extremal(5, 0.7, anti), 0.0)
        assert rep.verdict == "satisfied"
        assert abs(rep.margin) <= 1e-14
        assert rep.boundary


def test_growth_violated_at_index():
    rep = coefficient_growth_check(CoefficientSeq({2: 0.9}, {}, 2), 0.0)
    assert rep.verdict == "violated"
    assert rep.witness == 2
    assert rep.margin == pytest.approx(1.0 - 4 * 0.81, abs=1e-12)


def test_growth_balanced_pair_passes_first_family():
    # |a_n| = |b_n| makes the difference condition trivial
    seq = CoefficientSeq({3: 0.1}, {3: 0.1}, 3)
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.verdict == "satisfied"
    # binding slack is the per-index one: 1/3 - |0.1 - 0.1|
    assert rep.margin == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert "sum-of-squares margin 0.82" in rep.note


def test_growth_ignores_stored_zero():
    # a stored zero at index 40 is not a checked index: same report as without it
    with_zero = coefficient_growth_check(CoefficientSeq({2: 0.1, 40: 0}, {}, 40))
    without = coefficient_growth_check(CoefficientSeq({2: 0.1}, {}, 40))
    assert with_zero == without
    assert with_zero.witness == 2
    assert with_zero.margin == pytest.approx(0.5 - 0.1, abs=1e-15)


def test_growth_b1_enters_aggregate():
    seq = CoefficientSeq({}, {1: 0.6}, 1)
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.margin == pytest.approx(1 - 0.36, abs=1e-15)


def test_growth_tailed_sequence_inconclusive():
    seq = CoefficientSeq({2: 0.1}, {}, 4, tail=TailBound(-4.0, 0.01))
    rep = coefficient_growth_check(seq, 0.0)
    assert rep.verdict == "inconclusive"
    assert "tail" in rep.note


# -- c_h2_numeric -----------------------------------------------------------------

def test_c_h2_identity_margin_exact():
    rep = c_h2_numeric(identity_map(), 0.0, GridSpec(20, 8, 0.9))
    assert rep.verdict == "satisfied"
    assert rep.margin == 1.0
    rep = c_h2_numeric(identity_map(), 0.3, GridSpec(20, 8, 0.9))
    assert rep.margin == pytest.approx(0.7, abs=1e-15)


def test_c_h2_dilated_koebe_inside_radius():
    K = harmonic_koebe()
    rep = c_h2_numeric(K.dilate(0.112903), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin > 0


def test_c_h2_dilated_koebe_outside_radius():
    K = harmonic_koebe()
    rep = c_h2_numeric(K.dilate(0.5), 0.0)
    assert rep.verdict == "violated"
    # failure shows up along the positive real axis near the rim
    z = rep.witness
    assert z.real > 0.9
    assert abs(z.imag) < z.real * math.tan(2 * math.pi / 64) + 1e-12


def test_c_h2_respects_supplied_grid():
    # the inequality for dilate(K, rho) crosses at rho |z| ~ 0.1129
    K = harmonic_koebe().dilate(0.2)
    rep = c_h2_numeric(K, 0.0, GridSpec(30, 8, 0.3))
    assert rep.grid_spec == GridSpec(30, 8, 0.3).describe()
    assert rep.verdict == "satisfied"  # 0.2 * 0.3 is inside the radius
    assert c_h2_numeric(K, 0.0).verdict == "violated"  # 0.2 * 0.999 is not


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("check", [
    lambda f: c_h2_numeric(f, 0.0),
    lambda f: starlike_scan(f, 0.999),
], ids=["c-h2", "starlike"])
def test_sampled_checks_refuse_non_finite_samples(check):
    # every n|a_n| is finite, but the sampled sums overflow near the rim
    f = HarmonicMap.from_series(CoefficientSeq({n: 3e306 for n in range(2, 12)}, {}, 11))
    with pytest.raises(ValueError, match="map evaluation is not finite on the grid"):
        check(f)


# -- starlike_scan -----------------------------------------------------------------

def test_starlike_identity():
    rep = starlike_scan(identity_map(), 0.9)
    assert rep.verdict == "satisfied"
    assert rep.margin == pytest.approx(1.0, abs=1e-15)


def test_starlike_dilated_koebe():
    r_s = koebe_family_radius().radius
    rep = starlike_scan(harmonic_koebe().dilate(r_s), 0.999)
    assert rep.verdict == "satisfied"


def test_starlike_witness_violated():
    rep = starlike_scan(koebe_witness(), 0.2)
    assert rep.verdict == "violated"
    assert rep.witness is not None


def test_starlike_singularity_report():
    # f(z) = z - 2 z^2 vanishes at z = 1/2, which the grid hits exactly
    f = HarmonicMap.from_series(CoefficientSeq({2: -2.0}, {}, 2))
    rep = starlike_scan(f, 0.5, GridSpec(10, 8, 0.5))
    assert rep.verdict == "inconclusive"
    assert "singularity" in rep.note
    assert rep.witness == 0.5 + 0j


def test_starlike_grid_must_fit_radius():
    with pytest.raises(ValueError):
        starlike_scan(identity_map(), 0.5, GridSpec(10, 8, 0.9))
    with pytest.raises(ValueError):
        starlike_scan(identity_map(), 1.0)


# -- injectivity_oracle ---------------------------------------------------------------

def test_injectivity_identity_inconclusive():
    rep = injectivity_oracle(identity_map(), 0.9, 128)
    assert rep.verdict == "inconclusive"
    assert rep.margin > 0


def test_injectivity_witness_collision():
    rep = injectivity_oracle(koebe_witness(), 0.2, 256)
    assert rep.verdict == "violated"
    assert rep.margin < 0
    z1, z2 = rep.witness
    f = koebe_witness()
    assert abs(f(z1) - f(z2)) <= 1e-9
    assert abs(z1 - z2) > 2 * (0.4 / 255)
    assert abs(z1) <= 0.2 and abs(z2) <= 0.2


def test_injectivity_dilated_koebe_no_collision():
    K = harmonic_koebe().dilate(0.112903)
    rep = injectivity_oracle(K, 0.999, 256)
    assert rep.verdict == "inconclusive"


# the note of a report the argument-principle stage settled
STAGE_NOTE = "argument principle: J > 0 at every sample and the image of |z|=r is a simple polygon"


def _search_only(monkeypatch):
    """Turn the argument-principle stage off: every call runs the pair search."""
    from harmradius import membership

    monkeypatch.setattr(membership, "_simple_polygon", lambda p: False)


def _grid_images(f, r, resolution):
    """The oracle's samples of |z| <= r, in its order, and their images."""
    axis = np.linspace(-r, r, resolution)
    xs, ys = np.meshgrid(axis, axis)
    pts = (xs + 1j * ys).ravel()
    pts = pts[np.abs(pts) <= r]
    return pts, f(pts)


def _full_search_reference(monkeypatch, f, r, resolution):
    """The oracle's report from one pair search out to 5 pitches on the
    images as they are, made by scipy's k-d tree, with every separated
    candidate sorted on (image distance, i, j), of which the first 2000 are
    refined.  The stage is forced off: it would call _cell_pairs too."""
    from scipy.spatial import cKDTree

    from harmradius import membership

    pitch = 2.0 * r / (resolution - 1)
    pts, images = _grid_images(f, r, resolution)
    full = cKDTree(np.column_stack([images.real, images.imag])).query_pairs(
        5.0 * pitch, output_type="ndarray")
    i, j = full.T
    far = np.abs(pts[i] - pts[j]) > 2.0 * pitch
    i, j = i[far], j[far]  # the candidates, in the order the oracle keeps them
    queries = []

    def one_search(x, y, reach):
        # the four shorter reaches find nothing, so the oracle takes the fifth
        queries.append(reach)
        return full.T if len(queries) == 5 else (np.empty(0, np.intp), np.empty(0, np.intp))

    with monkeypatch.context() as m:
        _search_only(m)
        m.setattr(membership, "_cell_pairs", one_search)
        m.setattr(membership, "_closest_first",
                  lambda dist, key: np.lexsort((j, i, dist))[:2000])
        return injectivity_oracle(f, r, resolution)


def _record_queries(monkeypatch):
    """Log (reach, pairs found) of every _cell_pairs call the oracle makes,
    the stage's own call on the ring's edge midpoints included."""
    from harmradius import membership

    log = []
    cell_pairs = membership._cell_pairs

    def recording(x, y, reach):
        out = cell_pairs(x, y, reach)
        log.append((reach, out[0].size))
        return out

    monkeypatch.setattr(membership, "_cell_pairs", recording)
    return log


def _with_refined(monkeypatch, run):
    """run()'s report and the (target, start) of every Newton refinement it made."""
    from harmradius import membership

    starts = []
    newton = membership._newton_collide

    def recording(f, target, z, r, scale):
        starts.append((target, z))
        return newton(f, target, z, r, scale)

    with monkeypatch.context() as m:
        m.setattr(membership, "_newton_collide", recording)
        return run(), starts


# F0 and L0 past their radii, the identity, and Koebe just inside its radius
ORACLE_CASES = [("F0", 0.2, 64), ("F0", 0.2, 256), ("F0", 0.15, 256), ("F0", 0.21, 512),
                ("F0", 0.18, 128), ("L0", 0.18, 128), ("identity", 0.9, 128),
                ("koebe", 0.999, 256)]


def _oracle_map(label):
    if label == "identity":
        return identity_map()
    if label == "koebe":
        return harmonic_koebe().dilate(0.112903)
    if label == "f0":
        return get_extremal("f0", 2.0, 0.3)
    return get_extremal(label)


@pytest.mark.parametrize("label, r, resolution", ORACLE_CASES)
def test_injectivity_report_matches_full_sort_selection(monkeypatch, label, r, resolution):
    f = _oracle_map(label)
    if label in ("identity", "koebe"):
        # the stage settles these without a search; compare the search itself
        assert injectivity_oracle(f, r, resolution).note == STAGE_NOTE
        _search_only(monkeypatch)
    got = _with_refined(monkeypatch, lambda: injectivity_oracle(f, r, resolution))
    want = _with_refined(monkeypatch,
                         lambda: _full_search_reference(monkeypatch, f, r, resolution))
    assert got == want  # the same report from the same refinements
    assert got[0].verdict == ("inconclusive" if label in ("identity", "koebe") else "violated")


def _sweep(seed=15, size=10):
    """Seeded (map, r, resolution) draws: maps that fold (F0, L0, f0 past
    their radii) and maps that do not, resolutions log-uniform in [8, 512)
    (ORACLE_CASES holds the 512 case)."""
    rng = np.random.default_rng(seed)
    labels = ["F0", "L0", "f0", "identity", "koebe", "convex_L"]
    cases = [("F0", 0.2, 8)]  # about 50 samples: fewer than 2000 candidates in all
    for _ in range(size - 1):
        label = labels[rng.integers(len(labels))]
        r = 0.999 if label == "koebe" else float(rng.uniform(0.05, 0.6))
        cases.append((label, round(r, 3), int(2 ** rng.uniform(3, 9))))
    return cases


@pytest.mark.parametrize("label, r, resolution", _sweep())
def test_injectivity_report_matches_full_search_on_a_seeded_sweep(monkeypatch, label,
                                                                   r, resolution):
    f = _oracle_map(label)
    log = _record_queries(monkeypatch)
    # a map the stage settles makes no search, whose first reach is 5/16 of a
    # pitch; the search below runs on every map
    first_reach = 5.0 * (2.0 * r / (resolution - 1)) / 2 ** 4
    settled = injectivity_oracle(f, r, resolution).note == STAGE_NOTE
    assert settled == (first_reach not in [reach for reach, _ in log])
    _search_only(monkeypatch)
    log.clear()
    got = _with_refined(monkeypatch, lambda: injectivity_oracle(f, r, resolution))
    reaches = [reach for reach, _ in log]
    assert 1 <= len(reaches) <= 5
    assert all(longer == 2 * shorter for shorter, longer in zip(reaches, reaches[1:]))
    if resolution == 8:
        assert len(reaches) == 5  # too few candidates: the search goes out to 5 pitches
    assert got == _with_refined(monkeypatch,
                                lambda: _full_search_reference(monkeypatch, f, r, resolution))


def _stage_sweep(seed=17, size=16):
    """Seeded (label, parameters, r, resolution) draws for the stage: F0 and
    L0 at 1.0-1.8 times their radii, f0 with random parameters, and the
    one-term maps z + (a/n) z^n and z + (a/n) conj(z^n) with a in [0.5, 3];
    resolutions log-uniform in [8, 256)."""
    rng = np.random.default_rng(seed)

    def resolution():
        return int(2 ** rng.uniform(3, 8))

    cases = []
    for label, radius in (("F0", koebe_family_radius().radius),
                          ("L0", convex_family_radius().radius)):
        cases += [(label, (), round(radius * rng.uniform(1.0, 1.8), 4), resolution())
                  for _ in range(size)]
    cases += [("f0", (round(rng.uniform(0.5, 4.0), 3), round(rng.uniform(0.0, 0.9), 3)),
               round(rng.uniform(0.05, 0.9), 3), resolution()) for _ in range(size)]
    cases += [("one-term", (int(rng.integers(2, 8)), round(rng.uniform(0.5, 3.0), 3),
                            bool(rng.integers(2))),
               round(rng.uniform(0.3, 0.99), 3), resolution()) for _ in range(2 * size)]
    return cases


def _stage_map(label, params):
    if label == "one-term":
        n, a, anti = params
        term = {n: a / n}
        return HarmonicMap.from_series(CoefficientSeq({} if anti else term,
                                                      term if anti else {}, n))
    return get_extremal(label, *params) if params else _oracle_map(label)


@pytest.mark.parametrize("label, params, r, resolution",
                         [(label, (), r, res) for label, r, res in ORACLE_CASES + _sweep()]
                         + _stage_sweep())
def test_injectivity_stage_changes_only_the_note(monkeypatch, label, params, r, resolution):
    f = _stage_map(label, params)
    got = injectivity_oracle(f, r, resolution)
    with monkeypatch.context() as m:
        _search_only(m)
        want = injectivity_oracle(f, r, resolution)
    if got.note == STAGE_NOTE:
        assert got._replace(note=want.note) == want
    else:
        assert got == want


@pytest.mark.parametrize("resolution", [64, 256])
def test_injectivity_boundary_loop_goes_to_the_search(resolution):
    # z + 0.6 z^2 is sense-preserving off z = -1/1.2, which no sample hits,
    # and its image of |z| = 0.99 loops round the image of that point
    from harmradius import membership

    f = HarmonicMap.from_series(CoefficientSeq({2: 0.6}, {}, 2))
    r, m = 0.99, 4 * resolution
    ring = r * np.exp(2j * np.pi * np.arange(m) / m)
    axis = np.linspace(-r, r, resolution)
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    grid = grid[np.abs(grid) <= r]
    assert membership._sense_preserving(f, ring) and membership._sense_preserving(f, grid)
    assert not membership._simple_polygon(f(ring))
    rep = injectivity_oracle(f, r, resolution)
    assert rep.verdict == "violated"
    assert rep.note != STAGE_NOTE


def _segments_meet(p1, p2, q1, q2):
    """Whether the closed segments p1p2 and q1q2 meet, in exact integer
    arithmetic (Cormen et al., Introduction to Algorithms, section 33.1)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(a, b, c):  # c, collinear with ab, lies within ab's box
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    d1, d2 = cross(q1, q2, p1), cross(q1, q2, p2)
    d3, d4 = cross(p1, p2, q1), cross(p1, p2, q2)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return ((d1 == 0 and on_segment(q1, q2, p1)) or (d2 == 0 and on_segment(q1, q2, p2))
            or (d3 == 0 and on_segment(p1, p2, q1)) or (d4 == 0 and on_segment(p1, p2, q2)))


def _simple_by_all_pairs(vertices):
    m = len(vertices)
    edges = [(vertices[k], vertices[(k + 1) % m]) for k in range(m)]
    return not any(_segments_meet(*edges[i], *edges[j])
                   for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1))


def test_simple_polygon_matches_all_pairs_test(rng):
    from harmradius.membership import _simple_polygon

    seen = set()
    for _ in range(400):
        # star-shaped polygons on a small integer lattice: the lattice brings
        # repeated vertices, collinear overlaps and vertices on edges
        m = int(rng.integers(4, 40))
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        radii = rng.uniform(0.2, 1.0, m) * (1.0 if rng.integers(3) else rng.uniform(0, 3, m))
        scale = int(rng.choice([3, 8, 40]))
        pts = np.round(scale * radii * np.exp(1j * angles))
        if rng.integers(4) == 0:  # a few swapped vertices fold the polygon
            k = rng.integers(m, size=2)
            pts[k] = pts[k[::-1]]
        want = _simple_by_all_pairs([(int(p.real), int(p.imag)) for p in pts])
        assert _simple_polygon(pts) == want, pts.tolist()
        seen.add(want)
    assert seen == {True, False}


def test_stage_refuses_non_finite_samples():
    from harmradius.membership import _sense_preserving, _simple_polygon

    square = np.array([0, 1, 1 + 1j, 1j])
    assert _simple_polygon(square) and _simple_polygon(1e150 * square)
    for bad in (np.nan, np.inf, complex(np.nan, 0.5)):
        assert not _simple_polygon(np.append(square, bad))
    with np.errstate(over="ignore", invalid="ignore"):  # as the oracle calls it
        assert not _simple_polygon(1e308 * (2 * square - 1 - 1j))  # edges overflow

    class Jacobian:
        def __init__(self, values):
            self.values = np.array(values)

        def jacobian(self, z):
            return self.values

    assert _sense_preserving(Jacobian([1.0, 2.0]), None)
    for bad in (0.0, -1.0, np.inf, np.nan):
        assert not _sense_preserving(Jacobian([1.0, bad]), None)


def _pairs_by_all_pairs(x, y, reach):
    """Every pair i < j of the points (x, y) at most reach apart, by the
    squared test on all pairs."""
    i, j = np.triu_indices(x.size, 1)
    near = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= reach * reach
    return sorted(zip(i[near].tolist(), j[near].tolist()))


def test_cell_pairs_matches_all_pairs(rng):
    from harmradius.membership import _cell_pairs

    seen = 0
    for _ in range(3000):
        # a power-of-two step and reach = 5 steps: lattice points 3 and 4 steps
        # apart along the axes are exactly reach apart
        step = math.ldexp(1.0, int(rng.integers(-500, 31)))  # reach in [1e-150, 1e10]
        reach = 5.0 * step
        n = int(rng.integers(1, 60))
        if rng.integers(2):
            x, y = step * rng.integers(-8, 9, (2, n)).astype(float)
        else:
            x, y = rng.normal(0.0, 2.0 * reach, (2, n))
        # offsets up to 1e150, and near 2^53 reaches, where one ulp is a reach
        # and cells of side reach can part two points one reach apart by two cells
        offset = (rng.choice([0.0, reach * 2.0 ** rng.uniform(48, 56),
                              10.0 ** rng.uniform(-150, 150)], 2)
                  * rng.choice([-1.0, 1.0], 2))
        x, y = x + offset[0], y + offset[1]
        i, j = _cell_pairs(x, y, reach)
        got = sorted(zip(i.tolist(), j.tolist()))
        assert got == _pairs_by_all_pairs(x, y, reach), (reach, x.tolist(), y.tolist())
        seen += len(got)
    assert seen > 10_000


def _assert_query_pairs(images, reaches):
    """_cell_pairs finds the pairs of scipy's k-d tree at every reach."""
    from scipy.spatial import cKDTree

    from harmradius.membership import _cell_pairs

    tree = cKDTree(np.column_stack([images.real, images.imag]))
    for reach in reaches:
        i, j = _cell_pairs(images.real, images.imag, reach)
        want = tree.query_pairs(reach, output_type="ndarray")
        assert np.array_equal(np.sort(i * images.size + j),
                              np.sort(want[:, 0] * images.size + want[:, 1])), reach


@pytest.mark.parametrize("label, r, resolution",
                         [case for case in ORACLE_CASES + _sweep() if case[2] <= 128])
def test_cell_pairs_are_the_query_pairs_of_the_oracle_reaches(label, r, resolution):
    pitch = 2.0 * r / (resolution - 1)
    _, images = _grid_images(_oracle_map(label), r, resolution)
    _assert_query_pairs(images, [5.0 * pitch / 2 ** k for k in range(4, -1, -1)])


def test_cell_pairs_of_a_clustered_map(monkeypatch):
    # z + 1e13 z^40 sends the grid of |z| <= 0.9 to a cluster of width 1 and a
    # spray out to 1.5e11, 4e13 cell widths apart: the cell keys are renumbered
    # rows, not coordinates, which would overflow int64, and the cells keep
    # their width
    import tracemalloc

    f = HarmonicMap.from_series(CoefficientSeq({40: 1e13}, {}, 40))
    injectivity_oracle(f, 0.9, 64)  # imports and first-call set-up outside the count
    tracemalloc.start()
    try:
        rep = injectivity_oracle(f, 0.9, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"{peak / 2 ** 20:.0f} MB"
    assert rep.verdict == "violated"
    assert rep == _full_search_reference(monkeypatch, f, 0.9, 512)
    _, images = _grid_images(f, 0.9, 512)
    _assert_query_pairs(images, [5.0 * (1.8 / 511) / 16])  # the first reach


def test_closest_first_is_the_head_of_a_stable_sort(rng):
    from harmradius.membership import _MAX_REFINED, _closest_first

    for size in (0, 1, 5, _MAX_REFINED, _MAX_REFINED + 1, 3 * _MAX_REFINED):
        key = rng.permutation(10 * size)[:size]  # distinct, in no order
        by_key = np.argsort(key)
        # few distinct values, so ties fall on the cut
        for dist in (rng.uniform(0.0, 1.0, size), rng.integers(0, 7, size).astype(float)):
            # equal distances in key order: a stable sort of the entries in key order
            want = by_key[np.argsort(dist[by_key], kind="stable")][:_MAX_REFINED]
            assert np.array_equal(_closest_first(dist, key), want), size


@pytest.mark.parametrize("r", [1e-11, 1e-12, 1e-14, 1e-100])
def test_injectivity_tiny_radius_is_not_violated(monkeypatch, r):
    # F0 is univalent near 0: a grid far finer than 1e-9 must not report the
    # images of neighbouring samples as a collision
    log = _record_queries(monkeypatch)
    rep = injectivity_oracle(get_extremal("F0"), r, 64)
    assert rep.verdict == "inconclusive"
    assert rep.margin >= 0.0
    # each query, if any, finds pairs of neighbours only, not most of the grid's 5 million
    assert max((found for _, found in log), default=0) < 100_000
    rep = injectivity_oracle(harmonic_koebe().dilate(0.1), min(r, 1e-14), 16)
    assert rep.verdict == "inconclusive"


def test_injectivity_refuses_radii_whose_squared_reach_underflows():
    from harmradius.membership import _MIN_REACH

    for resolution in (8, 64, 512):
        # the radius whose shortest reach, 5/16 of a pitch, is _MIN_REACH
        least = _MIN_REACH * 16 / 5 * (resolution - 1) / 2
        assert injectivity_oracle(identity_map(), 2 * least, resolution).verdict == "inconclusive"
        for r in (least / 2, 1e-200, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                injectivity_oracle(identity_map(), r, resolution)


def test_injectivity_oracle_memory():
    import tracemalloc

    f = get_extremal("F0")
    injectivity_oracle(f, 0.2, 64)  # imports and first-call set-up outside the count
    tracemalloc.start()
    try:
        assert injectivity_oracle(f, 0.18, 512).verdict == "violated"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"{peak / 2 ** 20:.0f} MB"


def test_ckdtree_is_a_lazy_module_attribute():
    # no check calls cKDTree; it stays as the hook perfbench's tracer wraps
    import scipy.spatial

    from harmradius import membership

    assert membership.cKDTree is scipy.spatial.cKDTree
    assert "cKDTree" in vars(membership)  # stored by the first lookup
    with pytest.raises(AttributeError, match="no_such_name"):
        membership.no_such_name


def test_injectivity_validation():
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 0.5, 600)
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 1.2, 64)


# -- implication properties ------------------------------------------------------------

def test_accepted_sequences_pass_downstream_checks():
    grid = GridSpec(100, 32, 0.999)
    for seq in random_accepted_sequences(30):
        assert coeff_condition(seq, 0.0).verdict == "satisfied"
        f = HarmonicMap.from_series(seq)
        assert c_h2_numeric(f, 0.0, grid).verdict == "satisfied"
        assert coefficient_growth_check(seq, 0.0).verdict == "satisfied"
        assert starlike_scan(f, 0.999, grid).verdict == "satisfied"


def test_rejected_necessity_fixture():
    # all-nonpositive coefficients: condition is two-sided there, and
    # z - z^2 fails both the sum test and the sampled derivative test
    seq = CoefficientSeq({2: -1.0}, {}, 2)
    assert coeff_condition(seq, 0.0).verdict == "violated"
    f = HarmonicMap.from_series(seq)
    assert c_h2_numeric(f, 0.0).verdict == "violated"
