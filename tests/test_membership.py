"""Membership checks: coefficient tests and sampled scans."""

import math
import random
import re
import sys

import numpy as np
import pytest

from harmradius import (
    BoundFamily,
    CoefficientSeq,
    GridSpec,
    HarmonicMap,
    MembershipReport,
    c_h2_numeric,
    closed_form_radius,
    coeff_condition,
    coefficient_growth_check,
    convex_family_radius,
    get_extremal,
    identity_map,
    injectivity_oracle,
    koebe_family_radius,
    one_term_extremal,
    radius_by_bisection,
    starlike_scan,
    weighted_sum,
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
    with pytest.raises(ValueError, match="grid size must be >= 2, got 1"):
        GridSpec(1, 8, 0.5)
    with pytest.raises(ValueError, match="grid size must be >= 1, got 0"):
        GridSpec(2, 0, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 8, 1.0)
    # counts are integers: a float fails here, not inside np.geomspace
    for radial, angular in ((10.5, 8.7), (10.0, 8), (10, 8.0), (True, 8)):
        with pytest.raises(TypeError, match="grid size must be an integer"):
            GridSpec(radial, angular, 0.5)
    assert len(GridSpec(np.int64(10), np.int32(8), 0.5).points()) == 80


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
    with pytest.raises(ValueError, match=re.escape(
            "koebe: closed-form map has no finite coefficient sequence")):
        coeff_condition(get_extremal("koebe"), 0.0)


def test_coefficient_checks_refuse_a_bound_family():
    for check in (coeff_condition, coefficient_growth_check):
        with pytest.raises(TypeError, match="expected a CoefficientSeq or a series-backed"):
            check(BoundFamily.koebe())


def test_coeff_condition_refuses_a_non_finite_sum():
    # the uniform family's S(0.5) at c = 1e308 overflows to inf: the radius
    # solver reads that inf as S > 1, while the check has no margin to report
    family = BoundFamily.uniform(1e308)
    assert weighted_sum(family, 0.5) == math.inf
    assert radius_by_bisection(family).radius == pytest.approx(5e-309, rel=1e-12)
    with pytest.raises(ValueError, match=re.escape("coefficient sum S(1-) is not finite")):
        coeff_condition(get_extremal("f0", 1e308).dilate(0.5))


def test_coefficient_checks_overflow_into_their_refusals():
    # the stored sum 2 * 5e307 + 3 * 5e307 passes the float range: S(1-) is inf
    seq = CoefficientSeq({2: 5e307, 3: 5e307}, {}, 3)
    with pytest.raises(ValueError, match=re.escape("coefficient sum S(1-) is not finite")):
        coeff_condition(seq)
    # |a_2|^2 = 1e400 passes it in the growth check's sum of squares
    for a2 in (1e200, 1e154):
        with pytest.raises(ValueError, match=re.escape(
                "sum of squares n^2 (|a_n|^2 + |b_n|^2) is not finite")):
            coefficient_growth_check(CoefficientSeq({2: a2}, {3: 1e154}, 3))


DILATIONS = (1.0, 0.999, 0.9, math.sqrt(0.5), 0.5, 0.3, 0.123456789, 1e-3, 5e-324)


def _random_series(rng):
    """A sparse sequence whose S(1-) lies in [0.2, 3], with a summable tail or none."""
    n_max = rng.randint(2, 60)
    draw = lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-6, 0)
    a = {n: draw() for n in rng.sample(range(2, n_max + 1), rng.randint(0, n_max - 1))}
    b = {n: draw() for n in rng.sample(range(2, n_max + 1), rng.randint(0, n_max - 1))}
    total = math.fsum(n * abs(v) for c in (a, b) for n, v in c.items()) or 1.0
    scale = rng.uniform(0.2, 3.0) / total
    a = {n: v * scale for n, v in a.items()}
    b = {n: v * scale for n, v in b.items()}
    if rng.random() < 0.5:
        b[1] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    tail = rng.choice([None, None, -2.5, -3.0, -4.5])
    if tail is not None:
        tail = TailBound(tail, rng.uniform(0.0, 0.1))
    return CoefficientSeq(a, b, n_max, tail)


def test_coefficient_checks_on_a_dilated_series_map_match_a_sequence_dilated_by_hand():
    # the reference: the dilated map's coefficients a_n rho^(n-1), stored as
    # a sequence of their own, with the undilated tail, which still bounds them
    rng = random.Random(20261020)
    for _ in range(300):
        seq = _random_series(rng)
        f = HarmonicMap.from_series(seq)
        for rho in DILATIONS:
            by_hand = CoefficientSeq({n: v * rho ** (n - 1) for n, v in seq.a.items()},
                                     {n: v * rho ** (n - 1) for n, v in seq.b.items()},
                                     seq.truncation, seq.tail)
            for beta in (0.0, 0.3):
                for check in (coeff_condition, coefficient_growth_check):
                    assert repr(check(f.dilate(rho), beta)) == repr(check(by_hand, beta)), (
                        seq, rho, beta, check.__name__)


# label, f0's (c, b1), the family, and the signs of a_n (n >= 2) and b_n
NAMED_MAPS = [
    ("koebe", (), BoundFamily("koebe"), 1, 1),
    ("F0", (), BoundFamily("koebe"), -1, -1),
    ("convex_L", (), BoundFamily("convex"), 1, -1),
    ("L0", (), BoundFamily("convex"), -1, 1),
    ("f0", (1.0, 0.0), BoundFamily.uniform(1.0, 0.0), -1, -1),
    ("f0", (2.0, 0.3), BoundFamily.uniform(2.0, 0.3), -1, -1),
    ("f0", (0.1, 0.5), BoundFamily.uniform(0.1, 0.5), -1, -1),
]


NAMED_IDS = [m[0] + (":%g,%g" % m[1] if m[1] else "") for m in NAMED_MAPS]


@pytest.mark.parametrize("label, params, family, sign_a, sign_b", NAMED_MAPS, ids=NAMED_IDS)
def test_coeff_condition_flips_at_the_radius_of_each_named_map(label, params, family,
                                                               sign_a, sign_b):
    f = get_extremal(label, *params)
    for n in range(1, 61):
        a, b = family.bounds(n)
        assert f.coefficient(n) == (1.0 if n == 1 else sign_a * a, sign_b * b)
    radius = closed_form_radius(family).radius
    expected = [("satisfied", False), ("satisfied", True), ("violated", False)]
    for k, (verdict, boundary) in zip((0.99, 1.0, 1.01), expected):
        g = f.dilate(k * radius)
        rep, summed = coeff_condition(g), coeff_condition(g.section(3000, 3000))
        assert (rep.verdict, rep.boundary) == (verdict, boundary)
        assert (rep.verdict, rep.witness) == (summed.verdict, summed.witness)
        assert rep.margin == pytest.approx(summed.margin, abs=1e-12)
        assert abs(rep.margin) > 1e-3 if k != 1.0 else abs(rep.margin) <= 4.5e-16
        # the growth check has no closed form on a named map
        with pytest.raises(ValueError, match=re.escape(
                f"{g.label}: closed-form map has no finite coefficient sequence")):
            coefficient_growth_check(g)


@pytest.mark.parametrize("label, params, family, sign_a, sign_b", NAMED_MAPS[::2],
                         ids=NAMED_IDS[::2])
def test_coeff_condition_witness_is_the_heaviest_term_of_a_named_map(label, params, family,
                                                                     sign_a, sign_b):
    f = get_extremal(label, *params)
    for rho in (0.6, 0.9, 0.99, 0.999):  # past every radius
        terms = {1: family.bounds(1)[1]}
        terms.update((n, n * sum(family.bounds(n)) * rho ** (n - 1)) for n in range(2, 20000))
        rep = coeff_condition(f.dilate(rho))
        assert (rep.verdict, rep.witness) == ("violated", max(terms, key=terms.get))
    # a dilation next to 1 puts the heaviest term near n = 3e16 (koebe): the
    # bracket reaches it in some 100 steps, with no walk over the indices
    rep = coeff_condition(f.dilate(math.nextafter(1.0, 0.0)))
    assert rep.verdict == "violated" and rep.witness >= 2


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
    rep = coefficient_growth_check(identity_map().source[0], beta)
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
    K = get_extremal("koebe")
    rep = c_h2_numeric(K.dilate(0.112903), 0.0)
    assert rep.verdict == "satisfied"
    assert rep.margin > 0


def test_c_h2_dilated_koebe_outside_radius():
    K = get_extremal("koebe")
    rep = c_h2_numeric(K.dilate(0.5), 0.0)
    assert rep.verdict == "violated"
    # failure shows up along the positive real axis near the rim
    z = rep.witness
    assert z.real > 0.9
    assert abs(z.imag) < z.real * math.tan(2 * math.pi / 64) + 1e-12


def test_c_h2_respects_supplied_grid():
    # the inequality for dilate(K, rho) crosses at rho |z| ~ 0.1129
    K = get_extremal("koebe").dilate(0.2)
    rep = c_h2_numeric(K, 0.0, GridSpec(30, 8, 0.3))
    assert rep.grid_spec == GridSpec(30, 8, 0.3).describe()
    assert rep.verdict == "satisfied"  # 0.2 * 0.3 is inside the radius
    assert c_h2_numeric(K, 0.0).verdict == "violated"  # 0.2 * 0.999 is not


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
    rep = starlike_scan(get_extremal("koebe").dilate(r_s), 0.999)
    assert rep.verdict == "satisfied"


def test_starlike_witness_violated():
    rep = starlike_scan(get_extremal("F0"), 0.2)
    assert rep.verdict == "violated"
    assert rep.witness is not None


def test_starlike_singularity_report():
    # f(z) = z - 2 z^2 vanishes at z = 1/2, which the grid hits exactly
    f = HarmonicMap.from_series(CoefficientSeq({2: -2.0}, {}, 2))
    rep = starlike_scan(f, 0.5, GridSpec(10, 8, 0.5))
    assert rep.verdict == "inconclusive"
    assert "singularity" in rep.note
    assert rep.witness == 0.5 + 0j


@pytest.mark.parametrize("r", [1e-9, 1e-11, 1e-13, 1e-100])
def test_starlike_tiny_radius_agrees_with_the_dilated_map(r):
    # f(z) = z + O(z^2) has no zero on the grid: the singularity test scales
    # with the disk, so a tiny disk reads as the dilated map's disk does
    K = get_extremal("koebe")
    small = starlike_scan(K, r, GridSpec(20, 8, r))
    dilated = starlike_scan(K.dilate(r), 0.5, GridSpec(20, 8, 0.5))
    for rep in (small, dilated):
        assert rep.verdict == "satisfied"
        assert rep.margin == pytest.approx(1.0, abs=1e-8)


def test_starlike_refuses_exactly_the_grids_with_a_subnormal_inner_circle():
    # numpy's complex division of a subnormal by a subnormal is not finite, so
    # such a grid has a refusal of its own, not "map evaluation is not finite"
    for f in (get_extremal("koebe"), get_extremal("F0")):
        for r in np.geomspace(1e-300, 5e-324, 120).tolist():
            for grid in (GridSpec(20, 8, r), GridSpec(200, 64, r)):
                if grid.radii()[0] >= sys.float_info.min:
                    assert starlike_scan(f, r, grid).verdict == "satisfied", r
                else:
                    with pytest.raises(ValueError, match="too small"):
                        starlike_scan(f, r, grid)


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
    rep = injectivity_oracle(get_extremal("F0"), 0.2, 256)
    assert rep.verdict == "violated"
    assert rep.margin < 0
    z1, z2 = rep.witness
    f = get_extremal("F0")
    assert abs(f(z1) - f(z2)) <= 1e-9
    assert abs(z1 - z2) > 2 * (0.4 / 255)
    assert abs(z1) <= 0.2 and abs(z2) <= 0.2


def test_newton_gives_up_on_a_singular_jacobian_and_outside_the_disk():
    from harmradius.membership import _newton_collide

    # g(z) = z^2 has J = 1 - 4|z|^2, zero at z = 1/2, where no step can be solved for
    fold = HarmonicMap.from_series(CoefficientSeq({}, {2: 1.0}, 2))
    assert fold.jacobian(0.5) == 0.0
    assert _newton_collide(fold, fold(0.5) + 0.1, 0.5, 0.9, 1.0) is None
    # the identity's one step from 0 lands on the target 0.8, outside |z| <= 0.5
    assert _newton_collide(identity_map(), 0.8, 0j, 0.5, 1.0) is None
    assert _newton_collide(identity_map(), 0.4, 0j, 0.5, 1.0) == (0.4 + 0j, 0.0)


def test_injectivity_no_near_coincidence_between_separated_samples():
    # a map that stretches its grid apart: no pair of separated samples has
    # images within the largest reach, so nothing is refined
    f = HarmonicMap.from_series(CoefficientSeq({3: 500.0}, {2: 400.0}, 3))
    rep = injectivity_oracle(f, 0.3, 8)
    assert rep.verdict == "inconclusive" and rep.witness is None
    assert rep.note == "no image near-coincidence between separated samples"
    assert rep.margin == 0.4285714275714286


def test_injectivity_dilated_koebe_no_collision():
    K = get_extremal("koebe").dilate(0.112903)
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
        # the shorter reaches find nothing, so the oracle takes the last, 5 pitches
        queries.append(reach)
        return full.T if reach == 5.0 * pitch else (np.empty(0, np.intp), np.empty(0, np.intp))

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
        return get_extremal("koebe").dilate(0.112903)
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
    # a map the stage settles makes no search, whose first reach is the largest
    # power of two at or below 5/16 of a pitch; the search below runs on every map
    pitch = 2.0 * r / (resolution - 1)
    first_reach = 2.0 ** math.floor(math.log2(5.0 * pitch / 16))
    assert first_reach <= 5.0 * pitch / 16 < 2 * first_reach
    settled = injectivity_oracle(f, r, resolution).note == STAGE_NOTE
    assert settled == (first_reach not in [reach for reach, _ in log])
    _search_only(monkeypatch)
    log.clear()
    got = _with_refined(monkeypatch, lambda: injectivity_oracle(f, r, resolution))
    reaches = [reach for reach, _ in log]
    # the powers of two below 5 pitches, doubling, then 5 pitches; cut at the stop
    schedule = [first_reach * 2 ** k for k in range(5) if first_reach * 2 ** k < 5.0 * pitch]
    assert 1 <= len(reaches) <= 6
    assert reaches == (schedule + [5.0 * pitch])[:len(reaches)]
    if resolution == 8:
        # too few candidates: the search goes out to 5 pitches
        assert reaches[-1] == 5.0 * pitch
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


def test_cell_pairs_at_the_compact_row_edge(rng):
    # n points whose occupied rows span 2n - 1 cell numbers (offsets from the
    # lowest row) and 2n (renumbered with every gap capped at 2)
    from harmradius.membership import _cell_pairs, _cell_rows

    for n in (2, 3, 7, 40):
        for span in (2 * n - 1, 2 * n):
            for _ in range(25):
                rows = np.r_[0, span, rng.integers(0, span + 1, n - 2)] + rng.integers(-99, 99)
                numbers = _cell_rows(rows.astype(float))
                if span < 2 * n:
                    assert np.array_equal(numbers, rows - rows.min())
                else:  # n - 1 gaps add up to 2n, so at least one is capped
                    assert numbers.max() < span
                # cells of side 1: a point of row k lies in [k, k + 1)
                x = rows + rng.choice([0.0, 0.5, 0.75], n)
                y = rng.integers(0, rng.integers(1, 2 * n + 2), n) + rng.choice([0.0, 0.25], n)
                for px, py in ((x, y), (y, x)):
                    i, j = _cell_pairs(px, py, 1.0)
                    got = sorted(zip(i.tolist(), j.tolist()))
                    assert got == _pairs_by_all_pairs(px, py, 1.0), (px.tolist(), py.tolist())


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
                         [case for case in ORACLE_CASES + _sweep() if case[2] <= 128]
                         + [("F0", 0.18, 512), ("F0", 0.15, 256)])
def test_cell_pairs_are_the_query_pairs_of_the_oracle_reaches(label, r, resolution):
    # every reach up to resolution 128; above it, at benchmark scale, the first
    # reach only, where F0's oracle calls stop and nearly every cell holds one image
    from harmradius.membership import _reaches

    reaches = _reaches(2.0 * r / (resolution - 1))
    _, images = _grid_images(_oracle_map(label), r, resolution)
    _assert_query_pairs(images, reaches if resolution <= 128 else reaches[:1])


def test_cell_pairs_of_a_clustered_map(monkeypatch):
    # z + 1e13 z^40 sends the grid of |z| <= 0.9 to a cluster of width 1 and a
    # spray out to 1.5e11, 4e13 cell widths apart: the cell keys are renumbered
    # rows, not coordinates, which would overflow int64, and the cells keep
    # their width
    import tracemalloc

    from harmradius.membership import _reaches

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
    _assert_query_pairs(images, _reaches(1.8 / 511)[:1])  # the first reach


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
    rep = injectivity_oracle(get_extremal("koebe").dilate(0.1), min(r, 1e-14), 16)
    assert rep.verdict == "inconclusive"


def test_injectivity_refuses_radii_whose_squared_reach_underflows():
    from harmradius.membership import _MIN_REACH

    for resolution in (8, 64, 512):
        # the radius whose 5/16 of a pitch is _MIN_REACH, a power of two: the
        # shortest reach, the largest power of two at or below it, is _MIN_REACH
        least = _MIN_REACH * 16 / 5 * (resolution - 1) / 2
        assert injectivity_oracle(identity_map(), 2 * least, resolution).verdict == "inconclusive"
        for r in (least / 2, 1e-200, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                injectivity_oracle(identity_map(), r, resolution)


def test_pair_search_reaches_are_powers_of_two_then_five_pitches(rng):
    from harmradius.membership import _MIN_REACH, _reaches

    def power_of_two(x):  # then x is its own cell side in _cell_pairs
        return math.frexp(x)[0] == 0.5

    pitches = [2.0 * r / (n - 1) for r, n in zip(rng.uniform(1e-6, 1.0, 400),
                                                 rng.integers(8, 513, 400))]
    # pitches whose 5/16 is a power of two: five reaches, 5 pitches / 2^k
    exact = [p for k in range(-500, 0) for p in [math.ldexp(16 / 5, k)]
             if power_of_two(5.0 * p / 16)]
    assert len(exact) > 100
    for p in pitches + exact:
        reaches = _reaches(p)
        *powers, last = reaches
        assert last == 5.0 * p
        assert all(power_of_two(reach) and reach < last for reach in powers)
        assert powers[0] <= 5.0 * p / 16 < 2 * powers[0]
        assert all(longer == 2 * shorter for shorter, longer in zip(powers, powers[1:]))
        assert 2 * powers[-1] >= last  # the last power of two below 5 pitches
        assert len(reaches) == (5 if p in exact else 6)
    for p in exact:
        assert _reaches(p) == [5.0 * p / 2 ** k for k in range(4, -1, -1)]

    # the same refused radii: the shortest reach is below _MIN_REACH exactly
    # when 5/16 of a pitch is
    for resolution in (8, 64, 512):
        least = _MIN_REACH * 16 / 5 * (resolution - 1) / 2
        radii = [least * (1.0 + d) for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5)]
        radii += [math.nextafter(least, 0.0), math.nextafter(least, 1.0)]
        for r in radii:
            p = 2.0 * r / (resolution - 1)
            refused = 5.0 * p / 16 < _MIN_REACH
            assert (_reaches(p)[0] < _MIN_REACH) == refused
            if refused:
                with pytest.raises(ValueError, match="too small"):
                    injectivity_oracle(identity_map(), r, resolution)
            else:
                assert injectivity_oracle(identity_map(), r, resolution).verdict == "inconclusive"


@pytest.mark.parametrize("size", [16_384, 16_385, 32_768, 32_769, 49_152, 49_153, 205_012])
def test_grid_blocks_give_the_bytes_of_one_call(size):
    # numpy elides temporaries from 16,384 complex points up, which moves the
    # last bits of f and J: the slices of a larger array must all be past that
    # size.  This fails if a numpy release moves it.
    from harmradius.membership import _BLOCK, _blocks

    blocks = _blocks(size)
    assert [b.start for b in blocks] == [0, *(b.stop for b in blocks[:-1])]
    assert blocks[-1].stop == size
    lengths = [b.stop - b.start for b in blocks]
    assert max(lengths) <= _BLOCK * 3 // 2
    assert min(lengths) > _BLOCK // 2 or lengths == [size]
    rng = np.random.default_rng(size)
    radius, angle = rng.uniform(0.0, 1.0, (2, size))
    pts = 0.21 * np.sqrt(radius) * np.exp(2j * np.pi * angle)
    maps = [get_extremal("F0"), get_extremal("L0"), get_extremal("koebe"), get_extremal("convex_L"),
            get_extremal("f0", 2.0, 0.3), get_extremal("F0").dilate(0.3),
            HarmonicMap.from_series(CoefficientSeq({2: 0.3 + 0.1j, 5: -0.02},
                                                   {1: 0.2, 3: 0.05j}, 5))]
    for f in maps:
        for evaluate in (f, f.jacobian):
            whole = evaluate(pts)
            sliced = np.concatenate([evaluate(pts[b]) for b in blocks])
            assert sliced.tobytes() == whole.tobytes(), (f.label, evaluate)


def test_injectivity_oracle_memory():
    import tracemalloc

    f = get_extremal("F0")
    injectivity_oracle(f, 0.2, 64)  # imports and first-call set-up outside the count
    for r in (0.18, 0.2):
        tracemalloc.start()
        try:
            assert injectivity_oracle(f, r, 512).verdict == "violated"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 22.4 MB measured at both radii: the reaches are their own cell
        # sides, and f is evaluated on the grid in slices
        assert peak < 24 * 2 ** 20, f"r={r}: {peak / 2 ** 20:.1f} MB"


def test_cell_pairs_memory_on_dense_cells():
    # the edge midpoints of the harmonic Koebe ring at r = 0.9 crowd two cells
    # of the polygon test's reach: 1.8 M of the 2.1 M edge pairs are in reach
    import tracemalloc

    from harmradius.membership import _cell_pairs

    m = 4 * 512
    p = get_extremal("koebe")(0.9 * np.exp(2j * np.pi * np.arange(m) / m))
    d = np.roll(p, -1) - p
    mid = p + d / 2
    reach = float(np.abs(d).max()) * (1.0 + 1e-9)
    _cell_pairs(mid.real[:64], mid.imag[:64], reach)  # first-call set-up outside the count
    tracemalloc.start()
    try:
        i, _ = _cell_pairs(mid.real, mid.imag, reach)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.size > 1_800_000
    # 56.5 MB measured, with a cell's pairs with itself expanded as a triangle
    assert peak < 62 * 2 ** 20, f"{peak / 2 ** 20:.0f} MB"


def test_ckdtree_is_a_lazy_module_attribute():
    # no check calls cKDTree; it stays as the hook perfbench's tracer wraps
    import scipy.spatial

    from harmradius import membership

    assert membership.cKDTree is scipy.spatial.cKDTree
    assert "cKDTree" in vars(membership)  # stored by the first lookup
    with pytest.raises(AttributeError, match="no_such_name"):
        membership.no_such_name


def test_grid_descriptions_keep_every_digit_of_the_radius():
    # 0.9999999999999999 is the float below 1, inside the disk; :g read it as 1
    for r in (0.9999999999999999, 0.1129031):
        assert GridSpec(8, 4, r).describe().endswith(f"r_max={r!r}")
        for f in (get_extremal("F0"), identity_map()):  # every map answers on |z| < 1
            rep = injectivity_oracle(f, r, 8)
            assert f"cartesian grid on |z|<={r!r}, pitch" in rep.grid_spec
    # at the two largest radii a grid takes, r_max e^(i theta) would round onto
    # |z| = 1: the outer circle is sampled inside, and r_max is printed
    f = get_extremal("koebe").dilate(0.1)
    for r in (0.9999999999999999, 0.9999999999999998):
        grid = GridSpec(8, 64, r)
        for rep in (c_h2_numeric(f, 0.0, grid), starlike_scan(f, r, grid)):
            assert rep.verdict == "satisfied"
            assert rep.grid_spec.endswith(f"r_max={r!r}")
    assert GridSpec(8, 4, np.float64(0.5)).describe().endswith("r_max=0.5")


def test_injectivity_validation():
    with pytest.raises(ValueError, match=re.escape("resolution must lie in [8, 512]")):
        injectivity_oracle(identity_map(), 0.5, 600)
    with pytest.raises(ValueError):
        injectivity_oracle(identity_map(), 1.2, 64)
    # 64.9 is refused, not run as a 64x64 grid
    for bad in (64.9, 64.0, np.float64(64.0), True):
        with pytest.raises(TypeError, match="resolution must be an integer"):
            injectivity_oracle(identity_map(), 0.5, bad)
    assert injectivity_oracle(identity_map(), 0.5, np.int64(16)).verdict == "inconclusive"


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
