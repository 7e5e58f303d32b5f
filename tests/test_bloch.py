"""Bloch-Landau radii for bounded harmonic maps and the summary table."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from harmradius import (
    BlochRow,
    MIN_BOUND,
    PRIOR_ESTIMATE_FACTOR,
    bloch_radius,
    bloch_table,
    bloch_table_csv,
    coefficient_bound,
    phi,
    psi,
    uniform_family_radius,
)
from harmradius.bloch import BLOCH_CSV_HEADER

# frozen expected table: M -> (phi, psi, r_S, R_S)
EXPECTED_ROWS = {
    1.0: (0.22421, 0.12629, 0.251602, 0.143904),
    2.0: (0.11992, 0.06367, 0.152633, 0.082622),
    3.0: (0.08311, 0.04328, 0.109765, 0.0580693),
}


def test_coefficient_bound_values():
    assert coefficient_bound(math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert coefficient_bound(1.0) == pytest.approx(4 / math.pi, abs=1e-15)
    assert coefficient_bound(2.0) == pytest.approx(8 / math.pi, abs=1e-15)


def test_coefficient_bound_domain():
    # check_real's one format: M lies in [pi/4, inf), so NaN and inf do not
    assert MIN_BOUND == pytest.approx(math.pi / 4)
    for M in (0.7, math.nan, math.inf):
        for fn in (coefficient_bound, bloch_radius, lambda m: bloch_table([1.0, m])):
            with pytest.raises(ValueError, match=re.escape(
                    f"sup-norm bound M must lie in [0.7853981633974483, inf), got {M!r}")):
                fn(M)


def test_bloch_radius_table_values():
    for M, (_, _, r_s, big_r) in EXPECTED_ROWS.items():
        got_r, got_R = bloch_radius(M)
        assert got_r == pytest.approx(r_s, abs=1e-5)
        assert got_R == pytest.approx(big_r, abs=1e-5)


def test_bloch_radius_minimal_bound():
    r_s, big_r = bloch_radius(math.pi / 4)
    assert r_s == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)
    assert big_r == pytest.approx(r_s - r_s ** 2 / (1 - r_s), abs=1e-15)


def test_bloch_radius_shares_uniform_formula():
    for M in (math.pi / 4, 1.0, 2.0, 3.0, 7.25):
        assert bloch_radius(M)[0] == uniform_family_radius(
            coefficient_bound(M), 0.0).radius


def test_bloch_radius_geometric_series_form():
    # R_S = r_S - c * sum_{n>=2} r_S^n, summed directly
    for M in (1.0, 2.0, 5.0):
        c = coefficient_bound(M)
        r_s, big_r = bloch_radius(M)
        direct = r_s - c * math.fsum(r_s ** n for n in range(2, 500))
        assert big_r == pytest.approx(direct, abs=1e-12)


def test_bloch_radius_monotone_in_M():
    Ms = np.linspace(math.pi / 4, 10.0, 40)
    rs = [bloch_radius(M) for M in Ms]
    assert all(a[0] > b[0] for a, b in zip(rs, rs[1:]))
    assert all(a[1] > b[1] for a, b in zip(rs, rs[1:]))
    assert all(0 < R < r < 1 for r, R in rs)


def test_phi_psi_values():
    for M, (p, q, _, _) in EXPECTED_ROWS.items():
        x = 8 * M / math.pi
        assert phi(x) == pytest.approx(p, abs=1e-4)
        assert psi(x) == pytest.approx(q, abs=1e-4)


def _psi_reference(x: float) -> Decimal:
    """psi(x) by its defining formula in decimal arithmetic, to 60 digits.

    The formula cancels about three times the decimal exponent of x in
    digits, so the working precision carries that many more."""
    d = Decimal(x)
    with localcontext() as ctx:
        ctx.prec = 60 + 3 * max(d.adjusted(), 0)
        num, den = d * d - 1, d * d + d - 1
        return (1 + (num / d) * (num / den).ln()) / Decimal(2).sqrt()


def test_psi_matches_decimal_reference():
    xs = np.concatenate([[1.001, 1.5, (1 + math.sqrt(5)) / 2, 2.0, 8 / math.pi, 1e9, 1e15],
                         np.geomspace(1.001, 1e100, 400)])
    for x in xs:
        ref = _psi_reference(float(x))
        got = psi(float(x))
        assert got > 0.0
        assert abs((Decimal(got) - ref) / ref) <= Decimal("1e-13"), x


def test_phi_psi_domains():
    with pytest.raises(ValueError):
        phi(0.5)  # 0.25 + 0.5 - 1 < 0
    with pytest.raises(ValueError):
        psi(1.0)
    with pytest.raises(ValueError):
        psi(0.9)


def test_table_huge_bounds():
    # r_S ~ 1/(2c) and R_S ~ r_S/2 for c = 4M/pi; neither cancels nor overflows
    for row in bloch_table([1e16, 1e200, 1e307]):
        assert row.r_S == pytest.approx(math.pi / (8.0 * row.M), rel=1e-12)
        assert row.R_S == pytest.approx(row.r_S / 2.0, rel=1e-12)
        assert row.phi == pytest.approx(math.pi / (8.0 * math.sqrt(2.0) * row.M),
                                        rel=1e-12)
        assert 0.0 < row.psi < row.phi


def test_table_rows():
    rows = bloch_table([1.0, 2.0, 3.0])
    assert len(rows) == 3
    for row in rows:
        p, q, r_s, big_r = EXPECTED_ROWS[row.M]
        assert row.phi == pytest.approx(p, abs=1e-4)
        assert row.psi == pytest.approx(q, abs=1e-4)
        assert row.r_S == pytest.approx(r_s, abs=1e-5)
        assert row.R_S == pytest.approx(big_r, abs=1e-5)
        assert row.c == pytest.approx(4 * row.M / math.pi, abs=1e-15)
        # the new radius beats the phi comparison bound
        assert row.r_S > row.phi


def test_table_rejects_small_M():
    with pytest.raises(ValueError):
        bloch_table([1.0, 0.5])


def test_bloch_row_invariants():
    with pytest.raises(ValueError):
        BlochRow(1.0, 0.9, 0.25, 0.14, 0.2, 0.1)   # c < 1
    with pytest.raises(ValueError):
        BlochRow(1.0, 1.2, 0.25, 0.3, 0.2, 0.1)    # R_S > r_S
    for r_s in (0.0, 1.0):
        with pytest.raises(ValueError, match=re.escape("r_S must lie in (0, 1)")):
            BlochRow(1.0, 1.2, r_s, 0.1, 0.2, 0.1)


def test_csv_output():
    rows = bloch_table([1.0, 2.0])
    text = bloch_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == BLOCH_CSV_HEADER == "M,phi,psi,r_S,R_S"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[3]) == pytest.approx(0.251602, abs=1e-5)
    assert float(first[4]) == pytest.approx(0.143904, abs=1e-5)
    assert text.endswith("\n")


def test_prior_constant_documented():
    assert PRIOR_ESTIMATE_FACTOR == pytest.approx(1 / 11.105, abs=1e-15)
    # the new bound beats it at every tabulated M
    for M in (1.0, 2.0, 3.0):
        assert bloch_radius(M)[1] > PRIOR_ESTIMATE_FACTOR / M
