"""Benchmark-side reference values, computed without harmradius.

Radii are checked by brute-force summation of S(r) = |b1| + sum n w_n r^(n-1)
term by term (w_n = |a_n| + |b_n|, or the family's per-index bound), so
they never reuse the package's closed forms or tail majorant.  Witness
Jacobians and their roots come from the polynomials written out in the
package documentation.
"""

import math

import numpy as np

KOEBE_RADIUS_POLY = (2, -8, 11, -10, 1)      # factor of the F0 Jacobian numerator
CONVEX_RADIUS_POLY = (2, -6, 7, -1)          # convex-family cubic
SCAN_HI = 0.999                               # jacobian_roots default scan end


def series_sum(weight, r: float, start: int = 2) -> float:
    """sum_{n>=start} n * weight(n) * r^(n-1), summed until the terms stop mattering."""
    terms = []
    n = start
    prev = math.inf
    while True:
        t = n * weight(n) * r ** (n - 1)
        terms.append(t)
        if n > start + 8 and t <= prev and t <= 1e-19 * max(terms):
            return math.fsum(terms)
        prev = t
        n += 1


def family_s(kind: str, c: float, b1: float, r: float) -> float:
    """S(r) of a bound family from its per-index bounds on |a_n| + |b_n|."""
    if kind == "koebe":
        return series_sum(lambda n: (2 * n * n + 1) / 3.0, r)  # (2n+1)(n+1)/6 + (2n-1)(n-1)/6
    if kind == "convex":
        return series_sum(lambda n: float(n), r)                # (n+1)/2 + (n-1)/2
    return b1 + series_sum(lambda n: c, r)


def seq_s(doc: dict, r: float) -> float:
    """S(r) of a coefficient-sequence document, tail summed term by term."""
    combined: dict[int, float] = {}
    b1 = 0.0
    for key in ("a", "b"):
        for n, re, im in doc[key]:
            if key == "b" and n == 1:
                b1 = abs(complex(re, im))
            else:
                combined[n] = combined.get(n, 0.0) + abs(complex(re, im))
    stored = math.fsum([b1] + [n * w * r ** (n - 1) for n, w in combined.items()])
    tail = doc.get("tail")
    if not tail:
        return stored
    p = tail["degree"]
    return stored + tail["constant"] * series_sum(lambda n: n ** p, r,
                                                  start=doc["truncation"] + 1)


def root_of_increasing(fn, target: float, lo: float = 0.0, hi: float = 0.999) -> float:
    """Crossing of an increasing fn with target, bisected to 1e-15."""
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if fn(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brackets_root(fn, target: float, r: float, delta: float = 1e-10) -> bool:
    """True when the increasing fn crosses target within delta of r."""
    return fn(r - delta) < target < fn(r + delta)


def power_sums(r: float) -> tuple[float, float, float]:
    """(sum n r^n, sum n^2 r^n, sum n^3 r^(n-1)) over n >= 1 by summation."""
    return (r * series_sum(lambda n: 1.0, r, 1),
            r * series_sum(lambda n: float(n), r, 1),
            series_sum(lambda n: float(n * n), r, 1))


def bloch_row(M: float) -> dict:
    c = 4.0 * M / math.pi
    r_s = 1.0 - math.sqrt(c / (c + 1.0))
    x = 8.0 * M / math.pi
    return {
        "M": M, "c": c, "r_S": r_s, "R_S": r_s - c * r_s * r_s / (1.0 - r_s),
        "phi": x / (math.sqrt(2.0) * (x * x + x - 1.0)),
        "psi": (1.0 + ((x * x - 1.0) / x) * math.log((x * x - 1.0) / (x * x + x - 1.0)))
        / math.sqrt(2.0),
    }


# -- witnesses -----------------------------------------------------------------

def witness_jacobian(label: str, r: float, c: float = 0.0, b1: float = 0.0) -> float:
    """Real-axis Jacobian of the witness maps F0, L0, f0(c, b1)."""
    if label == "F0":
        return (np.polyval(CONVEX_RADIUS_POLY, r) * np.polyval(KOEBE_RADIUS_POLY, r)
                / -((1 - r) ** 7))
    if label == "L0":
        return (2 - (1 + r) / (1 - r) ** 3) * (2 - 1 / (1 - r) ** 2)
    return (1 + b1) * (1 + c - b1 - c / (1 - r) ** 2)


def witness_roots(label: str, c: float = 0.0, b1: float = 0.0) -> list[float]:
    """Sign changes of the witness Jacobian on (0, SCAN_HI), ascending."""
    if label == "f0":
        roots = [1.0 - math.sqrt(c / (1.0 + c - b1))]
    else:
        second = KOEBE_RADIUS_POLY if label == "F0" else None
        roots = [float(z.real) for poly in (CONVEX_RADIUS_POLY, second) if poly
                 for z in np.roots(poly) if abs(z.imag) < 1e-12]
        if label == "L0":
            roots.append(1.0 - 1.0 / math.sqrt(2.0))
    return sorted(r for r in roots if 0.0 < r < SCAN_HI)


def witness_radius(label: str, c: float = 0.0, b1: float = 0.0) -> float:
    """The radius each witness certifies: its first Jacobian root."""
    return witness_roots(label, c, b1)[0]


def f0_map(z: complex) -> complex:
    """F0 = 2z - H - conj(G) with the harmonic Koebe parts H, G."""
    h = (z - z * z / 2 + z ** 3 / 6) / (1 - z) ** 3
    g = (z * z / 2 + z ** 3 / 6) / (1 - z) ** 3
    return 2 * z - h - g.conjugate()
