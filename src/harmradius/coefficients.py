"""Coefficient data for planar harmonic mappings and the weighted sum S(r).

A normalized harmonic mapping of the unit disk splits as f = h + conj(g)
with analytic parts

    h(z) = z + sum_{n>=2} a_n z^n,        g(z) = sum_{n>=1} b_n z^n.

Everything in this package that computes a radius does so through the
weighted coefficient sum

    S(r) = |b_1| + sum_{n>=2} n (|a_n| + |b_n|) r^(n-1),     0 <= r < 1,

because S(r) <= 1 - beta certifies that the dilated map f_r(z) = f(rz)/r
is close-to-convex (and starlike when b_1 = 0).  Two kinds of input are
supported: explicit (possibly truncated) coefficient sequences, and
closed-form bound families for which S(r) is a known rational function.
Bound families are always summed in closed form, never by truncation.
"""

import json
import math
import sys

from ._util import check_index, check_uniform, record

__all__ = [
    "SERIES_EVAL_MAX",
    "TailBound",
    "CoefficientSeq",
    "BoundFamily",
    "FAMILY_POLYNOMIALS",
    "koebe_bounds",
    "convex_bounds",
    "power_sums",
    "weighted_sum",
    "weighted_sum_tail",
    "weighted_sum_limit",
    "sequence_from_dict",
    "sequence_to_dict",
    "load_sequence",
    "save_sequence",
]

# Series-type evaluations (tail majorants here, stored polynomials in maps)
# are trusted only for |z| <= SERIES_EVAL_MAX: polynomially growing
# coefficient families make truncation error controllable only away from
# the boundary.
SERIES_EVAL_MAX = 0.999


class TailBound(record("TailBound", "degree constant")):
    """Bound |a_n| + |b_n| <= constant * n**degree for all n past the truncation."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.degree):
            raise ValueError("tail degree must be finite")
        if not (math.isfinite(self.constant) and self.constant >= 0.0):
            raise ValueError("tail constant must be finite and nonnegative")
        return self


class CoefficientSeq(record("CoefficientSeq", "a b truncation tail")):
    """Explicit coefficients of a harmonic map, sparse by index.

    Args:
        a: mapping n -> a_n for n >= 2 (a_1 is fixed to 1 and never stored).
        b: mapping n -> b_n for n >= 1.
        truncation: highest stored index N; indices beyond N are either
            exactly zero (tail is None) or bounded by the attached TailBound.
        tail: optional polynomial tail bound for the unstored indices.

    The sequence is immutable after construction: a and b are stored as
    fresh dicts of int -> complex, sorted by index.  |b_1| < 1 is enforced
    here because every downstream class check requires it.
    """

    __slots__ = ()

    def __new__(cls, a=None, b=None, truncation=1, tail=None):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        stored = []
        for what, low, given in (("a", 2, a), ("b", 1, b)):
            checked = {}
            for n, v in (given or {}).items():
                n = check_index(n, low, what)
                if n > truncation:
                    raise ValueError(f"{what} index {n} exceeds truncation {truncation}")
                v = complex(v)
                # S(r) weighs v by n, so n*|v| must be finite as well as v
                if not math.isfinite(n * abs(v)):
                    raise ValueError(f"{what}[{n}]: n*|{what}_n| is not finite")
                checked[n] = v
            stored.append(dict(sorted(checked.items())))
        self = super().__new__(cls, *stored, truncation, tail)
        if abs(self.b1) >= 1.0:
            raise ValueError("|b_1| must be < 1 (sense-preserving normalization)")
        return self

    @property
    def b1(self) -> complex:
        return self.b.get(1, 0j)

    def scaled(self, rho: float) -> "CoefficientSeq":
        """Coefficients of the dilated map f_rho(z) = f(rho z)/rho."""
        if not (0.0 < rho <= 1.0):
            raise ValueError("dilation parameter must lie in (0, 1]")
        # C n^d rho^(n-1) <= C n^d for n > N, so the old tail stays a valid
        # (conservative) majorant for the dilated sequence.
        return CoefficientSeq(
            {n: v * rho ** (n - 1) for n, v in self.a.items()},
            {n: v * rho ** (n - 1) for n, v in self.b.items()},
            self.truncation,
            self.tail,
        )


# ---------------------------------------------------------------------------
# Bound families
# ---------------------------------------------------------------------------

def koebe_bounds(n: int) -> tuple[float, float]:
    """Per-index bounds ((2n+1)(n+1)/6, (2n-1)(n-1)/6) of the harmonic Koebe family.

    Raises:
        ValueError: if n < 1.
    """
    check_index(n, 1, "bound")
    return (2 * n + 1) * (n + 1) / 6.0, (2 * n - 1) * (n - 1) / 6.0


def convex_bounds(n: int) -> tuple[float, float]:
    """Per-index bounds ((n+1)/2, (n-1)/2) of the convex-mapping family."""
    check_index(n, 1, "bound")
    return (n + 1) / 2.0, (n - 1) / 2.0


class BoundFamily(record("BoundFamily", "kind c b1_abs", (None, 0.0))):
    """A family of harmonic maps defined by per-index coefficient bounds.

    kind is one of "koebe", "convex", "uniform".  Only the uniform family
    takes parameters: the bound c on |a_n| + |b_n| for n >= 2 (required)
    and b1_abs = |b_1| (default 0).  Koebe and convex take none (b_1 = 0).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("koebe", "convex", "uniform"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "uniform":
            if self.c is None:
                raise ValueError("family 'uniform' requires the bound parameter c")
            check_uniform(self.c, self.b1_abs)
        elif self.c is not None or self.b1_abs != 0.0:
            raise ValueError(f"family {self.kind!r} takes no parameters")
        return self

    @classmethod
    def koebe(cls) -> "BoundFamily":
        return cls("koebe")

    @classmethod
    def convex(cls) -> "BoundFamily":
        return cls("convex")

    @classmethod
    def uniform(cls, c: float, b1_abs: float = 0.0) -> "BoundFamily":
        return cls("uniform", float(c), float(b1_abs))


# ---------------------------------------------------------------------------
# Closed-form power sums and the weighted sum S(r)
# ---------------------------------------------------------------------------

# S(r) = 1 cleared of denominators, highest degree first: the one root in
# (0, 1) is the family's radius, and a factor of its witness's Jacobian.
FAMILY_POLYNOMIALS = {"koebe": (2, -8, 11, -10, 1), "convex": (2, -6, 7, -1)}


def power_sums(r: float) -> tuple[float, float, float]:
    """Closed forms of the three power sums driving the family radii.

    Returns (sum n r^n, sum n^2 r^n, sum n^3 r^(n-1)) over n >= 1:

        r/(1-r)^2,   r(1+r)/(1-r)^3,   ((1-r)(1+2r) + 3r(1+r))/(1-r)^4.

    Raises:
        ValueError: if r is outside [0, 1).
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    one = 1.0 - r
    s1 = r / one**2
    s2 = r * (1.0 + r) / one**3
    s3 = (one * (1.0 + 2.0 * r) + 3.0 * r * (1.0 + r)) / one**4
    return s1, s2, s3


def _family_sum(fam: BoundFamily, r: float) -> float:
    if fam.kind == "koebe":
        # S(r) = sum_{n>=2} n(2n^2+1)/3 r^(n-1), assembled from the closed sums.
        _, _, s3 = power_sums(r)
        t1 = 1.0 / (1.0 - r) ** 2          # sum_{n>=1} n r^(n-1)
        return (2.0 * (s3 - 1.0) + (t1 - 1.0)) / 3.0
    if fam.kind == "convex":
        # S(r) = sum_{n>=2} n^2 r^(n-1)
        return (1.0 + r) / (1.0 - r) ** 3 - 1.0
    # uniform: S(r) = |b_1| + c (1/(1-r)^2 - 1), written without the cancellation
    return fam.b1_abs + fam.c * r * (2.0 - r) / (1.0 - r) ** 2


def _tail_sum(degree: float, start: int, r: float) -> float:
    """Upper bound for sum_{n>=start} n^(degree+1) r^(n-1), 0 <= r <= SERIES_EVAL_MAX.

    Sums terms directly and closes with a geometric remainder bound once the
    term ratio has dropped below 1; the result is then raised past the
    rounding error of the loop, so it is a majorant in floating point too.
    """
    if r == 0.0:
        return 0.0 if start > 1 else 1.0
    p = degree + 1.0
    total = 0.0
    n = start
    term = n**p * r ** (n - 1)
    # Ratio ((n+1)/n)^p * r is eventually < 1 and decreasing; with the
    # SERIES_EVAL_MAX cap this loop is bounded by a few tens of thousands
    # of iterations.
    while True:
        total += term
        n += 1
        ratio = (n / (n - 1)) ** p * r
        term *= ratio
        if ratio < 1.0 and term <= 1e-18 * total:
            # later ratios fall towards r when p > 0 and rise towards it
            # when p < 0, so max(ratio, r) bounds all of them
            total += term / (1.0 - max(ratio, r))
            # The k-th term carries at most (k + 1)(|p| + 5) u of relative
            # rounding error, u = 2^-53: per step, n/(n-1) (amplified |p|-fold
            # by the power), the power, *r and *ratio.  Each addition adds u.
            # Twice that first-order bound covers the higher orders and the
            # remainder's own error.
            return total * (1.0 + (abs(p) + 6.0) * 2.0**-52 * (n - start + 1))
        if n - start > 10_000_000:  # pragma: no cover - defensive cap
            raise RuntimeError("tail majorant failed to converge")


def _tail_start(seq: CoefficientSeq) -> int:
    """N + 1, the first index the tail majorant bounds; past the float range
    no term of the majorant can be evaluated, so it is refused there."""
    if seq.truncation + 1 > sys.float_info.max:
        raise ValueError("truncation exceeds the float range: "
                         "the tail majorant cannot be evaluated")
    return seq.truncation + 1


def weighted_sum_tail(seq: CoefficientSeq, r: float) -> float:
    """Rigorous majorant of the unstored part of S(r); zero when tail is None
    or its constant is 0, which bounds nothing."""
    if seq.tail is None or seq.tail.constant == 0.0:
        return 0.0
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if r > SERIES_EVAL_MAX:
        raise ValueError(
            f"tail majorant is evaluated only for r <= {SERIES_EVAL_MAX}"
        )
    start = _tail_start(seq)
    try:
        return seq.tail.constant * _tail_sum(seq.tail.degree, start, r)
    except OverflowError:
        raise ValueError(f"tail majorant of degree {seq.tail.degree:g} overflows "
                         f"at r={r:g}") from None


def _moduli(seq: CoefficientSeq) -> dict[int, tuple[float, float]]:
    """(|a_n|, |b_n|) keyed by every stored index n, ascending; unstored ones are 0."""
    return {n: (abs(seq.a.get(n, 0j)), abs(seq.b.get(n, 0j)))
            for n in sorted(seq.a.keys() | seq.b.keys())}


def _stored_sum(seq: CoefficientSeq, r: float) -> float:
    # n = 1 contributes |b_1| (a_1 is never stored); fsum accumulates exactly
    return math.fsum(n * (a + b) * r ** (n - 1) for n, (a, b) in _moduli(seq).items())


def weighted_sum(x: CoefficientSeq | BoundFamily, r: float) -> float:
    """S(r) = |b_1| + sum_{n>=2} n(|a_n| + |b_n|) r^(n-1).

    Bound families are evaluated by their closed forms.  Explicit sequences
    are summed term by term with compensated accumulation; when a tail bound
    is attached the returned value includes its majorant (weighted_sum_tail
    alone), which is rounded up past its float error, so the unstored part
    of S(r) is bounded from above in floating point too.

    Raises:
        ValueError: if r lies outside [0, 1).
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if isinstance(x, BoundFamily):
        return _family_sum(x, r)
    if isinstance(x, CoefficientSeq):
        return _stored_sum(x, r) + weighted_sum_tail(x, r)
    raise TypeError(f"expected CoefficientSeq or BoundFamily, got {type(x).__name__}")


# zeta(s, a) by Euler-Maclaurin (DLMF 2.10.1; F. Johansson, Numer. Algorithms
# 69 (2015) 253-270): _ZETA_DIRECT terms summed directly, then the integral,
# the half term and the corrections B_2j/(2j)! (s)_(2j-1) b^(1-s-2j) for
# j = 1..8.  x^-s is completely monotone, so the remainder lies between 0
# and the first omitted correction, j = 9, which B_18 > 0 makes positive.
_ZETA_DIRECT = 12
_ZETA_CORRECTIONS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                     -691 / 1307674368000, 1 / 74724249600,
                     -3617 / 10670622842880000, 43867 / 5109094217170944000)


def _hurwitz_zeta_majorant(s: float, a: int) -> float:
    """Upper bound for zeta(s, a) = sum_{n>=0} (a+n)^(-s), for s > 1 and an integer a >= 1."""
    terms = [(a + k) ** -s for k in range(_ZETA_DIRECT)]
    b = a + _ZETA_DIRECT
    x = b ** -s
    terms += (b ** (1.0 - s) / (s - 1.0), 0.5 * x)
    t = s * x / b
    for j, c in enumerate(_ZETA_CORRECTIONS, 1):
        terms.append(c * t)
        t = t * (s + 2 * j - 1) / b * (s + 2 * j) / b
    # Each term carries at most (s + 38) u of rounding error, u = 2^-53 (a
    # power amplifies the rounding of a base past 2^53 s-fold), and the sum
    # adds 21 u.  Twice that over the sum of moduli, plus 64 subnormal steps
    # for terms that underflow, rounds the result up past its error.
    mass = sum(map(abs, terms))
    return sum(terms) + mass * (s + 64.0) * 2.0**-52 + 64 * math.ulp(0.0)


def weighted_sum_limit(seq: CoefficientSeq) -> float:
    """The limit S(1^-) = |b_1| + sum n(|a_n| + |b_n|) for an explicit sequence.

    With a polynomial tail the limit exists only for degree < -2, in which
    case the majorant sum_{n>N} C n^(degree+1) = C zeta(-degree-1, N+1) is
    bounded by Euler-Maclaurin on the standard library and rounded up past
    its float error: it stays above the exact sum, by at most about
    (s + 64) 2^-52 relative for s = -degree-1 (5e-14 at s = 150).

    Raises:
        ValueError: if a tail bound is attached whose limit diverges, or
            whose first index N + 1 exceeds the float range.
    """
    if not isinstance(seq, CoefficientSeq):
        raise TypeError(f"expected CoefficientSeq, got {type(seq).__name__}")
    total = _stored_sum(seq, 1.0)
    if seq.tail is not None and seq.tail.constant > 0.0:
        s = -(seq.tail.degree + 1.0)
        if s <= 1.0:
            raise ValueError(
                "polynomial tail with degree >= -2 has no finite S(1^-)"
            )
        total += seq.tail.constant * _hurwitz_zeta_majorant(s, _tail_start(seq))
    return total


# ---------------------------------------------------------------------------
# JSON sequence format
# ---------------------------------------------------------------------------

def _json_int(x, what: str) -> int:
    """An integral JSON number as an int; 2.0 passes, 2.7, null and "2" do not."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _json_number(x, what: str) -> float:
    """A JSON number as a float; null, strings and booleans are rejected."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise ValueError(f"{what} must be a number, got {x!r}")


def _entries_to_map(entries, low: int, what: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    last = low - 1
    for item in entries:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise ValueError(f"{what} entries must be [n, re, im] triples")
        n, re, im = item
        n = check_index(_json_int(n, f"{what} index"), low, what)
        if n in out:
            raise ValueError(f"duplicate {what} index {n}")
        if n <= last:
            raise ValueError(f"{what} indices must be strictly increasing")
        last = n
        out[n] = complex(_json_number(re, f"{what}[{n}] real part"),
                         _json_number(im, f"{what}[{n}] imaginary part"))
    return out


def sequence_from_dict(doc: dict) -> CoefficientSeq:
    """Build a CoefficientSeq from the documented JSON structure.

    Expected shape::

        {"a": [[n, re, im], ...], "b": [[n, re, im], ...], "truncation": N}

    with strictly increasing indices in each list.  An optional "tail"
    object {"degree": d, "constant": C} attaches a polynomial tail bound.
    """
    if not isinstance(doc, dict):
        raise ValueError("sequence document must be a JSON object")
    unknown = set(doc) - {"a", "b", "truncation", "tail"}
    if unknown:
        raise ValueError(f"unknown sequence fields: {sorted(unknown)}")
    if "truncation" not in doc:
        raise ValueError("sequence document needs a truncation field")
    a = _entries_to_map(doc.get("a", []), 2, "a")
    b = _entries_to_map(doc.get("b", []), 1, "b")
    tail = None
    if "tail" in doc:
        t = doc["tail"]
        if not (isinstance(t, dict) and {"degree", "constant"} <= set(t)):
            raise ValueError("tail must be an object with degree and constant")
        tail = TailBound(_json_number(t["degree"], "tail degree"),
                         _json_number(t["constant"], "tail constant"))
    return CoefficientSeq(a, b, _json_int(doc["truncation"], "truncation"), tail)


def sequence_to_dict(seq: CoefficientSeq) -> dict:
    doc: dict = {
        "a": [[n, v.real, v.imag] for n, v in seq.a.items()],
        "b": [[n, v.real, v.imag] for n, v in seq.b.items()],
        "truncation": seq.truncation,
    }
    if seq.tail is not None:
        doc["tail"] = {"degree": seq.tail.degree, "constant": seq.tail.constant}
    return doc


def load_sequence(path) -> CoefficientSeq:
    with open(path, "r", encoding="utf-8") as fh:
        return sequence_from_dict(json.load(fh))


def save_sequence(seq: CoefficientSeq, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=2, sort_keys=True)
        fh.write("\n")
