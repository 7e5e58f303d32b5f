"""Harmonic mappings of the unit disk, f = h + conj(g).

A HarmonicMap has one definition: a coefficient sequence or a named
map.  A sequence is compiled into polynomial evaluators of the pairs
(h, g) and (h', g'); a named map is a bound family and two signs, which
give its coefficients, and extremals derives its pair evaluators from
them.  Every map evaluates on the open unit disk |z| < 1.  Maps support
evaluation, the two Wirtinger derivatives f_z = h' and f_zbar =
conj(g'), the Jacobian |h'|^2 - |g'|^2, the second complex dilatation
g'/h', dilation f_r(z) = f(rz)/r, and truncation to partial sums.

All evaluators are pure and accept a number or a numpy array.  A number
(a Python or numpy scalar, or a 0-d array) is evaluated in plain complex
arithmetic and gives a complex (the Jacobian a float); an array is
evaluated by numpy, which this module imports on the first array call.
Numbers and arrays evaluate a series map's h, g, h' and g' by the one
Horner of the profiles and family polynomials, _util.horner; _compile
decides once per polynomial which zero terms it leaves out (_sparse).
Maps are immutable once constructed.
"""

import math
import sys

from ._util import check_index, check_real, horner, record
from .coefficients import BoundFamily, CoefficientSeq
from .extremals import named_forms

__all__ = [
    "EvaluationDomainError",
    "HarmonicMap",
    "identity_map",
]

_MAX_SERIES_DEGREE = 10_000  # highest stored index a series map is compiled to


class EvaluationDomainError(ValueError):
    """Raised when an evaluation point lies off the open unit disk, and when f
    is asked of a map dilated below the least normal float (see __call__)."""


class ClosedForm(record("ClosedForm", "f df")):
    """Pair evaluators of a map: f(w) gives (h(w), g(w)) and df(w) gives
    (h'(w), g'(w)), compiled from a series, or extremals.named_forms of a
    named map's bounds.  Neither writes into w."""

    __slots__ = ()


def _compile(seq: CoefficientSeq) -> ClosedForm:
    """Polynomial evaluators for a stored sequence."""
    # degree: the highest stored index (not seq.truncation); past it all are zero
    degree = max([1, *seq.a, *seq.b])
    if degree > _MAX_SERIES_DEGREE:
        raise ValueError(f"series maps are evaluated up to degree {_MAX_SERIES_DEGREE}; "
                         f"the highest stored index is {degree}")
    # the stored values are complex already
    ch = [1 + 0j if k == 1 else seq.a.get(k, 0j) for k in range(degree + 1)]
    cg = [seq.b.get(k, 0j) for k in range(degree + 1)]
    h, g, dh, dg = map(_sparse, (ch, cg, [c * n for n, c in enumerate(ch) if n],
                                 [c * n for n, c in enumerate(cg) if n]))
    # a point is a complex or a complex array (see HarmonicMap._point)
    return ClosedForm(lambda w: (horner(h, w), horner(g, w)),
                      lambda w: (horner(dh, w), horner(dg, w)))


def _sparse(coeffs: list) -> tuple:
    """coeffs, given constant first, in horner's order, each zero term but the
    constant marked absent (None), which horner does not add; before a
    constant with a -0.0 part every term is kept.  Adding a zero changes at
    most the sign of a zero part of the accumulator, and so of the value;
    adding a constant with no -0.0 part gives every zero part of the value
    the sign that adding every term gives it."""
    constant, *rest = coeffs
    if any(p == 0.0 and math.copysign(1.0, p) < 0.0 for p in (constant.real, constant.imag)):
        return tuple(reversed(coeffs))
    return (*(k if k else None for k in reversed(rest)), constant)


# The largest |z| a map is evaluated at: the float below 1, for every map.
_MAX_MODULUS = math.nextafter(1.0, 0.0)


class HarmonicMap:
    """A normalized harmonic mapping f = h + conj(g) on the unit disk, given by
    one definition: a coefficient sequence, or a named map's row (family,
    sign_a, sign_b) of a BoundFamily and two signs, +1 or -1, with
    a_n = sign_a A_n past a_1 = 1 and b_n = sign_b B_n.  Its evaluators are
    built on first evaluation, so coefficient, section, dilate and the
    coefficient checks, which read only the definition, never build them.
    A map is built undilated; dilate is the one way to scale it.
    """

    def __init__(self, label: str, definition):
        if not isinstance(definition, CoefficientSeq):
            if not (isinstance(definition, tuple) and len(definition) == 3
                    and isinstance(definition[0], BoundFamily)):
                raise TypeError("definition must be a CoefficientSeq or (BoundFamily, "
                                f"sign_a, sign_b), got {definition!r}")
            family, *signs = definition
            definition = (family, *(check_index(s, None, "a named map's sign") for s in signs))
            if not set(definition[1:]) <= {1, -1}:
                raise ValueError("a named map's signs must be +1 or -1")
        self.label = str(label)
        self._definition = definition
        self._scale = 1.0

    def _evaluators(self) -> ClosedForm:
        """The pair evaluators, built on first use and kept as vars(self)["_forms"]."""
        forms = vars(self).get("_forms")
        if forms is None:  # a CoefficientSeq is normalized by construction: a_1 = 1, |b_1| < 1
            forms = self._forms = (_compile(self._definition) if self.is_series
                                   else ClosedForm(*named_forms(*self._definition)))
        return forms

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_series(cls, seq: CoefficientSeq, label: str = "series") -> "HarmonicMap":
        """The polynomial map with the stored coefficients of seq, exact on
        the whole disk.

        A tail majorant on seq is kept (source returns seq) but never
        evaluated: every sampled check on this map sees the stored
        polynomial only, at any |z| < 1.  The tail enters only S(r)-based
        computations (radius_by_bisection, coeff_condition).
        """
        return cls(label, seq)

    # -- internals ---------------------------------------------------------

    def _point(self, z):
        """z checked to lie in the open unit disk, times the dilation: a complex
        for a number or a 0-d array, a complex array otherwise (z itself, when
        z is a complex array and the map is not dilated)."""
        if getattr(z, "ndim", 0) or isinstance(z, (list, tuple)):
            import numpy as np

            w = np.asarray(z, dtype=complex)
            outside = (abs(w) > _MAX_MODULUS).any()
        else:
            w = complex(z)
            outside = abs(w) > _MAX_MODULUS
        if outside:
            raise EvaluationDomainError("evaluation requires |z| < 1")
        return w if self._scale == 1.0 else w * self._scale

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """f(z) = h(z) + conj(g(z)), broadcasting over array input.  A map
        dilated below the least normal float is refused: there f(rz) / r
        overflows (an array) or loses digits (a number)."""
        if self._scale < sys.float_info.min:
            raise EvaluationDomainError(f"{self.label}: f is not evaluated at scale "
                                        f"{self._scale!r}, below the least normal float")
        h, g = self._evaluators().f(self._point(z))
        f = h + g.conjugate()
        return f if self._scale == 1.0 else f / self._scale

    def wirtinger(self, z):
        """The Wirtinger derivatives (f_z, f_zbar) = (h'(z), conj(g'(z)))."""
        dh, dg = self._evaluators().df(self._point(z))
        return dh, dg.conjugate()

    def jacobian(self, z):
        """J_f(z) = |h'(z)|^2 - |g'(z)|^2.  Positive iff sense-preserving at z."""
        dh, dg = map(abs, self._evaluators().df(self._point(z)))
        # products: numpy squares an array by one, where float ** 2 calls pow()
        return dh * dh - dg * dg

    def dilatation(self, z):
        """Second complex dilatation g'(z)/h'(z).

        Raises:
            ZeroDivisionError: if |h'(z)| <= 1e-14 at any requested point.
        """
        dh, dg = self._evaluators().df(self._point(z))
        small = abs(dh) <= 1e-14
        if small if isinstance(dh, complex) else small.any():
            raise ZeroDivisionError(f"{self.label}: h' vanishes at a requested point")
        return dg / dh

    # -- structure ---------------------------------------------------------

    @property
    def is_series(self) -> bool:
        return isinstance(self._definition, CoefficientSeq)

    @property
    def source(self) -> tuple:
        """(CoefficientSeq or BoundFamily, rho): the stored sequence of a series,
        or a named map's family, and the dilation rho.  The map's coefficient
        moduli are the sequence's, or the family's bounds, times rho^(n-1)."""
        return (self._definition if self.is_series else self._definition[0]), self._scale

    def coefficient(self, n: int) -> tuple[complex, complex]:
        """The series coefficients (a_n, b_n); a_1 is 1 by normalization.

        Raises:
            TypeError: n is not an integer (numpy integers pass, bools do not).
        """
        n = check_index(n, 1, "coefficient index")
        if self.is_series:
            seq = self._definition
            a, b = (1.0 if n == 1 else seq.a.get(n, 0j)), seq.b.get(n, 0j)
        else:
            family, sign_a, sign_b = self._definition
            a, b = family.bounds(n)
            a, b = (1.0 if n == 1 else sign_a * a), sign_b * b
        s = self._scale ** (n - 1)
        return complex(a) * s, complex(b) * s

    def dilate(self, r: float) -> "HarmonicMap":
        """The dilated map f_r(z) = f(rz)/r; series coefficients pick up r^(n-1).
        It shares this map's definition and built evaluators, which read the
        scaled point, never the scale.  A scale that underflows to 0 is refused."""
        r = check_real(r, "dilation parameter", 0.0, 1.0, "(]")
        if r == 1.0:
            return self
        scale = self._scale * r
        if not scale:
            raise ValueError("scale must lie in (0, 1], got 0.0")
        g = object.__new__(HarmonicMap)
        vars(g).update(vars(self), label=f"dilate({self.label},{r!r})", _scale=scale)
        return g

    def section(self, n: int, m: int) -> "HarmonicMap":
        """Partial sums: h truncated at degree n, g at degree m.

        Zero coefficients are not stored in the section's sequence.  Each
        index up to max(n, m) is read once.

        Args:
            n: highest retained h index, n >= 1.
            m: highest retained g index, m >= 0 (0 drops g entirely).
        """
        n, m = check_index(n, 1, "section degree"), check_index(m, 0, "section degree")
        top = max(n, m)
        coeffs = [self.coefficient(k) for k in range(1, top + 1)]
        a = {k: v for k, (v, _) in enumerate(coeffs[1:n], 2) if v != 0}
        b = {k: v for k, (_, v) in enumerate(coeffs[:m], 1) if v != 0}
        seq = CoefficientSeq(a, b, top)
        return HarmonicMap.from_series(seq, f"section({self.label},{n},{m})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "series" if self.is_series else "named"
        return f"HarmonicMap({self.label!r}, {kind}, scale={self._scale:g})"


def identity_map() -> HarmonicMap:
    """f(z) = z, the trivial member of every class considered here."""
    return HarmonicMap.from_series(CoefficientSeq({}, {}, 1), "identity")
