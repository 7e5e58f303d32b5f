"""Harmonic mappings of the unit disk, f = h + conj(g).

A HarmonicMap evaluates closed-form expressions for h, g and their
derivatives; an explicit coefficient sequence is compiled into
polynomial ones.  Maps support evaluation, the two Wirtinger
derivatives f_z = h' and f_zbar = conj(g'), the Jacobian |h'|^2 - |g'|^2,
the second complex dilatation g'/h', dilation f_r(z) = f(rz)/r, and
(where coefficients are available) truncation to partial sums.

All evaluators accept scalars or numpy arrays and are pure; maps are
immutable once constructed.
"""

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._util import UnsupportedOperation, check_index, record
from .coefficients import SERIES_EVAL_MAX, CoefficientSeq

__all__ = [
    "EvaluationDomainError",
    "UnsupportedOperation",
    "ClosedForm",
    "HarmonicMap",
    "identity_map",
]

_NORM_TOL = 1e-14
_MAX_SERIES_DEGREE = 10_000  # highest stored index a series map is compiled to


class EvaluationDomainError(ValueError):
    """Raised when an evaluation point falls outside the trusted domain."""


class ClosedForm(record("ClosedForm", "h g dh dg coeff", (None,))):
    """Evaluators (callables) for h, g and their derivatives, hand-coded or
    compiled from a coefficient sequence.

    coeff, when present, returns the exact series coefficients (a_n, b_n)
    for n >= 1 and makes the map sectionable.
    """

    __slots__ = ()


def _split_scalar(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _compile(seq: CoefficientSeq) -> ClosedForm:
    """Polynomial evaluators for a stored sequence, with its coefficient rule."""
    # degree: the highest stored index (not seq.truncation); past it all are zero
    degree = max([1, *seq.a, *seq.b])
    if degree > _MAX_SERIES_DEGREE:
        raise ValueError(f"series maps are evaluated up to degree {_MAX_SERIES_DEGREE}; "
                         f"the highest stored index is {degree}")
    ch = np.zeros(degree + 1, dtype=complex)
    cg = np.zeros_like(ch)
    ch[1] = 1.0
    for k, v in seq.a.items():
        ch[k] = v
    for k, v in seq.b.items():
        cg[k] = v
    dch, dcg = npoly.polyder(ch), npoly.polyder(cg)
    return ClosedForm(
        lambda w: npoly.polyval(w, ch),
        lambda w: npoly.polyval(w, cg),
        lambda w: npoly.polyval(w, dch),
        lambda w: npoly.polyval(w, dcg),
        lambda n: (1.0 + 0j if n == 1 else seq.a.get(n, 0j), seq.b.get(n, 0j)),
    )


# Evaluation domain per backing: the largest accepted |z| and the refusal
# message.  Closed forms refuse |z| >= 1, i.e. |z| above the float below 1.
_SERIES_DOMAIN = (SERIES_EVAL_MAX * (1.0 + 1e-12),
                  f"series evaluation requires |z| <= {SERIES_EVAL_MAX}")
_CLOSED_DOMAIN = (math.nextafter(1.0, 0.0), "evaluation requires |z| < 1")


class HarmonicMap:
    """A normalized harmonic mapping f = h + conj(g) on the unit disk.

    Every evaluation goes through closed-form evaluators.  A coefficient
    sequence given as series is kept for as_sequence and compiled into
    polynomial evaluators on first use, so the coefficient checks, which
    read only the sequence, never build the polynomial.
    """

    def __init__(self, label: str, *, series: CoefficientSeq | None = None,
                 forms: ClosedForm | None = None, scale: float = 1.0):
        if series is None and forms is None:
            raise ValueError("a series or closed forms must be given")
        if not (0.0 < scale <= 1.0):
            raise ValueError("scale must lie in (0, 1]")
        self.label = str(label)
        self._series = series
        self._domain = _CLOSED_DOMAIN if series is None else _SERIES_DOMAIN
        self._scale = float(scale)
        if forms is not None:
            self._forms = forms
            self._check_normalization()

    @functools.cached_property
    def _forms(self) -> ClosedForm:
        # a CoefficientSeq is normalized by construction: a_1 = 1, |b_1| < 1
        return _compile(self._series)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_series(cls, seq: CoefficientSeq, label: str = "series") -> "HarmonicMap":
        """The polynomial map with the stored coefficients of seq.

        A tail majorant on seq is kept (as_sequence returns it) but never
        evaluated: every sampled check on this map sees the stored
        polynomial only.  The tail enters only S(r)-based computations
        (radius_by_bisection, coeff_condition).
        """
        return cls(label, series=seq)

    @classmethod
    def from_closed_form(cls, label: str, h, g, dh, dg, coeff=None) -> "HarmonicMap":
        return cls(label, forms=ClosedForm(h, g, dh, dg, coeff))

    # -- internals ---------------------------------------------------------

    def _check_normalization(self) -> None:
        w = np.asarray(0j)
        h0, g0 = self._forms.h(w), self._forms.g(w)
        dh0, dg0 = self._forms.dh(w), self._forms.dg(w)
        if abs(h0) > _NORM_TOL or abs(g0) > _NORM_TOL:
            raise ValueError(f"{self.label}: normalization f(0)=0 fails")
        if abs(dh0 - 1.0) > _NORM_TOL:
            raise ValueError(f"{self.label}: normalization h'(0)=1 fails")
        if abs(dg0) >= 1.0:
            raise ValueError(f"{self.label}: |g'(0)| must be < 1")

    def _guard(self, arr: np.ndarray) -> np.ndarray:
        limit, message = self._domain
        if np.any(np.abs(arr) > limit):
            raise EvaluationDomainError(message)
        return arr * self._scale

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """f(z) = h(z) + conj(g(z)), broadcasting over array input."""
        arr, scalar = _split_scalar(z)
        w = self._guard(arr)
        val = (self._forms.h(w) + np.conj(self._forms.g(w))) / self._scale
        return complex(val) if scalar else val

    def wirtinger(self, z):
        """The Wirtinger derivatives (f_z, f_zbar) = (h'(z), conj(g'(z)))."""
        arr, scalar = _split_scalar(z)
        w = self._guard(arr)
        dh, dg = self._forms.dh(w), self._forms.dg(w)
        fzbar = np.conj(dg)
        return (complex(dh), complex(fzbar)) if scalar else (dh, fzbar)

    def jacobian(self, z):
        """J_f(z) = |h'(z)|^2 - |g'(z)|^2.  Positive iff sense-preserving at z."""
        arr, scalar = _split_scalar(z)
        w = self._guard(arr)
        dh, dg = self._forms.dh(w), self._forms.dg(w)
        val = np.abs(dh) ** 2 - np.abs(dg) ** 2
        return float(val) if scalar else val

    def dilatation(self, z):
        """Second complex dilatation g'(z)/h'(z).

        Raises:
            ZeroDivisionError: if |h'(z)| <= 1e-14 at any requested point.
        """
        arr, scalar = _split_scalar(z)
        w = self._guard(arr)
        dh, dg = self._forms.dh(w), self._forms.dg(w)
        if np.any(np.abs(dh) <= 1e-14):
            raise ZeroDivisionError(f"{self.label}: h' vanishes at a requested point")
        val = dg / dh
        return complex(val) if scalar else val

    # -- structure ---------------------------------------------------------

    @property
    def is_series(self) -> bool:
        return self._series is not None

    @property
    def has_coefficients(self) -> bool:
        return self.is_series or self._forms.coeff is not None

    def coefficient(self, n: int) -> tuple[complex, complex]:
        """The series coefficients (a_n, b_n); a_1 is 1 by normalization.

        Raises:
            TypeError: n is not an integer (numpy integers pass, bools do not).
            UnsupportedOperation: closed-form backing without a coefficient rule.
        """
        n = check_index(n, 1, "coefficient")
        if not self.has_coefficients:
            raise UnsupportedOperation(
                f"{self.label}: closed-form map without stored coefficients"
            )
        a, b = self._forms.coeff(n)
        s = self._scale ** (n - 1)
        return complex(a) * s, complex(b) * s

    def dilate(self, r: float) -> "HarmonicMap":
        """The dilated map f_r(z) = f(rz)/r; series coefficients pick up r^(n-1)."""
        if not (0.0 < r <= 1.0):
            raise ValueError("dilation parameter must lie in (0, 1]")
        if r == 1.0:
            return self
        return HarmonicMap(f"dilate({self.label},{r:g})", series=self._series,
                           forms=None if self.is_series else self._forms,
                           scale=self._scale * r)

    def section(self, n: int, m: int) -> "HarmonicMap":
        """Partial sums: h truncated at degree n, g at degree m.

        Zero coefficients are not stored in the section's sequence.

        Args:
            n: highest retained h index, n >= 1.
            m: highest retained g index, m >= 0 (0 drops g entirely).

        Raises:
            UnsupportedOperation: no coefficient backing to truncate.
        """
        if n < 1 or m < 0:
            raise ValueError("section degrees require n >= 1, m >= 0")
        if not self.has_coefficients:
            raise UnsupportedOperation(
                f"{self.label}: closed-form map without stored coefficients"
            )
        a = {k: self.coefficient(k)[0] for k in range(2, n + 1)}
        b = {k: self.coefficient(k)[1] for k in range(1, m + 1)}
        a = {k: v for k, v in a.items() if v != 0}
        b = {k: v for k, v in b.items() if v != 0}
        seq = CoefficientSeq(a, b, max(1, n, m))
        return HarmonicMap.from_series(seq, f"section({self.label},{n},{m})")

    def as_sequence(self) -> CoefficientSeq:
        """The stored coefficient sequence (dilation folded in).

        Raises:
            UnsupportedOperation: for closed-form backings; use section to
                materialize a finite prefix instead.
        """
        if self._series is None:
            raise UnsupportedOperation(
                f"{self.label}: closed-form map has no finite coefficient sequence"
            )
        return self._series.scaled(self._scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "series" if self.is_series else "closed_form"
        return f"HarmonicMap({self.label!r}, {kind}, scale={self._scale:g})"


def identity_map() -> HarmonicMap:
    """f(z) = z, the trivial member of every class considered here."""
    return HarmonicMap.from_series(CoefficientSeq({}, {}, 1), "identity")
