"""Exact scalars: the field Q(i) of Gaussian rationals.

Q is the exact type of input and output: bundles and callers hand scalars
in as Q, and entries and vectors come out as Q, witnesses as its text.  The
engine does no Q arithmetic: linalg computes on integer rows, and Q values
cross into it only through LinMap.from_entries and out only through
LinMap.entry.  The arithmetic below serves callers and tests.

A scalar is a pair of arbitrary-precision rationals (re, im); fractions
are kept reduced with positive denominators by ``fractions.Fraction``
itself, so equal scalars always compare equal structurally.  Conjugation
is the involutive field automorphism a+bi -> a-bi.

The text form is exact: "a/b" for real values, "a/b+c/d i" otherwise.
Floats are never accepted.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


class ScalarParseError(ValueError):
    """Raised for malformed or non-exact (float-like) scalar text."""


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?:"
    rf"(?P<re>{_RAT})\s*(?:(?P<im>[+-]\s*\d+(?:/\d+)?)\s*i)?"
    rf"|(?P<imonly>{_RAT})\s*i"
    rf"|(?P<isign>[+-]?)\s*i"
    r")\s*$"
)


class Q:
    """An element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Q is immutable")

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "Q":
        "Internal fast constructor; arguments must already be Fractions."
        out = object.__new__(Q)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Q":
        """Parse the exact text form ("3", "-1/2", "1/2-3/4 i", "i")."""
        if not isinstance(text, str):
            raise ScalarParseError(f"scalar must be a string, got {type(text).__name__}")
        m = _SCALAR_RE.match(text)
        if m is None:
            raise ScalarParseError(f"not an exact Q(i) scalar: {text!r}")
        try:
            if m.group("imonly") is not None:
                return Q(0, Fraction(m.group("imonly")))
            if m.group("isign") is not None:
                return Q(0, -1 if m.group("isign") == "-" else 1)
            re_part = Fraction(m.group("re"))
            im_text = m.group("im")
            im_part = Fraction(im_text.replace(" ", "")) if im_text else Fraction(0)
        except ZeroDivisionError as exc:
            raise ScalarParseError(f"zero denominator in {text!r}") from exc
        return Q(re_part, im_part)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Q):
            return other
        if isinstance(other, (int, Fraction)):
            return Q(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Q(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Q(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Q(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return Q((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Q(-self.re, -self.im)

    def conj(self) -> "Q":
        return Q(self.re, -self.im)

    def inv(self) -> "Q":
        return _ONE / self

    # -- predicates / canonical text ---------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    def __repr__(self):
        return f"Q({str(self)!r})"


_ONE = Q(1)
