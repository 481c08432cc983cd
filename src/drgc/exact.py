"""Exact arithmetic for values of the form u + w*sqrt(s).

Eigenvalue formulas in this package produce either rationals or quadratic
irrationals (sqrt(2), sqrt(17), sqrt(k-c2), ...).  SqrtVal keeps them exact so
that inequality verdicts never depend on floating-point rounding.  s is kept
square-free; a value with w == 0 is plain rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = (int, Fraction)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = a^2 * s with s square-free; returns (a, s). n >= 0."""
    if n == 0:
        return 0, 1
    a, s = 1, 1
    d = 2
    m = n
    while d * d <= m:
        cnt = 0
        while m % d == 0:
            m //= d
            cnt += 1
        a *= d ** (cnt // 2)
        if cnt % 2:
            s *= d
        d += 1
    s *= m
    return a, s


class SqrtVal:
    """u + w*sqrt(s) with u, w rational and s a square-free positive integer.

    A float u or w raises TypeError: a rounded value is never taken as exact."""

    __slots__ = ("u", "w", "s")

    def __init__(self, u, w=0, s=1):
        if isinstance(u, float) or isinstance(w, float):
            raise TypeError(f"SqrtVal needs exact rationals, got {u!r}, {w!r}")
        u = Fraction(u)
        w = Fraction(w)
        s = int(s)
        if s <= 0:
            raise ValueError("s must be positive")
        if w == 0:
            s = 1
        elif s == 1:
            u, w = u + w, Fraction(0)
        else:
            a, sf = _squarefree_split(s)
            if sf == 1:
                u, w, s = u + w * a, Fraction(0), 1
            else:
                u, w, s = u, w * a, sf
        self.u, self.w, self.s = u, w, s

    @staticmethod
    def of(x) -> "SqrtVal":
        if isinstance(x, SqrtVal):
            return x
        return SqrtVal(x)

    @staticmethod
    def sqrt(x) -> "SqrtVal":
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        # sqrt(p/q) = sqrt(p*q)/q
        return SqrtVal(0, Fraction(1, x.denominator), x.numerator * x.denominator)

    @property
    def is_rational(self) -> bool:
        return self.w == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.u

    def __float__(self):
        return float(self.u) + float(self.w) * math.sqrt(self.s)

    def __add__(self, other):
        if isinstance(other, Rational):
            return SqrtVal(self.u + other, self.w, self.s)
        if isinstance(other, SqrtVal):
            if self.is_rational:
                return SqrtVal(other.u + self.u, other.w, other.s)
            if other.is_rational:
                return SqrtVal(self.u + other.u, self.w, self.s)
            if other.s != self.s:
                return NotImplemented
            return SqrtVal(self.u + other.u, self.w + other.w, self.s)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return SqrtVal(-self.u, -self.w, self.s)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return SqrtVal(self.u * other, self.w * other, self.s)
        if isinstance(other, SqrtVal):
            if other.is_rational:
                return self * other.u
            if self.is_rational:
                return other * self.u
            if other.s != self.s:
                return NotImplemented
            return SqrtVal(self.u * other.u + self.w * other.w * self.s,
                           self.u * other.w + self.w * other.u, self.s)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return SqrtVal(self.u / other, self.w / other, self.s)
        if isinstance(other, SqrtVal) and other.is_rational:
            return self / other.u
        return NotImplemented

    def _sign(self) -> int:
        """Exact sign of u + w*sqrt(s)."""
        u, w = self.u, self.w
        if w == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if w > 0 else -1
        if u > 0 and w > 0:
            return 1
        if u < 0 and w < 0:
            return -1
        # opposite signs: compare u^2 against w^2 s
        lhs, rhs = u * u, w * w * self.s
        if lhs == rhs:
            return 0
        big_u = lhs > rhs
        return (1 if u > 0 else -1) if big_u else (1 if w > 0 else -1)

    def _cmp(self, other) -> int:
        diff = self - (other if isinstance(other, SqrtVal) else SqrtVal.of(other))
        if diff is NotImplemented:
            raise TypeError(f"cannot compare sqrt({self.s}) with sqrt({other.s}) exactly")
        return diff._sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (SqrtVal,) + Rational):
            try:
                return self._cmp(other) == 0
            except TypeError:
                return False
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.u)
        return hash((self.u, self.w, self.s))

    def __repr__(self):
        if self.is_rational:
            return f"SqrtVal({self.u})"
        return f"SqrtVal({self.u} + {self.w}*sqrt({self.s}))"

    def triple(self) -> tuple[Fraction, Fraction, int]:
        return self.u, self.w, self.s

