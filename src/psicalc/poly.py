"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` values, index i holding the
coefficient of x^i.  The zero polynomial has an empty coefficient tuple
and degree -1.  All arithmetic is exact; nothing in this module touches
floating point.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Union

Scalar = Union[int, Fraction]


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls([c])

    @classmethod
    def monomial(cls, n: int, c: Scalar = 1) -> "Polynomial":
        if n < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * n + [c])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self or not other:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Polynomial":
        return self * (Fraction(1) / Fraction(s))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division over the rationals."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c:
                quot[i - d] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    # -- calculus and evaluation ------------------------------------------

    def __call__(self, a: Scalar) -> Fraction:
        a = Fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self, k: int = 1) -> "Polynomial":
        f = self
        for _ in range(k):
            f = f._diagonal(int, -1)  # x^n -> n x^(n-1)
        return f

    def antiderivative(self) -> "Polynomial":
        """Classical antiderivative with zero constant term."""
        return self._diagonal(int, 1, inverse=True)

    def _diagonal(
        self, weight: Callable[[int], Scalar], step: int, inverse: bool = False
    ) -> "Polynomial":
        """x^n -> weight(k) x^(n+step), extended linearly, for step in
        {-1, 0, 1} and k the larger of n and n+step; constants vanish when
        step = -1.  inverse=True divides by weight(k) instead.  Every
        derivative, antiderivative and x_hat of the calculus is one of these.
        """
        coeffs = self.coeffs[1:] if step < 0 else self.coeffs
        apply = operator.truediv if inverse else operator.mul
        out = [apply(c, weight(k)) for k, c in enumerate(coeffs, abs(step))]
        if step > 0:
            out.insert(0, 0)
        return Polynomial(out)

    def compose_affine(self, q: Scalar, h: Scalar) -> "Polynomial":
        """The polynomial x -> f(qx + h), computed by Horner composition."""
        linear = Polynomial([Fraction(h), Fraction(q)])
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * linear + Polynomial.constant(c)
        return acc

    def truncate(self, n: int) -> "Polynomial":
        """Drop all terms of degree > n."""
        return Polynomial(self.coeffs[: n + 1])

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            elif mag == 1:
                body = "x" if d == 1 else f"x^{d}"
            else:
                body = f"{mag}*x" if d == 1 else f"{mag}*x^{d}"
            if not pieces:
                # a bare leading minus would not re-parse, so keep the
                # coefficient explicit on a negative leading term
                if c < 0:
                    body = f"{c}" if d == 0 else (f"{c}*x" if d == 1 else f"{c}*x^{d}")
                pieces.append(body)
            else:
                pieces.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _coerce(v: "Polynomial | Scalar") -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    return Polynomial.constant(v)

