"""Dense univariate polynomials over exact rationals.

A polynomial is stored in one canonical form, FLINT's `fmpq_poly` layout:
a tuple of `int` numerators (index i for x^i) over one positive `int`
denominator, with gcd(den, *num) = 1 and no trailing zero; the zero
polynomial has no numerators, denominator 1 and degree -1.  All arithmetic
runs on the integers and pays one gcd per result, not one per coefficient.
`.coeffs` is a read-only `Fraction` tuple built on first use.  Floats are
refused: nothing in this module touches floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

    Scalar = int | Fraction


class Polynomial:
    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_rational(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> None:
        """Store sum(num[i] x^i) / den in canonical form; den != 0."""
        while num and not num[-1]:
            num.pop()
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self._num = tuple(num)
        self._den = den
        self._coeffs = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        c = _rational(c)
        return _canonical([c.numerator], c.denominator)

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index i holding that of x^i."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple([Fraction(c, den) for c in self._num])
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        a, b, den = self._num, other._num, self._den
        if den != other._den:
            den = math.lcm(den, other._den)
            a = [c * (den // self._den) for c in a]
            b = [c * (den // other._den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        return _canonical([*map(operator.add, a, b), *a[len(b):]], den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _canonical([-c for c in self._num], self._den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _canonical([c * p for c in self._num], self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self or not other:
            return Polynomial()
        b = other._num
        out = [0] * (len(self._num) + len(b) - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, c in enumerate(b, i):
                    out[j] += a * c
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Polynomial":
        return self * (1 / Fraction(_rational(s)))

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
        """Exact long division over the rationals.  With m the divisor's
        leading numerator, y = m x makes m^d f(y/m) and m^(e-1) g(y/m)
        integer polynomials, the second monic, so no step makes a Fraction."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        f, g = self._num, other._num
        d, e, m = len(f) - 1, len(g) - 1, g[-1]
        if d < e:
            return Polynomial(), self
        rem = [c * m ** (d - i) for i, c in enumerate(f)]
        monic = [c * m ** (e - 1 - j) for j, c in enumerate(g[:-1])]
        quot = [0] * (d - e + 1)
        for i in range(d, e - 1, -1):
            c = quot[i - e] = rem[i]
            for j, b in enumerate(monic, i - e):
                rem[j] -= c * b
        q_num = [c * m**k * other._den for k, c in enumerate(quot)]
        r_num = [c * m**k for k, c in enumerate(rem[:e])]
        return (_canonical(q_num, self._den * m ** (d - e + 1)),
                _canonical(r_num, self._den * m**d))

    # -- calculus and evaluation ------------------------------------------

    def __call__(self, a: Scalar) -> Fraction:
        """Horner evaluation at a = p/q, homogenised so that only the
        final division makes a Fraction."""
        a = _rational(a)
        p, q = a.numerator, a.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc, qk = acc * p + c * qk, qk * q
        return Fraction(acc * q, self._den * qk)  # acc / (den q^d); qk = q^(d+1)

    def _numerator_values(self, points: Iterable[int]) -> list[int]:
        """den * f(r) at each integer r, by Horner on the numerators."""
        coeffs, out = self._num[::-1], []
        for r in points:
            acc = 0
            for c in coeffs:
                acc = acc * r + c
            out.append(acc)
        return out

    def derivative(self, k: int = 1) -> "Polynomial":
        """The k-th derivative in one pass: x^n -> n!/(n-k)! x^(n-k)."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        return self._diagonal(_perms(len(self._num), k), 1, -k)

    def antiderivative(self) -> "Polynomial":
        """Classical antiderivative with zero constant term."""
        n = len(self._num)
        lcm = math.lcm(*range(1, n + 1))
        return self._diagonal([lcm // k for k in range(1, n + 1)], lcm, 1)

    def _diagonal(self, weights: Iterable[int], den: int, step: int) -> "Polynomial":
        """x^n -> (w / den) x^(n+step), extended linearly, for any int
        step; the terms below x^(-step) vanish when step < 0.  w is the
        i-th weight for the i-th coefficient kept: that of x^(i-step) when
        step < 0 and of x^i otherwise.  The weights are ints over the one
        nonzero int den and must cover every kept coefficient; extra ones
        are ignored.  Every derivative, antiderivative, x_hat and umbral
        scaling of the calculus, and every power of one, is one of these:
        one integer product per coefficient and one gcd in all.
        """
        num = self._num[-step:] if step < 0 else self._num
        out = list(map(operator.mul, num, weights))
        if step > 0:
            out[:0] = [0] * step
        return _canonical(out, self._den * den)

    def compose_affine(self, q: Scalar, h: Scalar) -> "Polynomial":
        """The polynomial x -> f(qx + h).  With h = r/s and q = a/b,
        s^d f((r/s) t) has the integer coefficients n_i r^i s^(d-i), and
        t -> t + 1 shifts them with additions only (von zur Gathen &
        Gerhard, ISSAC 1997); t = a s x / (b r) then scales them back."""
        q, h = _rational(q), _rational(h)
        a, b, r, s = q.numerator, q.denominator, h.numerator, h.denominator
        cs, d = list(self._num), self.degree
        if r:
            cs = [c * r**i * s ** (d - i) for i, c in enumerate(cs)]
            for k in range(d):
                for j in range(d - 1, k - 1, -1):
                    cs[j] += cs[j + 1]
            cs = [c // r**i * s**i for i, c in enumerate(cs)]
        out = [c * a**i * b ** (d - i) for i, c in enumerate(cs)]
        return _canonical(out, self._den * (b * s) ** max(d, 0))

    def truncate(self, n: int) -> "Polynomial":
        """Drop all terms of degree > n."""
        return _canonical(list(self._num[: n + 1]), self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            # a bare leading minus would not re-parse, so keep the
            # coefficient explicit on a negative leading term
            mag = c if c < 0 and not pieces else abs(c)
            power = "x" if d == 1 else f"x^{d}"
            body = _digits(mag) if d == 0 else (power if mag == 1 else f"{_digits(mag)}*{power}")
            pieces.append(f"{'-' if c < 0 else '+'} {body}" if pieces else body)
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _canonical(num: list[int], den: int) -> Polynomial:
    """sum(num[i] x^i) / den, built without converting each coefficient."""
    p = Polynomial.__new__(Polynomial)
    p._set(num, den)
    return p


def _perms(stop: int, k: int) -> Iterable[int]:
    """The falling factorials i!/(i-k)! for k <= i < stop."""
    return range(1, stop) if k == 1 else map(math.perm, range(k, stop), repeat(k))


def _digits(v: object) -> str:
    """str(v), also for an int or Fraction past the interpreter's limit on
    int-to-str digits, where str raises ValueError: those digits come from
    `decimal`, and the limit itself is left as the caller set it."""
    try:
        return str(v)
    except ValueError:
        if isinstance(v, Fraction):
            num = _digits(v.numerator)
            return num if v.denominator == 1 else f"{num}/{_digits(v.denominator)}"
        from decimal import Decimal

        return str(Decimal(v))


def _rational(v: Scalar) -> Scalar:
    """v as an exact int or Fraction; a float is refused, not converted."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, float):
        raise TypeError(f"float {v!r} is not an exact rational; use a Fraction or an int")
    return Fraction(v)


def _coerce(v: "Polynomial | Scalar") -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    return Polynomial.constant(v)
