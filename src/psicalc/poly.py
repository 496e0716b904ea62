"""Dense univariate polynomials over exact rationals.

A polynomial is stored in one canonical form, FLINT's `fmpq_poly` layout:
a tuple of `int` numerators (index i for x^i) over one positive `int`
denominator, with gcd(den, *num) = 1 and no trailing zero; the zero
polynomial has no numerators, denominator 1 and degree -1.  All arithmetic
runs on the integers and pays at most one gcd per result, not one per
coefficient, and none over denominator 1:
each of +, -, *, a scalar multiple, divmod (one per quotient and
remainder), compose_affine, the diagonal maps (derivatives,
antiderivatives, operator weights), the integer combinations of
`_combine`, and the two unit-shift kernels of the difference calculus,
`_difference` (f(x+1) - f(x) or f(x) - f(x-1)) and `_x_shift_back`
(x f(x-1)), makes its result with one `_canonical`, its one reduction
to lowest terms; a scalar operand of + or - is first made a constant.
The unit shift of a one-term input c x^d is one `pow` on a packed integer.
A product with a degree-1 factor (b + a x)/d, as in the derivative
pairs' raiser x - y, is one pass, `_times_line`.  A zero result on a hot
path is the one shared `_ZERO`.
A one-term result c x^j / den -- `monomial`, `constant`, the product of
two one-term operands, the derivative of one term, and the one-term
operator images and sweep steps of `operators` -- is made by `_term`
instead, from one gcd of two ints and no pass over its zeros; `_one_term`
reads such a term back.  Evaluation has one kernel, `_value`, whose
unreduced integer pair `__call__` reduces once; the expansions reduce
each of their scalars once too, where the report stores it.  A
polynomial is written once: `_set` and `_term` are the only code that
assigns its two slots, each on the object it has just made, so a result
can be shared.  `.coeffs` is a `Fraction` tuple built on each read.
A verifier's two sides may be `_Raw` pairs instead, the same two slots
unreduced (the `raw` flag of `_diagonal` and `_combine`), compared by
`_raw_equal` with one gcd of the two denominators and none of the rest.
Floats are refused: nothing in this module touches floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, repeat

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    Scalar = int | Fraction


class Polynomial:
    __slots__ = ("_num", "_den")

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

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        c = _rational(c)
        return _term(0, c.numerator, c.denominator)

    @classmethod
    def monomial(cls, n: int, c: Scalar = 1) -> "Polynomial":
        if n < 0:
            raise ValueError("monomial degree must be nonnegative")
        c = _rational(c)
        return _term(n, c.numerator, c.denominator)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    # -- structure -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index i holding that of x^i,
        built on each read."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

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
        # a constant equals its int or Fraction, so it hashes as that value
        num = self._num
        if len(num) > 1:
            return hash((num, self._den))
        return hash(Fraction(num[0], self._den)) if num else 0

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        a, b, den = _aligned(self, _coerce(other))
        if len(a) < len(b):
            a, b = b, a
        return _canonical([*map(operator.add, a, b), *a[len(b):]], den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _canonical([-c for c in self._num], self._den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        a, b, den = _aligned(self, _coerce(other))
        tail = a[len(b):] if len(a) >= len(b) else [-c for c in b[len(a):]]
        return _canonical([*map(operator.sub, a, b), *tail], den)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                p = other.numerator
                return _canonical([c * p for c in self._num], self._den * other.denominator)
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        if a.count(0) == len(a) - 1 and b.count(0) == len(b) - 1:  # one term each
            return _term(len(a) + len(b) - 2, a[-1] * b[-1], self._den * other._den)
        if len(a) == 2:
            return _times_line(self, other)
        if len(b) == 2:
            return _times_line(other, self)
        out = [0] * (len(a) + len(b) - 1)
        for i, v in enumerate(a):
            if v:
                for j, c in enumerate(b, i):
                    out[j] += v * c
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
        pw = _powers(m, d + 1)
        rem = list(map(operator.mul, f, pw[d::-1]))
        monic = [c * pw[e - 1 - j] for j, c in enumerate(g[:-1])]
        quot = [0] * (d - e + 1)
        for i in range(d, e - 1, -1):
            c = quot[i - e] = rem[i]
            for j, b in enumerate(monic, i - e):
                rem[j] -= c * b
        g_den = other._den
        q_num = [c * p * g_den for c, p in zip(quot, pw)]
        r_num = list(map(operator.mul, rem[:e], pw))
        return (_canonical(q_num, self._den * pw[d - e + 1]),
                _canonical(r_num, self._den * pw[d]))

    # -- calculus and evaluation ------------------------------------------

    def __call__(self, a: Scalar) -> Fraction:
        """The value at a as a Fraction: `_value`'s pair, reduced once."""
        a = _rational(a)
        return Fraction(*_value(self, a.numerator, a.denominator))

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
        """The k-th derivative in one pass: x^n -> n!/(n-k)! x^(n-k); one
        term c x^n, n >= k, is one `_term`."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        num = self._num
        n = len(num) - 1
        if n >= k and num.count(0) == n:
            return _term(n - k, num[n] * math.perm(n, k), self._den)
        return _diagonal(self, _perms(n + 1, k), 1, -k)

    def antiderivative(self) -> "Polynomial":
        """Classical antiderivative with zero constant term."""
        n = len(self._num)
        lcm = math.lcm(*range(1, n + 1))
        return _diagonal(self, [lcm // k for k in range(1, n + 1)], lcm, 1)

    def compose_affine(self, q: Scalar, h: Scalar) -> "Polynomial":
        """The polynomial x -> f(qx + h).  With h = r/s and q = a/b,
        s^d f((r/s) t) has the integer coefficients n_i r^i s^(d-i), their
        shift t -> t + 1 on one packed integer (von zur Gathen & Gerhard,
        ISSAC 1997) gives s^d f((r/s)(t + 1)), and t = a s x / (b r)
        scales them back; q = 1 skips the a^i b^(d-i) scaling."""
        q, h = _rational(q), _rational(h)
        a, b, r, s = q.numerator, q.denominator, h.numerator, h.denominator
        cs, d = list(self._num), self.degree
        if r and d > 0:
            rp, sp = _powers(r, d), _powers(s, d)
            cs = [c * x * y for c, x, y in zip(cs, rp, reversed(sp))]
            cs = [c // x * y for c, x, y in zip(_unit_shift(cs, 1), rp, sp)]
        if a != 1 or b != 1:
            cs = [c * x * y for c, x, y in zip(cs, _powers(a, d), reversed(_powers(b, d)))]
        return _canonical(cs, self._den * (b * s) ** max(d, 0))

    def truncate(self, n: int) -> "Polynomial":
        """Drop all terms of degree > n; n < 0 leaves 0."""
        return _canonical(list(self._num[: max(n + 1, 0)]), self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        pieces, cs = [], self.coeffs
        for d in range(self.degree, -1, -1):
            c = cs[d]
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
        """Polynomial([Fraction(n, d), ...]), the digits through `_digits`."""
        cs = ", ".join(f"Fraction({_digits(c.numerator)}, {_digits(c.denominator)})"
                       for c in self.coeffs)
        return f"Polynomial([{cs}])"


def _canonical(num: list[int], den: int) -> Polynomial:
    """sum(num[i] x^i) / den, built without converting each coefficient."""
    p = Polynomial.__new__(Polynomial)
    p._set(num, den)
    return p


class _Raw:
    """sum(num[i] x^i) / den unreduced, den != 0 of either sign, with no
    trailing zero: a verifier's side.  It has a `Polynomial`'s two slots,
    so every kernel that reads them takes it; only `_raw_equal` compares it."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: list[int], den: int):
        while num and not num[-1]:  # so that the next operator sees the degree
            num.pop()
        self._num, self._den = num, den


def _raw_equal(f: "Polynomial | _Raw", g: "Polynomial | _Raw") -> bool:
    """f == g, each canonical or `_Raw`, with no reduction: their numerators
    a and b have one length and a_i (e/h) == b_i (d/h) for their
    denominators d and e, of either sign, and h = gcd(d, e)."""
    a, b, d, e = f._num, g._num, f._den, g._den
    h = math.gcd(d, e)
    return len(a) == len(b) and all(map(operator.eq, map(operator.mul, a, repeat(e // h)),
                                        map(operator.mul, b, repeat(d // h))))


def _reduced(f: "Polynomial | _Raw") -> Polynomial:
    """f, canonical or `_Raw`, in canonical form: its one lowest-terms pair."""
    return _canonical(list(f._num), f._den)


# The one zero that the hot paths return.  It is shared, and nothing
# changes it: only `_set` and `_term` assign the slots, each on the
# polynomial it has just made.
_ZERO = _canonical([], 1)


def _term(j: int, c: int, den: int) -> Polynomial:
    """c x^j / den in canonical form, for ints c and den != 0, from one
    gcd of two ints: the sign of a negative den moves to c, and c = 0 gives
    `_ZERO`."""
    if not c:
        return _ZERO
    g = math.gcd(c, den)
    if den < 0:
        g = -g
    p = Polynomial.__new__(Polynomial)
    p._num, p._den = (0,) * j + (c // g,), den // g
    return p


def _value(f: Polynomial, p: int, q: int) -> tuple[int, int]:
    """f(p/q) as an unreduced pair (num, den) for ints p and q > 0, den
    = q^(d+1) times f's, of its sign (positive for a canonical f): Horner
    on the numerators, homogenised, so that no step divides.
    The one evaluation kernel: `Polynomial.__call__` reduces its pair
    once, and the expansions reduce theirs where the report stores them."""
    acc, qk = 0, 1
    for c in reversed(f._num):
        acc, qk = acc * p + c * qk, qk * q
    return acc * q, f._den * qk  # acc / (den q^d); qk = q^(d+1)


def _one_term(f: Polynomial, j: int) -> int | None:
    """f's numerator at x^j when f is 0 or the one term c x^j, else None:
    what lets the Bernoulli and Hahn-reduction sweeps settle a case on one
    cross-multiplied comparison."""
    num = f._num
    if len(num) == j + 1 and num.count(0) == j:
        return num[j]
    return None if num else 0


def _aligned(f: Polynomial, g: Polynomial) -> tuple:
    """The numerators of f and of g over the lcm of their denominators,
    and that lcm."""
    a, b, den = f._num, g._num, f._den
    if den != g._den:
        den = math.lcm(den, g._den)
        a = [c * (den // f._den) for c in a]
        b = [c * (den // g._den) for c in b]
    return a, b, den


def _combine(
    pairs: Iterable[tuple[int, Polynomial]], den: int = 1, raw: bool = False
) -> Polynomial:
    """The integer linear combination sum(c * f for c, f in pairs) / den
    in one pass: every f is brought to the one lcm of their denominators,
    and the sum is made canonical once (`_Raw` for raw=True).  den is a
    nonzero int; c is an int and f a polynomial or `_Raw`."""
    pairs = [(c, f) for c, f in pairs if c and f._num]
    lcm = math.lcm(*[f._den for _, f in pairs])
    out = []  # the first scaled row, then the running sum
    for c, f in pairs:
        if f._den != lcm:
            c *= lcm // f._den
        row = [c * v for v in f._num]
        if len(row) > len(out):
            out, row = row, out
        out[: len(row)] = map(operator.add, out, row)
    return (_Raw if raw else _canonical)(out, lcm * den)


def _diagonal(
    f: Polynomial, weights: Iterable[int], den: int, step: int, raw: bool = False
) -> Polynomial:
    """x^n -> (w / den) x^(n+step), extended linearly, for any int
    step; the terms below x^(-step) vanish when step < 0.  w is the
    i-th weight for the i-th coefficient kept: that of x^(i-step) when
    step < 0 and of x^i otherwise.  The weights are ints over the one
    nonzero int den and must cover every kept coefficient; extra ones
    are ignored.  Every derivative, antiderivative, x_hat and umbral
    scaling of the calculus, and every power of one, is one of these:
    one integer product per coefficient and one gcd in all, none for
    raw=True, which leaves the result `_Raw` (f may be one); only a
    one-term input skips it, for one `_term` (in `derivative` and
    `operators._psi_power`).
    """
    num = f._num[-step:] if step < 0 else f._num
    out = list(map(operator.mul, num, weights))
    if step > 0:
        out[:0] = [0] * step
    return (_Raw if raw else _canonical)(out, f._den * den)


def _unit_shift(cs: Sequence[int], h: int) -> list[int]:
    """The coefficients of f(t + h), h = 1 or -1, for the integer
    coefficients cs of f, index i holding that of t^i, d = len(cs) - 1 >= 1.

    Horner on one packed integer: at X = 2^b, G = f(X + h) is built as
    G <- (G << b) + G + c for h = 1 and G <- (G << b) - G + c for h = -1,
    d big-integer steps, and its signed base-X digits are the
    coefficients.  Each coefficient of f(t + h) is at most
    sum_i C(i, k) |c_i| <= C(d+1, k+1) max|c_i| < 2^(B+d) in size, for B
    the largest coefficient bit length, so b = B + d + 1 bits hold it
    with its sign.  A one-term f = c t^d, c != 0, packs as G = c (X + h)^d,
    one `pow` in place of the d steps over its zeros, at the same b; the
    test of cs[d-1] comes first, so a dense f pays O(1) for it.  A list
    whose one nonzero entry sits below the top, such as [1, 0, 0], takes
    the Horner loop.
    """
    d = len(cs) - 1
    b = max(map(int.bit_length, cs)) + d + 1
    if not cs[-2] and cs[-1] and cs.count(0) == d:
        return _unpack(cs[-1] * pow((1 << b) + h, d), b, d + 1)
    g = 0
    if h > 0:
        for c in reversed(cs):
            g = (g << b) + g + c
    else:
        for c in reversed(cs):
            g = (g << b) - g + c
    return _unpack(g, b, d + 1)


def _pack(cs: Sequence[int], b: int) -> int:
    """The value sum c_i 2^(b i) of the integer coefficients cs, lowest
    first, by Horner; `_unpack` reads them back while each lies in
    [-2^(b-1), 2^(b-1))."""
    g = 0
    for c in reversed(cs):
        g = (g << b) + c
    return g


def _unpack(g: int, b: int, count: int) -> list[int]:
    """The coefficients c_0 ... c_(count-1) of the packed value
    g = sum c_i 2^(b i), read back as balanced base-2^b digits, lowest
    first.  They are the true coefficients when every one lies in
    [-2^(b-1), 2^(b-1)) and there are at most count of them."""
    mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
    out = []
    for _ in range(count):
        digit = g & mask
        g >>= b  # (g - digit) >> b, the carry of a negative digit added below
        if digit >= half:
            digit -= full
            g += 1
        out.append(digit)
    return out


def _difference(f: Polynomial, h: int) -> Polynomial:
    """The forward difference f(x + 1) - f(x) for h = 1, the backward
    difference f(x) - f(x - 1) for h = -1: one packed shift of the
    numerators, one subtraction and one _canonical.  The Delta pair's
    lower operator and `discrete`'s two differences."""
    num = f._num
    if len(num) < 2:
        return _ZERO
    shifted = _unit_shift(num, h)
    a, b = (shifted, num) if h > 0 else (num, shifted)
    return _canonical(list(map(operator.sub, a, b)), f._den)  # the leading terms cancel


def _x_shift_back(f: Polynomial) -> Polynomial:
    """x f(x - 1), the Delta pair's raiser: the numerators of f(x - 1),
    one place up, and one _canonical."""
    num = f._num
    return _canonical([0, *(_unit_shift(num, -1) if len(num) > 1 else num)], f._den)


def _times_line(line: Polynomial, f: Polynomial) -> Polynomial:
    """line f in one pass, for line = (b + a x) / d of degree 1 and f != 0:
    the numerators b [*num, 0] + a [0, *num] over d den, made canonical
    once.  The derivative pairs' raiser is x - y, for y = p/s the line
    (s x - p) / s."""
    (b, a), d, num = line._num, line._den, f._num
    out = [b * num[0], *[a * u + b * v for u, v in zip(num, num[1:])], a * num[-1]]
    return _canonical(out, d * f._den)


def _powers(v: int, d: int) -> list[int]:
    """v^0, v^1, ..., v^d as running products."""
    return list(accumulate(repeat(v, d), operator.mul, initial=1))


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
