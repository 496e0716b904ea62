"""Difference calculus on the integer lattice.

Forward and backward differences, definite summation, the iterated-sum
kernel, the Newton expansion with its summed Cauchy-type remainder, and
the Bernoulli-Maclaurin formula.  Functions on the lattice are either
polynomial-backed (any integer argument) or table-backed over a finite
range with an explicit start, so differencing can shift the range.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError, RangeError, _check_order
from .poly import _ZERO, Polynomial, _canonical, _combine, _difference, _digits, _rational, _value
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    from .poly import Scalar

    Table = tuple[Fraction, ...]


class LatticeFunction:
    """A function on integers, backed by a polynomial or a finite table."""

    __slots__ = ("polynomial", "table", "start")

    def __init__(self, polynomial=None, table=None, start=0):
        if (polynomial is None) == (table is None):
            raise ValueError("exactly one of polynomial/table must be given")
        self.polynomial: Polynomial | None = polynomial
        self.table: Table | None = (
            None if table is None else tuple(Fraction(_rational(v)) for v in table)
        )
        self.start = start

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "LatticeFunction":
        return cls(polynomial=f)

    @classmethod
    def from_table(cls, values, start: int = 0) -> "LatticeFunction":
        values = tuple(values)
        if not values:
            raise RangeError("table-backed function needs at least one value")
        return cls(table=values, start=start)

    @property
    def is_polynomial(self) -> bool:
        return self.polynomial is not None

    @property
    def end(self) -> int | None:
        """Last valid argument for a table-backed function."""
        if self.table is None:
            return None
        return self.start + len(self.table) - 1

    def __call__(self, x: int) -> Fraction:
        if self.polynomial is not None:
            return self.polynomial(x)
        if not self.start <= x <= self.end:
            raise RangeError(
                f"argument {_digits(x)} outside table range "
                f"[{_digits(self.start)}, {_digits(self.end)}]"
            )
        return self.table[x - self.start]


def forward_difference(f: LatticeFunction) -> LatticeFunction:
    """Delta f: x -> f(x+1) - f(x).  A polynomial takes
    `poly._difference`, the kernel of the Delta pair's lower operator."""
    if f.is_polynomial:
        return LatticeFunction.from_polynomial(_difference(f.polynomial, 1))
    return _table_difference(f, f.start)


def backward_nabla(f: LatticeFunction) -> LatticeFunction:
    """nabla f: x -> f(x) - f(x-1); table ranges shift up by one.  A
    polynomial takes `poly._difference`, as in `forward_difference`."""
    if f.is_polynomial:
        return LatticeFunction.from_polynomial(_difference(f.polynomial, -1))
    return _table_difference(f, f.start + 1)


def _table_difference(f: LatticeFunction, start: int) -> LatticeFunction:
    """Consecutive table differences, indexed from `start`; the forward
    and backward differences differ only in where the result begins."""
    if len(f.table) < 2:
        raise RangeError("difference of a single-entry table is empty")
    diffs = [b - a for a, b in zip(f.table, f.table[1:])]
    return LatticeFunction.from_table(diffs, start=start)


def definite_sum(f: LatticeFunction, x: int) -> Fraction:
    """Sum of f(k) for 0 <= k < x; the empty sum is 0."""
    if x < 0:
        raise RangeError(f"definite sum upper index must be >= 0, got {_digits(x)}")
    return iterated_sum(f, 1, x)


def falling_factorial_poly(k: int) -> Polynomial:
    """x(x-1)...(x-k+1) as an exact polynomial; k = 0 gives 1."""
    if k < 0:
        raise DomainError(f"falling factorial length must be >= 0, got {_digits(k)}")
    return _falling_factorials(k)[k]


def _falling_factorials(k: int) -> list[Polynomial]:
    """x^(falling j) for j = 0..k, each one product from the last."""
    out = [Polynomial.constant(1)]
    for j in range(k):
        out.append(out[-1] * Polynomial([-j, 1]))
    return out


def falling_factorial_value(x: Scalar, k: int) -> Fraction:
    """x(x-1)...(x-k+1) evaluated directly, for rational x."""
    if k < 0:
        raise DomainError(f"falling factorial length must be >= 0, got {_digits(k)}")
    acc = Fraction(1)
    x = _rational(x)
    for j in range(k):
        acc *= x - j
    return acc


def iterated_sum(f: LatticeFunction, k: int, x: int) -> Fraction:
    """The k-fold definite sum via the closed kernel:
    sum over r < x of (x-r-1)^(falling k-1)/(k-1)! f(r), whose weight is
    the binomial C(x-r-1, k-1); `_iterated_sums` at the one point x."""
    if k < 1:
        raise RangeError(f"iterated sum depth must be >= 1, got {_digits(k)}")
    (total,), den = _iterated_sums(f, k, (x,))
    return Fraction(total, den)


def _iterated_sums(f: LatticeFunction, k: int, points: Sequence[int]) -> tuple[list, int]:
    """The k-fold sums of f at every x in points (0 for x <= 0) from one
    pass, as (sums, den): the sum at x is sums[i] / den.  The values f(r)
    for r < max(points) are read once, and the weights C(j, k-1) for j in
    the same range come from the running product
    C(j+1, K) = C(j, K) (j+1) / (j+1-K), K = k-1, one exact step each;
    the sum at x pairs C(x-1-r, K) with f(r).  A polynomial-backed
    f = P/den sums the integers P(r) and makes no Fraction; its zero
    returns before any weight is built.  A table-backed one reads every
    f(r), r < max(points), and has den 1."""
    p = f.polynomial
    if p is not None and not p._num:
        return [0] * len(points), 1
    stop = max([0, *points])
    if p is None:
        values, den = [*map(f, range(stop))], 1
    else:
        values, den = p._numerator_values(range(stop)), p._den
    K = k - 1
    weights = [0] * min(K, stop)
    w = 1
    for j in range(K, stop):
        weights.append(w)
        w = w * (j + 1) // (j + 1 - K)
    return [sum(map(operator.mul, reversed(weights[:max(x, 0)]), values)) for x in points], den


class DeltaExpansionReport(Record):
    """Newton expansion report; the remainder is an integer-point
    evaluator because its defining sum has an argument-dependent bound."""

    __slots__ = ("order", "terms", "partial_sum", "remainder_at", "checked_points", "exact")
    order: int
    terms: tuple[Polynomial, ...]
    partial_sum: Polynomial
    remainder_at: Callable[[int], Fraction]
    checked_points: tuple[int, ...]
    exact: bool


def newton_expansion(
    f: LatticeFunction, n: int, sweep=range(17)
) -> DeltaExpansionReport:
    """Newton forward-difference expansion about 0 to order n with the
    summed Cauchy-type remainder, checked for exactness on `sweep`.  Term
    k is the falling factorial x^(falling k), whose coefficients are ints,
    times the constant numerator of Delta^k f over its den times k!: one
    `_canonical`, and no Fraction."""
    if not f.is_polynomial:
        raise RangeError("newton_expansion requires a polynomial-backed function")
    _check_order(n)
    terms = []
    dk, fact = f, 1  # Delta^k f, and k!
    top = min(n, f.polynomial.degree)
    for k, falling in zip(range(top + 1), _falling_factorials(top)):
        if k:
            fact *= k
        num = dk.polynomial._num  # Delta^k f(0) is num[0] / den
        c = num[0] if num else 0
        terms.append(_canonical([c * v for v in falling._num], dk.polynomial._den * fact)
                     if c else _ZERO)
        dk = forward_difference(dk)
    terms += [_ZERO] * (n + 1 - len(terms))  # Delta^k f = 0 beyond deg f
    partial = _combine((1, t) for t in terms)

    # dk is now Delta^(n+1) f; the remainder is its (n+1)-fold sum
    def remainder_at(x: int) -> Fraction:
        return iterated_sum(dk, n + 1, x)

    # partial(x) + remainder_at(x) == f(x) on every point, from one kernel
    # pass and in integers: (f - partial)(x) = gap(x) / gap._den against
    # the remainder rem / den
    points = tuple(sweep)
    rem, den = _iterated_sums(dk, n + 1, points)
    gap = f.polynomial - partial
    exact = all(g * den == r * gap._den for g, r in zip(gap._numerator_values(points), rem))
    return DeltaExpansionReport(n, tuple(terms), partial, remainder_at, points, exact)


# The largest expansion point bernoulli_maclaurin accepts.  Its remainder
# sums alpha terms: at alpha = 10 000 a degree-128 f with 1000-bit
# coefficients takes under half a second, while alpha = 10^6 took seconds
# even for f = x, and a long alpha would run for ever.
MAX_ALPHA = 10_000


class MaclaurinReport(Record):
    """Bernoulli-Maclaurin report: everything is a rational scalar."""

    __slots__ = ("alpha", "order", "terms", "remainder", "total", "target", "exact")
    alpha: int
    order: int
    terms: tuple[Fraction, ...]
    remainder: Fraction
    total: Fraction
    target: Fraction  # f(0)
    exact: bool


def bernoulli_maclaurin(
    f: LatticeFunction, alpha: int, n: int, legacy_signs: bool = False
) -> MaclaurinReport:
    """f(0) = sum_k (-1)^k alpha^(falling k)/k! (nabla^k f)(alpha) + R,
    R = (-1)^(n+1) sum_{r<alpha} r^(falling n)/n! (nabla^(n+1) f)(r+1).

    Exact for every n >= 0: summing the telescoped operator identity for
    the forward difference over 0 <= r < alpha gives exactly these signs.
    The widely printed variant with (-1)^(k+1) terms and a (-1)^n
    remainder is the negative of this one and totals -f(0); pass
    legacy_signs=True to reproduce it (its report is exact only when
    f(0) = 0).  alpha above MAX_ALPHA is a DomainError, raised before
    any work, since the remainder sums alpha terms.  Each term is one
    Fraction of ints, its value the `poly._value` pair of nabla^k f at
    alpha; the remainder is the iterated-sum kernel's pair, and the total
    one integer sum over the lcm of the denominators, each reduced once.
    """
    if not f.is_polynomial:
        raise RangeError("bernoulli_maclaurin requires a polynomial-backed function")
    if alpha < 1:
        raise RangeError(f"expansion point must be a positive integer, got {_digits(alpha)}")
    if alpha > MAX_ALPHA:
        raise DomainError(f"expansion point must be at most {MAX_ALPHA}")
    _check_order(n)
    flip = 1 if legacy_signs else 0
    terms = []
    dk = f
    for k in range(n + 1):
        v, d = _value(dk.polynomial, alpha, 1)
        terms.append(Fraction((-1) ** (k + flip) * math.comb(alpha, k) * v, d))
        dk = backward_nabla(dk)

    # dk is now nabla^(n+1) f.  The (n+1)-fold sum of g at alpha sums
    # C(alpha - s - 1, n) g(s) over s < alpha in integers; at
    # g(s) = dk(alpha - s) and r = alpha - 1 - s that is the remainder's
    # sum of C(r, n) dk(r + 1) over r < alpha
    back = LatticeFunction.from_polynomial(dk.polynomial.compose_affine(-1, alpha))
    (rem,), rem_den = _iterated_sums(back, n + 1, (alpha,))
    remainder = Fraction((-1) ** (n + 1 - flip) * rem, rem_den)

    parts = [*terms, remainder]
    den = math.lcm(*[t.denominator for t in parts])
    total = Fraction(sum([t.numerator * (den // t.denominator) for t in parts]), den)
    target = f(0)
    return MaclaurinReport(alpha, n, tuple(terms), remainder, total, target, total == target)
