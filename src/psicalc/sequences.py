"""Admissible sequences and the derived quantities n_psi, n_psi!, and
falling psi-factorials.

An admissible sequence supplies one nonzero rational factor n_psi per
positive integer n.  Three built-in families are provided (the classical
integers, the Gauss q-integers, and the Fibonacci numbers) plus custom
factor lists.  A PsiContext wraps a sequence with one memo, the integer
rows of n_psi that the operators weigh coefficients by and n_psi! is
read from; it is the parameter every psi-operator takes.  On the
Gauss q-integers the psi-calculus is the Jackson q-calculus of `hahn`.
"""

from __future__ import annotations

import math
import re
import threading
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import AdmissibilityError, DomainError, ParseError
from .poly import _digits, _rational
from .record import Record

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?$")


def parse_rational(text: str, offset: int = 0) -> Fraction:
    """Parse 'p' or 'p/q' with optional leading minus.  `offset` is where
    text starts inside a larger input; error positions count from there."""
    offset += len(text) - len(text.lstrip())
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational: {text!r}", offset)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", offset + text.index("/") + 1) from None


class AdmissibleSequence(Record):
    """Provider of the raw factors n_psi, n >= 1."""

    __slots__ = ("kind", "q", "factors")
    _defaults = {"q": None, "factors": None}
    kind: str  # "classical" | "gauss_q" | "fibonomial" | "custom"
    q: Fraction | None
    factors: tuple[Fraction, ...] | None

    @classmethod
    def classical(cls) -> "AdmissibleSequence":
        return cls("classical")

    @classmethod
    def gauss_q(cls, q) -> "AdmissibleSequence":
        return cls("gauss_q", q=Fraction(_rational(q)))

    @classmethod
    def fibonomial(cls) -> "AdmissibleSequence":
        return cls("fibonomial")

    @classmethod
    def custom(cls, factors) -> "AdmissibleSequence":
        return cls("custom", factors=tuple(Fraction(_rational(f)) for f in factors))

    def raw_factor(self, n: int) -> Fraction:
        """n_psi without the nonzero check (admissibility_check needs raw values)."""
        if n < 1:
            raise DomainError(f"sequence index must be a positive integer, got {_digits(n)}")
        if self.kind == "classical":
            return Fraction(n)
        if self.kind == "gauss_q":
            a, b = self.q.numerator, self.q.denominator
            if a == b:
                return Fraction(n)
            # (1 - q^n) / (1 - q) with q = a/b, as one Fraction
            return Fraction(b**n - a**n, b ** (n - 1) * (b - a))
        if self.kind == "fibonomial":
            a, b = 1, 1  # F_1, F_2
            for _ in range(n - 1):
                a, b = b, a + b
            return Fraction(a)
        if self.kind == "custom":
            if n > len(self.factors):
                raise DomainError(f"custom sequence has {len(self.factors)} factors, "
                                  f"index {_digits(n)} requested")
            return self.factors[n - 1]
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "classical":
            return "classical"
        if self.kind == "gauss_q":
            return f"q:{_digits(self.q)}"
        if self.kind == "fibonomial":
            return "fib"
        return "custom:" + ",".join(map(_digits, self.factors))


class PsiRows(namedtuple("PsiRows", "num den num_lcm den_lcm num_prod den_prod")):
    """1_psi ... m_psi as integers: k_psi = num[k-1] / den[k-1] in lowest
    terms with den[k-1] > 0, num_lcm[k-1] = lcm(|num[0]|, ..., |num[k-1]|)
    and den_lcm[k-1] = lcm(den[0], ..., den[k-1]).  The prefix products
    num_prod[k] = num[0] ... num[k-1] and den_prod[k] (1 at k = 0) give
    k_psi! = num_prod[k] / den_prod[k], and a run of factors as one quotient:
    (m+k)_psi! / m_psi! = (num_prod[m+k] // num_prod[m]) / (den_prod[m+k] // den_prod[m])."""

    __slots__ = ()


class PsiContext:
    """An admissible sequence plus its one memo, the integer rows of n_psi
    (see `rows`): n_psi! is read from their prefix products, and n_psi
    itself straight from the sequence.

    Contexts can be shared between threads; all returned values are
    immutable.  The rows are one immutable `PsiRows` snapshot, replaced
    whole under the lock when it grows, so a reader never sees a
    half-grown row; they hold O(m) ints for the largest index m asked for.
    """

    def __init__(self, sequence: AdmissibleSequence):
        self.sequence = sequence
        self._rows = PsiRows((), (), (), (), (1,), (1,))
        self._lock = threading.Lock()

    @property
    def label(self) -> str:
        return self.sequence.label

    def factor(self, n: int) -> Fraction:
        """n_psi; raises AdmissibilityError when the sequence value is zero."""
        if n < 1:
            raise DomainError(f"n_psi requires n >= 1, got {_digits(n)}")
        v = self.sequence.raw_factor(n)
        if v == 0:
            raise AdmissibilityError(f"{self.label}: {_digits(n)}_psi = 0")
        return v

    def rows(self, n: int) -> PsiRows:
        """The rows of k_psi for at least 1 <= k <= n.  They grow in
        increasing k through `factor`, so a zero or missing factor raises
        the error `factor` raises, at the same first index; the rows
        before that index are kept."""
        rows = self._rows
        if len(rows.num) >= n:
            return rows
        num, den, num_lcm, den_lcm, num_prod, den_prod = map(list, rows)
        a, b = (num_lcm[-1], den_lcm[-1]) if num else (1, 1)
        try:
            for k in range(len(num) + 1, n + 1):
                v = self.factor(k)
                a, b = math.lcm(a, v.numerator), math.lcm(b, v.denominator)
                num.append(v.numerator)
                den.append(v.denominator)
                num_lcm.append(a)
                den_lcm.append(b)
                num_prod.append(num_prod[-1] * v.numerator)
                den_prod.append(den_prod[-1] * v.denominator)
        finally:
            rows = PsiRows(*map(tuple, (num, den, num_lcm, den_lcm, num_prod, den_prod)))
            with self._lock:
                if len(rows.num) > len(self._rows.num):
                    self._rows = rows
        return rows

    def factorial(self, n: int) -> Fraction:
        """n_psi! = n_psi * (n-1)_psi!, with 0_psi! = 1."""
        if n < 0:
            raise DomainError(f"n_psi! requires n >= 0, got {_digits(n)}")
        rows = self.rows(n)
        return Fraction(rows.num_prod[n], rows.den_prod[n])

    def falling_factorial(self, x: int, k: int) -> Fraction:
        """x_psi (x-1)_psi ... (x-k+1)_psi; the empty product (k = 0) is 1.
        A product of `factor` calls, so it needs no factor below x-k+1."""
        if k < 0:
            raise DomainError(f"falling factorial length must be >= 0, got {_digits(k)}")
        if k > 0 and x - k + 1 < 1:
            raise DomainError(
                f"falling factorial {_digits(x)}^({_digits(k)}) would hit a non-positive index"
            )
        acc = Fraction(1)
        for j in range(k):
            acc *= self.factor(x - j)
        return acc


class AdmissibilityReport(Record):
    __slots__ = ("label", "limit", "first_zero")
    label: str
    limit: int
    first_zero: int | None

    @property
    def ok(self) -> bool:
        return self.first_zero is None


def admissibility_check(ctx: PsiContext, N: int) -> AdmissibilityReport:
    """Report whether n_psi != 0 for all 1 <= n <= N; never raises."""
    if N < 1:
        raise DomainError(f"admissibility bound must be >= 1, got {_digits(N)}")
    for n in range(1, N + 1):
        try:
            value = ctx.sequence.raw_factor(n)
        except DomainError:
            return AdmissibilityReport(ctx.label, N, n)
        if value == 0:
            return AdmissibilityReport(ctx.label, N, n)
    return AdmissibilityReport(ctx.label, N, None)


def parse_psi_spec(text: str) -> PsiContext:
    """Parse the psi-spec grammar:

    ``classical`` | ``q:<rational>`` | ``fib`` | ``custom:<r1>,<r2>,...``
    """
    start = len(text) - len(text.lstrip())  # error positions count in the spec as given
    text = text.strip()
    if text == "classical":
        return PsiContext(AdmissibleSequence.classical())
    if text == "fib":
        return PsiContext(AdmissibleSequence.fibonomial())
    if text.startswith("q:"):
        return PsiContext(AdmissibleSequence.gauss_q(parse_rational(text[2:], start + 2)))
    if text.startswith("custom:"):
        start += len("custom:")
        parts = text[len("custom:"):].split(",")
        if parts == [""]:
            raise ParseError("custom psi-spec needs at least one factor", start)
        starts = accumulate([len(p) + 1 for p in parts], initial=start)
        return PsiContext(AdmissibleSequence.custom(list(map(parse_rational, parts, starts))))
    raise ParseError(f"unrecognized psi-spec {text!r}", start)
