"""Recursive-descent parser for the CLI polynomial expression grammar.

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | base ('^' uint)?
    base     := rational | 'x' | '(' expr ')'
    rational := uint ('/' uint)?

A unary minus binds looser than '^' and tighter than '*', so -x^2 is
-(x^2) and -3^2 is -9.  Whitespace is insignificant.  Printing a
Polynomial with str() produces text this grammar accepts, so parse/print
round-trips exactly.  Parentheses nest at most MAX_NESTING deep, so the
recursion stays far from Python's limit, no power or product may have a
degree above MAX_DEGREE, and none may have coefficients of more than
MAX_BITS bits.  A factor's size is log2 of its largest numerator or
denominator, rounded down (`_bits`): a power's is that of its base times
the exponent, a product's the sum of its factors', and for a constant
neither is more than the bits the result has, so 1^99999999 passes.
Each '^' and '*' is checked before the power or product is computed, so
x^99999999 and 2^9999999 are refused at once, not computed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial

MAX_NESTING = 100
MAX_DEGREE = 128
MAX_BITS = 100_000  # about 30 000 decimal digits


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return int(self.src[start:self.pos])

    def rational(self) -> Fraction:
        num = self.uint()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            start = self.pos
            den = self.uint()
            if den == 0:
                raise ParseError("zero denominator", start)
        return Fraction(num, den)

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if ch == "x":
            self.pos += 1
            return Polynomial.x()
        if ch.isdigit():
            return Polynomial.constant(self.rational())
        raise ParseError("expected rational, 'x', or '('", self.pos)

    def factor(self) -> Polynomial:
        # a run of unary minuses is counted, not recursed into
        negative = False
        while self.peek() == "-":
            self.pos += 1
            negative = not negative
        b = self.base()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            n = self.uint()
            _check_size(b.degree * n, _bits(b) * n, at)
            b = b**n
        return -b if negative else b

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            rhs = self.factor()
            _check_size(acc.degree + rhs.degree, _bits(acc) + _bits(rhs), at)
            acc = acc * rhs
        return acc

    def expr(self) -> Polynomial:
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc


def _bits(p: Polynomial) -> int:
    """floor(log2) of the largest of p's numerators and its denominator."""
    return max([p._den, *map(abs, p._num)]).bit_length() - 1


def _check_size(degree: int, bits: int, position: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}", position)
    if bits > MAX_BITS:
        raise ParseError(f"coefficients above the limit of {MAX_BITS} bits", position)


def parse_poly(src: str) -> Polynomial:
    parser = _Parser(src)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(src):
        raise ParseError("unexpected trailing input", parser.pos)
    return result
