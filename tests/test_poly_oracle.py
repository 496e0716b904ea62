"""Differential oracle: Polynomial arithmetic against sympy.

Every operation of the integer-numerator representation is compared with
sympy's own rational polynomial arithmetic on random polynomials up to
degree 24, and every result is checked to be in canonical form.  Skipped
when sympy is not installed.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import polynomials, rationals
from psicalc import Polynomial, q_derivative
from psicalc.poly import _unit_shift

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
big = polynomials(max_degree=24)
nonzero = rationals.filter(lambda v: v != 0)


def to_sympy(f: Polynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in f.coeffs][::-1] or [0], X)


def agrees(result: Polynomial, expected) -> bool:
    """result equals the sympy Poly `expected` and is in canonical form."""
    num, den = result._num, result._den
    assert all(type(c) is int for c in num) and type(den) is int
    assert den > 0 and math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    want = [F(int(c.p), int(c.q)) for c in expected.all_coeffs()[::-1]]
    while want and want[-1] == 0:
        want.pop()
    return result.coeffs == tuple(want)


@given(big, big)
def test_add_and_mul(f, g):
    assert agrees(f + g, to_sympy(f) + to_sympy(g))
    assert agrees(f - g, to_sympy(f) - to_sympy(g))
    assert agrees(f * g, to_sympy(f) * to_sympy(g))


@given(big, rationals)
def test_scalar_mul(f, c):
    assert agrees(f * c, to_sympy(f) * sympy.Rational(c.numerator, c.denominator))


@given(big, rationals, rationals)
def test_compose_affine(f, q, h):
    inner = sympy.Poly(sympy.Rational(q.numerator, q.denominator) * X
                       + sympy.Rational(h.numerator, h.denominator), X)
    assert agrees(f.compose_affine(q, h), to_sympy(f).compose(inner))


@given(big, st.just(1) | rationals, st.sampled_from([1, -1]))
def test_compose_affine_unit_shift(f, q, h):
    """h = +-1, with q = 1 (no scaling) or a general rational."""
    inner = sympy.Poly(sympy.Rational(q.numerator, q.denominator) * X + h, X)
    assert agrees(f.compose_affine(q, h), to_sympy(f).compose(inner))


@given(st.integers(1, 40).flatmap(
    lambda d: st.lists(st.integers(-2**80, 2**80), min_size=d + 1, max_size=d + 1)),
    st.sampled_from([1, -1]))
@example([1, 0, 0], 1)
@example([-3, 0, 0, 0], -1)
def test_unit_shift_against_the_binomial_sum(cs, h):
    """The packed shift, at X + 1 or X - 1, against
    [t^k] f(t + h) = sum_i C(i, k) h^(i-k) c_i summed as Fractions."""
    want = [sum((F(c) * math.comb(i, k) * h ** (i - k) for i, c in enumerate(cs[k:], k)), F(0))
            for k in range(len(cs))]
    assert _unit_shift(cs, h) == want


@given(big, polynomials(max_degree=24).filter(bool))
def test_divmod(f, g):
    quot, rem = divmod(f, g)
    want_q, want_r = to_sympy(f).div(to_sympy(g))
    assert agrees(quot, want_q) and agrees(rem, want_r)


@given(big, nonzero, rationals)
def test_divmod_by_linear(f, q, h):
    g = Polynomial([h, q])
    quot, rem = divmod(f, g)
    want_q, want_r = to_sympy(f).div(to_sympy(g))
    assert agrees(quot, want_q) and agrees(rem, want_r)


@given(big, rationals)
def test_eval(f, a):
    assert f(a) == F(str(to_sympy(f).eval(sympy.Rational(a.numerator, a.denominator))))


@given(big, rationals.filter(lambda q: q != -1))
def test_q_derivative(f, q):
    pf, sq = to_sympy(f), sympy.Rational(q.numerator, q.denominator)
    if q == 1:
        want = pf.diff(X)
    else:  # (f(x) - f(qx)) / ((1 - q) x)
        want = (pf - pf.compose(sympy.Poly(sq * X, X))).exquo(sympy.Poly((1 - sq) * X, X))
    assert agrees(q_derivative(f, q), want)
