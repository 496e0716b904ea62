import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import polynomials
from psicalc import discrete
from psicalc import (
    LatticeFunction,
    Polynomial,
    RangeError,
    backward_nabla,
    bernoulli_maclaurin,
    definite_sum,
    falling_factorial_poly,
    falling_factorial_value,
    forward_difference,
    iterated_sum,
    newton_expansion,
)

X = Polynomial.x()


def lat(f):
    return LatticeFunction.from_polynomial(f)


class TestForwardDifference:
    def test_square(self):
        assert forward_difference(lat(X**2)).polynomial == 2 * X + 1

    def test_constant(self):
        assert forward_difference(lat(Polynomial.constant(4))).polynomial == Polynomial.zero()

    def test_table(self):
        d = forward_difference(LatticeFunction.from_table([0, 1, 4, 9]))
        assert d.table == (1, 3, 5)
        assert d.start == 0

    def test_single_entry_table_rejected(self):
        with pytest.raises(RangeError):
            forward_difference(LatticeFunction.from_table([1]))


class TestBackwardNabla:
    def test_square(self):
        assert backward_nabla(lat(X**2)).polynomial == 2 * X - 1

    def test_identity(self):
        assert backward_nabla(lat(X)).polynomial == Polynomial.constant(1)

    def test_constant(self):
        assert backward_nabla(lat(Polynomial.constant(F(1, 7)))).polynomial == Polynomial.zero()

    def test_table_range_shifts(self):
        d = backward_nabla(LatticeFunction.from_table([0, 1, 4, 9]))
        assert d.start == 1
        assert d(1) == 1 and d(3) == 5
        with pytest.raises(RangeError):
            d(0)

    @given(polynomials(max_degree=6))
    def test_nabla_is_delta_after_backshift(self, f):
        lhs = backward_nabla(lat(f)).polynomial
        rhs = forward_difference(lat(f.compose_affine(1, -1))).polynomial
        assert lhs == rhs


class TestDefiniteSum:
    def test_identity_function(self):
        assert definite_sum(lat(X), 4) == 6

    def test_empty_sum(self):
        assert definite_sum(lat(X**3), 0) == 0

    def test_ones(self):
        assert definite_sum(lat(Polynomial.constant(1)), 7) == 7

    @given(polynomials(max_degree=6), st.integers(min_value=0, max_value=12))
    def test_telescoping(self, f, x):
        assert definite_sum(forward_difference(lat(f)), x) == f(x) - f(0)

    def test_table_bound(self):
        t = LatticeFunction.from_table([1, 2, 3])
        assert definite_sum(t, 3) == 6
        with pytest.raises(RangeError):
            definite_sum(t, 4)


class TestIteratedSum:
    def test_depth_one_is_definite_sum(self):
        # definite_sum is the depth-1 iterated sum; both against a plain sum
        for f in (lat(X**2 + 1), LatticeFunction.from_table([F(v, 3) for v in range(-3, 5)])):
            for x in range(8):
                assert iterated_sum(f, 1, x) == definite_sum(f, x) == sum(map(f, range(x)))
                assert type(definite_sum(f, x)) is F

    def test_ones_depth_two(self):
        f = lat(Polynomial.constant(1))
        assert iterated_sum(f, 2, 3) == 3

    def test_composition_oracle(self):
        # k nested definite_sum calls, each level tabulated on 0..16;
        # no closed form is involved
        tables = [LatticeFunction.from_table([F(v, 3) for v in range(-7, 10)])]
        polys = (X, X**2 - X, 2 * X**3 + F(1, 2) * X, Polynomial.constant(1))
        for f in [lat(p) for p in polys] + tables:
            level = f
            for k in range(1, 9):
                level = LatticeFunction.from_table([definite_sum(level, x) for x in range(17)])
                for x in range(17):
                    assert iterated_sum(f, k, x) == level(x)

    @given(polynomials(max_degree=8))
    def test_polynomial_and_table_backings_agree(self, p):
        # the integer kernel of a polynomial-backed function against the
        # Fraction sum over the same values in a table
        table = LatticeFunction.from_table([p(r) for r in range(21)])
        for k in range(1, 9):
            for x in range(21):
                assert iterated_sum(lat(p), k, x) == iterated_sum(table, k, x)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_short_table_range_error(self, k):
        # f(3) lies outside the table; it is read even where the kernel
        # weight C(x-r-1, k-1) is zero, as it is for every r when k = 5
        t = LatticeFunction.from_table([1, 2, 3])
        with pytest.raises(RangeError):
            iterated_sum(t, k, 4)


    def test_weights_against_math_comb(self):
        # a unit table at r = 0 reads the kernel weight C(x-1, k-1) alone;
        # k-1 > x-1 gives 0 and k = 1 gives 1
        unit = LatticeFunction.from_table([1] + [0] * 39)
        for k in range(1, 46):
            assert [iterated_sum(unit, k, j + 1) for j in range(40)] == [
                math.comb(j, k - 1) for j in range(40)]
            sums, den = discrete._iterated_sums(unit, k, range(-2, 41))
            assert den == 1
            assert sums == [0, 0, 0] + [math.comb(j, k - 1) for j in range(40)]

    def test_zero_polynomial_reads_no_values(self, monkeypatch):
        def refuse(p, points):
            raise AssertionError("the zero polynomial needs no values")

        monkeypatch.setattr(Polynomial, "_numerator_values", refuse)
        total = iterated_sum(lat(Polynomial.zero()), 129, 10_000)
        assert total == 0 and type(total) is F


def newton_oracle(f, n, x):
    """partial(x) and R(x) of the order-n Newton expansion from values of f
    alone: Delta^k f(r) = sum_j (-1)^(k-j) C(k, j) f(r+j), the binomial
    C(x, k) as a falling product, and R(x) the sum over r < x of
    C(x-r-1, n) Delta^(n+1) f(r)."""
    def delta(k, r):
        return sum((-1) ** (k - j) * math.comb(k, j) * f(r + j) for j in range(k + 1))

    def binom(x, k):
        return math.prod(range(x - k + 1, x + 1), start=F(1)) / math.factorial(k)

    partial = sum((delta(k, 0) * binom(x, k) for k in range(n + 1)), F(0))
    remainder = sum((math.comb(x - r - 1, n) * delta(n + 1, r) for r in range(x)), F(0))
    return partial, remainder


class TestFallingFactorial:
    def test_polynomial_and_value_agree(self):
        for k in range(6):
            p = falling_factorial_poly(k)
            for x in range(-3, 9):
                assert p(x) == falling_factorial_value(x, k)

    def test_poly_form(self):
        assert falling_factorial_poly(2) == X**2 - X


class TestNewtonExpansion:
    def test_square(self):
        r = newton_expansion(lat(X**2), 2)
        assert r.partial_sum == X**2
        assert all(r.remainder_at(x) == 0 for x in range(6))
        assert r.exact

    def test_order_beyond_degree(self):
        r = newton_expansion(lat(X**3 - X), 5)
        assert all(r.remainder_at(x) == 0 for x in r.checked_points)
        assert r.exact

    def test_cube_low_order(self):
        r = newton_expansion(lat(X**3), 1)
        assert r.partial_sum(2) == 2
        assert r.remainder_at(2) == 6
        assert r.exact

    @given(polynomials(max_degree=8), st.integers(min_value=0, max_value=10))
    def test_exact_on_sweep(self, f, n):
        assert newton_expansion(lat(f), n).exact


class TestNewtonBatchedCheck:
    """`exact` and `remainder_at` against the per-point definition."""

    @given(polynomials(max_degree=10), st.integers(0, 12),
           st.lists(st.integers(-6, 20), max_size=8))
    @example(X**3 - X, 1, [])
    @example(X**4 + F(1, 3), 2, [-3, -1])
    @example(X**5 - 2 * X, 1, [9, 0, 9, 4, 4])
    @example(X**2, 4, [-5, 3, -5])
    def test_against_the_defining_sums(self, p, n, sweep):
        r = newton_expansion(lat(p), n, sweep)
        assert r.checked_points == tuple(sweep)
        assert r.partial_sum == sum(r.terms, Polynomial())
        want = True
        for x in sweep:
            partial, remainder = newton_oracle(p, n, x)
            assert r.partial_sum(x) == partial and r.remainder_at(x) == remainder
            want = want and partial + remainder == p(x)
        assert r.exact is want

    def test_negative_points_hold_only_past_the_degree(self):
        # the remainder is the empty sum at x < 0, so a truncated series
        # misses f there while the full one does not
        assert not newton_expansion(lat(X**3), 1, [-2]).exact
        assert newton_expansion(lat(X**3), 1, [0, 5]).exact
        assert newton_expansion(lat(X**3), 3, [-2]).exact

    def test_a_wrong_difference_is_caught(self, monkeypatch):
        forward = discrete.forward_difference
        monkeypatch.setattr(
            discrete, "forward_difference",
            lambda f: LatticeFunction.from_polynomial(2 * forward(f).polynomial))
        f = lat(X**3 - 2 * X)
        for n in (0, 1, 2, 5):
            r = newton_expansion(f, n)
            assert not r.exact
            assert any(r.partial_sum(x) + r.remainder_at(x) != f(x) for x in r.checked_points)


class TestBernoulliMaclaurin:
    def test_linear_hand_case(self):
        r = bernoulli_maclaurin(lat(X), 2, 1)
        assert r.terms == (F(2), F(-2))
        assert r.remainder == 0
        assert r.exact

    def test_square(self):
        r = bernoulli_maclaurin(lat(X**2), 3, 2)
        assert r.total == 0 == r.target
        assert r.exact

    @given(
        polynomials(max_degree=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_exact_for_positive_order(self, f, alpha, n):
        assert bernoulli_maclaurin(lat(f), alpha, n).exact

    @given(polynomials(max_degree=6), st.integers(min_value=1, max_value=8))
    def test_order_zero_is_exact_too(self, f, alpha):
        # with the derived signs, order 0 reads
        # f(0) = f(alpha) - sum of (nabla f)(r+1), which telescopes
        assert bernoulli_maclaurin(lat(f), alpha, 0).exact

    @given(
        polynomials(max_degree=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=9),
    )
    def test_remainder_against_its_defining_sum(self, f, alpha, n):
        # R = (-1)^(n+1) sum_{r<alpha} C(r, n) (nabla^(n+1) f)(r+1), with
        # nabla^(n+1) f(y) = sum_j (-1)^j C(n+1, j) f(y - j) from values of
        # f alone: no difference operator, no shift, no iterated_sum
        def nabla(y):
            return sum((-1) ** j * math.comb(n + 1, j) * f(y - j) for j in range(n + 2))

        want = (-1) ** (n + 1) * sum((math.comb(r, n) * nabla(r + 1) for r in range(alpha)), F(0))
        assert bernoulli_maclaurin(lat(f), alpha, n).remainder == want

    def test_at_the_alpha_limit(self):
        r = bernoulli_maclaurin(lat(X**3 - 2 * X + 1), 10_000, 1)
        assert r.alpha == 10_000 and r.exact

    def test_legacy_sign_convention_totals_minus_f0(self):
        # the commonly printed variant flips every sign and lands on
        # -f(0); it only looks exact when f(0) = 0
        for poly, alpha, n in ((X**2 + 3, 3, 2), (X - F(1, 2), 2, 0), (5 * X**3 + 1, 4, 5)):
            r = bernoulli_maclaurin(lat(poly), alpha, n, legacy_signs=True)
            assert r.total == -r.target
            assert not r.exact
        assert bernoulli_maclaurin(lat(X**2 - X), 4, 1, legacy_signs=True).exact
