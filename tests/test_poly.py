import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import polynomials, rationals
from psicalc import (
    AdmissibleSequence,
    HahnParams,
    LatticeFunction,
    Polynomial,
    derivative_pair,
    falling_factorial_value,
    jackson_integral_numeric,
    parse_psi_spec,
    psi_bernoulli_taylor,
    psi_exp,
    taylor_classical,
    verify_exp_addition,
    verify_per_partes,
)

X = Polynomial.x()


class TestEval:
    def test_square_minus_one_at_three(self):
        assert (X**2 - 1)(3) == 8

    def test_zero_polynomial(self):
        assert Polynomial.zero()(F(7, 2)) == 0

    def test_rational_coefficients(self):
        f = F(2, 3) * X**3 + X
        assert f(F(3, 2)) == F(15, 4)


class TestAffineCompose:
    def test_identity_map(self):
        assert (X**2).compose_affine(1, 0) == X**2

    def test_shift(self):
        assert (X**2).compose_affine(1, -3) == X**2 - 6 * X + 9

    def test_degree_one(self):
        assert X.compose_affine(2, 3) == 2 * X + 3

    @given(polynomials(), rationals.filter(lambda q: q != 0), rationals)
    def test_affine_inverse(self, f, q, h):
        assert f.compose_affine(q, h).compose_affine(1 / q, -h / q) == f


class TestEvalDifference:
    def test_cube(self):
        assert (X**3)(1) - (X**3)(0) == 1

    def test_constant(self):
        c = Polynomial.constant(F(5, 3))
        assert c(7) - c(-2) == 0

    def test_quadratic(self):
        assert (X**2 - X)(3) - (X**2 - X)(1) == 6


class TestRingAxioms:
    @given(polynomials(), polynomials(), polynomials())
    def test_associativity_and_distributivity(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(polynomials(), polynomials())
    def test_commutativity(self, f, g):
        assert f + g == g + f
        assert f * g == g * f

    @given(polynomials(), polynomials())
    def test_degree_of_product(self, f, g):
        if f and g:
            assert (f * g).degree == f.degree + g.degree

    @given(polynomials(), polynomials(), rationals)
    def test_eval_is_multiplicative(self, f, g, a):
        assert (f * g)(a) == f(a) * g(a)


class TestStructure:
    def test_zero_degree_sentinel(self):
        assert Polynomial.zero().degree == -1
        assert Polynomial([0, 0, 0]).degree == -1

    def test_canonical_form_strips_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_exact_division(self):
        f = X**3 - 1
        q, r = divmod(f, X - 1)
        assert r == Polynomial.zero()
        assert q == X**2 + X + 1

    def test_str_past_the_int_digit_limit(self, digit_limit):
        big = 10**4999 + 7  # 5000 digits
        text = str(Polynomial([F(-1, big), 0, big]))
        assert sys.get_int_max_str_digits() == digit_limit
        digits = "1" + "0" * 4998 + "7"
        assert text == f"{digits}*x^2 - 1/{digits}"

    @given(polynomials(), polynomials(max_degree=4))
    def test_divmod_reconstructs(self, f, g):
        if g:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    @pytest.mark.parametrize("make", [
        lambda: Polynomial([0.1]),
        lambda: Polynomial([1, F(1, 2), 2.0]),
        lambda: Polynomial.constant(0.5),
        lambda: X + 0.5,
        lambda: X / 0.5,
        lambda: X.compose_affine(0.5, 1),
        lambda: X(0.5),
        lambda: HahnParams(0.1, 0),
        lambda: HahnParams(F(1, 2), 0.25),
        lambda: AdmissibleSequence.gauss_q(0.1),
        lambda: AdmissibleSequence.custom([1, 0.5]),
        lambda: psi_exp(parse_psi_spec("classical"), 0.1, 1),
        lambda: derivative_pair(0.1),
        lambda: taylor_classical(X, 0.1, 1),
        lambda: psi_bernoulli_taylor(parse_psi_spec("fib"), X, 0.1, 0, 1),
        lambda: psi_bernoulli_taylor(parse_psi_spec("fib"), X, 0, 0.5, 1),
        lambda: verify_exp_addition(parse_psi_spec("fib"), 0.1, 0, 2),
        lambda: verify_exp_addition(parse_psi_spec("fib"), 0, 0.5, 2),
        lambda: verify_per_partes(parse_psi_spec("fib"), X, X, 0.5, 1),
        lambda: verify_per_partes(parse_psi_spec("fib"), X, X, 0, 1.5),
        lambda: falling_factorial_value(0.5, 2),
        lambda: LatticeFunction.from_table([1, 0.1]),
        lambda: jackson_integral_numeric(abs, 0.5, F(1, 10), 1e-13),
        lambda: jackson_integral_numeric(abs, F(1, 2), 0.1, 1e-13),
    ])
    def test_floats_are_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_derivative_and_antiderivative(self):
        f = X**4 - F(3, 2) * X
        assert f.antiderivative().derivative() == f
