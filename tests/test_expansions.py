import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import polynomials, rationals
from psicalc import (
    Polynomial,
    jackson_antiderivative,
    jackson_integral_exact,
    parse_psi_spec,
    psi_antiderivative,
    psi_bernoulli_taylor,
    psi_definite_integral,
    psi_derivative,
    taylor_classical,
    verify_expansion,
)
from psicalc.expansions import ExpansionReport
from psicalc.poly import _value

X = Polynomial.x()
CLASSICAL = parse_psi_spec("classical")
FIB = parse_psi_spec("fib")
SPECS = ["classical", "q:2", "q:1/2", "q:3/2", "fib", "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9"]
# SPECS' custom spec grown to degree 12, its factors of both signs
LONG_CUSTOM = "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,-11/2,6,-13/7,1/3,-8,15/4"

small_orders = st.integers(min_value=0, max_value=10)


def with_zero(max_degree):
    """Polynomials up to max_degree, the zero one drawn on its own too."""
    return st.one_of(st.just(Polynomial()), polynomials(max_degree=max_degree))


def at(f, a):
    """f(a) as the sum of c_i a^i over f.coeffs: no Horner kernel."""
    return sum((c * F(a) ** i for i, c in enumerate(f.coeffs)), F(0))


class TestTaylorClassical:
    def test_cube_about_one(self):
        r = taylor_classical(X**3, 1, 2)
        assert r.partial_sum == 1 + 3 * (X - 1) + 3 * (X - 1) ** 2
        assert r.cauchy_remainder == (X - 1) ** 3
        assert r.exact

    def test_order_beyond_degree(self):
        f = X**4 - F(2, 3) * X
        r = taylor_classical(f, F(-1, 2), 7)
        assert r.cauchy_remainder == Polynomial.zero()
        assert r.partial_sum == f
        assert r.exact

    def test_order_zero(self):
        r = taylor_classical(X, 0, 0)
        assert r.partial_sum == Polynomial.zero()
        assert r.cauchy_remainder == X
        assert r.exact

    @given(polynomials(max_degree=8), rationals, small_orders)
    def test_always_exact(self, f, alpha, n):
        r = taylor_classical(f, alpha, n)
        assert r.partial_sum == sum(r.terms, Polynomial())
        assert r.partial_sum + r.cauchy_remainder == f
        assert r.exact

    def test_total_is_f(self):
        f = X**5 - F(2, 3) * X**2 + 4
        assert taylor_classical(f, F(1, 2), 3).total == f


class TestPsiBernoulliTaylor:
    def test_classical_matches_taylor_pointwise(self):
        r = psi_bernoulli_taylor(CLASSICAL, X**3, 1, 2, 2)
        assert [t.coeff(0) for t in r.terms] == [1, 3, 3]
        assert r.cauchy_remainder.coeff(0) == 1
        assert r.exact

    def test_constant_function(self):
        c = F(9, 4)
        r = psi_bernoulli_taylor(FIB, Polynomial.constant(c), 3, -1, 4)
        assert r.terms[0].coeff(0) == c
        assert all(t == Polynomial.zero() for t in r.terms[1:])
        assert r.cauchy_remainder == Polynomial.zero()
        assert r.exact

    def test_fibonomial_pointwise_case(self):
        r = psi_bernoulli_taylor(FIB, X**2, 0, 1, 1)
        total = sum((t.coeff(0) for t in r.terms), F(0)) + r.cauchy_remainder.coeff(0)
        assert total == 1  # f(1)
        assert r.exact

    def test_total_is_the_constant_f_at_x_eval(self):
        f = X**5 - F(2, 3) * X**2 + 4
        r = psi_bernoulli_taylor(parse_psi_spec("q:3/2"), f, F(1, 2), F(-5, 3), 3)
        assert r.total == Polynomial.constant(at(f, F(-5, 3)))

    @given(
        polynomials(max_degree=7),
        rationals,
        rationals,
        st.integers(min_value=0, max_value=8),
    )
    def test_always_exact_fibonomial(self, f, alpha, x_eval, n):
        r = psi_bernoulli_taylor(FIB, f, alpha, x_eval, n)
        assert r.exact

    def test_classical_reduction_term_by_term(self):
        rng = random.Random(7)
        for _ in range(25):
            f = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 9))])
            alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
            x_eval = F(rng.randint(-4, 4), rng.randint(1, 3))
            n = rng.randint(0, 8)
            tc = taylor_classical(f, alpha, n)
            pt = psi_bernoulli_taylor(CLASSICAL, f, alpha, x_eval, n)
            for poly_term, point_term in zip(tc.terms, pt.terms):
                assert poly_term(x_eval) == point_term.coeff(0)
            assert tc.cauchy_remainder(x_eval) == pt.cauchy_remainder.coeff(0)

    def test_pointwise_exactness_implies_polynomial_identity(self):
        # deg f + 1 sample points pin the partial-sum-plus-remainder
        # polynomial down to f itself
        f = X**5 - 3 * X**2 + F(1, 2)
        n = 3
        for ctx in (FIB, parse_psi_spec("q:2")):
            for x_eval in range(f.degree + 1):
                assert psi_bernoulli_taylor(ctx, f, F(1, 2), x_eval, n).exact

    def test_remainder_zero_beyond_degree(self):
        f = X**3 - X
        r = psi_bernoulli_taylor(FIB, f, 1, 4, 9)
        assert r.cauchy_remainder == Polynomial.zero()
        assert r.exact


class TestPsiFreeClosedForm:
    """x_hat^k D_psi^k = x^k D^k for every admissible psi, so term k of the
    psi-expansion is (-1)^k sum_m phi_m C(m, k) w0^m, with phi(w) =
    f(x_eval + w) expanded binomially and w0 = alpha - x_eval."""

    @given(
        st.sampled_from([*SPECS[:-1], LONG_CUSTOM]),
        with_zero(12),
        rationals,
        rationals,
        st.integers(min_value=0, max_value=14),
    )
    @example("fib", Polynomial(), F(1, 2), F(-3), 2)
    @example(LONG_CUSTOM, F(-3, 7) * X**12 + 5 * X**7 - X**2 + F(2, 3), F(-5, 2), F(7, 3), 14)
    @example(LONG_CUSTOM, (1 + X) ** 12 - 4 * X**5, F(1, 2), F(-2), 12)
    @example("q:3/2", 3 * X**11 + X, F(3, 5), 2, 6)
    def test_terms(self, spec, f, alpha, x_eval, n):
        cs = f.coeffs
        phi = [sum((c * math.comb(i, m) * x_eval ** (i - m) for i, c in enumerate(cs) if i >= m), F(0))
               for m in range(len(cs))]
        w0 = alpha - x_eval
        want = [(-1) ** k * sum((p * math.comb(m, k) * w0**m for m, p in enumerate(phi)), F(0))
                for k in range(n + 1)]
        r = psi_bernoulli_taylor(parse_psi_spec(spec), f, alpha, x_eval, n)
        assert all(t.degree <= 0 for t in r.terms)
        assert [t.coeff(0) for t in r.terms] == want
        # the partial sum is the sum of those terms, and the remainder,
        # built through the psi-integral, is what they leave of f(x_eval)
        assert r.partial_sum == Polynomial.constant(sum(want, F(0)))
        assert r.cauchy_remainder == Polynomial.constant(at(f, x_eval) - sum(want, F(0)))
        assert r.oracle_remainder == r.cauchy_remainder
        assert r.exact


class TestUnreducedImages:
    """The psi-expansion reads each x_hat image, the remainder's image and
    its psi-antiderivative once, by `poly._value`, and so do the Jackson
    and psi integrals their antiderivative: none of them is made canonical.
    Every canonical polynomial is counted where `Polynomial._set` stores it."""

    @pytest.fixture
    def made(self, monkeypatch):
        made, store = [], Polynomial._set
        monkeypatch.setattr(Polynomial, "_set",
                            lambda p, num, den: made.append(1) or store(p, num, den))
        return made

    @pytest.mark.parametrize("spec", [*SPECS[:-1], LONG_CUSTOM])
    @pytest.mark.parametrize("n", [0, 1, 4, 9, 12])
    def test_psi_expansion(self, made, spec, n):
        # only phi and its psi-derivative chain are canonical
        ctx, f = parse_psi_spec(spec), F(3, 7) * X**9 - 5 * X**4 + X**2 + F(2, 3)
        made.clear()
        dk = f.compose_affine(1, 2)
        for _ in range(min(n, dk.degree) + 1):
            dk = psi_derivative(ctx, dk)
        chain = len(made)
        made.clear()
        assert psi_bernoulli_taylor(ctx, f, F(-1, 2), 2, n).exact
        assert len(made) == chain

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2), 2])
    def test_integrals(self, made, q):
        f = F(3, 7) * X**9 - 5 * X**4 + X**2 + F(2, 3)
        made.clear()
        exact = jackson_integral_exact(f, q, F(-5, 3))
        definite = psi_definite_integral(parse_psi_spec(f"q:{q}"), f, F(1, 4), F(-5, 3))
        assert made == []
        anti = jackson_antiderivative(f, q)
        assert (exact, definite) == (at(anti, F(-5, 3)), at(anti, F(-5, 3)) - at(anti, F(1, 4)))


class TestTaylorTermOracle:
    """Term k of the classical expansion is f^(k)(alpha)/k! (x - alpha)^k,
    from Fraction coefficients and math.comb: no shift, no product."""

    @given(with_zero(8), rationals, st.integers(min_value=0, max_value=11))
    @example(Polynomial(), F(-7, 4), 3)
    @example(F(-2, 9) * X**11 + 4 * X**6 - 1, F(-7, 4), 7)
    def test_terms(self, f, alpha, n):
        cs = f.coeffs
        r = taylor_classical(f, alpha, n)
        assert len(r.terms) == n + 1
        for k, term in enumerate(r.terms):
            gk = sum((c * math.comb(i, k) * alpha ** (i - k) for i, c in enumerate(cs) if i >= k),
                     F(0))
            power = [math.comb(k, j) * (-alpha) ** (k - j) for j in range(k + 1)]
            assert term == Polynomial([gk * c for c in power])
        assert r.partial_sum + r.cauchy_remainder == f
        assert r.exact


class TestEvaluationKernels:
    """`poly._value` and `psi_definite_integral` against the sum of
    c_i a^i over .coeffs."""

    @given(with_zero(10), rationals)
    @example(Polynomial(), F(-5, 2))
    def test_value_is_the_sum_of_powers(self, f, a):
        v, d = _value(f, a.numerator, a.denominator)
        assert d > 0
        assert F(v, d) == at(f, a) == f(a)

    @given(st.sampled_from(SPECS), with_zero(6), rationals, rationals)
    @example("q:3/2", X**3 - 2, 0, 1)
    def test_psi_definite_integral(self, spec, f, a, b):
        ctx = parse_psi_spec(spec)
        anti = psi_antiderivative(ctx, f)
        assert psi_definite_integral(ctx, f, a, b) == at(anti, b) - at(anti, a)

    @given(st.sampled_from(SPECS), with_zero(4), st.integers(min_value=1, max_value=3))
    def test_an_antiderivative_vanishes_at_zero(self, spec, f, k):
        # the psi-Bernoulli-Taylor remainder reads its integral from w0
        # to 0 as -anti(w0), which needs anti(0) = 0
        anti = psi_antiderivative(parse_psi_spec(spec), f, k)
        assert anti.coeff(0) == 0
        assert _value(anti, 0, 1)[0] == 0


class TestTaylorRemainderOracle:
    @given(polynomials(max_degree=9), rationals, st.integers(min_value=0, max_value=11))
    def test_kernel_integral_by_sympy(self, f, alpha, n):
        sympy = pytest.importorskip("sympy")
        x, t = sympy.symbols("x t")
        rat = lambda c: sympy.Rational(c.numerator, c.denominator)
        ft = sum((rat(c) * t**i for i, c in enumerate(f.coeffs)), sympy.Integer(0))
        kernel = (x - t) ** n * sympy.diff(ft, t, n + 1)
        want = sympy.expand(sympy.integrate(kernel, (t, rat(alpha), x)) / sympy.factorial(n))
        got = sum((rat(c) * x**i for i, c in enumerate(taylor_classical(f, alpha, n).cauchy_remainder.coeffs)),
                  sympy.Integer(0))
        assert sympy.expand(got - want) == 0


class TestOracleAndVerifier:
    def test_oracle_subtracts(self):
        assert X**2 - X**2 == Polynomial.zero()
        partial = 1 + 3 * (X - 1) + 3 * (X - 1) ** 2
        assert X**3 - partial == (X - 1) ** 3
        assert Polynomial.zero() - Polynomial.zero() == Polynomial.zero()

    def test_verifier_passes_fresh_report(self):
        assert verify_expansion(taylor_classical(X**4, F(1, 3), 2)).passed

    def test_verifier_catches_tampering(self):
        r = taylor_classical(X**3, 1, 2)
        tampered = ExpansionReport(
            psi_label=r.psi_label,
            alpha=r.alpha,
            order=r.order,
            terms=r.terms,
            partial_sum=r.partial_sum,
            cauchy_remainder=r.cauchy_remainder + 1,
            oracle_remainder=r.oracle_remainder,
            exact=r.exact,
        )
        assert not verify_expansion(tampered).passed

    def test_degenerate_order_zero(self):
        assert verify_expansion(taylor_classical(Polynomial.zero(), 0, 0)).passed
