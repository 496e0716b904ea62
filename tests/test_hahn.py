import math
import random
import sys
import threading
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import polynomials, rationals
from psicalc import hahn
from psicalc.operators import Counterexample, VerificationReport
from psicalc.poly import _canonical
from psicalc import (
    AdmissibilityError,
    AdmissibleSequence,
    ConvergenceError,
    DegenerateParamsError,
    DomainError,
    HahnParams,
    InternalError,
    Polynomial,
    forward_difference,
    hahn_derivative,
    jackson_antiderivative,
    jackson_integral_exact,
    jackson_integral_numeric,
    parse_psi_spec,
    psi_definite_integral,
    psi_derivative,
    q_derivative,
    verify_hahn_reduction,
    verify_jackson_inverse,
    LatticeFunction,
    PsiContext,
)

X = Polynomial.x()


class TestQDerivative:
    def test_classical_limit(self):
        assert q_derivative(X**3, 1) == 3 * X**2

    def test_q_two(self):
        assert q_derivative(X**3, 2) == 7 * X**2

    def test_q_half(self):
        assert q_derivative(X**2, F(1, 2)) == F(3, 2) * X

    def test_difference_quotient_form(self):
        q = F(3, 2)
        for f in (X**4 - X, 2 * X**3 + F(1, 2) * X**2):
            numerator = f - f.compose_affine(q, 0)
            denominator = Polynomial([0, 1 - q])
            quot, rem = divmod(numerator, denominator)
            assert rem == Polynomial.zero()
            assert q_derivative(f, q) == quot

    def test_root_of_unity_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            q_derivative(X**2, -1)

    @given(polynomials(max_degree=8))
    def test_matches_psi_derivative(self, f):
        ctx = parse_psi_spec("q:2")
        assert q_derivative(f, 2) == psi_derivative(ctx, f)


class TestHahnDerivative:
    def test_linear(self):
        assert hahn_derivative(X, HahnParams(2, 3)) == Polynomial.constant(1)

    def test_square(self):
        assert hahn_derivative(X**2, HahnParams(2, 3)) == 3 * X + 3

    def test_q_one_h_one_is_forward_difference(self):
        for f in (X**3, X**2 - F(1, 2) * X, Polynomial.constant(3)):
            lhs = hahn_derivative(f, HahnParams(1, 1))
            rhs = forward_difference(LatticeFunction.from_polynomial(f)).polynomial
            assert lhs == rhs

    def test_h_zero_is_q_derivative(self):
        for f in (X**4, X**2 + X):
            assert hahn_derivative(f, HahnParams(F(1, 2), 0)) == q_derivative(f, F(1, 2))

    def test_degenerate_params(self):
        with pytest.raises(DegenerateParamsError):
            hahn_derivative(X, HahnParams(1, 0))


def hahn_by_divmod(f, q, h):
    """The Hahn derivative by general long division, the reference for the kernel."""
    quot, rem = divmod(f - f.compose_affine(q, h), Polynomial([-h, 1 - q]))
    assert rem == Polynomial.zero()
    return quot


def divisor_content(q, h):
    """gcd(L, M) for D((1-q)x - h) = L x + M, q = a/b, h = c/e, D = be."""
    a, b, c, e = q.numerator, q.denominator, h.numerator, h.denominator
    return math.gcd(e * (b - a), c * b)


special_q = st.sampled_from([F(0), F(1), F(3), F(-1), F(1, 3), F(5, 2)])
special_h = st.sampled_from([F(0), F(2), F(-2), F(2, 3), F(-5, 2)])


class TestHahnKernel:
    """_hahn_quotient divides integer numerators by (1-q)x - h in exact steps."""

    @given(polynomials(max_degree=10), st.one_of(special_q, rationals),
           st.one_of(special_h, rationals))
    def test_against_divmod(self, f, q, h):
        assume(not (q == 1 and h == 0))
        assert hahn_derivative(f, HahnParams(q, h)) == hahn_by_divmod(f, q, h)

    @pytest.mark.parametrize("q, h, content", [
        (F(3), F(2), 2), (F(-1), F(2), 2), (F(3), F(0), 2), (F(1, 3), F(2, 3), 6),
        (F(1), F(4), 4), (F(-5), F(-3, 2), 3), (F(0), F(1), 1), (F(1), F(-2, 3), 2),
    ])
    def test_divisor_content_and_special_q(self, q, h, content):
        assert divisor_content(q, h) == content
        for f in (X**7 - F(1, 2) * X**3 + 5, (3 * X - 2) ** 5, X, Polynomial.constant(F(7, 3)),
                  Polynomial.zero()):
            assert hahn_derivative(f, HahnParams(q, h)) == hahn_by_divmod(f, q, h), f

    @pytest.mark.parametrize("num, q, h", [
        ([1, 0, 1], F(2), F(0)),  # x^2 + 1 by -x: the last remainder
        ([0, 1], F(-2), F(1)),  # x by 3x - 1: the first step
        ([5, 3, 6], F(-2), F(1)),  # by 3x - 1, a step in the middle
        ([4, 1], F(3), F(2)),  # by -2x - 2, primitive -x - 1, the remainder
    ])
    def test_numerator_it_does_not_divide_is_an_internal_error(self, num, q, h):
        with pytest.raises(InternalError, match="divisibility is a theorem"):
            hahn._hahn_quotient(num, 1, HahnParams(q, h))

    def test_scale_of_the_quotient(self):
        # (x^2 - (3x + 2)^2) / 9 by -2x - 2 is (4x + 2) / 9
        p = HahnParams(3, 2)
        assert hahn._hahn_quotient([-4, -12, -8], 9, p) == Polynomial([F(2, 9), F(4, 9)])


class TestHahnReduction:
    def test_hand_case(self):
        assert verify_hahn_reduction(HahnParams(2, 3), 2).passed

    def test_h_zero(self):
        assert verify_hahn_reduction(HahnParams(F(3, 2), 0), 16).passed

    def test_grid(self):
        for q in (F(2), F(1, 2), F(3, 2), F(-2)):
            for h in (F(0), F(1), F(-3), F(7, 5)):
                assert verify_hahn_reduction(HahnParams(q, h), 32).passed

    def test_q_one_rejected(self):
        with pytest.raises(DomainError):
            verify_hahn_reduction(HahnParams(1, 1), 4)

    def test_zero_q_integer_is_inadmissible(self):
        assert verify_hahn_reduction(HahnParams(-1, 1), 1).passed
        with pytest.raises(AdmissibilityError) as exc:
            verify_hahn_reduction(HahnParams(-1, 1), 4)
        assert str(exc.value) == "q:-1: 2_psi = 0"

    def test_rows_grown_once_before_the_monomials(self, monkeypatch):
        asked = []
        rows = PsiContext.rows
        monkeypatch.setattr(PsiContext, "rows", lambda ctx, n: asked.append(n) or rows(ctx, n))
        assert verify_hahn_reduction(HahnParams(F(3, 2), 1), 12).passed
        assert asked[0] == 12 and max(asked) == 12


HAHN_GRID = [(q, h) for q in (F(2), F(1, 2), F(3, 2), F(-2)) for h in (F(0), F(1), F(-3), F(7, 5))]


def reference_hahn_reduction(p, N):
    """The reduction sweep on the monomials x^n: the left side divides
    D^n x^n - (alpha x + beta)^n by (1-q)x - h, the right side is the
    q-derivative of (x + s)^n shifted back by -s, one Taylor shift per
    monomial.  The reference the shifted-basis sweep must agree with."""
    s = p.h / (1 - p.q)
    ctx = PsiContext(AdmissibleSequence.gauss_q(p.q))
    ctx.rows(N)
    D = p.q.denominator * p.h.denominator
    alpha, beta = p.q.numerator * p.h.denominator, p.h.numerator * p.q.denominator
    tau, sigma = s.denominator, s.numerator
    qx_hn, x_sn, Dn, taun = [1], [1], 1, 1
    failure, cases = None, N + 1
    for n in range(N + 1):
        if n:
            qx_hn = [alpha * u + beta * v for u, v in zip([0, *qx_hn], [*qx_hn, 0])]
            x_sn = [tau * u + sigma * v for u, v in zip([0, *x_sn], [*x_sn, 0])]
            Dn, taun = Dn * D, taun * tau
        diff = [-v for v in qx_hn]
        diff[n] += Dn
        lhs = hahn._hahn_quotient(diff, Dn, p)
        rhs = hahn.psi_derivative(ctx, _canonical(x_sn, taun)).compose_affine(1, -s)
        if lhs != rhs:
            failure, cases = Counterexample(f"n={n}", str(lhs), str(rhs)), n + 1
            break
    return VerificationReport("hahn-reduction", f"q={p.q}, h={p.h}, N={N}", cases, failure)


def first_failure(report):
    return report.passed, report.cases, report.counterexample and report.counterexample.inputs


WRONG_Q_DERIVATIVES = [
    (lambda ctx, f: f.derivative(), 2),  # the classical derivative: 2_q != 2
    (lambda ctx, f: psi_derivative(ctx, f) + (1 if f.degree >= 5 else 0), 5),
]


def shifted_reference_hahn_reduction(p, N):
    """The shifted-basis sweep on coefficient lists, with no packing: the
    running numerators of (tau x - sigma)^n and (A x + B)^n, the left side
    of every n by `_hahn_quotient`, the right side a scaled
    (tau x - sigma)^(n-1) or, for an image of several terms, the image
    shifted back by -s.  The reference for whole reports, counterexample
    text included."""
    s = p.h / (1 - p.q)
    ctx = PsiContext(AdmissibleSequence.gauss_q(p.q))
    ctx.rows(N)
    a, b, c, e = p.q.numerator, p.q.denominator, p.h.numerator, p.h.denominator
    sigma, tau, D = s.numerator, s.denominator, b * e
    A, B = tau * a * e, tau * c * b - sigma * D
    x_sn, qx_hn, Dn, taun = [1], [1], 1, 1
    failure, cases = None, N + 1
    for n in range(N + 1):
        image = hahn.psi_derivative(ctx, Polynomial.monomial(n))
        cn = image._num
        if len(cn) == n and not any(cn[:-1]):
            rhs = _canonical([cn[-1] * v for v in x_sn], image._den * taun) if cn else image
        else:
            rhs = image.compose_affine(1, -s)
        if n:
            x_sn = [tau * u - sigma * v for u, v in zip([0, *x_sn], [*x_sn, 0])]
            qx_hn = [A * u + B * v for u, v in zip([0, *qx_hn], [*qx_hn, 0])]
            Dn, taun = Dn * D, taun * tau
        lhs = hahn._hahn_quotient([Dn * u - v for u, v in zip(x_sn, qx_hn)], Dn * taun, p)
        if lhs != rhs:
            failure, cases = Counterexample(f"n={n}", str(lhs), str(rhs)), n + 1
            break
    return VerificationReport("hahn-reduction", f"q={p.q}, h={p.h}, N={N}", cases, failure)


def count_exact_paths(monkeypatch):
    """The list that gets one entry per n the sweep decides by the
    definitions, from the degree of the shifted power it differentiates."""
    calls, exact = [], hahn.hahn_derivative
    monkeypatch.setattr(hahn, "hahn_derivative", lambda f, p: calls.append(f.degree) or exact(f, p))
    return calls


class TestHahnSweepPath:
    """The sweep runs on the shifted basis (x - s)^n; what it still checks."""

    def test_a_passing_sweep_makes_no_shift(self, monkeypatch):
        shifts = []
        compose = Polynomial.compose_affine
        monkeypatch.setattr(
            Polynomial, "compose_affine", lambda f, q, h: shifts.append((q, h)) or compose(f, q, h)
        )
        for q, h in [(F(3, 2), F(7, 5)), *HAHN_GRID]:
            assert verify_hahn_reduction(HahnParams(q, h), 12).passed
        assert shifts == []

    def test_a_passing_sweep_divides_nothing(self, monkeypatch):
        calls = []
        for name in ("_hahn_quotient", "hahn_derivative"):
            original = getattr(hahn, name)
            monkeypatch.setattr(hahn, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
        for q, h in [(F(3, 2), F(7, 5)), *HAHN_GRID]:
            assert verify_hahn_reduction(HahnParams(q, h), 12).passed
        assert calls == []

    def test_one_image_per_n(self, monkeypatch):
        # the q-derivative under test sees the monomials x^0..x^N, each
        # once and in order: the injection tests above rest on it
        seen, derivative = [], hahn.psi_derivative
        monkeypatch.setattr(hahn, "psi_derivative",
                            lambda ctx, f: seen.append(f) or derivative(ctx, f))
        assert verify_hahn_reduction(HahnParams(F(3, 2), F(7, 5)), 12).passed
        assert seen == [X**n for n in range(13)]

    def test_left_side_against_sympy(self):
        # the left side of the sweep, and of a failing report, at n is the
        # Hahn derivative of (x - s)^n
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for q, h in HAHN_GRID:
            p = HahnParams(q, h)
            sq, sh = sympy.Rational(q.numerator, q.denominator), sympy.Rational(h.numerator, h.denominator)
            s, ss = h / (1 - q), sh / (1 - sq)
            for n in range(11):
                want = sympy.cancel(((x - ss) ** n - (sq * x + sh - ss) ** n) / ((1 - sq) * x - sh))
                coeffs = sympy.Poly(want, x).all_coeffs()[::-1]
                lhs = hahn_derivative((X - s) ** n, p)
                assert lhs == Polynomial([F(int(c.p), int(c.q)) for c in coeffs]), (q, h, n)

    @pytest.mark.parametrize("wrong, first", WRONG_Q_DERIVATIVES)
    def test_wrong_q_derivative_fails_at_the_first_wrong_n(self, monkeypatch, wrong, first):
        monkeypatch.setattr(hahn, "psi_derivative", wrong)
        report = verify_hahn_reduction(HahnParams(F(3, 2), F(7, 5)), 8)
        assert not report.passed
        assert report.cases == first + 1
        assert report.counterexample.inputs == f"n={first}"

    def test_failing_report_shows_the_images_of_the_shifted_power(self, monkeypatch):
        wrong, n = WRONG_Q_DERIVATIVES[0]
        monkeypatch.setattr(hahn, "psi_derivative", wrong)
        p = HahnParams(F(3, 2), F(7, 5))
        s = p.h / (1 - p.q)
        ce = verify_hahn_reduction(p, 8).counterexample
        assert ce.lhs == str(hahn_derivative((X - s) ** n, p))
        assert ce.rhs == str(wrong(None, X**n).compose_affine(1, -s))


class TestHahnSweepAgainstMonomialReference:
    """The shifted basis and the monomial basis find the same first failure."""

    @pytest.mark.parametrize("N", [0, 1, 2, 12, 32])
    def test_grid(self, N):
        for q, h in HAHN_GRID:
            p = HahnParams(q, h)
            assert first_failure(verify_hahn_reduction(p, N)) == first_failure(
                reference_hahn_reduction(p, N)), (q, h)

    @pytest.mark.parametrize("wrong, first", WRONG_Q_DERIVATIVES)
    def test_wrong_q_derivatives(self, monkeypatch, wrong, first):
        monkeypatch.setattr(hahn, "psi_derivative", wrong)
        for q, h in [(F(3, 2), F(7, 5)), *HAHN_GRID]:
            p = HahnParams(q, h)
            new, old = verify_hahn_reduction(p, 8), reference_hahn_reduction(p, 8)
            want = (False, first + 1, f"n={first}")
            assert first_failure(new) == first_failure(old) == want, (q, h)

    @settings(deadline=2000)
    @given(rationals.filter(lambda q: q not in (0, 1, -1)), rationals, st.integers(0, 12))
    def test_random_params(self, q, h, N):
        p = HahnParams(q, h)
        assert first_failure(verify_hahn_reduction(p, N)) == first_failure(
            reference_hahn_reduction(p, N))


heights = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))

EXACT_ROUTES = {
    # route: (q-derivative, first failing n); every route fails, and the
    # failing n is the only one decided by the definitions
    "several-term image": (WRONG_Q_DERIVATIVES[1][0], 5),
    "one-term image that differs": (WRONG_Q_DERIVATIVES[0][0], 2),
    # past the width the true images need; the width grows to hold them
    "numerator past the width": (lambda ctx, f: psi_derivative(ctx, f) * 10**40, 1),
    "denominator past the width": (lambda ctx, f: psi_derivative(ctx, f) / 10**40, 1),
}


class TestPackedCheck:
    """The sweep's packed comparison, its width and the routes to the
    definitions."""

    @pytest.mark.parametrize("wrong, first", EXACT_ROUTES.values(), ids=EXACT_ROUTES)
    def test_every_route_into_the_exact_path(self, monkeypatch, wrong, first):
        monkeypatch.setattr(hahn, "psi_derivative", wrong)
        N, exact = 8, count_exact_paths(monkeypatch)
        for q, h in [(F(3, 2), F(7, 5)), *HAHN_GRID]:
            p = HahnParams(q, h)
            exact.clear()
            report, want = verify_hahn_reduction(p, N), shifted_reference_hahn_reduction(p, N)
            assert exact == [first], (q, h)
            assert report == want and str(report) == str(want), (q, h)
            assert first_failure(report) == first_failure(reference_hahn_reduction(p, N))
            assert first_failure(report) == (False, first + 1, f"n={first}")

    def test_packed_sides_that_differ_where_the_exact_sides_agree(self, monkeypatch):
        # the classical derivative on both sides: the images are one term,
        # the packed relation fails at n = 2 and the definitions agree
        monkeypatch.setattr(hahn, "psi_derivative", WRONG_Q_DERIVATIVES[0][0])
        monkeypatch.setattr(hahn, "hahn_derivative", lambda f, p: f.derivative())
        with pytest.raises(InternalError, match="^hahn-reduction at n=2: "):
            verify_hahn_reduction(HahnParams(F(3, 2), F(7, 5)), 8)

    @pytest.mark.parametrize("N", [1, 64])
    def test_the_width_holds_every_digit_of_both_sides(self, monkeypatch, N):
        # both sides of the packed relation at n are the Hahn derivative of
        # (x - s)^n and the image (k/d) (x - s)^(n-1), times
        # (L x + M) D^(n-1) tau^n d, built here from hahn_derivative and
        # n_q; each coefficient must be a balanced base-2^w digit, also
        # when the last image alone is scaled past all the others
        recorded, width = [], hahn._packed_width
        monkeypatch.setattr(hahn, "_packed_width", lambda *a: recorded.append(width(*a)) or recorded[-1])
        for q, h in HAHN_GRID:
            p, widths = HahnParams(q, h), {}
            for last in (1, 10**40, F(1, 10**40)):
                monkeypatch.setattr(hahn, "psi_derivative", lambda ctx, f, last=last:
                                    psi_derivative(ctx, f) * (last if f.degree == N else 1))
                assert verify_hahn_reduction(p, N).passed == (last == 1)
                widths[last] = recorded[-1]
            s = h / (1 - q)
            a, b, c, e = q.numerator, q.denominator, h.numerator, h.denominator
            divisor = Polynomial([-c * b, e * (b - a)])
            power = Polynomial.constant(1)
            for n in range(1, N + 1):
                nq = psi_derivative(hahn._gauss_q(q), X**n).coeff(n - 1)
                prev, power = power, power * (X - s)
                lhs = hahn_derivative(power, p)
                for last, w in widths.items():
                    kd = nq * (last if n == N else 1)
                    scale = divisor * ((b * e) ** (n - 1) * s.denominator**n * kd.denominator)
                    for side in (lhs * scale, prev * kd * scale):
                        assert side._den == 1
                        assert all(-(1 << (w - 1)) <= v < 1 << (w - 1) for v in side._num), \
                            (q, h, n, last)

    @settings(deadline=None)
    @given(heights.filter(lambda q: q not in (1, -1)), heights, st.integers(0, 40))
    @example(F(0), F(5, 3), 6)  # q = 0: A x + B is 0
    @example(F(10**12, 10**12 - 1), F(-10**12, 7), 40)
    def test_large_heights(self, q, h, N):
        p = HahnParams(q, h)
        with mock.patch.object(hahn, "hahn_derivative", side_effect=hahn.hahn_derivative) as exact:
            report = verify_hahn_reduction(p, N)
        assert exact.call_count == 0
        assert report.passed and report.cases == N + 1
        assert first_failure(report) == first_failure(reference_hahn_reduction(p, N))


class TestJacksonExact:
    def test_classical(self):
        assert jackson_integral_exact(X**2, 1, 1) == F(1, 3)

    def test_q_two(self):
        assert jackson_integral_exact(X, 2, 1) == F(1, 3)

    def test_zero(self):
        assert jackson_integral_exact(Polynomial.zero(), F(5, 4), F(7, 2)) == 0

    @pytest.mark.parametrize("z", [1.0, 0.5, -2.0])
    def test_a_float_z_is_refused(self, z):
        with pytest.raises(TypeError, match="is not an exact rational"):
            jackson_integral_exact(X**2 + 1, F(1, 2), z)

    @given(polynomials(max_degree=6), rationals)
    def test_matches_psi_integral(self, f, z):
        ctx = parse_psi_spec("q:2")
        assert jackson_integral_exact(f, 2, z) == psi_definite_integral(ctx, f, 0, z)


class TestJacksonNumeric:
    def test_identity_integrand(self):
        q = F(9, 10)
        result = jackson_integral_numeric(lambda t: t, q, 1, 1e-13)
        assert abs(result.value - float(jackson_integral_exact(X, q, 1))) < 1e-12

    def test_q_near_one_approaches_classical(self):
        result = jackson_integral_numeric(lambda t: t * t, F(999, 1000), 1, 1e-13)
        assert abs(result.value - 1 / 3) < 1e-3
        assert abs(result.value - float(jackson_integral_exact(X**2, F(999, 1000), 1))) < 1e-12

    def test_constant_geometric_series(self):
        result = jackson_integral_numeric(lambda t: 1.0, F(1, 2), 1, 1e-14)
        assert abs(result.value - 1.0) < 1e-12

    def test_domain_check(self):
        with pytest.raises(DomainError):
            jackson_integral_numeric(lambda t: t, F(3, 2), 1, 1e-12)

    @pytest.mark.parametrize("tol", [0, -1, 0.0, float("nan"), float("inf"), float("-inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        calls = []
        with pytest.raises(DomainError, match="tolerance"):
            jackson_integral_numeric(lambda t: calls.append(t) or t, F(1, 2), 1, tol, max_terms=10)
        assert calls == []  # refused before any term is computed

    def test_cap_reached(self):
        with pytest.raises(ConvergenceError):
            jackson_integral_numeric(lambda t: 1.0, F(99, 100), 1, 1e-13, max_terms=10)

    def test_multiple_root_does_not_end_the_sum(self):
        # the terms dip below the cutoff around the sixfold root at 1/2;
        # three of them in a row must not pass for the geometric tail
        q, z = F(99, 100), 2
        numeric = jackson_integral_numeric(lambda t: 3 * (t - 0.5) ** 6, q, z, 1e-13)
        exact = float(jackson_integral_exact(3 * (X - F(1, 2)) ** 6, q, z))
        assert abs(numeric.value - exact) < 1e-12
        assert numeric.terms_used <= 10_000

    @pytest.mark.parametrize("coeffs, z", [
        ([0] * 128 + [1], 1000),  # x^128: the first terms are past the float range, +inf
        ([0] * 127 + [-1000, 1], 2000),  # +inf and -inf terms, which fsum refuses
        ([1.7e308], 2),  # finite terms whose sum is past the float range
    ], ids=["infinite-terms", "infinities-of-both-signs", "finite-terms-overflowing"])
    def test_a_sum_that_is_not_a_finite_float_is_a_domain_error(self, coeffs, z):
        def fn(t):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * t + c
            return acc

        with pytest.raises(DomainError, match="^the numeric Jackson sum overflows a float$"):
            jackson_integral_numeric(fn, F(1, 2), z, 1e-13)

    def test_streak_spans_a_halving_of_the_sample_points(self):
        # ln 2 / -ln(1/2) = 1, so q = 1/2 keeps the run of three
        assert jackson_integral_numeric(lambda t: t * t, F(1, 2), 1, 1e-13).terms_used == 18

    def test_polynomial_grid_against_exact(self):
        for q in (F(1, 2), F(9, 10), F(99, 100)):
            for z in (F(1), F(2), F(-2), F(1, 3)):
                for f in (X, X**2, X**4 - X, Polynomial.constant(1)):
                    coeffs = [float(c) for c in f.coeffs]

                    def fn(t, coeffs=coeffs):
                        acc = 0.0
                        for c in reversed(coeffs):
                            acc = acc * t + c
                        return acc

                    numeric = jackson_integral_numeric(fn, q, z, 1e-13)
                    exact = float(jackson_integral_exact(f, q, z))
                    assert abs(numeric.value - exact) < 1e-12
                    assert numeric.terms_used <= 10_000


class TestJacksonInverse:
    def test_q_two_cube(self):
        assert jackson_antiderivative(X**3, 2) == X**4 / 15
        assert verify_jackson_inverse(X**3, 2).passed

    def test_classical(self):
        assert verify_jackson_inverse(X**4 - F(1, 2) * X, 1).passed

    def test_zero(self):
        assert verify_jackson_inverse(Polynomial.zero(), F(5, 3)).passed

    def test_counterexample_is_labelled_jackson_inverse(self, monkeypatch):
        from psicalc import operators

        # the classical derivative in place of the q-derivative
        power = operators._psi_power
        monkeypatch.setattr(
            operators, "_psi_power",
            lambda ctx, f, k, raising, falling=False:
                power(ctx, f, k, raising, falling) if raising else f.derivative(k),
        )
        report = verify_jackson_inverse(X**2, 2)
        assert (report.identity, report.params, report.cases) == ("jackson-inverse", "q=2", 1)
        ce = report.counterexample
        assert (ce.inputs, ce.lhs, ce.rhs) == ("f=x^2", "3/7*x^2", "x^2")


class TestSharedGaussQContext:
    """`_gauss_q`: one memoised Gauss-q context per exact q."""

    def test_equal_q_share_one_context(self):
        assert hahn._gauss_q(2) is hahn._gauss_q(F(2)) is hahn._gauss_q(F(4, 2))
        assert hahn._gauss_q(F(3, 2)) is not hahn._gauss_q(2)

    @pytest.mark.parametrize("call", [
        lambda q: q_derivative(X**2, q),
        lambda q: jackson_antiderivative(X**2, q),
        lambda q: jackson_integral_exact(X**2, q, 1),
        lambda q: verify_jackson_inverse(X**2, q),
    ])
    def test_a_float_q_is_refused_before_the_memo(self, call):
        hahn._gauss_q(2)  # 2.0 hashes like 2, so a float lookup would hit it
        before = hahn._gauss_q_context.cache_info()
        for q in (2.0, 0.5):
            with pytest.raises(TypeError):
                call(q)
        after = hahn._gauss_q_context.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_the_memo_evicts_at_its_bound(self):
        bound = hahn.GAUSS_Q_CONTEXTS
        first = hahn._gauss_q(F(1, 1000))
        for i in range(1, bound + 3):
            hahn._gauss_q(F(1, 1000 + i))
            assert hahn._gauss_q_context.cache_info().currsize <= bound
        assert hahn._gauss_q_context.cache_info().maxsize == bound
        assert hahn._gauss_q(F(1, 1000)) is not first

    def test_an_inadmissible_q_raises_again_on_a_second_call(self):
        for _ in range(2):
            with pytest.raises(AdmissibilityError, match=r"^q:-1: 2_psi = 0$"):
                q_derivative(X**2, -1)
            with pytest.raises(AdmissibilityError, match=r"^q:-1: 2_psi = 0$"):
                verify_jackson_inverse(X**3, -1)
        assert q_derivative(X, -1) == Polynomial.constant(1)  # 1_q = 1 is still fine

    def test_threads_sharing_the_contexts_agree_with_fresh_ones(self, monkeypatch):
        qs = sorted({q for q, _ in HAHN_GRID})
        Ns = [2, 5, 8, 11, 14, 17, 20, 24]
        z = F(-5, 3)
        with monkeypatch.context() as m:  # each call on a context of its own
            m.setattr(hahn, "_gauss_q", lambda q: PsiContext(AdmissibleSequence.gauss_q(q)))
            want_hahn = {(q, N): verify_hahn_reduction(HahnParams(q, F(7, 5)), N)
                         for q in qs for N in Ns}
            want_jackson = {(q, N): jackson_integral_exact((1 - X) ** N, q, z)
                            for q in qs for N in Ns}
        hahn._gauss_q_context.cache_clear()  # the threads grow the rows together
        bad, done = [], []

        def work(seed):
            order = [(q, N) for q in qs for N in Ns]
            random.Random(seed).shuffle(order)
            for q, N in order:
                if verify_hahn_reduction(HahnParams(q, F(7, 5)), N) != want_hahn[q, N]:
                    bad.append(("hahn", q, N))
                if jackson_integral_exact((1 - X) ** N, q, z) != want_jackson[q, N]:
                    bad.append(("jackson", q, N))
            done.append(seed)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == [] and sorted(done) == list(range(8))
