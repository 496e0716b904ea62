import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    antiderivative_power_one_short, assert_umbral_row, doubled_derivative, polynomials, rationals,
)
from psicalc import (
    AdmissibilityError,
    AdmissibleSequence,
    DomainError,
    LatticeFunction,
    Polynomial,
    bernoulli_identity_sweep,
    delta_pair,
    derivative_pair,
    divided_difference_zero,
    exp_poly,
    historical_divided_difference_sum,
    jackson_antiderivative,
    parse_poly,
    parse_psi_spec,
    psi_antiderivative,
    psi_definite_integral,
    psi_derivative,
    psi_exp,
    psi_pair,
    psi_power,
    q_derivative,
    star_psi,
    umbral_tilde,
    verify_bernoulli_identity,
    verify_commutator,
    verify_exp_addition,
    verify_fundamental_theorem,
    verify_historical_series,
    verify_leibniz,
    verify_per_partes,
    verify_telescoping,
    x_hat_psi,
    GhwPair,
    HahnParams,
    InternalError,
    PsiContext,
    backward_nabla,
    forward_difference,
    psi_bernoulli_taylor,
    verify_expansion,
    verify_hahn_reduction,
    verify_jackson_inverse,
)
from psicalc import expansions, hahn, operators, poly
from psicalc.operators import _sweep
from psicalc.sequences import PsiRows

X = Polynomial.x()
CLASSICAL = parse_psi_spec("classical")
FIB = parse_psi_spec("fib")
Q2 = parse_psi_spec("q:2")


class TestDerivative:
    def test_classical(self):
        assert psi_derivative(CLASSICAL, X**3) == 3 * X**2

    def test_fibonomial(self):
        assert psi_derivative(FIB, X**4) == 3 * X**3

    def test_gauss_q(self):
        assert psi_derivative(Q2, X**3 + X) == 7 * X**2 + 1

    def test_constants_vanish(self):
        assert psi_derivative(FIB, Polynomial.constant(F(5, 7))) == Polynomial.zero()


class TestXHat:
    def test_classical_is_multiplication(self):
        for n in range(10):
            assert x_hat_psi(CLASSICAL, Polynomial.monomial(n)) == Polynomial.monomial(n + 1)

    def test_on_one(self):
        assert x_hat_psi(Q2, Polynomial.constant(1)) == X

    def test_gauss_q_square(self):
        assert x_hat_psi(Q2, X**2) == F(3, 7) * X**3


class TestAntiderivative:
    def test_classical(self):
        assert psi_antiderivative(CLASSICAL, X**2) == X**3 / 3

    def test_gauss_q(self):
        assert psi_antiderivative(Q2, X**3) == X**4 / 15

    def test_fibonomial_one(self):
        assert psi_antiderivative(FIB, Polynomial.constant(1)) == X


class TestDefiniteIntegral:
    def test_classical(self):
        assert psi_definite_integral(CLASSICAL, X**2, 0, 1) == F(1, 3)

    def test_gauss_q(self):
        assert psi_definite_integral(Q2, X, 0, 1) == F(1, 3)

    def test_equal_endpoints(self):
        assert psi_definite_integral(FIB, X**4 - X, F(2, 3), F(2, 3)) == 0


class TestStarProduct:
    @given(polynomials(max_degree=5), polynomials(max_degree=5))
    def test_classical_reduces_to_product(self, f, g):
        assert star_psi(CLASSICAL, f, g) == f * g

    def test_fibonomial_example(self):
        assert star_psi(FIB, X**2, X) == 3 * X**3

    @given(polynomials(max_degree=5))
    def test_scalar_one_is_identity(self, g):
        assert star_psi(FIB, Polynomial.constant(1), g) == g

    def test_scalar_rule(self):
        # x * alpha = alpha / 1_psi * x for the deformed product
        alpha = F(5, 3)
        c = parse_psi_spec("custom:2,3")
        assert star_psi(c, X, Polynomial.constant(alpha)) == (alpha / 2) * X

    def test_power_product_rule(self):
        for ctx in (FIB, Q2):
            for n in range(6):
                for k in range(6):
                    lhs = star_psi(ctx, psi_power(ctx, n), psi_power(ctx, k))
                    scale = F(math.factorial(n)) / ctx.factorial(n)
                    assert lhs == scale * psi_power(ctx, n + k)

    def test_noncommutativity_witness(self):
        a = star_psi(FIB, psi_power(FIB, 2), psi_power(FIB, 1))
        b = star_psi(FIB, psi_power(FIB, 1), psi_power(FIB, 2))
        assert a == 6 * X**3
        assert b == 3 * X**3
        assert a != b


class TestPsiPower:
    def test_classical(self):
        assert psi_power(CLASSICAL, 7) == X**7

    def test_gauss_q(self):
        assert psi_power(Q2, 3) == F(2, 7) * X**3

    def test_fibonomial(self):
        assert psi_power(FIB, 4) == 4 * X**4

    def test_derivative_lowers(self):
        for ctx in (CLASSICAL, FIB, Q2):
            for n in range(1, 65):
                assert psi_derivative(ctx, psi_power(ctx, n)) == n * psi_power(ctx, n - 1)


class TestUmbralTilde:
    def test_classical_identity(self):
        assert umbral_tilde(CLASSICAL, X**3 - X) == X**3 - X

    def test_gauss_q(self):
        assert umbral_tilde(Q2, X**3) == psi_power(Q2, 3)

    def test_fibonomial(self):
        assert umbral_tilde(FIB, X**2 + 2 * X) == 2 * X**2 + 2 * X

    @given(polynomials(max_degree=6), polynomials(max_degree=6), rationals)
    def test_linear(self, f, g, c):
        lhs = umbral_tilde(FIB, f + c * g)
        assert lhs == umbral_tilde(FIB, f) + c * umbral_tilde(FIB, g)

    def test_composition_rule(self):
        # f(x_hat) g(x_hat) 1 == f * tilde(g)
        for f, g in [(X**2 + 1, X**3 - 2 * X), (3 * X, X**2)]:
            direct = star_psi(FIB, f, umbral_tilde(FIB, g))
            composed = star_psi(FIB, f, star_psi(FIB, g, Polynomial.constant(1)))
            assert direct == composed


class TestPsiExp:
    def test_classical(self):
        assert psi_exp(CLASSICAL, 1, 3) == exp_poly(1, 3)

    @given(alpha=rationals, N=st.integers(0, 40))
    @example(alpha=F(0), N=0)
    @example(alpha=F(-7, 3), N=40)
    def test_exp_poly_is_the_classical_psi_exp(self, alpha, N):
        # exp_poly builds no context; the series term by term is the oracle
        want = Polynomial([alpha**n / math.factorial(n) for n in range(N + 1)])
        assert exp_poly(alpha, N) == want == psi_exp(CLASSICAL, alpha, N)

    def test_exp_poly_refuses_floats_and_negative_orders(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            exp_poly(0.5, 3)
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            exp_poly(1, -1)

    def test_gauss_q(self):
        assert psi_exp(Q2, 1, 3) == Polynomial([1, 1, F(1, 3), F(1, 21)])

    def test_zero_argument(self):
        assert psi_exp(FIB, 0, 5) == Polynomial.constant(1)


class TestDividedDifference:
    def test_monomial(self):
        assert divided_difference_zero(X**3) == X**2

    def test_constant(self):
        assert divided_difference_zero(Polynomial.constant(5)) == Polynomial.zero()

    @given(polynomials())
    def test_equals_quotient(self, f):
        expected, rem = divmod(f - Polynomial.constant(f(0)), X)
        assert rem == Polynomial.zero()
        assert divided_difference_zero(f) == expected


class TestCommutator:
    def test_psi_pair_fibonomial(self):
        assert verify_commutator(psi_pair(FIB), 32).passed

    def test_delta_pair(self):
        assert verify_commutator(delta_pair(), 32).passed

    @given(polynomials(max_degree=20))
    def test_delta_raiser_is_x_times_the_backward_shift(self, f):
        assert delta_pair().raiser(f) == X * f.compose_affine(1, -1)

    def test_wrong_pair_fails(self):
        bad = GhwPair("D, 2x", lambda f: f.derivative(), lambda f: 2 * X * f)
        report = verify_commutator(bad, 2)
        assert not report.passed
        assert "m=0" in report.counterexample.inputs


class TestTelescoping:
    def test_classical(self):
        assert verify_telescoping(CLASSICAL, 3, X**5).passed

    @given(polynomials(max_degree=6))
    def test_order_zero(self, f):
        assert verify_telescoping(FIB, 0, f).passed

    def test_gauss_three_halves(self):
        f = Polynomial([F(1, 2), -2, 0, 3, F(-1, 3), 0, 1, F(2, 5), 1])
        assert verify_telescoping(parse_psi_spec("q:3/2"), 5, f).passed


class TestBernoulliIdentity:
    def test_classical_hand_case(self):
        assert verify_bernoulli_identity(derivative_pair(0), 1, X**3).passed

    def test_order_zero(self):
        for pair in (derivative_pair(1), delta_pair(), psi_pair(Q2)):
            assert verify_bernoulli_identity(pair, 0, X**4 - X).passed

    def test_psi_pair(self):
        assert verify_bernoulli_identity(psi_pair(FIB), 4, X**6).passed

    def test_sweep(self):
        assert bernoulli_identity_sweep(delta_pair(), 10, 6).passed


# negative factors with denominators other than 1: signs reach the lcm of
# the numerators that x_hat and the psi-antiderivative divide by
CUSTOM_SPEC = (
    "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,-11/2,6,-13/7,1/3,"
    "-8,15/4,-2/11,7/6,-9/10,12,-5/8,17/3,-1/6,2"
)


def _realisations():
    """The nine built-in realisations, the psi pairs of q:-2/3 and of
    CUSTOM_SPEC (negative and non-integer factors), and (D + 1, x), a
    valid pair whose lower image of x^m keeps x^m."""
    pairs = [derivative_pair(y) for y in (0, 1, -2)] + [delta_pair()]
    specs = ("classical", "q:2", "q:1/2", "q:3/2", "fib", "q:-2/3", CUSTOM_SPEC)
    pairs += [psi_pair(parse_psi_spec(s)) for s in specs]
    return pairs + [GhwPair("D+1, x", lambda f: f.derivative() + f, lambda f: X * f)]


# Pairs that break the identity at one degree only; the expected reports
# are those of the sweep that rebuilt (-q)^n p^(n+1) x^m from scratch.
BROKEN_PAIRS = [
    (
        GhwPair("D, bad x", lambda f: f.derivative(),
                lambda f: X * f + (X**6 if f.degree == 5 else 0)),
        "bernoulli [pair=D, bad x, m<=10, n<=6] cases=44 FAIL\n"
        "  at m=6, n=1: lhs=-36*x^5 rhs=-30*x^5",
    ),
    (
        GhwPair("bad D, x", lambda f: f.derivative() + (1 if f.degree == 4 else 0),
                lambda f: X * f),
        "bernoulli [pair=bad D, x, m<=10, n<=6] cases=31 FAIL\n"
        "  at m=4, n=2: lhs=24*x^3 - 1 rhs=24*x^3",
    ),
]


class TestBernoulliSweep:
    """The tabulated sweep against the direct operator composition of
    verify_bernoulli_identity, which shares no table with it."""

    @pytest.mark.parametrize(
        "pair", _realisations() + [p for p, _ in BROKEN_PAIRS], ids=lambda p: p.name
    )
    def test_agrees_with_direct_verifier(self, pair):
        M, N = 7, 4
        direct = [
            (m, n)
            for m in range(M + 1)
            for n in range(N + 1)
            if not verify_bernoulli_identity(pair, n, X**m).passed
        ]
        assert bernoulli_identity_sweep(pair, M, N).passed == (not direct)

    @pytest.mark.parametrize("pair, text", BROKEN_PAIRS, ids=["bad-raiser", "bad-lower"])
    def test_first_counterexample_text(self, pair, text):
        assert str(bernoulli_identity_sweep(pair, 10, 6)) == text

    def test_degree_raising_lower_is_a_domain_error(self):
        pair = GhwPair("x, D", lambda f: X * f, lambda f: f.derivative())
        with pytest.raises(DomainError, match=r"x, D.*x\^0"):
            bernoulli_identity_sweep(pair, 3, 2)

    @pytest.mark.parametrize("pair", [derivative_pair(1), delta_pair(), psi_pair(FIB)],
                             ids=lambda p: p.name)
    def test_call_counts(self, pair):
        calls = {"lower": 0, "raiser": 0}

        def counted(name, op):
            def wrapper(f):
                calls[name] += 1
                return op(f)
            return wrapper

        counting = GhwPair(pair.name, counted("lower", pair.lower), counted("raiser", pair.raiser))
        M, N = 9, 5
        assert bernoulli_identity_sweep(counting, M, N).passed
        # one lower call per case plus one for p x^m; one raiser call per
        # case except the last order of each monomial, whose T(m, N+1) no
        # case reads
        assert calls == {"lower": (M + 1) * (N + 2), "raiser": (M + 1) * N}


def _lower_doubled_at_x5(pair):
    """pair with the image of the x^5 term doubled: a one-term input
    still has a one-term image."""
    lower = pair.lower
    return GhwPair(f"{pair.name}, lower doubled at x^5",
                   lambda f: lower(f) + lower(Polynomial.monomial(5, f.coeff(5))), pair.raiser)


def _lower_plus_one_from_x5(pair):
    """pair with lower(x^m) + 1 for m >= 5: those images leave the
    one-term shape."""
    lower = pair.lower
    return GhwPair(f"{pair.name}, lower + 1 from x^5",
                   lambda f: lower(f) + sum(f.coeffs[5:]), pair.raiser)


# One-term pairs broken in both ways.  The breaks are linear, since the
# Bernoulli sweep builds its right sides by linearity, so the direct
# verifiers stay exact oracles for the cases the sweeps settle.
SETTLED_PAIRS = [psi_pair(FIB), psi_pair(parse_psi_spec("q:3/2")), derivative_pair(0)]
BROKEN_ONE_TERM_PAIRS = [
    breaker(pair) for pair in SETTLED_PAIRS
    for breaker in (_lower_doubled_at_x5, _lower_plus_one_from_x5)
]


class TestOneTermSettle:
    """The cases the commutator and Bernoulli sweeps settle on one
    coefficient comparison, against per-case computations that share no
    code with the settle."""

    @pytest.mark.parametrize("pair", SETTLED_PAIRS + BROKEN_ONE_TERM_PAIRS,
                             ids=lambda p: p.name)
    def test_commutator_against_each_m(self, pair):
        N = 8
        report = verify_commutator(pair, N)
        for m in range(N + 1):
            xm = X**m
            lhs = pair.lower(pair.raiser(xm)) - pair.raiser(pair.lower(xm))
            if lhs != xm:
                assert report.cases == m + 1
                ce = report.counterexample
                assert (ce.inputs, ce.lhs, ce.rhs) == (f"m={m}", str(lhs), str(xm))
                break
        else:
            assert report.passed and report.cases == N + 1
        assert report.passed == (pair in SETTLED_PAIRS)

    @pytest.mark.parametrize("pair", BROKEN_ONE_TERM_PAIRS, ids=lambda p: p.name)
    def test_bernoulli_sweep_stops_where_the_direct_verifier_first_fails(self, pair):
        M, N = 12, 6
        m, n, direct = next(
            (m, n, report) for m in range(M + 1) for n in range(N + 1)
            if not (report := verify_bernoulli_identity(pair, n, X**m)).passed
        )
        report = bernoulli_identity_sweep(pair, M, N)
        assert report.cases == m * (N + 1) + n + 1
        # the sweep scales both sides by n!
        scale, ce = math.factorial(n), report.counterexample
        assert ce.inputs == f"m={m}, n={n}"
        assert ce.lhs == str(scale * parse_poly(direct.counterexample.lhs))
        assert ce.rhs == str(scale * parse_poly(direct.counterexample.rhs))

    @pytest.mark.parametrize("pair", [psi_pair(FIB), derivative_pair(0)], ids=lambda p: p.name)
    def test_bernoulli_reads_at_most_two_terms_per_case(self, pair, monkeypatch):
        # S_(n-1)'s numerator at x^m is kept from the term that made it, and
        # each image is read once per order, so a case reads T(m, n) and p S_n
        calls = _counted(monkeypatch, "_one_term")
        M, N = 9, 5
        report = bernoulli_identity_sweep(pair, M, N)
        assert report.passed and report.cases == (M + 1) * (N + 1)
        assert len(calls) <= 2 * report.cases


def _delta_pair(name, k=1, raiser_break=None, lower_break=None):
    """(Delta/k, k x E^-1) on `poly`'s kernels, with an optional term
    added to the raiser's or the lower operator's image."""
    return GhwPair(
        name,
        lambda f: poly._difference(f, 1) / k + (lower_break(f) if lower_break else 0),
        lambda f: k * poly._x_shift_back(f) + (raiser_break(f) if raiser_break else 0))


# (f(x + 1/2) - f(x), 2x f(x - 1/2)): Delta conjugated by x -> 2x, whose
# images T(j, n) have denominators, so the packed column's lcm L is not 1
HALF_STEP_PAIR = GhwPair("Delta_1/2, 2x*E^-1/2", lambda f: f.compose_affine(1, F(1, 2)) - f,
                         lambda f: 2 * X * f.compose_affine(1, F(-1, 2)))

# Reports of the sweep at (10, 6) with every several-term right side built
# by `_combine`; the packed route prints them unchanged
PINNED_DELTA_REPORTS = [
    (_delta_pair("Delta, bad x*E^-1", raiser_break=lambda f: X**6 if f.degree == 5 else 0),
     "bernoulli [pair=Delta, bad x*E^-1, m<=10, n<=6] cases=44 FAIL\n"
     "  at m=6, n=1: lhs=-36*x^5 - 15*x^4 - 50*x^3 - 15*x^2 - 8*x - 1 "
     "rhs=-30*x^5 - 30*x^3 - 2*x"),
    (_delta_pair("bad Delta, x*E^-1", lower_break=lambda f: sum(f.coeffs[5:])),
     "bernoulli [pair=bad Delta, x*E^-1, m<=10, n<=6] cases=37 FAIL\n"
     "  at m=5, n=1: lhs=-20*x^4 - 10*x^2 - 5 rhs=-20*x^4 - 10*x^2"),
    # the parts p x^m have denominator 2
    (_delta_pair("Delta/2, 2x*E^-1", k=2),
     "bernoulli [pair=Delta/2, 2x*E^-1, m<=10, n<=6] cases=77 PASS"),
    (_delta_pair("Delta/3, bad 3x*E^-1", k=3,
                 raiser_break=lambda f: X**7 / 5 if f.degree == 6 else 0),
     "bernoulli [pair=Delta/3, bad 3x*E^-1, m<=10, n<=6] cases=51 FAIL\n"
     "  at m=7, n=1: lhs=-217/15*x^6 - 7/5*x^5 - 77/3*x^4 - 7/3*x^3 - 91/15*x^2 - 7/15*x"
     " - 1/15 rhs=-14*x^6 - 70/3*x^4 - 14/3*x^2"),
]


def _recorded_columns(monkeypatch):
    """The (w, L) of every column the Bernoulli sweep packs, in order."""
    recorded, column = [], operators._packed_column

    def record(images, bits):
        packed = column(images, bits)
        recorded.append(packed[:2])
        return packed

    monkeypatch.setattr(operators, "_packed_column", record)
    return recorded


def _counted(monkeypatch, name):
    """A list that grows by one at each call of operators.<name>."""
    calls, op = [], getattr(operators, name)
    monkeypatch.setattr(operators, name, lambda *a: calls.append(a) or op(*a))
    return calls


def _built_right_sides(monkeypatch):
    """A list that grows by one at each `_combine` of a several-term
    right side; the zero image p x^0 makes an empty one."""
    built, combine = [], operators._combine
    monkeypatch.setattr(operators, "_combine",
                        lambda pairs, den=1: (pairs and built.append(pairs)) or combine(pairs, den))
    return built


def _exact_only(monkeypatch):
    """Every column packed at width 0, so that no case is within it and
    every several-term right side is built by `_combine`."""
    column = operators._packed_column
    monkeypatch.setattr(operators, "_packed_column",
                        lambda images, bits: (0, *column(images, bits)[1:]))


def _lower_scaled_at(pair, M, last):
    """pair with the lower image of x^M alone scaled by last, linearly."""
    lower = pair.lower
    return GhwPair(f"{pair.name}, lower image of x^{M} scaled",
                   lambda f: lower(f) + (last - 1) * lower(Polynomial.monomial(M, f.coeff(M))),
                   pair.raiser)


class TestPackedBernoulliSettle:
    """The Bernoulli sweep's cases whose lower image p x^m has several
    terms, settled on one comparison of values packed at X = 2^w."""

    @pytest.mark.parametrize("pair, text", PINNED_DELTA_REPORTS,
                             ids=[p.name for p, _ in PINNED_DELTA_REPORTS])
    def test_pinned_reports(self, monkeypatch, pair, text):
        assert str(bernoulli_identity_sweep(pair, 10, 6)) == text
        _exact_only(monkeypatch)
        assert str(bernoulli_identity_sweep(pair, 10, 6)) == text

    @pytest.mark.parametrize("pair", [delta_pair(), PINNED_DELTA_REPORTS[2][0], HALF_STEP_PAIR],
                             ids=lambda p: p.name)
    def test_the_width_holds_every_digit_of_both_sides(self, monkeypatch, pair):
        # both sides of a case (m, n) are p S_n times den L and
        # sum_j c_j T(j, n) L times the denominator of p S_n, built here
        # from the operators composed directly; each coefficient must be a
        # balanced base-2^w digit, also when the lower image of x^M alone
        # is scaled past all the others
        M, N = 10, 6
        recorded = _recorded_columns(monkeypatch)
        for last in (1, 10**40, F(1, 10**40)):
            scaled = _lower_scaled_at(pair, M, last)
            recorded.clear()
            report = bernoulli_identity_sweep(scaled, M, N)
            assert report.passed == (last == 1)
            assert len(recorded) == N + 1
            if last == 1:
                assert any(L != 1 for _, L in recorded) == (pair is HALF_STEP_PAIR)
            T = {}
            for j in range(M + 1):
                f = X**j
                for n in range(N + 1):
                    g = f
                    for _ in range(n):
                        g = -scaled.raiser(g)
                    T[j, n] = g
                    f = scaled.lower(f)
            cases = [(m, n) for m in range(M + 1) for n in range(N + 1)]
            for m, n in cases[: report.cases - (not report.passed)]:  # the passing ones
                part = scaled.lower(X**m)
                if sum(1 for c in part.coeffs if c) < 2:
                    continue
                w, L = recorded[n]
                den = part._den
                lhs = scaled.lower(sum((F(math.factorial(n), math.factorial(k)) * T[m, k]
                                        for k in range(n + 1)), Polynomial()))
                rhs = sum((c * T[j, n] for j, c in enumerate(part.coeffs)), Polynomial())
                rhs *= den * L
                assert rhs._den == 1
                for side in ([v * den * L for v in lhs._num], [v * lhs._den for v in rhs._num]):
                    assert all(-(1 << (w - 1)) <= v < 1 << (w - 1) for v in side), (last, m, n)

    @pytest.mark.parametrize("wrong", [
        lambda f, w: f * 10**40,
        lambda f, w: f / 10**40,
        # 2^w - x added: the same value at X = 2^w, one coefficient past
        # the width
        lambda f, w: f + (1 << w) - X,
        # over D = 2^w + 1, with numerators the balanced base-2^w digits of
        # D f(2^w): the left side's digits hold, but those of the right
        # side, f D, do not
        lambda f, w: poly._canonical(poly._unpack(poly._pack(f._num, w) * ((1 << w) + 1), w,
                                                  len(f._num) + 2), (1 << w) + 1),
    ], ids=["numerator", "denominator", "colliding numerator", "colliding denominator"])
    def test_a_left_side_past_the_width_takes_the_exact_path(self, monkeypatch, wrong):
        # p S_1 at x^5 made wrong, while p x^5, a part of the width, is not
        recorded = _recorded_columns(monkeypatch)

        def lower(f):
            image = poly._difference(f, 1)
            if f.degree == 5 and any(f.coeffs[:5]) and len(recorded) == 2:
                return wrong(image, recorded[-1][0])
            return image

        built = _built_right_sides(monkeypatch)
        report = bernoulli_identity_sweep(GhwPair("Delta, wrong at x^5", lower, poly._x_shift_back),
                                          10, 6)
        S1 = X**5 - poly._x_shift_back(poly._difference(X**5, 1))
        ce = report.counterexample
        assert (report.cases, ce.inputs, len(built)) == (37, "m=5, n=1", 1)
        assert parse_poly(ce.rhs) == poly._difference(S1, 1)
        assert parse_poly(ce.lhs) == wrong(parse_poly(ce.rhs), recorded[1][0])

    def test_every_several_term_case_is_packed_or_built(self, monkeypatch):
        # Delta at (10, 6): the cases m >= 2 of every order
        built = _built_right_sides(monkeypatch)
        assert bernoulli_identity_sweep(delta_pair(), 10, 6).passed and built == []
        _exact_only(monkeypatch)
        assert bernoulli_identity_sweep(delta_pair(), 10, 6).passed
        assert len(built) == 9 * 7

    def test_packed_sides_that_differ_where_the_exact_sides_agree(self, monkeypatch):
        # every packed value one too large: at the first several-term case,
        # p x^2 = 2x + 1 at n = 0, the packed sides differ by 2
        monkeypatch.setattr(operators, "_pack", lambda cs, w: poly._pack(cs, w) + 1)
        with pytest.raises(InternalError, match="^bernoulli at m=2, n=0: packed sides differ"):
            bernoulli_identity_sweep(delta_pair(), 10, 6)

    @pytest.mark.parametrize("pair", [psi_pair(parse_psi_spec(s)) for s in (
        "classical", "fib", "q:3/2", "q:-2/3", CUSTOM_SPEC)] + [
        derivative_pair(y) for y in (0, 1, -2)] + [delta_pair()], ids=lambda p: p.name)
    def test_nothing_is_packed_without_a_several_term_image(self, monkeypatch, pair):
        # a zero or one-term p x^m (every psi and derivative pair, and
        # Delta up to x^1) takes its own route; packing a column for it
        # would only cost time
        packs = _counted(monkeypatch, "_pack")
        M = 1 if pair.name.startswith("Delta") else 16
        assert bernoulli_identity_sweep(pair, M, 8).passed and packs == []
        if M == 1:
            assert bernoulli_identity_sweep(pair, 2, 8).passed and packs


def _raiser_broken_at(pair, name, at, extra):
    """pair with raiser(f) + extra(raiser(f)) for f == at alone: a break
    that one commutator case sees, x^5 in a = lower(raiser(x^5)) or 5x^4
    in b = raiser(lower(x^5))."""
    raiser = pair.raiser
    return GhwPair(f"{pair.name}, {name}", pair.lower,
                   lambda f: raiser(f) + extra(raiser(f)) if f == at else raiser(f))


# Dense pairs broken at m = 5 only, each so that one check of the
# commutator's settle alone tells the case from a pass: with a and b as in
# `verify_commutator`, D, x-(1) has a = 6x^5 - 5x^4 and b = 5x^5 - 5x^4
BROKEN_DENSE_PAIRS = [
    # a gains 5x^4: the numerators differ just below x^m
    _raiser_broken_at(derivative_pair(1), "a moved below x^m", X**5, lambda g: X**5),
    # a gains x^5: a - b = 2x^m
    _raiser_broken_at(derivative_pair(1), "a - b = 2x^m", X**5, lambda g: X**6 / 6),
    # a gains 7x^6, above x^m
    _raiser_broken_at(derivative_pair(1), "a past x^m", X**5, lambda g: X**7),
    # b gains x^6, above x^m
    _raiser_broken_at(derivative_pair(1), "b past x^m", 5 * X**4, lambda g: X**6),
    # b = (5x^5 - 5x^4) / 2: its numerators are those of a pass, over 2
    _raiser_broken_at(derivative_pair(1), "b over 2", 5 * X**4, lambda g: -g / 2),
]
SETTLED_DENSE_PAIRS = [derivative_pair(1), derivative_pair(-2), derivative_pair(F(1, 2)),
                       derivative_pair(F(-7, 3)), delta_pair(), HALF_STEP_PAIR]


class TestCommutatorSettle:
    """The commutator cases settled on their numerators, against per-case
    computations of a - b that share no code with the settle."""

    @pytest.mark.parametrize("pair", SETTLED_DENSE_PAIRS + BROKEN_DENSE_PAIRS,
                             ids=lambda p: p.name)
    def test_against_each_m(self, pair):
        N = 8
        report = verify_commutator(pair, N)
        for m in range(N + 1):
            xm = X**m
            lhs = pair.lower(pair.raiser(xm)) - pair.raiser(pair.lower(xm))
            if lhs != xm:
                assert report.cases == m + 1
                ce = report.counterexample
                assert (ce.inputs, ce.lhs, ce.rhs) == (f"m={m}", str(lhs), str(xm))
                break
        else:
            assert report.passed and report.cases == N + 1
        assert report.passed == (pair in SETTLED_DENSE_PAIRS)
        assert report.passed or report.cases == 6

    @pytest.mark.parametrize("pair", SETTLED_DENSE_PAIRS + SETTLED_PAIRS, ids=lambda p: p.name)
    def test_every_passing_case_is_settled(self, pair):
        assert set(operators._commutator_cases(pair.lower, pair.raiser, 24)) == {None}

    @pytest.mark.parametrize("pair", _realisations(), ids=lambda p: p.name)
    def test_a_passing_case_has_one_denominator(self, pair):
        for m in range(13):
            xm = X**m
            a, b = pair.lower(pair.raiser(xm)), pair.raiser(pair.lower(xm))
            assert a - b == xm
            assert a._den == b._den


class TestLeibniz:
    @given(polynomials(max_degree=5), polynomials(max_degree=5))
    def test_classical(self, f, g):
        assert verify_leibniz(CLASSICAL, f, g).passed

    def test_fibonomial(self):
        assert verify_leibniz(FIB, X**2, X**3).passed

    def test_gauss_q(self):
        assert verify_leibniz(Q2, X + 1, X**2).passed


class TestExpAddition:
    def test_zero_beta(self):
        assert verify_exp_addition(FIB, F(3, 2), 0, 12).passed

    def test_fibonomial_top_coefficient(self):
        N = 16
        lhs = star_psi(FIB, exp_poly(1, N), psi_exp(FIB, 1, N))
        assert lhs.coeff(N) == F(2**N) / FIB.factorial(N)
        assert verify_exp_addition(FIB, 1, 1, N).passed

    def test_classical_rationals(self):
        assert verify_exp_addition(CLASSICAL, F(1, 2), F(1, 3), 12).passed


class TestPerPartes:
    def test_classical(self):
        assert verify_per_partes(CLASSICAL, X, X**2, 0, 1).passed

    def test_gauss_q(self):
        assert verify_per_partes(Q2, X, X**2, 0, 1).passed

    def test_equal_endpoints(self):
        assert verify_per_partes(FIB, X**2 + 1, X**3, F(1, 2), F(1, 2)).passed


class TestFundamentalTheorem:
    def test_classical(self):
        assert verify_fundamental_theorem(CLASSICAL, X**4 - X).passed

    @given(polynomials(max_degree=10))
    def test_fibonomial(self, f):
        assert verify_fundamental_theorem(FIB, f).passed

    def test_zero(self):
        assert verify_fundamental_theorem(Q2, Polynomial.zero()).passed


class TestHistoricalSeries:
    def test_linear(self):
        assert verify_historical_series(X).passed

    def test_quadratic(self):
        assert verify_historical_series(X**2).passed

    def test_constant(self):
        assert verify_historical_series(Polynomial.constant(F(-7, 3))).passed

    @given(polynomials())
    def test_general(self, f):
        assert verify_historical_series(f).passed

    def test_unsigned_variant_fails_at_square(self):
        unsigned = historical_divided_difference_sum(X**2, signed=False)
        assert unsigned == 3 * X
        assert unsigned != divided_difference_zero(X**2)


class TestGhwInvariant:
    def test_all_contexts_to_64(self):
        for spec in ("classical", "q:2", "q:1/2", "q:3/2", "fib"):
            assert verify_commutator(psi_pair(parse_psi_spec(spec)), 64).passed


BUILTIN_SPECS = ("classical", "q:2", "q:1/2", "q:3/2", "fib")
SPARSE_SPECS = BUILTIN_SPECS + ("q:-2/3", CUSTOM_SPEC)


def _definition_factor(spec: str, n: int) -> F:
    """n_psi straight from the sequence's definition, without PsiContext."""
    if spec.startswith("custom:"):
        return F(spec[len("custom:"):].split(",")[n - 1])
    if spec == "fib":
        a, b = 1, 1
        for _ in range(n - 1):
            a, b = b, a + b
        return F(a)
    q = _gauss_q(spec)
    return F(n) if q == 1 else (1 - q**n) / (1 - q)


def _gauss_q(spec: str) -> F:
    return F(1) if spec == "classical" else F(spec[2:])


def _scaled_monomial(c: F, degree: int) -> tuple:
    """Coefficient tuple of c x^degree; the zero polynomial below degree 0."""
    return tuple([F(0)] * degree + [c]) if degree >= 0 else ()


class TestDiagonalOperatorsOracle:
    """Each operator of shape x^n -> w x^(n+-1) (or the umbral scaling,
    which keeps the degree) against its closed form on c x^n."""

    @given(
        st.sampled_from(SPARSE_SPECS),
        st.integers(min_value=0, max_value=20),
        rationals.filter(lambda c: c != 0),
        st.integers(min_value=1, max_value=3),
    )
    def test_monomial_images(self, spec, n, c, k):
        # the k-th powers against the run r(m) = (m+1)_psi ... (m+k)_psi of
        # the definition; CUSTOM_SPEC has 21 factors, so x_hat^k needs n + k <= 21
        assume(spec != CUSTOM_SPEC or n + k <= 21)
        ctx = parse_psi_spec(spec)
        f = Polynomial.monomial(n, c)
        w = lambda j: _definition_factor(spec, j)
        run = lambda m: math.prod((w(j) for j in range(m + 1, m + k + 1)), start=F(1))
        w_factorial = math.prod((w(j) for j in range(1, n + 1)), start=F(1))
        cases = [
            ("psi_derivative", psi_derivative(ctx, f, k), n - k, c * run(n - k) if n >= k else 0),
            ("x_hat_psi", x_hat_psi(ctx, f, k), n + k, c * math.perm(n + k, k) / run(n)),
            ("psi_antiderivative", psi_antiderivative(ctx, f, k), n + k, c / run(n)),
            ("umbral_tilde", umbral_tilde(ctx, f), n, c * math.factorial(n) / w_factorial),
            ("derivative", f.derivative(k), n - k, c * math.perm(n, k)),
            ("antiderivative", f.antiderivative(), n + 1, c / (n + 1)),
        ]
        if spec == "classical" or spec.startswith("q:"):
            q = _gauss_q(spec)
            cases += [
                ("q_derivative", q_derivative(f, q), n - 1, c * w(n) if n else 0),
                ("jackson_antiderivative", jackson_antiderivative(f, q), n + 1, c / w(n + 1)),
            ]
        for name, image, degree, coeff in cases:
            assert image.coeffs == _scaled_monomial(F(coeff), degree), (name, k)

    def test_one_term_signs(self):
        # a negative factor is a negative divisor of the raising images
        ctx = parse_psi_spec("custom:-2/3")
        one = Polynomial.constant(1)
        assert x_hat_psi(ctx, one) == F(-3, 2) * X
        assert psi_antiderivative(ctx, one) == F(-3, 2) * X
        assert psi_derivative(ctx, X) == Polynomial.constant(F(-2, 3))

    @pytest.mark.parametrize("spec", SPARSE_SPECS, ids=[*BUILTIN_SPECS, "q:-2/3", "custom"])
    @given(f=polynomials(max_degree=20))
    def test_polynomial_images(self, spec, f):
        ctx = parse_psi_spec(spec)
        cs = f.coeffs
        w = lambda k: _definition_factor(spec, k)
        w_factorial = lambda n: math.prod((w(k) for k in range(1, n + 1)), start=F(1))
        lowered = lambda w: [c * w(k) for k, c in enumerate(cs) if k]
        raised = lambda w: [0] + [c * w(n + 1) for n, c in enumerate(cs)]
        cases = [
            ("psi_derivative", psi_derivative(ctx, f), lowered(w)),
            ("x_hat_psi", x_hat_psi(ctx, f), raised(lambda k: k / w(k))),
            ("psi_antiderivative", psi_antiderivative(ctx, f), raised(lambda k: 1 / w(k))),
            ("umbral_tilde", umbral_tilde(ctx, f),
             [c * math.factorial(n) / w_factorial(n) for n, c in enumerate(cs)]),
            ("derivative", f.derivative(), lowered(lambda k: k)),
            ("antiderivative", f.antiderivative(), raised(lambda k: F(1, k))),
        ]
        if spec in BUILTIN_SPECS and spec != "fib":
            q = _gauss_q(spec)
            cases += [
                ("q_derivative", q_derivative(f, q), cases[0][2]),
                ("jackson_antiderivative", jackson_antiderivative(f, q), cases[2][2]),
            ]
        for name, image, coeffs in cases:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert image.coeffs == tuple(map(F, coeffs)), name

    @pytest.mark.parametrize("spec", SPARSE_SPECS, ids=[*BUILTIN_SPECS, "q:-2/3", "custom"])
    @given(data=st.data(), k=st.integers(min_value=1, max_value=3))
    def test_sparse_inputs_at_high_degree(self, spec, data, k):
        # 1-3 nonzero terms up to degree 64, so both the one-term and the
        # several-term path: the images must be those of the definition;
        # CUSTOM_SPEC has 21 factors, so its degrees stop where x_hat^k
        # still finds one
        top = 21 - k if spec == CUSTOM_SPEC else 64
        terms = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=top), rationals.filter(bool),
            min_size=1, max_size=3))
        ctx = parse_psi_spec(spec)
        f = Polynomial([terms.get(n, 0) for n in range(max(terms) + 1)])
        w = lambda n: _definition_factor(spec, n)
        # r(m) = (m+1)_psi ... (m+k)_psi
        run = lambda m: math.prod((w(j) for j in range(m + 1, m + k + 1)), start=F(1))
        cases = [
            (psi_derivative, {n - k: c * run(n - k) for n, c in terms.items() if n >= k}),
            (psi_antiderivative, {n + k: c / run(n) for n, c in terms.items()}),
            (x_hat_psi, {n + k: c * math.perm(n + k, k) / run(n) for n, c in terms.items()}),
        ]
        for op, image in cases:
            coeffs = [F(image.get(n, 0)) for n in range(max(image, default=-1) + 1)]
            assert op(ctx, f, k).coeffs == tuple(coeffs), (op.__name__, k)

    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi, umbral_tilde])
    def test_zero_factor_error_is_unchanged(self, op):
        ctx = parse_psi_spec("custom:1,0,2")
        for f in (X**3, X**3 + X):  # a one-term and a dense input
            with pytest.raises(AdmissibilityError) as exc:
                op(ctx, f)
            assert str(exc.value) == "custom:1,0,2: 2_psi = 0"
            with pytest.raises(AdmissibilityError):
                op(ctx, f)  # raised again, not hidden by the rows kept so far
        assert psi_derivative(ctx, X) == Polynomial.constant(1)
        assert x_hat_psi(ctx, Polynomial.constant(1)) == X

    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi, umbral_tilde])
    def test_missing_factor_error_is_unchanged(self, op):
        ctx = parse_psi_spec("custom:1,2")
        for f in (X**5, X**5 + X):  # a one-term and a dense input
            with pytest.raises(DomainError) as exc:
                op(ctx, f)
            assert str(exc.value) == "custom sequence has 2 factors, index 3 requested"
        assert psi_derivative(ctx, X**2) == 2 * X


class TestSharedContextRows:
    def test_threads_growing_one_context(self):
        degrees = range(65)

        def images(ctx, order):
            xs = {n: Polynomial.monomial(n) for n in order}
            return {n: (x_hat_psi(ctx, xn), psi_derivative(ctx, xn)) for n, xn in xs.items()}

        reference = images(parse_psi_spec("q:3/2"), degrees)
        shared = parse_psi_spec("q:3/2")
        results, errors = {}, []

        def worker(seed):
            order = list(degrees)
            random.Random(seed).shuffle(order)
            try:
                results[seed] = images(shared, order)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(results[seed] == reference for seed in range(8))


def _outcome(thunk):
    """The value of thunk(), or the type and text of what it raised."""
    try:
        return thunk()
    except (AdmissibilityError, DomainError) as exc:
        return type(exc), str(exc)


def _repeated(op, f, k):
    for _ in range(k):
        f = op(f)
    return f


class TestRowReadParity:
    """`_psi_power` reads the context's row snapshot itself and calls
    `ctx.rows(top)` only when the snapshot is shorter than top.  On a
    context short of top, fresh or grown part way, each operator raises
    what that call raises, or nothing, and leaves the same rows."""

    SPEC = "custom:1,2,3"  # 4_psi and beyond are missing

    @pytest.mark.parametrize("grown", [0, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("op, raising", [(psi_derivative, False), (x_hat_psi, True),
                                             (psi_antiderivative, True)],
                             ids=["derivative", "x_hat", "antiderivative"])
    def test_errors_and_rows_match_a_rows_call(self, op, raising, k, grown):
        for f in (Polynomial.constant(3), X**2, X**3 / 5, X**4, X**4 + X, (1 + X)**5):
            top = f.degree + k if raising else f.degree
            ctx, ref = parse_psi_spec(self.SPEC), parse_psi_spec(self.SPEC)
            ctx.rows(grown)
            ref.rows(grown)
            want, got = _outcome(lambda: ref.rows(top)), _outcome(lambda: op(ctx, f, k))
            if not isinstance(want, PsiRows):  # the type and text rows raised
                assert got == want, (str(f), top)
            else:
                assert isinstance(got, Polynomial), (str(f), top, got)
            assert ctx._rows == ref._rows, (str(f), top)
            assert_umbral_row(ctx._rows)


class TestOperatorPowers:
    """Each k-th power, made in one pass, against k single applications.
    Both are the same `_psi_power` body, so this pins consistency only;
    `TestPowersAndExpOracle` checks the values."""

    @pytest.mark.parametrize(
        "spec", BUILTIN_SPECS + (CUSTOM_SPEC,), ids=[*BUILTIN_SPECS, "custom"]
    )
    @given(f=polynomials(max_degree=12))
    def test_power_is_k_single_steps(self, spec, f):
        ctx = parse_psi_spec(spec)
        powers = [
            (op.__name__, lambda g, k, op=op: op(ctx, g, k))
            for op in (psi_derivative, x_hat_psi, psi_antiderivative)
        ] + [("derivative", Polynomial.derivative)]
        for name, power in powers:
            steps = f  # k single steps
            for k in range(9):
                assert power(f, k) == steps, (name, k)
                steps = power(steps, 1)

    @pytest.mark.parametrize("spec", ["custom:1,0,2", "custom:1,2", "custom:3/2,-1/2"])
    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi])
    def test_errors_match_single_steps(self, spec, op):
        # a zero factor, a missing one, and the last factor given: the
        # power raises exactly when, and what, its first bad step raises
        for f in (Polynomial(), Polynomial.constant(5), X, X**2 + 1, X**3, X**4):
            for k in range(5):
                power = _outcome(lambda: op(parse_psi_spec(spec), f, k))
                steps = _outcome(lambda: _repeated(lambda g: op(parse_psi_spec(spec), g), f, k))
                assert power == steps, (str(f), k)

    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi])
    def test_negative_power_is_refused(self, op):
        with pytest.raises(ValueError):
            op(CLASSICAL, X**2, -1)
        with pytest.raises(ValueError):
            (X**2).derivative(-1)

    def test_closed_forms_on_a_monomial(self):
        # x^5 on fib (1, 1, 2, 3, 5, 8, 13): 5_psi!/3_psi! = 15, and
        # x_hat^2 x^5 = (7!/5!) (5_psi!/7_psi!) x^7 = 42/104 x^7
        assert psi_derivative(FIB, X**5, 2) == 15 * X**3
        assert psi_antiderivative(FIB, X**5, 2) == X**7 / 104
        assert x_hat_psi(FIB, X**5, 2) == F(42, 104) * X**7
        assert (X**5).derivative(3) == 60 * X**2
        assert (X**2).derivative(3) == Polynomial()


# unit numerators, some negative: a raising power divides by runs of lcm 1
# that may still be -1
RECIPROCAL_SPEC = "custom:1,-1/2,1/3,-1,1/5,-1/6,-1/7,1/8,1,-1/10,1/11,-1/12,1/13,-1/14"
ORACLE_SPECS = BUILTIN_SPECS + (CUSTOM_SPEC, RECIPROCAL_SPEC)
ORACLE_IDS = [*BUILTIN_SPECS, "custom", "reciprocal"]


class TestPowersAndExpOracle:
    """The k-th operator powers and psi_exp against products of the
    definition factors, never against the `PsiRows` they are read from."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
    @given(f=polynomials(max_degree=10), k=st.integers(min_value=0, max_value=4))
    def test_powers(self, spec, f, k):
        ctx = parse_psi_spec(spec)
        w = lambda n: _definition_factor(spec, n)
        # r(m) = (m+1)_psi ... (m+k)_psi
        run = lambda m: math.prod((w(j) for j in range(m + 1, m + k + 1)), start=F(1))
        cs = f.coeffs
        cases = [
            (psi_derivative, [c * run(n - k) for n, c in enumerate(cs) if n >= k]),
            (psi_antiderivative, [0] * k + [c / run(n) for n, c in enumerate(cs)]),
            (x_hat_psi, [0] * k + [c * math.perm(n + k, k) / run(n) for n, c in enumerate(cs)]),
        ]
        for op, coeffs in cases:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert op(ctx, f, k).coeffs == tuple(map(F, coeffs)), (op.__name__, k)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
    @given(alpha=rationals, N=st.integers(min_value=0, max_value=14))
    @example(alpha=F(0), N=0)
    @example(alpha=F(0), N=9)
    @example(alpha=F(-5, 3), N=0)
    def test_psi_exp(self, spec, alpha, N):
        w = lambda n: _definition_factor(spec, n)
        coeffs = [alpha**n / math.prod((w(j) for j in range(1, n + 1)), start=F(1))
                  for n in range(N + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert psi_exp(parse_psi_spec(spec), alpha, N).coeffs == tuple(coeffs)

    def test_psi_exp_errors_are_those_of_the_factors(self):
        with pytest.raises(AdmissibilityError) as exc:
            psi_exp(parse_psi_spec("q:-1"), 1, 3)
        assert str(exc.value) == "q:-1: 2_psi = 0"
        with pytest.raises(DomainError) as exc:
            psi_exp(parse_psi_spec("custom:1,2"), 1, 3)
        assert str(exc.value) == "custom sequence has 2 factors, index 3 requested"
        assert psi_exp(parse_psi_spec("custom:1,2"), 1, 2) == 1 + X + X**2 / 2

    def test_psi_exp_grows_the_rows_once(self, monkeypatch):
        asked = []
        rows = PsiContext.rows
        monkeypatch.setattr(PsiContext, "rows", lambda ctx, n: asked.append(n) or rows(ctx, n))
        psi_exp(parse_psi_spec("q:3/2"), F(2, 3), 30)
        assert asked[0] == 30 and max(asked) == 30


def delta_lower_loop(f):
    """f(x + 1) - f(x) by a Taylor shift and a subtraction, the Delta
    lower before it had its own kernel: the reference for `_difference`."""
    return f.compose_affine(1, 1) - f


def delta_raiser_loop(f):
    """x f(x - 1) by a Taylor shift and one place up, the Delta raiser
    before it had its own kernel: the reference for `_x_shift_back`."""
    h = f.compose_affine(1, -1)
    return Polynomial([0, *h.coeffs])


def horner(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


class TestDeltaKernelOracle:
    """The Delta pair and `discrete`'s differences on the packed unit
    shift, against Fraction Horner values at d + 2 integer points (which
    fix any polynomial of degree <= d + 1) and against the old bodies."""

    CASES = [[], [F(5, 3)], [0, 1], [1, -2, 3], [F(1, 2), 0, F(-7, 4), 0, 9],
             [2**70, -(2**69), 3, 1, -(2**65), F(1, 11)]]

    @staticmethod
    def points(cs):
        return range(-1, len(cs) + 1)

    def check_lower(self, cs):
        f = Polynomial(cs)
        image = delta_pair().lower(f)
        assert image.degree == max(f.degree - 1, -1)
        for x in self.points(cs):
            assert horner(image.coeffs, x) == horner(cs, x + 1) - horner(cs, x)

    def check_raiser(self, cs):
        f = Polynomial(cs)
        image = delta_pair().raiser(f)
        assert image.degree == (f.degree + 1 if f else -1)
        for x in self.points(cs):
            assert horner(image.coeffs, x) == x * horner(cs, x - 1)

    def check_nabla(self, cs):
        f = Polynomial(cs)
        image = backward_nabla(LatticeFunction.from_polynomial(f)).polynomial
        assert image.degree == max(f.degree - 1, -1)
        for x in self.points(cs):
            assert horner(image.coeffs, x) == horner(cs, x) - horner(cs, x - 1)

    @pytest.mark.parametrize("cs", CASES)
    def test_cases_against_horner(self, cs):
        self.check_lower(cs)
        self.check_raiser(cs)
        self.check_nabla(cs)

    @given(st.lists(rationals, max_size=24))
    def test_against_horner(self, cs):
        self.check_lower(cs)
        self.check_raiser(cs)
        self.check_nabla(cs)

    @given(polynomials(max_degree=24) | st.lists(st.integers(-2**80, 2**80), max_size=24).map(
        Polynomial))
    def test_against_the_old_bodies(self, f):
        pair = delta_pair()
        assert pair.lower(f) == delta_lower_loop(f)
        assert pair.raiser(f) == delta_raiser_loop(f)
        lattice = LatticeFunction.from_polynomial(f)
        assert forward_difference(lattice).polynomial == delta_lower_loop(f)
        assert backward_nabla(lattice).polynomial == f - f.compose_affine(1, -1)

    def test_one_canonical_per_result(self, monkeypatch):
        from psicalc import poly

        made = []  # a one-term result is made by `_term`, any other by `_canonical`
        for name in ("_canonical", "_term"):
            make = getattr(poly, name)
            monkeypatch.setattr(poly, name,
                                lambda *args, make=make: made.append(args) or make(*args))
        f, pair = Polynomial([F(1, 2), F(-3, 4), 5, F(7, 6)]), delta_pair()
        for apply in (pair.lower, pair.raiser, lambda f: f - X, lambda f: X - f,
                      lambda f: Polynomial.monomial(64, F(-2, 3))):
            made.clear()
            apply(f)
            assert len(made) == 1


def times_line_loop(cs, b, a):
    """The coefficients of (b + a x) f, Fractions lowest first, for those
    cs of f: b c_i + a c_(i-1) at x^i, with no trailing zero."""
    out = [F(0)] * (len(cs) + 1)
    for i, c in enumerate(cs):
        out[i] += b * c
        out[i + 1] += a * c
    while out and not out[-1]:
        out.pop()
    return out


raiser_ys = st.integers(-50, 50) | st.builds(F, st.integers(-50, 50), st.integers(2, 12)).filter(
    lambda y: y.denominator > 1)
# x - y, and any other line: over a denominator, or integer but not
# primitive, as 2x + 4
lines = raiser_ys.map(lambda y: (-y, 1)) | st.tuples(
    rationals, rationals.filter(bool)) | st.tuples(
    st.integers(-6, 6), st.integers(1, 6)).map(lambda ba: (6 * ba[0], 6 * ba[1]))


class TestLineProductOracle:
    """`Polynomial.__mul__` with a degree-1 factor, which makes the
    derivative pairs' raiser in one pass (`poly._times_line`), against the
    coefficient-by-coefficient Fraction product above, which calls no
    `Polynomial` arithmetic."""

    @given(st.one_of(
        st.just([]),
        rationals.map(lambda c: [c]),
        st.builds(lambda j, c: [0] * j + [c], st.integers(0, 12), rationals),
        st.lists(rationals, min_size=2, max_size=24),
        st.lists(st.integers(-2**80, 2**80), min_size=2, max_size=12)), lines)
    # content 2 and 6, which s = 2 and s = 3 share: the s > 1 gcd divides them out
    @example([2, 4], (F(-1, 2), 1))
    @example([6, 0, -12, 18], (F(7, 3), 1))
    # 2x + 4 has content 2, which the denominator of f shares
    @example([0, F(1, 2)], (4, 2))
    # the built-in pairs' y
    @example([F(1, 2), -3, 0, F(5, 4)], (0, 1))
    @example([F(1, 2), -3, 0, F(5, 4)], (-1, 1))
    @example([F(1, 2), -3, 0, F(5, 4)], (2, 1))
    def test_against_the_fraction_product(self, cs, line):
        f, g = Polynomial(cs), Polynomial(line)
        want = times_line_loop(cs, *line)
        den = math.lcm(*[c.denominator for c in want])
        for h in (g * f, f * g):
            assert h._num == tuple(c.numerator * (den // c.denominator) for c in want)
            assert h._den == den
            assert all(type(c) is int for c in h._num) and type(h._den) is int
            assert h._den > 0 and math.gcd(h._den, *h._num) == 1
            assert not h._num or h._num[-1]

    @pytest.mark.parametrize("line, f, want", [
        # (x - 1/2)(2 + 4x) = (2x - 1)(2 + 4x) / 2 = 4x^2 - 1
        ([F(-1, 2), 1], [2, 4], ((-1, 0, 4), 1)),
        # (2x + 4) x / 2 = x^2 + 2x
        ([4, 2], [0, F(1, 2)], ((0, 2, 1), 1)),
    ])
    def test_the_gcd_divides_a_shared_content(self, line, f, want):
        g = Polynomial(line) * Polynomial(f)
        assert (g._num, g._den) == want

    def test_each_line_product_makes_one_canonical(self, monkeypatch):
        made = []
        for name in ("_canonical", "_term"):
            make = getattr(poly, name)
            monkeypatch.setattr(poly, name, lambda *args, make=make, name=name:
                                made.append(name) or make(*args))
        f = Polynomial([F(1, 2), F(-3, 4), 5, F(7, 6)])
        for line in ([-1, 1], [2, 1], [3, -2], [F(-1, 2), 1], [F(7, 3), 1], [4, 2]):
            g = Polynomial(line)
            for product in (lambda: g * f, lambda: f * g):
                made.clear()
                product()
                assert made == ["_canonical"], line

    @pytest.mark.parametrize("y, name", [(0, "D, x-(0)"), (1, "D, x-(1)"), (-2, "D, x-(-2)"),
                                         (F(1, 2), "D, x-(1/2)"), (F(-7, 3), "D, x-(-7/3)")])
    def test_pairs_pass_both_sweeps(self, y, name):
        pair = derivative_pair(y)
        assert pair.name == name
        cs = [F(1, 2), -3, 0, F(5, 4)]
        assert list(pair.raiser(Polynomial(cs)).coeffs) == times_line_loop(cs, -y, 1)
        assert verify_commutator(pair, 24).passed
        assert bernoulli_identity_sweep(pair, 12, 6).passed

    @pytest.mark.parametrize("y", [0, 1, -2, F(1, 2), F(-7, 3)])
    def test_a_wrong_product_fails_the_commutator(self, monkeypatch, y):
        # the raiser is a `Polynomial.__mul__`, so a wrong product of two
        # nonconstant polynomials shows in the derivative pairs' sweeps
        mul = Polynomial.__mul__

        def wrong(f, g):
            h = mul(f, g)
            return h + X if isinstance(g, Polynomial) and f.degree > 0 and g.degree > 0 else h

        monkeypatch.setattr(Polynomial, "__mul__", wrong)
        monkeypatch.setattr(Polynomial, "__rmul__", wrong)
        assert not verify_commutator(derivative_pair(y), 8).passed


def star_loop(ctx, f, g):
    """f(x_hat) g = sum_k c_k x_hat^k g by deg f single x_hat steps, the
    reference for the one-pass star product."""
    out, image = Polynomial(), g
    for k, c in enumerate(f.coeffs):
        if k:
            image = x_hat_psi(ctx, image)
        out = out + c * image
    return out


STAR_SPECS = ("classical", "q:2", "q:3/2", "q:-2/3", "fib", CUSTOM_SPEC)


class TestStarProductOracle:
    """The one-pass star product against its per-coefficient closed form,
    built from the sequence's raw factors, never from `PsiRows`, and
    against the repeated x_hat steps above on values and errors."""

    @pytest.mark.parametrize("spec", STAR_SPECS, ids=[*STAR_SPECS[:-1], "custom"])
    @given(f=polynomials(max_degree=8), g=polynomials(max_degree=8))
    @example(f=X**8 - F(1, 3), g=Polynomial([F(-2, 5), 0, 0, 0, 0, 0, 0, 0, 7]))
    def test_coefficients(self, spec, f, g):
        ctx = parse_psi_spec(spec)
        w = ctx.sequence.raw_factor
        # x^k * x^n = w(n, k) x^(n+k), w(n, k) = ((n+k)!/n!) prod 1/i_psi, n < i <= n+k
        want = [F(0)] * max(f.degree + g.degree + 1, 0)
        for k, a in enumerate(f.coeffs):
            for n, b in enumerate(g.coeffs):
                run = math.prod((w(i) for i in range(n + 1, n + k + 1)), start=F(1))
                want[n + k] += a * b * math.perm(n + k, k) / run
        while want and want[-1] == 0:
            want.pop()
        got = star_psi(ctx, f, g)
        assert got.coeffs == tuple(want)
        assert got == star_loop(ctx, f, g)

    @pytest.mark.parametrize("spec", STAR_SPECS, ids=[*STAR_SPECS[:-1], "custom"])
    def test_star_powers_of_x(self, spec):
        # psi_power(n) = x_hat^n 1 = (n!/n_psi!) x^n, read from the umbral row
        ctx = parse_psi_spec(spec)
        w = ctx.sequence.raw_factor
        for n in range(22):
            fact = math.prod(map(w, range(1, n + 1)), start=F(1))
            assert psi_power(ctx, n).coeffs == (0,) * n + (math.factorial(n) / fact,), n

    @pytest.mark.parametrize("spec", STAR_SPECS, ids=[*STAR_SPECS[:-1], "custom"])
    @given(f=polynomials(max_degree=8), g=polynomials(max_degree=8))
    @example(f=X**8 - F(1, 3), g=Polynomial([F(-2, 5), 0, 0, 0, 0, 0, 0, 0, 7]))
    @example(f=Polynomial.constant(F(-4, 7)), g=X**5 + 1)
    def test_truncated_at_every_top(self, spec, f, g):
        # `_star` at top forms only the degrees <= top of the whole product
        ctx = parse_psi_spec(spec)
        whole, steps = star_psi(ctx, f, g), star_loop(ctx, f, g)
        for top in range(-1, max(f.degree + g.degree, -1) + 2):
            got = operators._star(ctx, f, g, top)
            assert got == whole.truncate(top) == steps.truncate(top), top

    @pytest.mark.parametrize("spec", ["q:-1", "custom:3/2,-1/2", "custom:2,0,1"])
    def test_errors_and_rows_match_the_steps(self, spec):
        # a zero factor at index 2 (q:-1, custom:2,0,1) or a missing one at 3:
        # the one pass raises what the first bad x_hat step raises and keeps
        # the same rows, at its own top degree and at every truncated one
        polys = (Polynomial(), Polynomial.constant(F(5, 2)), X, X**2 + 1, X**3 - X, X**4)
        for f in polys:
            for g in polys:
                t = f.degree + g.degree
                for top in [None, *range(-1, t + 1)]:
                    ctxs = parse_psi_spec(spec), parse_psi_spec(spec)
                    if top is None:
                        one = _outcome(lambda: star_psi(ctxs[0], f, g))
                    else:
                        one = _outcome(lambda: operators._star(ctxs[0], f, g, top))
                    cut = t if top is None else top
                    steps = _outcome(lambda: star_loop(ctxs[1], f, g).truncate(cut))
                    assert one == steps, (str(f), str(g), top)
                    rows = len(ctxs[0].rows(0).num), len(ctxs[1].rows(0).num)
                    assert rows[0] == rows[1], (str(f), str(g), top)
                    for c in ctxs:
                        assert_umbral_row(c._rows)

    @pytest.mark.parametrize("spec", STAR_SPECS, ids=[*STAR_SPECS[:-1], "custom"])
    def test_exp_addition_reports_match_the_whole_product(self, spec):
        # the report, or the error, is that of the degree-2N product cut at
        # N; the custom sequence's 21 factors run out at N = 11
        for N in range(25):
            for alpha, beta in ((F(1, 2), F(1, 3)), (F(-2, 3), 1), (0, F(5, 4)), (F(7, 5), 0)):
                ctxs = parse_psi_spec(spec), parse_psi_spec(spec)
                got = _outcome(lambda: str(verify_exp_addition(ctxs[0], alpha, beta, N)))
                want = _outcome(lambda: str(_exp_addition_whole(ctxs[1], alpha, beta, N)))
                assert got == want, (N, alpha, beta)

    def test_constant_f_or_zero_g_grows_no_rows(self):
        ctx = parse_psi_spec("q:3/2")
        ctx.rows(3)
        g = Polynomial([1, F(-2, 3)] + [0] * 18 + [5])
        assert star_psi(ctx, Polynomial.constant(F(-4, 7)), g) == F(-4, 7) * g
        assert star_psi(ctx, Polynomial(), g) == Polynomial()
        assert star_psi(ctx, X**30 + 1, Polynomial()) == Polynomial()
        assert len(ctx.rows(0).num) == 3


def _exp_addition_whole(ctx, alpha, beta, N):
    """The exp-addition report built from the whole degree-2N star product."""
    alpha, beta = F(alpha), F(beta)
    lhs = star_psi(ctx, exp_poly(alpha, N), psi_exp(ctx, beta, N)).truncate(N)
    rhs = psi_exp(ctx, alpha + beta, N)
    return _sweep("exp-addition", f"psi={ctx.label}, alpha={alpha}, beta={beta}, N={N}",
                  "alpha={}, beta={}, degree={}",
                  [((alpha, beta, j), lhs.coeff(j), rhs.coeff(j)) for j in range(N + 1)])


class TestReportsPastTheDigitLimit:
    DIGITS = "1" + "0" * 4998 + "7"  # those of BIG
    BIG = 10**4999 + 7

    def test_failed_report_keeps_every_digit(self, digit_limit):
        # [c D, x] = c, so the commutator fails at x^0 with lhs = c
        c = F(self.BIG, 3)
        pair = GhwPair("scaled", lambda f: f.derivative() * c, lambda f: X * f)
        report = verify_commutator(pair, 4)
        text = str(report)
        assert sys.get_int_max_str_digits() == digit_limit
        assert not report.passed and report.cases == 1
        ce = report.counterexample
        assert (ce.inputs, ce.lhs, ce.rhs) == ("m=0", self.DIGITS + "/3", "1")
        assert ce.lhs in text

    # every user rational a report's params, a pair name or a psi label
    # writes: (the check, the text its params hold); all of them pass
    D = DIGITS
    PARAMS = {
        "exp-addition alpha": (lambda b: verify_exp_addition(FIB, F(b, 3), 0, 2),
                               f"alpha={D}/3, beta=0,"),
        "exp-addition beta": (lambda b: verify_exp_addition(FIB, 0, -b, 2), f"beta=-{D},"),
        "per-partes": (lambda b: verify_per_partes(FIB, X, X, F(1, b), b), f"a=1/{D}, b={D}"),
        "hahn q": (lambda b: verify_hahn_reduction(HahnParams(b, 0), 2), f"q={D}, h=0,"),
        "hahn h": (lambda b: verify_hahn_reduction(HahnParams(2, F(b, 3)), 2), f"h={D}/3,"),
        "jackson-inverse": (lambda b: verify_jackson_inverse(X, b), f"q={D}"),
        "expansion alpha": (lambda b: verify_expansion(psi_bernoulli_taylor(FIB, X, b, 1, 1)),
                            f"alpha={D},"),
        "derivative pair": (lambda b: verify_commutator(derivative_pair(b), 2), f"x-({D})"),
        "gauss label": (lambda b: verify_fundamental_theorem(
            PsiContext(AdmissibleSequence.gauss_q(F(3, b))), X), f"psi=q:3/{D}"),
        "custom label": (lambda b: verify_fundamental_theorem(
            PsiContext(AdmissibleSequence.custom([b, F(-1, b)])), X), f"psi=custom:{D},-1/{D}"),
    }

    @pytest.mark.parametrize("check, text", PARAMS.values(), ids=PARAMS)
    def test_params_keep_every_digit(self, digit_limit, check, text):
        report = check(self.BIG)
        assert report.passed and text in report.params and text in str(report)
        assert sys.get_int_max_str_digits() == digit_limit

    def test_rational_sides_keep_every_digit(self, digit_limit):
        # per-partes compares two numbers, not polynomials
        report = _sweep("per-partes", "psi=fib", "a={}", [(0, F(-self.BIG, 3), self.BIG)])
        assert sys.get_int_max_str_digits() == digit_limit
        ce = report.counterexample
        assert (ce.lhs, ce.rhs) == ("-" + self.DIGITS + "/3", self.DIGITS)


def _classical_derivative(ctx, f, k=1):
    return f.derivative(k)


# D doubled on x^4 and up: [D', x] x^3 = 5x^3, and the Bernoulli identity
# first fails at (m, n) = (4, 1), case 4 * 4 + 1 + 1 of m <= 6, n <= 3
SCALED_PAIR = GhwPair("2D from x^4, x", lambda f: f.derivative() * (2 if f.degree >= 4 else 1),
                      lambda f: X * f)
_exp = operators.exp_poly

# verifier: (the patch that breaks it or None, its run, the first failing
# case's position in the sweep's order, that case's inputs)
BROKEN_VERIFIERS = {
    "commutator": (None, lambda: verify_commutator(SCALED_PAIR, 6), 4, "m=3"),
    "bernoulli sweep": (None, lambda: bernoulli_identity_sweep(SCALED_PAIR, 6, 3), 18, "m=4, n=1"),
    "bernoulli": (None, lambda: verify_bernoulli_identity(SCALED_PAIR, 1, X**4), 1, "n=1, f=x^4"),
    # the next four break a kernel that their canonical and their unreduced
    # sides both call: the psi power, f's derivative, exp_poly
    "telescoping": ((operators, "_psi_power", antiderivative_power_one_short),
                    lambda: verify_telescoping(FIB, 2, X**3), 1, "n=2, f=x^3"),
    "leibniz": ((Polynomial, "derivative", doubled_derivative),
                lambda: verify_leibniz(FIB, X**2, X**3), 1, "f=x^2, g=x^3"),
    "exp-addition": ((operators, "exp_poly", lambda alpha, N: _exp(alpha, N) + X**2),
                     lambda: verify_exp_addition(FIB, F(1, 2), F(1, 3), 6), 3,
                     "alpha=1/2, beta=1/3, degree=2"),
    "per-partes": ((Polynomial, "derivative", doubled_derivative),
                   lambda: verify_per_partes(FIB, X, X**3, 0, 1), 1, "f=x, g=x^3, a=0, b=1"),
    "fundamental": ((operators, "psi_derivative", _classical_derivative),
                    lambda: verify_fundamental_theorem(FIB, X**3), 1, "f=x^3"),
    "historical": ((operators, "historical_evaluation_sum", lambda f: f),
                   lambda: verify_historical_series(X**2 + 1), 2, "evaluation, f=x^2 + 1"),
    "hahn-reduction": ((hahn, "psi_derivative",
                        lambda ctx, f: psi_derivative(ctx, f) + (1 if f.degree >= 5 else 0)),
                       lambda: verify_hahn_reduction(HahnParams(F(3, 2), F(7, 5)), 8), 6, "n=5"),
    "jackson-inverse": ((hahn, "psi_derivative", _classical_derivative),
                        lambda: verify_jackson_inverse(X**2, 2), 1, "f=x^2"),
    "expansion": ((expansions, "psi_derivative", _classical_derivative),
                  lambda: verify_expansion(psi_bernoulli_taylor(FIB, X**3, 0, 1, 2)), 2,
                  "remainder"),
}


class TestSweepDriver:
    """`operators._sweep`, the one driver of all twelve verifiers: `cases`
    counts the cases up to and including the first failure."""

    @pytest.mark.parametrize("patch, run, position, inputs", BROKEN_VERIFIERS.values(),
                             ids=BROKEN_VERIFIERS)
    def test_cases_end_at_the_first_failure(self, monkeypatch, patch, run, position, inputs):
        if patch:
            monkeypatch.setattr(*patch)
        report = run()
        assert not report.passed
        assert report.cases == position
        assert report.counterexample.inputs == inputs

    @pytest.mark.parametrize("cases", [[], iter(())])
    def test_no_case_raises(self, cases):
        with pytest.raises(InternalError, match="a sweep with no case"):
            _sweep("commutator", "N=0", "m={}", cases)
