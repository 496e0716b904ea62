import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import polynomials, rationals
from psicalc import (
    AdmissibilityError,
    DomainError,
    Polynomial,
    bernoulli_identity_sweep,
    delta_pair,
    derivative_pair,
    divided_difference_zero,
    exp_poly,
    historical_divided_difference_sum,
    jackson_antiderivative,
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
    PsiContext,
)
from psicalc.operators import _report

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


def _realisations():
    """The nine built-in realisations and (D + 1, x), a valid pair whose
    lower image of x^m keeps x^m."""
    pairs = [derivative_pair(y) for y in (0, 1, -2)] + [delta_pair()]
    pairs += [psi_pair(parse_psi_spec(s)) for s in ("classical", "q:2", "q:1/2", "q:3/2", "fib")]
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
# negative factors with denominators other than 1: signs reach the lcm of
# the numerators that x_hat and the psi-antiderivative divide by
CUSTOM_SPEC = (
    "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,-11/2,6,-13/7,1/3,"
    "-8,15/4,-2/11,7/6,-9/10,12,-5/8,17/3,-1/6,2"
)


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
        st.sampled_from(BUILTIN_SPECS),
        st.integers(min_value=0, max_value=20),
        rationals.filter(lambda c: c != 0),
    )
    def test_monomial_images(self, spec, n, c):
        ctx = parse_psi_spec(spec)
        f = Polynomial.monomial(n, c)
        w = lambda k: _definition_factor(spec, k)
        w_factorial = math.prod((w(k) for k in range(1, n + 1)), start=F(1))
        cases = [
            ("psi_derivative", psi_derivative(ctx, f), n - 1, c * w(n) if n else 0),
            ("x_hat_psi", x_hat_psi(ctx, f), n + 1, c * (n + 1) / w(n + 1)),
            ("psi_antiderivative", psi_antiderivative(ctx, f), n + 1, c / w(n + 1)),
            ("umbral_tilde", umbral_tilde(ctx, f), n, c * math.factorial(n) / w_factorial),
            ("derivative", f.derivative(), n - 1, c * n),
            ("antiderivative", f.antiderivative(), n + 1, c / (n + 1)),
        ]
        if spec != "fib":
            q = _gauss_q(spec)
            cases += [
                ("q_derivative", q_derivative(f, q), n - 1, c * w(n) if n else 0),
                ("jackson_antiderivative", jackson_antiderivative(f, q), n + 1, c / w(n + 1)),
            ]
        for name, image, degree, coeff in cases:
            assert image.coeffs == _scaled_monomial(F(coeff), degree), name

    @pytest.mark.parametrize(
        "spec", BUILTIN_SPECS + (CUSTOM_SPEC,), ids=[*BUILTIN_SPECS, "custom"]
    )
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

    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi, umbral_tilde])
    def test_zero_factor_error_is_unchanged(self, op):
        ctx = parse_psi_spec("custom:1,0,2")
        with pytest.raises(AdmissibilityError) as exc:
            op(ctx, X**3)
        assert str(exc.value) == "custom:1,0,2: 2_psi = 0"
        with pytest.raises(AdmissibilityError):
            op(ctx, X**3)  # raised again, not hidden by the rows kept so far
        assert psi_derivative(ctx, X) == Polynomial.constant(1)
        assert x_hat_psi(ctx, Polynomial.constant(1)) == X

    @pytest.mark.parametrize("op", [psi_derivative, psi_antiderivative, x_hat_psi, umbral_tilde])
    def test_missing_factor_error_is_unchanged(self, op):
        ctx = parse_psi_spec("custom:1,2")
        with pytest.raises(DomainError) as exc:
            op(ctx, X**5)
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
        assert not report.passed and report.cases == 5
        ce = report.counterexample
        assert (ce.inputs, ce.lhs, ce.rhs) == ("m=0", self.DIGITS + "/3", "1")
        assert ce.lhs in text

    def test_rational_sides_keep_every_digit(self, digit_limit):
        # per-partes compares two numbers, not polynomials
        report = _report("per-partes", "psi=fib", 1, [("a=0", F(-self.BIG, 3), self.BIG)])
        assert sys.get_int_max_str_digits() == digit_limit
        ce = report.counterexample
        assert (ce.lhs, ce.rhs) == ("-" + self.DIGITS + "/3", self.DIGITS)
