import math
import operator
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fresh, polynomials, rationals
from psicalc import (
    AdmissibleSequence,
    HahnParams,
    LatticeFunction,
    Polynomial,
    derivative_pair,
    falling_factorial_value,
    jackson_integral_numeric,
    parse_psi_spec,
    psi_antiderivative,
    psi_bernoulli_taylor,
    psi_derivative,
    psi_exp,
    taylor_classical,
    verify_exp_addition,
    verify_per_partes,
    x_hat_psi,
)
from psicalc import operators, poly

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


def shift_loop(cs, h):
    """The coefficients of f(t + h) by the d(d+1)/2 additions
    a_j += h a_(j+1), the reference for the packed Taylor shift."""
    cs, d = list(cs), len(cs) - 1
    for k in range(d):
        for j in range(d - 1, k - 1, -1):
            cs[j] += h * cs[j + 1]
    return cs


class TestTaylorShift:
    """The packed shift against the reference loop above and against
    composition by ring arithmetic (test_poly_oracle.py adds sympy)."""

    @given(st.lists(st.integers(-2**70, 2**70), max_size=40), st.sampled_from([1, -1]))
    def test_unit_shift_against_the_loop(self, cs, h):
        got = Polynomial(cs).compose_affine(1, h)
        assert got == Polynomial(shift_loop(cs, h))

    @pytest.mark.parametrize("h", [1, -1])
    @pytest.mark.parametrize("bits", [1, 5, 64])
    @pytest.mark.parametrize("d", [0, 1, 2, 8, 33])
    def test_coefficients_at_the_bit_bound(self, d, bits, h):
        # c_i = +-h^i (2^B - 1), all of the largest size B and signed so
        # that every term adds up: f(t + h) then reaches the most the
        # packing must hold, C(d+1, k+1) (2^B - 1) at its middle k
        top = 2**bits - 1
        for sign in (1, -1):
            cs = [sign * h**i * top for i in range(d + 1)]
            got = Polynomial(cs).compose_affine(1, h)
            assert got == Polynomial(shift_loop(cs, h))
            assert max(map(abs, got._num)) == top * math.comb(d + 1, (d + 2) // 2)

    @pytest.mark.parametrize("b", [1, 2, 7, 64])
    def test_unpack_reads_back_every_balanced_digit(self, b):
        # the digits run over [-2^(b-1), 2^(b-1)), both ends included
        low, high = -(1 << (b - 1)), (1 << (b - 1)) - 1
        for cs in ([low, high, 0, low], [high, low, low], [0, 0, high]):
            packed = sum(c << (b * i) for i, c in enumerate(cs))
            assert poly._pack(cs, b) == packed
            assert poly._unpack(packed, b, len(cs)) == cs

    @given(polynomials(max_degree=20), st.just(1) | rationals,
           st.sampled_from([1, -1]) | rationals)
    def test_rational_map_against_ring_arithmetic(self, f, q, h):
        inner = Polynomial([h, q])
        want = sum((inner**i * c for i, c in enumerate(f.coeffs)), Polynomial())
        assert f.compose_affine(q, h) == want


def binomial_shift(cs, a):
    """The coefficients of f(x + a), Fractions lowest first, for those cs
    of f: sum over i of c_i C(i, k) a^(i-k) at x^k, by `math.comb`."""
    out = [F(0)] * len(cs)
    for i, c in enumerate(cs):
        if c:
            for k in range(i + 1):
                out[k] += c * math.comb(i, k) * F(a) ** (i - k)
    return out


# one term c x^d / den: c of either sign and up to 300 bits, d <= 130
shift_ints = st.integers(-(2**300), 2**300).filter(bool)
shift_terms = st.tuples(shift_ints, st.integers(1, 130), st.integers(1, 10**6)).map(
    lambda t: [F(0)] * t[1] + [F(t[0], t[2])])
# dense f of degree >= 1: rational, or integer up to 300 bits
dense_shift_cs = (st.lists(rationals, min_size=2, max_size=24)
                  | st.lists(st.integers(-(2**300), 2**300), min_size=2, max_size=24)).filter(
    lambda cs: cs[-1])


class TestUnitShiftOracle:
    """The packed unit shift and the kernels on it, one-term inputs (one
    `pow`) and dense ones (Horner) alike, against the binomial expansion
    of f(x + h) over Fractions, which shares no code with either."""

    @given(shift_ints, st.integers(1, 130), st.sampled_from([1, -1]))
    @example(-(2**300), 130, -1)
    @example(1, 1, 1)
    def test_one_term_against_math_comb(self, c, d, h):
        got = poly._unit_shift([0] * d + [c], h)
        assert got == [c * math.comb(d, k) * h ** (d - k) for k in range(d + 1)]

    @given(st.lists(st.integers(-(2**300), 2**300), min_size=2, max_size=40).filter(
        lambda cs: cs[-1]), st.sampled_from([1, -1]))
    def test_dense_against_math_comb(self, cs, h):
        assert poly._unit_shift(cs, h) == binomial_shift(cs, h)

    @given(shift_terms | dense_shift_cs, st.sampled_from([1, -1]))
    def test_kernels_against_the_binomial_expansion(self, cs, h):
        f, shifted = Polynomial(cs), binomial_shift(cs, h)
        # f(x + 1) - f(x) for h = 1, f(x) - f(x - 1) for h = -1
        diff = [h * (u - v) for u, v in zip(shifted, cs)]
        for got, want in ((f.compose_affine(1, h), shifted), (poly._difference(f, h), diff),
                          (poly._x_shift_back(f), [F(0), *binomial_shift(cs, -1)])):
            assert_canonical(got)
            assert got.coeffs == _fraction_coeffs(want)

    @given(shift_terms | dense_shift_cs, rationals)
    def test_rational_shift_against_the_binomial_expansion(self, cs, a):
        got = Polynomial(cs).compose_affine(1, a)
        assert_canonical(got)
        assert got.coeffs == _fraction_coeffs(binomial_shift(cs, a))


class TestCombine:
    """The one-pass integer combination against a sum of scalar multiples."""

    @given(st.lists(st.tuples(st.integers(-40, 40), polynomials()), max_size=6),
           st.integers(1, 30) | st.integers(-30, -1))
    def test_against_a_sum_of_multiples(self, pairs, den):
        want = sum((f * c for c, f in pairs), Polynomial()) / den
        assert poly._combine(pairs, den) == want

    def test_empty(self):
        assert poly._combine([]) == poly._combine([], 7) == Polynomial()

    def test_full_cancellation_to_zero(self):
        f = X / 3 + F(1, 2)
        zero = poly._combine([(2, f), (-1, 2 * f), (3, X), (-1, 3 * X)], 5)
        assert (zero._num, zero._den) == ((), 1)

    def test_one_canonical_over_the_lcm(self, monkeypatch):
        fs = [X / 4 + 1, X**2 / 6, X / 4, Polynomial.constant(5)]
        want = sum(fs, Polynomial()) / 5
        made = []
        canonical = poly._canonical
        monkeypatch.setattr(poly, "_canonical",
                            lambda num, den: made.append(den) or canonical(num, den))
        assert poly._combine([(1, f) for f in fs], 5) == want
        # one result, over lcm(4, 6, 4, 1) * 5 and not the product 96 * 5
        assert made == [12 * 5]


    def test_later_row_longer_than_the_first(self):
        rows = [(3, X / 2 + 1), (-2, X**4 / 3 - X), (1, Polynomial.constant(F(5, 6))),
                (5, X**7 + X**2)]
        want = [0] * 8
        for c, f in rows:
            for i, v in enumerate(f.coeffs):
                want[i] += c * v
        assert poly._combine(rows, 7).coeffs == tuple(F(v) / 7 for v in want)

    @given(st.lists(st.tuples(st.integers(-40, 40), polynomials()), min_size=2, max_size=5))
    def test_rows_in_increasing_length(self, pairs):
        pairs.sort(key=lambda pair: len(pair[1].coeffs))
        want = sum((f * c for c, f in pairs), Polynomial())
        assert poly._combine(pairs) == want


def _fraction_coeffs(cs):
    """A coefficient list as Fractions with its trailing zeros dropped."""
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


coefficient_lists = st.lists(rationals, max_size=10)
scalars = st.integers(-30, 30) | rationals


class TestSubtraction:
    """The one-pass difference against coefficientwise Fraction subtraction."""

    @staticmethod
    def want(a, b):
        pad = max(len(a), len(b))
        a, b = list(a) + [0] * (pad - len(a)), list(b) + [0] * (pad - len(b))
        return _fraction_coeffs(map(operator.sub, a, b))

    @given(coefficient_lists, coefficient_lists)
    def test_against_coefficientwise_fractions(self, a, b):
        f, g = Polynomial(a), Polynomial(b)
        assert (f - g).coeffs == self.want(a, b)
        assert (g - f).coeffs == self.want(b, a)

    @pytest.mark.parametrize("a,b", [
        ([1, F(1, 2)], [F(1, 3), 0, F(-2, 5), 7]),  # longer right operand
        ([F(-3, 4), 2, 0, 0, F(1, 6)], [F(5, 6)]),  # longer left operand
        ([], [F(1, 7), 0, -3]),  # zero on the left
    ])
    def test_unequal_lengths_both_ways(self, a, b):
        f, g = Polynomial(a), Polynomial(b)
        assert (f - g).coeffs == self.want(a, b)
        assert (g - f).coeffs == self.want(b, a)

    @given(coefficient_lists, coefficient_lists)
    def test_full_cancellation(self, a, b):
        f, g = Polynomial(a), Polynomial(b)
        zero = f - f
        assert (zero._num, zero._den) == ((), 1)
        assert (f + g) - g == f

    def test_mixed_denominators_cancel_to_lowest_terms(self):
        d = (X**2 / 6 + X / 4 + F(1, 3)) - (X**2 / 6 - X / 4)
        assert (d._num, d._den) == ((2, 3), 6)  # (2 + 3x)/6 in lowest terms, not over 12

    @given(coefficient_lists, scalars)
    def test_scalar_on_either_side(self, a, c):
        f = Polynomial(a)
        assert (f - c).coeffs == self.want(a, [c])
        assert (c - f).coeffs == self.want([c], a)


class TestMonomial:
    """The one-pass monomial against the general constructor."""

    @given(st.integers(0, 70), scalars)
    def test_against_the_constructor(self, n, c):
        got = Polynomial.monomial(n, c)
        assert got == Polynomial([0] * n + [c])
        assert got.coeffs == _fraction_coeffs([0] * n + [c])

    @pytest.mark.parametrize("c", [0, F(0), F(-7, 3), -5, F(22, 4)])
    def test_zero_and_negative_fractions(self, c):
        got = Polynomial.monomial(4, c)
        assert got.coeffs == _fraction_coeffs([0, 0, 0, 0, c])
        assert got.degree == (4 if c else -1)

    def test_default_coefficient(self):
        assert Polynomial.monomial(3) == X**3

    def test_float_refused(self):
        with pytest.raises(TypeError):
            Polynomial.monomial(3, 0.5)


def assert_canonical(f):
    """f's numerators and denominator are in the one canonical form."""
    num, den = f._num, f._den
    assert all(type(c) is int for c in num) and type(den) is int
    assert den > 0 and math.gcd(den, *num) == 1
    assert not num or num[-1]


def schoolbook(a, b):
    """The product of two Fraction coefficient lists, term by term."""
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _fraction_coeffs(out)


def fraction_derivative(cs, k):
    """The k-th derivative of a Fraction coefficient list, one step at a time."""
    for _ in range(k):
        cs = [n * c for n, c in enumerate(cs)][1:]
    return _fraction_coeffs(cs)


LONG = 10**4400  # past the int-to-str limit of 4300 digits
term_ints = st.integers(-10**6, 10**6) | st.integers(1, 10**6).map(lambda e: e * LONG)
one_terms = st.builds(Polynomial.monomial, st.integers(0, 40),
                      rationals.filter(bool) | term_ints.filter(bool))


class TestTerm:
    """`poly._term`, the constructor of every one-term result, against
    Fraction(c, den) at x^j."""

    @given(st.integers(0, 70), term_ints, term_ints.filter(bool),
           st.integers(1, 10**6) | st.just(LONG))
    @example(2, 0, -3, 1)
    @example(2, 3, -2, 2)
    @example(2, -3, -2, 2)
    def test_against_a_fraction(self, j, c, den, g):
        # g a common factor, so the one gcd has something to remove
        f = poly._term(j, c * g, den * g)
        assert_canonical(f)
        assert f.coeffs == _fraction_coeffs([0] * j + [F(c, den)])


class TestOneTermResults:
    """The one-term branches of the derivative and of the product against
    the Fraction derivative and schoolbook, beside the several-term inputs
    that bypass them."""

    @given(one_terms | polynomials(max_degree=12), st.integers(0, 4))
    def test_derivative(self, f, k):
        got = f.derivative(k)
        assert_canonical(got)
        assert got.coeffs == fraction_derivative(list(f.coeffs), k)

    @given(one_terms | polynomials(max_degree=6), one_terms | polynomials(max_degree=6))
    def test_product(self, f, g):
        got = f * g
        assert_canonical(got)
        assert got.coeffs == schoolbook(f.coeffs, g.coeffs)


class TestSharedZero:
    """The zero results, most of them the one shared `poly._ZERO`, behave
    as `Polynomial()` does, and reading one leaves every other as it was."""

    @staticmethod
    def zeros():
        ctx, f = parse_psi_spec("q:3/2"), Polynomial([F(1, 2), -3, F(7, 5)])
        shared = [
            psi_derivative(ctx, Polynomial.constant(F(5, 3))),
            *[op(ctx, Polynomial(), k) for op in (x_hat_psi, psi_antiderivative) for k in (1, 3)],
            poly._difference(Polynomial.constant(7), 1),
            poly._difference(Polynomial.constant(F(-2, 9)), -1),
            Polynomial() * f,
            f * Polynomial(),
            operators._star(ctx, f, f, -1),
            Polynomial.monomial(4, 0),
        ]
        return shared, [0 * f, f * 0, f - f]

    def test_each_behaves_as_the_constructed_zero(self):
        shared, built = self.zeros()
        assert all(z is poly._ZERO for z in shared)
        for z in shared + built:
            assert z == Polynomial() and z == 0 and not z
            assert (z.degree, z.coeffs, str(z), repr(z)) == (-1, (), "0", "Polynomial([])")
            assert hash(z) == hash(Polynomial()) == hash(0)

    def test_reading_one_leaves_the_others(self):
        # no slot but the two written when a polynomial is made
        assert Polynomial.__slots__ == ("_num", "_den")
        shared, built = self.zeros()
        zeros = shared + built
        before = [(y._num, y._den) for y in zeros]
        for z in shared:
            for read in (lambda: z.coeffs, lambda: str(z), lambda: repr(z), lambda: hash(z)):
                read()
                assert [(y._num, y._den) for y in zeros] == before
        assert (poly._ZERO._num, poly._ZERO._den) == ((), 1)


class TestHash:
    """Equal objects hash equal: a constant polynomial equals its scalar."""

    @pytest.mark.parametrize("p, c", [
        (Polynomial([1]), 1), (Polynomial([F(1, 2)]), F(1, 2)), (Polynomial(), 0),
        (Polynomial([F(-6, 4)]), F(-3, 2)), (Polynomial.constant(2**80), 2**80),
        (Polynomial([F(7, 1)]), F(7)),
    ])
    def test_constant_hashes_as_its_scalar(self, p, c):
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
        assert {p: "v"}.get(c) == "v" and {c: "v"}.get(p) == "v"

    @given(rationals)
    def test_any_rational_constant(self, c):
        p = Polynomial.constant(c)
        assert p == c and hash(p) == hash(c) == hash(Polynomial([c]))

    @given(polynomials(), polynomials())
    def test_equal_polynomials_hash_equal(self, f, g):
        assert hash(f + g) == hash(g + f)
        assert (f == g) <= (hash(f) == hash(g))


class TestTruncate:
    @pytest.mark.parametrize("n, want", [(1, 2 * X + 5), (-1, Polynomial.zero()),
                                         (-2, Polynomial.zero()), (-(3 + 5), Polynomial.zero())])
    def test_drops_the_terms_above_n(self, n, want):
        assert (X**3 + 2 * X + 5).truncate(n) == want


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

    def test_coeffs_read_twice_are_equal_fraction_tuples(self):
        for f in (Polynomial(), X, Polynomial([F(1, 2), -3, 0, F(-7, 5)]), 0 * X):
            first, second = f.coeffs, f.coeffs
            assert type(first) is type(second) is tuple and first == second
            assert all(type(c) is F for c in first + second)
        assert Polynomial([F(1, 2), -3, 0, F(-7, 5)]).coeffs == (F(1, 2), F(-3), F(0), F(-7, 5))

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

    def test_repr_past_the_int_digit_limit(self, digit_limit):
        big = 10**4999 + 7
        text = repr(Polynomial([F(-1, big), 0, big]))
        assert sys.get_int_max_str_digits() == digit_limit
        digits = "1" + "0" * 4998 + "7"
        assert text == f"Polynomial([Fraction(-1, {digits}), Fraction(0, 1), Fraction({digits}, 1)])"

    def test_repr_unchanged_below_the_limit(self):
        for f in (Polynomial(), X, Polynomial([F(1, 2), -3, 0, F(-7, 5)])):
            assert repr(f) == f"Polynomial({list(f.coeffs)!r})"

    def test_reprs_past_the_limit_in_a_plain_interpreter(self):
        probe = (
            "from psicalc import Polynomial, taylor_classical\n"
            "big = Polynomial([10**5000])\n"
            "print(len(repr(big)), len(repr(taylor_classical(big * Polynomial.x(), 0, 1))))"
        )
        proc = fresh("-c", probe)
        assert proc.returncode == 0, proc.stderr
        repr_len, report_len = map(int, proc.stdout.split())
        assert repr_len == len("Polynomial([Fraction(, 1)])") + 5001
        assert report_len > 2 * 5001

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
