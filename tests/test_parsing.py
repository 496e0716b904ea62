import random
from fractions import Fraction as F

import pytest

from psicalc import ParseError, Polynomial, parse_poly
from psicalc.parsing import MAX_BITS, MAX_DEGREE, MAX_NESTING

X = Polynomial.x()


class TestGrammar:
    def test_basic(self):
        assert parse_poly("x^2 - 1").coeffs == (F(-1), F(0), F(1))

    def test_rational_coefficients(self):
        assert parse_poly("3/2*x^3 - x + 1").coeffs == (F(1), F(-1), F(0), F(3, 2))

    def test_double_caret_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x^^2")
        assert exc.value.position == 2

    def test_parentheses_and_products(self):
        assert parse_poly("(x - 1)*(x + 1)") == X**2 - 1
        assert parse_poly("(x+1)^3") == X**3 + 3 * X**2 + 3 * X + 1

    def test_negative_leading_rational(self):
        assert parse_poly("-1*x^2 + 1") == -(X**2) + 1
        assert parse_poly("-3/4") == Polynomial.constant(F(-3, 4))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_poly("-x^2") == -(X**2)
        assert parse_poly("-3^2") == Polynomial.constant(-9)
        assert parse_poly("-(x+1)") == -X - 1
        assert parse_poly("-(x+1)^2 + 3") == -((X + 1) ** 2) + 3

    def test_unary_minus_inside_terms(self):
        assert parse_poly("2*-x") == -2 * X
        assert parse_poly("x - -1") == X + 1
        assert parse_poly("- - x") == X

    def test_long_run_of_unary_minuses(self):
        # counted in a loop, so no run reaches the recursion limit
        assert parse_poly("-" * 5001 + "x") == -X

    def test_minus_without_operand(self):
        for src, position in (("-", 1), ("x^-2", 2), ("1/-2", 2)):
            with pytest.raises(ParseError) as exc:
                parse_poly(src)
            assert exc.value.position == position

    def test_whitespace_insignificant(self):
        assert parse_poly("  3/2 * x ^ 3-x+ 1 ") == parse_poly("3/2*x^3-x+1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x + 1 y")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_poly("(x + 1")

    def test_nesting_up_to_the_bound(self):
        depth = MAX_NESTING
        assert parse_poly("(" * depth + "x + 1" + ")" * depth) == X + 1

    def test_nesting_beyond_the_bound(self):
        depth = 2000
        with pytest.raises(ParseError) as exc:
            parse_poly("(" * depth + "x" + ")" * depth)
        assert exc.value.position == MAX_NESTING


class TestDegreeLimit:
    """Powers and products past MAX_DEGREE are refused before they are computed."""

    def test_limit(self):
        assert MAX_DEGREE == 128

    @pytest.mark.parametrize("src", ["x^128", "x^100*x^28", "(1+x)^64*(x-1)^64", "(x^2)^64",
                                     "0*x^128", "x^128 + x^128", "1^99999999"])
    def test_up_to_the_limit(self, src):
        assert parse_poly(src).degree <= MAX_DEGREE

    @pytest.mark.parametrize("src, position", [
        ("x^129", 1), ("x^99999999", 1), ("(1+x)^129", 5), ("(x^2)^65", 5),
        ("x^100*x^29", 5), ("x^64 * x^64 * x", 12), ("x*(x^64*x^64)", 1), ("-x^129", 2),
    ])
    def test_past_the_limit(self, src, position):
        with pytest.raises(ParseError, match="degree above the limit of 128") as exc:
            parse_poly(src)
        assert exc.value.position == position

    def test_checked_before_the_power_is_computed(self, monkeypatch):
        powers = []
        power = Polynomial.__pow__
        monkeypatch.setattr(Polynomial, "__pow__", lambda f, n: powers.append(n) or power(f, n))
        with pytest.raises(ParseError):
            parse_poly("(x+1)^2 * (x+1)^200")
        assert powers == [2]


class TestBitLimit:
    """Powers and products whose coefficients pass MAX_BITS are refused
    before they are computed."""

    def test_limit(self):
        assert MAX_BITS == 100_000

    @pytest.mark.parametrize("src, bits", [
        ("2^100000", 100_001), ("(1/2)^100000", 100_001), ("2^50000*2^50000", 100_001),
        ("-(2^100000)", 100_001), ("3^100000", 158_497), ("1^99999999", 1), ("(-1)^99999999", 1),
        ("0^99999999", 1), ("(x+2)^128", 200),
    ])
    def test_up_to_the_limit(self, src, bits):
        f = parse_poly(src)
        assert max([f._den, *map(abs, f._num)]).bit_length() == bits

    @pytest.mark.parametrize("src, position", [
        ("2^9999999", 1), ("2^100001", 1), ("(1/2)^100001", 5), ("4^50001", 1),
        ("2^50000*2^50001", 7), ("2^60000 * x * 2^60000", 12), ("-2^100001", 2),
        ("(2^50000*x + 1)^3", 15),
    ])
    def test_past_the_limit(self, src, position):
        with pytest.raises(ParseError, match="coefficients above the limit of 100000 bits") as exc:
            parse_poly(src)
        assert exc.value.position == position

    def test_checked_before_the_power_is_computed(self, monkeypatch):
        powers = []
        power = Polynomial.__pow__
        monkeypatch.setattr(Polynomial, "__pow__", lambda f, n: powers.append(n) or power(f, n))
        with pytest.raises(ParseError):
            parse_poly("2^3 * 2^9999999")
        assert powers == [3]


def random_polynomial(rng):
    degree = rng.randint(0, 9)
    coeffs = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(degree + 1)]
    return Polynomial(coeffs)


class TestRoundTrip:
    def test_print_parse_corpus(self):
        rng = random.Random(99)
        for _ in range(100):
            f = random_polynomial(rng)
            assert parse_poly(str(f)) == f

    def test_zero(self):
        assert parse_poly(str(Polynomial.zero())) == Polynomial.zero()

    def test_negative_unit_leading_coefficient(self):
        for f in (-X, -(X**3) + X, Polynomial.constant(-1)):
            assert parse_poly(str(f)) == f
