import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psicalc import (
    AdmissibilityError,
    AdmissibleSequence,
    DomainError,
    ParseError,
    PsiContext,
    admissibility_check,
    parse_psi_spec,
    parse_rational,
)


def ctx(spec):
    return parse_psi_spec(spec)


class TestFactor:
    def test_classical(self):
        assert ctx("classical").factor(5) == 5

    def test_gauss_q(self):
        assert ctx("q:2").factor(3) == 7

    def test_fibonomial(self):
        assert ctx("fib").factor(4) == 3
        assert [ctx("fib").factor(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]

    def test_q_one_is_classical(self):
        c = ctx("q:1")
        assert [c.factor(n) for n in range(1, 10)] == list(range(1, 10))

    def test_custom(self):
        c = PsiContext(AdmissibleSequence.custom([F(1), F(1, 2), F(-3)]))
        assert c.factor(2) == F(1, 2)

    def test_zero_factor_raises(self):
        with pytest.raises(AdmissibilityError):
            ctx("q:-1").factor(2)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(DomainError):
            ctx("classical").factor(0)


class TestGaussQFactor:
    """n_q as the one Fraction (b^n - a^n) / (b^(n-1) (b - a)), q = a/b."""

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(lambda q: q != 1)
        | st.sampled_from([F(0), F(-1), F(-1, 2), F(2), F(3, 2), F(-7, 3)]),
        st.integers(1, 40),
    )
    def test_matches_the_geometric_sum(self, q, n):
        v = AdmissibleSequence.gauss_q(q).raw_factor(n)
        assert type(v) is F and v == (1 - q**n) / (1 - q)

    def test_zero_factor_error_unchanged(self):
        assert AdmissibleSequence.gauss_q(-1).raw_factor(2) == 0
        with pytest.raises(AdmissibilityError) as exc:
            ctx("q:-1").rows(4)
        assert str(exc.value) == "q:-1: 2_psi = 0"


class TestFactorial:
    def test_classical(self):
        assert ctx("classical").factorial(4) == 24

    def test_gauss_q(self):
        assert ctx("q:2").factorial(3) == 21

    def test_fibonomial(self):
        assert ctx("fib").factorial(4) == 6

    def test_zero_case(self):
        assert ctx("fib").factorial(0) == 1

    def test_matches_ordinary_factorial(self):
        c = ctx("classical")
        for n in range(20):
            assert c.factorial(n) == math.factorial(n)

    def test_recurrence(self):
        c = ctx("q:3/2")
        for n in range(1, 12):
            assert c.factorial(n) == c.factor(n) * c.factorial(n - 1)


class TestOneMemo:
    """What a context answers, now that its only memo is the rows."""

    def test_factor_past_a_zero_factor(self):
        # q = -1: 2_psi = 0 but 3_psi = (1 - (-1)^3) / 2 = 1; n_psi is read
        # from the sequence, so a zero below it does not get in the way
        c = ctx("q:-1")
        assert c.factor(3) == 1
        assert c.falling_factorial(5, 1) == 1
        with pytest.raises(AdmissibilityError) as exc:
            c.factorial(3)
        assert str(exc.value) == "q:-1: 2_psi = 0"
        assert c.factor(3) == 1

    def test_factorial_past_the_last_custom_factor(self):
        with pytest.raises(DomainError) as exc:
            ctx("custom:1,2,3").factorial(5)
        assert str(exc.value) == "custom sequence has 3 factors, index 4 requested"

    def test_factorial_is_a_reduced_fraction(self):
        # 2/3 * 3/2 = 1: the prefix products 6 and 6 share a factor
        c = ctx("custom:2/3,3/2,-5/4")
        assert [c.factorial(n) for n in range(4)] == [1, F(2, 3), 1, F(-5, 4)]
        assert c.factorial(2).denominator == 1


class TestFallingFactorial:
    def test_classical(self):
        assert ctx("classical").falling_factorial(5, 3) == 60

    def test_fibonomial(self):
        assert ctx("fib").falling_factorial(5, 2) == 15

    def test_empty_product(self):
        assert ctx("q:7").falling_factorial(7, 0) == 1

    def test_classical_closed_form(self):
        c = ctx("classical")
        for x in range(1, 10):
            for k in range(x + 1):
                expected = F(math.factorial(x), math.factorial(x - k))
                assert c.falling_factorial(x, k) == expected

    def test_index_below_one_rejected(self):
        with pytest.raises(DomainError):
            ctx("classical").falling_factorial(3, 4)


class TestAdmissibilityCheck:
    def test_classical_passes(self):
        assert admissibility_check(ctx("classical"), 64).ok

    def test_q_minus_one_fails_at_two(self):
        report = admissibility_check(ctx("q:-1"), 2)
        assert not report.ok
        assert report.first_zero == 2

    def test_custom_zero(self):
        report = admissibility_check(ctx("custom:1,1/2,0"), 3)
        assert report.first_zero == 3

    def test_custom_exhaustion_reported_not_raised(self):
        report = admissibility_check(ctx("custom:1,2"), 5)
        assert report.first_zero == 3


class TestMemoization:
    def test_repeated_calls_identical(self):
        c = ctx("fib")
        first = [c.factorial(n) for n in range(12)]
        second = [c.factorial(n) for n in range(12)]
        assert first == second

    def test_shared_context_across_threads(self):
        reference = [ctx("fib").factorial(n) for n in range(1, 201)]
        shared = ctx("fib")
        results, errors = {}, []

        def worker(seed):
            order = list(range(1, 201))
            random.Random(seed).shuffle(order)
            try:
                results[seed] = {n: shared.factorial(n) for n in order}
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
        for seed in range(8):
            assert [results[seed][n] for n in range(1, 201)] == reference


class TestPsiSpecGrammar:
    def test_labels_round_trip(self):
        for spec in ("classical", "fib", "q:3/2", "q:-2", "custom:1,1/2,-3"):
            assert parse_psi_spec(spec).label == spec

    def test_parse_rational(self):
        assert parse_rational("-3/4") == F(-3, 4)
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            parse_psi_spec("gauss(2)")

    @pytest.mark.parametrize("spec,position", [
        ("q:1/0", 4),
        ("q:x", 2),
        ("custom:1,2/0", 11),
        ("custom:1/2,-3,y", 14),
        (" q: 1/0", 6),
    ])
    def test_error_offsets_count_in_the_whole_spec(self, spec, position):
        with pytest.raises(ParseError) as info:
            parse_psi_spec(spec)
        assert info.value.position == position
