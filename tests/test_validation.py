"""Every argument check in the library raises its documented error type
with its own message."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from psicalc import (
    AdmissibleSequence,
    HahnParams,
    LatticeFunction,
    Polynomial,
    bernoulli_identity_sweep,
    bernoulli_maclaurin,
    definite_sum,
    falling_factorial_poly,
    falling_factorial_value,
    iterated_sum,
    jackson_integral_numeric,
    newton_expansion,
    psi_bernoulli_taylor,
    psi_pair,
    taylor_classical,
    verify_bernoulli_identity,
    verify_commutator,
    verify_hahn_reduction,
    verify_telescoping,
)
from psicalc.errors import AdmissibilityError, DomainError, ParseError, RangeError
from psicalc.operators import psi_exp, psi_power
from psicalc.sequences import admissibility_check, parse_psi_spec

X = Polynomial.x()
LAT = LatticeFunction.from_polynomial(X)
TABLE = LatticeFunction.from_table([1, 2, 3])
CTX = parse_psi_spec("q:2")
PAIR = psi_pair(CTX)
ORDER = "expansion order must be nonnegative"
SWEEP = "sweep bound must be nonnegative"
BACKING = "exactly one of polynomial/table must be given"

CASES = {
    # discrete
    "definite-sum-below-0": (lambda: definite_sum(LAT, -1), RangeError,
                             "definite sum upper index must be >= 0, got -1"),
    "iterated-sum-depth-0": (lambda: iterated_sum(LAT, 0, 3), RangeError,
                             "iterated sum depth must be >= 1, got 0"),
    "empty-table": (lambda: LatticeFunction.from_table([]), RangeError,
                    "table-backed function needs at least one value"),
    "both-backings": (lambda: LatticeFunction(polynomial=X, table=[1]), ValueError, BACKING),
    "no-backing": (lambda: LatticeFunction(), ValueError, BACKING),
    "newton-of-a-table": (lambda: newton_expansion(TABLE, 1), RangeError,
                          "newton_expansion requires a polynomial-backed function"),
    "maclaurin-of-a-table": (lambda: bernoulli_maclaurin(TABLE, 1, 1), RangeError,
                             "bernoulli_maclaurin requires a polynomial-backed function"),
    "maclaurin-about-0": (lambda: bernoulli_maclaurin(LAT, 0, 1), RangeError,
                          "expansion point must be a positive integer, got 0"),
    "maclaurin-past-max-alpha": (lambda: bernoulli_maclaurin(LAT, 10_001, 1), DomainError,
                                 "expansion point must be at most 10000"),
    # a negative order in each expansion
    "taylor-order": (lambda: taylor_classical(X, 0, -1), ValueError, ORDER),
    "psi-order": (lambda: psi_bernoulli_taylor(CTX, X, 0, 1, -1), ValueError, ORDER),
    "newton-order": (lambda: newton_expansion(LAT, -1), ValueError, ORDER),
    "maclaurin-order": (lambda: bernoulli_maclaurin(LAT, 1, -1), ValueError, ORDER),
    # operators
    "psi-power": (lambda: psi_power(CTX, -1), ValueError, "psi_power index must be nonnegative"),
    "psi-exp": (lambda: psi_exp(CTX, 1, -1), ValueError, "truncation order must be nonnegative"),
    # a negative sweep bound, which would pass with no case
    "commutator-bound": (lambda: verify_commutator(PAIR, -1), ValueError, SWEEP),
    "bernoulli-degree-bound": (lambda: bernoulli_identity_sweep(PAIR, -1, 2), ValueError, SWEEP),
    "bernoulli-order-bound": (lambda: bernoulli_identity_sweep(PAIR, 2, -1), ValueError, SWEEP),
    "telescoping-bound": (lambda: verify_telescoping(CTX, -1, X), ValueError, SWEEP),
    "hahn-reduction-bound": (lambda: verify_hahn_reduction(HahnParams(2, 0), -1), ValueError,
                             SWEEP),
    "bernoulli-identity-order": (lambda: verify_bernoulli_identity(PAIR, -1, X), ValueError,
                                 SWEEP),
    # sequences
    "factorial": (lambda: CTX.factorial(-1), DomainError, "n_psi! requires n >= 0, got -1"),
    "falling-factorial": (lambda: CTX.falling_factorial(3, -1), DomainError,
                          "falling factorial length must be >= 0, got -1"),
    "falling-factorial-poly": (lambda: falling_factorial_poly(-2), DomainError,
                               "falling factorial length must be >= 0, got -2"),
    "falling-factorial-value": (lambda: falling_factorial_value(3, -2), DomainError,
                                "falling factorial length must be >= 0, got -2"),
    "admissibility-bound": (lambda: admissibility_check(CTX, 0), DomainError,
                            "admissibility bound must be >= 1, got 0"),
    "custom-without-factors": (lambda: parse_psi_spec("custom:"), ParseError,
                               "custom psi-spec needs at least one factor (at offset 7)"),
    "raw-factor-0": (lambda: AdmissibleSequence.classical().raw_factor(0), DomainError,
                     "sequence index must be a positive integer, got 0"),
    # poly
    "negative-monomial": (lambda: Polynomial.monomial(-1), ValueError,
                          "monomial degree must be nonnegative"),
    "negative-power": (lambda: X ** -1, ValueError, "negative polynomial power"),
    "division-by-zero": (lambda: divmod(X, Polynomial()), ZeroDivisionError,
                         "polynomial division by zero"),
}


@pytest.mark.parametrize("call,error,message", CASES.values(), ids=CASES)
def test_refused_with_its_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# the same checks at a user value of 5000 digits, past a caller's own
# int-to-str limit: the message writes every digit through `poly._digits`
BIG = 10**4999 + 7
D = "1" + "0" * 4998 + "7"  # those of BIG
LONG_CASES = {
    # discrete
    "table-argument": (lambda: TABLE(BIG), RangeError, f"argument {D} outside table range [0, 2]"),
    "table-range": (lambda: LatticeFunction.from_table([1], start=-BIG)(0), RangeError,
                    f"argument 0 outside table range [-{D}, -{D}]"),
    "definite-sum-index": (lambda: definite_sum(LAT, -BIG), RangeError,
                           f"definite sum upper index must be >= 0, got -{D}"),
    "iterated-sum-depth": (lambda: iterated_sum(LAT, -BIG, 3), RangeError,
                           f"iterated sum depth must be >= 1, got -{D}"),
    "falling-factorial-poly": (lambda: falling_factorial_poly(-BIG), DomainError,
                               f"falling factorial length must be >= 0, got -{D}"),
    "falling-factorial-value": (lambda: falling_factorial_value(3, -BIG), DomainError,
                                f"falling factorial length must be >= 0, got -{D}"),
    "maclaurin-alpha": (lambda: bernoulli_maclaurin(LAT, -BIG, 1), RangeError,
                        f"expansion point must be a positive integer, got -{D}"),
    # hahn
    "jackson-q": (lambda: jackson_integral_numeric(lambda t: t, F(BIG, 3), 1, 1e-9), DomainError,
                  f"numeric Jackson integral needs 0 < q < 1, got {D}/3"),
    # sequences
    "raw-factor-index": (lambda: AdmissibleSequence.classical().raw_factor(-BIG), DomainError,
                         f"sequence index must be a positive integer, got -{D}"),
    "custom-index": (lambda: AdmissibleSequence.custom([1]).raw_factor(BIG), DomainError,
                     f"custom sequence has 1 factors, index {D} requested"),
    "factor-index": (lambda: CTX.factor(-BIG), DomainError, f"n_psi requires n >= 1, got -{D}"),
    "zero-factor": (lambda: parse_psi_spec("q:-1").factor(BIG + 1), AdmissibilityError,
                    f"q:-1: {D[:-1]}8_psi = 0"),
    "factorial": (lambda: CTX.factorial(-BIG), DomainError, f"n_psi! requires n >= 0, got -{D}"),
    "falling-factorial-length": (lambda: CTX.falling_factorial(3, -BIG), DomainError,
                                 f"falling factorial length must be >= 0, got -{D}"),
    "falling-factorial-index": (lambda: CTX.falling_factorial(3, BIG), DomainError,
                                f"falling factorial 3^({D}) would hit a non-positive index"),
    "admissibility-bound": (lambda: admissibility_check(CTX, -BIG), DomainError,
                            f"admissibility bound must be >= 1, got -{D}"),
}


@pytest.mark.parametrize("call,error,message", LONG_CASES.values(), ids=LONG_CASES)
def test_refused_with_every_digit(digit_limit, call, error, message):
    test_refused_with_its_message(call, error, message)
    assert sys.get_int_max_str_digits() == digit_limit


def test_polynomial_equals_only_numbers_and_polynomials():
    assert Polynomial.constant(3) == 3 and X != 3
    assert X.__eq__("x") is NotImplemented and (X == "x") is False


def test_order_past_the_limit_before_any_work():
    # a fresh interpreter under a timeout: an unchecked order of 10^30
    # overflows padding the terms list, or sums for ever in maclaurin
    probe = (
        "from psicalc import *\n"
        "from psicalc.expansions import MAX_ORDER\n"
        "X, n = Polynomial.x(), 10**30\n"
        "LAT = LatticeFunction.from_polynomial(X)\n"
        "for call in (lambda: taylor_classical(X, 0, n),\n"
        "             lambda: psi_bernoulli_taylor(parse_psi_spec('q:2'), X, 0, 1, n),\n"
        "             lambda: newton_expansion(LAT, n),\n"
        "             lambda: bernoulli_maclaurin(LAT, 2, n),\n"
        "             lambda: taylor_classical(X, 0, MAX_ORDER + 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except DomainError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "expansion order must be at most 10000\n" * 5


def test_maclaurin_point_past_the_limit_before_any_work():
    # a fresh interpreter under a timeout: the remainder sums alpha terms
    probe = (
        "from psicalc import *\n"
        "LAT = LatticeFunction.from_polynomial(Polynomial.x() ** 64)\n"
        "for alpha in (10**7, 10**2000):\n"
        "    try:\n"
        "        bernoulli_maclaurin(LAT, alpha, 64)\n"
        "    except DomainError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "expansion point must be at most 10000\n" * 2
