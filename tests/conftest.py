import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")

from psicalc import Polynomial, operators

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(*args, timeout=60, path=(), python=sys.executable):
    """`python *args` in a new interpreter with src, then `path`, as its
    PYTHONPATH: the CompletedProcess (text), checked for no traceback."""
    proc = subprocess.run(
        [python, *args], env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (SRC, *path)))},
        capture_output=True, text=True, timeout=timeout,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def assert_umbral_row(rows):
    """The umbral row of a `PsiRows` snapshot: as long as the other
    prefix-product rows, one longer than the factor rows, and n! B_n at
    every n, B_n = den_prod[n]."""
    assert len(rows.umbral) == len(rows.num_prod) == len(rows.den_prod) == len(rows.num) + 1
    assert list(rows.umbral) == [math.factorial(n) * b for n, b in enumerate(rows.den_prod)]


def polynomials(max_degree=8):
    return st.lists(rationals, max_size=max_degree + 1).map(Polynomial)


# faults on kernels that a verifier's sides call whether they are built
# canonical or unreduced, for monkeypatching
_power, _derivative = operators._psi_power, Polynomial.derivative


def antiderivative_power_one_short(ctx, f, k, raising, *args, **kwargs):
    """`operators._psi_power` with every antiderivative power k >= 2 made k - 1."""
    return _power(ctx, f, k - 1 if raising and k > 1 else k, raising, *args, **kwargs)


def doubled_derivative(self, k=1):
    """`Polynomial.derivative`, doubled."""
    return _derivative(self, k) * 2


@pytest.fixture
def digit_limit():
    """A caller's own int-to-str digit limit, restored after the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    yield 4321
    sys.set_int_max_str_digits(before)
