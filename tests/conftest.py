import sys
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")

from psicalc import Polynomial

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def polynomials(max_degree=8):
    return st.lists(rationals, max_size=max_degree + 1).map(Polynomial)


@pytest.fixture
def digit_limit():
    """A caller's own int-to-str digit limit, restored after the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    yield 4321
    sys.set_int_max_str_digits(before)
