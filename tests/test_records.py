"""The contract of the report and parameter records: construction by
position or keyword with the documented defaults, equality only within
one class, the hash of the field tuple, a fixed repr, and immutability."""

import pickle
import sys
from fractions import Fraction as F

import pytest

from psicalc import (
    AdmissibilityReport,
    AdmissibleSequence,
    Counterexample,
    DeltaExpansionReport,
    ExpansionReport,
    GhwPair,
    HahnParams,
    JacksonQuadrature,
    LatticeFunction,
    MaclaurinReport,
    Polynomial,
    VerificationReport,
    bernoulli_maclaurin,
    taylor_classical,
)

P = Polynomial
EXPANSION_FIELDS = ("psi_label", "alpha", "order", "terms", "partial_sum",
                    "cauchy_remainder", "oracle_remainder", "exact", "x_eval")

# class, field names in constructor order, one value per field, and the repr
CASES = [
    (AdmissibleSequence, ("kind", "q", "factors"), ("custom", None, (F(1), F(-3, 2))),
     "AdmissibleSequence(kind='custom', q=None, factors=(Fraction(1, 1), Fraction(-3, 2)))"),
    (AdmissibilityReport, ("label", "limit", "first_zero"), ("custom:1,0", 5, 2),
     "AdmissibilityReport(label='custom:1,0', limit=5, first_zero=2)"),
    (GhwPair, ("name", "lower", "raiser"), ("D", abs, len),
     "GhwPair(name='D', lower=<built-in function abs>, raiser=<built-in function len>)"),
    (Counterexample, ("inputs", "lhs", "rhs"), ("m=3", "x^2", "2*x"),
     "Counterexample(inputs='m=3', lhs='x^2', rhs='2*x')"),
    (VerificationReport, ("identity", "params", "cases", "counterexample"),
     ("leibniz", "f=x", 1, Counterexample("n=1", "1", "2")),
     "VerificationReport(identity='leibniz', params='f=x', cases=1, "
     "counterexample=Counterexample(inputs='n=1', lhs='1', rhs='2'))"),
    (ExpansionReport, EXPANSION_FIELDS,
     ("q:2", F(0), 0, (P([1]),), P([1]), P([0, 1]), P([0, 1]), True, F(1, 3)),
     "ExpansionReport(psi_label='q:2', alpha=Fraction(0, 1), order=0, "
     "terms=(Polynomial([Fraction(1, 1)]),), partial_sum=Polynomial([Fraction(1, 1)]), "
     "cauchy_remainder=Polynomial([Fraction(0, 1), Fraction(1, 1)]), "
     "oracle_remainder=Polynomial([Fraction(0, 1), Fraction(1, 1)]), exact=True, "
     "x_eval=Fraction(1, 3))"),
    (DeltaExpansionReport,
     ("order", "terms", "partial_sum", "remainder_at", "checked_points", "exact"),
     (1, (P([1]), P([0, 1])), P([1, 1]), abs, (0, 1), True),
     "DeltaExpansionReport(order=1, terms=(Polynomial([Fraction(1, 1)]), "
     "Polynomial([Fraction(0, 1), Fraction(1, 1)])), "
     "partial_sum=Polynomial([Fraction(1, 1), Fraction(1, 1)]), "
     "remainder_at=<built-in function abs>, checked_points=(0, 1), exact=True)"),
    (MaclaurinReport, ("alpha", "order", "terms", "remainder", "total", "target", "exact"),
     (3, 1, (F(1), F(-2)), F(1, 2), F(-1, 2), F(-1, 2), True),
     "MaclaurinReport(alpha=3, order=1, terms=(Fraction(1, 1), Fraction(-2, 1)), "
     "remainder=Fraction(1, 2), total=Fraction(-1, 2), target=Fraction(-1, 2), exact=True)"),
    (HahnParams, ("q", "h"), (F(2), F(1, 3)), "HahnParams(q=Fraction(2, 1), h=Fraction(1, 3))"),
    (JacksonQuadrature, ("value", "terms_used", "tail_tol", "q", "z"),
     (0.5714285714285714, 18, 1e-13, 0.5, 1.0),
     "JacksonQuadrature(value=0.5714285714285714, terms_used=18, tail_tol=1e-13, q=0.5, z=1.0)"),
]
IDS = [case[0].__name__ for case in CASES]
cases = pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)


@cases
def test_positional_and_keyword_construction(cls, names, values, text):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record


@cases
def test_bad_calls_raise_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[0]: values[0], names[-1]: values[-1]})
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=values[-1])


@pytest.mark.parametrize("short,full,text", [
    (AdmissibleSequence("classical"), AdmissibleSequence("classical", None, None),
     "AdmissibleSequence(kind='classical', q=None, factors=None)"),
    (AdmissibleSequence("gauss_q", q=F(1, 2)), AdmissibleSequence("gauss_q", F(1, 2), None),
     "AdmissibleSequence(kind='gauss_q', q=Fraction(1, 2), factors=None)"),
    (VerificationReport("commutator", "N=4", 5), VerificationReport("commutator", "N=4", 5, None),
     "VerificationReport(identity='commutator', params='N=4', cases=5, counterexample=None)"),
    (ExpansionReport("classical", F(1), 0, (), P(), P(), P(), True),
     ExpansionReport("classical", F(1), 0, (), P(), P(), P(), True, None),
     "ExpansionReport(psi_label='classical', alpha=Fraction(1, 1), order=0, terms=(), "
     "partial_sum=Polynomial([]), cauchy_remainder=Polynomial([]), "
     "oracle_remainder=Polynomial([]), exact=True, x_eval=None)"),
    (HahnParams(2, h=1), HahnParams(F(2), F(1)), "HahnParams(q=Fraction(2, 1), h=Fraction(1, 1))"),
], ids=["sequence", "sequence-keyword", "verification", "expansion", "hahn-normalised"])
def test_defaults(short, full, text):
    assert short == full
    assert repr(short) == repr(full) == text


def test_hahn_params_are_fractions():
    p = HahnParams(q=2, h=-3)
    assert type(p.q) is F and type(p.h) is F


@cases
def test_equality(cls, names, values, text):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    changed = cls(*values[:-1], 7)
    assert record != changed and not record == changed
    # a record is never equal to the tuple or list of its fields
    assert record != values and values != record and not record == values
    assert record != list(values)


@cases
def test_hash_is_the_hash_of_the_field_tuple(cls, names, values, text):
    assert hash(cls(*values)) == hash(cls(*values)) == hash(values)
    assert len({cls(*values), cls(*values)}) == 1


@cases
def test_repr(cls, names, values, text):
    assert repr(cls(*values)) == text


def test_repr_past_the_int_digit_limit(digit_limit):
    big = 10**4999 + 7  # 5000 digits
    digits = "1" + "0" * 4998 + "7"
    report = MaclaurinReport(big, 1, (F(1, big),), F(-big, 3), big, F(0), False)
    assert repr(report) == (
        f"MaclaurinReport(alpha={digits}, order=1, terms=(Fraction(1, {digits}),), "
        f"remainder=Fraction(-{digits}, 3), total={digits}, target=Fraction(0, 1), exact=False)")
    # a big expansion point, and big scalar terms from a big constant
    alpha = f"alpha=Fraction(1{'0' * 5000}, 1)"
    assert alpha in repr(taylor_classical(Polynomial.x(), 10**5000, 1))
    lattice = LatticeFunction.from_polynomial(Polynomial([10**5000]))
    assert f"terms=(Fraction(1{'0' * 5000}, 1), " in repr(bernoulli_maclaurin(lattice, 2, 1))
    assert sys.get_int_max_str_digits() == digit_limit


@cases
def test_assignment_and_deletion_raise(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert tuple(getattr(record, name) for name in names) == values


@cases
def test_match_by_position(cls, names, values, text):
    match cls(*values):
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("no positional match")


@cases
def test_pickle_round_trip(cls, names, values, text):
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record
