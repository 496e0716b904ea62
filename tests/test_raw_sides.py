"""The unreduced sides of the Leibniz, per-partes, telescoping and
exp-addition verifiers: `poly._Raw`, the one comparison `poly._raw_equal`,
the raw form of each kernel against Fraction oracles built without it,
and the reports and errors, which read as those of the canonical sides."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import antiderivative_power_one_short, doubled_derivative, polynomials, rationals
from psicalc import (
    DomainError,
    Polynomial,
    parse_poly,
    parse_psi_spec,
    verify_exp_addition,
    verify_leibniz,
    verify_per_partes,
    verify_telescoping,
)
from psicalc import operators
from psicalc.poly import _Raw, _canonical, _combine, _diagonal, _raw_equal

# negative factors, some not integers: the denominators of the sides
# take either sign
NEGATIVE = ("custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,-11/2,6,-13/7,1/3,"
            "-8,15/4,-2/11,7/6,-9/10,12,-5/8,17/3")
SPECS = ("classical", "q:2", "q:3/2", "q:-2/3", "fib", NEGATIVE)
SPEC_IDS = [*SPECS[:-1], "custom"]

ints = st.integers(-10**6, 10**6)
nonzero = ints.filter(bool)


def reduced(f):
    """A raw or canonical side in lowest terms."""
    return _canonical(list(f._num), f._den)


def unreduced(f, k):
    """f as a `_Raw` pair with every numerator and the denominator times k."""
    return _Raw([k * c for c in f._num], k * f._den)


def stripped(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class TestRawEqual:
    """`_raw_equal` is canonical `==` on the values, whatever their form."""

    @given(a=st.lists(ints, max_size=8), d=nonzero, b=st.lists(ints, max_size=8), e=nonzero,
           k=nonzero, extra=nonzero, zeros=st.integers(0, 3),
           mode=st.sampled_from(["other", "scaled", "extended"]))
    @example(a=[2, 4], d=6, b=[], e=1, k=1, extra=1, zeros=0, mode="scaled")  # 1/3, 2/3 each
    @example(a=[1, 2], d=3, b=[], e=1, k=-2, extra=5, zeros=0, mode="extended")  # a prefix
    @example(a=[], d=5, b=[], e=-7, k=1, extra=1, zeros=2, mode="other")  # two zeros
    @example(a=[3, 0, -1], d=-4, b=[], e=1, k=-3, extra=1, zeros=1, mode="scaled")
    def test_agrees_with_canonical_equality(self, a, d, b, e, k, extra, zeros, mode):
        if mode != "other":  # a's value over k d, negative for k < 0; extended past a's degree
            b, e = [k * c for c in a], k * d
            if mode == "extended":
                b += [0] * zeros + [extra]
        want = _canonical(list(a), d) == _canonical(list(b), e)
        f, g = _Raw(a + [0] * zeros, d), _Raw(list(b), e)  # trailing zeros stripped
        assert _raw_equal(f, g) is _raw_equal(g, f) is want
        assert _raw_equal(f, reduced(g)) is _raw_equal(reduced(f), g) is want

    def test_raw_strips_trailing_zeros(self):
        f = _Raw([0, 3, 0, 0], -6)
        assert (f._num, f._den) == ([0, 3], -6)
        assert _raw_equal(f, parse_poly("-1/2*x"))
        assert _Raw([0, 0], 5)._num == []


class TestRawKernels:
    """Each kernel's raw form, made canonical once, equals a Fraction oracle
    built without the kernel: the star product through the umbral map
    x^n -> (n!/n_psi!) x^n from `math.factorial` and `ctx.factorial`, the
    psi-powers from the factors `ctx.factor`.  The inputs are canonical or
    unreduced `_Raw` pairs, their denominators of either sign."""

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    @given(f=polynomials(), g=polynomials(), k=nonzero, top=st.integers(-1, 17))
    @example(f=Polynomial.constant(F(-4, 7)), g=parse_poly("x^5 + 1"), k=-3, top=2)
    def test_star(self, spec, f, g, k, top):
        ctx = parse_psi_spec(spec)
        size = len(f.coeffs) + len(g.coeffs)
        umbral = [F(math.factorial(n)) / ctx.factorial(n) for n in range(size)]
        pre = [c / umbral[n] for n, c in enumerate(g.coeffs)]  # T^-1 g
        product = [F(0)] * size
        for i, a in enumerate(f.coeffs):
            for n, c in enumerate(pre):
                product[i + n] += a * c
        want = stripped([c * umbral[j] for j, c in enumerate(product)][: max(top + 1, 0)])
        for u, v in ((f, g), (unreduced(f, k), g), (f, unreduced(g, -k))):
            got = operators._star(ctx, u, v, top, raw=True)
            assert reduced(got).coeffs == want
            assert len(got._num) == len(want)  # no trailing zero

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    @given(f=polynomials(), k=nonzero, power=st.integers(0, 3),
           kind=st.sampled_from(["derivative", "antiderivative", "x_hat"]))
    def test_psi_power(self, spec, f, k, power, kind):
        ctx = parse_psi_spec(spec)
        want = [F(0)] * (f.degree + power + 1)
        for n, c in enumerate(f.coeffs):
            if kind == "derivative":
                if n >= power:  # x^n -> n_psi ... (n-power+1)_psi x^(n-power)
                    want[n - power] = c * math.prod(map(ctx.factor, range(n - power + 1, n + 1)),
                                                    start=F(1))
                continue
            run = math.prod(map(ctx.factor, range(n + 1, n + power + 1)), start=F(1))
            scale = math.perm(n + power, power) if kind == "x_hat" else 1
            want[n + power] = c * scale / run
        want = stripped(want)
        raising, falling = kind != "derivative", kind == "x_hat"
        for u in (f, unreduced(f, k)):
            got = operators._psi_power(ctx, u, power, raising, falling, raw=True)
            assert reduced(got).coeffs == want
            assert len(got._num) == len(want)

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    @given(alpha=rationals, N=st.integers(0, 12))
    @example(alpha=F(0), N=4)  # every term past x^0 is 0
    def test_psi_exp(self, spec, alpha, N):
        ctx = parse_psi_spec(spec)
        want = stripped([alpha**n / ctx.factorial(n) for n in range(N + 1)])
        got = operators._psi_exp(ctx, alpha, N, raw=True)
        assert reduced(got).coeffs == want and len(got._num) == len(want)

    @given(fs=st.lists(st.tuples(ints, polynomials(), nonzero), max_size=4), den=nonzero)
    def test_combine(self, fs, den):
        want = [F(0)] * 9
        for c, f, _ in fs:
            for i, v in enumerate(f.coeffs):
                want[i] += c * v / den
        got = _combine([(c, unreduced(f, k)) for c, f, k in fs], den, raw=True)
        assert reduced(got).coeffs == stripped(want)

    @given(f=polynomials(), k=nonzero, weights=st.lists(nonzero, min_size=9, max_size=9),
           den=nonzero, step=st.integers(-3, 3))
    def test_diagonal(self, f, k, weights, den, step):
        want = [F(0)] * (f.degree + 4)
        for n, c in enumerate(f.coeffs):
            if n + step >= 0:
                want[n + step] = c * weights[n if step >= 0 else n + step] / den
        got = _diagonal(unreduced(f, k), weights, den, step, raw=True)
        assert reduced(got).coeffs == stripped(want)

    @given(f=polynomials(), k=nonzero, a=rationals, b=rationals)
    def test_between(self, f, k, a, b):
        value = lambda x: sum((c * x**i for i, c in enumerate(f.coeffs)), F(0))  # noqa: E731
        assert F(*operators._between(unreduced(f, k), a, b)) == value(b) - value(a)


F_, G_ = parse_poly("2/3*x^3 - x + 1/2"), parse_poly("-3/4*x^2 + 5*x - 2")
SHORT_NEGATIVE = "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,11,-13/2,6,7/2,-3"
_exp = operators.exp_poly


# verifier: (the fault, on a kernel that the canonical sides called and the
# unreduced ones still call, and the run)
FAULTS = {
    "leibniz": ((Polynomial, "derivative", doubled_derivative),
                lambda ctx: verify_leibniz(ctx, F_, G_)),
    "per-partes": ((Polynomial, "derivative", doubled_derivative),
                   lambda ctx: verify_per_partes(ctx, F_, G_, F(-1, 2), F(3, 2))),
    "telescoping": ((operators, "_psi_power", antiderivative_power_one_short),
                    lambda ctx: verify_telescoping(ctx, 2, F_)),
    "exp-addition": ((operators, "exp_poly",
                      lambda alpha, N: _exp(alpha, N) + Polynomial.monomial(min(N, 2))),
                     lambda ctx: verify_exp_addition(ctx, F(1, 2), F(-2, 3), 5)),
}

# the reports under each fault, as the canonical sides wrote them before
# the sides were built unreduced
REPORTS = {
    ("leibniz", "q:3/2"): (
        "leibniz [psi=q:3/2] cases=1 FAIL\n"
        "  at f=2/3*x^3 - x + 1/2, g=-3/4*x^2 + 5*x - 2: "
        "lhs=-192/247*x^4 + 128/19*x^3 - 19/20*x^2 - 175/16*x + 9/2 "
        "rhs=-1536/1235*x^4 + 224/19*x^3 - 17/5*x^2 - 255/16*x + 13/2"),
    ("per-partes", "q:3/2"): (
        "per-partes [psi=q:3/2, a=-1/2, b=3/2] cases=1 FAIL\n"
        "  at f=2/3*x^3 - x + 1/2, g=-3/4*x^2 + 5*x - 2, a=-1/2, b=3/2: "
        "lhs=2305573/1042340 rhs=1227399/1042340"),
    ("telescoping", "q:3/2"): (
        "telescoping [psi=q:3/2, n=2] cases=1 FAIL\n"
        "  at n=2, f=2/3*x^3 - x + 1/2: lhs=-1*x + 1/2 rhs=2/3*x^3 - 19/6*x^2 - x + 1/2"),
    ("exp-addition", "q:3/2"): (
        "exp-addition [psi=q:3/2, alpha=1/2, beta=-2/3, N=5] cases=3 FAIL\n"
        "  at alpha=1/2, beta=-2/3, degree=2: lhs=73/90 rhs=1/90"),
    ("leibniz", "custom"): (
        f"leibniz [psi={SHORT_NEGATIVE}] cases=1 FAIL\n"
        "  at f=2/3*x^3 - x + 1/2, g=-3/4*x^2 + 5*x - 2: "
        "lhs=80/7*x^4 - 64/7*x^3 + 237/20*x^2 - 335/32*x + 1/3 "
        "rhs=128/7*x^4 - 16*x^3 + 111/5*x^2 - 495/32*x + 7/3"),
    ("per-partes", "custom"): (
        f"per-partes [psi={SHORT_NEGATIVE}, a=-1/2, b=3/2] cases=1 FAIL\n"
        "  at f=2/3*x^3 - x + 1/2, g=-3/4*x^2 + 5*x - 2, a=-1/2, b=3/2: "
        "lhs=-3919/126 rhs=185701/2520"),
    ("telescoping", "custom"): (
        f"telescoping [psi={SHORT_NEGATIVE}, n=2] cases=1 FAIL\n"
        "  at n=2, f=2/3*x^3 - x + 1/2: lhs=-1*x + 1/2 rhs=2/3*x^3 + 14/3*x^2 - x + 1/2"),
    ("exp-addition", "custom"): (
        f"exp-addition [psi={SHORT_NEGATIVE}, alpha=1/2, beta=-2/3, N=5] cases=3 FAIL\n"
        "  at alpha=1/2, beta=-2/3, degree=2: lhs=-73/30 rhs=-1/30"),
}


class TestReportsAsBefore:
    """The raw sides change no report, no error and no row of a context."""

    @pytest.mark.parametrize("name, spec", REPORTS, ids=[f"{n}-{s}" for n, s in REPORTS])
    def test_counterexample_text(self, monkeypatch, name, spec):
        patch, run = FAULTS[name]
        monkeypatch.setattr(*patch)
        ctx = parse_psi_spec(SHORT_NEGATIVE if spec == "custom" else spec)
        assert str(run(ctx)) == REPORTS[name, spec]

    # the factors each run needs: the top index its operators reach
    NEEDED = {"leibniz": 5, "per-partes": 5, "telescoping": 4, "exp-addition": 8}
    RUNS = {
        "leibniz": lambda ctx: verify_leibniz(ctx, F_, G_),
        "per-partes": lambda ctx: verify_per_partes(ctx, F_, G_, 0, 1),
        # b^k f - a b^(k+1) f is a constant: a raw difference that kept
        # x^4's place would grow the rows to 6, not 4
        "telescoping": lambda ctx, f=parse_poly("x^4 + x"): verify_telescoping(ctx, 2, f),
        "exp-addition": lambda ctx: verify_exp_addition(ctx, 1, F(1, 3), 4),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_too_short_a_custom_spec(self, name):
        factors = ["3/2", "-2", "5", "-1/3", "7", "2/9", "-4", "6"]
        for length in range(1, len(factors) + 1):
            ctx = parse_psi_spec("custom:" + ",".join(factors[:length]))
            if length < self.NEEDED[name]:
                message = f"custom sequence has {length} factors, index {length + 1} requested"
                with pytest.raises(DomainError, match=f"^{message}$"):
                    self.RUNS[name](ctx)
            else:
                assert self.RUNS[name](ctx).passed
            assert len(ctx.rows(0).num) == min(length, self.NEEDED[name])

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_a_pass_reduces_no_side(self, monkeypatch, name, spec):
        # only the canonical kernels the sides are built from reduce: f's
        # derivative, and exp_poly
        made, store = [], Polynomial._set
        monkeypatch.setattr(Polynomial, "_set",
                            lambda p, num, den: made.append(1) or store(p, num, den))
        assert self.RUNS[name](parse_psi_spec(spec)).passed
        assert len(made) == (0 if name == "telescoping" else 1)
