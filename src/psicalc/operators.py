"""The psi-calculus operator algebra.

Linear operators on polynomials: the psi-derivative, the deformed
multiplication operator x_hat, the psi-antiderivative, the star product
f(x_hat)g, psi-powers and truncated psi-exponentials, the umbral
coefficient map, and exact verifiers for the identities they satisfy
(commutator, telescoping, Bernoulli, Leibniz, exponential addition,
integration by parts, the fundamental theorem, and the two classical
series for the divided-difference and evaluation functionals).

Everything here is exact; verifiers return reports instead of raising on
a failed identity.  Every verifier of the package, here and in `hahn`
and `expansions`, hands its cases to one driver, `_sweep`, which stops
at the first failing case and builds the report.  Four verifiers build
their sides as unreduced integer pairs, `poly._Raw`, and compare them
with no gcd of a polynomial; a mismatch reduces each once (`_settle`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, compress

from .errors import DomainError, InternalError
from .poly import (
    _ZERO, Polynomial, _Raw, _aligned, _canonical, _combine, _diagonal, _difference, _digits,
    _one_term, _pack, _rational, _raw_equal, _reduced, _term, _value, _x_shift_back,
)
from .record import Record
from .sequences import PsiContext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from .poly import Scalar

    PolyOp = Callable[[Polynomial], Polynomial]


# -- basic operators ------------------------------------------------------

def psi_derivative(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> n_psi x^(n-1), extended linearly; constants map to 0.  The
    k-th power is one pass too: x^n -> (n_psi!/(n-k)_psi!) x^(n-k)."""
    return _psi_power(ctx, f, k, False)


def x_hat_psi(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> ((n+1)/(n+1)_psi) x^(n+1); images have zero constant term.
    The k-th power is one pass too:
    x^n -> ((n+k)!/n!) (n_psi!/(n+k)_psi!) x^(n+k)."""
    return _psi_power(ctx, f, k, True, True)


def psi_antiderivative(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> x^(n+1)/(n+1)_psi; the right inverse of the psi-derivative.
    The k-th power is one pass too: x^n -> (n_psi!/(n+k)_psi!) x^(n+k)."""
    return _psi_power(ctx, f, k, True)


def _psi_power(
    ctx: PsiContext, f: Polynomial, k: int, raising: bool, falling: bool = False, raw: bool = False
) -> Polynomial:
    """The k-th power of the psi-derivative (raising=False), of the
    psi-antiderivative, or of x_hat (falling=True) in one integer pass;
    the one body of all three operators.

    The run r_m = (m+1)_psi ... (m+k)_psi = (m+k)_psi!/m_psi! is one row
    for k = 1, with its cached running lcm, and a quotient of the
    prefix-product rows beyond; the derivative power maps
    x^(m+k) -> r_m x^m, the antiderivative power x^m -> x^(m+k) / r_m,
    and the x_hat power that times (m+k)!/m!: by m + 1 for k = 1, and
    beyond it together with r_m's denominator, as the one window
    W_(m+k) // W_m of the umbral row W_n = n! B_n.  The rows are grown to
    the top index the k single steps would reach, so a bad factor raises
    the same error; a snapshot `ctx._rows` that already reaches top is read
    with no call.  A one-term f = c x^d, its degree read as len - 1, maps over
    the divisor of its own run r_m, m = top - k, to one `poly._term`: no
    lcm, and one gcd of two ints.  Any other f is weighed over the lcm of
    the whole run (for k = 1 the cached one), except that a raising power of
    an f that is mostly zeros weighs only the runs of its terms: their
    divisors, the numerators of the n_psi, share few factors (for Gauss q
    they are those of the q-integers), so the lcm of a few of them is far
    smaller than that of all, and each weight of a zero coefficient is
    multiplied by 0 whether or not it is exact.  The derivative power's
    divisors are the denominators, whose lcm for every built-in family is
    that of the top index, one of f's terms, so it keeps the whole run.
    f may be a `poly._Raw` pair; raw=True leaves a weighed one unreduced.
    """
    if k < 0:
        raise ValueError("operator power must be nonnegative")
    if not k:
        return f
    cs = f._num
    d = len(cs) - 1
    top = d + k if raising else d
    count = top - k + 1  # the coefficients kept
    if count < 1:
        ctx.rows(max(d, 0))
        return _ZERO
    rows = ctx._rows
    if len(rows.num) < top:
        rows = ctx.rows(top)
    zeros = cs.count(0)
    if zeros == d:  # one term c x^d: r_m = x / y
        m = count - 1
        if k == 1:
            x, y = rows.num[m], rows.den[m]
            if falling:  # times (m+1)!/m!
                y *= top
        else:
            a, b = rows.num_prod, rows.umbral if falling else rows.den_prod
            x, y = a[m + k] // a[m], b[m + k] // b[m]
        if not raising:
            return _term(m, cs[d] * x, f._den * y)
        return _term(top, cs[d] * y, f._den * x)
    if k == 1:
        num, den = rows.num, rows.den
    else:
        a, b = rows.num_prod, rows.umbral if falling else rows.den_prod
        num = [a[m + k] // a[m] for m in range(count)]
        den = [b[m + k] // b[m] for m in range(count)]
    if raising and 2 * zeros > len(cs):  # mostly zeros: weigh only the terms
        lcm = math.lcm(*compress(num, cs))
    elif k == 1:
        lcm = (rows.num_lcm if raising else rows.den_lcm)[top - 1]
    else:
        lcm = math.lcm(*(num if raising else den))
    if not raising:
        return _diagonal(f, [x * (lcm // y) for x, y in zip(num[:count], den)], lcm, -k, raw)
    if falling and k == 1:  # times m + 1
        ws = [i * y * (lcm // x) for i, x, y in zip(range(1, top + 1), num, den)]
    else:
        ws = [y * (lcm // x) for x, y in zip(num[:count], den)]
    return _diagonal(f, ws, lcm, k, raw)


def psi_definite_integral(ctx: PsiContext, f: Polynomial, a: Scalar, b: Scalar) -> Fraction:
    """F(b) - F(a) for F the psi-antiderivative of f, left unreduced: both
    endpoints are `poly._value` pairs, and their difference is reduced once."""
    return Fraction(*_between(_psi_power(ctx, f, 1, True, raw=True), _rational(a), _rational(b)))


def _between(f: Polynomial, a: Scalar, b: Scalar) -> tuple[int, int]:
    """f(b) - f(a), f canonical or `_Raw`, as an unreduced pair of ints;
    its denominator is negative when a `_Raw` f's is (`poly._value`)."""
    u, s = _value(f, b.numerator, b.denominator)
    v, t = _value(f, a.numerator, a.denominator)
    return u * t - v * s, s * t


def star_psi(ctx: PsiContext, f: Polynomial, g: Polynomial) -> Polynomial:
    """The noncommutative product f(x_hat) g.

    x_hat is x conjugated by the umbral map T: x^n -> (n!/n_psi!) x^n
    (`umbral_tilde`), so f(x_hat) = T f T^-1 and the product is
    T(f * T^-1 g), one integer pass: `_star` at the top degree
    deg f + deg g.  `verify_exp_addition` compares only the degrees <= N
    of a degree-2N product, so it calls `_star` at N and forms those
    over A_N.
    """
    return _star(ctx, f, g)


def _star(
    ctx: PsiContext, f: Polynomial, g: Polynomial, top: int | None = None, raw: bool = False
) -> Polynomial:
    """star_psi(ctx, f, g).truncate(top), forming only the degrees <= top,
    all of them for top=None.

    With n_psi! = A_n / B_n from the prefix-product rows and the umbral
    row W_n = n! B_n, so that n!/n_psi! = W_n / A_n, t = deg f + deg g,
    u = min(top, t) the degrees formed and d = min(deg g, u): T^-1 g has
    the numerators g_n A_n (W_d / W_n), n <= d, over W_d; their schoolbook
    product with f's numerators, pairs i + n <= u only, maps forward by
    x^j -> W_j (A_u / A_j) over A_u, and the result is made canonical once
    (left `poly._Raw` for raw=True; f and g may be `_Raw`).
    The rows are grown to t, the top index deg f single x_hat steps would
    reach, whatever top is, so a bad factor raises the same error as the
    whole product; a constant f or a zero g needs none.
    """
    fn, gn = f._num, g._num
    if top is None:
        top = len(fn) + len(gn)
    if len(fn) < 2 or not gn:
        out = [fn[0] * c for c in gn[: max(top + 1, 0)]] if fn else []
        return (_Raw if raw else _canonical)(out, f._den * g._den)
    d = len(gn) - 1
    t = len(fn) - 1 + d
    rows = ctx.rows(t)
    u = min(top, t)
    if u < 0:
        return _ZERO
    d = min(d, u)
    a, w = rows.num_prod, rows.umbral
    wd = w[d]
    # a tuple, so that a row's slice of all of it is h itself, not a copy
    h = tuple([c * a[n] * (wd // w[n]) for n, c in enumerate(gn[: d + 1])])
    out = [0] * (u + 1)
    for i, c in enumerate(fn[: u + 1]):
        if c:
            for j, v in enumerate(h[: u + 1 - i], i):
                out[j] += c * v
    au = a[u]
    out = [v * w[j] * (au // a[j]) for j, v in enumerate(out)]
    return (_Raw if raw else _canonical)(out, f._den * g._den * wd * au)


def psi_power(ctx: PsiContext, n: int) -> Polynomial:
    """The n-th star power of x: (n!/n_psi!) x^n = (W_n / A_n) x^n, from
    the umbral and prefix-product rows."""
    if n < 0:
        raise ValueError("psi_power index must be nonnegative")
    rows = ctx.rows(n)
    return _term(n, rows.umbral[n], rows.num_prod[n])


def umbral_tilde(ctx: PsiContext, g: Polynomial) -> Polynomial:
    """The umbral map T: g -> g(x_hat) 1, which scales the x^n coefficient
    by n!/n_psi!.  It is star_psi(ctx, g, 1), whose `_star` pass is then its
    forward map alone: W_n (A_d / A_n) over A_d, for d the degree of g."""
    return _star(ctx, g, Polynomial.constant(1))


def psi_exp(ctx: PsiContext, alpha: Scalar, N: int) -> Polynomial:
    """Degree-N truncation of the psi-exponential: sum a^n x^n / n_psi!.
    With a = p/s and n_psi! = A_n / B_n from the prefix-product rows, the
    x^n coefficient is p^n s^(N-n) B_n (A_N / A_n) over s^N A_N."""
    return _psi_exp(ctx, alpha, N)


def _psi_exp(ctx: PsiContext, alpha: Scalar, N: int, raw: bool = False) -> Polynomial:
    """`psi_exp`, left `poly._Raw` for raw=True."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    alpha = Fraction(_rational(alpha))
    p, s = alpha.numerator, alpha.denominator
    rows = ctx.rows(N)
    a, b = rows.num_prod, rows.den_prod
    num = [p**n * s ** (N - n) * b[n] * (a[N] // a[n]) for n in range(N + 1)]
    return (_Raw if raw else _canonical)(num, s**N * a[N])


def exp_poly(alpha: Scalar, N: int) -> Polynomial:
    """Degree-N truncation of the ordinary exponential series, `psi_exp`
    on the classical sequence without a context: with a = p/s, the x^n
    coefficient is p^n s^(N-n) (N!/n!) over s^N N!, one integer pass."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    alpha = Fraction(_rational(alpha))
    p, s = alpha.numerator, alpha.denominator
    w = list(accumulate(range(N, 0, -1), lambda v, n: v * n * s, initial=1))  # s^k N!/(N-k)!
    return _canonical([p**n * w[N - n] for n in range(N + 1)], w[N])


def divided_difference_zero(f: Polynomial) -> Polynomial:
    """x^n -> x^(n-1) for n >= 1, constants -> 0; equals (f(x) - f(0))/x."""
    return _canonical(list(f._num[1:]), f._den)


# -- GHW pairs -------------------------------------------------------------

class GhwPair(Record):
    """A degree-lowering/degree-raising operator pair with [lower, raiser] = 1."""

    __slots__ = ("name", "lower", "raiser")
    name: str
    lower: PolyOp
    raiser: PolyOp


def derivative_pair(y: Scalar = 0) -> GhwPair:
    """The classical pair: d/dx with multiplication by (x - y).  The
    raiser's product has a degree-1 factor, so `Polynomial.__mul__` makes
    it in one pass over the numerators of f and one gcd
    (`poly._times_line`)."""
    y = _rational(y)
    x_y = Polynomial([-y, 1])  # built once per pair
    return GhwPair(
        name=f"D, x-({_digits(y)})",
        lower=lambda f: f.derivative(),
        raiser=lambda f: x_y * f,
    )


def delta_pair() -> GhwPair:
    """The forward difference with x_hat composed with the backward shift,
    both on `poly`'s packed unit shift: the lower f(x+1) - f(x) is
    `poly._difference`, one shift and one subtraction of the numerators,
    and the raiser x E^-1 f is `poly._x_shift_back`, the numerators of
    f(x - 1) one place up; each makes at most one gcd, none for an integer
    f, and the shift of a one-term f is one `pow`."""
    return GhwPair(
        name="Delta, x*E^-1",
        lower=lambda f: _difference(f, 1),
        raiser=_x_shift_back,
    )


def psi_pair(ctx: PsiContext) -> GhwPair:
    """The psi-derivative with the deformed multiplication operator."""
    return GhwPair(
        name=f"psi-derivative, x_hat ({ctx.label})",
        lower=lambda f: psi_derivative(ctx, f),
        raiser=lambda f: x_hat_psi(ctx, f),
    )


# -- verification reports ---------------------------------------------------

class Counterexample(Record):
    __slots__ = ("inputs", "lhs", "rhs")
    inputs: str
    lhs: str
    rhs: str


class VerificationReport(Record):
    __slots__ = ("identity", "params", "cases", "counterexample")
    _defaults = {"counterexample": None}
    identity: str
    params: str
    cases: int
    counterexample: Counterexample | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.identity} [{self.params}] cases={self.cases} {status}"
        if self.counterexample is not None:
            ce = self.counterexample
            line += f"\n  at {ce.inputs}: lhs={ce.lhs} rhs={ce.rhs}"
        return line


def _sweep(identity: str, params: str, inputs: str, cases: Iterable) -> VerificationReport:
    """The one driver of every verifier.  A case is (values, lhs, rhs),
    values filling the `inputs` form (a tuple, or one value), or None for
    one a fast path settled without building its sides.  The sweep stops
    at the first case whose sides differ; `cases` counts the cases up to
    and including it, all of them on a pass.  Only that counterexample is
    written out (digits by `_digits`).  An empty stream is InternalError."""
    count = 0
    for case in cases:
        count += 1
        if case is not None and case[1] != case[2]:
            values, lhs, rhs = case
            text = inputs.format(*map(_digits, values if type(values) is tuple else (values,)))
            return VerificationReport(identity, params, count,
                                      Counterexample(text, _digits(lhs), _digits(rhs)))
    if not count:
        raise InternalError(f"{identity} [{params}]: a sweep with no case")
    return VerificationReport(identity, params, count, None)


def _settle(identity: str, params: str, inputs: str, values: tuple, lhs, rhs):
    """The report of a one-case verifier from its two sides, `poly._Raw`
    pairs compared by `poly._raw_equal`: a pass reduces no polynomial, and
    a mismatch reduces both sides once, for the counterexample."""
    case = None if _raw_equal(lhs, rhs) else (values, _reduced(lhs), _reduced(rhs))
    return _sweep(identity, params, inputs, [case])


# -- identity verifiers ------------------------------------------------------

def _sweep_bounds(*bounds: int) -> None:
    """Refuse a negative sweep bound, which would pass with no case."""
    if min(bounds) < 0:
        raise ValueError("sweep bound must be nonnegative")


def verify_commutator(pair: GhwPair, N: int) -> VerificationReport:
    """Check (lower raiser - raiser lower) x^m = x^m for all 0 <= m <= N.

    A passing case, with a = lower(raiser(x^m)) and b = raiser(lower(x^m)),
    has a - b = x^m, which changes one coefficient of b by an integer, so a
    and b have the same denominator.  Every pair's passing cases are
    settled on their numerators, with no a - b built (`_commutator_cases`);
    any other case compares a - b with x^m."""
    _sweep_bounds(N)
    return _sweep("commutator", f"pair={pair.name}, N={N}", "m={}",
                  _commutator_cases(pair.lower, pair.raiser, N))


def _commutator_cases(lower: PolyOp, raiser: PolyOp, N: int) -> Iterable:
    """The cases of `verify_commutator` in m order: None for one settled
    on its numerators, (m, a - b, x^m) otherwise.  A case is settled when
    a and b have one denominator, a has degree m and b at most m, their
    numerators agree below x^m (one tuple-slice comparison), and at x^m
    they differ by exactly the denominator, a b of degree below m counting
    as 0 there; that is a - b = x^m.  The operators are called in one
    order: raiser(x^m), lower, lower(x^m), raiser."""
    for m in range(N + 1):
        xm = _term(m, 1, 1)
        a = lower(raiser(xm))
        b = raiser(lower(xm))
        an, bn, den = a._num, b._num, a._den
        if (len(an) == m + 1 and len(bn) <= m + 1 and b._den == den and an[:m] == bn[:m]
                and an[m] - (bn[m] if len(bn) > m else 0) == den):
            yield None
        else:
            yield m, a - b, xm


def verify_telescoping(ctx: PsiContext, n: int, f: Polynomial) -> VerificationReport:
    """Sum_k a^k (1 - ab) b^k f = f - a^(n+1) b^(n+1) f, with a the
    psi-antiderivative and b the psi-derivative (`_settle`)."""
    _sweep_bounds(n)
    terms = []
    bk = f  # b^k f
    for k in range(n + 1):
        nxt = _psi_power(ctx, bk, 1, False, raw=True)
        step = _combine([(1, bk), (-1, _psi_power(ctx, nxt, 1, True, raw=True))], 1, True)
        terms.append((1, _psi_power(ctx, step, k, True, raw=True)))
        bk = nxt
    # bk is now b^(n+1) f
    rhs = _combine([(1, f), (-1, _psi_power(ctx, bk, n + 1, True, raw=True))], 1, True)
    return _settle("telescoping", f"psi={ctx.label}, n={n}", "n={}, f={}", (n, f),
                   _combine(terms, 1, True), rhs)


def verify_bernoulli_identity(pair: GhwPair, n: int, f: Polynomial) -> VerificationReport:
    """p Sum_k (-q)^k p^k f / k!  ==  (-q)^n p^(n+1) f / n!"""
    _sweep_bounds(n)
    acc = Polynomial()
    pk = f  # p^k f
    for k in range(n + 1):
        term = pk
        for _ in range(k):
            term = pair.raiser(term)
        sign = -1 if k % 2 else 1
        acc = acc + term * Fraction(sign, math.factorial(k))
        pk = pair.lower(pk)
    # pk is now p^(n+1) f
    rhs = pk
    for _ in range(n):
        rhs = pair.raiser(rhs)
    rhs = rhs * Fraction((-1) ** n, math.factorial(n))
    return _sweep("bernoulli", f"pair={pair.name}, n={n}", "n={}, f={}",
                  [((n, f), pair.lower(acc), rhs)])


def bernoulli_identity_sweep(pair: GhwPair, max_m: int, max_n: int) -> VerificationReport:
    """Bernoulli identity on all monomials x^m, m <= max_m, for every
    order n <= max_n.

    Both sides are scaled by n! so integer-coefficient pairs never leave
    the integers: with T(m, k) = (-q)^k p^k x^m and S_n = sum_k (n!/k!)
    T(m, k) (built by S_n = n S_(n-1) + T(m, n)), the identity reads
    p S_n = (-q)^n p^(n+1) x^m.

    The right side comes from earlier terms by linearity: with
    p x^m = sum_j c_j x^j (j <= m, since p lowers the degree),
    rhs(m, n) = sum_j c_j T(j, n), and the next term is one raiser
    application away from it: T(m, n+1) = -q rhs(m, n).  So each case
    costs one lower and at most one raiser call; the sign of
    T(., n) = -(q rhs(., n-1)) rides along in the integer passes that
    build S_n and rhs(m, n), each with one gcd.  S_n is one aligned pass
    over the numerators of S_(n-1) and T(m, n), or, when both are 0 or one
    term at x^m, one integer step over their denominators.  S_(n-1)'s
    numerator at x^m is kept from the `_term` that made it, and each T(m, n)
    is read for its one term (`_one_term`) once per order, so a one-term
    case scans two numerator tuples, T(m, n)'s and p S_n's.  When p x^m is
    one term c_j x^j, as for the derivative and psi pairs, rhs(m, n) is one
    scaled copy of T(j, n).  For the psi pairs and (D, x), T(j, n) and p S_n
    are one term at x^j as well: the case is settled on one cross-multiplied
    comparison of their coefficients, with no right side built, and the next
    column is raised from p S_n, which equals it.
    When p x^m has several terms (the Delta pair), the column T(., n) is
    brought to the lcm L of its denominators and packed at X = 2^w once
    per order (`_packed_column`), on its first such case; then
    r = sum_j c_j T(j, n) L at X is one sum of products, and the case
    passes iff pack(p S_n) den L == r times the denominator of p S_n,
    while every coefficient of both sides is a balanced base-2^w digit.
    Its right side is built by `_combine` only past that width or on
    packed values that differ; those values differing where the built
    sides agree raise InternalError.  A dense T(j, n) (the other
    derivative pairs) and a failing case build both sides.  A zero or
    one-term p x^m packs nothing.  The cases run order by order, so
    only the column T(., n) is kept; it is complete before any rhs(m, n)
    needs it, which covers c_m != 0 as well.  The cases report in (m, n)
    order, so after a failure at (m, n) only x^0 .. x^(m-1) are checked
    on.  A lower operator that raises the degree of some x^m is a
    DomainError.
    """
    _sweep_bounds(max_m, max_n)
    images = [_term(m, 1, 1) for m in range(max_m + 1)]  # T(m, n) up to its sign
    parts = []  # p x^m as ([numerators c_j != 0], [their j], denominator)
    for m, xm in enumerate(images):
        image = pair.lower(xm)
        if image.degree > m:
            raise DomainError(
                f"pair {pair.name}: the lower operator maps x^{m} to degree "
                f"{image.degree}; it must not raise the degree"
            )
        num = image._num
        parts.append(([c for c in num if c], list(compress(range(len(num)), num)), image._den))
    several = [(cs, den) for cs, _, den in parts if len(cs) > 1]  # the packed cases' parts
    sbits = max((sum(map(abs, cs)).bit_length() for cs, _ in several), default=0)
    dbits = max((den.bit_length() for _, den in several), default=0)
    partials = [Polynomial()] * (max_m + 1)  # S_(n-1) for each x^m
    heads = [0] * (max_m + 1)  # S_(n-1)'s numerator at x^m, None after an aligned pass
    cases = [None] * ((max_m + 1) * (max_n + 1))  # in (m, n) order
    top = max_m
    for n in range(max_n + 1):
        sign = -1 if n else 1  # T(., n) = sign * images
        add = operator.sub if n else operator.add
        rhss, column = [], None  # column: T(., n) packed, on its first several-term case
        ones = []  # _one_term(T(m, n), m) for each m so far
        for m in range(top + 1):
            partial, image = partials[m], images[m]  # S_n = n S_(n-1) + sign T
            s, t = heads[m], _one_term(image, m)
            ones.append(t)
            if s is not None and t is not None:  # s x^m / sd and t x^m / td
                sd, td = partial._den, image._den
                g = math.gcd(sd, td)
                partial = _term(m, n * s * (td // g) + sign * t * (sd // g), sd // g * td)
                heads[m] = partial._num[-1] if partial._num else 0
            else:
                s, t, den = _aligned(partial, image)
                s = [n * c for c in s]
                s += [0] * (len(t) - len(s))
                s[: len(t)] = map(add, s, t)
                partial = _canonical(s, den)
                heads[m] = None
            partials[m] = partial
            lhs = pair.lower(partial)
            cs, js, den = parts[m]
            differ = False  # packed sides that differ within the width
            if len(cs) == 1:  # rhs = sign c T(j, n) / den, one scaled image
                c, j = sign * cs[0], js[0]
                image, r = images[j], ones[j]
                if r is not None:  # both sides one term at x^j: settled on lhs
                    w = _one_term(lhs, j)
                    if w is not None and w * den * image._den == c * r * lhs._den:
                        rhss.append(lhs)
                        continue
                rhs = _canonical([c * v for v in image._num], image._den * den)
            else:
                if len(cs) > 1:  # lhs == rhs iff pack(lhs) den L == sign r lhs_den
                    if column is None:
                        column = _packed_column(images, sbits + dbits)
                    w, lcm, colbits, packed = column
                    scale = den * lcm
                    if max(max(map(int.bit_length, lhs._num), default=0) + scale.bit_length(),
                           sbits + colbits + lhs._den.bit_length()) + 2 < w:
                        r = sum(map(operator.mul, cs, map(packed.__getitem__, js)))
                        if _pack(lhs._num, w) * scale == sign * r * lhs._den:
                            rhss.append(lhs)
                            continue
                        differ = True
                rhs = _combine([(sign * c, images[j]) for c, j in zip(cs, js)], den)
            if lhs != rhs:
                cases[m * (max_n + 1) + n], top = ((m, n), lhs, rhs), m - 1
                break
            if differ:
                raise InternalError(f"bernoulli at m={m}, n={n}: packed sides differ where the "
                                    "exact sides agree; a width bound is wrong")
            rhss.append(rhs)
        if n < max_n:
            images = [pair.raiser(rhs) for rhs in rhss]
    return _sweep("bernoulli", f"pair={pair.name}, m<={max_m}, n<={max_n}", "m={}, n={}", cases)


def _packed_column(images: list[Polynomial], bits: int) -> tuple:
    """The images of one order of `bernoulli_identity_sweep` over the lcm L
    of their denominators, each packed at X = 2^w: (w, L, the largest
    coefficient bit length of the column, the packed values).  bits is
    that of the largest sum |c_j| plus that of the largest denominator of
    the parts p x^m = sum c_j x^j / den; w adds the column's bits, L's
    and three more, one of them the sign, so that every coefficient of
    both cross-multiplied sides of a passing case is a balanced base-2^w
    digit."""
    lcm = math.lcm(*[f._den for f in images])
    rows = [f._num if f._den == lcm else [c * (lcm // f._den) for c in f._num] for f in images]
    colbits = max((max(map(int.bit_length, row)) for row in rows if row), default=0)
    w = colbits + bits + lcm.bit_length() + 3
    return w, lcm, colbits, [_pack(row, w) for row in rows]


def verify_leibniz(ctx: PsiContext, f: Polynomial, g: Polynomial) -> VerificationReport:
    """psi-derivative of f * g = (Df) * g + f * (psi-derivative of g),
    with * the star product and D the classical derivative (`_settle`)."""
    lhs = _psi_power(ctx, _star(ctx, f, g, raw=True), 1, False, raw=True)
    left = _star(ctx, f.derivative(), g, raw=True)
    right = _star(ctx, f, _psi_power(ctx, g, 1, False, raw=True), raw=True)
    return _settle("leibniz", f"psi={ctx.label}", "f={}, g={}", (f, g),
                   lhs, _combine([(1, left), (1, right)], 1, True))


def verify_exp_addition(ctx: PsiContext, alpha: Scalar, beta: Scalar, N: int) -> VerificationReport:
    """exp(a x) * (psi-exp of b) agrees with the psi-exp of a+b up to degree N;
    the cases are the degrees 0..N, all settled at once by equal sides.
    The star product forms only its degrees <= N, over A_N (`_star`); the
    sides are unreduced pairs, compared and reduced as in `_settle`."""
    alpha, beta = Fraction(_rational(alpha)), Fraction(_rational(beta))
    lhs = _star(ctx, exp_poly(alpha, N), _psi_exp(ctx, beta, N, True), N, True)
    rhs = _psi_exp(ctx, alpha + beta, N, True)
    if _raw_equal(lhs, rhs):
        cases = [None] * (N + 1)
    else:
        lhs, rhs = _reduced(lhs), _reduced(rhs)
        cases = (((alpha, beta, j), lhs.coeff(j), rhs.coeff(j)) for j in range(N + 1))
    params = f"psi={ctx.label}, alpha={_digits(alpha)}, beta={_digits(beta)}, N={N}"
    return _sweep("exp-addition", params, "alpha={}, beta={}, degree={}", cases)


def verify_per_partes(
    ctx: PsiContext, f: Polynomial, g: Polynomial, a: Scalar, b: Scalar
) -> VerificationReport:
    """Integration by parts for the psi-integral and star product; each side
    is one number, an unreduced constant (`_settle`)."""
    a, b = Fraction(_rational(a)), Fraction(_rational(b))

    def integral(h):  # the psi-integral of h over [a, b], an unreduced pair
        return _between(_psi_power(ctx, h, 1, True, raw=True), a, b)

    w, r = integral(_star(ctx, f, _psi_power(ctx, g, 1, False, raw=True), raw=True))
    u, s = _between(_star(ctx, f, g, raw=True), a, b)
    v, t = integral(_star(ctx, f.derivative(), g, raw=True))
    return _settle("per-partes", f"psi={ctx.label}, a={_digits(a)}, b={_digits(b)}",
                   "f={}, g={}, a={}, b={}", (f, g, a, b), _Raw([w], r),
                   _Raw([u * t - v * s], s * t))


def verify_fundamental_theorem(ctx: PsiContext, f: Polynomial) -> VerificationReport:
    """psi-derivative of the psi-antiderivative is the identity."""
    return _sweep("fundamental", f"psi={ctx.label}", "f={}",
                  [(f, psi_derivative(ctx, psi_antiderivative(ctx, f)), f)])


def historical_divided_difference_sum(f: Polynomial, signed: bool = True) -> Polynomial:
    """Sum_{n>=1} (+-1)^(n-1) x^(n-1) f^(n)(x) / n!, a finite sum on
    polynomials.  The unsigned variant (signed=False) is kept so the
    failure it produces can be demonstrated."""
    terms, fn = [], f
    for n in range(1, f.degree + 1):
        fn = fn.derivative()
        sign = -1 if signed and n % 2 == 0 else 1
        terms.append((sign, Polynomial.monomial(n - 1, Fraction(1, math.factorial(n))) * fn))
    return _combine(terms)


def historical_evaluation_sum(f: Polynomial) -> Polynomial:
    """Sum_{n>=0} (-1)^n x^n f^(n)(x) / n!, a finite sum on polynomials."""
    terms, fn = [], f
    for n in range(max(f.degree, 0) + 1):
        terms.append(((-1) ** n, Polynomial.monomial(n, Fraction(1, math.factorial(n))) * fn))
        fn = fn.derivative()
    return _combine(terms)


def verify_historical_series(f: Polynomial) -> VerificationReport:
    """The two classical series: the divided-difference expansion (with
    the alternating sign) and the zero-point evaluation expansion."""
    return _sweep("historical", f"f={f}", "{}, f={}", [
        (("divided-difference", f), divided_difference_zero(f),
         historical_divided_difference_sum(f)),
        (("evaluation", f), Polynomial.constant(f(0)), historical_evaluation_sum(f))])
