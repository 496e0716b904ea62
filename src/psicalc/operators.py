"""The psi-calculus operator algebra.

Linear operators on polynomials: the psi-derivative, the deformed
multiplication operator x_hat, the psi-antiderivative, the star product
f(x_hat)g, psi-powers and truncated psi-exponentials, the umbral
coefficient map, and exact verifiers for the identities they satisfy
(commutator, telescoping, Bernoulli, Leibniz, exponential addition,
integration by parts, the fundamental theorem, and the two classical
series for the divided-difference and evaluation functionals).

Everything here is exact; verifiers return reports instead of raising on
a failed identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .poly import Polynomial, _canonical, _digits, _perms, _rational
from .record import Record
from .sequences import AdmissibleSequence, PsiContext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .poly import Scalar

    PolyOp = Callable[[Polynomial], Polynomial]


# -- basic operators ------------------------------------------------------

def psi_derivative(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> n_psi x^(n-1), extended linearly; constants map to 0.  The
    k-th power is one pass too: x^n -> (n_psi!/(n-k)_psi!) x^(n-k)."""
    return _psi_power(ctx, f, k, raising=False)


def x_hat_psi(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> ((n+1)/(n+1)_psi) x^(n+1); images have zero constant term.
    The k-th power is one pass too:
    x^n -> ((n+k)!/n!) (n_psi!/(n+k)_psi!) x^(n+k)."""
    return _psi_power(ctx, f, k, raising=True, falling=True)


def psi_antiderivative(ctx: PsiContext, f: Polynomial, k: int = 1) -> Polynomial:
    """x^n -> x^(n+1)/(n+1)_psi; the right inverse of the psi-derivative.
    The k-th power is one pass too: x^n -> (n_psi!/(n+k)_psi!) x^(n+k)."""
    return _psi_power(ctx, f, k, raising=True)


def _psi_power(
    ctx: PsiContext, f: Polynomial, k: int, raising: bool, falling: bool = False
) -> Polynomial:
    """The k-th power of the psi-derivative (raising=False), of the
    psi-antiderivative, or of x_hat (falling=True) in one integer pass;
    the one body of all three operators.

    The run r_m = (m+1)_psi ... (m+k)_psi = (m+k)_psi!/m_psi! is one row
    for k = 1, with its cached running lcm, and a quotient of the
    prefix-product rows beyond; the derivative power maps
    x^(m+k) -> r_m x^m, the antiderivative power x^m -> x^(m+k) / r_m,
    and the x_hat power that times (m+k)!/m!.  The rows are grown to the
    top index the k single steps would reach, so a bad factor raises the
    same error.
    """
    if k < 0:
        raise ValueError("operator power must be nonnegative")
    if not k:
        return f
    d = f.degree
    top = d + k if raising else d
    count = top - k + 1  # the coefficients kept
    if count < 1:
        ctx.rows(max(d, 0))
        return Polynomial()
    rows = ctx.rows(top)
    if k == 1:
        num, den = rows.num, rows.den
        lcm = (rows.num_lcm if raising else rows.den_lcm)[top - 1]
    else:
        a, b = rows.num_prod, rows.den_prod
        num = [a[m + k] // a[m] for m in range(count)]
        den = [b[m + k] // b[m] for m in range(count)]
        lcm = math.lcm(*(num if raising else den))
    if not raising:
        ws = num if lcm == 1 else [x * (lcm // y) for x, y in zip(num[:count], den)]
        return f._diagonal(ws, lcm, -k)
    # no shortcut for lcm = 1 here: a divisor num[m] may still be -1
    if falling:  # times (m+k)!/m!
        ws = [i * y * (lcm // x) for i, x, y in zip(_perms(top + 1, k), num, den)]
    else:
        ws = [y * (lcm // x) for x, y in zip(num[:count], den)]
    return f._diagonal(ws, lcm, k)


def psi_definite_integral(ctx: PsiContext, f: Polynomial, a: Scalar, b: Scalar) -> Fraction:
    anti = psi_antiderivative(ctx, f)
    return anti(b) - anti(a)


def star_psi(ctx: PsiContext, f: Polynomial, g: Polynomial) -> Polynomial:
    """The noncommutative product f(x_hat) g.

    Operator powers of x_hat are built by repeated application, so
    degree-raising never truncates.
    """
    acc = Polynomial()
    image = g
    for k, c in enumerate(f.coeffs):
        if k > 0:
            image = x_hat_psi(ctx, image)
        if c:
            acc = acc + c * image
    return acc


def psi_power(ctx: PsiContext, n: int) -> Polynomial:
    """The n-th star power of x: (n!/n_psi!) x^n."""
    if n < 0:
        raise ValueError("psi_power index must be nonnegative")
    return Polynomial.monomial(n, Fraction(math.factorial(n)) / ctx.factorial(n))


def umbral_tilde(ctx: PsiContext, g: Polynomial) -> Polynomial:
    """The umbral map g -> g(x_hat) 1: scales the x^n coefficient by n!/n_psi!.
    With n_psi! = A_n / B_n from the prefix-product rows and d the degree,
    that is n! B_n (A_d / A_n) over A_d."""
    d = max(g.degree, 0)
    rows = ctx.rows(d)
    a, b = rows.num_prod, rows.den_prod
    return g._diagonal([math.factorial(n) * b[n] * (a[d] // a[n]) for n in range(d + 1)], a[d], 0)


def psi_exp(ctx: PsiContext, alpha: Scalar, N: int) -> Polynomial:
    """Degree-N truncation of the psi-exponential: sum a^n x^n / n_psi!.
    With a = p/s and n_psi! = A_n / B_n from the prefix-product rows, the
    x^n coefficient is p^n s^(N-n) B_n (A_N / A_n) over s^N A_N."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    alpha = Fraction(_rational(alpha))
    p, s = alpha.numerator, alpha.denominator
    rows = ctx.rows(N)
    a, b = rows.num_prod, rows.den_prod
    return _canonical(
        [p**n * s ** (N - n) * b[n] * (a[N] // a[n]) for n in range(N + 1)], s**N * a[N]
    )


def exp_poly(alpha: Scalar, N: int) -> Polynomial:
    """Degree-N truncation of the ordinary exponential series."""
    return psi_exp(PsiContext(AdmissibleSequence.classical()), alpha, N)


def divided_difference_zero(f: Polynomial) -> Polynomial:
    """x^n -> x^(n-1) for n >= 1, constants -> 0; equals (f(x) - f(0))/x."""
    return Polynomial(f.coeffs[1:])


# -- GHW pairs -------------------------------------------------------------

class GhwPair(Record):
    """A degree-lowering/degree-raising operator pair with [lower, raiser] = 1."""

    __slots__ = ("name", "lower", "raiser")
    name: str
    lower: PolyOp
    raiser: PolyOp


def derivative_pair(y: Scalar = 0) -> GhwPair:
    """The classical pair: d/dx with multiplication by (x - y)."""
    y = _rational(y)
    x = Polynomial.x()
    return GhwPair(
        name=f"D, x-({y})",
        lower=lambda f: f.derivative(),
        raiser=lambda f: (x - y) * f,
    )


def delta_pair() -> GhwPair:
    """The forward difference with x_hat composed with the backward shift."""
    x = Polynomial.x()
    return GhwPair(
        name="Delta, x*E^-1",
        lower=lambda f: f.compose_affine(1, 1) - f,
        raiser=lambda f: x * f.compose_affine(1, -1),
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


def _report(identity: str, params: str, cases: int, failures) -> VerificationReport:
    """failures: list of (inputs, lhs, rhs) tuples; first one is kept."""
    ce = None
    if failures:
        ce = Counterexample(*map(_digits, failures[0]))
    return VerificationReport(identity, params, cases, ce)


# -- identity verifiers ------------------------------------------------------

def verify_commutator(pair: GhwPair, N: int) -> VerificationReport:
    """Check (lower raiser - raiser lower) x^m = x^m for all 0 <= m <= N."""
    failures = []
    for m in range(N + 1):
        xm = Polynomial.monomial(m)
        lhs = pair.lower(pair.raiser(xm)) - pair.raiser(pair.lower(xm))
        if lhs != xm:
            failures.append((f"m={m}", lhs, xm))
            break
    return _report("commutator", f"pair={pair.name}, N={N}", N + 1, failures)


def verify_telescoping(ctx: PsiContext, n: int, f: Polynomial) -> VerificationReport:
    """Sum_k a^k (1 - ab) b^k f = f - a^(n+1) b^(n+1) f, with a the
    psi-antiderivative and b the psi-derivative."""
    lhs = Polynomial()
    bk = f  # b^k f
    for k in range(n + 1):
        nxt = psi_derivative(ctx, bk)
        lhs = lhs + psi_antiderivative(ctx, bk - psi_antiderivative(ctx, nxt), k)
        bk = nxt
    # bk is now b^(n+1) f
    rhs = f - psi_antiderivative(ctx, bk, n + 1)
    failures = [] if lhs == rhs else [(f"n={n}, f={f}", lhs, rhs)]
    return _report("telescoping", f"psi={ctx.label}, n={n}", 1, failures)


def verify_bernoulli_identity(pair: GhwPair, n: int, f: Polynomial) -> VerificationReport:
    """p Sum_k (-q)^k p^k f / k!  ==  (-q)^n p^(n+1) f / n!"""
    acc = Polynomial()
    pk = f  # p^k f
    for k in range(n + 1):
        term = pk
        for _ in range(k):
            term = pair.raiser(term)
        sign = -1 if k % 2 else 1
        acc = acc + term * Fraction(sign, math.factorial(k))
        pk = pair.lower(pk)
    lhs = pair.lower(acc)
    # pk is now p^(n+1) f
    rhs = pk
    for _ in range(n):
        rhs = pair.raiser(rhs)
    rhs = rhs * Fraction((-1) ** n, math.factorial(n))
    failures = [] if lhs == rhs else [(f"n={n}, f={f}", lhs, rhs)]
    return _report("bernoulli", f"pair={pair.name}, n={n}", 1, failures)


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
    costs one lower and at most one raiser call.  The cases run order by
    order, so only the column T(., n) is kept; it is complete before any
    rhs(m, n) needs it, which covers c_m != 0 as well.  The report is
    that of the (m, n) order: its first counterexample and the cases up
    to it.  A lower operator that raises the degree of some x^m is a
    DomainError.
    """
    terms = [Polynomial.monomial(m) for m in range(max_m + 1)]  # T(m, n)
    parts = []  # p x^m as [(c_j, j)]
    for m, xm in enumerate(terms):
        image = pair.lower(xm)
        if image.degree > m:
            raise DomainError(
                f"pair {pair.name}: the lower operator maps x^{m} to degree "
                f"{image.degree}; it must not raise the degree"
            )
        parts.append([(c, j) for j, c in enumerate(image.coeffs) if c])
    partials = [Polynomial()] * (max_m + 1)  # S_(n-1) for each x^m
    first = None  # the counterexample first in (m, n) order so far
    top = max_m  # only a counterexample below x^(top+1) can come before it
    for n in range(max_n + 1):
        rhss = []
        for m in range(top + 1):
            partials[m] = partials[m] * n + terms[m]
            lhs = pair.lower(partials[m])
            rhs = sum([terms[j] * c for c, j in parts[m]], Polynomial())
            if lhs != rhs:
                first, top = (m, n, lhs, rhs), m - 1
                break
            rhss.append(rhs)
        if n < max_n:
            terms = [-pair.raiser(rhs) for rhs in rhss]
    params = f"pair={pair.name}, m<={max_m}, n<={max_n}"
    if first is None:
        return _report("bernoulli", params, (max_m + 1) * (max_n + 1), [])
    m, n, lhs, rhs = first
    return _report("bernoulli", params, m * (max_n + 1) + n + 1, [(f"m={m}, n={n}", lhs, rhs)])


def verify_leibniz(ctx: PsiContext, f: Polynomial, g: Polynomial) -> VerificationReport:
    """psi-derivative of f * g = (Df) * g + f * (psi-derivative of g),
    with * the star product and D the classical derivative."""
    lhs = psi_derivative(ctx, star_psi(ctx, f, g))
    rhs = star_psi(ctx, f.derivative(), g) + star_psi(ctx, f, psi_derivative(ctx, g))
    failures = [] if lhs == rhs else [(f"f={f}, g={g}", lhs, rhs)]
    return _report("leibniz", f"psi={ctx.label}", 1, failures)


def verify_exp_addition(ctx: PsiContext, alpha: Scalar, beta: Scalar, N: int) -> VerificationReport:
    """exp(a x) * (psi-exp of b) agrees with the psi-exp of a+b up to degree N."""
    alpha, beta = Fraction(_rational(alpha)), Fraction(_rational(beta))
    lhs = star_psi(ctx, exp_poly(alpha, N), psi_exp(ctx, beta, N)).truncate(N)
    rhs = psi_exp(ctx, alpha + beta, N)
    failures = [] if lhs == rhs else [(f"alpha={alpha}, beta={beta}, N={N}", lhs, rhs)]
    return _report(
        "exp-addition", f"psi={ctx.label}, alpha={alpha}, beta={beta}, N={N}", N + 1, failures
    )


def verify_per_partes(
    ctx: PsiContext, f: Polynomial, g: Polynomial, a: Scalar, b: Scalar
) -> VerificationReport:
    """Integration by parts for the psi-integral and star product."""
    a, b = Fraction(_rational(a)), Fraction(_rational(b))
    lhs = psi_definite_integral(ctx, star_psi(ctx, f, psi_derivative(ctx, g)), a, b)
    boundary = star_psi(ctx, f, g)
    rhs = (boundary(b) - boundary(a)) - psi_definite_integral(
        ctx, star_psi(ctx, f.derivative(), g), a, b
    )
    failures = [] if lhs == rhs else [(f"f={f}, g={g}, a={a}, b={b}", lhs, rhs)]
    return _report("per-partes", f"psi={ctx.label}, a={a}, b={b}", 1, failures)


def verify_fundamental_theorem(ctx: PsiContext, f: Polynomial) -> VerificationReport:
    """psi-derivative of the psi-antiderivative is the identity."""
    lhs = psi_derivative(ctx, psi_antiderivative(ctx, f))
    failures = [] if lhs == f else [(f"f={f}", lhs, f)]
    return _report("fundamental", f"psi={ctx.label}", 1, failures)


def historical_divided_difference_sum(f: Polynomial, signed: bool = True) -> Polynomial:
    """Sum_{n>=1} (+-1)^(n-1) x^(n-1) f^(n)(x) / n!, a finite sum on
    polynomials.  The unsigned variant (signed=False) is kept so the
    failure it produces can be demonstrated."""
    acc, fn = Polynomial(), f
    for n in range(1, f.degree + 1):
        fn = fn.derivative()
        sign = -1 if signed and n % 2 == 0 else 1
        acc = acc + Polynomial.monomial(n - 1, Fraction(sign, math.factorial(n))) * fn
    return acc


def historical_evaluation_sum(f: Polynomial) -> Polynomial:
    """Sum_{n>=0} (-1)^n x^n f^(n)(x) / n!, a finite sum on polynomials."""
    acc, fn = Polynomial(), f
    for n in range(max(f.degree, 0) + 1):
        acc = acc + Polynomial.monomial(n, Fraction((-1) ** n, math.factorial(n))) * fn
        fn = fn.derivative()
    return acc


def verify_historical_series(f: Polynomial) -> VerificationReport:
    """The two classical series: the divided-difference expansion (with
    the alternating sign) and the zero-point evaluation expansion."""
    failures = []
    lhs1 = divided_difference_zero(f)
    rhs1 = historical_divided_difference_sum(f)
    if lhs1 != rhs1:
        failures.append((f"divided-difference, f={f}", lhs1, rhs1))
    lhs2 = Polynomial.constant(f(0))
    rhs2 = historical_evaluation_sum(f)
    if lhs2 != rhs2 and not failures:
        failures.append((f"evaluation, f={f}", lhs2, rhs2))
    return _report("historical", f"f={f}", 2, failures)
