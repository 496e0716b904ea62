"""q-derivative, Hahn (q,h)-derivative, and the Jackson q-integral.

The Jackson q-calculus is the psi-calculus of the Gauss q-integers
n_q = 1 + q + ... + q^(n-1): q_derivative and jackson_antiderivative are
the psi-derivative and psi-antiderivative on a gauss_q PsiContext.  That
context comes from `_gauss_q`, a process-wide memo of the
GAUSS_Q_CONTEXTS most recently used q, so calls on a repeated q share
its rows of n_q instead of growing them afresh; a cached context keeps
its rows until it is evicted.

The Hahn derivative (f(x) - f(qx+h)) / ((1-q)x - h) and the reduction
sweep share one kernel, `_hahn_quotient`: it divides integer numerators
by the primitive integer multiple of the fixed linear divisor, in exact
integer steps from the top, and makes the quotient canonical once; no
general polynomial division runs here.

Everything is exact on polynomials; the only floating-point code in the
package is the numeric Jackson quadrature, which sums the geometric
sampling series for a black-box integrand.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    ConvergenceError,
    DegenerateParamsError,
    DomainError,
    InternalError,
)
from .operators import (VerificationReport, _report, psi_antiderivative, psi_derivative,
                        verify_fundamental_theorem)
from .poly import Polynomial, _canonical, _rational
from .record import Record
from .sequences import AdmissibleSequence, PsiContext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    from .poly import Scalar

JACKSON_TERM_CAP = 100_000

# How many Gauss-q contexts `_gauss_q` keeps.  verify --suite all runs
# four q in hahn-reduction and three in jackson-inverse; the rows of each
# context hold Theta(m^3) bits for the largest index m asked of it.
GAUSS_Q_CONTEXTS = 16


def _gauss_q(q: Scalar) -> PsiContext:
    """The shared Gauss-q PsiContext of the exact rational q.  q is made a
    Fraction first, so a float raises TypeError here and never reaches
    the memo, where 2.0 would hash like 2."""
    return _gauss_q_context(Fraction(_rational(q)))


@functools.lru_cache(maxsize=GAUSS_Q_CONTEXTS)
def _gauss_q_context(q: Fraction) -> PsiContext:
    return PsiContext(AdmissibleSequence.gauss_q(q))


class HahnParams(Record):
    __slots__ = ("q", "h")
    q: Fraction
    h: Fraction

    def __init__(self, q: Scalar, h: Scalar):
        super().__init__(Fraction(_rational(q)), Fraction(_rational(h)))


def q_derivative(f: Polynomial, q: Scalar) -> Polynomial:
    """x^n -> n_q x^(n-1); the difference quotient (f(x)-f(qx))/((1-q)x)."""
    return psi_derivative(_gauss_q(q), f)


def hahn_derivative(f: Polynomial, p: HahnParams) -> Polynomial:
    """(f(x) - f(qx+h)) / ((1-q)x - h), by exact division of the
    numerators in `_hahn_quotient`."""
    if p.q == 1 and p.h == 0:
        raise DegenerateParamsError("(q, h) = (1, 0) makes the quotient 0/0")
    diff = f - f.compose_affine(p.q, p.h)
    return _hahn_quotient(diff._num, diff._den, p)


def _hahn_quotient(num: Sequence[int], den: int, p: HahnParams) -> Polynomial:
    """(sum(num[i] x^i) / den) / ((1-q)x - h) for the integer numerators
    num of a Hahn difference, which the divisor divides exactly.

    With q = a/b, h = c/e and D = be, D((1-q)x - h) is L x + M with
    L = e(b-a) and M = -cb.  Divided by g = gcd(L, M) it is primitive, so
    by Gauss's lemma the quotient of num by it has integer coefficients
    and synthetic division from the top takes exact integer steps; the
    result is that quotient times D / (g den).  q = 1 leaves the constant
    divisor -h, and M / g = +-1 is one scalar step.  A step that does not
    divide, or a nonzero remainder, raises InternalError.  (q, h) = (1, 0)
    is for the caller to refuse."""
    a, b, c, e = p.q.numerator, p.q.denominator, p.h.numerator, p.h.denominator
    lead, const = e * (b - a), -c * b
    g = math.gcd(lead, const)
    lead, const = lead // g, const // g
    if not lead:
        quot = [v * const for v in num]
    else:
        quot, qi = [], 0  # quot[i - 1] = (num[i] - const quot[i]) / lead, i = d..1
        for v in reversed(num[1:]):
            qi, r = divmod(v - const * qi, lead)
            if r:
                raise InternalError(f"Hahn quotient step left remainder {r} mod {lead}; "
                                    "divisibility is a theorem")
            quot.append(qi)
        if num and num[0] != const * qi:
            raise InternalError(f"Hahn quotient left remainder {num[0] - const * qi}; "
                                "divisibility is a theorem")
        quot.reverse()
    D = b * e
    return _canonical([v * D for v in quot], g * den)


def verify_hahn_reduction(p: HahnParams, N: int) -> VerificationReport:
    """The Hahn derivative is the q-derivative conjugated by the shift
    S: f(x) -> f(x + s), s = h/(1-q), checked on the shifted powers
    (x - s)^n for n up to N.

    Both sides are linear and the (x - s)^k, k <= n, span the polynomials
    of degree at most n, so the first n that fails, and with it the
    report's cases and counterexample n, are those of the monomial basis;
    a failing report's lhs and rhs are the images of (x - s)^n.

    With q = a/b, h = c/e, D = be and s = sigma/tau in lowest terms,
    (x - s)^n is (tau x - sigma)^n / tau^n and (q x + h - s)^n is
    (A x + B)^n / (D tau)^n for A = tau a e and B = tau c b - sigma D;
    the integer numerators of both powers are running lists, each made
    from the one before in one O(n) pass.  The left side is the exact
    division of D^n (tau x - sigma)^n - (A x + B)^n, over (D tau)^n, by
    (1-q)x - h in `_hahn_quotient`.  On the right S(x - s)^n = x^n, and
    when its q-derivative is one term c x^(n-1), S^-1 of it is c times the
    running (tau x - sigma)^(n-1) over tau^(n-1); any other image is
    shifted back by -s whole.  A sweep to N so costs O(N^2) big-integer
    operations, and a passing one makes no Taylor shift."""
    if p.q == 1:
        raise DomainError("the reduction's conjugating shift needs q != 1")
    s = p.h / (1 - p.q)
    ctx = _gauss_q(p.q)
    ctx.rows(N)  # grown once to N_q, not one index per monomial
    a, b, c, e = p.q.numerator, p.q.denominator, p.h.numerator, p.h.denominator
    sigma, tau, D = s.numerator, s.denominator, b * e
    A, B = tau * a * e, tau * c * b - sigma * D
    x_sn, qx_hn, Dn, taun = [1], [1], 1, 1  # (tau x - sigma)^n, (A x + B)^n, D^n, tau^n
    failure = None
    for n in range(N + 1):
        image = psi_derivative(ctx, Polynomial.monomial(n))
        cn = image._num
        # x_sn and taun are still those of n - 1 here
        if len(cn) == n and not any(cn[:-1]):  # c x^(n-1), or 0 at n = 0
            rhs = _canonical([cn[-1] * v for v in x_sn], image._den * taun) if cn else image
        else:
            rhs = image.compose_affine(1, -s)
        if n:
            x_sn = [tau * u - sigma * v for u, v in zip([0, *x_sn], [*x_sn, 0])]
            qx_hn = [A * u + B * v for u, v in zip([0, *qx_hn], [*qx_hn, 0])]
            Dn, taun = Dn * D, taun * tau
        lhs = _hahn_quotient([Dn * u - v for u, v in zip(x_sn, qx_hn)], Dn * taun, p)
        if lhs != rhs:
            failure = (f"n={n}", lhs, rhs)
            break
    return _report("hahn-reduction", f"q={p.q}, h={p.h}, N={N}", N + 1, failure)


def jackson_antiderivative(f: Polynomial, q: Scalar) -> Polynomial:
    """x^n -> x^(n+1)/(n+1)_q, as a polynomial in the upper limit."""
    return psi_antiderivative(_gauss_q(q), f)


def jackson_integral_exact(f: Polynomial, q: Scalar, z: Scalar) -> Fraction:
    """The Jackson q-integral of a polynomial from 0 to z, in closed form."""
    return jackson_antiderivative(f, q)(z)


class JacksonQuadrature(Record):
    __slots__ = ("value", "terms_used", "tail_tol", "q", "z")
    value: float
    terms_used: int
    tail_tol: float
    q: float
    z: float


def jackson_integral_numeric(
    fn: Callable[[float], float],
    q: Scalar,
    z: Scalar,
    tail_tol: float,
    max_terms: int = JACKSON_TERM_CAP,
) -> JacksonQuadrature:
    """Sum (1-q) z fn(q^k z) q^k until the terms stay below
    tail_tol * (1-q), which bounds the geometric tail by about tail_tol.
    A run of small terms only counts once its sample points q^k z shrink
    by a factor of 2, at least max(3, ceil(ln 2 / -ln q)) terms, so the
    dip of the integrand around a (multiple) root cannot end the sum.

    q and z are accepted exactly (a float raises TypeError) and converted
    to float once, recorded in the result.  tail_tol must be finite and
    positive.  Raises
    ConvergenceError if the cap is hit first.
    """
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail tolerance must be finite and > 0, got {tail_tol}")
    q = Fraction(_rational(q))
    if not 0 < q < 1:
        raise DomainError(f"numeric Jackson integral needs 0 < q < 1, got {q}")
    qf = float(q)
    if not 0.0 < qf < 1.0:
        raise DomainError(f"q is too close to {qf:g} for a float quadrature")
    try:
        zf = float(Fraction(_rational(z)))
    except OverflowError:
        raise DomainError("z is too large for a float") from None
    prefactor = (1.0 - qf) * zf
    cutoff = tail_tol * (1.0 - qf)
    streak = max(3, math.ceil(math.log(2.0) / -math.log(qf)))
    terms = []
    qk = 1.0
    small_streak = 0
    for k in range(max_terms):
        term = prefactor * fn(qk * zf) * qk
        terms.append(term)
        # a tiny term may just sit next to a zero of the integrand; demand
        # a run of them before trusting the geometric tail bound
        small_streak = small_streak + 1 if abs(term) < cutoff else 0
        if small_streak >= streak:
            return JacksonQuadrature(math.fsum(terms), k + 1, tail_tol, qf, zf)
        qk *= qf
    raise ConvergenceError(
        f"Jackson series did not meet the tail criterion within {max_terms} terms"
    )


def verify_jackson_inverse(f: Polynomial, q: Scalar) -> VerificationReport:
    """The q-derivative of the Jackson antiderivative returns f."""
    ctx = _gauss_q(q)
    ce = verify_fundamental_theorem(ctx, f).counterexample
    return VerificationReport("jackson-inverse", f"q={ctx.sequence.q}", 1, ce)
