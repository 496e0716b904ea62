"""q-derivative, Hahn (q,h)-derivative, and the Jackson q-integral.

The Jackson q-calculus is the psi-calculus of the Gauss q-integers
n_q = 1 + q + ... + q^(n-1): q_derivative and jackson_antiderivative are
the psi-derivative and psi-antiderivative on a gauss_q PsiContext.

Everything is exact on polynomials; the only floating-point code in the
package is the numeric Jackson quadrature, which sums the geometric
sampling series for a black-box integrand.
"""

from __future__ import annotations

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
from .poly import Polynomial, _rational
from .record import Record
from .sequences import AdmissibleSequence, PsiContext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .poly import Scalar

JACKSON_TERM_CAP = 100_000


class HahnParams(Record):
    __slots__ = ("q", "h")
    q: Fraction
    h: Fraction

    def __init__(self, q: Scalar, h: Scalar):
        super().__init__(Fraction(_rational(q)), Fraction(_rational(h)))


def q_derivative(f: Polynomial, q: Scalar) -> Polynomial:
    """x^n -> n_q x^(n-1); the difference quotient (f(x)-f(qx))/((1-q)x)."""
    return psi_derivative(PsiContext(AdmissibleSequence.gauss_q(q)), f)


def hahn_derivative(f: Polynomial, p: HahnParams) -> Polynomial:
    """(f(x) - f(qx+h)) / ((1-q)x - h), by exact polynomial division."""
    if p.q == 1 and p.h == 0:
        raise DegenerateParamsError("(q, h) = (1, 0) makes the quotient 0/0")
    return _hahn_quotient(f - f.compose_affine(p.q, p.h), Polynomial([-p.h, 1 - p.q]))


def _hahn_quotient(numerator: Polynomial, divisor: Polynomial) -> Polynomial:
    """numerator / divisor for the Hahn difference f(x) - f(qx+h) and the
    divisor (1-q)x - h, which divides it exactly."""
    quotient, rem = divmod(numerator, divisor)
    if rem:
        raise InternalError(
            f"Hahn quotient left remainder {rem}; divisibility is a theorem"
        )
    return quotient


def verify_hahn_reduction(p: HahnParams, N: int) -> VerificationReport:
    """The Hahn derivative is the q-derivative conjugated by the shift
    x -> x + h/(1-q), checked on monomials up to degree N.

    x^n, (qx+h)^n and (x+s)^n, s = h/(1-q), are running powers, each
    made from the one before by one multiplication by its linear factor.
    Monomial n then costs those three O(n) multiplications, the exact
    division of x^n - (qx+h)^n by (1-q)x - h on the left and, on the
    right, the q-derivative of (x+s)^n and one Taylor shift back by -s,
    the only O(n^2) step."""
    if p.q == 1:
        raise DomainError("the reduction's conjugating shift needs q != 1")
    s = p.h / (1 - p.q)
    ctx = PsiContext(AdmissibleSequence.gauss_q(p.q))
    ctx.rows(N)  # grown once to N_q, not one index per monomial
    x, qx_h, x_s = Polynomial.x(), Polynomial([p.h, p.q]), Polynomial([s, 1])
    divisor = Polynomial([-p.h, 1 - p.q])
    xn = qx_hn = x_sn = Polynomial.constant(1)
    failure = None
    for n in range(N + 1):
        if n:
            xn, qx_hn, x_sn = xn * x, qx_hn * qx_h, x_sn * x_s
        lhs = _hahn_quotient(xn - qx_hn, divisor)
        rhs = psi_derivative(ctx, x_sn).compose_affine(1, -s)
        if lhs != rhs:
            failure = (f"n={n}", lhs, rhs)
            break
    return _report("hahn-reduction", f"q={p.q}, h={p.h}, N={N}", N + 1, failure)


def jackson_antiderivative(f: Polynomial, q: Scalar) -> Polynomial:
    """x^n -> x^(n+1)/(n+1)_q, as a polynomial in the upper limit."""
    return psi_antiderivative(PsiContext(AdmissibleSequence.gauss_q(q)), f)


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
    ctx = PsiContext(AdmissibleSequence.gauss_q(q))
    ce = verify_fundamental_theorem(ctx, f).counterexample
    return VerificationReport("jackson-inverse", f"q={ctx.sequence.q}", 1, ce)
