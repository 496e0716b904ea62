"""Bernoulli-Taylor type expansions with exact Cauchy-form remainders.

Two forms live here: the classical Taylor expansion whose remainder is
the kernel integral of the next derivative (a genuine polynomial in x),
and the psi-deformed expansion, which is pointwise: all operators act in
the coordinate w = t - x_eval, where the deformed commutation relation
holds verbatim and the boundary terms vanish.

Both are built in closed form.  The classical terms come from one Taylor
shift g(u) = f(alpha + u), and the remainder from the shifted f^(n+1)
and the Beta integral int_0^s (s-u)^n u^j du = s^(n+j+1) n! j!/(n+j+1)!:
one integer weight pass and one shift back by -alpha.  Term k of the
deformed expansion is one pass of the k-th x_hat power over the k-th
psi-derivative, so an order-n expansion makes O(n) operator passes.

Each expansion returns an ExpansionReport carrying both the constructed
remainder and the independently forced one (f minus the partial sum);
`exact` records their equality.  Every scalar of an expansion -- a
coefficient of a term, a value, the partial sum, the remainder -- is
built as an integer pair and reduced once, where the report stores it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .operators import (
    VerificationReport,
    _sweep,
    psi_antiderivative,
    psi_derivative,
    x_hat_psi,
)
from .poly import (
    _ZERO, Polynomial, _canonical, _combine, _diagonal, _digits, _rational, _term, _value,
)
from .record import Record
from .sequences import PsiContext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .poly import Scalar


# The largest order an expansion accepts.  Order 10 000 takes well under a
# second for every kind on a small polynomial, while an order past the
# machine's index range would end in an OverflowError, and a huge one
# would run for ever.
MAX_ORDER = 10_000


def _check_order(n: int) -> None:
    """Refuse an expansion order outside 0..MAX_ORDER before any work."""
    if n < 0:
        raise ValueError("expansion order must be nonnegative")
    if n > MAX_ORDER:
        raise DomainError(f"expansion order must be at most {MAX_ORDER}")


class ExpansionReport(Record):
    __slots__ = ("psi_label", "alpha", "order", "terms", "partial_sum",
                 "cauchy_remainder", "oracle_remainder", "exact", "x_eval")
    _defaults = {"x_eval": None}
    psi_label: str
    alpha: Fraction
    order: int
    terms: tuple[Polynomial, ...]
    partial_sum: Polynomial
    cauchy_remainder: Polynomial
    oracle_remainder: Polynomial
    exact: bool
    x_eval: Fraction | None  # set on pointwise psi reports

    @property
    def total(self) -> Polynomial:
        return self.partial_sum + self.cauchy_remainder


def taylor_classical(f: Polynomial, alpha: Scalar, n: int) -> ExpansionReport:
    """Taylor expansion about alpha to order n, remainder as the exact
    polynomial integral of (x-t)^n f^(n+1)(t)/n! from alpha to x.

    One Taylor shift g(u) = f(alpha + u) gives every term: its
    coefficient k is f^(k)(alpha)/k!.  With alpha = a/b, term k is
    g_k (b x - a)^k / b^k: an integer binomial row, one step per k, times
    g's numerator k over its den times b^k, made canonical once.  With
    x = alpha + s the remainder is the integral of (s-u)^n h(u)/n! over
    0 <= u <= s, h = g^(n+1) the shifted f^(n+1), and the Beta integral
    int_0^s (s-u)^n u^j du = s^(n+j+1) n! j!/(n+j+1)!
    makes it one weight pass u^j -> j!/(n+j+1)! s^(n+j+1) on h, shifted
    back by -alpha.
    """
    _check_order(n)
    alpha = Fraction(_rational(alpha))
    g = f.compose_affine(1, alpha)
    a, b = alpha.numerator, alpha.denominator

    terms = []
    row, den = [1], g._den  # (b x - a)^k, and g's den times b^k
    for k in range(min(n, g.degree) + 1):
        if k:
            row = [b * u - a * v for u, v in zip([0, *row], [*row, 0])]
            den *= b
        c = g._num[k]
        terms.append(_canonical([c * v for v in row], den) if c else _ZERO)
    terms += [_ZERO] * (n + 1 - len(terms))  # f^(k) = 0 beyond deg f
    partial = _combine((1, t) for t in terms)

    h = g.derivative(n + 1)
    beta = [math.perm(n + j + 1, n + 1) for j in range(h.degree + 1)]  # (n+j+1)!/j!
    lcm = math.lcm(*beta)
    remainder = _diagonal(h, [lcm // w for w in beta], lcm, n + 1).compose_affine(1, -alpha)

    oracle = f - partial
    return ExpansionReport("classical", alpha, n, tuple(terms), partial, remainder, oracle,
                           remainder == oracle, None)


def psi_bernoulli_taylor(
    ctx: PsiContext, f: Polynomial, alpha: Scalar, x_eval: Scalar, n: int
) -> ExpansionReport:
    """The deformed Bernoulli-Taylor expansion of f about alpha,
    evaluated at the rational target x_eval.

    Working in w = t - x_eval with phi(w) = f(x_eval + w): term k is
    (1/k!) (-w_hat)^k (k-th psi-derivative of phi) at w = alpha - x_eval,
    and the remainder is (1/n!) times the psi-integral of
    (-w_hat)^n (n+1-st psi-derivative of phi) from alpha - x_eval to 0.
    Their total equals f(x_eval) exactly.  Terms and remainder are stored
    as constant polynomials, each one `poly._term`: term k is the
    `poly._value` pair of its x_hat image at w0 over a running (-1)^k k!,
    the partial sum one integer sum over the lcm of the terms'
    denominators, and the remainder the pair of the psi-antiderivative
    at w0, negated (it vanishes at 0) and over (-1)^n n!.
    """
    _check_order(n)
    alpha, x_eval = Fraction(_rational(alpha)), Fraction(_rational(x_eval))
    phi = f.compose_affine(1, x_eval)  # phi(w) = f(x_eval + w)
    w0 = alpha - x_eval
    p, q = w0.numerator, w0.denominator

    terms = []
    dk, sign = phi, 1  # the k-th psi-derivative of phi, and (-1)^k k!
    for k in range(min(n, phi.degree) + 1):
        if k:
            sign *= -k
        v, d = _value(x_hat_psi(ctx, dk, k), p, q)
        terms.append(_term(0, v, d * sign))
        dk = psi_derivative(ctx, dk)
    terms += [_ZERO] * (n + 1 - len(terms))  # dk = 0 beyond deg f
    den = math.lcm(*[t._den for t in terms])
    total = sum([c * (den // t._den) for t in terms for c in t._num])
    partial = _term(0, total, den)

    # dk is now the (n+1)-st psi-derivative of phi.  The psi-integral from
    # w0 to 0 is anti(0) - anti(w0) = -anti(w0): a psi-antiderivative has
    # no constant term
    anti = psi_antiderivative(ctx, x_hat_psi(ctx, dk, n))
    v, d = _value(anti, p, q)
    remainder = _term(0, -v, d * (-1) ** n * math.factorial(n))
    v, d = _value(f, x_eval.numerator, x_eval.denominator)
    oracle = _term(0, v * den - total * d, d * den)  # f(x_eval) - partial
    return ExpansionReport(ctx.label, alpha, n, tuple(terms), partial, remainder, oracle,
                           remainder == oracle, x_eval)


def verify_expansion(report: ExpansionReport) -> VerificationReport:
    """Recompute the exactness verdict from the report's raw fields."""
    params = f"psi={report.psi_label}, alpha={_digits(report.alpha)}, n={report.order}"
    return _sweep("expansion", params, "{}", [
        ("partial_sum", report.partial_sum, sum(report.terms, Polynomial())),
        ("remainder", report.cauchy_remainder, report.oracle_remainder),
    ])
