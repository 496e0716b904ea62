"""Bernoulli-Taylor type expansions with exact Cauchy-form remainders.

Two forms live here: the classical Taylor expansion whose remainder is
the kernel integral of the next derivative (a genuine polynomial in x),
and the psi-deformed expansion, which is pointwise: all operators act in
the coordinate w = t - x_eval, where the deformed commutation relation
holds verbatim and the boundary terms vanish.

Each expansion returns an ExpansionReport carrying both the constructed
remainder and the independently forced one (f minus the partial sum);
`exact` records their equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .operators import (
    VerificationReport,
    _report,
    psi_definite_integral,
    psi_derivative,
    x_hat_psi,
)
from .poly import Polynomial, Scalar, _rational
from .sequences import PsiContext


@dataclass(frozen=True)
class ExpansionReport:
    psi_label: str
    alpha: Fraction
    order: int
    terms: tuple[Polynomial, ...]
    partial_sum: Polynomial
    cauchy_remainder: Polynomial
    oracle_remainder: Polynomial
    exact: bool
    x_eval: Optional[Fraction] = None  # set on pointwise psi reports

    @property
    def total(self) -> Polynomial:
        return self.partial_sum + self.cauchy_remainder


def taylor_classical(f: Polynomial, alpha: Scalar, n: int) -> ExpansionReport:
    """Taylor expansion about alpha to order n, remainder as the exact
    polynomial integral of (x-t)^n f^(n+1)(t)/n! from alpha to x."""
    if n < 0:
        raise ValueError("expansion order must be nonnegative")
    alpha = Fraction(_rational(alpha))
    shifted = Polynomial([-alpha, 1])  # x - alpha

    terms = []
    fk = f
    for k in range(n + 1):
        terms.append(shifted**k * (fk(alpha) / math.factorial(k)))
        fk = fk.derivative()
    partial = sum(terms, Polynomial())

    # fk is now f^(n+1); expand the kernel (x-t)^n binomially in t and
    # integrate each t-monomial exactly from alpha to x.
    g = fk / math.factorial(n)
    remainder = Polynomial()
    for j in range(n + 1):
        integrand = Polynomial.monomial(j) * g  # t^j g(t)
        G = integrand.antiderivative()
        inner = G - Polynomial.constant(G(alpha))  # G(x) - G(alpha)
        remainder = remainder + Polynomial.monomial(n - j, math.comb(n, j) * Fraction(-1) ** j) * inner

    oracle = f - partial
    return ExpansionReport(
        psi_label="classical",
        alpha=alpha,
        order=n,
        terms=tuple(terms),
        partial_sum=partial,
        cauchy_remainder=remainder,
        oracle_remainder=oracle,
        exact=remainder == oracle,
    )


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
    as constant polynomials.
    """
    if n < 0:
        raise ValueError("expansion order must be nonnegative")
    alpha, x_eval = Fraction(_rational(alpha)), Fraction(_rational(x_eval))
    phi = f.compose_affine(1, x_eval)  # phi(w) = f(x_eval + w)
    w0 = alpha - x_eval

    terms = []
    dk = phi  # k-th psi-derivative of phi
    for k in range(n + 1):
        img = dk
        for _ in range(k):
            img = x_hat_psi(ctx, img)
        value = Fraction(-1) ** k * img(w0) / math.factorial(k)
        terms.append(Polynomial.constant(value))
        dk = psi_derivative(ctx, dk)

    # dk is now the (n+1)-st psi-derivative of phi
    img = dk
    for _ in range(n):
        img = x_hat_psi(ctx, img)
    rem_value = Fraction(-1) ** n * psi_definite_integral(ctx, img, w0, 0) / math.factorial(n)

    partial = sum(terms, Polynomial())
    remainder = Polynomial.constant(rem_value)
    oracle = f(x_eval) - partial
    return ExpansionReport(
        psi_label=ctx.label,
        alpha=alpha,
        order=n,
        terms=tuple(terms),
        partial_sum=partial,
        cauchy_remainder=remainder,
        oracle_remainder=oracle,
        exact=remainder == oracle,
        x_eval=x_eval,
    )


def verify_expansion(report: ExpansionReport) -> VerificationReport:
    """Recompute the exactness verdict from the report's raw fields."""
    failures = []
    total = sum(report.terms, Polynomial())
    if total != report.partial_sum:
        failures.append(("partial_sum", report.partial_sum, total))
    if report.cauchy_remainder != report.oracle_remainder and not failures:
        failures.append(("remainder", report.cauchy_remainder, report.oracle_remainder))
    params = f"psi={report.psi_label}, alpha={report.alpha}, n={report.order}"
    return _report("expansion", params, 2, failures)
