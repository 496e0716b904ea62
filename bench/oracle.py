"""Independent correctness checks for benchmark outputs.

Everything here uses plain `fractions.Fraction` arithmetic on coefficient
lists and never calls into `psicalc`: a bug in `psicalc.poly` cannot break
an output and its check the same way.  Polynomial results are read only
through their public `.coeffs` tuple; CLI results are read from the text
the CLI prints.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def horner(coeffs, t):
    """sum c_i t^i for a low-to-high coefficient sequence."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def float_horner(coeffs):
    """A float evaluator of the polynomial, as a black-box integrand."""
    fc = [float(c) for c in coeffs]

    def fn(t: float) -> float:
        acc = 0.0
        for c in reversed(fc):
            acc = acc * t + c
        return acc

    return fn


def mismatch(what, got, want):
    return None if got == want else f"{what}: got {got}, want {want}"


# -- library outputs ----------------------------------------------------------


def check_hahn(f, q, h, d, points):
    """d(t) * ((1-q) t - h) == f(t) - f(q t + h) at every point."""
    for t in points:
        err = mismatch(
            f"hahn q={q} h={h} t={t}",
            horner(d.coeffs, t) * ((1 - q) * t - h),
            horner(f, t) - horner(f, q * t + h),
        )
        if err:
            return err
    return None


def check_taylor(f, report, points):
    """partial_sum + remainder == f as polynomials, tested pointwise."""
    if not report.exact:
        return "taylor report not exact"
    for t in points:
        err = mismatch(
            f"taylor t={t}",
            horner(report.partial_sum.coeffs, t) + horner(report.cauchy_remainder.coeffs, t),
            horner(f, t),
        )
        if err:
            return err
    return None


def _constant(p):
    return p.coeffs[0] if p.coeffs else Fraction(0)


def check_psi_bt(f, x_eval, report):
    """The terms plus the remainder total f(x_eval)."""
    if not report.exact:
        return "psi-BT report not exact"
    total = sum((_constant(t) for t in report.terms), Fraction(0))
    return mismatch(
        f"psi-BT total at {x_eval}",
        total + _constant(report.cauchy_remainder),
        horner(f, x_eval),
    )


def check_newton(f, report, points):
    if not report.exact:
        return "newton report not exact"
    for x in points:
        err = mismatch(
            f"newton x={x}",
            horner(report.partial_sum.coeffs, x) + report.remainder_at(x),
            horner(f, x),
        )
        if err:
            return err
    return None


def check_maclaurin(f, report):
    if not report.exact:
        return "maclaurin report not exact"
    target = horner(f, 0)
    return mismatch("maclaurin target", report.target, target) or mismatch(
        "maclaurin total", sum(report.terms, Fraction(0)) + report.remainder, target
    )


def jackson_exact(f, q, z):
    """int_0^z x^n d_q x = (1-q) z^(n+1) / (1 - q^(n+1)), summed over f."""
    return sum(
        (c * (1 - q) * z ** (n + 1) / (1 - q ** (n + 1)) for n, c in enumerate(f)),
        Fraction(0),
    )


def close(value: float, exact: Fraction) -> bool:
    return abs(value - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


def check_report(report, cases):
    """A verification report passed and checked the expected case count."""
    if not report.passed:
        return f"{report.identity} [{report.params}] failed"
    return mismatch(f"{report.identity} cases", report.cases, cases)


# -- sequences ------------------------------------------------------------------


def psi_factor(spec: str, n: int) -> Fraction:
    """n_psi for the spec grammar the benchmark uses (classical, q:r, fib)."""
    if spec == "classical":
        return Fraction(n)
    if spec == "fib":
        a, b = 1, 1
        for _ in range(n - 1):
            a, b = b, a + b
        return Fraction(a)
    q = Fraction(spec[2:])
    return sum((q**k for k in range(n)), Fraction(0))


def table_rows(spec: str, n: int):
    """(n, n_psi, n_psi!, n!/n_psi!) as strings, the `table` columns."""
    rows, fact = [], Fraction(1)
    for k in range(1, n + 1):
        fact *= psi_factor(spec, k)
        rows.append(
            (str(k), str(psi_factor(spec, k)), str(fact), str(math.factorial(k) / fact))
        )
    return rows


# -- printed polynomials ----------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?x(?:\^(\d+))?)?")


def parse_printed(text: str) -> dict:
    """Parse the canonical text `str(Polynomial)` prints into {degree: coeff}.

    Only the printed form is accepted (terms 'c', 'x', 'x^k', 'c*x',
    'c*x^k' joined by + and -), which is enough to read CLI output without
    the package's own parser.
    """
    out: dict = {}
    body = text.replace(" ", "")
    if body == "0":
        return out
    for piece in re.findall(r"[+-]?[^+-]+", body):
        m = _TERM.fullmatch(piece)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"unreadable term {piece!r} in {text!r}")
        sign, coeff, xpart, power = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        degree = 0 if not xpart else int(power or 1)
        out[degree] = out.get(degree, Fraction(0)) + c
    return out


def printed_value(text: str, t) -> Fraction:
    return sum((c * t**d for d, c in parse_printed(text).items()), Fraction(0))
