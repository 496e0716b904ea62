"""Command-line front end.

Subcommands:

    expand   Taylor / psi-Bernoulli-Taylor / Newton / Maclaurin expansion
             reports for a polynomial.
    verify   Run named exact-identity suites over fixed, documented sweeps.
    jackson  Exact and numeric Jackson q-integrals side by side.
    table    n_psi, n_psi!, and psi-power coefficients for n up to a bound.

All exact values appear in I/O as rational strings ("p" or "p/q"); the
only decimal output is the intrinsically approximate numeric Jackson
value.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 admissibility error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import discrete, expansions, hahn, operators
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DegenerateParamsError,
    DomainError,
    ParseError,
    PsiCalcError,
    RangeError,
)
from .parsing import parse_poly
from .poly import Polynomial
from .sequences import PsiContext, parse_psi_spec, parse_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ADMISSIBILITY = 3

SUITES = (
    "commutator",
    "telescoping",
    "bernoulli",
    "leibniz",
    "exp-addition",
    "per-partes",
    "fundamental",
    "historical",
    "hahn-reduction",
    "jackson-inverse",
)

VERIFY_SWEEPS_HELP = (
    "Fixed sweeps: commutator checks monomials up to --max-degree for the "
    "classical pairs (shifts 0, 1, -2), the difference pair, and the psi "
    "pair; bernoulli sweeps orders n <= 8 on the same pairs; telescoping "
    "uses n <= 6 on a seeded degree-<=--max-degree corpus; leibniz, "
    "per-partes, fundamental and historical use the same corpus; "
    "exp-addition uses alpha, beta in {1, 1/2, -2/3} to degree "
    "--max-degree; hahn-reduction runs q in {2, 1/2, 3/2, -2} x h in "
    "{0, 1, -3, 7/5}; jackson-inverse runs q in {2, 1/2, 3/5}. The corpus "
    "seed is fixed, so runs are reproducible."
)

_CORPUS_SEED = 20260826


def _corpus(max_degree: int, count: int = 6) -> list[Polynomial]:
    """Deterministic polynomial corpus with small rational coefficients."""
    import random  # only verify needs it; kept off the start-up path

    rng = random.Random(_CORPUS_SEED)
    polys = []
    for _ in range(count):
        degree = rng.randint(1, max(1, max_degree))
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree)
        ]
        coeffs.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        polys.append(Polynomial(coeffs))
    return polys


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psicalc",
        description="Exact deformed-calculus expansions and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expansion reports")
    p_expand.add_argument("--psi", default="classical", help="psi-spec string")
    p_expand.add_argument("--f", required=True, help="polynomial expression")
    p_expand.add_argument("--alpha", type=_rat, default=Fraction(0))
    p_expand.add_argument("--order", type=int, required=True)
    p_expand.add_argument("--x-eval", type=_rat, default=None, dest="x_eval")
    p_expand.add_argument(
        "--kind",
        choices=("taylor", "psi", "newton", "maclaurin"),
        default=None,
        help="defaults to 'psi' when --x-eval is given, else 'taylor'",
    )
    p_expand.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser(
        "verify", help="run exact identity suites", epilog=VERIFY_SWEEPS_HELP
    )
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--psi", default="classical")
    p_verify.add_argument("--max-degree", type=int, default=16, dest="max_degree")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_jackson = sub.add_parser("jackson", help="Jackson q-integrals")
    p_jackson.add_argument("--f", required=True)
    p_jackson.add_argument("--q", type=_rat, required=True)
    p_jackson.add_argument("--z", type=_rat, required=True)
    p_jackson.add_argument("--tol", type=_tol, default=1e-13)
    p_jackson.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="psi-sequence tables")
    p_table.add_argument("--psi", default="classical")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# -- expand -----------------------------------------------------------------


def _run_expand(args) -> int:
    f = parse_poly(args.f)
    kind = args.kind or ("psi" if args.x_eval is not None else "taylor")
    if args.order < 0:
        raise DomainError("--order must be nonnegative")

    if kind == "taylor":
        report = expansions.taylor_classical(f, args.alpha, args.order)
        payload = {
            "kind": "taylor",
            "psi": "classical",
            "f": str(f),
            "alpha": str(report.alpha),
            "order": report.order,
            "terms": [str(t) for t in report.terms],
            "partial_sum": str(report.partial_sum),
            "remainder": str(report.cauchy_remainder),
            "oracle_remainder": str(report.oracle_remainder),
            "exact": report.exact,
        }
    elif kind == "psi":
        if args.x_eval is None:
            raise DomainError("--x-eval is required for the psi expansion")
        ctx = parse_psi_spec(args.psi)
        report = expansions.psi_bernoulli_taylor(
            ctx, f, args.alpha, args.x_eval, args.order
        )
        payload = {
            "kind": "psi",
            "psi": ctx.label,
            "f": str(f),
            "alpha": str(report.alpha),
            "x_eval": str(report.x_eval),
            "order": report.order,
            "terms": [str(t) for t in report.terms],
            "remainder": str(report.cauchy_remainder),
            "oracle_remainder": str(report.oracle_remainder),
            "value": str(f(args.x_eval)),
            "exact": report.exact,
        }
    elif kind == "newton":
        lattice = discrete.LatticeFunction.from_polynomial(f)
        report = discrete.newton_expansion(lattice, args.order)
        payload = {
            "kind": "newton",
            "f": str(f),
            "order": report.order,
            "terms": [str(t) for t in report.terms],
            "partial_sum": str(report.partial_sum),
            "remainder_at": {
                str(x): str(report.remainder_at(x)) for x in report.checked_points
            },
            "checked_points": list(report.checked_points),
            "exact": report.exact,
        }
    else:  # maclaurin
        if args.alpha.denominator != 1 or args.alpha < 1:
            raise DomainError("--alpha must be a positive integer for maclaurin")
        lattice = discrete.LatticeFunction.from_polynomial(f)
        report = discrete.bernoulli_maclaurin(lattice, int(args.alpha), args.order)
        payload = {
            "kind": "maclaurin",
            "f": str(f),
            "alpha": report.alpha,
            "order": report.order,
            "terms": [str(t) for t in report.terms],
            "remainder": str(report.remainder),
            "total": str(report.total),
            "target": str(report.target),
            "exact": report.exact,
        }

    _emit(payload, args.format)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _verify_reports(suite: str, ctx: PsiContext, max_degree: int):
    corpus = _corpus(max_degree)
    reports = []

    def pairs():
        return [
            operators.derivative_pair(0),
            operators.derivative_pair(1),
            operators.derivative_pair(-2),
            operators.delta_pair(),
            operators.psi_pair(ctx),
        ]

    if suite == "commutator":
        for pair in pairs():
            reports.append(operators.verify_commutator(pair, max_degree))
    elif suite == "telescoping":
        for n in range(7):
            for f in corpus[:3]:
                reports.append(operators.verify_telescoping(ctx, n, f))
    elif suite == "bernoulli":
        for pair in pairs():
            reports.append(
                operators.bernoulli_identity_sweep(pair, min(max_degree, 16), 8)
            )
    elif suite == "leibniz":
        for f in corpus[:3]:
            for g in corpus[3:]:
                reports.append(operators.verify_leibniz(ctx, f, g))
    elif suite == "exp-addition":
        for alpha in (Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
            for beta in (Fraction(1), Fraction(1, 3)):
                reports.append(
                    operators.verify_exp_addition(ctx, alpha, beta, max_degree)
                )
    elif suite == "per-partes":
        endpoints = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(3, 2))]
        for f in corpus[:2]:
            for g in corpus[2:4]:
                for a, b in endpoints:
                    reports.append(operators.verify_per_partes(ctx, f, g, a, b))
    elif suite == "fundamental":
        for f in corpus:
            reports.append(operators.verify_fundamental_theorem(ctx, f))
    elif suite == "historical":
        for f in corpus:
            reports.append(operators.verify_historical_series(f.truncate(12)))
    elif suite == "hahn-reduction":
        for q in (Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(-2)):
            for h in (Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 5)):
                reports.append(
                    hahn.verify_hahn_reduction(hahn.HahnParams(q, h), max_degree)
                )
    elif suite == "jackson-inverse":
        for q in (Fraction(2), Fraction(1, 2), Fraction(3, 5)):
            for f in corpus[:3]:
                reports.append(hahn.verify_jackson_inverse(f, q))
    else:
        raise DomainError(f"unknown suite {suite!r}")
    return reports


def _run_verify(args) -> int:
    if args.max_degree < 0:
        raise DomainError("--max-degree must be nonnegative")
    ctx = parse_psi_spec(args.psi)
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = []
    for suite in suites:
        for report in _verify_reports(suite, ctx, args.max_degree):
            results.append((suite, report))

    if args.format == "json":
        payload = [
            {
                "suite": suite,
                "identity": r.identity,
                "params": r.params,
                "cases": r.cases,
                "passed": r.passed,
                "counterexample": None
                if r.counterexample is None
                else {
                    "inputs": r.counterexample.inputs,
                    "lhs": r.counterexample.lhs,
                    "rhs": r.counterexample.rhs,
                },
            }
            for suite, r in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        for suite, r in results:
            print(f"{suite}: {r}")

    failed = sum(1 for _, r in results if not r.passed)
    if failed:
        print(f"{failed} verification case(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# -- jackson ------------------------------------------------------------------


def _run_jackson(args) -> int:
    f = parse_poly(args.f)
    exact = hahn.jackson_integral_exact(f, args.q, args.z)

    try:
        float_coeffs = [float(c) for c in f.coeffs]
    except OverflowError:
        raise DomainError("a coefficient of f is too large for a float") from None

    def fn(t: float) -> float:
        acc = 0.0
        for c in reversed(float_coeffs):
            acc = acc * t + c
        return acc

    numeric = hahn.jackson_integral_numeric(fn, args.q, args.z, args.tol)
    payload = {
        "f": str(f),
        "q": str(args.q),
        "z": str(args.z),
        "exact": str(exact),
        "numeric": numeric.value,
        "terms_used": numeric.terms_used,
        "tail_tol": numeric.tail_tol,
    }
    _emit(payload, args.format)
    return EXIT_OK


# -- table --------------------------------------------------------------------


def _run_table(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    ctx = parse_psi_spec(args.psi)
    ctx.rows(args.n)  # grown once, not one index per n_psi!
    rows = []
    for n in range(1, args.n + 1):
        rows.append(
            {
                "n": n,
                "n_psi": str(ctx.factor(n)),
                "n_psi_factorial": str(ctx.factorial(n)),
                "psi_power_coeff": str(operators.psi_power(ctx, n).coeff(n)),
            }
        )
    if args.format == "json":
        print(json.dumps({"psi": ctx.label, "rows": rows}, indent=2))
    else:
        print(f"psi = {ctx.label}")
        print(f"{'n':>4} {'n_psi':>12} {'n_psi!':>16} {'power coeff':>14}")
        for row in rows:
            print(
                f"{row['n']:>4} {row['n_psi']:>12} "
                f"{row['n_psi_factorial']:>16} {row['psi_power_coeff']:>14}"
            )
    return EXIT_OK


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # exact results are printed in full, past CPython's default limit on
    # int-to-str conversion; the caller's limit is restored on the way out
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.command == "expand":
            return _run_expand(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "jackson":
            return _run_jackson(args)
        if args.command == "table":
            return _run_table(args)
        raise DomainError(f"unknown command {args.command!r}")
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (ParseError, DomainError, RangeError, DegenerateParamsError,
            ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PsiCalcError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
