"""Command-line front end.

Subcommands:

    expand   Taylor / psi-Bernoulli-Taylor / Newton / Maclaurin expansion
             reports for a polynomial.
    verify   Run named exact-identity suites over fixed, documented sweeps.
    jackson  Exact and numeric Jackson q-integrals side by side.
    table    n_psi, n_psi!, and psi-power coefficients for n up to a bound.

The JSON and text outputs of expand, verify and jackson are the fields
of the report the library returns, in a fixed order, plus the few values
no report carries (the polynomial f, its value at --x-eval, the Newton
remainder at each checked point).  All exact values appear in I/O as
rational strings ("p" or "p/q"); the only decimal output is the
intrinsically approximate numeric Jackson value.  expand refuses a
--psi other than classical, or an --x-eval, unless --kind is psi.
expand accepts an --order up to MAX_ORDER = 10 000, the library's
`expansions.MAX_ORDER`, verify a --max-degree up to MAX_DEGREE = 64 and
table an --n up to MAX_TABLE_N = 256; a larger one is a domain error,
raised before any work.  n_psi! has order n^2 bits on a sequence like
q:3/2, so the work grows much faster than the size asked for: doubling
either limit makes a q:3/2 run ten or more times slower.  A power or
product in --f above degree `parsing.MAX_DEGREE` = 128, or with
coefficients past `parsing.MAX_BITS` = 100 000 bits, is a parse error,
raised before it is computed.  An expand run whose size estimate
(`_check_report_size`) passes MAX_REPORT_BITS = 2^23 bits, and a
maclaurin --alpha above `discrete.MAX_ALPHA` = 10 000, are domain
errors, raised before any work.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error,
3 admissibility error, 130 interrupted (SIGINT, one line on stderr),
141 stdout closed by its reader, as by `| head` (no text).

A start imports, and so compiles, only the modules its subcommand runs.
At import this module loads `errors`, `poly`, `record` and `sequences`,
which are all that table needs; each run function imports the rest:
expand `parsing` and, by --kind, `expansions` (psi, taylor) or
`discrete` (newton, maclaurin); jackson `parsing` and `hahn`.  The
verify suites read `operators` and `hahn` as attributes of the package,
which imports each on first access, so a suite loads only the one it
runs.  `json` is imported only for --format json.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

import psicalc  # its submodules load on first access, as `_SUITES` reads them
from .errors import (
    MAX_ORDER, AdmissibilityError, DomainError, InternalError, ParseError, PsiCalcError,
)
from .poly import Polynomial
from .record import Record
from .sequences import PsiContext, parse_psi_spec, parse_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ADMISSIBILITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, the shell's code for it

MAX_DEGREE = 64  # the largest verify --max-degree
MAX_TABLE_N = 256  # the largest table --n
MAX_REPORT_BITS = 1 << 23  # the largest expand size estimate, about 2.5 MB of digits

# The fixed grids of the verify suites, read by `_SUITES` and by the help text.
_SHIFTS = (0, 1, -2)  # the y of the derivative pairs D, x - y
_BERNOULLI_M, _BERNOULLI_N, _TELESCOPING_N, _HISTORICAL_DEGREE = 16, 8, 6, 12
_EXP_ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(-2, 3))
_EXP_BETAS = (Fraction(1), Fraction(1, 3))
_INTERVALS = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(3, 2)))
_HAHN_QS = (Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(-2))
_HAHN_HS = (Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 5))
_JACKSON_QS = (Fraction(2), Fraction(1, 2), Fraction(3, 5))


def _listed(values) -> str:
    return ", ".join(map(str, values))


VERIFY_SWEEPS_HELP = (
    "Fixed sweeps: commutator checks monomials up to --max-degree for the classical pairs "
    f"(shifts {_listed(_SHIFTS)}), the difference pair, and the psi pair; bernoulli sweeps "
    f"m <= min(--max-degree, {_BERNOULLI_M}) and orders n <= {_BERNOULLI_N} on the same pairs; "
    f"telescoping uses n <= {_TELESCOPING_N} on a seeded degree-<=--max-degree corpus; leibniz, "
    "per-partes, fundamental and historical use the same corpus, per-partes on the intervals "
    f"{' and '.join(f'[{_listed(ab)}]' for ab in _INTERVALS)}, historical with each f "
    f"truncated to degree {_HISTORICAL_DEGREE}; exp-addition uses alpha in "
    f"{{{_listed(_EXP_ALPHAS)}}} and beta in {{{_listed(_EXP_BETAS)}}} to degree --max-degree; "
    f"hahn-reduction runs q in {{{_listed(_HAHN_QS)}}} x h in {{{_listed(_HAHN_HS)}}}; "
    f"jackson-inverse runs q in {{{_listed(_JACKSON_QS)}}}. The corpus seed is fixed, so runs "
    "are reproducible."
)

# argparse takes a token that starts with "-" for a value, not an unknown
# option, only if it reads as a negative number: "-1" or "-1.5" on Python
# 3.10-3.12.  The rational flags of expand and jackson add "-1/2".
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

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
    # argparse calls this before main lifts the int-to-str digit limit, so
    # it lifts the limit for its own parse: a long rational reads like the
    # same digits in --f, while the int flags keep the limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    finally:
        sys.set_int_max_str_digits(digit_limit)


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
    p_expand._negative_number_matcher = _NEGATIVE_NUMBER
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
    p_expand.set_defaults(run=_run_expand)

    p_verify = sub.add_parser(
        "verify", help="run exact identity suites", epilog=VERIFY_SWEEPS_HELP
    )
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--psi", default="classical")
    p_verify.add_argument("--max-degree", type=int, default=16, dest="max_degree")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(run=_run_verify)

    p_jackson = sub.add_parser("jackson", help="Jackson q-integrals")
    p_jackson._negative_number_matcher = _NEGATIVE_NUMBER
    p_jackson.add_argument("--f", required=True)
    p_jackson.add_argument("--q", type=_rat, required=True)
    p_jackson.add_argument("--z", type=_rat, required=True)
    p_jackson.add_argument("--tol", type=_tol, default=1e-13)
    p_jackson.add_argument("--format", choices=("text", "json"), default="text")
    p_jackson.set_defaults(run=_run_jackson)

    p_table = sub.add_parser("table", help="psi-sequence tables")
    p_table.add_argument("--psi", default="classical")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(run=_run_table)

    return parser


# -- expand -----------------------------------------------------------------


def _run_expand(args) -> int:
    from .parsing import parse_poly

    f = parse_poly(args.f)
    kind = args.kind or ("psi" if args.x_eval is not None else "taylor")
    # the expansions check the same bounds; this check only names the
    # flag, and refuses the order before the psi-spec is parsed
    if args.order < 0:
        raise DomainError("--order must be nonnegative")
    if args.order > MAX_ORDER:
        raise DomainError(f"--order must be at most {MAX_ORDER}")
    if kind == "psi" and args.x_eval is None:
        raise DomainError("--x-eval is required for the psi expansion")
    ctx = parse_psi_spec(args.psi)
    if kind != "psi" and ctx.label != "classical":
        raise DomainError(f"--psi {ctx.label} applies only to --kind psi, not {kind}")
    if kind != "psi" and args.x_eval is not None:
        raise DomainError(f"--x-eval applies only to --kind psi, not {kind}")
    _check_report_size(f, None if kind == "newton" else args.alpha, args.x_eval)
    extra = {"kind": kind, "f": f}

    if kind in ("taylor", "psi"):
        from . import expansions
    else:
        from . import discrete
    if kind == "taylor":
        report = expansions.taylor_classical(f, args.alpha, args.order)
        keys = ("kind psi=psi_label f alpha order terms partial_sum "
                "remainder=cauchy_remainder oracle_remainder exact")
    elif kind == "psi":
        report = expansions.psi_bernoulli_taylor(ctx, f, args.alpha, args.x_eval, args.order)
        extra["value"] = f(args.x_eval)
        keys = ("kind psi=psi_label f alpha x_eval order terms "
                "remainder=cauchy_remainder oracle_remainder value exact")
    elif kind == "newton":
        lattice = discrete.LatticeFunction.from_polynomial(f)
        report = discrete.newton_expansion(lattice, args.order)
        extra["remainder_at"] = {
            str(x): str(report.remainder_at(x)) for x in report.checked_points
        }
        keys = "kind f order terms partial_sum remainder_at checked_points exact"
    else:  # maclaurin
        if args.alpha.denominator != 1 or args.alpha < 1:
            raise DomainError("--alpha must be a positive integer for maclaurin")
        if args.alpha > discrete.MAX_ALPHA:
            raise DomainError(f"--alpha must be at most {discrete.MAX_ALPHA} for maclaurin")
        lattice = discrete.LatticeFunction.from_polynomial(f)
        report = discrete.bernoulli_maclaurin(lattice, int(args.alpha), args.order)
        keys = "kind f alpha order terms remainder total target exact"

    _emit(_fields(report, keys, extra), args.format)
    return EXIT_OK


def _check_report_size(f: Polynomial, *points: Fraction | None) -> None:
    """Refuse an expand run whose report would be too large, before any
    work.  With b(v) the bits of v as `parsing._bits` counts them and
    d = deg f, a coefficient of the report has at most about
    b(f) + d * (b(alpha) + b(x_eval)) bits.  A taylor or newton report
    lists about (d + 1)^2 / 2 of them, and the psi kind makes about as
    many big-integer steps on numbers that size; maclaurin takes the same
    bound, beside `discrete.MAX_ALPHA`.  A point given as None (newton's
    unused alpha, a missing x_eval) is not counted."""
    from .parsing import _bits

    d = max(f.degree, 0)
    bits = _bits(f) + d * sum(_bits(Polynomial.constant(v)) for v in points if v is not None)
    count = (d + 1) ** 2 // 2
    if count * bits > MAX_REPORT_BITS:
        raise DomainError(
            f"report of about {count} coefficients of up to {bits} bits is above "
            f"the limit of {MAX_REPORT_BITS} bits"
        )


# -- verify -------------------------------------------------------------------


def _pairs(ctx: PsiContext):
    return (*map(psicalc.operators.derivative_pair, _SHIFTS), psicalc.operators.delta_pair(),
            psicalc.operators.psi_pair(ctx))


# suite name -> (ctx, max_degree, corpus) -> reports, in the order `--suite all` runs them
_SUITES = {
    "commutator": lambda ctx, d, corpus: [
        psicalc.operators.verify_commutator(pair, d) for pair in _pairs(ctx)],
    "telescoping": lambda ctx, d, corpus: [
        psicalc.operators.verify_telescoping(ctx, n, f)
        for n in range(_TELESCOPING_N + 1) for f in corpus[:3]],
    "bernoulli": lambda ctx, d, corpus: [
        psicalc.operators.bernoulli_identity_sweep(pair, min(d, _BERNOULLI_M), _BERNOULLI_N)
        for pair in _pairs(ctx)],
    "leibniz": lambda ctx, d, corpus: [
        psicalc.operators.verify_leibniz(ctx, f, g) for f in corpus[:3] for g in corpus[3:]],
    "exp-addition": lambda ctx, d, corpus: [
        psicalc.operators.verify_exp_addition(ctx, alpha, beta, d)
        for alpha in _EXP_ALPHAS for beta in _EXP_BETAS],
    "per-partes": lambda ctx, d, corpus: [
        psicalc.operators.verify_per_partes(ctx, f, g, a, b)
        for f in corpus[:2] for g in corpus[2:4] for a, b in _INTERVALS],
    "fundamental": lambda ctx, d, corpus: [
        psicalc.operators.verify_fundamental_theorem(ctx, f) for f in corpus],
    "historical": lambda ctx, d, corpus: [
        psicalc.operators.verify_historical_series(f.truncate(_HISTORICAL_DEGREE)) for f in corpus],
    "hahn-reduction": lambda ctx, d, corpus: [
        psicalc.hahn.verify_hahn_reduction(psicalc.hahn.HahnParams(q, h), d)
        for q in _HAHN_QS for h in _HAHN_HS],
    "jackson-inverse": lambda ctx, d, corpus: [
        psicalc.hahn.verify_jackson_inverse(f, q) for q in _JACKSON_QS for f in corpus[:3]],
}
SUITES = tuple(_SUITES)


def _run_verify(args) -> int:
    if args.max_degree < 0:
        raise DomainError("--max-degree must be nonnegative")
    if args.max_degree > MAX_DEGREE:
        raise DomainError(f"--max-degree must be at most {MAX_DEGREE}")
    ctx = parse_psi_spec(args.psi)
    corpus = _corpus(args.max_degree)
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = [(suite, report) for suite in suites
               for report in _SUITES[suite](ctx, args.max_degree, corpus)]

    if args.format == "json":
        rows = [{"suite": suite, **_fields(r, "identity params cases passed counterexample")}
                for suite, r in results]
        _print_json(rows)
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
    from . import hahn
    from .parsing import parse_poly

    f = parse_poly(args.f)
    exact = hahn.jackson_integral_exact(f, args.q, args.z)

    try:
        floats = [float(c) for c in f.coeffs]
    except OverflowError:
        raise DomainError("a coefficient of f is too large for a float") from None

    def fn(t: float) -> float:
        acc = 0.0
        for c in reversed(floats):
            acc = acc * t + c
        return acc

    numeric = hahn.jackson_integral_numeric(fn, args.q, args.z, args.tol)
    extra = {"f": f, "q": args.q, "z": args.z, "exact": exact}
    _emit(_fields(numeric, "f q z exact numeric=value terms_used tail_tol", extra), args.format)
    return EXIT_OK


# -- table --------------------------------------------------------------------


def _run_table(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if args.n > MAX_TABLE_N:
        raise DomainError(f"--n must be at most {MAX_TABLE_N}")
    ctx = parse_psi_spec(args.psi)
    ctx.rows(args.n)  # grown once, not one index per n_psi!
    rows = []
    for n in range(1, args.n + 1):
        fact = ctx.factorial(n)  # n_psi! reduced once; the power coefficient is n!/n_psi!
        rows.append(
            {
                "n": n,
                "n_psi": str(ctx.factor(n)),
                "n_psi_factorial": str(fact),
                "psi_power_coeff": str(math.factorial(n) / fact),
            }
        )
    if args.format == "json":
        _print_json({"psi": ctx.label, "rows": rows})
    else:
        print(f"psi = {ctx.label}")
        print(f"{'n':>4} {'n_psi':>12} {'n_psi!':>16} {'power coeff':>14}")
        for row in rows:
            print(
                f"{row['n']:>4} {row['n_psi']:>12} "
                f"{row['n_psi_factorial']:>16} {row['psi_power_coeff']:>14}"
            )
    return EXIT_OK


def _plain(v):
    """v as a JSON value: an exact number or polynomial as its string, a
    tuple as a list and a nested record as the dict of its fields."""
    if isinstance(v, (Fraction, Polynomial)):
        return str(v)
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, Record):
        return {name: _plain(getattr(v, name)) for name in v.__slots__}
    return v


def _fields(report, keys: str, extra: dict | None = None) -> dict:
    """The output of a report: for each of the space-separated `keys` in
    order, `extra[key]` if given, else the report's attribute `key`; a key
    written `out=attr` reads the attribute `attr` under the name `out`."""
    extra = extra or {}
    fields = {}
    for spec in keys.split():
        key, _, attr = spec.partition("=")
        fields[key] = _plain(extra[key] if key in extra else getattr(report, attr or key))
    return fields


def _print_json(value) -> None:
    # only --format json needs it: on top of this module's imports it
    # adds about 2 ms to an uncached start
    import json

    print(json.dumps(value, indent=2))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _print_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def main(argv=None) -> int:
    # once argv is parsed, exact results are printed in full, past CPython's
    # limit on int-to-str conversion; the caller's limit is restored on exit
    digit_limit = sys.get_int_max_str_digits()
    try:
        code = _main(argv)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader went away: the rest, and the flush at
        # exit, go to os.devnull (the `signal` docs' recipe), on this path only
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _main(argv) -> int:
    """Run argv's subcommand: its exit code, or its error's, with one line."""
    try:
        args = build_parser().parse_args(argv)
        sys.set_int_max_str_digits(0)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (PsiCalcError, ValueError) as exc:
        label = "internal error" if isinstance(exc, InternalError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
