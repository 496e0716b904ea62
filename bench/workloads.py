"""Seeded inputs and operations for the three benchmark workloads.

Each workload is a closed loop with one client.  Its operations come in
rounds; round r draws fresh inputs from `random.Random(f"{seed}:{r}")`,
but every round has the same composition and one size drawn from each
size stratum, so rounds cost about the same whatever the seed.  No
inputs repeat between rounds except where a sweep has no input besides
its size (a commutator sweep is just a pair and N).

An `Op` carries a kind, a payload and a check.  For the library
workloads the payload is a zero-argument callable that makes one public
`psicalc` call, looked up by attribute at call time so tracing can wrap
it; for `cli_session` it is an argv list.  `check(result)` returns None
or a message, using only `oracle`.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable, Optional

import oracle

PSI_SPECS = ("classical", "q:2", "q:1/2", "q:3/2", "fib")
EXPAND_SPECS = ("classical", "q:2", "q:1/2", "fib")
HAHN_GRID = [
    (q, h) for q in (F(2), F(1, 2), F(3, 2), F(-2)) for h in (F(0), F(1), F(-3), F(7, 5))
]
JACKSON_Q = (F(1, 2), F(3, 4), F(9, 10), F(99, 100))


@dataclass
class Op:
    kind: str
    payload: Any
    check: Callable[[Any], Optional[str]]


def round_rng(seed: int, r: int):
    return random.Random(f"{seed}:{r}")


def stratum(rng, lo: int, hi: int, k: int, i: int, tiny: bool) -> int:
    """A value from the i-th of k equal slices of [lo, hi]."""
    if tiny:
        hi = lo + (hi - lo) // 8
    width = (hi - lo + 1) / k
    first = lo + int(i * width)
    return rng.randint(first, max(first, lo + int((i + 1) * width) - 1))


def strata(rng, lo: int, hi: int, k: int, tiny: bool) -> list[int]:
    """One value from each of k slices of [lo, hi], shuffled."""
    values = [stratum(rng, lo, hi, k, i, tiny) for i in range(k)]
    rng.shuffle(values)
    return values


def rotation(seed: int, r: int, k: int) -> list[int]:
    """Slot i's stratum in round r: a seeded Latin-square rotation, so
    over any k consecutive rounds every slot meets every stratum once and
    the rounds' total cost does not depend on the seed."""
    perm = random.Random(f"{seed}:plan:{k}").sample(range(k), k)
    return [(p + r) % k for p in perm]


def rational(rng, num: int, den: int) -> F:
    return F(rng.randint(-num, num), rng.randint(1, den))


def coeff_list(rng, degree: int, den: int = 5) -> list[F]:
    """Random rational coefficients with a nonzero leading one."""
    cs = [rational(rng, 9, den) for _ in range(degree)]
    cs.append(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den)))
    return cs


def points(rng, k: int = 3) -> list[F]:
    return [rational(rng, 7, 4) for _ in range(k)]


# -- setup ---------------------------------------------------------------------


class Env:
    """What a library workload builds once: its contexts and GHW pairs."""

    def __init__(self, pc, workload: str):
        self.pc = pc
        specs = PSI_SPECS if workload == "identity_sweep" else EXPAND_SPECS
        self.ctxs = {s: pc.parse_psi_spec(s) for s in specs}
        self.pairs = []
        if workload == "identity_sweep":
            self.pairs = [pc.derivative_pair(y) for y in (0, 1, -2)]
            self.pairs.append(pc.delta_pair())
            self.pairs += [pc.psi_pair(self.ctxs[s]) for s in PSI_SPECS]


# -- identity_sweep --------------------------------------------------------------


def identity_round(env: Env, seed: int, r: int, tiny: bool) -> list[Op]:
    """9 commutator and 9 Bernoulli sweeps (one per pair, sizes rotated
    through the strata), 40 small star-algebra checks and 5 exp-additions.
    The small checks are the majority, so p50 sits inside their cluster;
    p90 falls among the larger Bernoulli sweeps."""
    pc, ops, rng = env.pc, [], round_rng(seed, r)
    npairs = len(env.pairs)

    for i, k in enumerate(rotation(seed, r, npairs)):
        N = stratum(rng, 8, 64, npairs, k, tiny)
        ops.append(Op(
            "commutator",
            lambda i=i, N=N: pc.verify_commutator(env.pairs[i], N),
            lambda rep, N=N: oracle.check_report(rep, N + 1),
        ))

    for i, k in enumerate(rotation(seed + 1, r, npairs)):
        m = stratum(rng, 4, 32, npairs, k, tiny)
        n = max(1, min(16, m // 2 + rng.randint(-1, 1)))
        ops.append(Op(
            "bernoulli",
            lambda i=i, m=m, n=n: pc.bernoulli_identity_sweep(env.pairs[i], m, n),
            lambda rep, m=m, n=n: oracle.check_report(rep, (m + 1) * (n + 1)),
        ))

    specs = list(PSI_SPECS)
    for spec, deg in zip(specs * 2, strata(rng, 4, 16, 2 * len(specs), tiny)):
        f = pc.Polynomial(coeff_list(rng, deg))
        n = rng.randint(1, 8)
        ops.append(Op(
            "telescoping",
            lambda spec=spec, n=n, f=f: pc.verify_telescoping(env.ctxs[spec], n, f),
            lambda rep: oracle.check_report(rep, 1),
        ))

    for spec, deg in zip(specs * 3, strata(rng, 2, 8, 3 * len(specs), tiny)):
        f = pc.Polynomial(coeff_list(rng, deg))
        g = pc.Polynomial(coeff_list(rng, rng.randint(1, 8)))
        a, b = rational(rng, 3, 3), rational(rng, 3, 3)
        ops.append(Op(
            "leibniz",
            lambda spec=spec, f=f, g=g: pc.verify_leibniz(env.ctxs[spec], f, g),
            lambda rep: oracle.check_report(rep, 1),
        ))
        ops.append(Op(
            "per_partes",
            lambda spec=spec, f=f, g=g, a=a, b=b: pc.verify_per_partes(env.ctxs[spec], f, g, a, b),
            lambda rep: oracle.check_report(rep, 1),
        ))

    for spec, N in zip(specs, strata(rng, 8, 32, len(specs), tiny)):
        alpha, beta = rational(rng, 3, 4), rational(rng, 3, 4)
        ops.append(Op(
            "exp_addition",
            lambda spec=spec, alpha=alpha, beta=beta, N=N: pc.verify_exp_addition(
                env.ctxs[spec], alpha, beta, N
            ),
            lambda rep, N=N: oracle.check_report(rep, N + 1),
        ))

    rng.shuffle(ops)
    return ops


# -- expand_hahn ------------------------------------------------------------------


def expand_round(env: Env, seed: int, r: int, tiny: bool) -> list[Op]:
    """4 Hahn-grid sweeps (the grid in a seeded order, four points a round,
    N rotated through four strata) and 20 smaller expansion, Hahn-derivative
    and Jackson ops."""
    pc, ops, rng = env.pc, [], round_rng(seed, r)

    order = random.Random(f"{seed}:plan:grid").sample(HAHN_GRID, len(HAHN_GRID))
    grid = [order[(4 * r + j) % len(order)] for j in range(4)]
    for (q, h), k in zip(grid, rotation(seed, r // 4, 4)):
        N = stratum(rng, 8, 32, 4, k, tiny)
        ops.append(Op(
            "hahn_reduction",
            lambda q=q, h=h, N=N: pc.verify_hahn_reduction(pc.HahnParams(q, h), N),
            lambda rep, N=N: oracle.check_report(rep, N + 1),
        ))

    grid = rng.sample(HAHN_GRID, 4)
    for (q, h), deg in zip(grid, strata(rng, 1, 12, 4, tiny)):
        cs = coeff_list(rng, deg)
        f, pts = pc.Polynomial(cs), points(rng)
        ops.append(Op(
            "hahn_derivative",
            lambda f=f, q=q, h=h: pc.hahn_derivative(f, pc.HahnParams(q, h)),
            lambda d, cs=cs, q=q, h=h, pts=pts: oracle.check_hahn(cs, q, h, d, pts),
        ))

    for deg in strata(rng, 1, 12, 4, tiny):
        cs = coeff_list(rng, deg)
        f, pts = pc.Polynomial(cs), points(rng)
        alpha, n = rational(rng, 6, 4), rng.randint(0, 14)
        ops.append(Op(
            "taylor",
            lambda f=f, alpha=alpha, n=n: pc.taylor_classical(f, alpha, n),
            lambda rep, cs=cs, pts=pts: oracle.check_taylor(cs, rep, pts),
        ))

    for spec, deg in zip(EXPAND_SPECS, strata(rng, 1, 12, len(EXPAND_SPECS), tiny)):
        cs = coeff_list(rng, deg)
        f = pc.Polynomial(cs)
        alpha, x_eval, n = rational(rng, 6, 4), rational(rng, 6, 4), rng.randint(0, 14)
        ops.append(Op(
            "psi_bernoulli_taylor",
            lambda spec=spec, f=f, alpha=alpha, x_eval=x_eval, n=n: pc.psi_bernoulli_taylor(
                env.ctxs[spec], f, alpha, x_eval, n
            ),
            lambda rep, cs=cs, x_eval=x_eval: oracle.check_psi_bt(cs, x_eval, rep),
        ))

    for deg in strata(rng, 1, 10, 2, tiny):
        cs = coeff_list(rng, deg)
        f = pc.LatticeFunction.from_polynomial(pc.Polynomial(cs))
        n, pts = rng.randint(0, 10), [rng.randint(0, 16) for _ in range(3)]
        ops.append(Op(
            "newton",
            lambda f=f, n=n: pc.newton_expansion(f, n),
            lambda rep, cs=cs, pts=pts: oracle.check_newton(cs, rep, pts),
        ))

    for deg in strata(rng, 1, 8, 2, tiny):
        cs = coeff_list(rng, deg)
        f = pc.LatticeFunction.from_polynomial(pc.Polynomial(cs))
        alpha, n = rng.randint(1, 8), rng.randint(0, 8)
        ops.append(Op(
            "maclaurin",
            lambda f=f, alpha=alpha, n=n: pc.bernoulli_maclaurin(f, alpha, n),
            lambda rep, cs=cs: oracle.check_maclaurin(cs, rep),
        ))

    for _ in range(2):
        cs = coeff_list(rng, rng.randint(1, 6))
        f, q = pc.Polynomial(cs), rng.choice(JACKSON_Q)
        z = F(rng.randint(1, 8), rng.randint(1, 4)) * rng.choice((-1, 1))
        want = oracle.jackson_exact(cs, q, z)
        ops.append(Op(
            "jackson_exact",
            lambda f=f, q=q, z=z: pc.jackson_integral_exact(f, q, z),
            lambda v, want=want: oracle.mismatch("jackson exact", v, want),
        ))
        fn = oracle.float_horner(cs)
        ops.append(Op(
            "jackson_numeric",
            lambda fn=fn, q=q, z=z: pc.jackson_integral_numeric(fn, q, z, 1e-13),
            lambda rep, want=want: None if rep.terms_used > 0 and oracle.close(rep.value, want)
            else f"jackson numeric {rep.value} vs {want}",
        ))

    rng.shuffle(ops)
    return ops


# -- cli_session ----------------------------------------------------------------------

SUITE_REPORTS = {
    "commutator": 5, "telescoping": 21, "bernoulli": 5, "leibniz": 9,
    "exp-addition": 6, "per-partes": 8, "fundamental": 6, "historical": 6,
    "hahn-reduction": 16, "jackson-inverse": 9,
}
# bernoulli and hahn-reduction take several times as long as the others
LIGHT_SUITES = tuple(s for s in SUITE_REPORTS if s not in ("bernoulli", "hahn-reduction"))


def expression(rng, max_terms: int = 3):
    """A seeded `--f` text, sum of c*(x+a)^k terms, and its coefficients."""
    coeffs = [F(0)] * 7
    pieces = []
    for i in range(rng.randint(1, max_terms)):
        c = rational(rng, 6, 4) or F(1)
        a = rational(rng, 4, 3)
        k = rng.randint(1, 6)
        for j in range(k + 1):
            coeffs[j] += c * math.comb(k, j) * a ** (k - j)
        base = "x" if a == 0 else f"(x {'-' if a < 0 else '+'} {abs(a)})"
        body = f"{abs(c)}*{base}^{k}"
        if i == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return " ".join(pieces), coeffs


def _json(stdout: str):
    return json.loads(stdout)


def _cli_check(parse: Callable[[str], Optional[str]]):
    def check(result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        try:
            return parse(stdout)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    return check


def _golden(lines: list[str]):
    def parse(stdout):
        have = stdout.splitlines()
        missing = [line for line in lines if line not in have]
        return f"missing golden lines {missing}" if missing else None

    return parse


def _table_text(spec: str, n: int):
    want = [list(row) for row in oracle.table_rows(spec, n)]

    def parse(stdout):
        rows = [line.split() for line in stdout.splitlines()[2:]]
        return oracle.mismatch(f"table {spec}", rows, want)

    return parse


def _verify_text(reports: int):
    def parse(stdout):
        lines = [line for line in stdout.splitlines() if not line.startswith("  at ")]
        if len(lines) != reports:
            return f"{len(lines)} report lines, want {reports}"
        for line in lines:
            m = re.search(r" cases=(\d+) (PASS|FAIL)$", line)
            if not m or m.group(2) != "PASS" or int(m.group(1)) == 0:
                return f"bad report line {line!r}"
        return None

    return parse


def _expand_check(kind: str, cs: list, alpha: F, x_eval: Optional[F], pts):
    def parse(stdout):
        p = _json(stdout)
        if p["exact"] is not True:
            return f"{kind} not exact"
        if kind == "taylor":
            for t in pts:
                got = oracle.printed_value(p["partial_sum"], t) + oracle.printed_value(p["remainder"], t)
                err = oracle.mismatch(f"cli taylor t={t}", got, oracle.horner(cs, t))
                if err:
                    return err
            return None
        if kind == "psi":
            total = sum((F(t) for t in p["terms"]), F(0)) + F(p["remainder"])
            want = oracle.horner(cs, x_eval)
            return oracle.mismatch("cli psi total", total, want) or oracle.mismatch(
                "cli psi value", F(p["value"]), want
            )
        if kind == "newton":
            for x, rem in p["remainder_at"].items():
                got = oracle.printed_value(p["partial_sum"], int(x)) + F(rem)
                err = oracle.mismatch(f"cli newton x={x}", got, oracle.horner(cs, int(x)))
                if err:
                    return err
            return None
        want = oracle.horner(cs, 0)
        total = sum((F(t) for t in p["terms"]), F(0)) + F(p["remainder"])
        return oracle.mismatch("cli maclaurin", total, want) or oracle.mismatch(
            "cli maclaurin target", F(p["target"]), want
        )

    return parse


def _jackson_check(cs, q, z):
    want = oracle.jackson_exact(cs, q, z)

    def parse(stdout):
        p = _json(stdout)
        if p["terms_used"] < 1 or not oracle.close(p["numeric"], want):
            return f"jackson numeric {p['numeric']} vs {want}"
        return oracle.mismatch("cli jackson exact", F(p["exact"]), want)

    return parse


def _table_json(spec, n):
    want = [list(row[1:]) for row in oracle.table_rows(spec, n)]

    def parse(stdout):
        rows = [[r["n_psi"], r["n_psi_factorial"], r["psi_power_coeff"]] for r in _json(stdout)["rows"]]
        return oracle.mismatch(f"table {spec}", rows, want)

    return parse


README_EXPAND = ["expand", "--psi", "q:2", "--f", "(1+x)^3", "--alpha", "0",
                 "--x-eval", "1", "--order", "2"]
README_JACKSON = ["jackson", "--f", "x^2", "--q", "1/2", "--z", "1"]


def cli_round(seed: int, r: int, tiny: bool) -> list[Op]:
    """20 commands: 12 short ones (expand, jackson, table), 4 single-suite
    verifies and 4 `verify --suite all`, one with fib and three with q:3/2.
    p50 falls inside the start-up-bound cluster of short commands (60 %),
    and p90 inside the `--suite all` cluster (its 10th of 20 per 100 ops,
    among the q:3/2 runs whichever side of fib they fall), so neither lands
    on the step between clusters."""
    rng = round_rng(seed, r)
    ops = [
        Op("expand_readme", README_EXPAND, _cli_check(_golden(
            ["terms: ['1', '3', '3']", "remainder: 1", "value: 8", "exact: True"]))),
        Op("jackson_readme", README_JACKSON, _cli_check(_golden(
            ["exact: 4/7", "numeric: 0.5714285714285714", "terms_used: 18"]))),
        Op("table_readme", ["table", "--psi", "q:2", "--n", "4"], _cli_check(_table_text("q:2", 4))),
    ]
    kinds = ["taylor", "psi", "newton", "maclaurin"]
    for kind in kinds + [rng.choice(kinds)]:
        text, cs = expression(rng)
        # `--opt=value` keeps a leading minus from reading as an option
        argv = ["expand", "--kind", kind, f"--f={text}", "--order", str(rng.randint(0, 8)),
                "--format", "json"]
        alpha, x_eval = rational(rng, 4, 3), None
        if kind == "maclaurin":
            alpha = F(rng.randint(1, 6))
        if kind == "psi":
            x_eval = rational(rng, 4, 3)
            argv += ["--psi", rng.choice(EXPAND_SPECS), f"--x-eval={x_eval}"]
        if kind != "newton":
            argv += [f"--alpha={alpha}"]
        ops.append(Op(f"expand_{kind}", argv, _cli_check(
            _expand_check(kind, cs, alpha, x_eval, points(rng)))))

    for _ in range(2):
        text, cs = expression(rng, 2)
        q = rng.choice(JACKSON_Q)
        z = F(rng.randint(1, 6), rng.randint(1, 3))
        ops.append(Op("jackson", ["jackson", f"--f={text}", "--q", str(q), "--z", str(z),
                                  "--format", "json"], _cli_check(_jackson_check(cs, q, z))))
        spec, n = rng.choice(PSI_SPECS), rng.randint(4, 12)
        ops.append(Op("table", ["table", "--psi", spec, "--n", str(n), "--format", "json"],
                      _cli_check(_table_json(spec, n))))

    degree = ["--max-degree", "4"] if tiny else []
    for suite in rng.sample(LIGHT_SUITES, 4):
        ops.append(Op("verify_one", ["verify", "--suite", suite, "--psi", rng.choice(PSI_SPECS)]
                      + degree, _cli_check(_verify_text(SUITE_REPORTS[suite]))))
    for spec in ("fib", "q:3/2", "q:3/2", "q:3/2"):
        ops.append(Op("verify_all", ["verify", "--suite", "all", "--psi", spec] + degree,
                      _cli_check(_verify_text(sum(SUITE_REPORTS.values())))))
    rng.shuffle(ops)
    return ops
