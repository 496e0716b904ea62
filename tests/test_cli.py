import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import SRC, fresh
from psicalc import cli
from psicalc.cli import main
from psicalc.errors import AdmissibilityError, InternalError, RangeError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_psi_expansion_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "expand", "--psi", "classical", "--f", "x^3", "--alpha", "1",
            "--order", "2", "--x-eval", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == ["1", "3", "3"]
        assert payload["remainder"] == "1"
        assert payload["exact"] is True
        assert payload["value"] == "8"

    def test_negated_polynomial_joined_with_equals(self, capsys):
        code, out, err = run(capsys, "expand", "--f=-x^2", "--order", "1")
        assert (code, err) == (0, "")
        assert "f: -1*x^2\n" in out and "exact: True" in out

    def test_taylor_text(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--f", "x^3", "--alpha", "1", "--order", "2"
        )
        assert code == 0
        assert "exact: True" in out

    def test_newton(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--kind", "newton", "--f", "x^2", "--order", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["partial_sum"] == "x^2"
        assert payload["exact"] is True

    def test_maclaurin(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--kind", "maclaurin", "--f", "x^2", "--alpha", "3",
            "--order", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == payload["target"] == "0"
        assert payload["exact"] is True

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "expand", "--f", "x^^2", "--alpha", "0", "--order", "1"
        )
        assert code == 2
        assert "offset" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--psi", "nonsense"], "unrecognized psi-spec 'nonsense'"),
        (["--psi", "q:2"], "--psi q:2"),
        (["--kind", "maclaurin", "--alpha", "2", "--psi", "fib"], "--psi fib"),
        (["--kind", "newton", "--x-eval", "1"], "--x-eval"),
        (["--kind", "taylor", "--x-eval", "1"], "--x-eval"),
    ], ids=["malformed-psi", "psi-without-x-eval", "psi-with-maclaurin",
            "x-eval-with-newton", "x-eval-with-taylor"])
    def test_flags_the_kind_does_not_use_are_refused(self, capsys, argv, flag):
        code, out, err = run(capsys, "expand", "--f", "x", "--order", "1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and flag in err

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code, _, err = run(
            capsys, "expand", "--f", "(" * 2000 + "x" + ")" * 2000, "--order", "1"
        )
        assert code == 2
        assert "Traceback" not in err and "offset 100" in err


class TestVerify:
    def test_all_suites_fibonomial(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--psi", "fib", "--max-degree", "10"
        )
        assert code == 0
        assert "FAIL" not in out

    def test_single_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "commutator", "--psi", "q:3/2",
            "--max-degree", "12", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(entry["passed"] for entry in payload)

    def test_admissibility_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "telescoping", "--psi", "q:-1"
        )
        assert code == 3
        assert "admissibility" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    def test_help_states_the_bernoulli_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        out = " ".join(out.split())
        assert "bernoulli sweeps m <= min(--max-degree, 16) and orders n <= 8" in out

    def test_help_names_every_grid_a_suite_runs(self, capsys):
        # the values the reports of --suite all show, against the sets the
        # help names for them
        _, out, _ = run(capsys, "verify", "--max-degree", "1", "--format", "json")
        ran = {}
        for row in json.loads(out):
            if row["suite"] in ("exp-addition", "per-partes", "hahn-reduction", "jackson-inverse"):
                params = dict(kv.split("=") for kv in row["params"].split(", "))
                for key, value in params.items():
                    ran.setdefault((row["suite"], key), set()).add(value)
                if row["suite"] == "per-partes":
                    ran.setdefault("intervals", set()).add((params["a"], params["b"]))
        _, out, _ = run(capsys, "verify", "--help")
        text = " ".join(out.split())

        def named(pattern):
            return set(re.search(pattern, text).group(1).split(", "))

        assert ran["exp-addition", "alpha"] == named(r"alpha in \{(.*?)\}")
        assert ran["exp-addition", "beta"] == named(r"beta in \{(.*?)\}")
        assert ran["hahn-reduction", "q"] == named(r"hahn-reduction runs q in \{(.*?)\}")
        assert ran["hahn-reduction", "h"] == named(r" x h in \{(.*?)\}")
        assert ran["jackson-inverse", "q"] == named(r"jackson-inverse runs q in \{(.*?)\}")
        intervals = re.search(r"per-partes on the intervals (.*?), historical", text).group(1)
        assert ran["intervals"] == set(re.findall(r"\[(\S+), (\S+)\]", intervals))
        assert "historical with each f truncated to degree 12" in text

    def test_negative_max_degree_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--max-degree", "-1")
        assert code == 2
        assert "PASS" not in out
        assert "--max-degree" in err


class TestJackson:
    def test_side_by_side(self, capsys):
        code, out, _ = run(
            capsys, "jackson", "--f", "x", "--q", "9/10", "--z", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "10/19"
        assert abs(payload["numeric"] - 10 / 19) < 1e-12

    def test_q_outside_unit_interval(self, capsys):
        code, _, _ = run(capsys, "jackson", "--f", "x", "--q", "2", "--z", "1")
        assert code == 2

    def test_tolerance_given(self, capsys):
        code, out, err = run(capsys, "jackson", "--f", "x^2", "--q", "1/2", "--z", "1",
                             "--tol", "1e-9")
        assert (code, err) == (0, "")
        assert "exact: 4/7\n" in out and out.endswith("tail_tol: 1e-09\n")
        code, out, err = run(capsys, "jackson", "--f", "x^2", "--q", "1/2", "--z", "1",
                             "--tol", "1e-10", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["exact"], payload["tail_tol"]) == ("4/7", 1e-10)
        assert abs(payload["numeric"] - 4 / 7) < 1e-9

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("f, z", [("x^128", "1000"), ("x^128 - 1000*x^127", "2000")],
                             ids=["infinite-terms", "infinities-of-both-signs"])
    def test_a_numeric_sum_past_the_float_range_is_a_domain_error(self, capsys, f, z, fmt):
        # once printed "numeric": Infinity, which is not JSON, and exited 0;
        # or ended on fsum's own "-inf + inf in fsum"
        code, out, err = run(capsys, "jackson", "--f", f, "--q", "1/2", "--z", z,
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: the numeric Jackson sum overflows a float\n"

    @pytest.mark.parametrize("tol", ["inf", "0", "nan", "-1", "1e-400"])
    def test_tolerance_rejected_when_parsed(self, capsys, tol):
        code, out, err = run(capsys, "jackson", "--f", "x", "--q", "1/2", "--z", "1", "--tol", tol)
        assert code == 2
        assert out == "" and "argument --tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--z", "1" + "0" * 400),
        ("--f", "10^400*x"),
        ("--q", "1/1" + "0" * 400),
        ("--q", "9" * 400 + "/1" + "0" * 400),
    ], ids=["huge-z", "huge-coefficient", "q-rounds-to-0", "q-rounds-to-1"])
    def test_values_beyond_float_range_are_domain_errors(self, capsys, flag, value):
        argv = {"--f": "x", "--q": "1/2", "--z": "1", flag: value}
        code, _, err = run(capsys, "jackson", *[a for kv in argv.items() for a in kv])
        assert code == 2
        assert "Traceback" not in err and "float" in err


class TestTable:
    def test_gauss_two_golden(self, capsys):
        code, out, _ = run(
            capsys, "table", "--psi", "q:2", "--n", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        rows = [
            (r["n_psi"], r["n_psi_factorial"], r["psi_power_coeff"])
            for r in payload["rows"]
        ]
        assert rows == [("1", "1", "1"), ("3", "3", "2/3"), ("7", "21", "2/7")]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "--psi", "fib", "--n", "5")
        assert code == 0
        assert "psi = fib" in out

    @pytest.mark.parametrize("spec", ["classical", "q:2", "q:3/2", "q:-2/3", "fib"])
    def test_power_coefficient_is_that_of_psi_power(self, capsys, spec):
        from psicalc import operators, parse_psi_spec

        code, out, _ = run(capsys, "table", "--psi", spec, "--n", "40", "--format", "json")
        assert code == 0
        ctx = parse_psi_spec(spec)
        for row in json.loads(out)["rows"]:
            n = row["n"]
            assert row["psi_power_coeff"] == str(operators.psi_power(ctx, n).coeff(n)), n
            assert row["n_psi_factorial"] == str(ctx.factorial(n)), n

    def test_psi_spec_error_offset(self, capsys):
        code, _, err = run(capsys, "table", "--psi", "q:1/0", "--n", "3")
        assert code == 2
        assert "at offset 4" in err

    def test_results_past_the_int_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)  # this caller's own limit
        try:
            code, out, err = run(capsys, "table", "--psi", "fib", "--n", "210", "--format", "json")
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(before)
        assert (code, err) == (0, "")
        fib = [1, 1]
        while len(fib) < 210:
            fib.append(fib[-1] + fib[-2])
        last = json.loads(out)["rows"][-1]
        assert last["n"] == 210 and len(last["n_psi_factorial"]) > 4300
        # Decimal reads the digits without the int conversion limit
        assert Decimal(last["n_psi_factorial"]) == math.prod(fib)

    def test_rows_grown_once(self, capsys, monkeypatch):
        from psicalc import PsiContext

        asked = []
        rows = PsiContext.rows
        monkeypatch.setattr(PsiContext, "rows", lambda ctx, n: asked.append(n) or rows(ctx, n))
        code, out, _ = run(capsys, "table", "--psi", "q:3/2", "--n", "40", "--format", "json")
        assert code == 0 and len(json.loads(out)["rows"]) == 40
        assert asked[0] == 40 and max(asked) == 40


@pytest.mark.parametrize("argv", [
    ["expand", "--f", "1/0", "--order", "1"],
    ["expand", "--f", "x", "--alpha", "1/0", "--order", "1"],
    ["table", "--psi", "q:1/0", "--n", "3"],
    ["jackson", "--f", "x", "--q", "1/0", "--z", "1"],
])
def test_zero_denominator_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


_HEAVY = ("dataclasses", "inspect", "typing")


def test_import_leaves_out_dataclasses_inspect_and_typing():
    """A CLI start pays for these modules only if psicalc imports them, so
    no submodule may import them; the package loads none on its own."""
    probe = (
        "import sys, psicalc.cli, psicalc.operators, psicalc.expansions, psicalc.discrete, "
        f"psicalc.hahn, psicalc.parsing; print([m for m in {_HEAVY} if m in sys.modules])"
    )
    proc = fresh("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_EVERY_START = {"cli", "errors", "poly", "record", "sequences"}


@pytest.mark.parametrize("argv, extra", [
    ("table --n 3", set()),
    ("expand --kind psi --f x^2 --order 2 --x-eval 1", {"parsing", "expansions", "operators"}),
    ("expand --kind taylor --f x^2 --order 2", {"parsing", "expansions", "operators"}),
    ("expand --kind newton --f x^2 --order 2", {"parsing", "discrete"}),
    ("expand --kind maclaurin --f x^2 --order 2 --alpha 2", {"parsing", "discrete"}),
    ("jackson --f x^2 --q 1/2 --z 1", {"parsing", "hahn", "operators"}),
    ("verify --suite leibniz", {"operators"}),
    ("verify --suite hahn-reduction --max-degree 2", {"hahn", "operators"}),
], ids=["table", "psi", "taylor", "newton", "maclaurin", "jackson", "verify", "verify-hahn"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_subcommand_imports_only_what_it_runs(argv, extra, fmt):
    """A start compiles only the modules it imports, so each subcommand, in
    a fresh interpreter, loads its own psicalc modules, json only for
    --format json, and none of dataclasses, inspect and typing."""
    probe = (
        "import io, sys\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "from psicalc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout = out\n"
        f"print(code, 'json' in sys.modules, [m for m in {_HEAVY} if m in sys.modules])\n"
        "print(*(m for m in sys.modules if m.startswith('psicalc.')))\n"
    )
    proc = fresh("-S", "-c", probe, *argv.split(), "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")
    codes, modules = proc.stdout.splitlines()
    assert codes == f"0 {fmt == 'json'} []"
    modules = modules.split()
    assert {m.removeprefix("psicalc.") for m in modules} == _EVERY_START | extra


def _json_text(value) -> str:
    """The exact bytes the CLI prints for a JSON value, key order included."""
    return json.dumps(value, indent=2) + "\n"


TAYLOR = ["expand", "--f", "x^3", "--alpha", "1", "--order", "2"]
PSI = ["expand", "--psi", "q:2", "--f", "(1+x)^3", "--alpha", "0", "--x-eval", "1", "--order", "2"]
NEWTON = ["expand", "--kind", "newton", "--f", "x^2 - x", "--order", "1"]
MACLAURIN = ["expand", "--kind", "maclaurin", "--f", "x^2", "--alpha", "3", "--order", "2"]
NEWTON_REMAINDER = {str(x): str(x * (x - 1)) for x in range(17)}

EXPAND_GOLDEN = [
    (TAYLOR, {
        "kind": "taylor", "psi": "classical", "f": "x^3", "alpha": "1", "order": 2,
        "terms": ["1", "3*x - 3", "3*x^2 - 6*x + 3"], "partial_sum": "3*x^2 - 3*x + 1",
        "remainder": "x^3 - 3*x^2 + 3*x - 1", "oracle_remainder": "x^3 - 3*x^2 + 3*x - 1",
        "exact": True,
    }, """kind: taylor
psi: classical
f: x^3
alpha: 1
order: 2
terms: ['1', '3*x - 3', '3*x^2 - 6*x + 3']
partial_sum: 3*x^2 - 3*x + 1
remainder: x^3 - 3*x^2 + 3*x - 1
oracle_remainder: x^3 - 3*x^2 + 3*x - 1
exact: True
"""),
    (PSI, {
        "kind": "psi", "psi": "q:2", "f": "x^3 + 3*x^2 + 3*x + 1", "alpha": "0", "x_eval": "1",
        "order": 2, "terms": ["1", "3", "3"], "remainder": "1", "oracle_remainder": "1",
        "value": "8", "exact": True,
    }, """kind: psi
psi: q:2
f: x^3 + 3*x^2 + 3*x + 1
alpha: 0
x_eval: 1
order: 2
terms: ['1', '3', '3']
remainder: 1
oracle_remainder: 1
value: 8
exact: True
"""),
    (NEWTON, {
        "kind": "newton", "f": "x^2 - x", "order": 1, "terms": ["0", "0"], "partial_sum": "0",
        "remainder_at": NEWTON_REMAINDER, "checked_points": list(range(17)), "exact": True,
    }, f"""kind: newton
f: x^2 - x
order: 1
terms: ['0', '0']
partial_sum: 0
remainder_at: {NEWTON_REMAINDER}
checked_points: {list(range(17))}
exact: True
"""),
    (MACLAURIN, {
        "kind": "maclaurin", "f": "x^2", "alpha": 3, "order": 2, "terms": ["9", "-15", "6"],
        "remainder": "0", "total": "0", "target": "0", "exact": True,
    }, """kind: maclaurin
f: x^2
alpha: 3
order: 2
terms: ['9', '-15', '6']
remainder: 0
total: 0
target: 0
exact: True
"""),
]


class TestGoldenBytes:
    """The full stdout of each report, key order included."""

    @pytest.mark.parametrize("argv,payload,text", EXPAND_GOLDEN,
                             ids=["taylor", "psi", "newton", "maclaurin"])
    def test_expand(self, capsys, argv, payload, text):
        assert run(capsys, *argv) == (0, text, "")
        assert run(capsys, *argv, "--format", "json") == (0, _json_text(payload), "")

    def test_jackson_json(self, capsys):
        payload = {"f": "x^2", "q": "1/2", "z": "1", "exact": "4/7",
                   "numeric": 0.5714285714285714, "terms_used": 18, "tail_tol": 1e-13}
        argv = ["jackson", "--f", "x^2", "--q", "1/2", "--z", "1", "--format", "json"]
        assert run(capsys, *argv) == (0, _json_text(payload), "")

    def test_verify_json(self, capsys):
        pairs = ["D, x-(0)", "D, x-(1)", "D, x-(-2)", "Delta, x*E^-1", "psi-derivative, x_hat (fib)"]
        rows = [{"suite": "commutator", "identity": "commutator", "params": f"pair={pair}, N=4",
                 "cases": 5, "passed": True, "counterexample": None} for pair in pairs]
        argv = ["verify", "--suite", "commutator", "--psi", "fib", "--max-degree", "4",
                "--format", "json"]
        assert run(capsys, *argv) == (0, _json_text(rows), "")

    def test_failed_verify_json(self, capsys, monkeypatch):
        from psicalc import operators

        # the classical derivative in place of the q-derivative
        monkeypatch.setattr(operators, "psi_derivative", lambda ctx, f, k=1: f.derivative(k))
        cases = [("1/3*x + 2", "2/9*x + 2"), ("2*x - 2", "4/3*x - 2"),
                 ("1/3*x - 5/2", "2/9*x - 5/2"), ("x - 3", "2/3*x - 3"),
                 ("4*x + 3/4", "8/3*x + 3/4"), ("4/3*x + 1", "8/9*x + 1")]
        rows = [{"suite": "fundamental", "identity": "fundamental", "params": "psi=q:2",
                 "cases": 1, "passed": False,
                 "counterexample": {"inputs": f"f={f}", "lhs": lhs, "rhs": f}}
                for f, lhs in cases]
        argv = ["verify", "--suite", "fundamental", "--psi", "q:2", "--max-degree", "1",
                "--format", "json"]
        assert run(capsys, *argv) == (1, _json_text(rows), "6 verification case(s) failed\n")

    def test_failed_hahn_reduction_json(self, capsys, monkeypatch):
        from psicalc import hahn

        # the classical derivative in place of the q-derivative: 2_q != 2
        monkeypatch.setattr(hahn, "psi_derivative", lambda ctx, f, k=1: f.derivative(k))
        cases = [
            ("2, h=0", "3*x", "2*x"), ("2, h=1", "3*x + 3", "2*x + 2"),
            ("2, h=-3", "3*x - 9", "2*x - 6"), ("2, h=7/5", "3*x + 21/5", "2*x + 14/5"),
            ("1/2, h=0", "3/2*x", "2*x"), ("1/2, h=1", "3/2*x - 3", "2*x - 4"),
            ("1/2, h=-3", "3/2*x + 9", "2*x + 12"),
            ("1/2, h=7/5", "3/2*x - 21/5", "2*x - 28/5"),
            ("3/2, h=0", "5/2*x", "2*x"), ("3/2, h=1", "5/2*x + 5", "2*x + 4"),
            ("3/2, h=-3", "5/2*x - 15", "2*x - 12"), ("3/2, h=7/5", "5/2*x + 7", "2*x + 28/5"),
            ("-2, h=0", "-1*x", "2*x"), ("-2, h=1", "-1*x + 1/3", "2*x - 2/3"),
            ("-2, h=-3", "-1*x - 1", "2*x + 2"), ("-2, h=7/5", "-1*x + 7/15", "2*x - 14/15"),
        ]
        rows = [{"suite": "hahn-reduction", "identity": "hahn-reduction",
                 "params": f"q={qh}, N=2", "cases": 3, "passed": False,
                 "counterexample": {"inputs": "n=2", "lhs": lhs, "rhs": rhs}}
                for qh, lhs, rhs in cases]
        argv = ["verify", "--suite", "hahn-reduction", "--max-degree", "2", "--format", "json"]
        assert run(capsys, *argv) == (1, _json_text(rows), "16 verification case(s) failed\n")


class TestNegativeRationalFlags:
    """`--flag -p/q` reads the value as `--flag=-p/q` does, not as an option."""

    @pytest.mark.parametrize("argv,flag,value", [
        (["expand", "--f", "x", "--order", "1", "--x-eval", "2"], "--alpha", "-1/2"),
        (["expand", "--f", "x", "--order", "1", "--alpha", "1"], "--x-eval", "-3/4"),
        (["jackson", "--f", "x", "--z", "1"], "--q", "-1/2"),
        (["jackson", "--f", "x", "--q", "1/2"], "--z", "-1/3"),
    ], ids=["alpha", "x-eval", "q", "z"])
    def test_written_apart_as_with_equals(self, capsys, argv, flag, value):
        apart = run(capsys, *argv, flag, value)
        assert apart == run(capsys, *argv, f"{flag}={value}")
        code, out, err = apart
        assert value in out + err and f"argument {flag}" not in err
        # q = -1/2 is read, then refused by the numeric quadrature
        assert code == (2 if flag == "--q" else 0)


class TestLongRationalFlags:
    """A rational flag past the int-to-str digit limit parses like the
    same digits in --f; the int flags keep the limit."""

    BIG = "1" + "0" * 5000

    @pytest.mark.parametrize("argv,line", [
        (["expand", "--f", "x", "--order", "1", "--alpha", BIG], "alpha: " + BIG),
        (["expand", "--psi", "q:2", "--f", "x", "--order", "1", "--x-eval", BIG],
         "value: " + BIG),
    ], ids=["alpha", "x-eval"])
    def test_expand_reads_every_digit(self, capsys, digit_limit, argv, line):
        code, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == digit_limit
        assert (code, err) == (0, "")
        assert line + "\n" in out and "exact: True" in out

    @pytest.mark.parametrize("argv,message", [
        (["jackson", "--f", "x", "--q", "1/2", "--z", BIG], "z is too large for a float"),
        (["jackson", "--f", "x", "--q", "1/" + BIG, "--z", "1"],
         "q is too close to 0 for a float quadrature"),
    ], ids=["z", "q"])
    def test_jackson_refuses_with_its_own_message(self, capsys, digit_limit, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert sys.get_int_max_str_digits() == digit_limit

    @pytest.mark.parametrize("argv,flag", [
        (["table", "--n", BIG], "--n"),
        (["verify", "--suite", "fundamental", "--max-degree", BIG], "--max-degree"),
        (["expand", "--f", "x", "--order", BIG], "--order"),
    ], ids=["n", "max-degree", "order"])
    def test_int_flags_keep_the_limit(self, capsys, digit_limit, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid int value" in err
        assert sys.get_int_max_str_digits() == digit_limit


class TestOrderLimit:
    LIMIT = 10_000  # psicalc.expansions.MAX_ORDER, imported as psicalc.cli.MAX_ORDER
    KINDS = {"taylor": [], "psi": ["--x-eval", "1"], "newton": [], "maclaurin": ["--alpha", "2"]}

    @pytest.mark.parametrize("kind", KINDS)
    def test_huge_order_is_a_domain_error(self, kind):
        # a fresh interpreter under a timeout: an unchecked order runs away
        proc = fresh("-m", "psicalc.cli", "expand", "--f", "x", "--kind", kind,
                     "--order", str(10**30), *self.KINDS[kind], timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: --order must be at most {self.LIMIT}\n"

    def test_limit_is_the_library_constant(self):
        from psicalc import cli, expansions

        assert cli.MAX_ORDER is expansions.MAX_ORDER == self.LIMIT

    @pytest.mark.parametrize("kind", KINDS)
    def test_order_at_the_limit_runs(self, capsys, kind):
        code, out, err = run(capsys, "expand", "--f", "(1+x)^3", "--kind", kind,
                             "--order", str(self.LIMIT), *self.KINDS[kind])
        assert (code, err) == (0, "")
        assert f"order: {self.LIMIT}" in out and "exact: True" in out


class TestSizeLimits:
    """verify --max-degree and table --n are capped, checked before any work,
    and so is the degree of every power and product in --f."""

    LIMITS = {"--max-degree": 64, "--n": 256}  # psicalc.cli.MAX_DEGREE, MAX_TABLE_N
    ARGV = {"--max-degree": ["verify", "--suite", "commutator", "--psi", "q:3/2"],
            "--n": ["table", "--psi", "q:3/2"]}

    def test_limits_are_the_module_constants(self):
        from psicalc import cli

        assert (cli.MAX_DEGREE, cli.MAX_TABLE_N) == tuple(self.LIMITS.values())

    @pytest.mark.parametrize("flag", LIMITS)
    @pytest.mark.parametrize("excess", [1, 10**30])
    def test_past_the_limit_is_a_domain_error(self, flag, excess):
        # a fresh interpreter under a timeout: an unchecked size runs away
        limit = self.LIMITS[flag]
        proc = fresh("-m", "psicalc.cli", *self.ARGV[flag], flag, str(limit + excess), timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {flag} must be at most {limit}\n"

    def test_checked_before_the_psi_spec(self, capsys):
        # a bad spec past the limit reports the limit, not the spec
        assert run(capsys, "table", "--psi", "q:1/0", "--n", "257") == (
            2, "", "error: --n must be at most 256\n")
        assert run(capsys, "verify", "--psi", "q:-1", "--max-degree", "65") == (
            2, "", "error: --max-degree must be at most 64\n")

    @pytest.mark.parametrize("f, offset", [("x^99999999", 1), ("(1+x)^129", 5), ("x^100*x^29", 5)])
    def test_polynomial_past_the_degree_limit_is_a_parse_error(self, f, offset):
        # a fresh interpreter under a timeout: an unchecked power runs away
        proc = fresh("-m", "psicalc.cli", "expand", "--f", f, "--order", "1", timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: degree above the limit of 128 (at offset {offset})\n"

    def test_constant_past_the_bit_limit_is_a_parse_error(self):
        # 2^9999999 has degree 0, so only the bit limit stops it
        proc = fresh("-m", "psicalc.cli", "expand", "--f", "2^9999999", "--order", "1", timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: coefficients above the limit of 100000 bits (at offset 1)\n"

    def test_polynomial_at_the_degree_limit_runs(self, capsys):
        code, out, err = run(capsys, "expand", "--f", "(1+x)^64*(1-x)^64", "--order", "1")
        assert (code, err) == (0, "")
        assert "exact: True" in out

    def test_verify_at_the_limit_runs(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "commutator", "--max-degree", "64")
        assert (code, err) == (0, "")
        assert out.count("N=64] cases=65 PASS") == 5

    def test_table_at_the_limit_runs(self, capsys):
        code, out, err = run(capsys, "table", "--psi", "q:2", "--n", "256", "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 256 and rows[-1]["n_psi"] == str(2**256 - 1)


ZEROS_2000 = "1" + "0" * 2000


class TestReportLimit:
    """An expand run whose report size estimate passes MAX_REPORT_BITS,
    and a maclaurin --alpha past discrete.MAX_ALPHA, are refused before
    any work."""

    LIMIT = 1 << 23  # psicalc.cli.MAX_REPORT_BITS

    def test_limits_are_the_module_constants(self):
        from psicalc import cli, discrete

        assert (cli.MAX_REPORT_BITS, discrete.MAX_ALPHA) == (self.LIMIT, 10_000)

    @pytest.mark.parametrize("argv, count, bits", [
        (["--f", "2^2000*x^128", "--order", "128", "--alpha", "1"], 8320, 2000),
        (["--kind", "newton", "--f", "2^2000*x^128", "--order", "128"], 8320, 2000),
        (["--f", "x^32", "--order", "32", "--alpha", ZEROS_2000], 544, 32 * 6643),
        (["--kind", "psi", "--psi", "q:2", "--f", "x^64", "--order", "64", "--alpha", "0",
          "--x-eval", ZEROS_2000], 2112, 64 * 6643),
        (["--kind", "maclaurin", "--f", "x^64", "--order", "64", "--alpha", ZEROS_2000],
         2112, 64 * 6643),
    ], ids=["taylor", "newton", "taylor-alpha", "psi-x-eval", "maclaurin-alpha"])
    def test_past_the_limit_is_a_domain_error(self, argv, count, bits):
        # a fresh interpreter under a timeout: each of these ran for seconds
        # or printed megabytes before the limit
        proc = fresh("-m", "psicalc.cli", "expand", *argv, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: report of about {count} coefficients of up to {bits} "
                               f"bits is above the limit of {self.LIMIT} bits\n")

    @pytest.mark.parametrize("alpha", ["10001", "10000000"])
    def test_maclaurin_alpha_past_its_limit(self, alpha):
        # f = x keeps the size estimate small: only the alpha limit refuses
        proc = fresh("-m", "psicalc.cli", "expand", "--kind", "maclaurin",
                     "--f", "x", "--order", "1", "--alpha", alpha, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --alpha must be at most 10000 for maclaurin\n"

    def test_at_the_limit_runs(self, capsys):
        # x^32 lists 33^2 // 2 = 544 coefficients of up to 32 * bits(alpha)
        # bits: 544 * 32 * 481 is under 2^23, 544 * 32 * 482 is over
        argv = ["expand", "--f", "x^32", "--order", "32", "--format", "json"]
        code, out, err = run(capsys, *argv, "--alpha", str(2**481))
        assert (code, err) == (0, "")
        assert json.loads(out)["exact"] is True
        code, out, err = run(capsys, *argv, "--alpha", str(2**482))
        assert (code, out) == (2, "")
        assert f"up to {32 * 482} bits is above the limit" in err

    @pytest.mark.parametrize("argv", [
        ["--kind", "newton", "--f", "x^32", "--order", "1", "--alpha", ZEROS_2000],
        ["--kind", "maclaurin", "--f", "x^32", "--order", "1", "--alpha", "10000"],
    ], ids=["newton-ignores-alpha", "maclaurin-at-its-alpha-limit"])
    def test_runs_inside_both_limits(self, capsys, argv):
        code, out, err = run(capsys, "expand", *argv)
        assert (code, err) == (0, "")
        assert "exact: True" in out


class TestValidationMessages:
    """Each refused input exits 2 (3 for admissibility) with one error line."""

    @pytest.mark.parametrize("argv,message", [
        (["expand", "--f", "x", "--order", "-1"], "--order must be nonnegative"),
        (["expand", "--f", "x", "--order", "1", "--kind", "psi"],
         "--x-eval is required for the psi expansion"),
        (["expand", "--f", "x", "--order", "1", "--kind", "maclaurin", "--alpha", "1/2"],
         "--alpha must be a positive integer for maclaurin"),
        (["expand", "--f", "x", "--order", "1", "--kind", "maclaurin", "--alpha", "0"],
         "--alpha must be a positive integer for maclaurin"),
        (["table", "--n", "0"], "--n must be >= 1"),
        # in-process, at each cap plus one: the limits' own lines in `cli`
        (["expand", "--f", "x", "--order", "10001"], "--order must be at most 10000"),
        (["expand", "--f", "x", "--order", "1", "--kind", "maclaurin", "--alpha", "10001"],
         "--alpha must be at most 10000 for maclaurin"),
    ], ids=["negative-order", "psi-without-x-eval", "maclaurin-alpha-1/2",
            "maclaurin-alpha-0", "table-n-0", "order-above-the-cap",
            "maclaurin-alpha-above-the-cap"])
    def test_domain_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_tolerance_that_is_not_a_number(self, capsys):
        code, out, err = run(capsys, "jackson", "--f", "x", "--q", "1/2", "--z", "1",
                             "--tol", "abc")
        assert (code, out) == (2, "")
        assert err.endswith(
            "argument --tol: tolerance must be a finite number > 0, got 'abc'\n")

    @pytest.mark.parametrize("exc,code,prefix", [
        (InternalError, 2, "internal error"),
        (RangeError, 2, "error"),
        (ValueError, 2, "error"),
        (AdmissibilityError, 3, "admissibility error"),
    ], ids=["internal", "range", "value", "admissibility"])
    def test_error_rule(self, capsys, monkeypatch, exc, code, prefix):
        from psicalc import cli

        def broken(ctx, d, corpus):
            raise exc("broken suite")

        monkeypatch.setitem(cli._SUITES, "fundamental", broken)
        assert run(capsys, "verify", "--suite", "fundamental") == (
            code, "", f"{prefix}: broken suite\n")


class TestClosedStdoutAndInterrupt:
    """A reader that closes stdout early, as `| head -c 20` does, ends the
    run with exit code 141 and no text; an interrupt (SIGINT) with 130 and
    one line on stderr.  Neither reaches a traceback."""

    @pytest.mark.parametrize("argv", [
        ["table", "--psi", "q:3/2", "--n", "256"],  # 4.4 MB of rows
        ["verify", "--suite", "all", "--psi", "fib", "--format", "json"],  # 15 KB, one write
    ], ids=["table", "verify-json"])
    def test_reader_closes_after_20_bytes(self, argv):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the pipe's capacity cannot be set here")
        read, write = os.pipe()
        # one page, so that the output outgrows the pipe before the reader
        # closes it, whatever the output's size
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "psicalc.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        os.close(write)
        try:
            head = b""
            while len(head) < 20:
                chunk = os.read(read, 20 - len(head))
                assert chunk, "the output ended before 20 bytes"
                head += chunk
        finally:
            os.close(read)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, err
        assert err == ""
        assert head.startswith(b"psi = q:3/2" if argv[0] == "table" else b"[")

    def test_interrupt_is_one_line_and_exit_130(self, capsys, monkeypatch):
        from psicalc import cli

        def interrupted(args):
            print("partial", flush=True)
            raise KeyboardInterrupt

        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(cli, "_run_verify", interrupted)
        assert run(capsys, "verify", "--suite", "leibniz") == (130, "partial\n", "interrupted\n")
        assert sys.get_int_max_str_digits() == limit

    def test_codes_are_the_documented_ones(self):
        from psicalc import cli

        assert (cli.EXIT_INTERRUPTED, cli.EXIT_CLOSED_STDOUT) == (130, 141)
        assert "130 interrupted" in cli.__doc__ and "141 stdout closed" in cli.__doc__


# -- an argv fuzz of main, in process ---------------------------------------------

_small_rational = st.builds(
    lambda a, b: f"{a}/{b}" if b != 1 else str(a), st.integers(-999, 999), st.integers(1, 999))
_unit_rational = st.integers(2, 999).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: f"{a}/{b}"))
_psi_specs = st.one_of(
    st.sampled_from(["classical", "fib"]),
    _small_rational.map("q:{}".format),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
        lambda cs: "custom:" + ",".join(map(str, cs))),
)
_polys = st.sampled_from(["x", "x^2 - x", "(1+x)^3", "3/7*x^5 - 2", "0", "x^", "1/0"])
_formats = st.sampled_from(["text", "json"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["expand", "verify", "jackson", "table"]))
    argv = [command]

    def flag(name, values):
        argv.extend([name, draw(values)])

    def maybe(name, values):
        if draw(st.booleans()):
            flag(name, values)

    if command == "expand":
        flag("--f", _polys)
        flag("--order", st.integers(-1, 8).map(str))
        maybe("--kind", st.sampled_from(["taylor", "psi", "newton", "maclaurin"]))
        maybe("--psi", _psi_specs)
        maybe("--alpha", _small_rational)
        maybe("--x-eval", _small_rational)
    elif command == "verify":
        flag("--suite", st.sampled_from([*cli.SUITES, "all"]))
        flag("--psi", _psi_specs)
        flag("--max-degree", st.integers(-1, 6).map(str))
    elif command == "jackson":
        flag("--f", _polys)
        flag("--q", _small_rational | _unit_rational)
        flag("--z", _small_rational)
        maybe("--tol", st.sampled_from(["1e-9", "0", "abc"]))
    else:
        flag("--psi", _psi_specs)
        flag("--n", st.integers(-1, 24).map(str))
    flag("--format", _formats)
    return argv


@settings(max_examples=300, deadline=2000)
@given(_argvs())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    """Every subcommand, kind, suite and format on small generated inputs:
    an exit code the CLI documents, never a traceback, and JSON that parses
    whenever a --format json run succeeds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 2, 3) or (code == 1 and argv[0] == "verify"), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[-1] == "json":
        json.loads(out.getvalue())
