import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from psicalc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_import_leaves_out_dataclasses_inspect_and_typing():
    """A CLI start pays for these modules only if psicalc imports them."""
    probe = "import sys, psicalc.cli; print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
