"""Self-test of the benchmark.  From the checkout root:

    python3 -m pytest bench/test_bench.py -q

It is outside the tier-1 suite (pytest's testpaths is tests/), and takes
about a minute: every run here uses --smoke sizes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = ("poly.mul.term_products", "poly.out_coeff_bits")


def bench(root: Path, workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_tree(dest: Path, with_src: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(workload, trace, section):
    proc, result = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        line = rf"^{re.escape(name)} +\S+ {re.escape(unit)}( +\(wall clock \S+\))?$"
        assert re.search(line, proc.stdout, re.M), name
    assert re.search(r"^fail_ratio +0 ratio ", proc.stdout, re.M)


WRONG_COMPOSE_AFFINE = """
_bench_compose_affine = Polynomial.compose_affine


def _wrong_compose_affine(self, q, h):
    return _bench_compose_affine(self, q, h) + Polynomial.constant(1)


Polynomial.compose_affine = _wrong_compose_affine
"""

WRONG_MUL = """
_bench_mul = Polynomial.__mul__


def _wrong_mul(self, other):
    product = _bench_mul(self, other)
    if isinstance(other, Polynomial) and self.degree > 0 and other.degree > 0:
        return product + Polynomial.monomial(1)
    return product


Polynomial.__mul__ = Polynomial.__rmul__ = _wrong_mul
"""


@pytest.mark.parametrize("mutation,workload", [
    (WRONG_COMPOSE_AFFINE, "expand_hahn"),
    (WRONG_MUL, "expand_hahn"),
    (WRONG_MUL, "identity_sweep"),
    (WRONG_COMPOSE_AFFINE, "cli_session"),
])
def test_wrong_polynomial_is_caught(tmp_path, mutation, workload):
    root = copy_tree(tmp_path)
    poly = root / "src" / "psicalc" / "poly.py"
    poly.write_text(poly.read_text() + mutation)
    proc, result = bench(root, workload, 0)
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [bench(ROOT, workload, 1, seed=11)[1]["metrics"] for _ in range(2)]
    keys = [k for k in runs[0] if k.endswith(".calls") or k in REPEATED_COUNTS]
    assert len(keys) > 10
    assert {k: runs[0][k]["value"] for k in keys} == {k: runs[1][k]["value"] for k in keys}


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = copy_tree(tmp_path, with_src=False)
    proc, result = bench(root, "identity_sweep", 0)
    assert proc.returncode != 0
    assert result is None


def test_tracer_wraps_every_namespace_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    import psicalc
    from psicalc import expansions, operators, poly

    from tracer import Tracer

    originals = (poly.Polynomial.__mul__, poly.Polynomial.__radd__,
                 expansions.psi_derivative, psicalc.verify_commutator)
    tracer = Tracer()
    tracer.install()
    try:
        assert expansions.psi_derivative is operators.psi_derivative
        for wrapped in (poly.Polynomial.__rmul__, poly.Polynomial.__radd__,
                        expansions.psi_derivative, psicalc.verify_commutator):
            assert hasattr(wrapped, "__wrapped__")
        pair = psicalc.derivative_pair(1)
        assert hasattr(pair.raiser, "__wrapped__")
        x = psicalc.Polynomial.x()
        assert psicalc.verify_commutator(pair, 3).passed
        assert 2 * x == x + x
    finally:
        tracer.uninstall()
    assert (poly.Polynomial.__mul__, poly.Polynomial.__radd__,
            expansions.psi_derivative, psicalc.verify_commutator) == originals
    assert tracer.calls["operators.pair_raiser"] > 0
    assert tracer.calls["poly.mul"] > 0 and tracer.calls["poly.add"] > 0
