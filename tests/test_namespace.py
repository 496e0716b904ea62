"""The package namespace: `import psicalc` imports no submodule, and each
public name resolves on first access to its module's own object."""

from pathlib import Path

from conftest import fresh

ROOT = Path(__file__).resolve().parents[1]

# the package's surface when `__init__` imported every submodule eagerly
SURFACE = {
    "discrete": "DeltaExpansionReport LatticeFunction MaclaurinReport backward_nabla "
                "bernoulli_maclaurin definite_sum falling_factorial_poly "
                "falling_factorial_value forward_difference iterated_sum newton_expansion",
    "errors": "AdmissibilityError ConvergenceError DegenerateParamsError DomainError "
              "InternalError ParseError PsiCalcError RangeError",
    "expansions": "ExpansionReport psi_bernoulli_taylor taylor_classical verify_expansion",
    "hahn": "HahnParams JacksonQuadrature hahn_derivative jackson_antiderivative "
            "jackson_integral_exact jackson_integral_numeric q_derivative "
            "verify_hahn_reduction verify_jackson_inverse",
    "operators": "Counterexample GhwPair VerificationReport bernoulli_identity_sweep delta_pair "
                 "derivative_pair divided_difference_zero exp_poly "
                 "historical_divided_difference_sum historical_evaluation_sum "
                 "psi_antiderivative psi_definite_integral psi_derivative psi_exp psi_pair "
                 "psi_power star_psi umbral_tilde verify_bernoulli_identity verify_commutator "
                 "verify_exp_addition verify_fundamental_theorem verify_historical_series "
                 "verify_leibniz verify_per_partes verify_telescoping x_hat_psi",
    "parsing": "parse_poly",
    "poly": "Polynomial",
    "record": "",
    "sequences": "AdmissibilityReport AdmissibleSequence PsiContext admissibility_check "
                 "parse_psi_spec parse_rational",
}


def test_bare_import_loads_no_submodule():
    probe = "import sys, psicalc; print([m for m in sys.modules if m.startswith('psicalc.')])"
    proc = fresh("-S", "-c", probe, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_star_import_binds_the_eager_surface():
    exports = {name: module for module, names in SURFACE.items() for name in names.split()}
    assert len(exports) == 67
    probe = (
        "import sys\n"
        "ns = {}\n"
        "exec('from psicalc import *', ns)\n"
        "for name, value in ns.items():\n"
        "    if name != '__builtins__':\n"
        "        print(name, value.__name__ if isinstance(value, type(sys)) else '')\n"
    )
    proc = fresh("-S", "-c", probe, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    star = dict(line.partition(" ")[::2] for line in proc.stdout.splitlines())
    assert set(star) == {*exports, *SURFACE}
    assert len(star) == 76
    assert {name: star[name] for name in SURFACE} == {m: f"psicalc.{m}" for m in SURFACE}


def test_each_name_is_its_module_object():
    probe = (
        "import importlib, psicalc\n"
        f"surface = {SURFACE!r}\n"
        "for module, names in surface.items():\n"
        "    home = importlib.import_module(f'psicalc.{module}')\n"
        "    for name in names.split():\n"
        "        assert getattr(psicalc, name) is getattr(home, name), name\n"
        "        assert vars(psicalc)[name] is getattr(home, name), name  # bound once read\n"
        "print('ok')\n"
    )
    proc = fresh("-S", "-c", probe, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "ok\n")


def test_submodules_resolve_after_a_bare_import():
    probe = (
        "import psicalc\n"
        f"for module in {sorted(SURFACE)!r}:\n"
        "    print(module, getattr(psicalc, module).__name__)\n"
    )
    proc = fresh("-S", "-c", probe, timeout=120)
    want = [f"{m} psicalc.{m}" for m in sorted(SURFACE)]
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()) == (0, "", want)


def test_dir_lists_every_name_before_any_is_read():
    probe = "import psicalc; print(*dir(psicalc))"
    proc = fresh("-S", "-c", probe, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    listed = set(proc.stdout.split())
    names = {name for names in SURFACE.values() for name in names.split()}
    assert names | set(SURFACE) | {"__version__"} <= listed


def test_unknown_name_raises_the_usual_errors():
    probe = (
        "import psicalc\n"
        "for name in ('no_such_name', '_EXPORTS_', 'cli_'):\n"
        "    try:\n"
        "        getattr(psicalc, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    from psicalc import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, str(exc).split(' (')[0])\n"
        "print(hasattr(psicalc, 'no_such_name'))\n"
    )
    proc = fresh("-S", "-c", probe, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()) == (0, "", [
        "module 'psicalc' has no attribute 'no_such_name'",
        "module 'psicalc' has no attribute '_EXPORTS_'",
        "module 'psicalc' has no attribute 'cli_'",
        "ImportError cannot import name 'no_such_name' from 'psicalc'",
        "False",
    ])


def test_traced_benchmark_leaves_the_package_names_unwrapped(tmp_path):
    """The benchmark's tracer wraps the functions bound in each namespace
    and restores them on uninstall; a package name first read while it is
    installed would be bound to its wrapper for good.  After each
    workload's traced pass, every name the package has bound is still its
    module's own object."""
    probe = (
        "import sys, psicalc, worker\n"
        "from pathlib import Path\n"
        f"worker.OUT = Path({str(tmp_path)!r})\n"
        "for name in ('identity_sweep', 'expand_hahn', 'cli_session'):\n"
        "    result = worker.traced(worker.Workload(name, 7, True), 7, True)\n"
        "    assert not result['failures'], result['failures']\n"
        "home = {n: sys.modules[f'psicalc.{m}'] for n, m in psicalc._ORIGIN.items()}\n"
        "bound = [n for n in home if n in vars(psicalc)]\n"
        "print(len(bound), [n for n in bound if vars(psicalc)[n] is not vars(home[n])[n]])\n"
    )
    proc = fresh("-S", "-c", probe, timeout=120, path=[ROOT / "bench"])
    assert (proc.returncode, proc.stderr) == (0, "")
    count, stale = proc.stdout.split(" ", 1)
    assert int(count) > 0 and stale == "[]\n"
