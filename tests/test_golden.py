"""Committed CLI outputs, replayed in-process through `cli.main`.

Each file under tests/golden/ holds one run: its argv, its exit code, its
stdout and its stderr, as plain text, so a failing test shows a diff of
what moved.  A change that moves any of them says which and why.  The
runs of `RUNS` are tier-1 tests; those of `SLOW_RUNS`, the runs at the
caps, take seconds and are kept under tests/golden/slow/.  These files are
the one check of the CLI's output; tests/exit_codes.sh checks its exit
codes through the installed script.
To rewrite every file from the current code, or to check every run
against its file (exit 1 on any that moved, with a diff):

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py --check

Run as a script it needs only the stdlib, so that any CPython the
package supports can replay the matrix: pytest reaches this file through
its own collection, and the `pytest_generate_tests` hook below, not
through an import.  So the one test that needs pytest and the test
runner, the replay on every other interpreter found, imports them itself.
"""

import contextlib
import difflib
import io
import os
import shutil
import sys
from pathlib import Path

from psicalc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SLOW = GOLDEN / "slow"

# negative factors: 17 of them, so that --max-degree 8 runs star products
# to degree 16, the last weights before the factors run out
CUSTOM_SPEC = "custom:-2,3,-5,7,-11,13,-17,19,-23,29,-31,37,-41,43,-47,53,-59"
SPECS = {"classical": "classical", "fib": "fib", "q3_2": "q:3/2", "q-2_3": "q:-2/3",
         "custom": CUSTOM_SPEC}

# file stem -> argv: each suite on every spec, at the default degree and
# at 0, in text and JSON
RUNS = {}
for suite in ("bernoulli", "commutator", "all"):
    for name, spec in SPECS.items():
        for degree in ("default", "d0"):
            for fmt in ("text", "json"):
                RUNS[f"verify-{suite}-{name}-{degree}-{fmt}"] = [
                    "verify", "--suite", suite, "--psi", spec,
                    *(["--max-degree", degree[1:]] if degree != "default" else []),
                    *(["--format", "json"] if fmt == "json" else []),
                ]
RUNS.update({
    # the errors the bernoulli suite can end on: admissibility (exit 3),
    # the degree cap and a custom spec too short for the sweep (exit 2)
    "verify-bernoulli-q-1": ["verify", "--suite", "bernoulli", "--psi", "q:-1"],
    "verify-bernoulli-degree-65": ["verify", "--suite", "bernoulli", "--max-degree", "65"],
    "verify-bernoulli-custom-short": ["verify", "--suite", "bernoulli", "--psi", "custom:1,2,3"],
    "verify-commutator-classical-d64-text": [
        "verify", "--suite", "commutator", "--psi", "classical", "--max-degree", "64"],
    # one error of each other subcommand: admissibility, parse, size cap
    "verify-all-q-1": ["verify", "--psi", "q:-1"],
    "expand-parse-error": ["expand", "--f", "x+", "--order", "1"],
    "table-n-257": ["table", "--n", "257"],
    # the four expand kinds at order 12, each with a nonzero remainder or tail
    "expand-taylor": ["expand", "--kind", "taylor", "--f", "3/2*x^14 - x^5 + 2",
                      "--alpha", "1/3", "--order", "12"],
    "expand-psi": ["expand", "--kind", "psi", "--psi", "q:3/2", "--f", "(1+x)^14 - x^3",
                   "--alpha", "1/2", "--x-eval", "2", "--order", "12"],
    "expand-newton": ["expand", "--kind", "newton", "--f", "(1+x)^14 - x^3", "--order", "12"],
    "expand-maclaurin": ["expand", "--kind", "maclaurin", "--f", "x^14 - 2*x^3",
                         "--alpha", "5", "--order", "12"],
    "jackson": ["jackson", "--f", "x^3 - 2*x", "--q", "1/2", "--z", "3/2"],
    # one-term inputs to the unit-shift kernels and the psi operators
    "expand-taylor-one-term": ["expand", "--kind", "taylor", "--f", "3*x^17",
                               "--alpha", "1/3", "--order", "5"],
    "expand-newton-one-term": ["expand", "--kind", "newton", "--f", "x^20", "--order", "6"],
    "expand-psi-one-term": ["expand", "--kind", "psi", "--psi", "q:-2/3", "--f", "5*x^12",
                            "--alpha", "1/2", "--x-eval", "1/2", "--order", "12"],
    # the expansions' scalars in JSON: negative factors and a nonzero
    # remainder, a negative alpha, an order past the degree, a fractional
    # f at an integer alpha, and the zero f
    "expand-psi-custom-json": [
        "expand", "--kind", "psi", "--psi", "custom:-2/3,5/4,-7,3/8,9,-1/5,4/9,11,-13/2,6",
        "--f=3/7*x^9 - 5*x^4 + 2/3", "--alpha=-5/2", "--x-eval", "7/3", "--order", "6",
        "--format", "json"],
    "expand-taylor-negative-alpha-json": [
        "expand", "--kind", "taylor", "--f=-2/9*x^11 + 4*x^6 - 1", "--alpha=-7/4",
        "--order", "7", "--format", "json"],
    "expand-newton-past-degree-json": [
        "expand", "--kind", "newton", "--f=5/6*x^9 - x^2 + 3", "--order", "12",
        "--format", "json"],
    "expand-maclaurin-json": [
        "expand", "--kind", "maclaurin", "--f=1/7*x^9 - 4*x^5 + 1/3", "--alpha", "6",
        "--order", "4", "--format", "json"],
    "expand-psi-zero-json": [
        "expand", "--kind", "psi", "--psi", "fib", "--f", "0", "--alpha", "1/2",
        "--x-eval=-3", "--order", "2", "--format", "json"],
    # every suite at the degree cap on classical, and at degree 8 on the
    # negative custom spec
    "verify-all-classical-d64-text": [
        "verify", "--suite", "all", "--psi", "classical", "--max-degree", "64"],
    "verify-all-custom-d8-text": [
        "verify", "--suite", "all", "--psi", CUSTOM_SPEC, "--max-degree", "8"],
    # a sparse several-term input to the psi operators: at --x-eval 0 the
    # expansion works on f itself, not on the dense f(x + x_eval)
    "expand-psi-sparse": ["expand", "--kind", "psi", "--psi", "q:-2/3", "--f", "x^64 + x",
                          "--order", "64", "--alpha", "1/2", "--x-eval", "0"],
    "expand-maclaurin-cubic-json": ["expand", "--kind", "maclaurin", "--f", "x^3 - x",
                                    "--order", "2", "--alpha", "5", "--format", "json"],
})
# README's examples of expand, jackson and table, in text and JSON
for stem, argv in {
    "expand-readme": ["expand", "--psi", "q:2", "--f", "(1+x)^3", "--alpha", "0",
                      "--x-eval", "1", "--order", "2"],
    "jackson-readme": ["jackson", "--f", "x^2", "--q", "1/2", "--z", "1"],
    "table-q2-n4": ["table", "--psi", "q:2", "--n", "4"],
}.items():
    RUNS[stem], RUNS[f"{stem}-json"] = argv, [*argv, "--format", "json"]
# table on every spec, and on q:-1, whose 2_q = 0 fails admissibility (exit 3)
for name, spec in {**SPECS, "q-1": "q:-1"}.items():
    RUNS[f"table-{name}-n40"] = ["table", "--psi", spec, "--n", "40"]

# verify --suite all at the degree cap, and the psi expansion at the caps,
# whose x_hat images and remainder antiderivative are unreduced pairs:
# about 3 s in all, checked in CI by `--check`, not in tier-1
SLOW_RUNS = {
    f"verify-all-{name}-d64-text": ["verify", "--suite", "all", "--psi", SPECS[name],
                                    "--max-degree", "64"]
    for name in ("fib", "q3_2", "q-2_3", "custom")
}
SLOW_RUNS["expand-psi-cap-json"] = [
    "expand", "--kind", "psi", "--psi", "q:3/2", "--f", "(1+x)^128", "--order", "300",
    "--alpha", "1/2", "--x-eval", "2", "--format", "json"]


def render(argv: list[str]) -> str:
    """One run of `psicalc argv`, in-process, as the text of its file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"$ psicalc {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def pytest_generate_tests(metafunc):
    """One test per run of `RUNS`, named by its stem."""
    if "stem" in metafunc.fixturenames:
        metafunc.parametrize("stem", RUNS)


def test_output_matches_the_committed_file(stem):
    want = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert render(RUNS[stem]) == want


def test_every_committed_file_has_a_run():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(RUNS)
    assert sorted(p.stem for p in SLOW.glob("*.txt")) == sorted(SLOW_RUNS)


def test_runs_match_on_every_other_interpreter():
    """`RUNS` replayed under each other CPython >= 3.10.7 found in pyenv's
    versions dir or as python3.1x on PATH, one per version, one at a time,
    with no site packages: the CLI needs nothing but the stdlib."""
    import pytest
    from conftest import fresh

    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = [*sorted(pyenv.glob("versions/*/bin/python3")),
             *filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))]
    others = {}
    for python in found:
        proc = fresh("-S", "-c", "import platform, sys; "
                     "print(platform.python_implementation(), *sys.version_info[:3])", python=python)
        if proc.returncode == 0:
            name, *version = proc.stdout.split()
            version = tuple(map(int, version))
            if name == "CPython" and (3, 10, 7) <= version != sys.version_info[:3]:
                others.setdefault(version, python)
    if not others:
        pytest.skip("no other CPython >= 3.10.7 found")
    probe = ("import test_golden as g\n"
             "print(len(g.RUNS), [stem for stem, argv in g.RUNS.items()\n"
             "                    if g.render(argv) != (g.GOLDEN / f'{stem}.txt').read_text('utf-8')])\n")
    replays = {}
    for version, python in sorted(others.items()):
        proc = fresh("-S", "-c", probe, path=[Path(__file__).parent], python=python)
        replays[version] = (proc.returncode, proc.stderr, proc.stdout)
    assert replays == {version: (0, "", f"{len(RUNS)} []\n") for version in others}


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: python {sys.argv[0]} [--check]")
    check = sys.argv[1:] == ["--check"]
    moved = 0
    for folder, runs in ((GOLDEN, RUNS), (SLOW, SLOW_RUNS)):
        if not check:
            folder.mkdir(exist_ok=True)
            for old in folder.glob("*.txt"):
                old.unlink()
        for stem, argv in runs.items():
            path, got = folder / f"{stem}.txt", render(argv)
            if not check:
                path.write_text(got, encoding="utf-8")
                continue
            want = path.read_text(encoding="utf-8")
            if got != want:
                moved += 1
                sys.stdout.writelines(difflib.unified_diff(
                    want.splitlines(True), got.splitlines(True), str(path), "now"))
    count = len(RUNS) + len(SLOW_RUNS)
    print(f"{moved} of {count} runs moved" if check else f"wrote {count} files under {GOLDEN}",
          file=sys.stderr)
    sys.exit(1 if moved else 0)
