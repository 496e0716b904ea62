"""Committed CLI outputs, replayed in-process through `cli.main`.

Each file under tests/golden/ holds one run: its argv, its exit code, its
stdout and its stderr, as plain text, so a failing test shows a diff of
what moved.  A change that moves any of them says which and why.  To
rewrite every file from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from psicalc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# negative factors, as in the CI line of the bernoulli suite
CUSTOM_SPEC = "custom:-2,3,-5,7,-11,13,-17,19,-23,29,-31,37,-41,43,-47,53,-59"
SPECS = {"classical": "classical", "fib": "fib", "q3_2": "q:3/2", "q-2_3": "q:-2/3",
         "custom": CUSTOM_SPEC}

# file stem -> argv: the bernoulli suite at the default degree and at 0,
# in text and JSON
RUNS = {
    f"verify-bernoulli-{name}-{degree}-{fmt}": [
        "verify", "--suite", "bernoulli", "--psi", spec,
        *(["--max-degree", degree[1:]] if degree != "default" else []),
        *(["--format", "json"] if fmt == "json" else []),
    ]
    for name, spec in SPECS.items()
    for degree in ("default", "d0")
    for fmt in ("text", "json")
}
# and the errors it can end on: admissibility (exit 3), the degree cap and
# a custom spec too short for the sweep (exit 2)
RUNS.update({
    "verify-bernoulli-q-1": ["verify", "--suite", "bernoulli", "--psi", "q:-1"],
    "verify-bernoulli-degree-65": ["verify", "--suite", "bernoulli", "--max-degree", "65"],
    "verify-bernoulli-custom-short": ["verify", "--suite", "bernoulli", "--psi", "custom:1,2,3"],
})
# the commutator suite: the same matrix, and the classical run at the cap
RUNS.update({
    f"verify-commutator-{name}-{degree}-{fmt}": [
        "verify", "--suite", "commutator", "--psi", spec,
        *(["--max-degree", degree[1:]] if degree != "default" else []),
        *(["--format", "json"] if fmt == "json" else []),
    ]
    for name, spec in SPECS.items()
    for degree in ("default", "d0")
    for fmt in ("text", "json")
})
RUNS["verify-commutator-classical-d64-text"] = [
    "verify", "--suite", "commutator", "--psi", "classical", "--max-degree", "64"]


def render(argv: list[str]) -> str:
    """One run of `psicalc argv`, in-process, as the text of its file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"$ psicalc {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("stem", RUNS)
def test_output_matches_the_committed_file(stem):
    want = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert render(RUNS[stem]) == want


def test_every_committed_file_has_a_run():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(RUNS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for stem, argv in RUNS.items():
        (GOLDEN / f"{stem}.txt").write_text(render(argv), encoding="utf-8")
    print(f"wrote {len(RUNS)} files to {GOLDEN}", file=sys.stderr)
