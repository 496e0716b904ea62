"""One workload run in a fresh interpreter; `run.py` starts it.

    python bench/worker.py --workload W --seed N --seconds S --mode M [--smoke]

Modes:
  setup   import psicalc, build the workload's contexts and pairs, and
          print the monotonic clock reading at that moment;
  timed   set up, run one warm-up round, then whole rounds of ops until
          S seconds have passed and at least MIN_OPS ops were timed; print
          each op's wall time and its time scaled to reference speed (see
          speed.py);
  traced  set up and warm up, run TRACE_ROUNDS rounds untraced and then
          the same rounds again with every layer wrapped by `Tracer`;
          print the per-layer metrics and write the spans to bench/out/.

`cli_session` starts `python -m psicalc.cli` once per op with PYTHONPATH
set to this tree's `src`; its traced mode replays the same argv through
an in-process `psicalc.cli.main` with stdout captured.  The last line on
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_OPS = 100  # p90 keeps at least ten samples beyond it
CALIBRATE_EVERY_S = 0.5
TRACE_ROUNDS = {"identity_sweep": 2, "expand_hahn": 8, "cli_session": 1}
CLI_TIMEOUT_S = 120


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- running ops ------------------------------------------------------------------


def spawn_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "psicalc.cli", *argv],
        env=cli_env(), cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def inprocess_cli(argv):
    import psicalc.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = psicalc.cli.main(argv)
    return code, out.getvalue()


def call_library(payload):
    return payload()


def execute(ops, run, records, tracer=None):
    """Run ops one after another; append (op, result, error, seconds)."""
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        start = clock()
        try:
            result, error = run(op.payload), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{op.kind} raised {exc!r}"
        records.append((op, result, error, clock() - start))


def check(records) -> list[str]:
    """Failure messages, one per failed op, from the oracle checks."""
    failures = []
    for op, result, error, _ in records:
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a malformed result fails its op
                error = f"{op.kind} check raised {exc!r}"
        if error is not None:
            failures.append(f"{op.kind}: {error}")
    return failures


# -- workloads ----------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.env = None
        if name == "cli_session":
            self.run = spawn_cli
        else:
            import psicalc

            self.env = workloads.Env(psicalc, name)
            self.run = call_library

    def round(self, r: int):
        if self.name == "cli_session":
            return workloads.cli_round(self.seed, r, self.tiny)
        if self.name == "identity_sweep":
            return workloads.identity_round(self.env, self.seed, r, self.tiny)
        return workloads.expand_round(self.env, self.seed, r, self.tiny)

    def warm_up(self, records):
        if self.env is not None:
            execute(self.round(-1), self.run, records)


def timed(w: Workload, seconds: float, smoke: bool) -> dict:
    """Whole rounds until `seconds` have passed and MIN_OPS ops were timed.

    The reference loop runs after every CALIBRATE_EVERY_S of timed work and
    at the end of each round; the ops in between are also given scaled by
    the readings on either side of them.  Outputs are checked after each
    round, outside its timing, and then dropped."""
    warm: list = []
    w.warm_up(warm)
    failures = check(warm)
    attempted = len(warm)
    latencies, rounds = [], []
    begin = time.perf_counter()
    before = speed.reference_s()
    r = 0
    while True:
        ops = w.round(r)
        records: list = []
        first, pending, wall, scaled = 0, 0.0, 0.0, 0.0
        for i, op in enumerate(ops):
            execute([op], w.run, records)
            pending += records[-1][3]
            if pending >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                after = speed.reference_s()
                factor = speed.scale(before, after)
                before = after
                latencies += [(rec[3] * 1e3, rec[3] * 1e3 * factor) for rec in records[first:]]
                wall, scaled = wall + pending, scaled + pending * factor
                first, pending = len(records), 0.0
        rounds.append((len(ops), wall, scaled))
        failures += check(records)
        attempted += len(records)
        r += 1
        if time.perf_counter() - begin >= seconds and (smoke or len(latencies) >= MIN_OPS):
            break
    who = resource.RUSAGE_CHILDREN if w.name == "cli_session" else resource.RUSAGE_SELF
    return {
        "latencies_ms": latencies,
        "rounds": rounds,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def traced(w: Workload, seed: int, smoke: bool) -> dict:
    from tracer import LAYERS, Tracer

    warm: list = []
    w.warm_up(warm)
    if w.name == "cli_session":
        import psicalc.cli  # noqa: F401  (imported before the untraced pass is timed)

        w.run = inprocess_cli
    rounds = [w.round(r) for r in range(1 if smoke else TRACE_ROUNDS[w.name])]

    plain: list = []
    start = time.perf_counter()
    for ops in rounds:
        execute(ops, w.run, plain)
    wall_plain = time.perf_counter() - start

    tracer = Tracer()
    traced_records: list = []
    saved_pairs = w.env.pairs if w.env is not None else None
    tracer.install()
    try:
        if w.env is not None:
            w.env.pairs = [tracer.wrap_pair(p) for p in saved_pairs]
        start = time.perf_counter()
        for ops in rounds:
            execute(ops, w.run, traced_records, tracer)
        wall_traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
        if w.env is not None:
            w.env.pairs = saved_pairs

    failures = check(warm + plain + traced_records)
    layer_sum = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    if layer_sum > wall_traced:
        failures.append(f"layer self times {layer_sum:.6f} s exceed traced wall {wall_traced:.6f} s")

    OUT.mkdir(parents=True, exist_ok=True)
    spans = tracer.write(OUT / f"spans-{w.name}-seed{seed}.tsv.gz")
    return {
        "metrics": layer_metrics(tracer, wall_traced / wall_plain),
        "attempted": len(warm) + len(plain) + len(traced_records),
        "failures": failures,
        "spans": spans,
        "wall_plain_s": wall_plain,
        "wall_traced_s": wall_traced,
        "layer_self_sum_s": layer_sum,
    }


def layer_metrics(tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric BENCHMARK.json names, from one traced pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    factor_calls = tracer.calls["sequences.factor"]
    derived = {
        "trace.overhead_ratio": overhead_ratio,
        "sequences.memo_hit_ratio": (
            1.0 - tracer.calls["sequences.raw_factor"] / factor_calls if factor_calls else 1.0
        ),
    }
    names = [m["name"] for m in spec["per_layer"]]
    return {n: derived[n] if n in derived else tracer.metric(n) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("identity_sweep", "expand_hahn", "cli_session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    w = Workload(args.workload, args.seed, args.smoke)
    if args.mode == "setup":
        result = {"setup_done": time.monotonic()}
    elif args.mode == "timed":
        result = timed(w, args.seconds, args.smoke)
    else:
        result = traced(w, args.seed, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
