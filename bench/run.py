"""psicalc benchmark: one command per workload run.

    python3 bench/run.py --workload {identity_sweep,expand_hahn,cli_session} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere in a source checkout (it finds `src/` next to `bench/`);
psicalc need not be installed.  With --trace 0 it prints the end-to-end
metrics, measured with tracing off:

  setup_s               median over SETUP_REPEATS fresh interpreters, half
                        started before the timed phase and half after, of the
                        time from spawn until `import psicalc` is done and the
                        workload's contexts and pairs are built (cli_session:
                        spawn-to-exit of `python -c "import psicalc.cli"`);
  throughput_ops_per_s  timed ops divided by their summed latency;
  op_p50_ms, op_p90_ms  per-op latency percentiles over every timed op;
  peak_rss_mb           maximum RSS of the workload process (cli_session:
                        the largest CLI child process).

Times are reported scaled to reference speed (see speed.py), with the
wall-clock value beside each on the human-readable line.

With --trace 1 it prints the per-layer metrics of a traced run instead
(see worker.py).  Every output is checked by `oracle`; failed ops are
reported as `attempted`/`failed` and as a `fail_ratio` line, and any
failure makes the exit code 1.  --smoke shrinks sizes and run length for
the self-test.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("identity_sweep", "expand_hahn", "cli_session")
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170


def spec_units(section: str) -> dict:
    """{metric: unit} for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_child(cmd):
    return subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )


def worker(args, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args) -> float:
    start = time.monotonic()
    if args.workload == "cli_session":
        proc = run_child([sys.executable, "-c", "import psicalc.cli"])
        done = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"import psicalc.cli failed:\n{proc.stderr}")
        return done - start
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--mode", "setup"]
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"] - start


def warm_bytecode() -> None:
    """Compile psicalc and the benchmark modules once, untimed: the first
    import after a fresh checkout writes every __pycache__ entry."""
    proc = run_child([sys.executable, "-c", "import psicalc.cli, oracle, speed, tracer, workloads"])
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import psicalc from {SRC}:\n{proc.stderr}")


def setup_samples(args, count: int) -> list[tuple[float, float]]:
    """(wall, scaled) set-up times, the reference loop run between probes."""
    samples = []
    before = speed.reference_s()
    for _ in range(count):
        wall = setup_probe(args)
        after = speed.reference_s()
        samples.append((wall, wall * speed.scale(before, after)))
        before = after
    return samples


def summarise(setups, raw, k: int) -> dict:
    """End-to-end metrics from column k: 0 for wall times, 1 for scaled."""
    lat = [pair[k] for pair in raw["latencies_ms"]]
    cuts = statistics.quantiles(lat, n=20, method="inclusive") if len(lat) > 1 else lat * 19
    return {
        "setup_s": statistics.median(s[k] for s in setups),
        "throughput_ops_per_s": sum(r[0] for r in raw["rounds"]) / sum(r[1 + k] for r in raw["rounds"]),
        "op_p50_ms": cuts[9],
        "op_p90_ms": cuts[17],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def end_to_end(args) -> tuple[dict, dict]:
    # The machine's speed drifts over seconds, so half the set-up samples
    # are taken before the timed phase and half after it.
    repeats = 2 if args.smoke else SETUP_REPEATS
    setups = setup_samples(args, repeats // 2 + 1)
    raw = worker(args, "timed")
    setups += setup_samples(args, repeats - len(setups))
    info = {"ops_timed": len(raw["latencies_ms"]), "rounds": len(raw["rounds"]),
            "setup_samples": len(setups)}
    return raw, {"values": summarise(setups, raw, 1), "wall": summarise(setups, raw, 0),
                 "units": spec_units("end_to_end"), "info": info}


def per_layer(args) -> tuple[dict, dict]:
    raw = worker(args, "traced")
    info = {k: raw[k] for k in ("spans", "wall_plain_s", "wall_traced_s", "layer_self_sum_s")}
    return raw, {"values": raw["metrics"], "units": spec_units("per_layer"), "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="psicalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "psicalc" / "__init__.py").is_file():
        print(f"error: no psicalc sources at {SRC}", file=sys.stderr)
        return 2
    try:
        warm_bytecode()
        raw, out = (per_layer if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = raw["failures"]
    attempted = raw["attempted"]
    units = out["units"]
    if set(units) != set(out["values"]):
        print(f"error: metrics {sorted(out['values'])} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print("  ".join(f"{k} {v}" for k, v in out["info"].items()))
    wall = out.get("wall", {})
    for name, unit in units.items():
        line = f"{name:40s} {out['values'][name]:>16.6g} {unit}"
        if wall.get(name, out["values"][name]) != out["values"][name]:
            line += f"  (wall clock {wall[name]:.6g})"
        print(line)
    print(f"{'fail_ratio':40s} {len(failures) / attempted:>16.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": out["values"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
