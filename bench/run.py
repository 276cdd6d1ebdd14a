"""relayprobe's benchmark: run a workload for a fixed time and report its
metrics, or run every workload and report all of them.

    python3 bench/run.py --workload strategy_vs_p --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each round of a workload runs in a fresh process (round.py), one after
another, until --seconds have been spent in rounds; every round's output is
checked against references computed apart from the program. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, each the median over the
rounds; with --trace 1 the rounds run traced and the metrics are the
per-layer ones. --workload all runs every workload both ways and also
reports the tracing overhead. --write-benchmark-json writes BENCHMARK.json
at the repository root from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ROUND_TIMEOUT_S = 150
# set-up is measured in every round and, to reach this many samples, in
# extra processes that stop once set up
SETUP_SAMPLES = 7

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]
PER_LAYER = [
    ("channel.probes", "count", "lower"),
    ("channel.busy_s", "s", "lower"),
    ("channel.probes_per_s", "1/s", "higher"),
    ("sedist.build_calls", "count", "lower"),
    ("sedist.busy_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.busy_s", "s", "lower"),
    ("simulator.resolve_calls", "count", "lower"),
    ("simulator.resolve_s", "s", "lower"),
    ("simulator.periods", "count", "higher"),
    ("simulator.engine_busy_s", "s", "lower"),
    ("simulator.probes_drawn", "count", "lower"),
    ("simulator.probe_use_ratio", "ratio", "higher"),
    ("simulator.pool_starts", "count", "lower"),
    ("simulator.simulate_wall_s", "s", "lower"),
    ("simulator.stderr_busy_s", "s", "lower"),
    ("simulator.trace_rows", "count", "higher"),
    ("simulator.trace_busy_s", "s", "lower"),
    ("simulator.trace_rows_per_s", "1/s", "higher"),
    ("cli.rows", "count", "higher"),
    ("cli.busy_s", "s", "lower"),
    ("cli.csv_write_s", "s", "lower"),
    ("traced.wall_s", "s", "lower"),
]
RUN_SECONDS = 30


def benchmark_json() -> dict:
    import workloads
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spawn(request: dict, out: Path) -> dict:
    """Run round.py on `request` in a fresh process and return its result."""
    result_path = out / "result.json"
    request = dict(request, result=str(result_path), started=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(BENCH / "round.py"), json.dumps(request)],
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the round and its pool workers
        proc.communicate()
        raise RuntimeError(f"round of {request['workload']} ran over {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"round of {request['workload']} exited {proc.returncode}:\n"
                           + err.decode(errors="replace"))
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 periods: int | None = None) -> dict:
    import workloads
    wl = workloads.WORKLOADS[name]
    periods = periods or wl.periods
    out = ROOT / ".bench_out" / f"{name}-s{seed}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        expected = wl.expectations(seed, periods)
        request = {"workload": name, "seed": seed, "periods": periods, "out": str(out),
                   "trace": trace, "setup_only": False}
        rounds, attempted, failed = [], 0, 0
        wrong, errors, digests = [], [], set()
        spent = last = 0.0
        # whole rounds only; stop when the next one would end nearer the
        # budget's far side than its near side
        while not rounds or spent + last / 2 < seconds:
            start = time.monotonic()
            res = spawn(request, out)
            last = time.monotonic() - start
            spent += last
            rounds.append(res)
            ops, run_problems = wl.check(seed, periods, out, res["output"], expected)
            attempted += max(wl.ops, len(ops))
            failed += sum(op.failed for op in ops) + max(wl.ops - len(ops), 0)
            wrong += run_problems + [f"{op.name}: {p}" for op in ops for p in op.problems]
            errors += [f"{op.name}: program error: {op.error}" for op in ops if op.error]
            digests.add(res["output"]["digest"])
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(dict(request, setup_only=True), out)["setup_s"])
    finally:
        shutil.rmtree(out)

    if len(digests) > 1:
        wrong.append(f"rounds with one seed gave {len(digests)} different outputs")
    for line in (wrong + errors)[:20]:
        print(f"{name}: {line}", file=sys.stderr)

    if trace:
        metrics = {n: {"value": statistics.median(r["layers"][n] for r in rounds), "unit": u}
                   for n, u, _ in PER_LAYER}
    else:
        values = {"setup_s": setups,
                  **{m: [r[m] for r in rounds] for m in ("wall_s", "cpu_s", "peak_rss_mb")}}
        metrics = {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
                   for m in END_TO_END}
    print(f"{name}: {len(rounds)} rounds in {spent:.1f} s; wall "
          + " ".join(f"{r['wall_s']:.3f}" for r in rounds) + "; rss "
          + " ".join(f"{r['peak_rss_mb']:.1f}" for r in rounds), file=sys.stderr)
    # an error the program reports is a failed operation, not a wrong answer
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each run in its own process."""
    import workloads
    report = {}
    for name in workloads.WORKLOADS:
        runs = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced = runs
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["traced.wall_s"]["value"]
        report[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {**plain["metrics"], **traced["metrics"],
                        "tracing_overhead": {"value": traced_wall / wall - 1.0, "unit": "ratio"}},
        }
        print(f"== {name}: attempted {report[name]['attempted']}, "
              f"failed {report[name]['failed']}, correct {report[name]['correct']}")
        for metric, v in report[name]["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
    return {"correct": all(r["correct"] for r in report.values()),
            "attempted": sum(r["attempted"] for r in report.values()),
            "failed": sum(r["failed"] for r in report.values()),
            "workloads": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relayprobe" / "__init__.py").is_file():
        print(f"no relayprobe package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    import workloads
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload in workloads.WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        ap.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
