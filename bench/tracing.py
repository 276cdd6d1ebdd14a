"""Spans and counts recorded from outside relayprobe, for the traced run.

`install` replaces module attributes that the package's own callers look up
at call time (``simulator`` calls ``_channel.sample_two_hop_se_batch``,
``cli`` calls ``simulator.estimate_throughput``, and so on) with wrappers
that record a span per call and count work at the same boundary. Nothing in
the package changes; the wrappers live only in the traced process.

Spans are kept in memory as (name, start, end, parent) and reduced to
per-layer totals and self times when the round ends. A pool worker forked
inside a traced call inherits the wrappers; there a wrapper records no span,
but appends its counts and duration to a per-worker log that the traced
process reads back, so probe counts include the workers' draws.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, log_dir: Path):
        self.pid = os.getpid()
        self.log_dir = Path(log_dir)
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # indices of open spans
        self.counts = Counter()
        self.worker_busy = Counter()

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace module.attr by a recording wrapper. `count(tracer, args,
        kwargs, result)` returns a dict of count increments."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return self._in_worker(name, count, orig, args, kwargs)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else None])
            self.stack.append(len(self.spans) - 1)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.spans[self.stack.pop()][2] = time.perf_counter()
            if count is not None:
                self.counts.update(count(self, args, kwargs, result))
            return result

        setattr(module, attr, wrapper)

    def _in_worker(self, name, count, orig, args, kwargs):
        start = time.perf_counter()
        result = orig(*args, **kwargs)
        record = {"name": name, "busy": time.perf_counter() - start,
                  "counts": count(self, args, kwargs, result) if count else {}}
        with open(self.log_dir / f"worker-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
        return result

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def collect_workers(self):
        """Fold the worker logs into the counts and the workers' busy time."""
        for path in sorted(self.log_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                self.counts.update(rec["counts"])
                self.worker_busy[rec["name"]] += rec["busy"]
            path.unlink()

    def times(self):
        """Total and self time per span name. Self time is the span's
        duration minus the part its child spans cover."""
        total, child = defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return total, self_time


def _probes(tracer, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    counts = {"channel.probes": n}
    # a pool worker only ever runs the engine's chunks
    if os.getpid() != tracer.pid or (tracer.inside("simulator.simulate_periods") and
                                     not tracer.inside("simulator.resolve_policy")):
        counts["simulator.probes_drawn"] = n
    return counts


def _resolve(tracer, args, kwargs, result):
    policy = args[0] if args else kwargs["policy"]
    return {"simulator.resolve_calls": int(type(policy).__name__ == "OptimalThreshold")}


def _periods(tracer, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n_periods"]
    return {"simulator.periods": n,
            "simulator.probes_used": int(result.n_probed.sum())}


def _solve(tracer, args, kwargs, result):
    return {"solver.calls": 1, "solver.iterations": result.iterations}


def install(log_dir: Path) -> Tracer:
    """Wrap the public functions of every relayprobe layer."""
    from relayprobe import channel, cli, sedist, simulator, solver

    t = Tracer(log_dir)
    t.wrap(channel, "sample_two_hop_se_batch", "channel.sample", _probes)
    t.wrap(sedist, "build_empirical", "sedist.build_empirical",
           lambda *_: {"sedist.build_calls": 1})
    t.wrap(solver, "solve_mu_star", "solver.solve", _solve)
    t.wrap(solver, "closed_form_onoff", "solver.solve", _solve)
    t.wrap(simulator, "resolve_policy", "simulator.resolve_policy", _resolve)
    t.wrap(simulator, "simulate_periods", "simulator.simulate_periods", _periods)
    t.wrap(simulator, "batch_means_stderr", "simulator.stderr")
    t.wrap(simulator, "write_trace_csv", "simulator.write_trace",
           lambda tr, args, kw, res: {"simulator.trace_rows": int(args[1].bits.size)})
    t.wrap(simulator, "estimate_throughput", "simulator.estimate_throughput")
    t.wrap(cli, "sweep_rows", "cli.sweep_rows",
           lambda tr, args, kw, res: {"cli.rows": len(res)})
    t.wrap(cli, "write_sweep_csv", "cli.write_csv")

    pool_class = simulator.ProcessPoolExecutor

    class CountedPool(pool_class):
        def __init__(self, *args, **kwargs):
            t.counts["simulator.pool_starts"] += 1
            super().__init__(*args, **kwargs)

    simulator.ProcessPoolExecutor = CountedPool
    return t


def layer_metrics(t: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced round."""
    t.collect_workers()
    total, self_time = t.times()
    c = t.counts
    channel_busy = self_time["channel.sample"] + t.worker_busy["channel.sample"]
    trace_busy = total["simulator.write_trace"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "channel.probes": c["channel.probes"],
        "channel.busy_s": channel_busy,
        "channel.probes_per_s": ratio(c["channel.probes"], channel_busy),
        "sedist.build_calls": c["sedist.build_calls"],
        "sedist.busy_s": self_time["sedist.build_empirical"],
        "solver.calls": c["solver.calls"],
        "solver.iterations": c["solver.iterations"],
        "solver.busy_s": total["solver.solve"],
        "simulator.resolve_calls": c["simulator.resolve_calls"],
        "simulator.resolve_s": total["simulator.resolve_policy"],
        "simulator.periods": c["simulator.periods"],
        "simulator.engine_busy_s": self_time["simulator.simulate_periods"],
        "simulator.probes_drawn": c["simulator.probes_drawn"],
        "simulator.probe_use_ratio": ratio(c["simulator.probes_used"],
                                           c["simulator.probes_drawn"]),
        "simulator.pool_starts": c["simulator.pool_starts"],
        "simulator.simulate_wall_s": total["simulator.simulate_periods"],
        "simulator.stderr_busy_s": total["simulator.stderr"],
        "simulator.trace_rows": c["simulator.trace_rows"],
        "simulator.trace_busy_s": trace_busy,
        "simulator.trace_rows_per_s": ratio(c["simulator.trace_rows"], trace_busy),
        "cli.rows": c["cli.rows"],
        "cli.busy_s": self_time["cli.sweep_rows"],
        "cli.csv_write_s": total["cli.write_csv"],
        "traced.wall_s": wall_s,
    }
