"""One round of a workload in a fresh process: set up, run, report.

run.py starts this as ``python3 round.py REQUEST`` where REQUEST is a JSON
object with the workload, seed, periods, output directory, whether to trace,
whether to stop after set-up, the monotonic time at which it was started and
the path of the result file to write. Set-up time runs from that start, so it
includes the interpreter's start and the import of relayprobe and numpy.
"""

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import relayprobe  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def own_peak_rss_kib() -> int:
    """This process's peak RSS since it was exec'd (VmHWM). getrusage's
    ru_maxrss for the process itself would not do: on Linux it keeps the RSS
    of the process that spawned it, here run.py holding the reference law.
    A worker's ru_maxrss (RUSAGE_CHILDREN, the largest reaped worker) rightly
    includes the pages it shares with this process."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(request: dict) -> dict:
    if not Path(relayprobe.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"relayprobe was imported from {relayprobe.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[request["workload"]]
    out = Path(request["out"])
    state = wl.setup(request["seed"], request["periods"], out)
    result = {"setup_s": time.monotonic() - request["started"]}
    if request["setup_only"]:
        return result

    tracer = tracing.install(out) if request["trace"] else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result["output"] = wl.run(state)
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["wall_s"] = wall
    result["cpu_s"] = (own.ru_utime + own.ru_stime - before.ru_utime - before.ru_stime
                       + workers.ru_utime + workers.ru_stime)
    result["peak_rss_mb"] = max(own_peak_rss_kib(), workers.ru_maxrss) / 1024.0
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall)
    return result


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    res = main(req)
    Path(req["result"]).write_text(json.dumps(res))
