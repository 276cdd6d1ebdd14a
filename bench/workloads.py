"""The benchmark's workloads: the inputs each makes from its seed, the calls
into relayprobe's public entry points that one timed round makes, and the
checks on what those calls return.

An operation is one sweep row or one scan point. It fails when the program
reports an error for it (the sweep CSV's ``error`` column, or an exception
from ``estimate_throughput``) or when a check on it fails.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as ref

# |z| above this fails a statistical check. z is measured against the exact
# std of the estimator (reference.Expect), so it is Gaussian to the CLT's
# accuracy: a correct row fails with probability 2e-9. The benchmark's runs
# check many thousands of rows, so a lower bar would fail correct rows: with
# seed 105, on/off fixed:10 at p = 0.6 loses all ten relays in 306 of 2*10**4
# periods against 230.6 expected, z = -5.04, from independent streams.
Z_MAX = 6.0
# the program's 30-batch stderr over the exact std. For near-Gaussian batch
# means this ratio is outside the band with probability below 1e-12
# (chi-square, 29 degrees of freedom). The band is that wide because a row
# whose variance comes from a rare event reads low when the event does not
# occur: on/off fixed:5 at p = 0.9 loses all five relays with probability
# 2.5e-4, 5 times in 2*10**4 periods on average, and with none its stderr is
# 0.36 of the std.
STDERR_BAND = (0.25, 2.5)

P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
STRATEGIES = ("optimal", "myopic", "fixed:5", "fixed:10")
# threshold_scan at p = 0.9: from below the median of the clear-link rate
# law (0.25) to its 99.7th percentile, 0.34 .. 2.69 bit/s/Hz; 3 to about 430
# probes per period
SCAN_P = 0.9
SCAN_RHOS = tuple(float(r) for r in np.linspace(0.34, 2.69, 5))
REFERENCE_DRAWS = 4_000_000


@dataclass(frozen=True)
class Op:
    """One operation's outcome: the program's own error, and failed checks."""
    name: str
    error: str = ""
    problems: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


def _link(row) -> ref.Link:
    return ref.Link(float(row["p"]), float(row["W"]), float(row["T"]), float(row["tau"]))


def _z_problem(what: str, observed: float, e: ref.Expect) -> list[str]:
    z = e.z(observed)
    if abs(z) > Z_MAX:
        return [f"{what} {observed!r} is {z:+.2f} sigma from the reference "
                f"{e.value!r} (sigma {e.sigma:.4g})"]
    return []


def _stderr_problem(stderr: float, e: ref.Expect) -> list[str]:
    lo, hi = STDERR_BAND
    if not lo * e.sim <= stderr <= hi * e.sim + 1e-9 * abs(e.value):
        return [f"stderr {stderr!r} is outside {STDERR_BAND} x the estimator's "
                f"std {e.sim:.4g}"]
    return []


# -- sweep rows ------------------------------------------------------------

def sweep_expectations(law: ref.ClearLaw, points, n: int) -> dict:
    """Reference value of every expected row, and mu* at its point.

    `points` holds (strategies, value, link) per grid point; the result maps
    (strategy, value, link) to (Expect of the row, Expect of mu*)."""
    out = {}
    for strategies, value, link in points:
        best = ref.mu_star(law, link, n)
        betas = [int(s.split(":")[1]) for s in strategies if s.startswith("fixed:")]
        fixed = dict(zip(betas, ref.fixed(law, link, betas, n))) if betas else {}
        for s in strategies:
            if s == "optimal":
                e = best
            elif s == "myopic":
                e = ref.myopic(law, link, n)
            elif s == "threshold":
                e = ref.threshold(law, link, value, n)
            else:
                e = fixed[int(s.split(":")[1])]
            out[s, value, link] = (e, best)
    return out


def check_rows(rows, expected: dict, n_periods: int, seed: int,
               prefix: str = "") -> list[Op]:
    """Check each sweep row against its renewal-reward value, and against the
    maximum throughput mu* at its point: no row may exceed mu*."""
    ops = []
    for row in rows:
        name = f"{prefix}{row['variable']}={row['value']} {row['strategy']} tau={row['tau']}"
        if row["error"]:
            ops.append(Op(name, error=row["error"]))
            continue
        key = (row["strategy"], float(row["value"]), _link(row))
        if key not in expected:
            ops.append(Op(name, problems=("row is not in the spec's grid",)))
            continue
        e, best = expected[key]
        problems = []
        if int(row["n_periods"]) != n_periods or int(row["seed"]) != seed:
            problems.append(f"row has n_periods={row['n_periods']} seed={row['seed']}")
        try:
            mu, stderr = float(row["throughput_bps"]), float(row["stderr_bps"])
        except ValueError as exc:
            ops.append(Op(name, problems=(f"unreadable estimate: {exc}",)))
            continue
        problems += _z_problem("throughput", mu, e)
        problems += _stderr_problem(stderr, e)
        if ref.Expect(best.value, e.sim, best.ref).z(mu) > Z_MAX:
            problems.append(f"throughput {mu!r} exceeds mu* {best.value!r}")
        ops.append(Op(name, problems=tuple(problems)))
    return ops


def read_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _expect_grid(rows, expected: list[tuple], what: str) -> list[str]:
    """Rows must come in the spec's order: (variable, value, strategy, tau)."""
    got = [(r["variable"], float(r["value"]), r["strategy"], float(r["tau"])) for r in rows]
    if got != expected:
        return [f"{what}: {len(got)} rows differ from the {len(expected)} of the spec's grid"]
    return []


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# -- workloads -------------------------------------------------------------

def _draw_law(cfg) -> ref.ClearLaw:
    from relayprobe.channel import sample_two_hop_se_batch
    return ref.ClearLaw.draw(cfg, REFERENCE_DRAWS, sample_two_hop_se_batch)


def _cfg_link(cfg) -> ref.Link:
    return ref.Link(cfg.p_avail, cfg.bandwidth_W, cfg.T_data, cfg.tau)


class StrategyVsP:
    name = "strategy_vs_p"
    why = ("the paper's headline figure on the geometric law, workers=1: probe "
           "sampling and 10 rate-law builds and solves dominate; no pool runs")
    periods = 20_000
    ops = len(P_GRID) * len(STRATEGIES)

    def inputs(self, seed, periods):
        from relayprobe import default_scenario
        from relayprobe.cli import SweepSpec
        return default_scenario(), SweepSpec("p_avail", P_GRID, STRATEGIES, periods, seed)

    def setup(self, seed, periods, out: Path):
        cfg, spec = self.inputs(seed, periods)
        return {"cfg": cfg, "spec": spec, "csv": out / "strategy_vs_p.csv"}

    def run(self, state):
        from relayprobe import cli
        cli.run_sweep(state["cfg"], state["spec"], state["csv"], workers=1)
        return {"digest": _digest(state["csv"])}

    def expectations(self, seed, periods):
        cfg, spec = self.inputs(seed, periods)
        points = [(spec.strategies, p, _cfg_link(replace(cfg, p_avail=p))) for p in spec.grid]
        return sweep_expectations(_draw_law(cfg), points, periods)

    def check(self, seed, periods, out: Path, output, expected):
        cfg, spec = self.inputs(seed, periods)
        rows = read_rows(out / "strategy_vs_p.csv")
        grid = [("p_avail", p, s, cfg.tau) for p in spec.grid for s in spec.strategies]
        return check_rows(rows, expected, periods, seed), _expect_grid(rows, grid, self.name)


class ThresholdScan:
    name = "threshold_scan"
    why = ("explicit thresholds on the geometric law at p=0.9 with a trace per "
           "point, workers=1: hundreds of probes per period load the engine's "
           "chunk buffers and the trace writer")
    periods = 20_000
    ops = len(SCAN_RHOS)

    def inputs(self, seed, periods):
        from relayprobe import default_scenario
        return default_scenario(p_avail=SCAN_P), SCAN_RHOS

    def setup(self, seed, periods, out: Path):
        cfg, rhos = self.inputs(seed, periods)
        return {"cfg": cfg, "rhos": rhos, "seed": seed, "periods": periods, "out": out}

    def run(self, state):
        from relayprobe import simulator
        points = []
        for i, rho in enumerate(state["rhos"]):
            trace = state["out"] / f"trace-{i}.csv"
            try:
                est = simulator.estimate_throughput(
                    simulator.ExplicitThreshold(rho), state["cfg"], state["periods"],
                    state["seed"], workers=1, trace_path=trace)
            except (simulator.RunawayPeriodError, ValueError) as exc:
                points.append({"rho": rho, "error": f"{type(exc).__name__}: {exc}"})
                continue
            points.append({"rho": rho, "error": "", "throughput_bps": est.throughput_bps,
                           "stderr_bps": est.stderr_bps, "n_periods": est.n_periods,
                           "trace": trace.name})
        traces = [state["out"] / p["trace"] for p in points if not p["error"]]
        return {"points": points, "digest": _digest(*traces)}

    def expectations(self, seed, periods):
        cfg, rhos = self.inputs(seed, periods)
        law, link = _draw_law(cfg), _cfg_link(cfg)
        return {rho: (ref.threshold(law, link, rho, periods),
                      ref.mean_probes(law, link, rho, periods)) for rho in rhos}

    def check(self, seed, periods, out: Path, output, expected):
        _, rhos = self.inputs(seed, periods)
        ops = []
        for point in output["points"]:
            name = f"rho={point['rho']}"
            if point["error"]:
                ops.append(Op(name, error=point["error"]))
            elif point["rho"] not in expected:
                ops.append(Op(name, problems=("threshold is not in the spec",)))
            else:
                ops.append(Op(name, problems=tuple(
                    self.check_point(point, expected[point["rho"]], out, periods))))
        run_problems = []
        if [p["rho"] for p in output["points"]] != list(rhos):
            run_problems.append("scan points differ from the spec's thresholds")
        return ops, run_problems

    @staticmethod
    def check_point(point, expected, out: Path, periods: int) -> list[str]:
        """The throughput and mean probes per period against theory, and the
        trace: one row per period, summing to the returned throughput."""
        e_mu, e_probes = expected
        mu = point["throughput_bps"]
        problems = _z_problem("throughput", mu, e_mu) + _stderr_problem(point["stderr_bps"], e_mu)
        if point["n_periods"] != periods:
            problems.append(f"n_periods {point['n_periods']} != {periods}")
        trace = np.loadtxt(out / point["trace"], delimiter=",", skiprows=1, ndmin=2)
        if trace.shape != (periods, 5) or not np.array_equal(trace[:, 0], np.arange(periods)):
            return problems + [f"trace has shape {trace.shape}, not one row per period"]
        readback = trace[:, 3].sum() / trace[:, 2].sum()
        if abs(readback - mu) > 1e-12 * mu:
            problems.append(f"trace sum(bits)/sum(time) {readback!r} != throughput {mu!r}")
        return problems + _z_problem("mean n_probed", float(trace[:, 1].mean()), e_probes)


class OnOffFiguresW2:
    name = "onoff_figures_w2"
    why = ("both canonical figures through the CLI on the on/off config at "
           "workers=2: probes are cheap, so a process pool per row dominates")
    periods = 20_000
    figures = ("strategy_vs_p", "threshold_sweep")
    taus = (0.01, 0.05)   # the threshold_sweep figure's two series
    ops = len(P_GRID) * len(STRATEGIES) + 2 * 21

    def inputs(self, seed, periods):
        from relayprobe import default_scenario
        return default_scenario(p_avail=0.5, tau=0.01, channel_mode="onoff",
                                bandwidth_W=1.0, se_cap=2.0)

    def setup(self, seed, periods, out: Path):
        self.inputs(seed, periods).to_json(out / "onoff.json")
        return {"seed": seed, "periods": periods, "out": out}

    def run(self, state):
        from relayprobe import cli
        out = state["out"]
        for fig in self.figures:
            cli.main(["figure", str(out / "onoff.json"), "--figure-id", fig,
                      "--out", str(out / f"{fig}.csv"), "--seed", str(state["seed"]),
                      "--periods", str(state["periods"]), "--workers", "2"],
                     standalone_mode=False)
        return {"digest": _digest(*(out / f"{fig}.csv" for fig in self.figures))}

    def _thresholds(self, cfg):
        return [float(r) for r in np.linspace(0.2, 1.0, 21) * cfg.se_cap]

    def expectations(self, seed, periods):
        cfg = self.inputs(seed, periods)
        points = [(STRATEGIES, p, _cfg_link(replace(cfg, p_avail=p))) for p in P_GRID]
        points += [(("threshold",), rho, _cfg_link(replace(cfg, tau=tau)))
                   for tau in self.taus for rho in self._thresholds(cfg)]
        return sweep_expectations(ref.ClearLaw.point(cfg.se_cap), points, periods)

    def check(self, seed, periods, out: Path, output, expected):
        cfg = self.inputs(seed, periods)
        svp = read_rows(out / "strategy_vs_p.csv")
        sweep = read_rows(out / "threshold_sweep.csv")
        ops = (check_rows(svp, expected, periods, seed, "strategy_vs_p ")
               + check_rows(sweep, expected, periods, seed, "threshold_sweep "))
        # on on/off links every relay with both hops clear runs at se_cap, so
        # the optimal threshold stops exactly where myopic does
        myopic = {r["value"]: r for r in svp if r["strategy"] == "myopic"}
        for i, row in enumerate(svp):
            twin = myopic.get(row["value"])
            if row["strategy"] == "optimal" and twin is not None and (
                    (row["throughput_bps"], row["stderr_bps"])
                    != (twin["throughput_bps"], twin["stderr_bps"])):
                ops[i] = replace(ops[i], problems=ops[i].problems + (
                    f"optimal {row['throughput_bps']} != myopic {twin['throughput_bps']}",))
        problems = _expect_grid(
            svp, [("p_avail", p, s, cfg.tau) for p in P_GRID for s in STRATEGIES],
            "strategy_vs_p")
        problems += _expect_grid(
            sweep, [("threshold", rho, "threshold", tau)
                    for tau in self.taus for rho in self._thresholds(cfg)],
            "threshold_sweep")
        return ops, problems


WORKLOADS = {w.name: w for w in (StrategyVsP(), ThresholdScan(), OnOffFiguresW2())}
