"""Command-line front end: fixed-point solving, simulation sweeps, and
figure-preset sweeps with machine-readable CSV/JSON output."""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from . import simulator, solver
from .channel import ConfigError, ScenarioConfig
from .simulator import (MYOPIC, ExplicitThreshold, FixedBeta,
                        OptimalThreshold, RunawayPeriodError)

SWEEP_COLUMNS = ["variable", "value", "strategy", "p", "tau", "T", "W",
                 "throughput_bps", "stderr_bps", "n_periods", "seed", "error"]

THRESHOLD_SWEEP_TAUS = (0.01, 0.05)
STRATEGY_VS_P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
STRATEGY_VS_P_STRATEGIES = ("optimal", "myopic", "fixed:5", "fixed:10")


@dataclass(frozen=True)
class SweepSpec:
    variable: str            # threshold | p_avail | tau
    grid: tuple[float, ...]
    strategies: tuple[str, ...]
    n_periods: int
    seed: int

    def __post_init__(self):
        if self.variable not in ("threshold", "p_avail", "tau"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if len(self.strategies) == 0:
            raise ValueError("strategies must be nonempty")
        if self.n_periods < 30:
            raise ValueError("n_periods must be >= 30")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise ValueError("sweep spec must be a JSON object")
        known = {"variable", "grid", "strategies", "n_periods", "seed"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        grid, strategies = d["grid"], d["strategies"]
        n_periods, seed = d["n_periods"], d.get("seed", 0)
        if not isinstance(grid, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in grid):
            raise ValueError(f"grid must be a list of finite numbers, got {grid!r}")
        if not isinstance(strategies, list) or not all(
                isinstance(v, str) for v in strategies):
            raise ValueError(f"strategies must be a list of strings, got {strategies!r}")
        for key, v in (("n_periods", n_periods), ("seed", seed)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{key} must be an integer, got {v!r}")
        return cls(
            variable=d["variable"],
            grid=tuple(float(v) for v in grid),
            strategies=tuple(strategies),
            n_periods=n_periods,
            seed=seed,
        )


def parse_strategy(name: str, threshold_value: float | None = None):
    """Map a strategy string to a policy.

    Accepted: optimal, myopic, fixed:<beta>, threshold:<rho>, and bare
    "threshold" when the sweep variable supplies the threshold value. The
    "genie" bound is not a policy; `sweep_rows` writes it directly.
    """
    if name == "optimal":
        return OptimalThreshold()
    if name == "myopic":
        return MYOPIC
    if name == "threshold":
        if threshold_value is None:
            raise ValueError("bare 'threshold' strategy needs a threshold sweep")
        return ExplicitThreshold(threshold_value)
    if name.startswith("fixed:"):
        return FixedBeta(int(name.split(":", 1)[1]))
    if name.startswith("threshold:"):
        return ExplicitThreshold(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown strategy {name!r}")


def sweep_rows(cfg: ScenarioConfig, spec: SweepSpec, workers: int = 1) -> list[list]:
    """Execute a sweep, yielding one row per (grid value, strategy) in
    deterministic order. Per-point errors, a grid value the config rejects
    included, go in the `error` column and the sweep continues."""
    rows = []
    for value in spec.grid:
        point = {spec.variable: value} if spec.variable in ("p_avail", "tau") else {}
        threshold = value if spec.variable == "threshold" else None
        for strategy in spec.strategies:
            est_fields = ["", ""]
            err = ""
            try:
                cfg_pt = replace(cfg, **point)
                if strategy == "genie":
                    # free perfect relay knowledge: every period carries
                    # W*se_cap bit/s with no probing, an exact bound
                    genie_bps = float(cfg_pt.bandwidth_W * cfg_pt.se_cap)
                    est_fields = [repr(genie_bps), repr(0.0)]
                else:
                    policy = parse_strategy(strategy, threshold)
                    est = simulator.estimate_throughput(
                        policy, cfg_pt, spec.n_periods, spec.seed, workers)
                    est_fields = [repr(est.throughput_bps), repr(est.stderr_bps)]
            except (RunawayPeriodError, solver.ConvergenceError, ValueError) as exc:
                err = f"{type(exc).__name__}: {exc}"
            rows.append([spec.variable, repr(float(value)), strategy,
                         repr(point.get("p_avail", cfg.p_avail)),
                         repr(point.get("tau", cfg.tau)),
                         repr(cfg.T_data), repr(cfg.bandwidth_W),
                         est_fields[0], est_fields[1],
                         spec.n_periods, spec.seed, err])
    return rows


def write_sweep_csv(out_csv, rows) -> None:
    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(rows)


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_csv, workers: int = 1) -> int:
    rows = sweep_rows(cfg, spec, workers)
    write_sweep_csv(out_csv, rows)
    return len(rows)


def _load_config(path) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_json(path)
    except (ConfigError, OSError) as exc:
        raise click.ClickException(f"bad config {path}: {exc}")


@click.group()
def main():
    """Throughput-optimal relay probing: solver and Monte Carlo simulator."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--samples", default=10 ** 6, show_default=True, type=click.IntRange(min=1),
              help="Clear-link draws for a geometric config's rate law.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the solution JSON here.")
def solve(config_path, samples, seed, out_path):
    """Compute the maximum throughput and stopping threshold for CONFIG_PATH
    on the config's own rate law: exact for on/off links, Monte Carlo
    clear-link draws for geometric ones."""
    cfg = _load_config(config_path)
    try:
        sol = simulator.optimal_solution(cfg, seed, samples)
    except (solver.DegenerateDistributionError, solver.ConvergenceError) as exc:
        raise click.ClickException(str(exc))
    onoff = cfg.channel_mode == "onoff"
    click.echo("rate law: onoff" if onoff else
               f"rate law: geometric, {samples} clear-link draws, seed {seed}")
    click.echo(f"mu_star: {sol.mu_star:.6g} bit/s")
    click.echo(f"threshold: {sol.threshold_se:.6g} bit/s/Hz")
    if onoff:
        ratio = solver.genie_ratio_onoff(cfg.p_avail, cfg.tau, cfg.T_data)
        click.echo(f"genie_ratio: {ratio:.6g}")
    if out_path:
        sol.to_json(out_path)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("sweep_spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Override the spec's seed.")
@click.option("--periods", default=None, type=click.IntRange(min=30),
              help="Override the spec's n_periods.")
def sweep(config_path, sweep_spec_path, out_csv, workers, seed, periods):
    """Run the sweep described by SWEEP_SPEC_PATH and write a CSV."""
    cfg = _load_config(config_path)
    try:
        spec = SweepSpec.from_json(sweep_spec_path)
        if seed is not None:
            spec = replace(spec, seed=seed)
        if periods is not None:
            spec = replace(spec, n_periods=periods)
    except (ValueError, KeyError, OSError) as exc:
        raise click.ClickException(f"bad sweep spec {sweep_spec_path}: {exc}")
    rows = run_sweep(cfg, spec, out_csv, workers)
    click.echo(f"wrote {rows} rows to {out_csv}")


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--figure-id", type=click.Choice(["threshold_sweep", "strategy_vs_p"]),
              required=True)
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--periods", default=10 ** 5, show_default=True, type=click.IntRange(min=30))
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
def figure(config_path, figure_id, out_csv, seed, periods, workers):
    """Run a canonical figure sweep and emit plot-ready CSV.

    threshold_sweep: throughput vs stopping threshold (21 points on
    [0.2, 1.0]*se_cap) for probing overheads 10 ms and 50 ms.
    strategy_vs_p: optimal/myopic/fixed-beta throughput over p = 0.1..1.0.
    """
    cfg = _load_config(config_path)
    rows = 0
    if figure_id == "strategy_vs_p":
        spec = SweepSpec("p_avail", STRATEGY_VS_P_GRID,
                         STRATEGY_VS_P_STRATEGIES, periods, seed)
        rows = run_sweep(cfg, spec, out_csv, workers)
    else:
        grid = tuple(np.linspace(0.2, 1.0, 21) * cfg.se_cap)
        spec = SweepSpec("threshold", grid, ("threshold",), periods, seed)
        # two series, one per probing overhead, in a single CSV
        all_rows = []
        for tau in THRESHOLD_SWEEP_TAUS:
            all_rows.extend(sweep_rows(replace(cfg, tau=tau), spec, workers))
        write_sweep_csv(out_csv, all_rows)
        rows = len(all_rows)
    click.echo(f"wrote {rows} rows to {out_csv}")


if __name__ == "__main__":
    sys.exit(main())
