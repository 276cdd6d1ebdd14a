"""Command-line front end: fixed-point solving, simulation sweeps, and
figure-preset sweeps with machine-readable CSV/JSON output."""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from . import sedist, simulator, solver
from .channel import ScenarioConfig, check_number, load_object
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
        if not isinstance(self.grid, (list, tuple)):
            raise ValueError(f"grid must be a list of numbers, got {self.grid!r}")
        object.__setattr__(self, "grid", tuple(float(check_number(v, "grid")) for v in self.grid))
        if not isinstance(self.strategies, (list, tuple)) or not all(
                isinstance(v, str) for v in self.strategies):
            raise ValueError(f"strategies must be a list of strings, got {self.strategies!r}")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for key in ("n_periods", "seed"):
            object.__setattr__(self, key, check_number(getattr(self, key), key, integer=True))
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if len(self.strategies) == 0:
            raise ValueError("strategies must be nonempty")
        if not simulator.N_BATCHES <= self.n_periods <= simulator.MAX_PERIODS:
            raise ValueError(f"n_periods must be in [{simulator.N_BATCHES}, "
                             f"{simulator.MAX_PERIODS}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        d = load_object(path, "sweep spec")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        return cls(**{"seed": 0, **d})


def parse_strategy(name: str, threshold_value: float | None = None):
    """Map a strategy string to a policy.

    Accepted: optimal, myopic, fixed:<beta>, threshold:<rho>, and bare
    "threshold" when the sweep variable supplies the threshold value. The
    "genie" bound is not a policy; `_plan_row` writes it directly.
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


def _row_outcome(make, *args):
    """make(*args), or the text of the error that fails only its own row."""
    try:
        return make(*args)
    except (RunawayPeriodError, solver.ConvergenceError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _plan_row(cfg, spec, value, strategy):
    cfg_pt = replace(cfg, **{spec.variable: value} if spec.variable != "threshold" else {})
    if strategy == "genie":
        # free perfect relay knowledge: W*se_cap bit/s with no probing,
        # exact on on/off links, an upper bound on geometric
        genie_bps = float(cfg_pt.bandwidth_W * cfg_pt.se_cap)
        return simulator.ThroughputEstimate(genie_bps, 0.0, spec.n_periods)
    policy = parse_strategy(strategy, value if spec.variable == "threshold" else None)
    return simulator.resolve_policy(policy, cfg_pt, spec.seed), cfg_pt


def sweep_rows(series: list[tuple[ScenarioConfig, SweepSpec]], workers: int = 1) -> list[list]:
    """Plan every row of a command's (config, spec) series, then run and format
    them, one row per (grid value, strategy) in order. The plan resolves each
    optimal threshold; the rate law is then released, before any row runs. A
    row's error, a grid value the config rejects included, fills its `error` column."""
    planned = [(cfg, spec, value, strategy, _row_outcome(_plan_row, cfg, spec, value, strategy))
               for cfg, spec in series for value in spec.grid for strategy in spec.strategies]
    sedist.release_law()
    rows = []
    for cfg, spec, value, strategy, work in planned:
        result = (_row_outcome(simulator.estimate_throughput, *work, spec.n_periods,
                               spec.seed, workers) if isinstance(work, tuple) else work)
        err = result if isinstance(result, str) else ""
        rows.append([spec.variable, repr(value), strategy,
                     repr(value if spec.variable == "p_avail" else cfg.p_avail),
                     repr(value if spec.variable == "tau" else cfg.tau),
                     repr(cfg.T_data), repr(cfg.bandwidth_W),
                     *(["", ""] if err else [repr(result.throughput_bps), repr(result.stderr_bps)]),
                     spec.n_periods, spec.seed, err])
    return rows


def write_sweep_csv(out_csv, rows) -> None:
    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(rows)


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_csv, workers: int = 1) -> int:
    rows = sweep_rows([(cfg, spec)], workers)
    write_sweep_csv(out_csv, rows)
    return len(rows)


def _load(load, path, what: str):
    try:
        return load(path)
    except (ValueError, TypeError, OSError) as exc:  # TypeError: a spec key is missing
        raise click.ClickException(f"bad {what} {path}: {exc}")


def _out_dir_exists(ctx, param, path):
    """--out callback: a missing directory fails before the work, not after."""
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise click.BadParameter(f"cannot write {path}: no such directory")
    return path


def _write(write, path, *args) -> None:
    try:
        write(path, *args)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


@click.group()
def main():
    """Throughput-optimal relay probing: solver and Monte Carlo simulator."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              callback=_out_dir_exists, help="Write the solution JSON here.")
def solve(config_path, seed, out_path):
    """Compute the maximum throughput and stopping threshold for CONFIG_PATH
    on the config's own rate law: exact for on/off links, Monte Carlo
    clear-link draws for geometric ones."""
    cfg = _load(ScenarioConfig.from_json, config_path, "config")
    try:
        sol = simulator.optimal_solution(cfg, seed)
    except (solver.DegenerateDistributionError, solver.ConvergenceError) as exc:
        raise click.ClickException(str(exc))
    onoff = cfg.channel_mode == "onoff"
    click.echo("rate law: onoff" if onoff else
               f"rate law: geometric, {sedist.LAW_SAMPLES} clear-link draws, seed {seed}")
    click.echo(f"mu_star: {sol.mu_star:.6g} bit/s")
    click.echo(f"threshold: {sol.threshold_se:.6g} bit/s/Hz")
    if onoff:
        ratio = sol.mu_star / (cfg.bandwidth_W * cfg.se_cap)
        click.echo(f"genie_ratio: {ratio:.6g}")
    if out_path:
        _write(sol.to_json, out_path)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("sweep_spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True,
              callback=_out_dir_exists)
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
def sweep(config_path, sweep_spec_path, out_csv, workers):
    """Run the sweep described by SWEEP_SPEC_PATH and write a CSV."""
    cfg = _load(ScenarioConfig.from_json, config_path, "config")
    spec = _load(SweepSpec.from_json, sweep_spec_path, "sweep spec")
    rows = sweep_rows([(cfg, spec)], workers)
    _write(write_sweep_csv, out_csv, rows)
    click.echo(f"wrote {len(rows)} rows to {out_csv}")


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--figure-id", type=click.Choice(["threshold_sweep", "strategy_vs_p"]),
              required=True)
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True,
              callback=_out_dir_exists)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--periods", default=10 ** 5, show_default=True,
              type=click.IntRange(simulator.N_BATCHES, simulator.MAX_PERIODS))
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
def figure(config_path, figure_id, out_csv, seed, periods, workers):
    """Run a canonical figure sweep and emit plot-ready CSV.

    threshold_sweep: throughput vs stopping threshold (21 points on
    [0.2, 1.0]*se_cap) for probing overheads 10 ms and 50 ms.
    strategy_vs_p: optimal/myopic/fixed-beta throughput over p = 0.1..1.0.
    """
    cfg = _load(ScenarioConfig.from_json, config_path, "config")
    if figure_id == "strategy_vs_p":
        series = [(cfg, SweepSpec("p_avail", STRATEGY_VS_P_GRID,
                                  STRATEGY_VS_P_STRATEGIES, periods, seed))]
    else:
        # one series per probing overhead, in a single CSV
        grid = tuple(np.linspace(0.2, 1.0, 21) * cfg.se_cap)
        spec = SweepSpec("threshold", grid, ("threshold",), periods, seed)
        series = [(replace(cfg, tau=tau), spec) for tau in THRESHOLD_SWEEP_TAUS]
    rows = sweep_rows(series, workers)
    _write(write_sweep_csv, out_csv, rows)
    click.echo(f"wrote {len(rows)} rows to {out_csv}")


if __name__ == "__main__":
    sys.exit(main())
