"""Tests of the benchmark itself: a tiny run of each workload passes, and each
correctness check rejects a corrupted output."""

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import OnOffFiguresW2, StrategyVsP, ThresholdScan, read_rows  # noqa: E402

SEED = 5
TINY = 600


def test_benchmark_json_is_generated_from_the_definitions():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes(name):
    result = run.run_workload(name, SEED, seconds=0, trace=False, periods=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].ops
    assert {m["name"] for m in run.END_TO_END} == set(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_counts_pool_workers_draws():
    # 4097 periods make two chunks, so workers=2 starts a pool for every row
    result = run.run_workload("onoff_figures_w2", SEED, seconds=0, trace=True, periods=4097)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert m["simulator.pool_starts"] == OnOffFiguresW2.ops == m["cli.rows"]
    assert m["simulator.periods"] == OnOffFiguresW2.ops * 4097
    assert m["simulator.probes_drawn"] == m["channel.probes"] > 0
    assert 0 < m["simulator.probe_use_ratio"] < 1
    assert m["solver.calls"] == len(workloads.P_GRID)


def _run_in_process(wl, tmp_path, periods=TINY):
    state = wl.setup(SEED, periods, tmp_path)
    output = wl.run(state)
    expected = wl.expectations(SEED, periods)
    return output, expected


def _failed(ops):
    return [op.name for op in ops if op.failed]


def _rewrite(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


@pytest.fixture(scope="module")
def strategy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("strategy_vs_p")
    output, expected = _run_in_process(StrategyVsP(), out)
    return out, output, expected


def _away(mu, e, k=7):
    """A throughput moved k standard errors further from the reference, one
    more than the checks allow. The standard error is the estimator's exact
    one; the program's 30-batch estimate of it is itself off by 13 % or more."""
    return mu + math.copysign(k * e.sim, mu - e.value)


def test_strategy_vs_p_rejects_a_shifted_row(strategy_run):
    out, output, expected = strategy_run
    wl = StrategyVsP()
    ops, problems = wl.check(SEED, TINY, out, output, expected)
    assert not _failed(ops) and not problems
    rows = read_rows(out / "strategy_vs_p.csv")
    for i, row in enumerate(rows):
        key = (row["strategy"], float(row["value"]), workloads._link(row))
        bad = [dict(r) for r in rows]
        bad[i]["throughput_bps"] = repr(_away(float(row["throughput_bps"]), expected[key][0]))
        _rewrite(out / "strategy_vs_p.csv", bad)
        ops, _ = wl.check(SEED, TINY, out, output, expected)
        assert _failed(ops) == [ops[i].name], row
    _rewrite(out / "strategy_vs_p.csv", rows)


def test_strategy_vs_p_rejects_a_first_hop_only_myopic_row(strategy_run):
    import relayprobe as rp
    from relayprobe.channel import sample_two_hop_se_batch

    out, output, expected = strategy_run
    rows = read_rows(out / "strategy_vs_p.csv")
    i = next(i for i, r in enumerate(rows) if r["strategy"] == "myopic" and r["value"] == "0.5")
    # a faulty myopic rule that stops once the first hop is clear
    cfg = rp.default_scenario(p_avail=0.5)
    chi1, _, se = sample_two_hop_se_batch(np.random.default_rng(9), cfg, 50 * TINY)
    stop = np.flatnonzero(chi1)[:TINY]
    time = np.diff(np.cumsum(cfg.tau * (1 + chi1))[stop], prepend=0.0) + cfg.T_data
    bits = cfg.bandwidth_W * cfg.T_data * se[stop]
    bad = [dict(r) for r in rows]
    bad[i]["throughput_bps"] = repr(float(bits.sum() / time.sum()))
    _rewrite(out / "strategy_vs_p.csv", bad)
    try:
        ops, _ = StrategyVsP().check(SEED, TINY, out, output, expected)
    finally:
        _rewrite(out / "strategy_vs_p.csv", rows)
    assert _failed(ops) == [ops[i].name]


def test_strategy_vs_p_rejects_a_missing_row(strategy_run):
    out, output, expected = strategy_run
    rows = read_rows(out / "strategy_vs_p.csv")
    _rewrite(out / "strategy_vs_p.csv", rows[:-1])
    try:
        ops, problems = StrategyVsP().check(SEED, TINY, out, output, expected)
    finally:
        _rewrite(out / "strategy_vs_p.csv", rows)
    assert not _failed(ops) and problems


def _above_mu_star(row, e):
    return repr(float(e.value + 7 * e.sim))


@pytest.mark.parametrize("strategy, field, corrupt, message", [
    ("myopic", "stderr_bps", lambda row, e: repr(0.1 * float(row["stderr_bps"])), "stderr"),
    ("fixed:5", "seed", lambda row, e: str(SEED + 1), "seed="),
    ("optimal", "throughput_bps", _above_mu_star, "exceeds mu*"),
    ("fixed:10", "throughput_bps", lambda row, e: "nan?", "unreadable"),
])
def test_strategy_vs_p_rejects_a_corrupted_field(strategy_run, strategy, field, corrupt, message):
    out, output, expected = strategy_run
    rows = read_rows(out / "strategy_vs_p.csv")
    i = next(i for i, r in enumerate(rows) if r["strategy"] == strategy and r["value"] == "0.7")
    e = expected[strategy, 0.7, workloads._link(rows[i])][0]
    bad = [dict(r) for r in rows]
    bad[i][field] = corrupt(rows[i], e)
    _rewrite(out / "strategy_vs_p.csv", bad)
    try:
        ops, _ = StrategyVsP().check(SEED, TINY, out, output, expected)
    finally:
        _rewrite(out / "strategy_vs_p.csv", rows)
    assert _failed(ops) == [ops[i].name]
    assert any(message in p for p in ops[i].problems), ops[i].problems


def test_threshold_scan_rejects_bad_points_and_traces(tmp_path):
    wl = ThresholdScan()
    output, expected = _run_in_process(wl, tmp_path)
    ops, problems = wl.check(SEED, TINY, tmp_path, output, expected)
    assert not _failed(ops) and not problems

    point = output["points"][1]
    for p in output["points"]:
        shifted = dict(p, throughput_bps=_away(p["throughput_bps"], expected[p["rho"]][0]))
        assert ThresholdScan.check_point(shifted, expected[p["rho"]], tmp_path, TINY)

    trace = tmp_path / point["trace"]
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:100] + lines[101:]))   # a row dropped
    problems = ThresholdScan.check_point(point, expected[point["rho"]], tmp_path, TINY)
    assert any("one row per period" in p for p in problems)

    fields = lines[100].split(",")
    fields[3] = repr(2 * float(fields[3]))                  # one period's bits doubled
    trace.write_text("".join(lines[:100] + [",".join(fields)] + lines[101:]))
    problems = ThresholdScan.check_point(point, expected[point["rho"]], tmp_path, TINY)
    assert any("sum(bits)/sum(time)" in p for p in problems)

    rows = [line.split(",") for line in lines[1:]]          # n_probed doubled
    trace.write_text(lines[0] + "".join(
        ",".join([r[0], str(2 * int(r[1]))] + r[2:]) for r in rows))
    problems = ThresholdScan.check_point(point, expected[point["rho"]], tmp_path, TINY)
    assert [p for p in problems if "mean n_probed" in p] == problems


def test_onoff_figures_reject_shifted_and_unequal_rows(tmp_path):
    wl = OnOffFiguresW2()
    output, expected = _run_in_process(wl, tmp_path)
    ops, problems = wl.check(SEED, TINY, tmp_path, output, expected)
    assert not _failed(ops) and not problems

    path = tmp_path / "strategy_vs_p.csv"
    rows = read_rows(path)
    i = next(i for i, r in enumerate(rows) if r["strategy"] == "fixed:5" and r["value"] == "0.3")
    key = (rows[i]["strategy"], 0.3, workloads._link(rows[i]))
    bad = [dict(r) for r in rows]
    bad[i]["throughput_bps"] = repr(_away(float(rows[i]["throughput_bps"]), expected[key][0]))
    _rewrite(path, bad)
    ops, _ = wl.check(SEED, TINY, tmp_path, output, expected)
    assert _failed(ops) == [ops[i].name]

    # optimal one ulp off myopic: within every statistical band, but on/off
    # links make the two policies stop identically
    j = next(j for j, r in enumerate(rows) if r["strategy"] == "optimal" and r["value"] == "0.7")
    bad = [dict(r) for r in rows]
    bad[j]["throughput_bps"] = repr(float(np.nextafter(float(rows[j]["throughput_bps"]), np.inf)))
    _rewrite(path, bad)
    ops, _ = wl.check(SEED, TINY, tmp_path, output, expected)
    assert _failed(ops) == [ops[j].name]
    assert "myopic" in ops[j].problems[0]


def test_exact_rows_must_match_to_rounding():
    law = workloads.ref.ClearLaw.point(2.0)
    link = workloads.ref.Link(1.0, 1.0, 1.0, 0.01)
    e = workloads.ref.myopic(law, link, 1000)
    assert e.sim == 0.0 and e.value == pytest.approx(2.0 / 1.02)
    assert not workloads._z_problem("throughput", e.value * (1 + 1e-12), e)
    assert workloads._z_problem("throughput", e.value * (1 + 1e-6), e)
    assert replace(e, sim=1e-3).sigma == pytest.approx(1e-3)
