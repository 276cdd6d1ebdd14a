import csv
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relayprobe as rp
from relayprobe import cli, sedist, simulator
from relayprobe.channel import (ConfigError, RelayRegion, ScenarioConfig,
                                sample_two_hop_se_batch)
from relayprobe.simulator import (BLOCK_PROBES, CHUNK_PERIODS, MYOPIC,
                                  ExplicitThreshold, FixedBeta,
                                  OptimalThreshold, RunawayPeriodError,
                                  batch_means_stderr, estimate_throughput,
                                  optimal_solution, resolve_policy,
                                  simulate_periods)


def onoff_cfg(p=0.5, tau=0.01, se_cap=2.0, W=1.0):
    return rp.default_scenario(p_avail=p, tau=tau, se_cap=se_cap,
                               bandwidth_W=W, channel_mode="onoff")


# -- scalar oracle: one period at a time, one probe at a time ---------------

@dataclasses.dataclass(frozen=True)
class PeriodRecord:
    n_probed: int
    period_time: float
    bits: float
    selected_se: float
    running_max: float


@dataclasses.dataclass(frozen=True)
class Probe:
    """One probed relay as seen by a stopping rule."""
    first_hop: int
    rate: float


def _probe_stream(rng, cfg):
    while True:
        chi1, _, se = sample_two_hop_se_batch(rng, cfg, 1)
        yield Probe(int(chi1[0]), float(se[0]))


def run_period_from_probes(policy, cfg, probes) -> PeriodRecord:
    """Run one period against an explicit probe sequence.

    A relay whose first hop is blocked costs tau and has rate 0; otherwise it
    costs 2*tau. A threshold rule transmits with the relay probed at the
    stopping stage; FixedBeta transmits with the best of its beta relays.
    """
    W, T, tau = cfg.bandwidth_W, cfg.T_data, cfg.tau
    fixed = isinstance(policy, FixedBeta)
    probe_time = 0.0
    running_max = 0.0
    n = 0
    for probe in probes:
        n += 1
        if n > simulator.MAX_PROBES:
            raise RunawayPeriodError(f"no stop within {simulator.MAX_PROBES} probes")
        probe_time += tau * (1 + probe.first_hop)
        rate = probe.rate if probe.first_hop else 0.0
        running_max = max(running_max, rate)
        if (n == policy.beta) if fixed else (rate >= policy.rho):
            selected = running_max if fixed else rate
            return PeriodRecord(n, probe_time + T, W * T * selected, selected,
                                running_max)
    raise RunawayPeriodError("probe sequence exhausted before stopping")


def run_period(policy, cfg, rng) -> PeriodRecord:
    """Simulate one probe-then-transmit period with fresh random relays."""
    policy = resolve_policy(policy, cfg)
    return run_period_from_probes(policy, cfg, _probe_stream(rng, cfg))


class TestRunPeriodFromProbes:
    def test_hand_trace_threshold(self):
        # relay 1: first hop blocked (tau); relay 2: both clear, R = 1.5 (2*tau)
        cfg = onoff_cfg()
        probes = [Probe(0, 0.0), Probe(1, 1.5)]
        rec = run_period_from_probes(ExplicitThreshold(1.0), cfg, probes)
        assert rec.n_probed == 2
        assert rec.period_time == pytest.approx(cfg.tau + 2 * cfg.tau + cfg.T_data)
        assert rec.bits == pytest.approx(cfg.bandwidth_W * cfg.T_data * 1.5)
        assert rec.selected_se == 1.5

    def test_fixed_beta_takes_best(self):
        cfg = onoff_cfg()
        probes = [Probe(1, 0.0), Probe(1, 0.7), Probe(1, 0.4)]
        rec = run_period_from_probes(FixedBeta(3), cfg, probes)
        assert rec.n_probed == 3
        assert rec.bits == pytest.approx(cfg.bandwidth_W * cfg.T_data * 0.7)
        assert rec.running_max == 0.7

    def test_fixed_beta_all_blocked_still_transmits(self):
        cfg = onoff_cfg()
        probes = [Probe(0, 0.0)] * 2
        rec = run_period_from_probes(FixedBeta(2), cfg, probes)
        assert rec.bits == 0.0
        assert rec.period_time == pytest.approx(2 * cfg.tau + cfg.T_data)

    def test_blocked_first_hop_rate_forced_zero(self):
        cfg = onoff_cfg()
        # rate on the probe is ignored when the first hop is blocked
        probes = [Probe(0, 9.9), Probe(1, 1.0)]
        rec = run_period_from_probes(ExplicitThreshold(0.5), cfg, probes)
        assert rec.n_probed == 2

    def test_time_accounting(self):
        cfg = onoff_cfg()
        probes = [Probe(1, 0.0), Probe(0, 0.0), Probe(1, 2.0)]
        rec = run_period_from_probes(ExplicitThreshold(1.0), cfg, probes)
        n_unblocked_first = 2
        assert rec.period_time == pytest.approx(
            cfg.tau * (rec.n_probed + n_unblocked_first) + cfg.T_data)

    def test_myopic_ignores_rate(self):
        # a second-hop block zeroes the rate; myopic then takes the first
        # relay with any positive rate, not the better one after it
        cfg = onoff_cfg()
        probes = [Probe(1, 0.0), Probe(1, 0.01), Probe(1, 0.9)]
        rec = run_period_from_probes(MYOPIC, cfg, probes)
        assert rec.n_probed == 2
        assert rec.selected_se == 0.01

    def test_runaway(self, monkeypatch):
        cfg = onoff_cfg()
        probes = [Probe(0, 0.0)] * 10
        monkeypatch.setattr(simulator, "MAX_PROBES", 5)
        with pytest.raises(RunawayPeriodError):
            run_period_from_probes(ExplicitThreshold(1.0), cfg, probes)


class TestFixedBetaBound:
    def test_beta_bounded_by_max_probes(self):
        # every FixedBeta period probes beta relays, so a count above the
        # runaway bound could only exhaust memory: fixed:1000000000 would
        # ask for 8 GB per float64 array
        assert FixedBeta(10 ** 6).beta == 10 ** 6
        assert FixedBeta(np.int64(5)).beta == 5
        # a float or bool count would construct, then fail in the engine
        for beta in (0, 10 ** 6 + 1, 10 ** 9, 2.5, True, "5"):
            with pytest.raises(ValueError, match="beta"):
                FixedBeta(beta)

    @pytest.mark.parametrize("beta", [np.uint8(200), np.int8(100)])
    def test_numpy_beta_stored_as_int(self, beta):
        # kept as a numpy integer, beta would carry its dtype into the
        # engine's block-size product, which overflows it
        policy = FixedBeta(beta)
        assert type(policy.beta) is int
        cfg = onoff_cfg()
        assert_same_arrays(*(dataclasses.astuple(simulate_periods(pol, cfg, 300, 5))
                             for pol in (policy, FixedBeta(int(beta)))))


class TestExplicitThreshold:
    def test_rho_is_a_finite_nonnegative_real(self):
        assert ExplicitThreshold(1).rho == 1
        assert ExplicitThreshold(np.float64(0.5)).rho == 0.5
        # True would simulate rho = 1; 10**400 used to overflow; no config
        # field takes a float32, a numpy integer or a Fraction, nor does rho
        for rho in (-1.0, math.nan, math.inf, True, "1.0", None, 10 ** 400,
                    np.float32(0.5), np.int64(1), Fraction(1, 2)):
            with pytest.raises(ValueError, match="rho"):
                ExplicitThreshold(rho)


class TestRunPeriod:
    def test_always_available_stops_immediately(self):
        cfg = onoff_cfg(p=1.0)
        rec = run_period(ExplicitThreshold(1.0), cfg, np.random.default_rng(0))
        assert rec.n_probed == 1
        assert rec.period_time == pytest.approx(2 * cfg.tau + cfg.T_data)
        assert rec.selected_se == cfg.se_cap

    def test_runaway_threshold_above_support(self, monkeypatch):
        cfg = onoff_cfg()
        monkeypatch.setattr(simulator, "MAX_PROBES", 200)
        with pytest.raises(RunawayPeriodError):
            run_period(ExplicitThreshold(5.0), cfg, np.random.default_rng(0))

    def test_threshold_above_se_cap_runs_away(self, monkeypatch):
        # no rate exceeds se_cap, so the relays the rate-floor bound keeps
        # all read below this threshold: the engine runs away, and a sweep
        # row carries that as its typed error
        cfg = rp.default_scenario(p_avail=0.9)
        rho = math.nextafter(cfg.se_cap, math.inf)
        monkeypatch.setattr(simulator, "MAX_PROBES", 1000)
        with pytest.raises(RunawayPeriodError):
            simulator._simulate_chunk(ExplicitThreshold(rho), cfg, 0, 0, 10)
        spec = cli.SweepSpec("p_avail", (0.9,), (f"threshold:{rho!r}",), 100, 0)
        (row,) = cli.sweep_rows(cfg, spec)
        assert row[-1].startswith("RunawayPeriodError"), row

    def test_geometric_mode(self):
        cfg = rp.default_scenario(p_avail=0.9)
        rec = run_period(MYOPIC, cfg, np.random.default_rng(1))
        assert rec.n_probed >= 1
        assert rec.period_time >= cfg.tau + cfg.T_data
        assert 0 <= rec.selected_se <= cfg.se_cap

    def test_myopic_passes_over_zero_rate_relays(self, monkeypatch):
        # below about -163 dB SNR a dual-clear relay's rate rounds to 0.0,
        # which the threshold at the smallest positive rate never accepts
        cfg = rp.default_scenario(p_avail=1.0, pathloss_a=400.0)
        _, _, se = sample_two_hop_se_batch(np.random.default_rng(0), cfg, 1000)
        assert np.all(se == 0.0)
        monkeypatch.setattr(simulator, "MAX_PROBES", 1000)
        with pytest.raises(RunawayPeriodError):
            simulate_periods(MYOPIC, cfg, 100, 0)


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if it draws a probe."""
    def no_draw(*args):
        raise AssertionError("drew probes")

    monkeypatch.setattr(simulator._channel, "sample_two_hop_se_batch", no_draw)


@pytest.mark.usefixtures("no_draw")
class TestEngineInputs:
    # each engine count passes the one number rule before anything is drawn

    def test_bool_period_count_rejected(self):
        with pytest.raises(ConfigError, match="n_periods"):
            simulate_periods(MYOPIC, onoff_cfg(), True, 0)

    def test_float_period_count_rejected(self):
        with pytest.raises(ConfigError, match="n_periods"):
            estimate_throughput(MYOPIC, onoff_cfg(), 30.0, 0)

    @pytest.mark.parametrize("seed", [True, 1.0, -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            simulate_periods(MYOPIC, onoff_cfg(), 100, seed)

    @pytest.mark.parametrize("workers", [0, 2.0, True])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            simulate_periods(MYOPIC, onoff_cfg(), 100, 0, workers)


@pytest.mark.usefixtures("no_draw")
def test_period_count_bounded_before_drawing():
    # a count past MAX_PERIODS is refused before any chunk list or draw
    for n in (simulator.MAX_PERIODS + 1, 10 ** 300):
        with pytest.raises(ValueError, match="n_periods"):
            simulate_periods(MYOPIC, rp.default_scenario(), n, 0)


class TestResolvePolicy:
    def test_onoff_uses_closed_form(self):
        from relayprobe.solver import closed_form_onoff
        cfg = onoff_cfg()
        pol = resolve_policy(OptimalThreshold(), cfg)
        expected = closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01).threshold_se
        assert isinstance(pol, ExplicitThreshold)
        assert pol.rho == pytest.approx(expected, rel=1e-12)

    def test_non_optimal_policies_pass_through(self):
        cfg = onoff_cfg()
        pol = MYOPIC
        assert resolve_policy(pol, cfg) is pol

    def test_geometric_resolution_is_deterministic(self, monkeypatch):
        cfg = rp.default_scenario(p_avail=0.5)
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 10 ** 4)
        sedist._clear_law.cache_clear()
        a = optimal_solution(cfg, 5).threshold_se
        sedist._clear_law.cache_clear()
        b = optimal_solution(cfg, 5).threshold_se
        assert a == b

    def test_small_p_resolve_is_accurate(self):
        # the law is drawn clear-link only, so at p = 0.1 (about 1% of
        # unconditional probes dual-clear) 10**6 draws still put mu* within
        # 0.5% of the renewal-reward optimum of criterion 5, 122.7 Mbit/s
        sol = optimal_solution(rp.default_scenario(p_avail=0.1, tau=0.01), 13)
        assert sol.mu_star == pytest.approx(122.7e6, rel=5e-3)


class TestEstimateThroughput:
    def test_onoff_matches_closed_form(self):
        from relayprobe.solver import closed_form_onoff
        cfg = onoff_cfg()
        est = estimate_throughput(OptimalThreshold(), cfg, 10 ** 5, seed=1)
        mu = closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01).mu_star
        assert abs(est.throughput_bps - mu) < 3 * est.stderr_bps
        assert abs(est.throughput_bps - mu) / mu < 0.01

    def test_myopic_equals_threshold_when_always_available(self):
        # p = 1 in on/off mode: every relay qualifies for both rules
        cfg = onoff_cfg(p=1.0, tau=0.05)
        my = estimate_throughput(MYOPIC, cfg, 1000, seed=2)
        expected = cfg.T_data / (cfg.T_data + 2 * cfg.tau) * cfg.bandwidth_W * cfg.se_cap
        assert my.throughput_bps == pytest.approx(expected, rel=1e-12)
        th = estimate_throughput(OptimalThreshold(), cfg, 1000, seed=2)
        assert th.throughput_bps == pytest.approx(expected, rel=1e-12)

    def test_geometric_stopping_mean_probes(self):
        cfg = onoff_cfg(p=0.6)
        q = 0.36
        arr = simulate_periods(ExplicitThreshold(1.0), cfg, 50000, seed=3)
        stderr = math.sqrt((1 - q) / q ** 2 / arr.n_probed.size)
        assert abs(arr.n_probed.mean() - 1 / q) < 3 * stderr

    def test_minimum_periods_enforced(self):
        with pytest.raises(ValueError):
            estimate_throughput(MYOPIC, onoff_cfg(), 10, seed=0)

    def test_totals_consistent(self):
        cfg = onoff_cfg()
        est = estimate_throughput(MYOPIC, cfg, 500, seed=4)
        arr = simulate_periods(MYOPIC, cfg, 500, seed=4)
        assert est.throughput_bps == arr.bits.sum() / arr.period_time.sum()
        assert est.n_periods == 500


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = onoff_cfg()
        a = estimate_throughput(MYOPIC, cfg, 5000, seed=7)
        b = estimate_throughput(MYOPIC, cfg, 5000, seed=7)
        assert a == b

    def test_worker_count_invariance(self):
        cfg = onoff_cfg()
        n = 3 * CHUNK_PERIODS + 100
        serial = simulate_periods(ExplicitThreshold(1.0), cfg, n, seed=8, workers=1)
        parallel = simulate_periods(ExplicitThreshold(1.0), cfg, n, seed=8, workers=3)
        assert np.array_equal(serial.bits, parallel.bits)
        assert np.array_equal(serial.period_time, parallel.period_time)
        assert np.array_equal(serial.n_probed, parallel.n_probed)

    def test_pool_start(self, monkeypatch):
        # the caller is one of the w = min(workers, chunks) workers: numpy's
        # random module is set up before the fork so no helper pays for it,
        # the pool forks w - 1 helpers, the caller runs chunks 0, w, 2w, ...
        # and the helpers run the rest
        events = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                events.append(("pool", max_workers))
                if "fork" in multiprocessing.get_all_start_methods():
                    assert mp_context.get_start_method() == "fork"

            def submit(self, fn, *args):
                events.append(("helper", args[3]))
                future = Future()
                future.set_result(chunk(*args))
                return future

            def shutdown(self, cancel_futures=False):
                # a raising row must not wait for the helpers' pending chunks
                events.append(("shutdown", cancel_futures))

        chunk = simulator._simulate_chunk
        default_rng = np.random.default_rng
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(simulator, "_simulate_chunk",
                            lambda *a: events.append(("caller", a[3])) or chunk(*a))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: events.append("rng") or default_rng(*a))
        cfg = onoff_cfg()
        for workers, n_chunks, pool, caller in [(500, 3, 2, [0]), (2, 5, 1, [0, 2, 4])]:
            events.clear()
            n = (n_chunks - 1) * CHUNK_PERIODS + 1
            pooled = simulate_periods(MYOPIC, cfg, n, seed=8, workers=workers)
            assert events[:2] == ["rng", ("pool", pool)]
            steps = [e for e in events[2:] if e != "rng"]
            helpers = [i for i in range(n_chunks) if i not in caller]
            assert steps == ([("helper", i) for i in helpers] +
                             [("caller", i) for i in caller] + [("shutdown", True)])
            serial = simulate_periods(MYOPIC, cfg, n, seed=8, workers=1)
            assert all(np.array_equal(a, b) for a, b in
                       zip(dataclasses.astuple(pooled), dataclasses.astuple(serial)))

    def test_no_helper_outlives_its_row(self, monkeypatch):
        # a threshold above se_cap runs away in every chunk: the row's error
        # cell does not depend on the worker count, and every helper has
        # exited when the row returns or raises
        monkeypatch.setattr(simulator, "MAX_PROBES", 1000)
        cfg = onoff_cfg()
        rho = math.nextafter(cfg.se_cap, math.inf)
        n = 2 * CHUNK_PERIODS + 1
        spec = cli.SweepSpec("p_avail", (0.5,), ("myopic", f"threshold:{rho!r}"), n, 0)
        rows = {}
        for workers in (1, 2, 3):
            rows[workers] = cli.sweep_rows(cfg, spec, workers)
            assert multiprocessing.active_children() == []
            with pytest.raises(RunawayPeriodError):
                simulate_periods(ExplicitThreshold(rho), cfg, n, 0, workers)
            assert multiprocessing.active_children() == []
        assert rows[1][1][-1].startswith("RunawayPeriodError"), rows[1]
        assert rows[1] == rows[2] == rows[3]

    def test_different_seeds_differ(self):
        cfg = onoff_cfg()
        a = estimate_throughput(MYOPIC, cfg, 5000, seed=1)
        b = estimate_throughput(MYOPIC, cfg, 5000, seed=2)
        assert a.throughput_bps != b.throughput_bps


# run in a fresh interpreter, since pytest's own process already holds
# multiprocessing; argv[1] says what follows the single-worker row
POOL_IMPORT_SCRIPT = """
import dataclasses, sys
import numpy as np
import relayprobe, relayprobe.cli
from relayprobe import simulator

def loaded():
    return [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]

cfg = relayprobe.default_scenario(p_avail=0.5, tau=0.01, se_cap=2.0,
                                  bandwidth_W=1.0, channel_mode="onoff")
n = simulator.CHUNK_PERIODS + 1
serial = simulator.simulate_periods(simulator.MYOPIC, cfg, n, seed=8, workers=1)
assert loaded() == [], loaded()
try:
    simulator.NoSuchName
except AttributeError:
    pass
else:
    raise AssertionError("simulator.NoSuchName resolved")
assert loaded() == [], loaded()
if sys.argv[1] == "resolve":
    pool_class = simulator.ProcessPoolExecutor
    from concurrent.futures import ProcessPoolExecutor
    assert pool_class is ProcessPoolExecutor is vars(simulator)["ProcessPoolExecutor"]
else:
    pooled = simulator.simulate_periods(simulator.MYOPIC, cfg, n, seed=8, workers=2)
    assert loaded() == ["multiprocessing", "concurrent.futures"], loaded()
    assert all(np.array_equal(a, b) for a, b in
               zip(dataclasses.astuple(pooled), dataclasses.astuple(serial)))
"""


@pytest.mark.parametrize("then", ["resolve", "pooled_row"])
def test_single_worker_run_loads_no_pool_modules(then):
    # the pool class and its fork context load with the first multi-worker
    # row; before that, the stdlib class still resolves on first access
    src = str(Path(rp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", POOL_IMPORT_SCRIPT, then],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# one perturbation per ScenarioConfig field, each away from
# default_scenario(p_avail=0.5); se_cap goes to 1.0 because the default 8
# never binds on the geometric law
FIELD_PERTURBATIONS = {
    "source_pos": (-200.0, 0.0),
    "dest_pos": (200.0, 50.0),
    "relay_region": RelayRegion((0.0, 50.0), 200.0),
    "tx_power_bs": 20.0,
    "tx_power_dev": 13.0,
    "bf_gain_bs": 10.0,
    "bf_gain_dev": 5.0,
    "bandwidth_W": 250e6,
    "noise_psd": -170.0,
    "noise_figure": 10.0,
    "pathloss_a": 150.0,
    "pathloss_b": 30.0,
    "shadow_sigma": 3.0,
    "p_avail": 0.6,
    "tau": 0.02,
    "T_data": 0.5,
    "se_cap": 1.0,
    "channel_mode": "onoff",
}


class TestEveryConfigFieldHonoured:
    def test_table_covers_every_field(self):
        # a new field must be honoured by the engine (and perturbed here)
        # or rejected by the config
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(FIELD_PERTURBATIONS) == fields

    @pytest.mark.parametrize("field", sorted(FIELD_PERTURBATIONS))
    def test_perturbation_moves_output(self, field):
        base = rp.default_scenario(p_avail=0.5)
        cfg = dataclasses.replace(base, **{field: FIELD_PERTURBATIONS[field]})
        a = simulate_periods(MYOPIC, base, 2000, 3)
        b = simulate_periods(MYOPIC, cfg, 2000, 3)
        assert not all(np.array_equal(x, y) for x, y in
                       zip(dataclasses.astuple(a), dataclasses.astuple(b)))


class TestEngineAgainstScalarLoop:
    def test_distributional_agreement(self):
        # the vectorized engine and the per-period loop sample the same law
        cfg = onoff_cfg(p=0.4)
        arr = simulate_periods(ExplicitThreshold(1.0), cfg, 50000, seed=10)
        rng = np.random.default_rng(11)
        recs = [run_period(ExplicitThreshold(1.0), cfg, rng) for _ in range(4000)]
        loop_mu = sum(r.bits for r in recs) / sum(r.period_time for r in recs)
        eng_mu = arr.bits.sum() / arr.period_time.sum()
        loop_n = np.mean([r.n_probed for r in recs])
        # generous statistical bands dominated by the 4000-period loop
        assert abs(loop_mu - eng_mu) / eng_mu < 0.05
        assert abs(loop_n - arr.n_probed.mean()) < 4 * (1 / 0.16) / math.sqrt(4000)


def flat_oracle(policy, cfg, seed, chunk_index, n_periods):
    """The threshold engine as one flat pass: keep every block of the probe
    stream, then take the first n_periods stops and count the clear first
    hops with one cumsum over it all."""
    rng = np.random.default_rng([seed, chunk_index])
    chi1_parts, rate_parts, accept_parts = [], [], []
    n_accepted = drawn_since_accept = 0
    while n_accepted < n_periods:
        chi1, _, se = sample_two_hop_se_batch(rng, cfg, BLOCK_PROBES)
        acc = se >= policy.rho
        hits = np.flatnonzero(acc)
        drawn_since_accept = (drawn_since_accept + BLOCK_PROBES if hits.size == 0
                              else BLOCK_PROBES - 1 - int(hits[-1]))
        if drawn_since_accept > simulator.MAX_PROBES:
            raise RunawayPeriodError("tail")
        chi1_parts.append(chi1)
        rate_parts.append(se)
        accept_parts.append(acc)
        n_accepted += hits.size
    stop_idx = np.flatnonzero(np.concatenate(accept_parts))[:n_periods]
    n_probed = np.diff(stop_idx, prepend=-1)
    if n_probed.max() > simulator.MAX_PROBES:
        raise RunawayPeriodError("span")
    n_first = np.diff(np.cumsum(np.concatenate(chi1_parts), dtype=np.int64)[stop_idx],
                      prepend=0)
    return n_probed, n_first, np.concatenate(rate_parts)[stop_idx]


def assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def clear_q99():
    """A threshold near the 99th percentile of the geometric clear-link law."""
    law = sedist.build_empirical(rp.default_scenario(p_avail=1.0), 10 ** 5,
                                 np.random.default_rng(5))
    return ExplicitThreshold(float(np.quantile(law.samples, 0.99)))


ORACLE_CASES = [
    # on/off at p = 0.005: about 40,000 probes per period, several blocks each
    *[("onoff", 0.005, n) for n in (1, 7)],
    *[("onoff", p, n) for p in (0.3, 1.0) for n in (1, 7, CHUNK_PERIODS)],
    # geometric at p = 0.1 and rho ~ q99: about 10,000 probes per period
    *[("geometric", 0.1, n) for n in (1, 7)],
    *[("geometric", 0.9, n) for n in (1, 7, CHUNK_PERIODS)],
]


class TestStreamedEngine:
    """The engine reduces each block as it is drawn; it must give exactly
    what one flat pass over the same probe stream gives."""

    @pytest.mark.parametrize("mode,p,n", ORACLE_CASES)
    def test_equals_flat_oracle(self, clear_q99, mode, p, n):
        if mode == "onoff":
            cfg, policy = onoff_cfg(p=p), MYOPIC
        else:
            cfg, policy = rp.default_scenario(p_avail=p), clear_q99
        for chunk in (0, 3):
            got = simulator._simulate_chunk(policy, cfg, 21, chunk, n)
            assert_same_arrays(got, flat_oracle(policy, cfg, 21, chunk, n))

    @given(p=st.floats(0.05, 1.0), rho=st.floats(0.0, 2.0),
           n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_onoff_property(self, p, rho, n, seed):
        cfg, policy = onoff_cfg(p=p), ExplicitThreshold(rho)
        assert_same_arrays(simulator._simulate_chunk(policy, cfg, seed, 0, n),
                           flat_oracle(policy, cfg, seed, 0, n))

    @pytest.mark.parametrize("max_probes", [1000, BLOCK_PROBES + 4000])
    def test_runaway_still_raised(self, max_probes, monkeypatch):
        # about 40,000 probes per period, so both limits are exceeded
        cfg = onoff_cfg(p=0.005)
        monkeypatch.setattr(simulator, "MAX_PROBES", max_probes)
        with pytest.raises(RunawayPeriodError):
            flat_oracle(MYOPIC, cfg, 2, 0, 7)
        with pytest.raises(RunawayPeriodError):
            simulator._simulate_chunk(MYOPIC, cfg, 2, 0, 7)

    def test_runaway_across_blocks(self, monkeypatch):
        # a period that spans three blocks but leaves no block with a long
        # tail is caught once all stops are known; one more probe is fine
        stops = [BLOCK_PROBES - 10, 2 * BLOCK_PROBES + 100, 2 * BLOCK_PROBES + 101]
        se = np.zeros(3 * BLOCK_PROBES)
        se[stops] = 1.0

        def scripted(rng, cfg, n, floor=0.0):
            k = scripted.drawn
            scripted.drawn += n
            return np.ones(n, np.int8), np.ones(n, np.int8), se[k:k + n]

        monkeypatch.setattr(simulator._channel, "sample_two_hop_se_batch", scripted)
        span = stops[1] - stops[0]
        for max_probes, ok in ((span - 1, False), (span, True)):
            scripted.drawn = 0
            monkeypatch.setattr(simulator, "MAX_PROBES", max_probes)
            if ok:
                n_probed, _, _ = simulator._simulate_chunk(MYOPIC, onoff_cfg(), 0, 0, 3)
                assert n_probed.tolist() == [stops[0] + 1, span, 1]
            else:
                with pytest.raises(RunawayPeriodError):
                    simulator._simulate_chunk(MYOPIC, onoff_cfg(), 0, 0, 3)

    def test_tail_after_last_stop_is_no_runaway(self, monkeypatch):
        # both periods stop early in the block; the long tail after the last
        # stop belongs to no period
        se = np.zeros(BLOCK_PROBES)
        se[[5, 10]] = 1.0
        monkeypatch.setattr(simulator._channel, "sample_two_hop_se_batch",
                            lambda rng, cfg, n, floor=0.0: (np.ones(n, np.int8),
                                                            np.ones(n, np.int8), se))
        monkeypatch.setattr(simulator, "MAX_PROBES", 100)
        n_probed, n_first, rate = simulator._simulate_chunk(MYOPIC, onoff_cfg(), 0, 0, 2)
        assert n_probed.tolist() == [6, 5]
        assert n_first.tolist() == [6, 5]
        assert rate.tolist() == [1.0, 1.0]

    def test_periods_formed_from_chunk_counts(self):
        # the chunks return counts; simulate_periods joins them and forms
        # period time and bits once, in this operation order
        cfg = rp.default_scenario(p_avail=0.9)
        arr = simulate_periods(MYOPIC, cfg, CHUNK_PERIODS + 5, 3)
        chunks = [simulator._simulate_chunk(MYOPIC, cfg, 3, i, n)
                  for i, n in enumerate((CHUNK_PERIODS, 5))]
        n_probed, n_first, rate = (np.concatenate(c) for c in zip(*chunks))
        assert np.array_equal(arr.n_probed, n_probed)
        assert np.array_equal(arr.period_time,
                              cfg.tau * (n_probed + n_first) + cfg.T_data)
        assert np.array_equal(arr.bits, cfg.bandwidth_W * cfg.T_data * rate)
        assert np.array_equal(arr.selected_se, rate)

    @pytest.mark.parametrize("p", [1.0, 0.05])
    def test_period_time_on_probe_lattice(self, p):
        # a period lasts tau per probe and per clear first hop, then T_data,
        # with no rounding carried from earlier periods or blocks
        cfg = onoff_cfg(p=p)
        tau, T = cfg.tau, cfg.T_data
        arr = simulate_periods(MYOPIC, cfg, 3 * CHUNK_PERIODS if p == 1.0 else 2000, 7)
        if p == 1.0:
            assert np.all(arr.period_time == 2 * tau + T)
        k = np.rint((arr.period_time - T) / tau)
        assert np.array_equal(tau * k + T, arr.period_time)
        assert np.all((arr.n_probed < k) & (k <= 2 * arr.n_probed))

    def test_chunk_memory_is_bounded(self):
        # myopic at p = 0.05 takes about 400 probes per period, 1.6e6 per
        # chunk; keeping every block would hold tens of MB, while a streamed
        # chunk holds one block and its output arrays
        cfg = onoff_cfg(p=0.05)
        simulate_periods(MYOPIC, cfg, 10, 0)
        tracemalloc.start()
        try:
            simulate_periods(MYOPIC, cfg, CHUNK_PERIODS, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def fixed_oracle(beta, cfg, seed, chunk_index, n_periods, periods_per_draw):
    """A FixedBeta chunk drawn as consecutive calls of periods_per_draw whole
    periods each, reduced after the last call."""
    rng = np.random.default_rng([seed, chunk_index])
    draws = [sample_two_hop_se_batch(rng, cfg, min(periods_per_draw, n_periods - i) * beta)
             for i in range(0, n_periods, periods_per_draw)]
    chi1 = np.concatenate([d[0] for d in draws]).reshape(n_periods, beta)
    best = np.concatenate([d[2] for d in draws]).reshape(n_periods, beta).max(axis=1)
    return (np.full(n_periods, beta, dtype=np.int64),
            chi1.sum(axis=1, dtype=np.int64), best)


class TestFixedBetaBlocks:
    """FixedBeta draws whole periods in blocks of about BLOCK_PROBES relays."""

    @pytest.mark.parametrize("beta", [1, 4, 5, 1000, BLOCK_PROBES + 1])
    @pytest.mark.parametrize("mode", ["onoff", "geometric"])
    def test_blocks_of_whole_periods(self, mode, beta):
        # a whole chunk of beta <= 4 fits in one block, so its stream is the
        # one draw of n_periods * beta relays it always was
        cfg = onoff_cfg() if mode == "onoff" else rp.default_scenario(p_avail=0.5)
        step = max(1, BLOCK_PROBES // beta)
        for n in (1, min(2 * step + 1, CHUNK_PERIODS)):
            assert_same_arrays(
                simulator._simulate_chunk(FixedBeta(beta), cfg, 4, 2, n),
                fixed_oracle(beta, cfg, 4, 2, n, step))

    def test_chunk_memory_is_bounded(self):
        # FixedBeta(1000) probes 4.1e6 relays per 4096-period chunk; one draw
        # of them all would hold over 100 MB, while a block of 16 periods
        # holds 16,000 relays
        cfg = rp.default_scenario(p_avail=0.5)
        simulator._simulate_chunk(FixedBeta(1000), cfg, 0, 0, 10)
        tracemalloc.start()
        try:
            simulator._simulate_chunk(FixedBeta(1000), cfg, 0, 0, CHUNK_PERIODS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestBatchMeans:
    def test_stderr_shrinks_with_periods(self):
        cfg = onoff_cfg()
        a = estimate_throughput(MYOPIC, cfg, 20000, seed=12)
        b = estimate_throughput(MYOPIC, cfg, 80000, seed=12)
        ratio = b.stderr_bps / a.stderr_bps
        # quadrupling periods should halve the stderr, within MC wobble
        assert 0.3 < ratio < 0.8

    def test_requires_enough_periods(self):
        with pytest.raises(ValueError):
            batch_means_stderr(np.ones(10), np.ones(10))


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        cfg = onoff_cfg()
        path = tmp_path / "trace.csv"
        estimate_throughput(MYOPIC, cfg, 100, seed=0, trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "period_index,n_probed,period_time_s,bits,selected_se"
        assert len(lines) == 101

    @pytest.mark.parametrize("policy", [MYOPIC, FixedBeta(3)])
    def test_bytes_equal_csv_writer(self, tmp_path, policy):
        # the writer formats CHUNK_PERIODS rows at a time, so 2*4096 + 3
        # periods cross two chunk boundaries
        for n in (500, 2 * CHUNK_PERIODS + 3):
            arrays = simulate_periods(policy, rp.default_scenario(p_avail=0.7), n, 6)
            path = tmp_path / "trace.csv"
            simulator.write_trace_csv(path, arrays)
            ref = tmp_path / "ref.csv"
            with open(ref, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["period_index", "n_probed", "period_time_s", "bits", "selected_se"])
                for i in range(arrays.bits.size):
                    w.writerow([i, int(arrays.n_probed[i]), repr(float(arrays.period_time[i])),
                                repr(float(arrays.bits[i])), repr(float(arrays.selected_se[i]))])
            assert path.read_bytes() == ref.read_bytes()
