"""End-to-end acceptance checks.

Each test prints one machine-greppable PASS/FAIL line. The checks pin the
analytic layer to closed forms, the Monte Carlo engine to the analytic layer,
and the CLI to deterministic output.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import relayprobe as rp
from relayprobe.channel import sample_two_hop_se_batch
from relayprobe.cli import main
from relayprobe.sedist import EmpiricalSe, build_empirical
from relayprobe.simulator import (CHUNK_PERIODS, MYOPIC, ExplicitThreshold,
                                  FixedBeta, OptimalThreshold, estimate_throughput,
                                  resolve_policy, simulate_periods)
from relayprobe.solver import closed_form_onoff, solve_mu_star
from solver_oracles import bisect_mu_star, ordinary_value

P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))

# verdict lines, one per criterion check; conftest prints them in the
# terminal summary so they survive output capture
VERDICTS = []


def report(num, name, passed):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


class _Gate:
    """Context manager that emits the criterion verdict line."""

    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.num, self.name, exc_type is None)
        return False


def combined_stderr(a, b):
    return math.sqrt(a ** 2 + b ** 2)


# --- criterion 1: closed-form oracle --------------------------------------

def test_criterion_1_closed_form_oracle():
    with _Gate(1, "closed-form oracle grid"):
        n = 10 ** 6
        start = time.perf_counter()
        for p in P_GRID:
            rng = np.random.default_rng([103, int(p * 10)])
            clear = (rng.random(n) < p) & (rng.random(n) < p)
            q = p * p
            sigma_q = math.sqrt(q * (1 - q) / n)
            base = np.sort(clear.astype(float))
            for r_bar in (1.0, 4.0):
                emp = EmpiricalSe(base * r_bar)
                for tau in (0.01, 0.05):
                    cf = closed_form_onoff(p, r_bar, 1.0, 1.0, tau)
                    ana = solve_mu_star(EmpiricalSe([r_bar]).at(p), 1.0, 1.0, tau, p)
                    assert ana.mu_star == pytest.approx(cf.mu_star, rel=1e-9)
                    sol = solve_mu_star(emp, 1.0, 1.0, tau, p)
                    # delta method: mu is a smooth function of the dual-clear
                    # probability, so 3 sigma on q maps to 3*|dmu/dq|*sigma_q
                    dmu_dq = r_bar * tau * (1 + p) / (tau * (1 + p) + q) ** 2
                    band = 3 * dmu_dq * sigma_q + 1e-9 * cf.mu_star
                    assert abs(sol.mu_star - cf.mu_star) <= band
        assert time.perf_counter() - start < 5.0


# --- criterion 2: simulation validates the analytic throughput ------------

def test_criterion_2_simulation_matches_theory():
    with _Gate(2, "simulated throughput matches analytic value"):
        start = time.perf_counter()
        for p in (0.3, 0.5, 0.9):
            for tau in (0.01, 0.05):
                cfg = rp.default_scenario(p_avail=p, tau=tau, bandwidth_W=1.0,
                                          se_cap=2.0, channel_mode="onoff")
                mu = closed_form_onoff(p, 2.0, 1.0, 1.0, tau).mu_star
                est = estimate_throughput(OptimalThreshold(), cfg, 10 ** 5, seed=21)
                assert abs(est.throughput_bps - mu) / mu < 0.01
                assert abs(est.throughput_bps - mu) < 3 * est.stderr_bps
        assert time.perf_counter() - start < 30.0


# --- criterion 3: zero ordinary value at the optimum ----------------------

def test_criterion_3_value_function_vanishes_at_optimum():
    with _Gate(3, "ordinary value is zero at the maximum throughput"):
        rng = np.random.default_rng(30)
        dists = [EmpiricalSe([2.0]).at(0.5), EmpiricalSe([4.0]).at(0.9),
                 EmpiricalSe(rng.random(2 * 10 ** 5) * 2.0)]
        for dist in dists:
            sol = solve_mu_star(dist, 1.0, 1.0, 0.01, 0.5)
            v = ordinary_value(dist, sol.mu_star, 1.0, 1.0, 0.01, 0.5)
            assert abs(v) <= 1e-8 * dist.samples[-1]

        cfg = rp.default_scenario(p_avail=0.5, tau=0.01, bandwidth_W=1.0,
                                  se_cap=2.0, channel_mode="onoff")
        mu = closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01).mu_star
        arr = simulate_periods(OptimalThreshold(), cfg, 10 ** 5, seed=31)
        excess = arr.bits - mu * arr.period_time
        stderr = excess.std(ddof=1) / math.sqrt(excess.size)
        assert abs(excess.mean()) < 3 * stderr


# --- renewal-reward theory ------------------------------------------------

def renewal_reward_terms(cfg, rate, accept):
    """Analytic throughput of "stop at the first dual-clear relay whose rate
    passes `accept`", and its influence values, one per draw of `rate`.

    `rate` holds i.i.d. draws of the rate conditional on both hops clear; the
    blocked atom of mass 1 - p**2 is composed exactly, so this evaluates
    W*T*E[R*1{accept}] / (T*P(accept) + tau*(1 + p)). By the delta method the
    estimate's error is about the mean of the centered influence values.
    """
    W, T = cfg.bandwidth_W, cfg.T_data
    q = cfg.p_avail ** 2
    bits = W * T * q * np.where(accept, rate, 0.0)
    hits = T * q * accept
    denom = hits.mean() + cfg.tau * (1 + cfg.p_avail)
    mu = bits.mean() / denom
    return mu, (bits - mu * hits) / denom


def renewal_reward(cfg, rate, accept):
    """Analytic throughput as in `renewal_reward_terms`, with its delta-method
    stderr."""
    mu, influence = renewal_reward_terms(cfg, rate, accept)
    return mu, influence.std(ddof=1) / math.sqrt(rate.size)


def diff_stderr(a, b):
    """Stderr of the difference of two estimates whose errors are about the
    sums of the paired, independent, zero-mean error terms `a` and `b`."""
    d = a - b
    return math.sqrt((d ** 2).sum() * d.size / (d.size - 1))


# --- criterion 4: threshold sweep peaks at the analytic threshold ---------

THRESHOLD_COMBOS = ((0.01, 0.5), (0.05, 0.5), (0.01, 0.9))


@pytest.fixture(scope="module")
def threshold_sweeps():
    """Throughput over a 21-point threshold grid for three (tau, p) combos.

    Uses the continuous geometric rate law with cap 2.0: the two-point
    on/off law is flat over every threshold in (0, cap], which cannot
    expose the peak structure, so the sweep runs on the continuous law.

    Next to each simulated throughput it holds the renewal-reward value on
    the solved law, and the error terms of both estimates: the simulation's
    one per 4096-period chunk (every threshold reads the same substream in a
    chunk, so the terms pair up across the grid), the law's one per cluster
    of a fixed random partition of its draws.
    """
    out = {}
    for tau, p in THRESHOLD_COMBOS:
        cfg = rp.default_scenario(p_avail=p, tau=tau, se_cap=2.0)
        dist = build_empirical(cfg, 10 ** 6, np.random.default_rng([5, 0]))
        rho_star = solve_mu_star(dist, cfg.bandwidth_W, cfg.T_data,
                                 tau, p).threshold_se
        grid = np.linspace(0.2, 1.0, 21) * cfg.se_cap
        rate = dist.samples
        cluster = np.random.default_rng(40).permutation(rate.size) % 1000
        thr, sim_terms, ana, law_terms = [], [], [], []
        for g in grid:
            a = simulate_periods(ExplicitThreshold(float(g)), cfg, 10 ** 5, seed=9)
            edges = np.arange(0, a.bits.size, CHUNK_PERIODS)
            bits = np.add.reduceat(a.bits, edges)
            time = np.add.reduceat(a.period_time, edges)
            thr.append(bits.sum() / time.sum())
            sim_terms.append((bits - thr[-1] * time) / time.sum())
            mu, influence = renewal_reward_terms(cfg, rate, rate >= g)
            ana.append(mu)
            law_terms.append(np.bincount(cluster, (influence - influence.mean()) / rate.size))
        out[(tau, p)] = tuple(map(np.array, (grid, thr, ana, sim_terms, law_terms))) + (rho_star,)
    return out


def test_criterion_4_threshold_sweep_structure(threshold_sweeps):
    # The simulated peak must be the analytic peak over the grid, or a point
    # tied with it: one whose analytic value lies within 3 stderr of the best,
    # so that neither the simulation nor the solved law can tell the two
    # apart. At (0.05, 0.5) rho* = 0.520 sits 2e-4 from the midpoint of 0.48
    # and 0.56, whose analytic values differ by about 1e-5 of their size.
    # Every grid point reads the same probe stream, so each simulated
    # difference is measured against its paired stderr.
    with _Gate(4, "throughput peaks at the analytic threshold"):
        peak_locations = {}
        for key, (grid, thr, ana, sim, law, rho_star) in threshold_sweeps.items():
            def gap_stderr(i, j):
                return math.hypot(diff_stderr(sim[i], sim[j]),
                                  diff_stderr(law[i], law[j]))

            i_ana = int(np.argmax(ana))
            # the analytic peak is a grid neighbour of the solved rho*
            assert abs(grid[i_ana] - rho_star) < grid[1] - grid[0]
            tied = [i for i in range(grid.size)
                    if ana[i_ana] - ana[i] <= 3 * gap_stderr(i_ana, i)]
            assert int(np.argmax(thr)) in tied
            i_star = int(np.argmin(np.abs(grid - rho_star)))
            for off in (0.75, 1.25):
                j = int(np.argmin(np.abs(grid - off * rho_star)))
                margin = thr[i_star] - thr[j]
                assert margin > 3 * diff_stderr(sim[i_star], sim[j])
                # and the drop is the one theory predicts
                assert abs(margin - (ana[i_star] - ana[j])) <= 3 * gap_stderr(i_star, j)
            peak_locations[key] = grid[int(np.argmax(thr))]
        # higher probing cost lowers the best threshold; more reliable
        # links raise it
        assert peak_locations[(0.05, 0.5)] < peak_locations[(0.01, 0.5)]
        assert peak_locations[(0.01, 0.5)] < peak_locations[(0.01, 0.9)]


# --- criterion 5: strategy ordering over blockage probability -------------

@pytest.fixture(scope="module")
def strategy_table():
    """(throughput, stderr) per strategy over p = 0.1..1.0, tau = 10 ms."""
    policies = {"optimal": OptimalThreshold(), "myopic": MYOPIC,
                "fixed5": FixedBeta(5), "fixed10": FixedBeta(10)}
    table = {}
    for p in P_GRID:
        cfg = rp.default_scenario(p_avail=p, tau=0.01)
        for name, pol in policies.items():
            est = estimate_throughput(pol, cfg, 10 ** 5, seed=13)
            table[(p, name)] = (est.throughput_bps, est.stderr_bps)
    return table


def test_criterion_5_strategy_ordering(strategy_table):
    with _Gate(5, "strategy ordering across blockage regimes"):
        t = strategy_table
        # heavy blockage: stopping early beats committing to many probes
        assert t[(0.1, "myopic")][0] > t[(0.1, "fixed5")][0]
        assert t[(0.1, "myopic")][0] > t[(0.1, "fixed10")][0]
        # reliable links: batch probing overtakes first-available stopping
        assert t[(0.9, "fixed5")][0] > t[(0.9, "myopic")][0]
        assert t[(0.9, "fixed10")][0] > t[(0.9, "myopic")][0]
        for p in P_GRID:
            opt, opt_se = t[(p, "optimal")]
            for name in ("myopic", "fixed5", "fixed10"):
                val, val_se = t[(p, name)]
                assert opt >= val - 3 * combined_stderr(opt_se, val_se)


def test_criterion_5_myopic_near_optimal_at_heavy_blockage(strategy_table):
    # Myopic stopping is a threshold at 0+ on the rate of a dual-clear relay,
    # so it is optimal exactly when rho* = mu*/W lies at or below every rate
    # such a relay can have: always on on/off links, never on the geometric
    # law, whose rates reach down towards 0.
    # (a) On/off links have one rate: myopic and the optimal threshold must
    #     stop identically, period for period.
    # (b) On the geometric law the rate spreads through relay geometry and
    #     shadowing (the p = 0.1 gap is 5.5% at shadow_sigma = 0 and 14% at
    #     7 dB), so myopic trails the optimum; both simulated throughputs must
    #     match their renewal-reward values within 3 combined stderr.
    # (c) The myopic-optimal gap vanishes only as p -> 0: the simulated
    #     relative gap must grow with p, each step by more than 3 stderr.
    with _Gate(5, "myopic-optimal gap matches theory, zero on on/off links"):
        cfg = rp.default_scenario(p_avail=0.1, tau=0.01, channel_mode="onoff")
        opt_arr = simulate_periods(OptimalThreshold(), cfg, 10 ** 5, seed=13)
        myo_arr = simulate_periods(MYOPIC, cfg, 10 ** 5, seed=13)
        for field in dataclasses.fields(opt_arr):
            assert np.array_equal(getattr(opt_arr, field.name),
                                  getattr(myo_arr, field.name))

        cfg = rp.default_scenario(p_avail=0.1, tau=0.01)
        clear_cfg = dataclasses.replace(cfg, p_avail=1.0)
        _, _, rate = sample_two_hop_se_batch(np.random.default_rng(50),
                                             clear_cfg, 10 ** 6)
        rho = resolve_policy(OptimalThreshold(), cfg, 13).rho
        theory = {"optimal": renewal_reward(cfg, rate, rate >= rho),
                  "myopic": renewal_reward(cfg, rate, np.ones(rate.size, bool))}
        for name, (mu, mu_se) in theory.items():
            sim, sim_se = strategy_table[(0.1, name)]
            assert abs(sim - mu) <= 3 * combined_stderr(sim_se, mu_se)

        gaps = []
        for p in P_GRID:
            opt, opt_se = strategy_table[(p, "optimal")]
            myo, myo_se = strategy_table[(p, "myopic")]
            ratio = myo / opt
            gaps.append((1 - ratio,
                         ratio * combined_stderr(opt_se / opt, myo_se / myo)))
        for (g0, se0), (g1, se1) in zip(gaps, gaps[1:]):
            assert g1 - g0 > 3 * combined_stderr(se0, se1)


# --- criterion 6: solver convergence budget -------------------------------

def test_criterion_6_solver_convergence():
    with _Gate(6, "Newton-ratio converges within 30 iterations"):
        rng = np.random.default_rng(60)
        dists = [EmpiricalSe([r]).at(p) for p in P_GRID for r in (1.0, 4.0)]
        dists += [EmpiricalSe(rng.random(10 ** 5) * 2.0),
                  EmpiricalSe(rng.beta(2.0, 5.0, 10 ** 5) * 8.0),
                  EmpiricalSe(np.sort(rng.random(10 ** 5) < 0.25) * 2.0)]
        for dist in dists:
            for tau in (0.01, 0.05):
                sol = solve_mu_star(dist, 1.0, 1.0, tau, 0.5)
                assert sol.method == "newton_ratio"
                assert len(sol.iterates) == sol.iterations <= 30
                bis = bisect_mu_star(dist, 1.0, 1.0, tau, 0.5)
                assert bis.mu_star == pytest.approx(sol.mu_star, rel=1e-9)


# --- criterion 7: best-so-far rule equals last-sample rule ----------------

def test_criterion_7_recall_free_equivalence():
    with _Gate(7, "best-so-far and last-sample rules stop identically"):
        cfg = rp.default_scenario(p_avail=0.5, tau=0.01, se_cap=2.0)
        n_periods = 10 ** 4
        for k, rho in enumerate(np.linspace(0.2, 1.4, 10)):
            rho = float(rho)
            rng = np.random.default_rng([70, k])
            stream = np.empty(0)
            while np.count_nonzero(stream >= rho) < n_periods:
                _, _, se = sample_two_hop_se_batch(rng, cfg, 1 << 19)
                stream = np.concatenate([stream, se])

            # last-sample rule: stop as soon as the current rate qualifies
            stops_last = np.flatnonzero(stream >= rho)[:n_periods]
            sel_last = stream[stops_last]

            # best-so-far rule: track the running maximum, reset per period
            stops_max = np.empty(n_periods, dtype=np.int64)
            sel_max = np.empty(n_periods)
            best = -1.0
            period = 0
            for i, r in enumerate(stream):
                best = r if r > best else best
                if best >= rho:
                    stops_max[period] = i
                    sel_max[period] = best
                    period += 1
                    best = -1.0
                    if period == n_periods:
                        break

            assert np.array_equal(stops_last, stops_max)
            assert np.array_equal(sel_last, sel_max)


# --- criterion 8: distribution functional identities ----------------------

def test_criterion_8_functional_identities():
    with _Gate(8, "tail functional identities hold exactly"):
        rng = np.random.default_rng(80)
        onoff = EmpiricalSe([2.0]).at(0.5)
        emp = EmpiricalSe(rng.random(5000) * 2.0)
        for rho in np.linspace(0.0, 2.5, 100):
            rho = float(rho)
            for dist in (onoff, emp):
                lhs = dist.expected_excess(rho)
                rhs = dist.mean_above(rho) - rho * dist.tail_prob(rho)
                assert lhs == rhs
            atom = 0.25 * max(2.0 - rho, 0.0) if rho > 0 else onoff.mean()
            assert abs(onoff.expected_excess(rho) - atom) <= 1e-12


# --- criterion 9: byte-identical sweeps across worker counts --------------

def test_criterion_9_sweep_determinism(tmp_path):
    with _Gate(9, "sweep CSV is byte-identical across worker counts"):
        import json
        cfg = rp.default_scenario(p_avail=0.5, tau=0.01, bandwidth_W=1.0,
                                  se_cap=2.0, channel_mode="onoff")
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "variable": "p_avail", "grid": [0.3, 0.6, 0.9],
            "strategies": ["optimal", "myopic", "fixed:5"],
            "n_periods": 9000, "seed": 4}))
        runner = CliRunner()
        outputs = []
        for i, workers in enumerate((1, 3, 1)):
            out = tmp_path / f"sweep{i}.csv"
            res = runner.invoke(main, ["sweep", str(cfg_path), str(spec_path),
                                       "--out", str(out),
                                       "--workers", str(workers)])
            assert res.exit_code == 0, res.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
