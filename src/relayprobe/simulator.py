"""Monte Carlo simulation of the periodic probe-then-transmit protocol.

Each period repeatedly probes fresh i.i.d. relays: the source-relay hop
costs tau, and only if it is available is the relay-destination hop probed
(another tau). The policy decides when to stop; transmission then lasts
T_data. Throughput is the renewal-reward ratio sum(bits)/sum(time).

Replication is deterministic for any worker count: periods are processed in
fixed-size chunks, each chunk drawing from its own substream seeded by
(seed, chunk_index), and workers, the calling process among them, always
own whole chunks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from . import sedist as _sedist
from . import solver as _solver
from .channel import BLOCK_PROBES, ConfigError, ScenarioConfig, check_number

CHUNK_PERIODS = 4096
# a period that probes more relays than this ends in RunawayPeriodError
MAX_PROBES = 10 ** 6
# periods in one simulation: PeriodArrays holds 32 bytes per period, about
# 0.6 GB at this bound with the concatenation copy
MAX_PERIODS = 10 ** 7
# batch-means error bars split the periods into this many batches
N_BATCHES = 30


def __getattr__(name):
    # the pool class loads multiprocessing and concurrent.futures.process,
    # which only a multi-worker row needs: it is imported on first access and
    # kept as a module global, which callers may rebind
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RunawayPeriodError(RuntimeError):
    """A period failed to stop within MAX_PROBES relay probes."""


# -- policies --------------------------------------------------------------

@dataclass(frozen=True)
class OptimalThreshold:
    """Stop at the first relay whose rate reaches the solver's mu*/W, solved
    by `optimal_solution` on `sedist.rate_law`."""


@dataclass(frozen=True)
class ExplicitThreshold:
    """Stop at the first relay whose rate reaches rho."""
    rho: float

    def __post_init__(self):
        if check_number(self.rho, "rho") < 0:
            raise ValueError("rho must be finite and nonnegative")


# A relay's rate is positive exactly when both hops are clear, so "stop at
# the first dual-clear relay" is the threshold at the smallest positive rate.
# A dual-clear relay whose SNR is below about -163 dB rounds to rate 0.0
# (1 + 2*SNR == 1) and is passed over like a blocked one; if every relay is
# that weak, the period ends in RunawayPeriodError.
MYOPIC = ExplicitThreshold(math.ulp(0.0))


@dataclass(frozen=True)
class FixedBeta:
    """Probe exactly beta relays and transmit with the best one."""
    beta: int

    def __post_init__(self):
        # a numpy integer is stored as int, so block sizes cannot overflow it
        object.__setattr__(self, "beta", check_number(self.beta, "beta", integer=True))
        if not 1 <= self.beta <= MAX_PROBES:
            raise ValueError(f"beta must be in [1, {MAX_PROBES}]")


StoppingPolicy = OptimalThreshold | ExplicitThreshold | FixedBeta


def optimal_solution(cfg: ScenarioConfig, seed: int = 0) -> _solver.StoppingSolution:
    """Solve the fixed point on the config's rate law, `sedist.rate_law`."""
    return _solver.solve_mu_star(_sedist.rate_law(cfg, seed), cfg.bandwidth_W,
                                 cfg.T_data, cfg.tau, cfg.p_avail)


def resolve_policy(policy: StoppingPolicy, cfg: ScenarioConfig,
                   seed: int = 0) -> StoppingPolicy:
    """Replace OptimalThreshold with the explicit threshold for `cfg`."""
    if not isinstance(policy, OptimalThreshold):
        return policy
    return ExplicitThreshold(optimal_solution(cfg, seed).threshold_se)


# -- vectorized replication ------------------------------------------------

@dataclass(frozen=True)
class PeriodArrays:
    """Per-period outcomes for a batch of independent periods."""
    n_probed: np.ndarray
    period_time: np.ndarray
    bits: np.ndarray
    selected_se: np.ndarray


def _simulate_chunk(policy, cfg, seed, chunk_index, n_periods):
    """Simulate n_periods periods from substream (seed, chunk_index).

    Probes are i.i.d., so one flat probe stream serves all periods back to
    back: period i ends at the i-th stop. A threshold stops at each accepted
    probe, FixedBeta at every beta-th probe (its blocks hold whole periods).
    Each block is reduced as it is drawn, so memory is O(block + n_periods)
    however many probes a period takes; returns (n_probed, n_first, rate)."""
    rng = np.random.default_rng([seed, chunk_index])
    beta = policy.beta if isinstance(policy, FixedBeta) else None
    stop_idx = np.empty(n_periods, dtype=np.int64)
    first_at_stop = np.empty(n_periods, dtype=np.int64)
    rate = np.empty(n_periods)
    n_done = n_drawn = first_drawn = 0
    while n_done < n_periods:
        # the open period holds every probe drawn after the last stop
        last_stop = stop_idx[n_done - 1] if n_done else -1
        if n_drawn - 1 - last_stop > MAX_PROBES:
            raise RunawayPeriodError(
                f"no stop within {MAX_PROBES} probes; threshold above support?")
        left = n_periods - n_done
        size = beta * min(max(1, BLOCK_PROBES // beta), left) if beta else BLOCK_PROBES
        chi1, _, se = _channel.sample_two_hop_se_batch(
            rng, cfg, size, 0.0 if beta else policy.rho)
        if beta:
            stops = np.arange(beta - 1, size, beta)
            best = np.maximum.reduceat(se, stops - (beta - 1))
        else:
            stops = np.flatnonzero(se >= policy.rho)[:left]
            best = se[stops]
        cum_first = np.cumsum(chi1, dtype=np.int64)
        done = n_done + stops.size
        stop_idx[n_done:done] = n_drawn + stops
        first_at_stop[n_done:done] = first_drawn + cum_first[stops]
        rate[n_done:done] = best
        n_done = done
        n_drawn += size
        first_drawn += int(cum_first[-1])

    n_probed = np.diff(stop_idx, prepend=-1)
    if n_probed.max() > MAX_PROBES:
        raise RunawayPeriodError(
            f"no stop within {MAX_PROBES} probes; threshold above support?")
    return n_probed, np.diff(first_at_stop, prepend=0), rate


def simulate_periods(policy: StoppingPolicy, cfg: ScenarioConfig, n_periods: int,
                     seed: int, workers: int = 1) -> PeriodArrays:
    """Simulate n_periods independent periods, bit-identical for any workers.
    A period lasts tau per probe and per clear first hop, plus T_data."""
    if not 1 <= check_number(n_periods, "n_periods", integer=True) <= MAX_PERIODS:
        raise ConfigError(f"n_periods must be in [1, {MAX_PERIODS}]")
    if check_number(seed, "seed", integer=True) < 0:
        raise ConfigError("seed must be >= 0")
    if check_number(workers, "workers", integer=True) < 1:
        raise ConfigError("workers must be >= 1")
    policy = resolve_policy(policy, cfg, seed)
    n_chunks = (n_periods + CHUNK_PERIODS - 1) // CHUNK_PERIODS
    args = [(policy, cfg, seed, i, min(CHUNK_PERIODS, n_periods - i * CHUNK_PERIODS))
            for i in range(n_chunks)]
    if workers > 1 and n_chunks > 1:
        # the caller is one of the w workers: it runs chunks 0, w, 2w, ...
        # while w - 1 forked helpers run the rest
        w = min(workers, n_chunks)
        # a forked helper would otherwise pay numpy's first-Generator setup
        np.random.default_rng(0)
        # read as a module attribute, so a rebound class is the one started
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        import multiprocessing
        # helpers are forked, not started by Python 3.14's POSIX default
        # forkserver: a forked helper has numpy imported and sees every
        # module constant as the caller set it, MAX_PROBES included
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods() else None)
        pool = pool_class(max_workers=w - 1, mp_context=context)
        try:
            helped = {i: pool.submit(_simulate_chunk, *a)
                      for i, a in enumerate(args) if i % w}
            own = {i: _simulate_chunk(*a) for i, a in enumerate(args) if i % w == 0}
            chunks = [helped[i].result() if i % w else own[i] for i in range(n_chunks)]
        finally:
            # on a raise, helpers drop their pending chunks and exit
            pool.shutdown(cancel_futures=True)
    else:
        chunks = [_simulate_chunk(*a) for a in args]
    n_probed, n_first, rate = (np.concatenate(c) for c in zip(*chunks))
    return PeriodArrays(n_probed, cfg.tau * (n_probed + n_first) + cfg.T_data,
                        cfg.bandwidth_W * cfg.T_data * rate, rate)


# -- throughput estimation -------------------------------------------------

@dataclass(frozen=True)
class ThroughputEstimate:
    throughput_bps: float
    stderr_bps: float
    n_periods: int


def batch_means_stderr(bits: np.ndarray, time: np.ndarray) -> float:
    """Standard error of the ratio estimator from batch-means ratios."""
    if bits.size < N_BATCHES:
        raise ValueError(f"need at least {N_BATCHES} periods")
    ratios = np.array([b.sum() / t.sum() for b, t in
                       zip(np.array_split(bits, N_BATCHES),
                           np.array_split(time, N_BATCHES))])
    return float(ratios.std(ddof=1) / np.sqrt(N_BATCHES))


def estimate_throughput(policy: StoppingPolicy, cfg: ScenarioConfig,
                        n_periods: int, seed: int, workers: int = 1,
                        trace_path=None) -> ThroughputEstimate:
    """Renewal-reward throughput estimate over n_periods periods."""
    if check_number(n_periods, "n_periods", integer=True) < N_BATCHES:
        raise ValueError(f"n_periods must be >= {N_BATCHES}")
    arrays = simulate_periods(policy, cfg, n_periods, seed, workers)
    if trace_path is not None:
        write_trace_csv(trace_path, arrays)
    return ThroughputEstimate(
        throughput_bps=float(arrays.bits.sum() / arrays.period_time.sum()),
        stderr_bps=batch_means_stderr(arrays.bits, arrays.period_time),
        n_periods=n_periods,
    )


def write_trace_csv(path, arrays: PeriodArrays) -> None:
    """One row per period, floats written as repr, in csv's \\r\\n dialect.
    Rows are formatted CHUNK_PERIODS at a time, so memory stays bounded."""
    with open(path, "w", newline="") as f:
        f.write("period_index,n_probed,period_time_s,bits,selected_se\r\n")
        for lo in range(0, arrays.bits.size, CHUNK_PERIODS):
            part = slice(lo, lo + CHUNK_PERIODS)
            columns = (arrays.n_probed[part].tolist(), arrays.period_time[part].tolist(),
                       arrays.bits[part].tolist(), arrays.selected_se[part].tolist())
            f.writelines(f"{i},{n},{t!r},{b!r},{r!r}\r\n"
                         for i, (n, t, b, r) in enumerate(zip(*columns), lo))
