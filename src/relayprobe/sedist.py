"""The two-hop rate law and its tail functionals.

A probed relay's rate is R = 0 when either hop is blocked (probability
1 - p**2) and otherwise the clear-link rate R_c, whose law depends on
geometry and shadowing but not on p. One type holds that law: sorted
clear-link samples composed exactly with the blockage atom at 0.

The fixed-point solver only ever needs three queries of R:
P(R >= rho), E[R * 1{R >= rho}], and E[(R - rho)+]. Tails are closed
(use >=) so that atoms sitting exactly at a threshold trigger stopping.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from . import channel


class EmpiricalSe:
    """Rate law backed by sorted clear-link samples with precomputed suffix
    sums, so tail queries are O(log n). Every relay is clear until `at`
    adds blockage."""

    def __init__(self, samples):
        self._clear = 1.0
        s = np.sort(np.asarray(samples, dtype=float))
        if s.size < 1:
            raise ValueError("need at least one sample")
        if s[0] < 0:
            raise ValueError("samples must be nonnegative")
        self.samples = s
        # _suffix[i] = sum of samples[i:], accumulated from the largest
        # sample down, straight into place
        self._suffix = np.zeros(s.size + 1)
        np.cumsum(s[::-1], out=self._suffix[-2::-1])
        # laws composed by `at` share both arrays
        s.flags.writeable = self._suffix.flags.writeable = False

    def at(self, p_avail: float) -> "EmpiricalSe":
        """The same clear-link law composed with blockage at p_avail. Shares
        the sorted samples and suffix sums instead of sorting again."""
        if not (0.0 < p_avail <= 1.0):
            raise ValueError("p_avail must be in (0, 1]")
        law = copy.copy(self)
        law._clear = float(p_avail) ** 2  # P(both hops clear)
        return law

    def _first_at_or_above(self, rho: float) -> int:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        return int(np.searchsorted(self.samples, rho, side="left"))

    def tail_prob(self, rho: float) -> float:
        i = self._first_at_or_above(rho)
        if rho == 0.0:
            return 1.0
        return self._clear * ((self.samples.size - i) / self.samples.size)

    def mean_above(self, rho: float) -> float:
        i = self._first_at_or_above(rho)
        return self._clear * (self._suffix[i] / self.samples.size)

    def expected_excess(self, rho: float) -> float:
        return self.mean_above(rho) - rho * self.tail_prob(rho)

    def mean(self) -> float:
        return self.mean_above(0.0)


def build_empirical(cfg, n_samples: int, rng: np.random.Generator) -> EmpiricalSe:
    """The two-hop rate law of a scenario.

    On/off links have the one clear rate se_cap, so their law is exact and
    draws nothing. A geometric scenario's clear-link law is n_samples draws
    at p_avail = 1, so every sample is clear and the law's accuracy does not
    depend on p_avail. They are drawn BLOCK_PROBES at a time, as the engine
    draws its probes.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if cfg.channel_mode == "onoff":
        return EmpiricalSe([cfg.se_cap]).at(cfg.p_avail)
    clear_cfg, block = replace(cfg, p_avail=1.0), channel.BLOCK_PROBES
    se = np.empty(n_samples)
    for lo in range(0, n_samples, block):
        se[lo:lo + block] = channel.sample_two_hop_se_batch(
            rng, clear_cfg, min(block, n_samples - lo))[2]
    return EmpiricalSe(se).at(cfg.p_avail)
