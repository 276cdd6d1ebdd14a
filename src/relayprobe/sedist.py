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
import functools
import math
from dataclasses import replace

import numpy as np

from . import channel

# clear-link draws in the rate law an OptimalThreshold policy is solved on
LAW_SAMPLES = 10 ** 6


class EmpiricalSe:
    """Rate law backed by sorted clear-link samples and their suffix sums at
    every s-th sample, s = ceil(sqrt(n)), so a law holds 8 bytes per sample
    and a tail query is O(log n + sqrt(n)). Every relay is clear until `at`
    adds blockage.

    The law takes ownership of a writable float64 array that owns its data:
    it is sorted in place and becomes the law's read-only `samples`. Any
    other input, such as a list, a view or another law's samples, is copied."""

    def __init__(self, samples):
        self._clear = 1.0
        s = np.require(samples, float, "WO")
        s.sort()
        if s.size < 1:
            raise ValueError("need at least one sample")
        if s[0] < 0 or not np.isfinite(s[-1]):  # a NaN sorts last, after inf
            raise ValueError("samples must be finite and nonnegative")
        self.samples = s
        # _anchors[j] = sum of samples[j*stride:], built one stride at a time
        # from the largest sample down; the last anchor is the empty sum
        self._stride = stride = math.isqrt(s.size - 1) + 1
        self._anchors = np.zeros(-(-s.size // stride) + 1)
        for j in range(self._anchors.size - 2, -1, -1):
            self._anchors[j] = _sum_down(self._anchors[j + 1], s[j * stride:(j + 1) * stride])
        # laws composed by `at` share both arrays
        s.flags.writeable = self._anchors.flags.writeable = False

    def at(self, p_avail: float) -> "EmpiricalSe":
        """The same clear-link law composed with blockage at p_avail. Shares
        the sorted samples and anchors instead of sorting again."""
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
        j = -(-i // self._stride)  # the anchor at or above i
        total = _sum_down(self._anchors[j], self.samples[i:j * self._stride])
        return self._clear * (total / self.samples.size)

    def expected_excess(self, rho: float) -> float:
        return self.mean_above(rho) - rho * self.tail_prob(rho)

    def mean(self) -> float:
        return self.mean_above(0.0)


def _sum_down(start: float, block) -> float:
    """start + block[-1] + block[-2] + ... + block[0], added in that order,
    as a cumsum over the reversed samples adds them, so a sum finished from
    an anchor has the bits of the full reversed cumsum."""
    return float(np.cumsum(np.concatenate(([start], block[::-1])))[-1])


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


def rate_law(cfg, seed: int) -> EmpiricalSe:
    """The rate law an OptimalThreshold policy is solved on: LAW_SAMPLES
    clear-link draws (`build_empirical`) on its own stream [seed, 2**31],
    composed at cfg.p_avail. The clear-link law reads neither p_avail nor
    the timing, so the last one built is kept for every p_avail and tau."""
    clear_cfg = replace(cfg, p_avail=1.0, tau=1.0, T_data=1.0)
    return _clear_law(clear_cfg, seed, LAW_SAMPLES).at(cfg.p_avail)


@functools.lru_cache(maxsize=1)
def _clear_law(clear_cfg, seed: int, n_samples: int) -> EmpiricalSe:
    # looked up at each call, so a wrapper set on `sedist.build_empirical` sees every build
    return build_empirical(clear_cfg, n_samples, np.random.default_rng([seed, 2 ** 31]))
