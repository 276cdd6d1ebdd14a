"""Distributions of two-hop spectral efficiency and their tail functionals.

The fixed-point solver only ever needs three queries of the rate law R:
P(R >= rho), E[R * 1{R >= rho}], and E[(R - rho)+]. Tails are closed
(use >=) so that atoms sitting exactly at a threshold trigger stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OnOffSe:
    """Two-point rate law: R = r_bar w.p. p_avail**2, else 0."""

    p_avail: float
    r_bar: float

    def __post_init__(self):
        if not (0.0 < self.p_avail <= 1.0):
            raise ValueError("p_avail must be in (0, 1]")
        if self.r_bar <= 0:
            raise ValueError("r_bar must be positive")

    @property
    def atom_prob(self) -> float:
        return self.p_avail ** 2

    @property
    def support_max(self) -> float:
        return self.r_bar

    def tail_prob(self, rho: float) -> float:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if rho == 0.0:
            return 1.0
        return self.atom_prob if rho <= self.r_bar else 0.0

    def mean_above(self, rho: float) -> float:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        return self.atom_prob * self.r_bar if rho <= self.r_bar else 0.0

    def expected_excess(self, rho: float) -> float:
        return self.mean_above(rho) - rho * self.tail_prob(rho)

    def mean(self) -> float:
        return self.atom_prob * self.r_bar


class EmpiricalSe:
    """Empirical rate law backed by sorted samples with precomputed suffix
    sums, so tail queries are O(log n)."""

    def __init__(self, samples, r_bar: float | None = None):
        s = np.sort(np.asarray(samples, dtype=float))
        if s.size < 1:
            raise ValueError("need at least one sample")
        if s[0] < 0:
            raise ValueError("samples must be nonnegative")
        self.samples = s
        self.r_bar = float(r_bar) if r_bar is not None else float(s[-1])
        if s[-1] > self.r_bar:
            raise ValueError("samples exceed r_bar")
        # suffix_sums[i] = sum of samples[i:]
        self._suffix = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])

    @property
    def support_max(self) -> float:
        return self.r_bar

    def _first_at_or_above(self, rho: float) -> int:
        return int(np.searchsorted(self.samples, rho, side="left"))

    def tail_prob(self, rho: float) -> float:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        i = self._first_at_or_above(rho)
        return (self.samples.size - i) / self.samples.size

    def mean_above(self, rho: float) -> float:
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        i = self._first_at_or_above(rho)
        return self._suffix[i] / self.samples.size

    def expected_excess(self, rho: float) -> float:
        i = self._first_at_or_above(rho)
        n = self.samples.size
        return self._suffix[i] / n - rho * ((n - i) / n)

    def mean(self) -> float:
        return self._suffix[0] / self.samples.size


SeDistribution = OnOffSe | EmpiricalSe


def build_empirical(cfg, n_samples: int = 10 ** 6,
                    rng: np.random.Generator | None = None) -> EmpiricalSe:
    """Monte Carlo realization of the two-hop rate law for a scenario."""
    from . import channel

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    _, _, se = channel.sample_two_hop_se_batch(rng, cfg, n_samples)
    return EmpiricalSe(se, r_bar=cfg.se_cap)
