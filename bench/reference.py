"""Renewal-reward references for the benchmark's correctness checks.

Everything here is computed apart from relayprobe's solver and engine. The
only call into the package is the probe sampler, used once per run to draw a
clear-link rate law at p = 1 on a stream the program never uses. A law at any
other p is that sample composed exactly with the blocked atom 1 - p**2, so
the reference's accuracy does not depend on p.

Each reference value comes with two errors:

- ``sim``: the standard deviation of the program's ratio estimator over
  ``n`` periods, from the delta method on the same law (exact, not
  estimated, so a check against it does not inherit the noise of the
  program's 30-batch stderr);
- ``ref``: the reference's own sampling error, the standard error of the
  value over independent sub-samples of the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Seeds the program never uses: it seeds with [seed, chunk] for chunk indices
# below ~10**3, and with [seed, 2**31] for OptimalThreshold's rate law.
REFERENCE_STREAM = (20151, 2 ** 31 + 12345)
REFERENCE_BLOCK = 500_000


@dataclass(frozen=True)
class Expect:
    """A reference value and the errors a check adds around it."""
    value: float
    sim: float    # std of the program's estimate over n periods
    ref: float    # std of the reference value itself

    @property
    def sigma(self) -> float:
        # floor for laws where the estimator is exact, such as on/off links
        # at p = 1: there the program must agree to rounding error
        return max(math.hypot(self.sim, self.ref), 1e-9 * abs(self.value))

    def z(self, observed: float) -> float:
        return (observed - self.value) / self.sigma


class Sample:
    """Sorted rate samples with suffix sums, so tail moments are O(log n)."""

    def __init__(self, values):
        self.s = np.sort(np.asarray(values, dtype=float))
        self.n = self.s.size
        self._suf1 = np.concatenate([np.cumsum(self.s[::-1])[::-1], [0.0]])
        self._suf2 = np.concatenate([np.cumsum((self.s * self.s)[::-1])[::-1], [0.0]])
        self._gaps = None

    def tail(self, rho: float):
        """P(S >= rho), E[S | S >= rho] and E[S**2 | S >= rho]."""
        i = int(np.searchsorted(self.s, rho, side="left"))
        k = self.n - i
        if k == 0:
            raise ValueError(f"threshold {rho} is above the reference law")
        return k / self.n, self._suf1[i] / k, self._suf2[i] / k

    def gap_moments(self, top: int):
        """sum_j d_j * x_j**m and sum_j d2_j * x_j**m for m = 0..top, where
        the j-th gap between sorted samples (from 0) has width d_j, squared
        width d2_j and empirical CDF x_j = j/n. Independent of p, so cached."""
        if self._gaps is None or self._gaps[0].size <= top:
            edges = np.concatenate([[0.0], self.s])
            d = np.diff(edges)
            d2 = np.diff(edges * edges)
            x = np.arange(self.n) / self.n
            xm = np.ones(self.n)
            e1, e2 = np.empty(top + 1), np.empty(top + 1)
            for m in range(top + 1):
                e1[m], e2[m] = d @ xm, d2 @ xm
                xm *= x
            self._gaps = (e1, e2)
        return self._gaps


class ClearLaw:
    """Two-hop rate of a relay whose two hops are both clear, as sorted
    samples, plus independent sub-samples for the reference's own error."""

    def __init__(self, draws, n_splits: int = 16):
        draws = np.asarray(draws, dtype=float)
        self.full = Sample(draws)
        self.splits = ([Sample(b) for b in np.array_split(draws, n_splits)]
                       if n_splits > 1 else [])

    @classmethod
    def point(cls, r_bar: float) -> "ClearLaw":
        """The on/off law: every clear relay runs at exactly r_bar."""
        return cls([r_bar], n_splits=1)

    @classmethod
    def draw(cls, cfg, n: int, sample_batch) -> "ClearLaw":
        """Draw n clear-link rates for `cfg` at p = 1 with `sample_batch`
        (relayprobe.channel.sample_two_hop_se_batch), in bounded blocks."""
        cfg1 = replace(cfg, p_avail=1.0)
        rng = np.random.default_rng(list(REFERENCE_STREAM))
        parts = []
        for start in range(0, n, REFERENCE_BLOCK):
            _, _, se = sample_batch(rng, cfg1, min(REFERENCE_BLOCK, n - start))
            parts.append(se)
        return cls(np.concatenate(parts))

    def expect(self, fn):
        """fn(sample) -> list of (value, sim); returns one Expect per item,
        with the ref error taken over the sub-samples."""
        full = fn(self.full)
        per_split = np.array([[v for v, _ in fn(s)] for s in self.splits])
        out = []
        for i, (value, sim) in enumerate(full):
            ref = (float(per_split[:, i].std(ddof=1) / math.sqrt(len(self.splits)))
                   if self.splits else 0.0)
            out.append(Expect(value, sim, ref))
        return out


@dataclass(frozen=True)
class Link:
    """Timing and availability of one scenario point."""
    p: float
    W: float
    T: float
    tau: float


def _stopping(link: Link, q: float, a1: float, a2: float, n: int):
    """Throughput and estimator std of a per-probe stopping rule.

    The rule accepts a probe with probability q; an accepted probe always has
    both hops clear, and its rate has first and second moments a1, a2.
    Periods are i.i.d., so the estimator sum(bits)/sum(time) over n periods
    has std sqrt(Var(B - mu*L) / n) / E[L] (delta method), where bits B and
    length L of one period are independent: L depends only on the rejected
    probes, B only on the accepted one.
    """
    p, W, T, tau = link.p, link.W, link.T, link.tau
    mean_len = T + tau * (1.0 + p) / q
    mu = W * T * a1 / mean_len
    # rejected probes before the stop: geometric count, each costing tau or
    # 2*tau (first hop clear with probability pi given rejection)
    pi = (p - q) / (1.0 - q) if q < 1.0 else 0.0
    cost_mean = tau * (1.0 + pi)
    cost_var = tau * tau * pi * (1.0 - pi)
    m_mean = (1.0 - q) / q
    m_var = (1.0 - q) / (q * q)
    var_len = m_mean * cost_var + m_var * cost_mean ** 2
    var_bits = (W * T) ** 2 * max(a2 - a1 * a1, 0.0)
    sim = math.sqrt((var_bits + mu * mu * var_len) / n) / mean_len
    return mu, sim


def threshold(law: ClearLaw, link: Link, rho: float, n: int) -> Expect:
    """Stop at the first relay with rate >= rho > 0:
    W*T*E[R 1{R>=rho}] / (T*P(R>=rho) + tau*(1+p))."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")

    def fn(s):
        t, a1, a2 = s.tail(rho)
        return [_stopping(link, link.p ** 2 * t, a1, a2, n)]
    return law.expect(fn)[0]


def myopic(law: ClearLaw, link: Link, n: int) -> Expect:
    """Stop at the first relay with both hops clear:
    W*T*E[R] / (T*p**2 + tau*(1+p))."""
    def fn(s):
        _, a1, a2 = s.tail(0.0)
        return [_stopping(link, link.p ** 2, a1, a2, n)]
    return law.expect(fn)[0]


def mean_probes(law: ClearLaw, link: Link, rho: float, n: int) -> Expect:
    """Mean relays probed per period under threshold rho: 1/(p**2 P(R>=rho | clear))."""
    def fn(s):
        q = link.p ** 2 * s.tail(rho)[0]
        return [(1.0 / q, math.sqrt((1.0 - q) / (q * q) / n))]
    return law.expect(fn)[0]


def fixed(law: ClearLaw, link: Link, betas, n: int) -> list[Expect]:
    """Probe beta relays and use the best: W*T*E[max of beta] / (T + tau*beta*(1+p)),
    for each beta in `betas`.

    Given K ~ Bin(beta, p) first hops clear, the best rate is the max of K
    draws from G = (1-p)*delta_0 + p*F, whose first two moments are integrals
    of 1 - G(x)**K over the sorted samples. Bits and length are correlated
    through K, which the variance sums over exactly.
    """
    p, W, T, tau = link.p, link.W, link.T, link.tau
    top = max(betas)

    def fn(s):
        # int (1 - G**k) dx and int 2x (1 - G**k) dx, with G = (1-p) + p*x_j on
        # the j-th gap of the sorted samples, expanded binomially in x_j
        e1, e2 = s.gap_moments(top)
        m1 = np.zeros(top + 1)
        m2 = np.zeros(top + 1)
        for k in range(1, top + 1):
            w = np.array([math.comb(k, m) * (1.0 - p) ** (k - m) * p ** m
                          for m in range(k + 1)])
            m1[k] = e1[0] - w @ e1[:k + 1]
            m2[k] = e2[0] - w @ e2[:k + 1]
        out = []
        for beta in betas:
            ks = np.arange(beta + 1)
            pk = np.array([math.comb(beta, k) * p ** k * (1.0 - p) ** (beta - k)
                           for k in ks])
            mean_len = T + tau * beta * (1.0 + p)
            mu = W * T * float(pk @ m1[ks]) / mean_len
            c = mu * (T + tau * (beta + ks))
            var_d = float(pk @ ((W * T) ** 2 * m2[ks] - 2.0 * W * T * c * m1[ks] + c * c))
            out.append((mu, math.sqrt(max(var_d, 0.0) / n) / mean_len))
        return out
    return law.expect(fn)


def mu_star(law: ClearLaw, link: Link, n: int) -> Expect:
    """Maximum throughput, by Dinkelbach's iteration from the myopic value
    (any policy's throughput is a lower bound, and the iteration climbs
    monotonically from one). `sim` is the std at the optimal threshold."""
    p, W, T, tau = link.p, link.W, link.T, link.tau

    def fn(s):
        _, a1, _ = s.tail(0.0)
        mu = W * T * a1 * p * p / (T * p * p + tau * (1.0 + p))
        for _ in range(200):
            t, a1, _ = s.tail(mu / W)
            nxt = W * T * p * p * t * a1 / (T * p * p * t + tau * (1.0 + p))
            if abs(nxt - mu) <= 1e-13 * nxt:
                break
            mu = nxt
        t, a1, a2 = s.tail(mu / W)
        return [(mu, _stopping(link, p * p * t, a1, a2, n)[1])]
    return law.expect(fn)[0]
