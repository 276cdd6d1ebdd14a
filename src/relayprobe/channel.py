"""Scenario configuration and the probe sampler.

`sample_two_hop_se_batch` owns the mmWave link budget: Bernoulli blockage
on each hop, pathloss a + b*log10(d/1km), log-normal shadowing, SNR over
the thermal noise, and the half-duplex decode-and-forward spectral
efficiency of the weaker hop, capped at se_cap.

The sampler takes an explicit ``numpy.random.Generator`` and is pure given
that stream, so it is safe to use from parallel workers as long as each
worker owns its own generator.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, asdict

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid or malformed scenario configurations."""


@dataclass(frozen=True)
class RelayRegion:
    """Disk in which candidate relays are uniformly distributed."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        # configs stay hashable, so the simulator can key a memo on them
        object.__setattr__(self, "center", _point(self.center, "relay_region center"))
        object.__setattr__(self, "radius", float(check_number(self.radius, "relay_region radius")))
        if self.radius <= 0:
            raise ConfigError("relay_region radius must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of geometry, radio, timing, and blockage.

    Distances are in meters, powers in dBm, gains in dB, bandwidth in Hz,
    noise PSD in dBm/Hz, times in seconds, spectral efficiency in bit/s/Hz.
    ``pathloss_a``/``pathloss_b`` parameterize a + b*log10(d_km).
    """

    source_pos: tuple[float, float]
    dest_pos: tuple[float, float]
    relay_region: RelayRegion
    tx_power_bs: float
    tx_power_dev: float
    bf_gain_bs: float
    bf_gain_dev: float
    bandwidth_W: float
    noise_psd: float
    noise_figure: float
    pathloss_a: float
    pathloss_b: float
    shadow_sigma: float
    p_avail: float
    tau: float
    T_data: float
    se_cap: float = 8.0
    # "onoff" replaces the geometric rate model with a two-point law:
    # each hop is available w.p. p_avail and an available two-hop link runs
    # at exactly se_cap. Used for closed-form validation.
    channel_mode: str = "geometric"

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if name in ("source_pos", "dest_pos"):
                object.__setattr__(self, name, _point(getattr(self, name), name))
            elif name not in ("relay_region", "channel_mode"):
                check_number(getattr(self, name), name)
        if not isinstance(self.relay_region, RelayRegion):
            raise ConfigError(f"relay_region must be a RelayRegion, got {self.relay_region!r}")
        if not (0.0 < self.p_avail <= 1.0):
            raise ConfigError(f"p_avail must be in (0, 1], got {self.p_avail}")
        if self.tau <= 0 or self.T_data <= 0:
            raise ConfigError("tau and T_data must be positive")
        if self.bandwidth_W <= 0:
            raise ConfigError("bandwidth_W must be positive")
        if self.se_cap <= 0:
            raise ConfigError("se_cap must be positive")
        if self.shadow_sigma < 0:
            raise ConfigError("shadow_sigma must be nonnegative")
        if self.source_pos == self.dest_pos:
            raise ConfigError("source_pos and dest_pos must differ")
        if self.channel_mode not in ("geometric", "onoff"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path) -> None:
        write_object(path, self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        region = d.get("relay_region")
        if not isinstance(region, dict) or set(region) != {"center", "radius"}:
            raise ConfigError("relay_region must be {'center': [x, y], 'radius': r}")
        d["relay_region"] = RelayRegion(**region)
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        return cls.from_dict(load_object(path, "config"))


def check_number(value, name: str, integer: bool = False):
    """The one rule for an outside number (configs, sweep specs, stop rules):
    an int or float (np.float64 is one), or with `integer` any integer type,
    returned as int; never a bool; in float range, exact for ints."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        kind = "a finite integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else value


def load_object(path, what: str) -> dict:
    """The one JSON reader for input files: the object in `path`."""
    with open(path) as f:
        try:
            d = json.load(f)
        except ValueError as exc:  # bad JSON or bytes that are not text
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"{what} JSON must be an object")
    return d


def write_object(path, d: dict) -> None:
    """The one JSON writer for output files: `d`, indented, newline-ended."""
    with open(path, "w") as f:
        f.write(json.dumps(d, indent=2) + "\n")


def _point(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be two numbers [x, y], got {value!r}")
    return tuple(check_number(v, name) for v in value)


def default_scenario(p_avail: float = 0.5, tau: float = 0.01, **overrides) -> ScenarioConfig:
    """Pico-BS source at (-250, 0) m, device destination at (250, 0) m,
    relays uniform in the 250 m disk at the origin, 500 MHz at 28 GHz.
    """
    base = dict(
        source_pos=(-250.0, 0.0),
        dest_pos=(250.0, 0.0),
        relay_region=RelayRegion((0.0, 0.0), 250.0),
        tx_power_bs=30.0,
        tx_power_dev=23.0,
        bf_gain_bs=20.0,
        bf_gain_dev=10.0,
        bandwidth_W=500e6,
        noise_psd=-174.0,
        noise_figure=7.0,
        pathloss_a=141.3,
        pathloss_b=20.0,
        shadow_sigma=7.0,
        p_avail=p_avail,
        tau=tau,
        T_data=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# the threshold bound splits the relay angle into this many equal bins and
# the radius into this many bins equal in u, where r = R*sqrt(u); powers of
# two, so int(v * ANGLE_BINS) and int(u * RADIUS_BINS) are the exact bins
ANGLE_BINS = 1024
RADIUS_BINS = 32
# relays per sampler call: the engine draws its probe stream in blocks of this
# many (rounded down to whole periods for a fixed count) and the rate-law
# build draws its law in blocks of this many, so the sampler's arrays stay in
# cache and do not grow with the draw
BLOCK_PROBES = 1 << 14


def _hops(cfg: ScenarioConfig):
    """(endpoint, tx power, tx gain, rx gain) of the source-relay hop and of
    the relay-destination hop."""
    return ((cfg.source_pos, cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev),
            (cfg.dest_pos, cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev))


def _noise_dbm(cfg: ScenarioConfig) -> float:
    return cfg.noise_psd + 10.0 * math.log10(cfg.bandwidth_W) + cfg.noise_figure


def _hop_log10_snr(cfg: ScenarioConfig, tx_dbm, g_tx, g_rx, d, shadow_db):
    """log10 of one clear hop's linear SNR: (tx + g_tx + g_rx - pathloss
    + shadowing - noise) / 10, in dB, with pathloss a + b*log10(d/1km).
    Computed in place in d, which it returns."""
    x = np.log10(np.divide(d, 1000.0, out=d), out=d)
    x *= cfg.pathloss_b
    x += cfg.pathloss_a
    np.subtract(float(tx_dbm) + g_tx + g_rx, x, out=x)
    x += shadow_db
    x -= _noise_dbm(cfg)
    x /= 10.0
    return x


def _disk_points(u_radius, u_angle, region: RelayRegion):
    """Map two uniforms per relay to a uniform point on the relay disk by
    inverse-CDF radius sampling. Overwrites both inputs; returns (x, y)."""
    r = np.sqrt(u_radius, out=u_radius)
    r *= region.radius
    u_angle *= 2.0 * np.pi
    x = np.cos(u_angle)
    x *= r
    x += region.center[0]
    y = np.sin(u_angle, out=u_angle)
    y *= r
    y += region.center[1]
    return x, y


@functools.lru_cache(maxsize=1)
def _bound_plan(region: RelayRegion, hops, noise: float, a: float, b: float):
    """Per hop, the weaker budget first (it prunes the most): (shadow index,
    table, K + 3b, size), or None when d**2 or the margin could overflow.
    Keyed on geometry and radio fields only, so a p_avail or tau sweep
    builds it once.

    A relay at r = R*sqrt(u), theta = 2*pi*v has d**2 = r**2 + D**2 -
    2*r*D*cos(theta - phi) to an endpoint at distance D and angle phi from
    the disk centre. Over a cell the cosine is at most cmax (its angle bin)
    and r lies in [r_lo, r_hi] (its radius bin), so d**2 is at least the
    quadratic's value at r = clip(D*cmax, r_lo, r_hi). The table holds
    (b/2)*log10 of that, and with b > 0 the hop's SNR in dB is at most
    K + s - table - 3b, where K = tx + g_tx + g_rx - a - noise."""
    (cx, cy), radius = region.center, region.radius
    # the exact path's r = R*sqrt(u) rounds monotonically in u, so it lies
    # between the same products at the bin's edges
    r_edges = radius * np.sqrt(np.arange(RADIUS_BINS + 1) / RADIUS_BINS)
    r_lo, r_hi = r_edges[:-1, None], r_edges[1:, None]
    edges = np.arange(ANGLE_BINS + 1) * (2.0 * np.pi / ANGLE_BINS)
    plan = []
    for i in sorted(range(2), key=lambda i: sum(hops[i][1:])):
        (px, py), tx, g_tx, g_rx = hops[i]
        # The exact path's positions, theta = 2*pi*v, the cosines here and
        # the sums below each err by under 1e-14*(R + D)*z m**2 in d**2,
        # where z sums the magnitudes of every coordinate; the slack is 100
        # times that.
        z = abs(cx) + abs(cy) + radius + abs(px) + abs(py)
        # Both this bound and the exact link budget err by a few ulps of
        # their largest term: the config's dB terms, the target, |s| and
        # |b*log10(d/1km)| (|log10| < 330 for any positive double). A margin
        # of 1e-9 of their sum is far above both, so a pruned relay's exact
        # rate is below the floor. Any target is below 1e4 dB, too small to
        # move this guard.
        size = (1.0 + abs(tx) + abs(g_tx) + abs(g_rx) + abs(a) + abs(noise)
                + 330.0 * b)
        if not size + z < 1e150:
            return None
        dist = math.hypot(px - cx, py - cy)
        phi = math.atan2(py - cy, px - cx) % (2.0 * np.pi)
        cos_edge = np.cos(edges - phi)
        cmax = np.maximum(cos_edge[:-1], cos_edge[1:])
        cmax[min(int(phi / (2.0 * np.pi) * ANGLE_BINS), ANGLE_BINS - 1)] = 1.0
        r = np.clip(dist * cmax, r_lo, r_hi)
        d2 = r * (r - 2.0 * dist * cmax)
        d2 += dist * dist - 1e-12 * (radius + dist) * z
        np.maximum(d2, 0.0, out=d2)
        with np.errstate(divide="ignore"):  # d_low = 0 bounds nothing
            table = np.log10(d2, out=d2).ravel()
        table *= b / 2.0
        table.flags.writeable = False  # every caller shares the memoized plan
        plan.append((i, table, float(tx) + g_tx + g_rx - a - noise + 3.0 * b, size))
    return tuple(plan)


def _may_reach(cfg: ScenarioConfig, floor: float, u_radius, u_angle, shadows):
    """Indices of the dual-clear relays whose rate may reach `floor`, or None
    when no bound applies and every relay is kept. From the draws alone: a
    relay is kept when both hops' bounds (`_bound_plan`) reach the SNR that
    the floor needs, at one table cell, one take and one compare per hop."""
    # rate >= floor needs 1 + 2*snr >= 2**(2*floor); the 1e-12 factors cover
    # the rounding of 1 + 2*snr, of log2 and of the product by 0.5, so this
    # target lies below the least snr whose computed rate reaches the floor
    # (a floor past 500 is bounded by 500's target, which is lower still)
    snr_min = (2.0 ** (2.0 * min(floor, 500.0) * (1.0 - 1e-12)) * (1.0 - 1e-12) - 1.0) / 2.0
    b = cfg.pathloss_b
    if not snr_min > 0.0 or b <= 0.0:
        return None
    plan = _bound_plan(cfg.relay_region, _hops(cfg), _noise_dbm(cfg), cfg.pathloss_a, b)
    if plan is None:
        return None
    target = 10.0 * math.log10(snr_min)
    cell = np.multiply(u_radius, RADIUS_BINS).astype(np.intp)
    cell *= ANGLE_BINS
    cell += np.multiply(u_angle, ANGLE_BINS).astype(np.intp)
    keep = None
    for i, table, offset, size in plan:
        s = shadows[i]
        if keep is not None:
            if keep.size == 0:
                return keep
            cell, s = cell[keep], s[keep]
        # max|s|, or 0 for a draw with no dual-clear relay
        margin = 1e-9 * (size + abs(target) + max(s.max(initial=0.0), -s.min(initial=0.0)))
        # keep where s >= table + target - margin - K - 3b
        cut = np.take(table, cell)
        cut += target - margin - offset
        hit = np.flatnonzero(s >= cut)
        keep = hit if keep is None else keep[hit]
    return keep


def sample_two_hop_se_batch(rng: np.random.Generator, cfg: ScenarioConfig, n: int,
                            floor: float = 0.0):
    """Vectorized draw of n i.i.d. probes.

    Returns (chi1, chi2, se) where chi1/chi2 are 0/1 availability indicators
    for the two hops and se is the two-hop spectral efficiency (0 whenever
    either hop is blocked). The draw order is fixed so that a given generator
    state always yields the same probes: chi1 and chi2 for all n relays, then
    for the k dual-clear relays only (a share p_avail**2) the two position
    uniforms, shadow1 and shadow2. A blocked relay's rate is 0 whatever its
    position and shadowing, so those are never drawn for it. The engine and
    the rate-law build draw BLOCK_PROBES relays a call (a FixedBeta period
    of more relays is one call), so the arrays here stay small.

    A caller that needs only the rates that reach `floor` passes it: every
    rate >= floor is exactly the floor-0 rate, and every other rate is below
    the floor, 0 unless the relay was kept. The draws and the generator's
    state after the call do not depend on the floor. A bound from the draws
    alone (`_may_reach`) picks the relays that get the exact link budget.
    """
    clear1 = rng.random(n) < cfg.p_avail
    clear2 = rng.random(n) < cfg.p_avail
    both = clear1 & clear2
    # the indicators are int8 views of the comparisons, not copies
    chi1, chi2 = clear1.view(np.int8), clear2.view(np.int8)
    if cfg.channel_mode == "onoff":
        return chi1, chi2, np.where(both, cfg.se_cap, 0.0)

    k = np.count_nonzero(both)
    u_radius, u_angle = rng.random(k), rng.random(k)
    shadow1 = rng.normal(0.0, cfg.shadow_sigma, k)
    shadow2 = rng.normal(0.0, cfg.shadow_sigma, k)
    keep = _may_reach(cfg, floor, u_radius, u_angle, (shadow1, shadow2))
    u, v, s1, s2 = u_radius, u_angle, shadow1, shadow2
    if keep is not None:
        # copies of the kept relays' draws; the full draws stay bound until
        # the return, as freeing them here let each engine block re-fault
        # the top of the heap (about 5x the minor faults)
        u, v, s1, s2 = u[keep], v[keep], s1[keep], s2[keep]
    # a blocked or pruned relay reads 0
    se = np.zeros(n)
    (src, *hop1), (dst, *hop2) = _hops(cfg)
    x, y = _disk_points(u, v, cfg.relay_region)
    dy = np.subtract(y, src[1])
    d = np.hypot(np.subtract(x, src[0], out=u), dy, out=u)
    del dy
    e1 = _hop_log10_snr(cfg, *hop1, d, s1)
    np.subtract(x, dst[0], out=x)
    np.subtract(y, dst[1], out=y)
    e2 = _hop_log10_snr(cfg, *hop2, np.hypot(x, y, out=x), s2)
    # 10**x is increasing, so the weaker hop is picked before the one power;
    # half-duplex DF: 0.5*log2(1 + 2*SNR), each hop using half the time
    rate = np.power(10.0, np.minimum(e1, e2, out=e1), out=e1)
    rate *= 2.0
    rate += 1.0
    np.log2(rate, out=rate)
    rate *= 0.5
    np.minimum(rate, cfg.se_cap, out=rate)
    se[both if keep is None else np.flatnonzero(both)[keep]] = rate
    return chi1, chi2, se
