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
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

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


# the threshold bound splits the relay angle into this many equal bins; a
# power of two, so int(v * ANGLE_BINS) is the exact bin of v in [0, 1)
ANGLE_BINS = 1024


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


def _may_reach(cfg: ScenarioConfig, floor: float, u_radius, u_angle, shadows):
    """Indices of the dual-clear relays whose rate may reach `floor`, from
    their draws alone, or None when the bound would keep them all.

    A relay at r = R*sqrt(u), theta = 2*pi*v lies at distance d from a hop
    endpoint P at distance D and angle phi from the disk centre, with
    d**2 = r**2 + D**2 - 2*r*D*cos(theta - phi). Over v's angle bin the
    cosine is at most cmax, so d**2 >= r**2 + D**2 - 2*r*D*cmax, and with
    b > 0 the hop's SNR in dB is at most K + s - (b/2)*log10(d_low**2/1e6),
    where K = tx + g_tx + g_rx - a - noise. A relay is kept when both hops'
    bounds reach the SNR that the floor needs."""
    if floor > cfg.se_cap:
        return np.empty(0, np.intp)
    # rate >= floor needs 1 + 2*snr >= 2**(2*floor); the 1e-12 factors cover
    # the rounding of 1 + 2*snr, of log2 and of the product by 0.5, so this
    # target lies below the least snr whose computed rate reaches the floor
    # (a floor past 500 is bounded by 500's target, which is lower still)
    snr_min = (2.0 ** (2.0 * min(floor, 500.0) * (1.0 - 1e-12)) * (1.0 - 1e-12) - 1.0) / 2.0
    (cx, cy), radius, b = cfg.relay_region.center, cfg.relay_region.radius, cfg.pathloss_b
    if not snr_min > 0.0 or b <= 0.0 or u_radius.size == 0:
        return None
    target, noise = 10.0 * math.log10(snr_min), _noise_dbm(cfg)
    r = np.sqrt(u_radius)
    r *= radius
    bins = np.multiply(u_angle, ANGLE_BINS).astype(np.intp)
    edges = np.arange(ANGLE_BINS + 1) * (2.0 * np.pi / ANGLE_BINS)
    # the hop with the weaker budget prunes the most, so it sees every relay
    hops = sorted(zip(_hops(cfg), shadows), key=lambda hop: sum(hop[0][1:]))
    keep = None
    for ((px, py), tx, g_tx, g_rx), s in hops:
        # The exact path's positions, theta = 2*pi*v, the cosines here and
        # the sum below each err by under 1e-14*(R + D)*z m**2 in d**2,
        # where z sums the magnitudes of every coordinate; the slack is 100
        # times that.
        z = abs(cx) + abs(cy) + radius + abs(px) + abs(py)
        # Both this bound and the exact link budget err by a few ulps of
        # their largest term: the config's dB terms, the target, |s| and
        # |b*log10(d/1km)| (|log10| < 330 for any positive double). A margin
        # of 1e-9 of their sum is far above both, so a pruned relay's exact
        # rate is below the floor.
        size = (1.0 + abs(target) + abs(tx) + abs(g_tx) + abs(g_rx)
                + abs(cfg.pathloss_a) + abs(noise) + 330.0 * b)
        if not size + z < 1e150:  # d**2 or the margin could overflow
            return None
        if keep is not None:
            if keep.size == 0:
                return keep
            r, bins, s = r[keep], bins[keep], s[keep]
        margin = 1e-9 * (size + max(s.max(), -s.min()))
        dist = math.hypot(px - cx, py - cy)
        phi = math.atan2(py - cy, px - cx) % (2.0 * np.pi)
        cos_edge = np.cos(edges - phi)
        cmax = np.maximum(cos_edge[:-1], cos_edge[1:])
        cmax[min(int(phi / (2.0 * np.pi) * ANGLE_BINS), ANGLE_BINS - 1)] = 1.0
        # keep where s >= (b/2)*log10(d_low**2) + target - margin - K - 3b
        d2 = np.take(2.0 * dist * cmax, bins)
        np.subtract(r, d2, out=d2)
        d2 *= r
        d2 += dist * dist - 1e-12 * (radius + dist) * z
        np.maximum(d2, 0.0, out=d2)
        with np.errstate(divide="ignore"):  # d_low = 0 bounds nothing
            cut = np.log10(d2, out=d2)
        cut *= b / 2.0
        cut += target - margin - (float(tx) + g_tx + g_rx - cfg.pathloss_a - noise) - 3.0 * b
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
    position and shadowing, so those are never drawn for it.

    A caller that needs only the rates that reach `floor` passes it: every
    rate >= floor is exactly the floor-0 rate, and every other rate is below
    the floor, 0 unless the relay was kept. The draws and the generator's
    state after the call do not depend on the floor. A bound from the draws
    alone (`_may_reach`) picks the relays that get the exact link budget.
    """
    chi1 = (rng.random(n) < cfg.p_avail).astype(np.int8)
    chi2 = (rng.random(n) < cfg.p_avail).astype(np.int8)
    both = chi1 & chi2
    if cfg.channel_mode == "onoff":
        return chi1, chi2, np.where(both.astype(bool), cfg.se_cap, 0.0)

    # when every relay is clear the rates need no scatter through an index
    k = np.count_nonzero(both)
    clear = slice(None) if k == n else np.flatnonzero(both)
    del both
    u_radius, u_angle = rng.random(k), rng.random(k)
    shadow1 = rng.normal(0.0, cfg.shadow_sigma, k)
    shadow2 = rng.normal(0.0, cfg.shadow_sigma, k)
    keep = _may_reach(cfg, floor, u_radius, u_angle, (shadow1, shadow2))
    if keep is not None:
        u_radius, u_angle, shadow1, shadow2 = (
            u_radius[keep], u_angle[keep], shadow1[keep], shadow2[keep])
        clear = keep if k == n else clear[keep]
    # each step reuses a buffer, so the peak stays near 50 bytes per relay
    x, y = _disk_points(u_radius, u_angle, cfg.relay_region)
    del u_radius, u_angle
    (src, *hop1), (dst, *hop2) = _hops(cfg)
    d = np.subtract(x, src[0])
    dy = np.subtract(y, src[1])
    e1 = _hop_log10_snr(cfg, *hop1, np.hypot(d, dy, out=d), shadow1)
    del dy, shadow1
    np.subtract(x, dst[0], out=x)
    np.subtract(y, dst[1], out=y)
    e2 = _hop_log10_snr(cfg, *hop2, np.hypot(x, y, out=x), shadow2)
    del y, shadow2
    # 10**x is increasing, so the weaker hop is picked before the one power;
    # half-duplex DF: 0.5*log2(1 + 2*SNR), each hop using half the time
    snr = np.power(10.0, np.minimum(e1, e2, out=e1), out=e1)
    del e2
    se = np.zeros(n)
    se[clear] = np.minimum(0.5 * np.log2(1.0 + 2.0 * snr), cfg.se_cap)
    return chi1, chi2, se
