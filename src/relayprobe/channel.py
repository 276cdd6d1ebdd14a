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


def _hop_log10_snr(cfg: ScenarioConfig, tx_dbm, g_tx, g_rx, d, shadow_db):
    """log10 of one clear hop's linear SNR: (tx + g_tx + g_rx - pathloss
    + shadowing - noise) / 10, in dB, with pathloss a + b*log10(d/1km)."""
    x = cfg.pathloss_a + cfg.pathloss_b * np.log10(d / 1000.0)
    np.subtract(float(tx_dbm) + g_tx + g_rx, x, out=x)
    x += shadow_db
    x -= cfg.noise_psd + 10.0 * math.log10(cfg.bandwidth_W) + cfg.noise_figure
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


def sample_two_hop_se_batch(rng: np.random.Generator, cfg: ScenarioConfig, n: int):
    """Vectorized draw of n i.i.d. probes.

    Returns (chi1, chi2, se) where chi1/chi2 are 0/1 availability indicators
    for the two hops and se is the two-hop spectral efficiency (0 whenever
    either hop is blocked). The draw order is fixed so that a given generator
    state always yields the same probes: chi1 and chi2 for all n relays, then
    for the k dual-clear relays only (a share p_avail**2) the two position
    uniforms, shadow1 and shadow2. A blocked relay's rate is 0 whatever its
    position and shadowing, so those are never drawn for it.
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
    x, y = _disk_points(rng.random(k), rng.random(k), cfg.relay_region)
    d = np.hypot(x - cfg.source_pos[0], y - cfg.source_pos[1])
    e1 = _hop_log10_snr(cfg, cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev,
                        d, rng.normal(0.0, cfg.shadow_sigma, k))
    np.subtract(cfg.dest_pos[0], x, out=x)
    np.subtract(cfg.dest_pos[1], y, out=y)
    np.hypot(x, y, out=d)
    del x, y
    e2 = _hop_log10_snr(cfg, cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev,
                        d, rng.normal(0.0, cfg.shadow_sigma, k))
    del d
    # 10**x is increasing, so the weaker hop is picked before the one power;
    # half-duplex DF: 0.5*log2(1 + 2*SNR), each hop using half the time
    snr = np.power(10.0, np.minimum(e1, e2, out=e1), out=e1)
    se = np.zeros(n)
    se[clear] = np.minimum(0.5 * np.log2(1.0 + 2.0 * snr), cfg.se_cap)
    return chi1, chi2, se
