"""mmWave link-budget primitives: pathloss, shadowing, Bernoulli blockage,
SNR, and two-hop decode-and-forward spectral efficiency.

All stochastic functions take an explicit ``numpy.random.Generator`` and are
pure given that stream, so they are safe to use from parallel workers as long
as each worker owns its own generator.
"""

from __future__ import annotations

import json
import math
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
        object.__setattr__(self, "center", tuple(self.center))


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
        for name in ("source_pos", "dest_pos"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        if self.relay_region.radius <= 0:
            raise ConfigError("relay_region radius must be positive")
        if self.channel_mode not in ("geometric", "onoff"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["source_pos"] = list(self.source_pos)
        d["dest_pos"] = list(self.dest_pos)
        d["relay_region"] = {
            "center": list(self.relay_region.center),
            "radius": self.relay_region.radius,
        }
        return d

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
        d["relay_region"] = RelayRegion(_point(region["center"], "relay_region center"),
                                        float(_number(region["radius"], "relay_region radius")))
        for key in sorted(set(d) - {"relay_region", "channel_mode"}):
            d[key] = (_point if key in ("source_pos", "dest_pos") else _number)(d[key], key)
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)


def _number(value, name: str):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _point(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be two numbers [x, y], got {value!r}")
    return tuple(_number(v, name) for v in value)


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


def pathloss_db(distance, cfg: ScenarioConfig):
    """Distance-dependent pathloss a + b*log10(d/1km) in dB. Accepts arrays."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    out = cfg.pathloss_a + cfg.pathloss_b * np.log10(d / 1000.0)
    return float(out) if np.isscalar(distance) else out


def noise_power_dbm(cfg: ScenarioConfig) -> float:
    """Thermal noise power over the channel bandwidth plus noise figure."""
    return cfg.noise_psd + 10.0 * math.log10(cfg.bandwidth_W) + cfg.noise_figure


def snr_linear(tx_dbm, g_tx, g_rx, distance, shadow_db, cfg: ScenarioConfig):
    """Linear SNR of one clear hop, from the received power (dBm)
    tx + g_tx + g_rx - pathloss + shadowing over the noise power."""
    # computed in place in the fresh pathloss array, one full-size buffer
    snr = np.asarray(pathloss_db(distance, cfg))
    np.subtract(np.asarray(tx_dbm, dtype=float) + g_tx + g_rx, snr, out=snr)
    snr += shadow_db
    snr -= noise_power_dbm(cfg)
    snr /= 10.0
    np.power(10.0, snr, out=snr)
    return float(snr) if snr.ndim == 0 else snr


def two_hop_se(snr1, snr2, cfg: ScenarioConfig):
    """Half-duplex DF spectral efficiency of a two-hop link, capped at se_cap.

    min over the two hops of 0.5*log2(1 + 2*SNR): the factor 2 accounts for
    each hop using only half the time, and the 1/2 for the rate halving.
    """
    s1 = np.asarray(snr1, dtype=float)
    s2 = np.asarray(snr2, dtype=float)
    if np.any(s1 < 0) or np.any(s2 < 0):
        raise ValueError("SNR must be nonnegative")
    se = 0.5 * np.log2(1.0 + 2.0 * np.minimum(s1, s2))
    se = np.minimum(se, cfg.se_cap)
    return float(se) if np.ndim(se) == 0 else se


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
    s1 = snr_linear(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev,
                    d, rng.normal(0.0, cfg.shadow_sigma, k), cfg)
    np.subtract(cfg.dest_pos[0], x, out=x)
    np.subtract(cfg.dest_pos[1], y, out=y)
    np.hypot(x, y, out=d)
    del x, y
    s2 = snr_linear(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev,
                    d, rng.normal(0.0, cfg.shadow_sigma, k), cfg)
    del d
    se = np.zeros(n)
    se[clear] = two_hop_se(s1, s2, cfg)
    return chi1, chi2, se
