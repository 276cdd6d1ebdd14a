import json
import math

import numpy as np
import pytest
from scipy import stats

import relayprobe as rp
from relayprobe.channel import (ConfigError, RelayRegion, ScenarioConfig,
                                _disk_points, noise_power_dbm, pathloss_db,
                                sample_two_hop_se_batch, snr_linear, two_hop_se)
from relayprobe.sedist import build_empirical


def sample_relay_positions(rng, cfg, n):
    """n uniform positions on the relay disk, as the probe sampler draws them."""
    return np.column_stack(_disk_points(rng.random(n), rng.random(n), cfg.relay_region))


@pytest.fixture
def cfg():
    return rp.default_scenario()


class TestPathloss:
    def test_one_km_reference(self, cfg):
        assert pathloss_db(1000.0, cfg) == pytest.approx(141.3)

    def test_half_km(self, cfg):
        # 141.3 + 20*log10(0.5)
        assert pathloss_db(500.0, cfg) == pytest.approx(141.3 - 6.0205999, abs=1e-6)

    def test_quarter_km(self, cfg):
        assert pathloss_db(250.0, cfg) == pytest.approx(141.3 - 12.0411998, abs=1e-6)

    def test_nonpositive_distance_rejected(self, cfg):
        with pytest.raises(ValueError):
            pathloss_db(0.0, cfg)
        with pytest.raises(ValueError):
            pathloss_db(-5.0, cfg)


class TestSnr:
    def test_bs_to_device_at_500m(self, cfg):
        # rx = 30 + 20 + 10 - 135.2794 = -75.2794 dBm
        # noise = -174 + 10log10(5e8) + 7 = -80.0103 dBm
        rx = 30 + 30 - (141.3 + 20 * math.log10(0.5))
        noise = -174 + 10 * math.log10(500e6) + 7
        expected = 10 ** ((rx - noise) / 10)
        got = snr_linear(30.0, 20.0, 10.0, 500.0, 0.0, cfg)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.971, rel=1e-3)

    def test_shadowing_shifts_rx_power(self, cfg):
        base = snr_linear(30.0, 20.0, 10.0, 500.0, 0.0, cfg)
        shadowed = snr_linear(30.0, 20.0, 10.0, 500.0, 7.0, cfg)
        assert 10 * math.log10(shadowed / base) == pytest.approx(7.0, abs=1e-9)

    def test_noise_power(self, cfg):
        assert noise_power_dbm(cfg) == pytest.approx(-80.0103, abs=1e-4)


class TestTwoHopSe:
    def test_symmetric_links(self, cfg):
        # 0.5 * log2(1 + 2*2.971)
        assert two_hop_se(2.971, 2.971, cfg) == pytest.approx(1.398, abs=1e-3)

    def test_zero_snr_hop_zeroes_rate(self, cfg):
        assert two_hop_se(0.0, 123.0, cfg) == 0.0

    def test_cap_binds(self, cfg):
        assert two_hop_se(1e9, 1e9, cfg) == cfg.se_cap

    def test_negative_snr_rejected(self, cfg):
        with pytest.raises(ValueError):
            two_hop_se(-0.1, 1.0, cfg)

    @pytest.mark.parametrize("a,b", [(0.1, 0.2), (1.0, 5.0), (3.0, 0.0)])
    def test_symmetry(self, cfg, a, b):
        assert two_hop_se(a, b, cfg) == two_hop_se(b, a, cfg)

    def test_monotone_in_each_argument(self, cfg):
        grid = np.linspace(0.0, 20.0, 25)
        for other in (0.5, 5.0):
            vals = [two_hop_se(s, other, cfg) for s in grid]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


class TestRelaySampling:
    def test_degenerate_randomness(self):
        # every hop clear and no shadowing: each rate follows from its relay
        # position alone, and the positions follow the 2n blockage uniforms
        cfg = rp.default_scenario(p_avail=1.0, shadow_sigma=0.0)
        n = 1000
        chi1, chi2, se = sample_two_hop_se_batch(np.random.default_rng(0), cfg, n)
        assert np.all(chi1 == 1) and np.all(chi2 == 1)
        rng = np.random.default_rng(0)
        rng.random(2 * n)
        pos = sample_relay_positions(rng, cfg, n)
        d1 = np.hypot(*(pos - cfg.source_pos).T)
        d2 = np.hypot(*(np.asarray(cfg.dest_pos) - pos).T)
        s1 = snr_linear(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev,
                        d1, 0.0, cfg)
        s2 = snr_linear(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev,
                        d2, 0.0, cfg)
        assert np.all(se > 0)
        assert np.array_equal(se, two_hop_se(s1, s2, cfg))

    @pytest.mark.parametrize("n", [0, 1, 7, 16385])
    @pytest.mark.parametrize("cfg", [
        rp.default_scenario(p_avail=0.1),
        rp.default_scenario(p_avail=0.5),
        rp.default_scenario(p_avail=1.0),
        rp.default_scenario(p_avail=0.5, channel_mode="onoff"),
    ], ids=["p0.1", "p0.5", "p1", "onoff"])
    def test_kernel_equals_full_array_link_budget(self, cfg, n):
        # the kernel draws position and shadowing for dual-clear relays only
        # and runs the link budget on them alone; a twin generator redraws
        # the same variates, in the same order, gives each blocked relay a
        # stand-in position and no shadowing, and runs the link budget on
        # every relay, so a blocked one gets rate 0 from its blocked hop
        got = sample_two_hop_se_batch(np.random.default_rng([n, 5]), cfg, n)
        rng = np.random.default_rng([n, 5])
        chi1 = (rng.random(n) < cfg.p_avail).astype(np.int8)
        chi2 = (rng.random(n) < cfg.p_avail).astype(np.int8)
        if cfg.channel_mode == "onoff":
            se = np.where((chi1 & chi2) == 1, cfg.se_cap, 0.0)
        else:
            clear = np.flatnonzero(chi1 & chi2)
            pos = np.tile(cfg.relay_region.center, (n, 1))
            pos[clear] = sample_relay_positions(rng, cfg, clear.size)
            shadow1, shadow2 = np.zeros(n), np.zeros(n)
            shadow1[clear] = rng.normal(0.0, cfg.shadow_sigma, clear.size)
            shadow2[clear] = rng.normal(0.0, cfg.shadow_sigma, clear.size)
            d1 = np.hypot(*(pos - cfg.source_pos).T)
            d2 = np.hypot(*(np.asarray(cfg.dest_pos) - pos).T)
            s1 = snr_linear(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev,
                            d1, shadow1, cfg) * chi1
            s2 = snr_linear(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev,
                            d2, shadow2, cfg) * chi2
            se = two_hop_se(s1, s2, cfg)
        for a, b in zip(got, (chi1, chi2, se)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_draw_order_keeps_the_law(self, p):
        # blockage is drawn for every relay first and geometry for the
        # dual-clear relays only; the law must still be the model's: two
        # independent hops, each clear w.p. p, and a dual-clear relay's rate
        # distributed as the p = 1 clear-link law drawn on another stream
        cfg = rp.default_scenario(p_avail=p)
        n = 10 ** 6
        chi1, chi2, se = sample_two_hop_se_batch(np.random.default_rng([6, int(10 * p)]),
                                                 cfg, n)
        both = (chi1 & chi2).astype(bool)
        q = p * p
        assert abs(both.mean() - q) < 4 * math.sqrt(q * (1 - q) / n)
        for chi in (chi1, chi2):
            assert abs(chi.mean() - p) < 4 * math.sqrt(p * (1 - p) / n)
        # the sample covariance of two independent Bernoulli(p) indicators
        # has standard deviation p(1 - p)/sqrt(n)
        cov = (chi1 & chi2).mean() - chi1.mean() * chi2.mean()
        assert abs(cov) < 4 * p * (1 - p) / math.sqrt(n)
        law = build_empirical(cfg, 10 ** 5, np.random.default_rng(7))
        assert stats.ks_2samp(se[both], law.samples).pvalue > 1e-3

    def test_first_hop_blockage_fraction(self):
        cfg = rp.default_scenario(p_avail=0.5)
        rng = np.random.default_rng(1)
        n = 10 ** 6
        chi1, _, _ = sample_two_hop_se_batch(rng, cfg, n)
        frac = chi1.mean()
        stderr = math.sqrt(0.25 / n)
        assert abs(frac - 0.5) < 3 * stderr

    def test_blocked_first_hop_zeroes_rate(self):
        # the rate is positive exactly when both hops are clear, which is
        # what lets myopic stopping be the threshold at the smallest
        # positive rate
        configs = [rp.default_scenario(p_avail=p) for p in (0.1, 0.5, 0.9)]
        configs += [rp.default_scenario(p_avail=0.5, shadow_sigma=0.0),
                    rp.default_scenario(p_avail=0.5, channel_mode="onoff")]
        for cfg in configs:
            chi1, chi2, se = sample_two_hop_se_batch(np.random.default_rng(3), cfg, 10 ** 5)
            assert np.array_equal(se > 0.0, (chi1 & chi2).astype(bool))

    def test_mean_squared_distance_from_center(self):
        cfg = rp.default_scenario()
        rng = np.random.default_rng(2)
        pos = sample_relay_positions(rng, cfg, 10 ** 5)
        r2 = (pos ** 2).sum(axis=1)
        # uniform disk: E[r^2] = R^2/2, Var[r^2] = R^4/12
        R = cfg.relay_region.radius
        stderr = math.sqrt(R ** 4 / 12 / pos.shape[0])
        assert abs(r2.mean() - R ** 2 / 2) < 3 * stderr

    def test_radius_cdf_is_quadratic(self):
        cfg = rp.default_scenario()
        rng = np.random.default_rng(4)
        pos = sample_relay_positions(rng, cfg, 20000)
        r = np.hypot(pos[:, 0], pos[:, 1]) / cfg.relay_region.radius
        assert stats.kstest(r, lambda x: x ** 2).pvalue > 0.01


class TestScenarioConfig:
    def test_json_round_trip(self, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert ScenarioConfig.from_json(path) == cfg

    def test_unknown_keys_rejected(self, cfg, tmp_path):
        d = cfg.to_dict()
        d["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="mystery"):
            ScenarioConfig.from_json(path)

    def test_finite_relay_pool_rejected(self, cfg):
        d = cfg.to_dict()
        d["relay_pool_size"] = 3
        with pytest.raises(ConfigError, match="relay_pool_size"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("key,value,match", [
        ("source_pos", 5, "source_pos"),
        ("dest_pos", [250.0], "dest_pos"),
        ("source_pos", [-250.0, "a"], "source_pos"),
        ("source_pos", [True, 0.0], "source_pos"),
        ("relay_region", {"center": 0.0, "radius": 250.0}, "center"),
        ("relay_region", {"center": [0.0, None], "radius": 250.0}, "center"),
        ("relay_region", {"center": [0.0, 0.0], "radius": "abc"}, "radius"),
        ("relay_region", {"center": [0.0, 0.0], "radius": [250.0]}, "radius"),
        ("relay_region", {"center": [0.0, 0.0], "radius": float("nan")}, "radius"),
        ("tx_power_bs", "abc", "tx_power_bs"),
        ("tau", float("inf"), "tau"),
    ])
    def test_malformed_values_rejected(self, cfg, key, value, match):
        d = cfg.to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(d)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(path)

    @pytest.mark.parametrize("field,value", [
        ("p_avail", 0.0), ("p_avail", 1.5), ("tau", 0.0), ("T_data", -1.0),
        ("bandwidth_W", 0.0), ("se_cap", 0.0), ("channel_mode", "nonsense"),
    ])
    def test_invariant_violations(self, cfg, field, value):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(cfg, **{field: value})

    def test_identical_endpoints_rejected(self, cfg):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(cfg, dest_pos=cfg.source_pos)

    def test_zero_radius_rejected(self, cfg):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(cfg, relay_region=RelayRegion((0.0, 0.0), 0.0))
