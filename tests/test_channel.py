import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import relayprobe as rp
from relayprobe import channel, cli, sedist
from relayprobe.channel import (BLOCK_PROBES, ConfigError, RelayRegion,
                                ScenarioConfig, _disk_points, _hop_log10_snr,
                                sample_two_hop_se_batch)
from relayprobe.sedist import build_empirical


def sample_relay_positions(rng, cfg, n):
    """n uniform positions on the relay disk, as the probe sampler draws them."""
    return np.column_stack(_disk_points(rng.random(n), rng.random(n), cfg.relay_region))


# -- reference link budget, hop by hop, from the README formulas -------------

def ref_pathloss_db(d, cfg):
    """a + b*log10(d / 1 km)."""
    return cfg.pathloss_a + cfg.pathloss_b * np.log10(d / 1000.0)


def ref_noise_dbm(cfg):
    """Thermal noise over the bandwidth plus the noise figure."""
    return cfg.noise_psd + 10.0 * math.log10(cfg.bandwidth_W) + cfg.noise_figure


def ref_snr(tx, g_tx, g_rx, d, shadow, cfg):
    """One hop's linear SNR, taken to the power on its own."""
    return 10.0 ** ((tx + g_tx + g_rx - ref_pathloss_db(d, cfg) + shadow
                     - ref_noise_dbm(cfg)) / 10.0)


def ref_two_hop_se(s1, s2, cfg):
    """Half-duplex DF rate of the weaker hop, 0.5*log2(1 + 2*SNR), capped."""
    return np.minimum(0.5 * np.log2(1.0 + 2.0 * np.minimum(s1, s2)), cfg.se_cap)


def hop_db(cfg, tx, g_tx, g_rx, d, shadow):
    """One hop's SNR in dB through the sampler's own link budget."""
    return 10.0 * _hop_log10_snr(cfg, tx, g_tx, g_rx, np.array([d]), shadow)[0]


def sampler_pathloss_db(d, cfg):
    # a hop sent at the noise power with no gain or shadowing reads -pathloss
    return -hop_db(cfg, ref_noise_dbm(cfg), 0.0, 0.0, d, 0.0)


def full_array_reference(cfg, n, rng):
    """(chi1, chi2, se) of `sample_two_hop_se_batch(rng, cfg, n)` on full
    arrays, leaving `rng` in the sampler's end state. The sampler draws
    position and shadowing for dual-clear relays only and runs the link
    budget on them alone; this twin redraws the same variates, in the same
    order, gives each blocked relay a stand-in position and no shadowing,
    and runs the reference link budget, a power per hop, on every relay, so
    a blocked one gets rate 0 from its blocked hop."""
    chi1 = (rng.random(n) < cfg.p_avail).astype(np.int8)
    chi2 = (rng.random(n) < cfg.p_avail).astype(np.int8)
    if cfg.channel_mode == "onoff":
        return chi1, chi2, np.where((chi1 & chi2) == 1, cfg.se_cap, 0.0)
    clear = np.flatnonzero(chi1 & chi2)
    pos = np.tile(cfg.relay_region.center, (n, 1))
    pos[clear] = sample_relay_positions(rng, cfg, clear.size)
    shadow1, shadow2 = np.zeros(n), np.zeros(n)
    shadow1[clear] = rng.normal(0.0, cfg.shadow_sigma, clear.size)
    shadow2[clear] = rng.normal(0.0, cfg.shadow_sigma, clear.size)
    d1 = np.hypot(*(pos - cfg.source_pos).T)
    d2 = np.hypot(*(np.asarray(cfg.dest_pos) - pos).T)
    s1 = ref_snr(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev, d1, shadow1, cfg) * chi1
    s2 = ref_snr(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev, d2, shadow2, cfg) * chi2
    return chi1, chi2, ref_two_hop_se(s1, s2, cfg)


def assert_equals_full_array_reference(cfg, n):
    """The sampler's draw of n relays, and its generator's end state, equal
    the full-array reference on a twin generator."""
    rng, twin = np.random.default_rng([n, 5]), np.random.default_rng([n, 5])
    got = sample_two_hop_se_batch(rng, cfg, n)
    for a, b in zip(got, full_array_reference(cfg, n, twin)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert rng.bit_generator.state == twin.bit_generator.state


# draws of more dual-clear relays than a caller's block holds: every relay
# clear (3 blocks and 5 relays), and about half blocked
LARGE_N = [(rp.default_scenario(p_avail=1.0), 3 * BLOCK_PROBES + 5),
           (rp.default_scenario(p_avail=0.5), 5 * BLOCK_PROBES)]


@pytest.fixture
def cfg():
    return rp.default_scenario()


PATHLOSSES = (ref_pathloss_db, sampler_pathloss_db)


class TestPathloss:
    def test_one_km_reference(self, cfg):
        for pathloss in PATHLOSSES:
            assert pathloss(1000.0, cfg) == pytest.approx(141.3)

    def test_half_km(self, cfg):
        # 141.3 + 20*log10(0.5)
        for pathloss in PATHLOSSES:
            assert pathloss(500.0, cfg) == pytest.approx(141.3 - 6.0205999, abs=1e-6)

    def test_quarter_km(self, cfg):
        for pathloss in PATHLOSSES:
            assert pathloss(250.0, cfg) == pytest.approx(141.3 - 12.0411998, abs=1e-6)


class TestSnr:
    def test_bs_to_device_at_500m(self, cfg):
        # rx = 30 + 20 + 10 - 135.2794 = -75.2794 dBm
        # noise = -174 + 10log10(5e8) + 7 = -80.0103 dBm
        rx = 30 + 30 - (141.3 + 20 * math.log10(0.5))
        noise = -174 + 10 * math.log10(500e6) + 7
        expected = 10 ** ((rx - noise) / 10)
        for got in (ref_snr(30.0, 20.0, 10.0, 500.0, 0.0, cfg),
                    10 ** (hop_db(cfg, 30.0, 20.0, 10.0, 500.0, 0.0) / 10)):
            assert got == pytest.approx(expected, rel=1e-12)
            assert got == pytest.approx(2.971, rel=1e-3)

    def test_shadowing_shifts_rx_power(self, cfg):
        base = ref_snr(30.0, 20.0, 10.0, 500.0, 0.0, cfg)
        shadowed = ref_snr(30.0, 20.0, 10.0, 500.0, 7.0, cfg)
        assert 10 * math.log10(shadowed / base) == pytest.approx(7.0, abs=1e-9)
        shift = (hop_db(cfg, 30.0, 20.0, 10.0, 500.0, 7.0)
                 - hop_db(cfg, 30.0, 20.0, 10.0, 500.0, 0.0))
        assert shift == pytest.approx(7.0, abs=1e-9)

    def test_noise_power(self, cfg):
        # at 1 km the pathloss is exactly a, so a silent hop reads -a - noise
        for noise in (ref_noise_dbm(cfg),
                      -hop_db(cfg, 0.0, 0.0, 0.0, 1000.0, 0.0) - cfg.pathloss_a):
            assert noise == pytest.approx(-80.0103, abs=1e-4)


class TestTwoHopSe:
    def test_symmetric_links(self, cfg):
        # 0.5 * log2(1 + 2*2.971)
        assert ref_two_hop_se(2.971, 2.971, cfg) == pytest.approx(1.398, abs=1e-3)

    def test_zero_snr_hop_zeroes_rate(self, cfg):
        assert ref_two_hop_se(0.0, 123.0, cfg) == 0.0
        # a relay-destination hop at -1000 dBm has SNR 1e-100: 1 + 2*SNR
        # rounds to 1, so the sampler gives every clear relay rate 0
        weak = rp.default_scenario(p_avail=1.0, tx_power_dev=-1000.0)
        _, _, se = sample_two_hop_se_batch(np.random.default_rng(0), weak, 1000)
        assert np.all(se == 0.0)

    def test_cap_binds(self, cfg):
        assert ref_two_hop_se(1e9, 1e9, cfg) == cfg.se_cap
        # without shadowing no clear relay in the disk falls below 0.08
        capped = rp.default_scenario(p_avail=1.0, shadow_sigma=0.0, se_cap=0.01)
        _, _, se = sample_two_hop_se_batch(np.random.default_rng(0), capped, 1000)
        assert np.all(se == 0.01)

    @pytest.mark.parametrize("a,b", [(0.1, 0.2), (1.0, 5.0), (3.0, 0.0)])
    def test_symmetry(self, cfg, a, b):
        assert ref_two_hop_se(a, b, cfg) == ref_two_hop_se(b, a, cfg)

    def test_monotone_in_each_argument(self, cfg):
        grid = np.linspace(0.0, 20.0, 25)
        for other in (0.5, 5.0):
            vals = [ref_two_hop_se(s, other, cfg) for s in grid]
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
        s1 = ref_snr(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev, d1, 0.0, cfg)
        s2 = ref_snr(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev, d2, 0.0, cfg)
        assert np.all(se > 0)
        # the sampler takes the weaker hop before its one power; the
        # reference takes a power per hop, then the minimum
        assert np.array_equal(se, ref_two_hop_se(s1, s2, cfg))

    @pytest.mark.parametrize("n", [0, 1, 7, 16385])
    @pytest.mark.parametrize("cfg", [
        rp.default_scenario(p_avail=0.1),
        rp.default_scenario(p_avail=0.5),
        rp.default_scenario(p_avail=1.0),
        rp.default_scenario(p_avail=0.5, channel_mode="onoff"),
    ], ids=["p0.1", "p0.5", "p1", "onoff"])
    def test_kernel_equals_full_array_link_budget(self, cfg, n):
        assert_equals_full_array_reference(cfg, n)

    @pytest.mark.parametrize("cfg, n", LARGE_N, ids=["p1", "p0.5"])
    def test_kernel_equals_full_array_link_budget_at_large_n(self, cfg, n):
        # a call larger than any engine block still draws and prices every
        # dual-clear relay as the full-array reference does
        assert n * cfg.p_avail ** 2 > 1.2 * BLOCK_PROBES
        assert_equals_full_array_reference(cfg, n)

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

    def test_angle_is_uniform_about_the_centre(self):
        region = RelayRegion((20.0, 40.0), 250.0)
        n, bins = 10 ** 5, 16
        rng = np.random.default_rng(9)
        x, y = _disk_points(rng.random(n), rng.random(n), region)
        theta = np.arctan2(y - region.center[1], x - region.center[0]) % (2 * np.pi)
        counts = np.bincount((theta * (bins / (2 * np.pi))).astype(int) % bins,
                             minlength=bins)
        assert np.all(np.abs(counts - n / bins) < 6 * math.sqrt(n / bins)), counts

    def test_hop_shadowings_are_independent_with_sigma(self, hop_calls):
        cfg = rp.default_scenario(p_avail=1.0)
        n, sigma = 10 ** 5, cfg.shadow_sigma
        sample_two_hop_se_batch(np.random.default_rng(10), cfg, n)
        shadows = [np.broadcast_to(s, n) for _, _, s in hop_calls]
        assert len(shadows) == 2
        # the sample sd of n normals has standard error sigma/sqrt(2n)
        for s in shadows:
            assert abs(s.std() - sigma) < 5 * sigma / math.sqrt(2 * n)
        assert abs(np.corrcoef(*shadows)[0, 1]) < 5 / math.sqrt(n)

    def test_each_hop_measures_from_its_own_endpoint(self, hop_calls):
        # both endpoints outside the disk, off one axis, so a swap shows:
        # the source is 150 m and the destination 70 m from the disk's edge
        cfg = rp.default_scenario(p_avail=1.0, source_pos=(-400.0, 0.0),
                                  dest_pos=(0.0, 320.0))
        sample_two_hop_se_batch(np.random.default_rng(11), cfg, 10 ** 5)
        d = {tx: d for tx, d, _ in hop_calls}
        assert len(hop_calls) == 2 and set(d) == {cfg.tx_power_bs, cfg.tx_power_dev}
        assert d[cfg.tx_power_bs].min() >= 150.0
        assert d[cfg.tx_power_dev].min() >= 70.0


@pytest.fixture
def hop_calls(monkeypatch):
    """(tx power, distances, shadowing) of each `_hop_log10_snr` call."""
    calls = []
    hop = channel._hop_log10_snr

    def recorded(cfg, tx_dbm, g_tx, g_rx, d, shadow_db):
        # the budget overwrites d, so it is copied first
        calls.append((tx_dbm, d.copy(), np.copy(shadow_db)))
        return hop(cfg, tx_dbm, g_tx, g_rx, d, shadow_db)

    monkeypatch.setattr(channel, "_hop_log10_snr", recorded)
    return calls


@st.composite
def floor_cases(draw):
    """A geometric config the CLI accepts, with endpoints inside or outside
    the relay disk, 0-20 dB shadowing, a se_cap that may bind and any
    pathloss slope, b <= 0 included; then a stream seed and a block size."""
    radius = draw(st.sampled_from([1.0, 50.0, 250.0, 1000.0]))
    center = draw(st.tuples(st.floats(-300, 300), st.floats(-300, 300)))

    def endpoint():
        angle = draw(st.floats(0.0, 2 * math.pi))
        # inside the disk below 1, outside above; 0 is the centre itself
        rel = draw(st.sampled_from([0.0, 0.3, 0.99, 1.01, 3.0]))
        return (center[0] + rel * radius * math.cos(angle),
                center[1] + rel * radius * math.sin(angle))

    src, dst = endpoint(), endpoint()
    if src == dst:
        dst = (dst[0] + radius, dst[1])
    cfg = rp.default_scenario(
        p_avail=draw(st.sampled_from([1.0, 0.9, 0.3])), source_pos=src, dest_pos=dst,
        relay_region=RelayRegion(center, radius),
        shadow_sigma=draw(st.sampled_from([0.0, 0.5, 7.0, 20.0])),
        se_cap=draw(st.sampled_from([0.5, 2.0, 8.0])),
        pathloss_b=draw(st.sampled_from([20.0, 35.0, 2.0, 0.0, -5.0])),
        tx_power_dev=draw(st.floats(-20.0, 40.0)))
    return cfg, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(0, 3000))


def assert_floor_contract(cfg, seed, n, floors):
    """Each floor leaves the indicators, the generator's state and every
    rate >= floor as a floor-0 call on the same stream does; every other
    rate is below the floor, and is 0 or its exact floor-0 rate."""
    rng = np.random.default_rng(seed)
    chi1, chi2, se0 = sample_two_hop_se_batch(rng, cfg, n)
    state = rng.bit_generator.state
    for floor in floors:
        rng = np.random.default_rng(seed)
        got = sample_two_hop_se_batch(rng, cfg, n, floor)
        assert np.array_equal(got[0], chi1) and np.array_equal(got[1], chi2)
        assert rng.bit_generator.state == state
        reached = se0 >= floor
        assert np.array_equal(got[2][reached], se0[reached]), floor
        assert np.all(got[2][~reached] < floor), floor
        assert np.all((got[2] == 0.0) | (got[2] == se0)), floor


class TestRateFloor:
    """`sample_two_hop_se_batch(..., floor)` runs the exact link budget only
    on relays whose bound can reach the floor; it must leave the draws, the
    generator and every rate >= floor exactly as a floor-0 call does."""

    @given(case=floor_cases())
    @settings(max_examples=150, deadline=None)
    def test_floor_contract(self, case):
        cfg, seed, n = case
        se0 = sample_two_hop_se_batch(np.random.default_rng(seed), cfg, n)[2]
        drawn = se0[se0 > 0.0]
        floors = [0.0, math.ulp(0.0), cfg.se_cap, math.nextafter(cfg.se_cap, math.inf)]
        if drawn.size:
            floors += [float(np.quantile(drawn, 0.99)), float(drawn.min()),
                       float(drawn.max()), float(drawn[drawn.size // 2]),
                       math.nextafter(float(drawn.min()), 0.0)]
        assert_floor_contract(cfg, seed, n, floors)

    @pytest.mark.parametrize("cfg, n", LARGE_N, ids=["p1", "p0.5"])
    def test_floor_contract_at_large_n(self, cfg, n):
        # at p = 1 with a floor a pruned relay must read 0, not a draw left
        # over from the in-place link budget
        se0 = sample_two_hop_se_batch(np.random.default_rng(11), cfg, n)[2]
        drawn = np.sort(se0[se0 > 0.0])
        assert drawn.size > 1.2 * BLOCK_PROBES
        assert_floor_contract(cfg, 11, n, [
            0.0, math.ulp(0.0), float(drawn[drawn.size // 2]),
            float(np.quantile(drawn, 0.99)), math.nextafter(cfg.se_cap, math.inf)])

    def test_draw_with_no_clear_relay_under_a_floor(self):
        # the bound sees empty draws, whose max|s| it takes as 0
        cfg = rp.default_scenario(p_avail=0.1)
        chi1, chi2, _ = sample_two_hop_se_batch(np.random.default_rng(0), cfg, 1)
        assert not np.any(chi1 & chi2)
        _, _, se = sample_two_hop_se_batch(np.random.default_rng(0), cfg, 1, 1.0)
        assert se.tolist() == [0.0]

    @pytest.mark.parametrize("j", [3, 700])
    def test_relay_at_an_endpoint_is_kept(self, j):
        # a relay in the angle bin that holds the destination's direction
        # can sit on it, so that bin bounds the distance below by 0, not by
        # its edges; the weak relay-destination hop makes that bound decide
        bins = channel.ANGLE_BINS
        phi = 2 * math.pi * (j + 0.5) / bins
        cfg = rp.default_scenario(p_avail=1.0, shadow_sigma=0.0, tx_power_dev=-40.0,
                                  dest_pos=(250.0 * math.cos(phi), 250.0 * math.sin(phi)))
        u, v = np.array([1.0 - 2.0 ** -53]), np.array([(j + 0.5) / bins])
        pos = np.column_stack(_disk_points(u.copy(), v.copy(), cfg.relay_region))
        d1 = np.hypot(*(pos - cfg.source_pos).T)
        d2 = np.hypot(*(pos - cfg.dest_pos).T)
        s1 = ref_snr(cfg.tx_power_bs, cfg.bf_gain_bs, cfg.bf_gain_dev, d1, 0.0, cfg)
        s2 = ref_snr(cfg.tx_power_dev, cfg.bf_gain_dev, cfg.bf_gain_dev, d2, 0.0, cfg)
        rate = ref_two_hop_se(s1, s2, cfg)
        assert rate[0] > 1.0
        keep = channel._may_reach(cfg, 1.0, u, v, (np.zeros(1), np.zeros(1)))
        assert keep.tolist() == [0]

    @given(case=floor_cases())
    @settings(max_examples=100, deadline=None)
    def test_table_bounds_every_relay(self, case):
        # each relay's table entry is at most (b/2)*log10 of its exact d**2
        # to each hop's endpoint, at random draws and at the edge cases: the
        # angle bin holding each endpoint (its direction and both edges), u
        # near 0, at the top of each radius bin and u = 1 - 2**-53
        cfg, seed, _ = case
        assume(cfg.pathloss_b > 0.0)
        hops = channel._hops(cfg)
        plan = channel._bound_plan(cfg.relay_region, hops, channel._noise_dbm(cfg),
                                   cfg.pathloss_a, cfg.pathloss_b)
        rng = np.random.default_rng(seed)
        (cx, cy), radius = cfg.relay_region.center, cfg.relay_region.radius
        us = [0.0, 2.0 ** -1074, 1e-300, 2.0 ** -53, 1.0 - 2.0 ** -53]
        us += list(np.nextafter(np.arange(1, channel.RADIUS_BINS) / channel.RADIUS_BINS, 0.0))
        vs = [0.0, 1.0 - 2.0 ** -53]
        for (px, py), *_ in hops:
            us.append(min((math.hypot(px - cx, py - cy) / radius) ** 2, 1.0 - 2.0 ** -53))
            v = min(math.atan2(py - cy, px - cx) % (2 * math.pi) / (2 * math.pi),
                    1.0 - 2.0 ** -53)
            j = int(v * channel.ANGLE_BINS)
            vs += [v, j / channel.ANGLE_BINS,
                   math.nextafter((j + 1) / channel.ANGLE_BINS, 0.0)]
        u = np.concatenate([np.repeat(us, len(vs)), rng.random(2000)])
        v = np.concatenate([np.tile(vs, len(us)), rng.random(2000)])
        cell = ((u * channel.RADIUS_BINS).astype(np.intp) * channel.ANGLE_BINS
                + (v * channel.ANGLE_BINS).astype(np.intp))
        x, y = _disk_points(u.copy(), v.copy(), cfg.relay_region)
        for i, table, _, _ in plan:
            (px, py), *_ = hops[i]
            with np.errstate(divide="ignore"):
                exact = cfg.pathloss_b / 2.0 * np.log10(np.hypot(x - px, y - py) ** 2)
            assert np.all(table[cell] <= exact)

    def test_p_sweep_builds_the_plan_once(self, monkeypatch):
        # the plan is keyed on geometry and radio fields only, so a ten-point
        # p_avail sweep of threshold rows builds it once
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 1000)
        channel._bound_plan.cache_clear()
        spec = cli.SweepSpec("p_avail", tuple(np.linspace(0.1, 1.0, 10)),
                             ("optimal", "myopic"), 60, 3)
        rows = cli.sweep_rows([(rp.default_scenario(), spec)])
        assert [r[-1] for r in rows] == [""] * 20
        assert channel._bound_plan.cache_info().misses == 1
        channel._bound_plan.cache_clear()

    def test_exact_budget_runs_only_near_accepted_relays(self, hop_calls):
        # at p = 0.9 and the clear law's q99, the relays that get the exact
        # link budget are at most 1.1 times those accepted, so a bound that
        # silently kept every relay fails here
        cfg = rp.default_scenario(p_avail=0.9)
        law = build_empirical(cfg, 10 ** 5, np.random.default_rng(7))
        floor = float(np.quantile(law.samples, 0.99))
        hop_calls.clear()  # the law build's budgets
        _, _, se = sample_two_hop_se_batch(np.random.default_rng(8), cfg, 10 ** 6, floor)
        accepted = np.count_nonzero(se >= floor)
        assert accepted > 1000
        # each kept relay runs the budget once per hop
        assert sum(d.size for _, d, _ in hop_calls) / 2 <= 1.1 * accepted


# the unit roundoff of a double
U = 2.0 ** -53

# source and destination off the axis, the destination inside the disk
ASYMMETRIC = rp.default_scenario(
    p_avail=0.6, source_pos=(-400.0, 30.0), dest_pos=(60.0, -45.0),
    relay_region=RelayRegion((-50.0, 20.0), 180.0), shadow_sigma=12.0,
    pathloss_b=31.7, tx_power_dev=17.0)


def hop_db_errors(cfg, hop_calls):
    """Per hop, for each dual-clear relay, a bound on how far the sampler's
    SNR in dB lies from its exact value. The budget rounds 16 times: d/1km,
    log10 (within an ulp, so twice), the product by b, + a, the two gain
    sums, - pathloss, + shadowing, - noise, / 10, and the noise power's own
    five (log10 twice, * 10 and two sums). Each rounding errs by at most U
    times M, the sum of the magnitudes of every dB term, since every partial
    result is a partial sum of them."""
    noise = (abs(cfg.noise_psd) + abs(10.0 * math.log10(cfg.bandwidth_W))
             + abs(cfg.noise_figure))
    errors = []
    for (_, tx, g_tx, g_rx), (tx_called, d, shadow) in zip(channel._hops(cfg), hop_calls):
        assert tx_called == tx
        m = (abs(tx) + abs(g_tx) + abs(g_rx) + abs(cfg.pathloss_a) + noise
             + abs(cfg.pathloss_b) * (np.abs(np.log10(d / 1000.0)) + 1.0) + np.abs(shadow))
        errors.append(16 * U * m)
    return errors


def rate_tolerance(cfg, db_error):
    """How far two rates may lie apart when their weaker hops' SNRs in dB lie
    db_error apart: the minimum of the hops moves by at most the larger
    hop's error; 10**(x/10) then moves by ln(10)/10 relative per dB and
    rounds within an ulp on each side, + 1 rounds once on each side, and
    0.5*log2 moves by 1/(2 ln 2) per relative change and rounds within an
    ulp of a rate of at most se_cap on each side (the cap itself is exact)."""
    return (math.log(10.0) / 10.0 * db_error + 6 * U) / (2 * math.log(2.0)) + 4 * U * cfg.se_cap


class TestModelIdentities:
    """Transformations of a config under which each relay's rate is the
    same in exact arithmetic. On one stream the sampler must draw the same
    blockage and the same clear set, and each rate may move only by the
    rounding of the link budget on either side (`hop_db_errors`). At floor 0
    every dual-clear relay is priced, in index order, in each hop's call."""

    @staticmethod
    def draw(cfg, hop_calls, n=2 * 10 ** 5):
        hop_calls.clear()
        rng = np.random.default_rng([12, n])
        chi1, chi2, se = sample_two_hop_se_batch(rng, cfg, n)
        return (chi1, chi2, se, rng.bit_generator.state, hop_db_errors(cfg, hop_calls),
                [d for _, d, _ in hop_calls])

    def assert_same_rates(self, cfg, twin, hop_calls, distance_error=None, db_offset=0.0):
        chi1, chi2, se, state, errors, dists = self.draw(cfg, hop_calls)
        twin_chi1, twin_chi2, twin_se, twin_state, twin_errors, _ = self.draw(twin, hop_calls)
        assert np.array_equal(chi1, twin_chi1) and np.array_equal(chi2, twin_chi2)
        assert state == twin_state
        clear = (chi1 & chi2).astype(bool)
        assert np.array_equal(se > 0.0, clear) and np.array_equal(twin_se > 0.0, clear)
        db_error = []
        for hop in range(2):
            e = errors[hop] + twin_errors[hop] + db_offset
            if distance_error is not None:
                # b*log10(d) moves by |b|/ln(10) per relative change of d
                d = dists[hop]
                e = e + abs(cfg.pathloss_b) * distance_error(d) / (d * math.log(10.0))
            db_error.append(e)
        tol = rate_tolerance(cfg, np.maximum(*db_error))
        assert np.all(np.abs(se[clear] - twin_se[clear]) <= tol)
        # most rates lie below the cap, so the check is not vacuous
        assert np.mean(se[clear] < cfg.se_cap) > 0.5

    @pytest.mark.parametrize("cfg", [rp.default_scenario(), ASYMMETRIC],
                             ids=["default", "asymmetric"])
    def test_db_shift_of_pathloss_and_tx_powers(self, cfg, hop_calls):
        shift = 17.25
        twin = replace(cfg, pathloss_a=cfg.pathloss_a + shift,
                       tx_power_bs=cfg.tx_power_bs + shift,
                       tx_power_dev=cfg.tx_power_dev + shift)
        self.assert_same_rates(cfg, twin, hop_calls)

    @pytest.mark.parametrize("cfg", [rp.default_scenario(), ASYMMETRIC],
                             ids=["default", "asymmetric"])
    def test_translation_of_the_geometry(self, cfg, hop_calls):
        tx, ty = 1234.5, -987.25
        region = cfg.relay_region
        twin = replace(cfg, source_pos=(cfg.source_pos[0] + tx, cfg.source_pos[1] + ty),
                       dest_pos=(cfg.dest_pos[0] + tx, cfg.dest_pos[1] + ty),
                       relay_region=RelayRegion((region.center[0] + tx, region.center[1] + ty),
                                                region.radius))
        # every shifted coordinate is exact, so the two geometries are one
        # geometry translated
        for a, b in ((cfg.source_pos, twin.source_pos), (cfg.dest_pos, twin.dest_pos),
                     (region.center, twin.relay_region.center)):
            assert b[0] - tx == a[0] and b[1] - ty == a[1]
        # Both sides compute the same r*cos(theta) and r*sin(theta). Adding
        # the centre rounds within U*(R + |centre coordinate|), subtracting
        # the endpoint within U*|difference|, and hypot within an ulp of d,
        # so the two distances lie within U*(4R + |c|_1 + |c'|_1) + 7*U*d.
        spread = 4 * region.radius + sum(map(abs, region.center + twin.relay_region.center))
        self.assert_same_rates(cfg, twin, hop_calls,
                               distance_error=lambda d: U * spread + 7 * U * d)

    @pytest.mark.parametrize("cfg", [rp.default_scenario(), ASYMMETRIC],
                             ids=["default", "asymmetric"])
    def test_db_shift_of_noise_and_tx_powers(self, cfg, hop_calls):
        # the noise power is subtracted from the received power as the
        # pathloss is, so the same shift on it and on the tx powers cancels;
        # every shifted field is exact, and each side's budget rounds within
        # its own `hop_db_errors`
        shift = 4.0
        twin = replace(cfg, noise_psd=cfg.noise_psd + shift,
                       tx_power_bs=cfg.tx_power_bs + shift,
                       tx_power_dev=cfg.tx_power_dev + shift)
        self.assert_same_rates(cfg, twin, hop_calls)

    @pytest.mark.parametrize("cfg", [rp.default_scenario(), ASYMMETRIC],
                             ids=["default", "asymmetric"])
    def test_scale_of_every_length(self, cfg, hop_calls):
        k = 3.0
        region = cfg.relay_region
        twin = replace(cfg, source_pos=tuple(k * c for c in cfg.source_pos),
                       dest_pos=tuple(k * c for c in cfg.dest_pos),
                       relay_region=RelayRegion(tuple(k * c for c in region.center),
                                                k * region.radius),
                       pathloss_a=cfg.pathloss_a - cfg.pathloss_b * math.log10(k))
        # every scaled length is exact, so the twin geometry is this one
        # scaled by k, and each exact distance is k times this one's
        for a, b in ((cfg.source_pos, twin.source_pos), (cfg.dest_pos, twin.dest_pos),
                     (region.center, twin.relay_region.center)):
            assert b[0] / k == a[0] and b[1] / k == a[1]
        assert twin.relay_region.radius / k == region.radius
        # Both sides take the same sqrt(u), cos and sin. Against the exact
        # point from those, r = R*sqrt(u) and r*cos(theta) round within U*R
        # each and adding the centre within U*(R + |c_x|), so a coordinate
        # errs by U*(3R + |c_x|); subtracting the endpoint adds U*|dx|, and
        # |dx| + |dy| <= 2d; hypot adds an ulp, 2*U*d. One side's distance
        # thus errs by U*(6R + |c|_1) + 4*U*d, relative to d the same on the
        # twin, whose R, c and d are k times these: twice that on both sides.
        spread = 6 * region.radius + sum(map(abs, region.center))
        # the twin's pathloss_a rounds log10(k) (an ulp, 2U relative), the
        # product by b (U) and the difference (U*|a'|) away from a - b*log10(k)
        a_error = U * (abs(twin.pathloss_a) + 3 * abs(cfg.pathloss_b) * math.log10(k))
        self.assert_same_rates(cfg, twin, hop_calls,
                               distance_error=lambda d: 2 * (U * spread + 4 * U * d),
                               db_offset=a_error)


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
        ("tau", float("nan"), "tau"),
        ("shadow_sigma", float("nan"), "shadow_sigma"),
        ("se_cap", float("inf"), "se_cap"),
        ("p_avail", True, "p_avail"),
        ("tau", "0.01", "tau"),
    ])
    def test_malformed_values_rejected(self, cfg, key, value, match):
        # the JSON loader and the Python API take one validation path
        d = cfg.to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(d)
        with pytest.raises(ConfigError, match=match):
            replace(cfg, **{key: RelayRegion(**value) if key == "relay_region" else value})

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
        with pytest.raises(ConfigError):
            replace(cfg, **{field: value})

    def test_identical_endpoints_rejected(self, cfg):
        with pytest.raises(ConfigError):
            replace(cfg, dest_pos=cfg.source_pos)

    def test_zero_radius_rejected(self, cfg):
        with pytest.raises(ConfigError):
            replace(cfg, relay_region=RelayRegion((0.0, 0.0), 0.0))
