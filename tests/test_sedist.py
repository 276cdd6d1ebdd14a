import tracemalloc

import numpy as np
import pytest

import relayprobe as rp
from relayprobe.channel import BLOCK_PROBES, sample_two_hop_se_batch
from relayprobe.sedist import EmpiricalSe, build_empirical


@pytest.fixture
def onoff():
    return EmpiricalSe([2.0]).at(0.5)


@pytest.fixture
def empirical():
    return EmpiricalSe([0.5, 1.5, 2.0])


class TestTailProb:
    def test_onoff_atom(self, onoff):
        assert onoff.tail_prob(1.0) == 0.25

    def test_onoff_at_zero(self, onoff):
        assert onoff.tail_prob(0.0) == 1.0

    def test_onoff_above_support(self, onoff):
        assert onoff.tail_prob(2.5) == 0.0

    def test_empirical_count(self, empirical):
        assert empirical.tail_prob(1.0) == pytest.approx(2 / 3)

    def test_closed_tail_includes_atoms(self, empirical):
        assert empirical.tail_prob(1.5) == pytest.approx(2 / 3)
        assert empirical.tail_prob(2.0) == pytest.approx(1 / 3)


class TestMeanAbove:
    def test_onoff(self, onoff):
        assert onoff.mean_above(1.0) == 0.5

    def test_empirical_suffix_mean(self, empirical):
        assert empirical.mean_above(1.0) == pytest.approx((1.5 + 2.0) / 3)

    def test_above_support_empty(self, onoff, empirical):
        assert onoff.mean_above(3.0) == 0.0
        assert empirical.mean_above(3.0) == 0.0


class TestExpectedExcess:
    def test_onoff_atom_formula(self, onoff):
        assert onoff.expected_excess(1.88679) == pytest.approx(0.25 * (2 - 1.88679))

    def test_excess_over_zero_is_mean(self, onoff, empirical):
        assert onoff.expected_excess(0.0) == onoff.mean() == 0.5
        assert empirical.expected_excess(0.0) == pytest.approx(4.0 / 3)

    def test_all_samples_below(self):
        assert EmpiricalSe([0.5, 1.5]).expected_excess(2.0) == 0.0

    @pytest.mark.parametrize("dist_name", ["onoff", "empirical"])
    def test_identity_with_tail_functionals(self, dist_name, request):
        dist = request.getfixturevalue(dist_name)
        for rho in np.linspace(0.0, 2.5, 100):
            rho = float(rho)
            assert dist.expected_excess(rho) == dist.mean_above(rho) - rho * dist.tail_prob(rho)

    def test_monotone_nonincreasing_and_convex(self):
        rng = np.random.default_rng(0)
        dist = EmpiricalSe(rng.random(5000) * 2.0)
        grid = np.linspace(0.0, 2.0, 101)
        vals = np.array([dist.expected_excess(float(r)) for r in grid])
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(np.diff(vals, 2) >= -1e-12)  # convexity
        tails = np.array([dist.tail_prob(float(r)) for r in grid])
        assert np.all(np.diff(tails) <= 0)

    def test_onoff_linear_in_rho(self, onoff):
        for rho in np.linspace(0.0, 2.0, 50):
            expected = 0.25 * (2.0 - float(rho))
            assert abs(onoff.expected_excess(float(rho)) - expected) < 1e-12


class TestConstruction:
    def test_sorting_and_bounds(self):
        d = EmpiricalSe([2.0, 0.5, 1.5])
        assert list(d.samples) == [0.5, 1.5, 2.0]

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSe([-0.1, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSe([])

    def test_suffix_sums_built_in_place(self):
        # the suffix sums accumulate from the largest sample down, as a
        # reversed cumsum does, so their bits match it; the sorted copy and
        # the suffix array are the build's only full-size arrays, 16 bytes
        # per sample (a cumsum temporary and a concatenation added 8 more)
        samples = np.random.default_rng(0).random(2 * 10 ** 5)
        EmpiricalSe(samples[:10])
        tracemalloc.start()
        try:
            law = EmpiricalSe(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * samples.size
        s = np.sort(samples)
        assert np.array_equal(law._suffix, np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]]))

    def test_onoff_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSe([2.0]).at(0.0)
        with pytest.raises(ValueError):
            EmpiricalSe([2.0]).at(1.5)


class TestBuildEmpirical:
    def test_degenerate_scenario_collapses(self):
        # p = 1, no shadowing, tiny relay disk: all rates nearly equal
        cfg = rp.default_scenario(
            p_avail=1.0, shadow_sigma=0.0,
            relay_region=rp.RelayRegion((0.0, 0.0), 1e-6))
        d = build_empirical(cfg, 1000, np.random.default_rng(0))
        assert np.ptp(d.samples) < 1e-7 * d.samples[0]

    def test_onoff_mode_tail_is_binomial(self):
        cfg = rp.default_scenario(p_avail=0.3, channel_mode="onoff", se_cap=2.0)
        d = build_empirical(cfg, 10 ** 5, np.random.default_rng(1))
        assert d.tail_prob(1.0) == 0.09

    def test_onoff_mode_mean_matches_closed_form(self):
        # E[R] = p^2 * r_bar
        cfg = rp.default_scenario(p_avail=0.3, channel_mode="onoff", se_cap=2.0)
        d = build_empirical(cfg, 10 ** 6, np.random.default_rng(2))
        assert d.expected_excess(0.0) == 0.18

    def test_clear_law_does_not_depend_on_p(self):
        # the blockage atom is composed exactly onto one clear-link draw
        laws = {p: build_empirical(rp.default_scenario(p_avail=p), 2000,
                                   np.random.default_rng(4))
                for p in (0.1, 0.9, 1.0)}
        assert np.array_equal(laws[0.1].samples, laws[0.9].samples)
        assert np.array_equal(laws[0.1].samples, laws[1.0].samples)
        for p in (0.1, 0.9):
            # `at` composes the same law from the p = 1 build without sorting
            # again, sharing its read-only arrays
            composed = laws[1.0].at(p)
            assert composed.samples is laws[1.0].samples
            for rho in np.linspace(0.05, 5.0, 40):
                rho = float(rho)
                assert laws[p].tail_prob(rho) == p ** 2 * laws[1.0].tail_prob(rho)
                assert laws[p].mean_above(rho) == p ** 2 * laws[1.0].mean_above(rho)
                for query in ("tail_prob", "mean_above", "expected_excess"):
                    assert getattr(composed, query)(rho) == getattr(laws[p], query)(rho)
            assert laws[p].tail_prob(0.0) == composed.tail_prob(0.0) == 1.0
        assert not laws[1.0].samples.flags.writeable
        with pytest.raises(ValueError):
            laws[1.0].at(0.0)

    def test_law_is_drawn_in_blocks(self):
        # the law's stream is the sampler's, BLOCK_PROBES draws per call at
        # p = 1, with a short last block
        cfg = rp.default_scenario()
        n = 2 * BLOCK_PROBES + 7
        law = build_empirical(cfg, n, np.random.default_rng(5))
        twin, clear_cfg = np.random.default_rng(5), rp.default_scenario(p_avail=1.0)
        blocks = [sample_two_hop_se_batch(twin, clear_cfg, size)[2]
                  for size in (BLOCK_PROBES, BLOCK_PROBES, 7)]
        assert np.array_equal(law.samples, np.sort(np.concatenate(blocks)))

    def test_law_build_memory_per_sample(self):
        # the drawn samples, their sorted copy and the suffix sums hold 24
        # bytes per sample (24.0 measured); a block's draws add a fixed
        # amount, and one sampler call over every sample would add more
        # per sample than the bound leaves
        cfg = rp.default_scenario()
        n = 2 * 10 ** 5
        build_empirical(cfg, 1000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            build_empirical(cfg, n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27 * n

    def test_invalid_sample_count(self):
        cfg = rp.default_scenario()
        with pytest.raises(ValueError):
            build_empirical(cfg, 0, np.random.default_rng(0))

