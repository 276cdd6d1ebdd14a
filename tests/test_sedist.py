import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import relayprobe as rp
from relayprobe import cli, sedist, simulator, solver
from relayprobe.channel import BLOCK_PROBES, RelayRegion, sample_two_hop_se_batch
from relayprobe.sedist import EmpiricalSe, build_empirical
from relayprobe.simulator import ExplicitThreshold, optimal_solution


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # a NaN sorts last, where the nonnegativity check does not see it,
        # and an inf sample would make mu* infinite
        with pytest.raises(ValueError):
            EmpiricalSe([1.0, bad])
        with pytest.raises(ValueError):
            EmpiricalSe(np.array([bad, 2.0, 0.5]))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 197, 2 * 10 ** 5])
    @pytest.mark.parametrize("kind", ["uniform", "few_values", "all_tied"])
    def test_queries_equal_the_full_suffix_sums(self, n, kind):
        # The law keeps the suffix sum at every s-th sample, s = ceil(sqrt(n));
        # a query adds the samples below its anchor from the largest down, the
        # order a reversed cumsum over all samples adds them, so every query
        # has the bits of the full suffix sums. 63, 64, 65 and 197 end on a
        # short block, on a full one and one past it (s = 8, 8, 9 and 15).
        rng = np.random.default_rng(n)
        draws = {"uniform": lambda: rng.random(n) * 8.0,
                 "few_values": lambda: rng.choice([0.0, 0.3, 1.7, 2.0], n),
                 "all_tied": lambda: np.full(n, 2.7)}[kind]()
        s = np.sort(draws)
        suffix = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
        law = EmpiricalSe(draws)
        stride = law._stride
        assert stride == math.ceil(math.sqrt(n))
        assert law._anchors.size == -(-n // stride) + 1
        distinct = np.unique(s)
        if distinct.size > 10 ** 4:
            # the samples at and either side of each anchor, and 2000 others
            at = np.arange(0, n, stride)
            idx = np.concatenate([at, at[1:] - 1, at[:-1] + 1, rng.integers(0, n, 2000)])
            distinct = np.unique(s[idx])
        rhos = np.concatenate([[0.0], distinct, (distinct[:-1] + distinct[1:]) / 2,
                               [s[-1] * 1.5 + 1.0]])
        for rho in rhos.tolist():
            i = int(np.searchsorted(s, rho))
            for q in (law, law.at(0.7)):
                mean, got = q._clear * (suffix[i] / n), q.mean_above(rho)
                assert got == mean and type(got) is float
                assert q.expected_excess(rho) == mean - rho * q.tail_prob(rho)

    def test_suffix_sums_built_in_place(self):
        # the samples are sorted in place and the suffix sums are kept at
        # every s-th sample only, about sqrt(n) doubles built one stride at a
        # time, so the constructor allocates under a byte per sample
        samples = np.random.default_rng(0).random(2 * 10 ** 5)
        EmpiricalSe(samples[:10])
        tracemalloc.start()
        try:
            EmpiricalSe(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.size

    def test_writable_float_input_is_sorted_in_place(self):
        # a writable float64 array that owns its data becomes the law's
        # sorted, read-only samples; a read-only one, such as another law's
        # samples, is copied
        drawn = np.random.default_rng(3).random(1000)
        law = EmpiricalSe(drawn)
        assert law.samples is drawn
        assert np.all(drawn[:-1] <= drawn[1:])
        assert not drawn.flags.writeable
        before = law.samples.copy()
        twin = EmpiricalSe(law.samples)
        assert twin.samples is not law.samples
        assert np.array_equal(twin.samples, law.samples)
        assert np.array_equal(law.samples, before)
        assert not law.samples.flags.writeable
        # another dtype or a view is copied, not written to
        ints = np.array([3, 1, 2])
        assert EmpiricalSe(ints).samples.tolist() == [1.0, 2.0, 3.0]
        assert ints.tolist() == [3, 1, 2] and ints.flags.writeable
        base = np.array([3.0, 1.0, 2.0, 0.5])
        assert EmpiricalSe(base[:3]).samples.tolist() == [1.0, 2.0, 3.0]
        assert base.tolist() == [3.0, 1.0, 2.0, 0.5] and base.flags.writeable

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
        # the drawn samples, sorted in place, hold 8 bytes per sample and the
        # anchors about sqrt(n) doubles; a block's draws add about 1 MB
        # whatever n is, so the law is built at the solver's full size, where
        # that is 1 byte per sample; a sorted copy, full suffix sums or one
        # sampler call over every sample would each add more than the bound
        # leaves
        cfg = rp.default_scenario()
        n = sedist.LAW_SAMPLES
        build_empirical(cfg, 1000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            build_empirical(cfg, n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n

    def test_invalid_sample_count(self):
        cfg = rp.default_scenario()
        with pytest.raises(ValueError):
            build_empirical(cfg, 0, np.random.default_rng(0))


class TestClearLawMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The configs `sedist.build_empirical` is called with, from an empty
        memo."""
        sedist._clear_law.cache_clear()
        calls = []
        build = sedist.build_empirical

        def counted(cfg, *args):
            calls.append(cfg)
            return build(cfg, *args)

        monkeypatch.setattr(sedist, "build_empirical", counted)
        yield calls
        sedist._clear_law.cache_clear()

    def test_one_build_per_p_sweep(self, builds, monkeypatch):
        cfg = rp.default_scenario(tau=0.01)
        spec = cli.SweepSpec("p_avail", (0.2, 0.5, 0.8), ("optimal",), 60, 4)
        rhos = []
        resolve = simulator.resolve_policy

        def recording(policy, cfg_pt, seed=0):
            rhos.append(resolve(policy, cfg_pt, seed).rho)
            return ExplicitThreshold(rhos[-1])

        monkeypatch.setattr(simulator, "resolve_policy", recording)
        rows = cli.sweep_rows(cfg, spec)
        assert [r[-1] for r in rows] == ["", "", ""]
        assert len(builds) == 1
        # each row solves exactly the law a fresh build at its p gives
        for p, rho in zip(spec.grid, rhos):
            cfg_p = dataclasses.replace(cfg, p_avail=p)
            law = sedist.build_empirical(cfg_p, 10 ** 6, np.random.default_rng([4, 2 ** 31]))
            fresh = solver.solve_mu_star(law, cfg.bandwidth_W, cfg.T_data, cfg.tau, p)
            assert rho == fresh.threshold_se

    def test_one_build_per_tau_sweep(self, builds, monkeypatch):
        # the clear-link law does not read tau or T_data, so neither keys it
        cfg = rp.default_scenario(p_avail=0.4)
        taus = (0.01, 0.02, 0.05)
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 1000)
        rhos = [optimal_solution(dataclasses.replace(cfg, tau=t), 0).threshold_se
                for t in taus]
        optimal_solution(dataclasses.replace(cfg, T_data=0.5), 0)
        assert len(builds) == 1
        for t, rho in zip(taus, rhos):
            law = sedist.build_empirical(cfg, 1000, np.random.default_rng([0, 2 ** 31]))
            fresh = solver.solve_mu_star(law, cfg.bandwidth_W, cfg.T_data, t, 0.4)
            assert rho == fresh.threshold_se

    def test_clear_law_change_rebuilds(self, builds, monkeypatch):
        cfg = rp.default_scenario(p_avail=0.3)
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 1000)
        optimal_solution(cfg, 1)
        optimal_solution(dataclasses.replace(cfg, p_avail=0.7), 1)
        # list-valued positions give the same, hashable config
        region = cfg.relay_region
        optimal_solution(dataclasses.replace(
            cfg, source_pos=list(cfg.source_pos), dest_pos=list(cfg.dest_pos),
            relay_region=RelayRegion(list(region.center), region.radius)), 1)
        assert len(builds) == 1
        optimal_solution(dataclasses.replace(cfg, shadow_sigma=3.0), 1)
        optimal_solution(cfg, 2)
        # LAW_SAMPLES is read at each call, so changing it rebuilds
        monkeypatch.setattr(sedist, "LAW_SAMPLES", 2000)
        optimal_solution(cfg, 2)
        assert len(builds) == 4
        assert builds[1].shadow_sigma == 3.0
        assert all(c.p_avail == 1.0 for c in builds)

    def test_cached_law_is_read_only(self, builds):
        law = sedist._clear_law(rp.default_scenario(p_avail=1.0), 0, 1000)
        composed = law.at(0.4)
        assert composed.samples is law.samples and composed._anchors is law._anchors
        for arr in (law.samples, law._anchors):
            with pytest.raises(ValueError):
                arr[0] = 1.0
