import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import relayprobe as rp
from relayprobe import solver
from relayprobe.sedist import EmpiricalSe, build_empirical
from relayprobe.solver import (ConvergenceError, DegenerateDistributionError,
                               closed_form_onoff, solve_mu_star)
from solver_oracles import (InfeasibleError, bisect_mu_star, newton_iterates,
                            ordinary_value, solve_rho)

ONOFF = EmpiricalSe([2.0]).at(0.5)


@st.composite
def rate_laws(draw):
    """A random rate law and its p: a few atoms, or a small or a large
    clear-link sample."""
    p = draw(st.floats(0.05, 1.0))
    kind = draw(st.sampled_from(["atoms", "small", "large"]))
    if kind == "atoms":
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0]),
                               min_size=1, max_size=8))
    elif kind == "small":
        values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                               min_size=1, max_size=30))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.gamma(2.0, 1.0, draw(st.integers(10 ** 3, 10 ** 5)))
    assume(max(values) > 0.0)
    return EmpiricalSe(values).at(p), p


def naive_fixed_point_trace(dist, W, T, tau, p, mu_init=0.0, n_iter=20):
    """The literal fixed-point map mu <- W*T*E[(R - mu/W)+] / (tau*(1+p)),
    which the solver does not use because it oscillates."""
    trace = []
    mu = mu_init
    for _ in range(n_iter):
        mu = W * T * dist.expected_excess(mu / W) / (tau * (1.0 + p))
        trace.append(mu)
    return trace


class TestClosedForm:
    def test_worked_example(self):
        sol = closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01)
        assert sol.mu_star == pytest.approx(0.5 / 0.265, rel=1e-12)
        assert sol.threshold_se == sol.mu_star
        assert sol.method == "closed_form"

    def test_zero_overhead_reaches_genie(self):
        for p in (0.2, 0.7, 1.0):
            sol = closed_form_onoff(p, 2.0, 3.0, 1.0, 0.0)
            assert sol.mu_star == pytest.approx(6.0, rel=1e-12)

    def test_always_available_ratio(self):
        # p = 1: ratio to genie is T/(T + 2*tau)
        sol = closed_form_onoff(1.0, 4.0, 1.0, 1.0, 0.05)
        assert sol.mu_star / 4.0 == pytest.approx(1 / 1.1, rel=1e-12)

    def test_threshold_matches_explicit_form(self):
        p, r, tau, T = 0.4, 3.0, 0.02, 1.0
        sol = closed_form_onoff(p, r, 2.0, T, tau)
        explicit = r / (1 + (1 + p) / p ** 2 * tau / T)
        assert sol.threshold_se == pytest.approx(explicit, rel=1e-12)

    def test_monotonicity_in_parameters(self):
        ps = np.arange(0.1, 1.01, 0.1)
        mus = [closed_form_onoff(p, 2.0, 1.0, 1.0, 0.01).mu_star for p in ps]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        taus = [0.005, 0.01, 0.05, 0.1]
        mus = [closed_form_onoff(0.5, 2.0, 1.0, 1.0, t).mu_star for t in taus]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        rbars = [1.0, 2.0, 4.0]
        mus = [closed_form_onoff(0.5, r, 1.0, 1.0, 0.01).mu_star for r in rbars]
        assert all(a < b for a, b in zip(mus, mus[1:]))


def genie_ratio(p, r_bar, W, T, tau):
    """The on/off optimum over the genie bound W*r_bar, as `solve` prints it."""
    return closed_form_onoff(p, r_bar, W, T, tau).mu_star / (W * r_bar)


class TestGenieRatio:
    def test_always_available(self):
        assert genie_ratio(1.0, 2.0, 3.0, 1.0, 0.05) == pytest.approx(1 / 1.1, rel=1e-12)

    def test_no_overhead(self):
        assert genie_ratio(0.3, 2.0, 1.0, 1.0, 0.0) == 1.0

    def test_consistent_with_closed_form(self):
        # 1 / (1 + (1+p)/p^2 * tau/T), whatever W and r_bar
        for W, r_bar in ((1.0, 2.0), (1e8, 8.0)):
            ratio = genie_ratio(0.5, r_bar, W, 1.0, 0.01)
            assert ratio == pytest.approx(1 / 1.06, rel=1e-12)


class TestSolveMuStar:
    def test_onoff_matches_closed_form(self):
        sol = solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)
        assert sol.mu_star == pytest.approx(0.5 / 0.265, rel=1e-12)
        assert sol.method == "newton_ratio"

    def test_iteration_trace(self):
        # one step from 0 lands at p^2*r/(1 + tau*(1+p)), the next at the root
        sol = solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)
        trace = newton_iterates(ONOFF, 1.0, 1.0, 0.01, 0.5)
        assert len(trace) == sol.iterations
        assert trace[-1] == sol.mu_star
        assert trace[0] == pytest.approx(0.5 / 1.015, rel=1e-12)
        assert trace[1] == pytest.approx(0.5 / 0.265, rel=1e-12)

    def test_iterates_monotone_from_second(self):
        rng = np.random.default_rng(0)
        dist = EmpiricalSe(rng.random(20000) * 2.0)
        sol = solve_mu_star(dist, 1.0, 1.0, 0.01, 0.5)
        trace = newton_iterates(dist, 1.0, 1.0, 0.01, 0.5)
        assert len(trace) == sol.iterations >= 3
        assert trace[-1] == sol.mu_star
        assert all(a <= b + 1e-12 for a, b in zip(trace[1:], trace[2:]))

    def test_residual_is_small(self):
        for p in (0.1, 0.5, 0.9):
            sol = solve_mu_star(EmpiricalSe([4.0]).at(p), 1.0, 1.0, 0.05, p)
            assert abs(sol.residual) <= 1e-8 * 4.0

    def test_bisection_agrees(self):
        rng = np.random.default_rng(1)
        for dist in (ONOFF, EmpiricalSe(rng.random(20000) * 2.0)):
            a = solve_mu_star(dist, 1.0, 1.0, 0.01, 0.5)
            b = bisect_mu_star(dist, 1.0, 1.0, 0.01, 0.5)
            assert b.mu_star == pytest.approx(a.mu_star, rel=1e-9)

    @given(law=rate_laws(), tau=st.floats(1e-4, 1.0), T=st.floats(0.01, 10.0),
           W=st.floats(1.0, 1e9))
    @settings(max_examples=150, deadline=None)
    # the root W sits on the atom at 1, and the second iterate rounds one ulp
    # above it: 407182985.67, 502990747.00000006, 502990747.0
    @example(law=(EmpiricalSe([0.0, 0.0, 0.0, 0.0, 1.0, 8.0, 8.0]).at(1.0), 1.0),
             tau=1.0, T=1.0, W=502990747.0)
    def test_newton_property(self, law, tau, T, W):
        # Newton equals bisection, rises from its second iterate up to the
        # rounding of one step, and zeroes the ordinary value
        dist, p = law
        sol = solve_mu_star(dist, W, T, tau, p)
        assert sol.mu_star == pytest.approx(
            bisect_mu_star(dist, W, T, tau, p).mu_star, rel=1e-9)
        trace = newton_iterates(dist, W, T, tau, p)
        assert len(trace) == sol.iterations and trace[-1] == sol.mu_star
        assert all(a <= math.nextafter(b, math.inf) for a, b in zip(trace[1:], trace[2:]))
        v = ordinary_value(dist, sol.mu_star, W, T, tau, p)
        assert abs(v) <= 1e-8 * W * T * dist.samples[-1]

    def test_zero_mean_distribution_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            solve_mu_star(EmpiricalSe([0.0, 0.0]), 1.0, 1.0, 0.01, 0.5)

    def test_iteration_cap_raises(self, monkeypatch):
        # one step from 0 cannot also show convergence
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)
        assert info.value.last_mu == pytest.approx(0.5 / 1.015, rel=1e-12)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.0)

    def test_realistic_bandwidth_scale(self):
        sol = solve_mu_star(ONOFF, 500e6, 1.0, 0.01, 0.5)
        assert sol.mu_star == pytest.approx(500e6 * 0.5 / 0.265, rel=1e-9)
        assert sol.threshold_se == sol.mu_star / 500e6

    def test_naive_map_oscillates(self):
        # the literal fixed-point map overshoots: from 0 it jumps above
        # W*r_bar and then collapses back to 0, never settling
        trace = naive_fixed_point_trace(ONOFF, 1.0, 1.0, 0.01, 0.5, n_iter=6)
        assert trace[0] > 2.0
        assert trace[1] == 0.0
        assert trace[2] == trace[0]


class TestSolveRho:
    def test_rho_at_mu_star_equals_threshold(self):
        sol = solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)
        rho = solve_rho(ONOFF, sol.mu_star, 1.0, 1.0, 0.01, 0.5)
        assert rho == pytest.approx(sol.mu_star, rel=1e-9)

    def test_zero_mu_gives_top_of_support(self):
        assert solve_rho(ONOFF, 0.0, 1.0, 1.0, 0.01, 0.5) == 2.0

    def test_piecewise_linear_excess(self):
        # E[(R - rho)+] = 0.5*(3 - rho) on [1, 3]; target 0.5 at rho = 2.
        # mu*tau*(1+p)/(W*T) = 0.5 with tau=0.5, p=1, W=T=1, mu=0.5
        dist = EmpiricalSe([1.0, 1.0, 3.0, 3.0])
        rho = solve_rho(dist, 0.5, 1.0, 1.0, 0.5, 1.0)
        assert rho == pytest.approx(2.0, rel=1e-9)

    def test_continuous_empirical_fixed_point(self):
        rng = np.random.default_rng(2)
        dist = EmpiricalSe(rng.random(10 ** 5) * 2.0)
        sol = solve_mu_star(dist, 1.0, 1.0, 0.01, 0.5)
        rho = solve_rho(dist, sol.mu_star, 1.0, 1.0, 0.01, 0.5)
        assert rho == pytest.approx(sol.threshold_se, rel=1e-9)

    def test_infeasible_cost(self):
        with pytest.raises(InfeasibleError):
            solve_rho(ONOFF, 100.0, 1.0, 1.0, 0.5, 1.0)


class TestOrdinaryValue:
    def test_zero_at_optimum(self):
        sol = solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)
        assert abs(ordinary_value(ONOFF, sol.mu_star, 1.0, 1.0, 0.01, 0.5)) <= 1e-8 * 2.0

    def test_positive_at_zero(self):
        assert ordinary_value(ONOFF, 0.0, 1.0, 1.0, 0.01, 0.5) > 0

    def test_atom_law_arithmetic(self):
        # q = 0.25: V = (0.5 - 0.25)/0.25 - 0.015/0.25
        v = ordinary_value(ONOFF, 1.0, 1.0, 1.0, 0.01, 0.5)
        assert v == pytest.approx(0.94, rel=1e-12)

    def test_nonincreasing_in_mu(self):
        mus = np.linspace(0.0, 1.8, 15)
        vals = [ordinary_value(ONOFF, float(m), 1.0, 1.0, 0.01, 0.5) for m in mus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSolution:
    def test_solutions_hold_builtin_floats(self):
        # one float type whichever path solved: the Newton loop on an on/off
        # law and on a drawn geometric law, and the closed form
        geo = build_empirical(rp.default_scenario(), 10 ** 4, np.random.default_rng(0))
        for sol in (solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5),
                    solve_mu_star(geo, 500e6, 1.0, 0.01, 0.5),
                    closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01)):
            for value in (sol.mu_star, sol.threshold_se, sol.residual):
                assert type(value) is float

    def test_json_schema(self, tmp_path):
        for sol in (closed_form_onoff(0.5, 2.0, 1.0, 1.0, 0.01),
                    solve_mu_star(ONOFF, 1.0, 1.0, 0.01, 0.5)):
            path = tmp_path / "sol.json"
            sol.to_json(path)
            d = json.loads(path.read_text())
            assert set(d) == {"mu_star_bps", "threshold_se", "iterations",
                              "residual", "method"}
            assert d["mu_star_bps"] == sol.mu_star
