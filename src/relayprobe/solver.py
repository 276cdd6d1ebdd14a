"""Fixed-point solver for the maximum renewal-reward throughput.

The maximum throughput mu* is the unique root of

    h(mu) = W*T*E[(R - mu/W)+] - mu*tau*(1+p),

with h convex and strictly decreasing. The primary iteration

    mu <- W*T*E[R 1{R >= mu/W}] / (T*P(R >= mu/W) + tau*(1+p))

is exactly Newton's method on h with unit step (expected bits over expected
period time under the current threshold rule), and converges monotonically
from below for any nonnegative start. The naive fixed-point map
mu <- W*T*E[(R - mu/W)+] / (tau*(1+p)) has derivative magnitude
T*P(R > mu*/W)/(tau*(1+p)) at the root, which typically exceeds 1 and
oscillates (`naive_fixed_point_trace` in tests/test_solver.py shows it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .sedist import EmpiricalSe

# the Newton loop stops once a step moves mu by at most REL_TOL relative
REL_TOL = 1e-10
MAX_ITER = 100


class DegenerateDistributionError(ValueError):
    """The rate law has zero mean: no positive-rate relay ever appears."""


class InfeasibleError(ValueError):
    """The requested threshold equation has no solution in the support."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, last_mu: float):
        super().__init__(message)
        self.last_mu = last_mu


@dataclass(frozen=True)
class StoppingSolution:
    mu_star: float          # bit/s
    threshold_se: float     # bit/s/Hz, equal to mu_star / W
    iterations: int
    residual: float         # h(mu_star), bit/s
    method: str             # closed_form | newton_ratio | bisection
    iterates: tuple[float, ...] = ()  # Newton-ratio iterates from mu = 0

    def to_dict(self) -> dict:
        return {
            "mu_star_bps": self.mu_star,
            "threshold_se": self.threshold_se,
            "iterations": self.iterations,
            "residual": self.residual,
            "method": self.method,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")


def fixed_point_residual(dist: EmpiricalSe, mu: float, W: float, T: float,
                         tau: float, p: float) -> float:
    """h(mu): positive below the root, negative above."""
    return W * T * dist.expected_excess(mu / W) - mu * tau * (1.0 + p)


def _newton_step(dist, mu, W, T, tau, p):
    rho = mu / W
    return W * T * dist.mean_above(rho) / (T * dist.tail_prob(rho) + tau * (1.0 + p))


def solve_mu_star(dist: EmpiricalSe, W: float, T: float, tau: float,
                  p: float) -> StoppingSolution:
    """Compute the maximum throughput and the matching stopping threshold.

    The Newton-ratio iteration starts at mu = 0 and falls back to
    `bisect_mu_star` if |h| ever fails to shrink after the first step.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    if dist.mean() <= 0.0:
        raise DegenerateDistributionError("rate distribution has zero mean")

    mu, prev_abs_h, iterates = 0.0, float("inf"), []
    for it in range(1, MAX_ITER + 1):
        mu_next = _newton_step(dist, mu, W, T, tau, p)
        h = fixed_point_residual(dist, mu_next, W, T, tau, p)
        if abs(h) > prev_abs_h:
            return bisect_mu_star(dist, W, T, tau, p, it)
        iterates.append(mu_next)
        if abs(mu_next - mu) <= REL_TOL * max(1.0, mu_next):
            return StoppingSolution(mu_next, mu_next / W, it, h, "newton_ratio",
                                    tuple(iterates))
        prev_abs_h = abs(h)
        mu = mu_next
    raise ConvergenceError(f"no convergence in {MAX_ITER} iterations", mu)


def bisect_mu_star(dist: EmpiricalSe, W: float, T: float, tau: float, p: float,
                   newton_iterations: int = 0) -> StoppingSolution:
    """Plain bisection for mu* on [0, W*r_bar], the Newton loop's fallback.

    The interval is driven well below REL_TOL so both methods agree tightly;
    `newton_iterations` counts the Newton steps taken before falling back.
    """
    lo, hi = 0.0, W * dist.support_max
    it = 0
    while it < 200 and (hi - lo) > REL_TOL * 1e-3 * max(1.0, hi):
        it += 1
        mid = 0.5 * (lo + hi)
        if fixed_point_residual(dist, mid, W, T, tau, p) > 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return StoppingSolution(mu, mu / W, newton_iterations + it,
                            fixed_point_residual(dist, mu, W, T, tau, p), "bisection")


def solve_rho(dist: EmpiricalSe, mu: float, W: float, T: float, tau: float,
              p: float) -> float:
    """Threshold rho solving E[(R - rho)+] = mu*tau*(1+p)/(W*T)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rhs = mu * tau * (1.0 + p) / (W * T)
    if rhs > dist.mean():
        raise InfeasibleError("probing cost exceeds E[R]: stopping never profitable")
    lo, hi = 0.0, dist.support_max
    # piecewise-linear excess: plain bisection, driven well past 1e-9 relative
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if dist.expected_excess(mid) > rhs:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-13 * max(1.0, hi):
            break
    return hi


def closed_form_onoff(p: float, r_bar: float, W: float, T: float,
                      tau: float) -> StoppingSolution:
    """Exact maximum throughput for the two-point on/off rate law."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    mu = W * T * p * p * r_bar / ((1.0 + p) * tau + p * p * T)
    dist = EmpiricalSe([r_bar], p_avail=p)
    res = fixed_point_residual(dist, mu, W, T, tau, p)
    return StoppingSolution(mu, mu / W, 0, res, "closed_form")


def genie_ratio_onoff(p: float, tau: float, T: float) -> float:
    """Optimally-stopped over genie-aided throughput for on/off links."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    return 1.0 / (1.0 + (1.0 + p) / (p * p) * (tau / T))


def ordinary_value(dist: EmpiricalSe, mu: float, W: float, T: float,
                   tau: float, p: float) -> float:
    """V(mu) = E[U_N - mu*T_N] under the optimal threshold rule for this mu.

    Evaluated from the geometric stopping structure with threshold
    rho = solve_rho(mu) and success probability q = P(R >= rho). Diagnostic:
    V is nonincreasing in mu and V(mu*) = 0.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rho = solve_rho(dist, mu, W, T, tau, p)
    q = dist.tail_prob(rho)
    if q <= 0.0:
        raise InfeasibleError("stopping probability is zero at this threshold")
    return ((W * T * dist.mean_above(rho) - mu * T * q) / q
            - mu * tau * (1.0 + p) / q)
