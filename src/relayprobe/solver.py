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

from dataclasses import dataclass

from .channel import write_object
from .sedist import EmpiricalSe

# the Newton loop stops once a step moves mu by at most REL_TOL relative
REL_TOL = 1e-10
MAX_ITER = 100


class DegenerateDistributionError(ValueError):
    """The rate law has zero mean: no positive-rate relay ever appears."""


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
    method: str             # closed_form | newton_ratio

    def to_json(self, path) -> None:
        write_object(path, {
            "mu_star_bps": self.mu_star,
            "threshold_se": self.threshold_se,
            "iterations": self.iterations,
            "residual": self.residual,
            "method": self.method,
        })


def fixed_point_residual(dist: EmpiricalSe, mu: float, W: float, T: float,
                         tau: float, p: float) -> float:
    """h(mu): positive below the root, negative above."""
    return W * T * dist.expected_excess(mu / W) - mu * tau * (1.0 + p)


def _newton_step(dist, mu, W, T, tau, p):
    rho = mu / W
    return W * T * dist.mean_above(rho) / (T * dist.tail_prob(rho) + tau * (1.0 + p))


def solve_mu_star(dist: EmpiricalSe, W: float, T: float, tau: float,
                  p: float) -> StoppingSolution:
    """Compute the maximum throughput and the matching stopping threshold
    by the Newton-ratio iteration from mu = 0."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    if dist.mean() <= 0.0:
        raise DegenerateDistributionError("rate distribution has zero mean")

    # no fallback needed: Newton on convex, decreasing h climbs to mu* with h >= 0
    mu = 0.0
    for it in range(1, MAX_ITER + 1):
        mu_next = _newton_step(dist, mu, W, T, tau, p)
        if abs(mu_next - mu) <= REL_TOL * max(1.0, mu_next):
            return StoppingSolution(mu_next, mu_next / W, it,
                                    fixed_point_residual(dist, mu_next, W, T, tau, p),
                                    "newton_ratio")
        mu = mu_next
    raise ConvergenceError(f"no convergence in {MAX_ITER} iterations", mu)


def closed_form_onoff(p: float, r_bar: float, W: float, T: float,
                      tau: float) -> StoppingSolution:
    """Exact maximum throughput for the two-point on/off rate law."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    mu = W * T * p * p * r_bar / ((1.0 + p) * tau + p * p * T)
    dist = EmpiricalSe([r_bar]).at(p)
    res = fixed_point_residual(dist, mu, W, T, tau, p)
    return StoppingSolution(mu, mu / W, 0, res, "closed_form")
