"""Reference bisections for the fixed-point solver.

The package solves for mu* with one Newton-ratio loop. These slower,
independent routines check it: plain bisection on h for mu*, bisection on
the excess for the threshold rho at a given mu, and the ordinary value
V(mu), which vanishes at mu*. Their brackets end at the largest clear-link
sample, above which the rate law has no mass. `newton_iterates` replays the
loop's own steps, so tests can check the iterates that the solver does not
keep.
"""

from __future__ import annotations

from relayprobe.sedist import EmpiricalSe
from relayprobe.solver import (MAX_ITER, REL_TOL, StoppingSolution,
                               _newton_step, fixed_point_residual)


class InfeasibleError(ValueError):
    """The requested threshold equation has no solution in the support."""


def newton_iterates(dist: EmpiricalSe, W: float, T: float, tau: float,
                    p: float) -> list[float]:
    """The Newton-ratio iterates of `solve_mu_star` from mu = 0: its
    `_newton_step` replayed under the same REL_TOL stop, at most MAX_ITER."""
    mu, iterates = 0.0, []
    for _ in range(MAX_ITER):
        mu_next = _newton_step(dist, mu, W, T, tau, p)
        iterates.append(mu_next)
        if abs(mu_next - mu) <= REL_TOL * max(1.0, mu_next):
            break
        mu = mu_next
    return iterates


def bisect_mu_star(dist: EmpiricalSe, W: float, T: float, tau: float,
                   p: float) -> StoppingSolution:
    """Plain bisection for mu* on [0, W*max sample].

    The interval is driven well below REL_TOL so it agrees tightly with the
    Newton loop.
    """
    lo, hi = 0.0, W * dist.samples[-1]
    it = 0
    while it < 200 and (hi - lo) > REL_TOL * 1e-3 * max(1.0, hi):
        it += 1
        mid = 0.5 * (lo + hi)
        if fixed_point_residual(dist, mid, W, T, tau, p) > 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return StoppingSolution(mu, mu / W, it,
                            fixed_point_residual(dist, mu, W, T, tau, p), "bisection")


def solve_rho(dist: EmpiricalSe, mu: float, W: float, T: float, tau: float,
              p: float) -> float:
    """Threshold rho solving E[(R - rho)+] = mu*tau*(1+p)/(W*T)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rhs = mu * tau * (1.0 + p) / (W * T)
    if rhs > dist.mean():
        raise InfeasibleError("probing cost exceeds E[R]: stopping never profitable")
    lo, hi = 0.0, dist.samples[-1]
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


def ordinary_value(dist: EmpiricalSe, mu: float, W: float, T: float,
                   tau: float, p: float) -> float:
    """V(mu) = E[U_N - mu*T_N] under the optimal threshold rule for this mu.

    Evaluated from the geometric stopping structure with threshold
    rho = solve_rho(mu) and success probability q = P(R >= rho). V is
    nonincreasing in mu and V(mu*) = 0.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rho = solve_rho(dist, mu, W, T, tau, p)
    q = dist.tail_prob(rho)
    if q <= 0.0:
        raise InfeasibleError("stopping probability is zero at this threshold")
    return ((W * T * dist.mean_above(rho) - mu * T * q) / q
            - mu * tau * (1.0 + p) / q)
