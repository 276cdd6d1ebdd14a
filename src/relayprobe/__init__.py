"""Throughput-optimal relay probing for two-hop mmWave links under Bernoulli
blockage: link-budget channel model, fixed-point threshold solver, and
renewal-reward Monte Carlo simulator."""

from .channel import RelayRegion, ScenarioConfig, default_scenario
from .sedist import EmpiricalSe, build_empirical
from .simulator import (MYOPIC, ExplicitThreshold, FixedBeta,
                        OptimalThreshold, ThroughputEstimate,
                        estimate_throughput, simulate_periods)
from .solver import StoppingSolution, closed_form_onoff, solve_mu_star

__version__ = "0.1.0"
