"""Closed-form steady-state predictions and the network operation-cost model.

Everything here is a pure function of (V, beta, sigma2_min, sigma2_max) or
of per-iteration sampling states.  The sampling step size mu_s is absent
from every prediction by construction: the expected number of sampled
nodes does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def beta_admissible(beta: float, sigma2_max: float) -> bool:
    """Penalty large enough that every node eventually stops being sampled.

    The boundary beta == sigma2_max is admissible: the sampled-node upper
    bound then equals the full node count.
    """
    if beta <= 0 or sigma2_max <= 0:
        raise ValueError("beta and sigma2_max must be > 0")
    return beta >= sigma2_max


def _ratio_or_inf(num: float, den: float) -> float:
    return num / den if den > 0 else math.inf


def theta_bounds(beta: float, sigma2_min: float, sigma2_max: float) -> tuple[float, float, float, float]:
    """(theta_max, theta_min, theta_bar_max, theta_bar_min).

    theta bounds the expected sampled iterations per steady-state duty
    cycle, theta_bar the idle iterations; both floor at 1 because a node is
    sampled at least once per cycle.  beta == sigma2_max yields
    theta_max = +inf (duty cycle 1).
    """
    if sigma2_min <= 0:
        raise ValueError("sigma2_min must be > 0")
    if sigma2_max < sigma2_min:
        raise ValueError("sigma2_max must be >= sigma2_min")
    if not beta_admissible(beta, sigma2_max):
        raise ValueError("requires beta >= sigma2_max")
    theta_max = max(_ratio_or_inf(sigma2_max, beta - sigma2_max), 1.0)
    theta_min = max(_ratio_or_inf(sigma2_min, beta - sigma2_min), 1.0)
    theta_bar_max = max((beta - sigma2_min) / sigma2_min, 1.0)
    theta_bar_min = max((beta - sigma2_max) / sigma2_max, 1.0)
    return theta_max, theta_min, theta_bar_max, theta_bar_min


def duty_cycle_estimate(theta: float, theta_bar: float) -> float:
    """Expected steady-state duty cycle theta / (theta + theta_bar)."""
    if theta < 1 or theta_bar < 1:
        raise ValueError("theta and theta_bar must be >= 1")
    if math.isinf(theta):
        return 1.0
    if math.isinf(theta_bar):
        return 0.0
    return theta / (theta + theta_bar)


def sampled_node_bounds(V: int, beta: float, sigma2_min: float, sigma2_max: float) -> tuple[float, float]:
    """Lower/upper bounds on the expected number of sampled nodes in steady state."""
    return V * sigma2_min / beta, V * sigma2_max / beta


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Bundle of the closed-form steady-state quantities for one network."""

    V: int
    beta: float
    sigma2_min: float
    sigma2_max: float
    theta_max: float
    theta_min: float
    theta_bar_max: float
    theta_bar_min: float
    duty_cycle_upper: float
    duty_cycle_lower: float
    Vs_lower: float
    Vs_upper: float


def predict(V: int, beta: float, sigma2_min: float, sigma2_max: float) -> SteadyStatePrediction:
    """All steady-state predictions for a (V, beta, noise-profile) triple."""
    t_max, t_min, tb_max, tb_min = theta_bounds(beta, sigma2_min, sigma2_max)
    vs_lo, vs_hi = sampled_node_bounds(V, beta, sigma2_min, sigma2_max)
    return SteadyStatePrediction(
        V=V,
        beta=beta,
        sigma2_min=sigma2_min,
        sigma2_max=sigma2_max,
        theta_max=t_max,
        theta_min=t_min,
        theta_bar_max=tb_max,
        theta_bar_min=tb_min,
        duty_cycle_upper=duty_cycle_estimate(t_max, tb_min),
        duty_cycle_lower=duty_cycle_estimate(t_min, tb_max),
        Vs_lower=vs_lo,
        Vs_upper=vs_hi,
    )


# --- operation-cost model ---------------------------------------------------


def network_op_cost(M: int, deg, sampled, s_deg, mechanism: bool):
    """Per-iteration (multiplications, additions) summed over the nodes.

    ``deg`` holds each |N_k| (self included); ``sampled`` is sum_k s_k and
    ``s_deg`` is sum_k s_k |N_k|, as scalars or per-iteration arrays.  Per
    node k, the adapt arithmetic is paid only while k samples and the
    combine term M |N_k| always:

        gated dNLMS   s_k (3M + 4) + M |N_k|    and  s_k (4M + 2) + M |N_k| - M + 1
        AS-dNLMS      the same, plus the sampling mechanism's
                      sum_{i in N_k} s_i + 2    and  |N_k| + 1

    With every s_k = 1, gated dNLMS is plain dNLMS, M (3 + |N_k|) + 4 and
    M (3 + |N_k|) + 3.  The mechanism's neighbor term sums to s_deg over a
    symmetric graph.
    """
    V, D = deg.size, int(deg.sum())
    mults = (3 * M + 4) * sampled + M * D
    adds = (4 * M + 2) * sampled + M * D - M * V
    if mechanism:
        return mults + s_deg + 2 * V, adds + D + 2 * V
    return mults, adds + V
