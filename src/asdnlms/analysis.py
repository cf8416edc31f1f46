"""Closed-form steady-state predictions and the per-node operation-cost model.

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
#
# Per node k per iteration, with nk = |N_k| (self included).  The adaptive
# variant gates the adapt arithmetic on the node's own sampling state and
# adds the mechanism overhead; the combine term M*nk is always paid.


def dnlms_op_cost(M: int, nk: int) -> tuple[int, int]:
    """(multiplications, additions) for plain diffusion NLMS with ACW weights."""
    return M * (3 + nk) + 4, M * (3 + nk) + 3


def as_dnlms_op_cost(M: int, nk: int, s_k: int, s_neighbors_sum: int) -> tuple[int, int]:
    """(multiplications, additions) for the adaptive-sampling variant.

    ``s_neighbors_sum`` counts the sampled nodes in N_k, self included.
    """
    mults = s_k * (3 * M + 4) + M * nk + s_neighbors_sum + 2
    adds = s_k * (4 * M + 2) + M * nk - M + nk + 2
    return mults, adds


def gated_dnlms_op_cost(M: int, nk: int, s_k: int) -> tuple[int, int]:
    """(multiplications, additions) for dNLMS whose adapt step is externally gated.

    Used for the random-sampling baseline: the adapt/update arithmetic is
    skipped on unsampled nodes but no sampling-mechanism overhead is paid.
    Reduces to the plain dNLMS cost when s_k = 1.
    """
    return s_k * (3 * M + 4) + M * nk, s_k * (4 * M + 2) + M * nk - M + 1


def network_op_cost(M: int, deg, sampled, s_deg, mechanism: bool):
    """Per-iteration (multiplications, additions) summed over the nodes.

    ``deg`` holds each |N_k|; ``sampled`` is sum_k s_k and ``s_deg`` is
    sum_k s_k |N_k|, as scalars or per-iteration arrays.  With the sampling
    ``mechanism`` this is the sum of :func:`as_dnlms_op_cost`, whose
    neighbor term sums to s_deg on a symmetric graph; without it, the sum of
    :func:`gated_dnlms_op_cost`, plain dNLMS when every node samples.
    """
    V, D = deg.size, int(deg.sum())
    mults = (3 * M + 4) * sampled + M * D
    adds = (4 * M + 2) * sampled + M * D - M * V
    if mechanism:
        return mults + s_deg + 2 * V, adds + D + 2 * V
    return mults, adds + V
