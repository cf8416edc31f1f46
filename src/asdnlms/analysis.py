"""Closed-form steady-state predictions and the cost model of the round.

Everything here is a pure function of (V, beta, sigma2_min, sigma2_max), of
the per-node step-size and noise profiles, or of a block's sampled nodes
and links.  The sampling step size mu_s is absent from every prediction by
construction: the expected number of sampled nodes does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def beta_admissible(beta: float, sigma2_max: float) -> bool:
    """Penalty large enough that every node eventually stops being sampled.

    The boundary beta == sigma2_max is admissible: the sampled-node upper
    bound then equals the full node count.
    """
    if not (0 < beta < math.inf and 0 < sigma2_max < math.inf):
        raise ValueError(f"beta and sigma2_max must be finite and > 0, got {beta} and {sigma2_max}")
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
    if not sigma2_min > 0:
        raise ValueError(f"sigma2_min must be > 0, got {sigma2_min}")
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
    if V < 1:
        raise ValueError(f"V must be >= 1, got {V}")
    return V * sigma2_min / beta, V * sigma2_max / beta


@dataclass(frozen=True)
class SteadyStatePrediction:
    """The closed-form steady-state quantities of one network, in report order."""

    Vs_lower: float
    Vs_upper: float
    theta_max: float
    theta_min: float
    theta_bar_max: float
    theta_bar_min: float
    duty_cycle_lower: float
    duty_cycle_upper: float


def predict(V: int, beta: float, sigma2_min: float, sigma2_max: float) -> SteadyStatePrediction:
    """All steady-state predictions for a (V, beta, noise-profile) triple."""
    t_max, t_min, tb_max, tb_min = thetas = theta_bounds(beta, sigma2_min, sigma2_max)
    return SteadyStatePrediction(*sampled_node_bounds(V, beta, sigma2_min, sigma2_max), *thetas,
                                 duty_cycle_lower=duty_cycle_estimate(t_min, tb_max),
                                 duty_cycle_upper=duty_cycle_estimate(t_max, tb_min))


def nlms_steady_msd(mu_tilde, sigma2_v, sigma2_u, M: int) -> float:
    """Steady-state network MSD of non-cooperative NLMS with white Gaussian regressors.

    The mean over nodes of the NLMS misadjustment

        mu_k sigma2_v,k M / ((2 - mu_k) (M - 2) sigma2_u,k),

    with ``mu_k`` the normalized step size mu_tilde_k.  The factor
    M / (M - 2) is E[1 / ||u||^2] M sigma2_u for a Gaussian regressor of M
    taps, which exists only for M > 2.  Arguments are per-node arrays (or
    scalars); the result is a linear MSD, not dB.
    """
    if M <= 2:
        raise ValueError(f"the NLMS steady state needs M > 2, got M={M}")
    mu = np.asarray(mu_tilde, dtype=float)
    msd = mu * np.asarray(sigma2_v) * M / ((2.0 - mu) * (M - 2) * np.asarray(sigma2_u))
    return float(np.mean(msd))


# --- cost model --------------------------------------------------------------


def block_costs(M: int, bits, src, dst, by_link: bool, censor, adaptive, heard=None):
    """Per-iteration (sampled, comms, mults, adds) of a block, each (B, L) int64.

    ``bits`` is the (B, L, V) sampled-node bitmap, ``src`` and ``dst`` the
    (E,) links the rows run on, self links included, and ``censor`` and
    ``adaptive`` (B, 1) columns of the rows that censor and that run the
    sampling mechanism.  ``heard`` is the (L, B, E) delivered-link mask, true
    on every self link and every link of a censoring row, or None where every
    row hears every link.  A row combines, at each iteration, the links it
    heard.  A censoring row transmits over the non-self links of the nodes
    it samples, any other row over the non-self links it heard: a link
    communication is one such link (``by_link``), a broadcast one node that
    reaches at least one neighbor.

    Per node k, with n_k the links k combines, the adapt arithmetic is paid
    only while k samples and the combine term M n_k always:

        gated dNLMS   s_k (3M + 4) + M n_k    and  s_k (4M + 2) + M n_k - M + 1
        AS-dNLMS      the same plus the mechanism's sum_{i in N_k} s_i + 2  and  n_k + 1

    With every s_k = 1, gated dNLMS is plain dNLMS, M (3 + n_k) + 4 and
    M (3 + n_k) + 3.  Over a symmetric graph the neighbor term sums to
    sum_k s_k |N_k|.
    """
    B, L, V = bits.shape
    ns = src != dst
    out_deg = np.bincount(src[ns], minlength=V)
    unit = out_deg if by_link else np.minimum(out_deg, 1)
    if heard is None:
        D, sent = np.full((B, L), src.size), unit.sum()
    else:
        D = np.count_nonzero(heard, axis=2).T
        if by_link:
            sent = D - V
        else:  # the non-self links grouped by source, one group per transmitter
            order = np.flatnonzero(ns)[np.argsort(src[ns], kind="stable")]
            starts = np.flatnonzero(np.diff(src[order], prepend=-1))
            reached = np.logical_or.reduceat(heard.take(order, axis=2), starts, axis=2)
            sent = np.count_nonzero(reached, axis=2).T
    sampled = np.count_nonzero(bits, axis=2)
    comms = np.where(censor, bits @ unit, sent)
    s_deg = bits @ np.bincount(dst, minlength=V)
    mults = (3 * M + 4) * sampled + M * D + np.where(adaptive, s_deg + 2 * V, 0)
    adds = (4 * M + 2) * sampled + M * D - M * V + V + np.where(adaptive, D + V, 0)
    return sampled, comms, mults, adds
