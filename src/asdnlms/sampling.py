"""Adaptive node-sampling decisions and baseline sampling/transmission policies.

Each node holds a mixing variable alpha_k mapped through a normalized
sigmoid to s_k in [0, 1]; the node samples its reference signal whenever
s_k >= 0.5 (equivalently alpha_k >= 0).  Alpha descends while the node is
sampled and the weighted squared error in its neighborhood stays below the
penalty beta, and climbs while the node sits idle, so every idle node is
eventually re-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

POLICY_KINDS = (
    "full",
    "as_sampling",
    "as_censoring",
    "random_sampling",
    "probabilistic_transmission",
    "non_cooperative",
)

AS_KINDS = ("as_sampling", "as_censoring")

DEFAULT_ALPHA_PLUS = 4.0


def _sgm(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def phi(alpha, alpha_plus: float = DEFAULT_ALPHA_PLUS):
    """Normalized sigmoid mapping alpha to s in [0, 1]; phi(+a)=1, phi(-a)=0."""
    lo = _sgm(-alpha_plus)
    hi = _sgm(alpha_plus)
    return (_sgm(alpha) - lo) / (hi - lo)


def phi_prime(alpha, alpha_plus: float = DEFAULT_ALPHA_PLUS):
    """Derivative of :func:`phi`; strictly positive."""
    s = _sgm(alpha)
    return s * (1.0 - s) / (_sgm(alpha_plus) - _sgm(-alpha_plus))


def decide(alpha):
    """Sampling decision: 1 iff alpha >= 0 (s = 0.5 falls on the sampled side)."""
    return np.where(np.asarray(alpha) >= 0, 1, 0) if np.ndim(alpha) else int(alpha >= 0)


def update_alpha_value(alpha, weighted_eps2, sampled, beta, mu_s, alpha_plus):
    """One stochastic-gradient step on alpha, clamped to [-alpha_plus, alpha_plus].

    ``weighted_eps2`` is sum_i c_ik eps2_i over the neighborhood, using each
    neighbor's latest available squared error.
    """
    step = mu_s * phi_prime(alpha, alpha_plus) * (weighted_eps2 - beta * sampled)
    return np.clip(alpha + step, -alpha_plus, alpha_plus)


@dataclass
class SamplerState:
    """Sampling-mechanism state owned by one node.

    ``eps2`` caches, per neighbor, the squared error from the most recent
    iteration at which that neighbor was sampled.
    """

    beta: float
    mu_s: float
    alpha_plus: float = DEFAULT_ALPHA_PLUS
    alpha: float = field(default=None)  # defaults to alpha_plus: start sampled
    s_bar: int = 1
    eps2: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.beta <= 0 or self.mu_s <= 0 or self.alpha_plus <= 0:
            raise ValueError("beta, mu_s and alpha_plus must be > 0")
        if self.alpha is None:
            self.alpha = self.alpha_plus
        self.alpha = float(np.clip(self.alpha, -self.alpha_plus, self.alpha_plus))

    def decide(self) -> int:
        self.s_bar = decide(self.alpha)
        return self.s_bar

    def refresh_eps(self, i: int, e_i: float | None, sampled_i: int) -> None:
        """Record neighbor i's squared error when it was sampled this iteration."""
        if sampled_i:
            self.eps2[i] = float(e_i) ** 2

    def update_alpha(self, weights: Mapping[int, float]) -> float:
        q = sum(weights[i] * self.eps2.get(i, 0.0) for i in weights)
        self.alpha = float(
            update_alpha_value(self.alpha, q, self.s_bar, self.beta, self.mu_s, self.alpha_plus)
        )
        return self.alpha


@dataclass(frozen=True)
class PolicyConfig:
    """Which sampling/censoring strategy a run uses, plus its parameters.

    Parameters must be present exactly when the kind requires them:
    beta/mu_s/alpha_plus for the adaptive-sampling kinds, V_s for random
    sampling, p for probabilistic transmission.
    """

    kind: str
    beta: float | None = None
    mu_s: float | None = None
    alpha_plus: float | None = None
    V_s: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        required = {
            "as_sampling": ("beta", "mu_s", "alpha_plus"),
            "as_censoring": ("beta", "mu_s", "alpha_plus"),
            "random_sampling": ("V_s",),
            "probabilistic_transmission": ("p",),
        }.get(self.kind, ())
        if self.kind in AS_KINDS and self.alpha_plus is None:
            object.__setattr__(self, "alpha_plus", DEFAULT_ALPHA_PLUS)
        for name in ("beta", "mu_s", "alpha_plus", "V_s", "p"):
            val = getattr(self, name)
            if name in required and val is None:
                raise ValueError(f"policy {self.kind!r} requires parameter {name!r}")
            if name not in required and val is not None:
                raise ValueError(f"policy {self.kind!r} does not take parameter {name!r}")
        if self.kind in AS_KINDS and (self.beta <= 0 or self.mu_s <= 0 or self.alpha_plus <= 0):
            raise ValueError("beta, mu_s and alpha_plus must be > 0")
        if self.kind == "random_sampling" and self.V_s < 1:
            raise ValueError("V_s must be >= 1")
        if self.kind == "probabilistic_transmission" and not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")

    def validate_for(self, V: int) -> None:
        if self.kind == "random_sampling" and self.V_s > V:
            raise ValueError(f"V_s={self.V_s} exceeds node count V={V}")


def draw_sampled_set(policy: PolicyConfig, V: int, rng: np.random.Generator,
                     iterations: int = 1) -> np.ndarray:
    """(iterations, V) sampled-node masks for the non-adaptive policies.

    full / non_cooperative / probabilistic_transmission sample everyone.
    random_sampling picks exactly V_s nodes per iteration, uniformly: the
    V_s smallest of V uniform draws.  All iterations come from one draw
    of (iterations, V) uniforms, so drawing a run in blocks gives the same
    subsets as drawing it whole or one iteration at a time.  Adaptive kinds
    are decided from alpha, not here.
    """
    if policy.kind == "random_sampling":
        u = rng.random((iterations, V))
        s = np.zeros((iterations, V), dtype=bool)
        np.put_along_axis(s, np.argpartition(u, policy.V_s - 1, axis=1)[:, :policy.V_s],
                          True, axis=1)
        return s
    if policy.kind in ("full", "non_cooperative", "probabilistic_transmission"):
        return np.ones((iterations, V), dtype=bool)
    raise ValueError(f"policy {policy.kind!r} decides sampling adaptively")


def draw_active_links(
    p, src: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli activation per directed link, probability indexed by transmitter."""
    p_arr = np.asarray(p, dtype=float)
    return rng.random(src.shape[0]) < (p_arr[src] if p_arr.ndim else float(p_arr))
