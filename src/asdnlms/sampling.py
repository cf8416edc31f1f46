"""Sampling/transmission policies, their baseline draws and the adaptive sampler's slope.

Each node holds a mixing variable alpha_k mapped through a normalized
sigmoid to s_k in [0, 1]; the node samples its reference signal whenever
s_k >= 0.5 (equivalently alpha_k >= 0).  Alpha descends while the node is
sampled and the weighted squared error in its neighborhood stays below the
penalty beta, and climbs while the node sits idle, so every idle node is
eventually re-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def phi_prime(alpha, alpha_plus: float = DEFAULT_ALPHA_PLUS):
    """Slope of the normalized sigmoid phi that maps alpha to s in [0, 1].

    With sgm(x) = 1 / (1 + e^-x) and span = sgm(alpha_plus) - sgm(-alpha_plus),
    phi(alpha) = (sgm(alpha) - sgm(-alpha_plus)) / span, so
    phi'(alpha) = sgm(alpha) (1 - sgm(alpha)) / span > 0.  alpha is meant to
    lie on the clamped range [-alpha_plus, alpha_plus], where e^-alpha cannot
    overflow.  The engine's alpha update calls this function.
    """
    s = 1.0 / (1.0 + np.exp(-np.asarray(alpha, dtype=float)))
    span = 1.0 / (1.0 + np.exp(-alpha_plus)) - 1.0 / (1.0 + np.exp(alpha_plus))
    return (1.0 - s) * s / span


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
