"""Sampling/transmission policies, their baseline draws and the adaptive sampler's slope.

Each node holds a mixing variable alpha_k mapped through a normalized
sigmoid to s_k in [0, 1]; the node samples its reference signal whenever
s_k >= 0.5 (equivalently alpha_k >= 0).  Alpha descends while the node is
sampled and the weighted squared error in its neighborhood stays below the
penalty beta, and climbs while the node sits idle, so every idle node is
eventually re-sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# policy kind -> the parameters it takes, each required (alpha_plus has a default)
POLICY_PARAMS = {
    "full": (),
    "as_sampling": ("beta", "mu_s", "alpha_plus"),
    "as_censoring": ("beta", "mu_s", "alpha_plus"),
    "random_sampling": ("V_s",),
    "probabilistic_transmission": ("p",),
    "non_cooperative": (),
}
POLICY_KINDS = tuple(POLICY_PARAMS)

AS_KINDS = ("as_sampling", "as_censoring")

DEFAULT_ALPHA_PLUS = 4.0
# the largest alpha_plus: cosh(alpha) in phi_prime overflows above about 710
MAX_ALPHA_PLUS = 700.0


def phi_prime(alpha, alpha_plus: float = DEFAULT_ALPHA_PLUS):
    """Slope of the normalized sigmoid phi that maps alpha to s in [0, 1].

    With sgm(x) = 1 / (1 + e^-x) and span = sgm(alpha_plus) - sgm(-alpha_plus),
    phi(alpha) = (sgm(alpha) - sgm(-alpha_plus)) / span, so
    phi'(alpha) = sgm(alpha) (1 - sgm(alpha)) / span > 0.  Since
    sgm(alpha) (1 - sgm(alpha)) = 1 / (2 (1 + cosh alpha)) and
    span = tanh(alpha_plus / 2), it is computed as
    (0.5 / tanh(alpha_plus / 2)) / (1 + cosh alpha): three array operations.
    The engine's alpha update calls this function.
    """
    return (0.5 / math.tanh(0.5 * alpha_plus)) / (1.0 + np.cosh(alpha))


@dataclass(frozen=True)
class PolicyConfig:
    """Which sampling/censoring strategy a run uses, plus its parameters.

    Parameters must be present exactly when POLICY_PARAMS lists them for
    the kind; alpha_plus defaults to DEFAULT_ALPHA_PLUS, at most MAX_ALPHA_PLUS.
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
        required = POLICY_PARAMS[self.kind]
        if self.kind in AS_KINDS and self.alpha_plus is None:
            object.__setattr__(self, "alpha_plus", DEFAULT_ALPHA_PLUS)
        for name in (f.name for f in fields(self) if f.name != "kind"):
            val = getattr(self, name)
            if name in required and val is None:
                raise ValueError(f"policy {self.kind!r} requires parameter {name!r}")
            if name not in required and val is not None:
                raise ValueError(f"policy {self.kind!r} does not take parameter {name!r}")
        if self.kind in AS_KINDS and not all(0 < v < math.inf
                                             for v in (self.beta, self.mu_s, self.alpha_plus)):
            raise ValueError("beta, mu_s and alpha_plus must be finite and > 0")
        if self.kind in AS_KINDS and self.alpha_plus > MAX_ALPHA_PLUS:
            raise ValueError(f"alpha_plus must be <= {MAX_ALPHA_PLUS:g}, got {self.alpha_plus:g}")
        if self.kind == "random_sampling" and self.V_s < 1:
            raise ValueError("V_s must be >= 1")
        if self.kind == "probabilistic_transmission" and not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")

    def validate_for(self, V: int) -> None:
        if self.kind == "random_sampling" and self.V_s > V:
            raise ValueError(f"V_s={self.V_s} exceeds node count V={V}")


def draw_sampled_set(policy: PolicyConfig, V: int, rng: np.random.Generator,
                     iterations: int = 1) -> np.ndarray:
    """(iterations, V) sampled-node masks of random_sampling.

    Exactly V_s nodes per iteration, uniformly: the V_s smallest of V
    uniform draws.  All iterations come from one draw of (iterations, V)
    uniforms, so drawing a run in blocks gives the same subsets as drawing
    it whole or one iteration at a time.  The other kinds sample every node
    or decide from alpha, so they draw nothing here.
    """
    u = rng.random((iterations, V))
    s = np.zeros((iterations, V), dtype=bool)
    np.put_along_axis(s, np.argpartition(u, policy.V_s - 1, axis=1)[:, :policy.V_s],
                      True, axis=1)
    return s


def draw_active_links(p: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) activation of each directed link, an array of the given shape."""
    return rng.random(shape) < p
