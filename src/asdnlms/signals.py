"""Streaming data generation and the non-stationary environment.

Each node observes a scalar Gaussian input stream feeding an M-tap delay
line and a noisy reference d_k(n) = u_k(n)'w_opt + v_k(n).  Input and noise
use decorrelated RNG substreams so that sampling policies can be compared
on paired signal realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Role ids for the splittable stream keying (seed, realization, node, role).
ROLE_INPUT = 0
ROLE_NOISE = 1
ROLE_POLICY = 2


def stream_rng(seed: int, realization: int, node: int, role: int) -> np.random.Generator:
    """Counter-style substream keyed by (seed, realization, node, role)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(realization), int(node), int(role))))


@dataclass
class Environment:
    """Optimal system and per-node signal statistics.

    Noise variances must be non-negative; zero is allowed for noiseless
    diagnostics, while drawn profiles are strictly positive.
    """

    w_opt: np.ndarray
    sigma2_v: np.ndarray
    sigma2_u: np.ndarray
    flip_iteration: int | None = None

    def __post_init__(self):
        self.w_opt = np.asarray(self.w_opt, dtype=float)
        self.sigma2_v = np.asarray(self.sigma2_v, dtype=float)
        self.sigma2_u = np.asarray(self.sigma2_u, dtype=float)
        if self.w_opt.ndim != 1 or self.w_opt.size < 1:
            raise ValueError("w_opt must be a non-empty vector")
        if self.sigma2_v.shape != self.sigma2_u.shape:
            raise ValueError("per-node variance arrays must have equal length")
        if np.any(self.sigma2_v < 0):
            raise ValueError("noise variances must be >= 0")
        if np.any(self.sigma2_u <= 0):
            raise ValueError("input variances must be > 0")

    @property
    def M(self) -> int:
        return self.w_opt.size

    @property
    def V(self) -> int:
        return self.sigma2_v.size

    @property
    def sigma2_max(self) -> float:
        return float(self.sigma2_v.max())

    @property
    def sigma2_min(self) -> float:
        return float(self.sigma2_v.min())


def signal_streams(
    seed: int, realizations, V: int
) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """Input and noise generators of every (realization, node), realization-major.

    Each is the (seed, realization, node, role) substream of one node's
    input or noise; a batch keeps them alive and :func:`draw_signal_blocks`
    draws from them one block at a time.
    """
    keys = [(r, k) for r in realizations for k in range(V)]
    return ([stream_rng(seed, r, k, ROLE_INPUT) for r, k in keys],
            [stream_rng(seed, r, k, ROLE_NOISE) for r, k in keys])


def draw_signal_blocks(
    env: Environment, streams: tuple[list, list], iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the next ``iterations`` input and noise samples of every stream.

    ``streams`` comes from :func:`signal_streams` for B realizations; the
    result is two (B, V, iterations) arrays.  Drawing a run in blocks gives
    the same numbers as one draw of the whole run.
    """
    V = env.V
    B = len(streams[0]) // V
    inputs = np.empty((B, V, iterations))
    noises = np.empty((B, V, iterations))
    for out, gens in zip((inputs, noises), streams):
        for g, row in zip(gens, out.reshape(B * V, iterations)):
            g.standard_normal(out=row)
    inputs *= np.sqrt(env.sigma2_u)[:, None]
    noises *= np.sqrt(env.sigma2_v)[:, None]
    return inputs, noises
