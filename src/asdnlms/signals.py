"""Streaming data generation and the non-stationary environment.

Each node observes a scalar Gaussian input stream feeding an M-tap delay
line and a noisy reference d_k(n) = u_k(n)'w_opt + v_k(n).  Input and noise
use decorrelated RNG substreams so that sampling policies can be compared
on paired signal realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def init_environment(
    M: int,
    V: int,
    sigma2_v_range: tuple[float, float] = (0.1, 0.4),
    sigma2_u: float = 1.0,
    seed=0,
    flip_iteration: int | None = None,
) -> Environment:
    """Draw w_opt uniformly on [-1, 1]^M and a per-node noise profile.

    Deterministic for a fixed seed.  The default noise profile spans
    [0.1, 0.4] so the usual parameter choices keyed to the largest noise
    variance keep their numeric relationships.
    """
    if M < 1 or V < 1:
        raise ValueError("M and V must be >= 1")
    lo, hi = sigma2_v_range
    if lo <= 0 or hi <= 0 or lo > hi:
        raise ValueError(f"invalid noise-variance profile [{lo}, {hi}]")
    if sigma2_u <= 0:
        raise ValueError("sigma2_u must be > 0")
    rng = np.random.default_rng(seed)
    w_opt = rng.uniform(-1.0, 1.0, size=M)
    sigma2_v = rng.uniform(lo, hi, size=V)
    return Environment(
        w_opt=w_opt,
        sigma2_v=sigma2_v,
        sigma2_u=np.full(V, float(sigma2_u)),
        flip_iteration=flip_iteration,
    )


def apply_flip(env: Environment, n: int) -> Environment:
    """Negate w_opt in place when n hits the configured flip iteration."""
    if env.flip_iteration is not None and n == env.flip_iteration:
        env.w_opt = -env.w_opt
    return env


@dataclass
class NodeStream:
    """Per-node delay line plus its input/noise generator state.

    Owned by a single realization; never shared.  The delay line shifts by
    exactly one sample per iteration: u_k(n) = [x(n), x(n-1), ..., x(n-M+1)].
    """

    env: Environment
    node: int
    seed: int
    realization: int = 0
    u: np.ndarray = field(init=False)
    _rng_in: np.random.Generator = field(init=False, repr=False)
    _rng_noise: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.u = np.zeros(self.env.M)
        self._rng_in = stream_rng(self.seed, self.realization, self.node, ROLE_INPUT)
        self._rng_noise = stream_rng(self.seed, self.realization, self.node, ROLE_NOISE)

    def advance(self) -> tuple[np.ndarray, float]:
        """Shift in one input sample and produce (u_k(n), d_k(n))."""
        k = self.node
        x = self._rng_in.standard_normal() * np.sqrt(self.env.sigma2_u[k])
        self.u[1:] = self.u[:-1]
        self.u[0] = x
        v = self._rng_noise.standard_normal() * np.sqrt(self.env.sigma2_v[k])
        d = float(self.u @ self.env.w_opt) + v
        return self.u, float(d)


def signal_streams(
    seed: int, realizations, V: int
) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """Input and noise generators of every (realization, node), realization-major.

    They are the substreams NodeStream consumes; a batch keeps them alive
    and :func:`draw_signal_blocks` draws from them one block at a time.
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
