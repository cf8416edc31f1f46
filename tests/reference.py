"""Per-node reference semantics of the AS-dNLMS round: the tests' oracle.

The package runs the round in one batched engine, :func:`asdnlms.harness.run_batch`.
This module holds the same round written node by node, with scalar and
vector forms a reader can check against the algorithm line by line, and
:func:`reference_run`, which composes them into a whole realization.  The
tests compare the engine with it; nothing in the package imports it.

One iteration of the adapt-then-combine round, from the point of view of a
single node k:

    e_k   = d_k - u_k' w_k
    psi_k = w_k + mu_k u_k e_k          (adapt; skipped when not sampled)
    sigma2_jk, c_jk updated              (inverse-variance weights; sampled only)
    w_k   = sum_j c_jk psi_j             (combine)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from asdnlms.harness import SIGMA2_FLOOR
from asdnlms.network import Topology
from asdnlms.sampling import (
    AS_KINDS,
    DEFAULT_ALPHA_PLUS,
    draw_active_links,
    draw_sampled_set,
    phi_prime,
)
from asdnlms.signals import (
    ROLE_INPUT,
    ROLE_NOISE,
    ROLE_POLICY,
    Environment,
    draw_signal_blocks,
    signal_streams,
    stream_rng,
)

# --- diffusion: one node's estimator ------------------------------------------


@dataclass
class NodeEstimator:
    """Adaptive-filter state owned by one node."""

    w: np.ndarray
    psi: np.ndarray
    sigma2: dict[int, float]
    mu_tilde: float
    nu: float
    delta: float = 1e-5

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        if not 0 < self.mu_tilde < 2:
            raise ValueError("mu_tilde must lie in (0, 2)")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if not 0 < self.nu <= 1:
            raise ValueError("nu must lie in (0, 1]")


def compute_error(est: NodeEstimator, u: np.ndarray, d: float) -> float:
    """a-priori error e_k = d_k - u_k' w_k."""
    return float(d - u @ est.w)


def nlms_step(w: np.ndarray, u: np.ndarray, e: float, mu_tilde: float, delta: float) -> np.ndarray:
    """Normalized LMS update w + mu u e with mu = mu_tilde / (delta + ||u||^2)."""
    mu = mu_tilde / (delta + float(u @ u))
    return w + mu * e * u


def adapt(est: NodeEstimator, u: np.ndarray, e: float | None, sampled: int) -> np.ndarray:
    """Adapt step; when unsampled the intermediate estimate is a plain copy.

    ``e`` may be None when unsampled — no error or step-size arithmetic
    happens on that path.
    """
    if sampled:
        est.psi = nlms_step(est.w, u, float(e), est.mu_tilde, est.delta)
    else:
        est.psi = est.w.copy()
    return est.psi


def acw_update(
    est: NodeEstimator, neighbor_psis: Mapping[int, np.ndarray]
) -> dict[int, float]:
    """Inverse-variance combination weights for a sampled node.

    Updates sigma2_jk <- (1-nu) sigma2_jk + nu ||psi_j - w_k||^2 for every
    neighbor and renormalizes; greater weight goes to neighbors whose
    intermediate estimates stay close to the local combined one.
    """
    for j, psi_j in neighbor_psis.items():
        diff = psi_j - est.w
        val = (1.0 - est.nu) * est.sigma2[j] + est.nu * float(diff @ diff)
        est.sigma2[j] = max(val, SIGMA2_FLOOR)
    inv = {j: 1.0 / est.sigma2[j] for j in neighbor_psis}
    total = sum(inv.values())
    return {j: inv_j / total for j, inv_j in inv.items()}


def combine(neighbor_psis: Mapping[int, np.ndarray], weights: Mapping[int, float]) -> np.ndarray:
    """Combine step: convex combination of neighborhood intermediate estimates."""
    out = None
    for j, psi_j in neighbor_psis.items():
        term = weights[j] * psi_j
        out = term if out is None else out + term
    return out


def network_msd(W: np.ndarray, w_opt: np.ndarray) -> float:
    """(1/V) sum_k ||w_opt - w_k||^2 for a (V, M) stack of estimates."""
    dev = w_opt[None, :] - np.atleast_2d(W)
    return float(np.einsum("vm,vm->", dev, dev) / dev.shape[0])


# --- sampling: one node's mixing variable -------------------------------------


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


# --- signals: one node's stream -----------------------------------------------


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


# --- network: static combination-weight rules ---------------------------------


def adjacency(top: Topology) -> np.ndarray:
    """Boolean (V, V) matrix with True on every (j, k) with j in N_k."""
    V = top.node_count
    A = np.zeros((V, V), dtype=bool)
    for k, nk in enumerate(top.neighbors):
        A[list(nk), k] = True
    return A


def metropolis_weights(top: Topology) -> np.ndarray:
    """Metropolis rule: C[j, k] = 1/max(|N_k|, |N_j|) off-diagonal, remainder on k."""
    V = top.node_count
    deg = top.degrees()
    C = np.zeros((V, V))
    for k, nk in enumerate(top.neighbors):
        for j in nk:
            if j != k:
                C[j, k] = 1.0 / max(deg[k], deg[j])
        C[k, k] = 1.0 - C[:, k].sum()
    return C


def check_combination_matrix(C: np.ndarray, top: Topology, tol: float = 1e-12) -> None:
    """Validate non-negativity, column-stochasticity and neighborhood support."""
    A = adjacency(top)
    if np.any(C < 0):
        raise ValueError("negative combination weight")
    if np.any(C[~A] != 0):
        raise ValueError("weight outside the neighborhood support")
    colsums = C.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > tol):
        raise ValueError(f"column sums deviate from 1 by more than {tol}")


# --- analysis: the per-node operation-cost model --------------------------------
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


def sent_links(kind: str, links, s, delivered=None) -> list[tuple[int, int]]:
    """The neighbor links (j, k) of ``links`` that carry psi_j this iteration.

    Every link under full and the sampling kinds, a sampled j's links under
    censoring, none without cooperation, and under probabilistic
    transmission the links whose ``delivered`` flag is set.
    """
    if kind == "probabilistic_transmission":
        return [link for link, on in zip(links, delivered) if on]
    if kind == "non_cooperative":
        return []
    return [(j, k) for j, k in links if s[j] or kind != "as_censoring"]


def iteration_counts(kind: str, top: Topology, s, M: int, delivered=None) -> dict[str, int]:
    """One iteration's counters of one realization, summed node by node.

    ``s`` is the sampled-node vector and ``delivered`` flags each neighbor
    link of ``top.edge_arrays()`` under probabilistic transmission.  Node k
    combines its neighborhood, except that a probabilistic or
    non-cooperative node combines its own psi and the links that reached it.
    """
    src, dst = top.edge_arrays()
    links = [(int(j), int(k)) for j, k in zip(src, dst) if j != k]
    sent = sent_links(kind, links, s, delivered)
    counts = {"sampled": int(sum(s)), "link": len(sent), "broadcast": len({j for j, _ in sent}),
              "mults": 0, "adds": 0}
    for k, nbrs in enumerate(top.neighbors):
        nk = len(nbrs)
        if kind in ("probabilistic_transmission", "non_cooperative"):
            nk = 1 + sum(dst_k == k for _, dst_k in sent)
        if kind in AS_KINDS:
            cost = as_dnlms_op_cost(M, nk, int(s[k]), int(sum(s[i] for i in nbrs)))
        else:
            cost = gated_dnlms_op_cost(M, nk, int(s[k]))
        counts["mults"] += cost[0]
        counts["adds"] += cost[1]
    return counts


# --- a whole realization ----------------------------------------------------------


def reference_run(cfg, realization, mat):
    """Straightforward per-node loop built from the single-node operations."""
    top, env, mu_tilde = mat.topology, mat.env, mat.mu_tilde
    pol = cfg.policy
    kind = pol.kind
    V, M, T = top.node_count, env.M, cfg.iterations
    if kind == "non_cooperative":
        neighbors = tuple((k,) for k in range(V))
    else:
        neighbors = top.neighbors
    src_e, dst_e = top.edge_arrays()
    noself = src_e != dst_e
    links = list(zip(src_e[noself], dst_e[noself]))
    inputs, noises = (a[0].T for a in draw_signal_blocks(
        env, signal_streams(cfg.seed, [realization], V), T))
    policy_rng = stream_rng(cfg.seed, realization, 0, ROLE_POLICY)

    ests = [
        NodeEstimator(
            w=np.zeros(M), psi=np.zeros(M),
            sigma2={j: 1.0 for j in neighbors[k]},
            mu_tilde=float(mu_tilde[k]), nu=cfg.env.nu, delta=cfg.env.delta,
        )
        for k in range(V)
    ]
    weights = [{j: 1.0 / len(neighbors[k]) for j in neighbors[k]} for k in range(V)]
    adaptive = kind in AS_KINDS
    if adaptive:
        samplers = [SamplerState(beta=pol.beta, mu_s=pol.mu_s, alpha_plus=pol.alpha_plus)
                    for _ in range(V)]
    delay = [np.zeros(M) for _ in range(V)]
    w_opt = env.w_opt.copy()

    W_hist = np.empty((T, V, M))
    s_hist = np.empty((T, V), dtype=int)
    alpha_hist = np.empty((T, V))
    comms = {"link": np.zeros(T, dtype=int), "broadcast": np.zeros(T, dtype=int)}
    for n in range(T):
        if env.flip_iteration is not None and n == env.flip_iteration:
            w_opt = -w_opt
        if adaptive:
            s = np.array([sm.decide() for sm in samplers])
        elif kind == "random_sampling":
            s = draw_sampled_set(pol, V, policy_rng)[0]  # one iteration of the block draw
        else:
            s = np.ones(V, dtype=int)

        errors = {}
        for k in range(V):
            delay[k][1:] = delay[k][:-1]
            delay[k][0] = inputs[n, k]
            d = float(delay[k] @ w_opt) + noises[n, k]
            if s[k]:
                errors[k] = compute_error(ests[k], delay[k], d)
                adapt(ests[k], delay[k], errors[k], 1)
            elif kind != "as_censoring":
                adapt(ests[k], delay[k], None, 0)
            # censoring: psi untouched while idle

        # heard[k][j]: the psi_j that k combines
        if kind == "probabilistic_transmission":
            # k hears its own psi and the links that delivered this iteration
            sent = sent_links(kind, links, s, draw_active_links(pol.p, len(links), policy_rng))
            heard = [{k: ests[k].psi} for k in range(V)]
            for j, k in sent:
                heard[k][j] = ests[j].psi
        else:
            # censoring: an idle node's psi is untouched, so its neighbors
            # hold the one it last transmitted
            sent = sent_links(kind, links, s)
            heard = [{j: ests[j].psi for j in neighbors[k]} for k in range(V)]
        comms["link"][n] = len(sent)
        comms["broadcast"][n] = len({j for j, _ in sent})
        for k in range(V):
            if s[k]:
                weights[k] = acw_update(ests[k], heard[k])
        new_w = [combine(heard[k], weights[k]) for k in range(V)]
        for k in range(V):
            ests[k].w = new_w[k]

        if adaptive:
            for k in range(V):
                for i in neighbors[k]:
                    if s[i]:
                        samplers[k].refresh_eps(i, errors[i], 1)
            for k in range(V):
                samplers[k].s_bar = int(s[k])
                samplers[k].update_alpha(weights[k])
            alpha_hist[n] = [sm.alpha for sm in samplers]
        else:
            alpha_hist[n] = 0.0
        W_hist[n] = np.stack(new_w)
        s_hist[n] = s
    return W_hist, s_hist, alpha_hist, comms
