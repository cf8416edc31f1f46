"""Seeded realizations, Monte Carlo campaigns, metrics and aggregation.

A realization executes the synchronous round loop

    decide sampling -> adapt -> transmit/cache -> ACW update (sampled nodes)
    -> combine -> refresh squared-error caches -> update alpha

for the configured number of iterations, recording per-iteration network
MSD, sampled nodes and communications; the operation counts follow from the
sampled nodes through the :mod:`analysis` cost model.  Realizations are
independent: a campaign runs them in batches of CHUNK, one loop over
(B, V, M) arrays, and aggregation is an element-wise mean in realization
order.

All RNG use is keyed by (seed, realization, node, role) so different
policies see identical signal streams — paired comparisons stay paired.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from asdnlms import analysis
from asdnlms.config import RunConfig, check_config, check_node_profiles
from asdnlms.network import (
    Topology,
    build_random_geometric,
    load_edge_list,
    uniform_weights,  # noqa: F401  (unused; perfbench/run.py traces it here)
)
from asdnlms.sampling import AS_KINDS, draw_active_links, draw_sampled_set, phi_prime
from asdnlms.signals import (
    ROLE_POLICY,
    Environment,
    draw_signal_blocks,
    signal_streams,
    stream_rng,
)

# Inverse-variance floor: only ever reached when a neighbor's intermediate
# estimate exactly equals the local combined estimate.
SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class Materialized:
    """Topology, environment and step-size profile pinned by the config seed."""

    topology: Topology
    env: Environment
    mu_tilde: np.ndarray


def materialize(cfg: RunConfig) -> Materialized:
    """Build the shared, realization-independent state deterministically.

    It makes every check of the config: :func:`check_config`, then, for an
    edge-list topology, the node profiles against the graph its file
    holds.  A config that cannot be built raises here, before any
    realization runs.
    """
    check_config(cfg)
    t, e = cfg.topology, cfg.env
    if t.kind == "edge_list":
        top = load_edge_list(t.edge_list)
        check_node_profiles(cfg, top.node_count)
    else:
        top = build_random_geometric(t.V, t.radius, np.random.SeedSequence((cfg.seed, 1)))
    V = top.node_count

    env_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    w_opt = env_rng.uniform(-1.0, 1.0, size=e.M)
    if e.sigma2_v is not None:
        sigma2_v = np.asarray(e.sigma2_v, dtype=float)
    else:
        sigma2_v = env_rng.uniform(e.sigma2_v_min, e.sigma2_v_max, size=V)
    env = Environment(
        w_opt=w_opt,
        sigma2_v=sigma2_v,
        sigma2_u=np.full(V, e.sigma2_u),
        flip_iteration=e.flip_iteration,
    )

    if e.mu_tilde is not None:
        mu_tilde = np.asarray(e.mu_tilde, dtype=float)
    else:
        mu_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3)))
        mu_tilde = mu_rng.uniform(e.mu_tilde_min, e.mu_tilde_max, size=V)
    return Materialized(topology=top, env=env, mu_tilde=mu_tilde)


# --- metrics -----------------------------------------------------------------


def moving_average(x: np.ndarray, L: int = 64) -> np.ndarray:
    """Causal length-L uniform average; the first L-1 outputs average the prefix."""
    if L < 1:
        raise ValueError("L must be >= 1")
    x = np.asarray(x, dtype=float)
    n = x.size
    c = np.cumsum(x)
    out = np.empty(n)
    head = min(L, n)
    out[:head] = c[:head] / np.arange(1, head + 1)
    if n > L:
        out[L:] = (c[L:] - c[:-L]) / L
    return out


def to_db(x: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(np.asarray(x, dtype=float), 1e-300))


@dataclass
class RunSeries:
    """Array-backed per-iteration series of one realization.

    A batch's series carry a leading realization axis on every array;
    :meth:`realization` takes out one realization's series.
    """

    msd: np.ndarray
    sampled: np.ndarray
    comms: np.ndarray
    mults: np.ndarray
    adds: np.ndarray
    sampled_bitmap: np.ndarray  # (T, V) bool: which nodes sampled at each iteration
    states: np.ndarray | None = None  # (T, V, M) combined estimates; debug runs only

    def realization(self, b: int) -> RunSeries:
        return RunSeries(**{f.name: None if getattr(self, f.name) is None
                            else getattr(self, f.name)[b] for f in fields(self)})


# --- realization engine ------------------------------------------------------

# Iterations per signal block, and realizations per batch in monte_carlo.
# Besides its (B, T) series and (B, T, V) bitmap, a batch holds 2 * B * V
# live generators and three (B, V, BLOCK + M - 1) block arrays; at B = 8,
# V = 20, M = 50 the larger BLOCK = 256 raised peak memory by about 1 MB
# for no measurable speed.
BLOCK = 128
CHUNK = 8


class NonFiniteStateError(RuntimeError):
    """A realization's network MSD became NaN or infinite."""


def run_realization(
    cfg: RunConfig,
    realization: int,
    mat: Materialized | None = None,
    record_states: bool = False,
) -> RunSeries:
    """Run one seeded realization: :func:`run_batch` on a batch of one."""
    return run_batch(cfg, [realization], mat, record_states).realization(0)


def run_batch(
    cfg: RunConfig,
    realizations,
    mat: Materialized | None = None,
    record_states: bool = False,
) -> RunSeries:
    """Run seeded realizations side by side, on (B, V, M) state.

    A policy is data fixed before the loop: its edge set (self-loops only
    for ``non_cooperative``), its sampler (alpha >= 0 for the adaptive
    kinds, a random V_s draw, or every node) and its transmit rule.  Per
    node, a node transmits iff it samples (``as_censoring``) or always, and
    every node combines the last psi each neighbor transmitted, its own
    included.  Per link (``probabilistic_transmission``), each directed
    link carries psi with probability p into the receiver's link cache.  A
    link communication is one active directed link; a broadcast is one node
    that reaches at least one neighbor.

    Signals are drawn in blocks of BLOCK iterations; each block's
    regressors are windows of one tap buffer, and its references d and step
    sizes mu are computed before its iterations run.  The masks of a block
    are set before it too: the sampled-node bitmap of a non-adaptive
    sampler (a random sampler's V_s subsets come from one draw per
    realization) and the fresh-link mask of probabilistic transmission.
    Every block checks that the network MSD stayed finite and raises
    :class:`NonFiniteStateError` otherwise.

    Workspace: every array the round loop writes is allocated once per
    call, before the first block, and each iteration writes into it in
    place (``out=``).  The link cache of probabilistic transmission is
    padded, (B, V, D, M) with D = max |N_k|: receiver k's links fill its
    first |N_k| slots in edge order, and a pad slot is never fresh, holds
    zeros and gets weight 0 through the 0/1 numerator of its inverse
    variance.  Its ACW terms take the per-node Gram form, with a batched
    ``cache . w_k`` product and a per-slot ``||x_j||^2`` refreshed with the
    cache, and its combine is one batched (1 x D) @ (D x M) product per
    receiver divided by the weights' sum.  Both products cost
    O(B V D M), so a graph with one hub pays for padding at every node.
    An iteration allocates only small arrays: per node, the (B * V) column
    sums of the ACW weights, which ``np.bincount`` returns; for the
    adaptive kinds, the (B, V) slope :func:`sampling.phi_prime` returns
    and the temporary of its ``1 + cosh(alpha)``; and, per link, the
    indices of the iteration's fresh slots and their transmitters, and the
    psi rows and squared norms they carry.  The ACW variances of all links
    take one product per realization, the recursion's coefficients
    ``[-2 nu, nu, nu, 1 - nu]`` times the terms.  The workspace is local to
    the call.

    Deterministic: a realization's series is the same, bit for bit, in
    whichever batch it runs.  ``mat`` may be passed to share the
    materialized network; it is never mutated.  ``record_states`` keeps the
    full (B, T, V, M) estimate trajectory, a debugging aid for short runs.
    """
    if mat is None:
        mat = materialize(cfg)
    top, env, mu_tilde = mat.topology, mat.env, mat.mu_tilde
    pol = cfg.policy
    rs = list(realizations)
    B, V, M, T = len(rs), top.node_count, env.M, cfg.iterations

    streams = signal_streams(cfg.seed, rs, V)
    policy_rngs = [stream_rng(cfg.seed, r, 0, ROLE_POLICY) for r in rs]

    if pol.kind == "non_cooperative":  # the self-loop-only graph
        src_e = dst_e = np.arange(V)
    else:
        src_e, dst_e = top.edge_arrays()
    E = src_e.size
    deg = np.bincount(dst_e, minlength=V)
    noself = src_e != dst_e
    src_ns = src_e[noself]
    out_deg = np.bincount(src_ns, minlength=V)
    # (B, E) positions in flat (B * V) and (B * V * V) arrays: each link's
    # transmitter, its receiver, and its weight C[b, j, k]
    rows = np.arange(B)[:, None]
    src_rows, dst_rows = rows * V + src_e, rows * V + dst_e
    jk = src_e * V + dst_e
    jk_rows = rows * V * V + jk
    dst_flat = dst_rows.ravel()

    adaptive = pol.kind in AS_KINDS
    random_subset = pol.kind == "random_sampling"
    every = not (adaptive or random_subset)  # every node samples: no sampled-node mask
    per_link = pol.kind == "probabilistic_transmission"
    always_tx = pol.kind != "as_censoring"
    by_link = cfg.comm_unit == "link"
    D = int(deg.max())
    N = V * D if per_link else E  # the ACW terms: per link slot, or per link

    # (B, V, M) and contiguous, so the deviation W - w_opt is one contiguous call
    w_opt = np.broadcast_to(env.w_opt, (B, V, M)).copy()
    flip_at = env.flip_iteration
    nu = cfg.env.nu
    delta = cfg.env.delta

    # the workspace; one W suffices, as nothing reads the old W once the
    # combine has written the new one
    W = np.zeros((B, V, M))
    WT = W.transpose(0, 2, 1)
    PSI = np.empty((B, V, M))
    dev = np.empty((B, V, M))
    dev_flat = dev.reshape(B, V * M)
    e, g = np.empty((2, B, V))  # the error, and a scratch row per node
    g3 = g[:, :, None]
    # The ACW recursion sigma2 <- (1 - nu) sigma2 + nu ||x_j - w_k||^2 per link
    # (or link slot) is coef . terms, one product per realization; the terms
    # are x_j . w_k, ||x_j||^2, ||w_k||^2 and sigma2.  A product over the
    # flattened batch would round a link's sum differently depending on where
    # the link falls in the batch.
    terms = np.zeros((4, B, N))  # a link slot's ||x_j||^2 is 0 before its first delivery
    S2e = terms[3]
    S2e[...] = 1.0
    coef = np.array([-2.0 * nu, nu, nu, 1.0 - nu])
    terms_b = terms.transpose(1, 0, 2)
    inv, tmp = np.empty((2, B, N))
    if not every:
        s_dst = np.empty((B, E), dtype=bool)  # the sampled-node mask at each link's receiver
    if per_link:
        # D slots per receiver: receiver k's links fill its first |N_k| slots in
        # edge order (edges are grouped by receiver); a pad slot is never fresh,
        # holds zeros and gets weight 0
        slot = dst_e * D + np.arange(E) - (np.cumsum(deg) - deg)[dst_e]
        valid = np.zeros(N)
        valid[slot] = 1.0
        src_slot = np.zeros(N, dtype=np.int64)
        src_slot[slot] = src_e
        # per receiver and slot: psi_src as last received, and its squared norm
        cache = np.zeros((B, V, D, M))
        cache_rows, psi_rows = cache.reshape(B * N, M), PSI.reshape(B * V, M)
        src_flat = (rows * V + src_slot).ravel()
        xw = terms[0].reshape(B, V, D, 1)
        xx_flat = terms[1].reshape(B * N)
        ww_slots = terms[2].reshape(B, V, D)
        W_col, W_row = W[:, :, :, None], W[:, :, None, :]
        psi2, ww, colsum = np.empty((3, B, V))
        psi2_flat, colsum3 = psi2.reshape(B * V), colsum[:, :, None]
        inv_row, inv_slots = inv.reshape(B, V, 1, D), inv.reshape(B, V, D)
        ones_D = np.ones(D)
        fresh = np.zeros((BLOCK, B, N), dtype=bool)  # per iteration and slot
        fresh[:, :, slot[~noself]] = True  # the self link is always fresh
        slot_ns = slot[noself]
    else:
        c = np.empty((B, E))
        inv_flat = inv.reshape(B * E)
        # per node: the last psi each node transmitted, psi itself when all do
        X = PSI if always_tx else np.zeros((B, V, M))
        # the Gram matrix G[b, j, k] = x_j . w_k, then ||x_j||^2, then ||w_k||^2,
        # in one buffer, so that one take gathers each link's three terms
        BVV = B * V * V
        gram = np.empty(BVV + 2 * B * V)
        G = gram[:BVV].reshape(B, V, V)
        xx, ww = gram[BVV:].reshape(2, B, V)
        gather = np.stack([jk_rows, BVV + src_rows, BVV + B * V + dst_rows])
        C = np.zeros((B, V, V))
        C_flat, CT = C.reshape(B, V * V), C.transpose(0, 2, 1)
    if adaptive:
        alpha = np.full((B, V), pol.alpha_plus)
        pp = np.empty((B, V))
        eps2, q = np.zeros((2, B, V, 1))  # columns for the (V, V) @ (V, 1) product
        q0 = q[:, :, 0]
        mu_s, beta, alpha_plus = pol.mu_s, pol.beta, pol.alpha_plus

    msd = np.empty((B, T))
    sampled, comms, mults, adds = np.empty((4, B, T), dtype=np.int64)
    bitmap = np.empty((B, T, V), dtype=bool)
    if every:
        bitmap[...] = True
    # comms of a transmitting node: its out-links, or one broadcast if it has any
    unit = (out_deg if by_link else out_deg > 0).astype(np.int64)
    states = np.empty((B, T, V, M)) if record_states else None
    taps = np.zeros((B, V, BLOCK + M - 1))  # a block's inputs and the M-1 before, newest first

    for n0 in range(0, T, BLOCK):
        L = min(BLOCK, T - n0)
        blk = np.s_[:, n0:n0 + L]
        # the block's references d and step sizes mu, (B, V, L), computed in place
        work, d_blk = draw_signal_blocks(env, streams, L)
        taps[:, :, L:L + M - 1] = taps[:, :, :M - 1]
        taps[:, :, :L] = work[:, :, ::-1]
        # window L-1-l is the regressor u(n) of iteration n = n0 + l
        win = sliding_window_view(taps[:, :, :L + M - 1], M, axis=2)
        uw = np.vecdot(win, env.w_opt, out=work)[:, :, ::-1]
        if flip_at is not None:
            uw *= np.where(np.arange(n0, n0 + L) < flip_at, 1.0, -1.0)
        d_blk += uw
        uu = np.vecdot(win, win, out=work)
        uu += delta
        mu_blk = np.divide(mu_tilde[:, None], uu, out=uu)[:, :, ::-1]
        # the block's masks
        if random_subset:
            for b, rng in enumerate(policy_rngs):
                bitmap[b, n0:n0 + L] = draw_sampled_set(pol, V, rng, L)
        if per_link:
            links = np.stack([draw_active_links(pol.p, (L, src_ns.size), rng)
                              for rng in policy_rngs])
            fresh[:L, :, slot_ns] = links.transpose(1, 0, 2)
            comms[blk] = _link_comms(links, src_ns, V, by_link)

        for l in range(L):
            n = n0 + l
            if n == flip_at:
                np.negative(w_opt, out=w_opt)

            # decide
            s = bitmap[:, n]
            if adaptive:
                np.greater_equal(alpha, 0, out=s)

            # adapt: psi = w + (mu e s) u
            U = taps[:, :, L - 1 - l:L - 1 - l + M]
            np.vecdot(U, W, out=e)
            np.subtract(d_blk[:, :, l], e, out=e)
            np.multiply(mu_blk[:, :, l], e, out=g)
            if not every:
                g *= s
            np.multiply(g3, U, out=PSI)
            PSI += W

            # transmit, and the ACW terms over each link.  Every take below has
            # valid indices; mode="clip" spares the copy that "raise" makes of out
            if per_link:
                fresh_rows = np.flatnonzero(fresh[l])
                fresh_src = src_flat.take(fresh_rows)
                cache_rows[fresh_rows] = psi_rows.take(fresh_src, axis=0)
                np.vecdot(PSI, PSI, out=psi2)
                xx_flat[fresh_rows] = psi2_flat.take(fresh_src)
                np.matmul(cache, W_col, out=xw)
                np.vecdot(W, W, out=ww)
                np.copyto(ww_slots, ww[:, :, None])
            else:
                if not always_tx:
                    np.copyto(X, PSI, where=s[:, :, None])
                np.matmul(X, WT, out=G)
                np.vecdot(X, X, out=xx)
                np.vecdot(W, W, out=ww)
                gram.take(gather, out=terms[:3], mode="clip")

            # ACW weights of sampled receivers; an idle receiver's come out unchanged
            np.matmul(coef, terms_b, out=tmp)
            if every:
                np.maximum(tmp, SIGMA2_FLOOR, out=S2e)
            else:
                np.maximum(tmp, SIGMA2_FLOOR, out=tmp)
                np.putmask(S2e, s.take(dst_e, axis=1, out=s_dst, mode="clip"), tmp)

            # combine: per link, the weighted sum over a receiver's slots divided
            # by the sum of its weights; per node, the combination matrix C
            if per_link:
                np.divide(valid, S2e, out=inv)
                np.matmul(inv_slots, ones_D, out=colsum)
                np.matmul(inv_row, cache, out=W_row)
                W /= colsum3
            else:
                np.divide(1.0, S2e, out=inv)
                colsum = np.bincount(dst_flat, weights=inv_flat, minlength=B * V)
                np.divide(inv, colsum.take(dst_rows, out=c, mode="clip"), out=c)
                C_flat[:, jk] = c
                np.matmul(CT, X, out=W)

            # squared-error caches and alpha
            if adaptive:
                np.putmask(eps2, s, np.multiply(e, e, out=g))
                np.matmul(CT, eps2, out=q)
                np.multiply(phi_prime(alpha, alpha_plus), mu_s, out=pp)
                np.subtract(q0, np.multiply(s, beta, out=g), out=g)
                g *= pp
                alpha += g
                np.maximum(alpha, -alpha_plus, out=alpha)
                np.minimum(alpha, alpha_plus, out=alpha)

            # metrics: the squared deviations, divided by V once per block
            np.subtract(w_opt, W, out=dev)
            np.vecdot(dev_flat, dev_flat, out=msd[:, n])
            if states is not None:
                states[:, n] = W

        msd[blk] /= V
        bad = ~np.isfinite(msd[blk])
        if bad.any():
            b, l = np.argwhere(bad)[0]
            raise NonFiniteStateError(
                f"realization {rs[b]}: network MSD is not finite at iteration {n0 + l}")

        # the block's counters, from its sampled nodes
        bits = bitmap[blk]
        sampled[blk] = np.count_nonzero(bits, axis=2)
        mults[blk], adds[blk] = analysis.network_op_cost(
            M, deg, sampled[blk], np.einsum("btv,v->bt", bits, deg), adaptive)
        if not per_link:  # a node transmits iff it samples (censoring) or always
            comms[blk] = unit.sum() if always_tx else np.einsum("btv,v->bt", bits, unit)

    return RunSeries(msd=msd, sampled=sampled, comms=comms, mults=mults, adds=adds,
                     sampled_bitmap=bitmap, states=states)


def _link_comms(links: np.ndarray, src: np.ndarray, V: int, by_link: bool) -> np.ndarray:
    """Communications per iteration from (..., links) activations of the links from ``src``."""
    if by_link:
        return np.count_nonzero(links, axis=-1)
    *lead, link = np.nonzero(links)
    reached = np.zeros(links.shape[:-1] + (V,), dtype=bool)
    reached[(*lead, src[link])] = True
    return np.count_nonzero(reached, axis=-1)


# --- Monte Carlo aggregation -------------------------------------------------


@dataclass
class MonteCarloResult:
    config: RunConfig
    msd: np.ndarray
    msd_db: np.ndarray
    msd_db_smoothed: np.ndarray
    sampled: np.ndarray
    comms: np.ndarray
    mults: np.ndarray
    adds: np.ndarray
    steady: dict
    manifest: dict


def steady_windows(iterations: int, flip_iteration: int | None) -> dict[str, tuple[int, int]]:
    """Final-20% windows: of the pre-flip and post-flip segments, or of the run."""
    if flip_iteration is None:
        return {"pre": (iterations - max(iterations // 5, 1), iterations)}
    pre_len = max(flip_iteration // 5, 1)
    post_len = max((iterations - flip_iteration) // 5, 1)
    return {
        "pre": (flip_iteration - pre_len, flip_iteration),
        "post": (iterations - post_len, iterations),
    }


def monte_carlo(cfg: RunConfig, mat: Materialized | None = None) -> MonteCarloResult:
    """Element-wise mean over the configured realizations, plus summaries."""
    if mat is None:
        mat = materialize(cfg)
    T, R = cfg.iterations, cfg.realizations
    acc = {k: np.zeros(T) for k in ("msd", "sampled", "comms", "mults", "adds")}
    for first in range(0, R, CHUNK):
        batch = run_batch(cfg, range(first, min(first + CHUNK, R)), mat)
        for b in range(batch.msd.shape[0]):  # in realization order, whatever CHUNK is
            for k in acc:
                acc[k] += getattr(batch, k)[b]
    for k in acc:
        acc[k] /= R

    msd_db = to_db(acc["msd"])
    msd_db_smoothed = to_db(moving_average(acc["msd"]))

    windows = steady_windows(T, cfg.env.flip_iteration)
    steady = {}
    for name, (lo, hi) in windows.items():
        sl = slice(lo, hi)
        steady[name] = {
            "window": (lo, hi),
            "sampled": float(acc["sampled"][sl].mean()),
            "comms": float(acc["comms"][sl].mean()),
            "mults": float(acc["mults"][sl].mean()),
            "adds": float(acc["adds"][sl].mean()),
            "msd_db_smoothed": float(msd_db_smoothed[sl].mean()),
        }

    manifest = build_manifest(cfg, mat, steady)
    return MonteCarloResult(
        config=cfg,
        msd=acc["msd"],
        msd_db=msd_db,
        msd_db_smoothed=msd_db_smoothed,
        sampled=acc["sampled"],
        comms=acc["comms"],
        mults=acc["mults"],
        adds=acc["adds"],
        steady=steady,
        manifest=manifest,
    )


def build_manifest(cfg: RunConfig, mat: Materialized, steady: dict) -> dict:
    """Human-readable echo of the full run: config, drawn profiles, predictions."""
    top, env = mat.topology, mat.env
    m: dict[str, object] = {}
    m["label"] = cfg.name()
    m["policy.kind"] = cfg.policy.kind
    for p in ("beta", "mu_s", "alpha_plus", "V_s", "p"):
        val = getattr(cfg.policy, p)
        if val is not None:
            m[f"policy.{p}"] = val
    m["run.iterations"] = cfg.iterations
    m["run.realizations"] = cfg.realizations
    m["run.seed"] = cfg.seed
    m["run.comm_unit"] = cfg.comm_unit
    m["topology.kind"] = cfg.topology.kind
    m["topology.V"] = top.node_count
    if cfg.topology.kind == "random_geometric":
        m["topology.radius"] = cfg.topology.radius
    deg = top.degrees()
    m["topology.links"] = int((deg - 1).sum() // 2)
    m["topology.degree_min"] = int(deg.min())
    m["topology.degree_mean"] = float(deg.mean())
    m["topology.degree_max"] = int(deg.max())
    m["env.M"] = env.M
    m["env.nu"] = cfg.env.nu
    m["env.delta"] = cfg.env.delta
    m["env.flip_iteration"] = cfg.env.flip_iteration
    m["env.sigma2_u"] = cfg.env.sigma2_u
    m["drawn.sigma2_v"] = ",".join(f"{v:.6g}" for v in env.sigma2_v)
    m["drawn.mu_tilde"] = ",".join(f"{v:.6g}" for v in mat.mu_tilde)
    m["drawn.sigma2_v_min"] = env.sigma2_min
    m["drawn.sigma2_v_max"] = env.sigma2_max

    # the bounds are defined only for an admissible beta and a noisy profile
    if cfg.policy.kind in AS_KINDS and cfg.policy.beta >= env.sigma2_max and env.sigma2_min > 0:
        pred = analysis.predict(top.node_count, cfg.policy.beta, env.sigma2_min, env.sigma2_max)
        m["predicted.Vs_lower"] = pred.Vs_lower
        m["predicted.Vs_upper"] = pred.Vs_upper
        m["predicted.theta_max"] = pred.theta_max
        m["predicted.theta_min"] = pred.theta_min
        m["predicted.theta_bar_max"] = pred.theta_bar_max
        m["predicted.theta_bar_min"] = pred.theta_bar_min
        m["predicted.duty_cycle_lower"] = pred.duty_cycle_lower
        m["predicted.duty_cycle_upper"] = pred.duty_cycle_upper

    for name, summary in steady.items():
        lo, hi = summary["window"]
        m[f"steady.{name}.window"] = f"{lo}:{hi}"
        for key in ("sampled", "comms", "mults", "adds", "msd_db_smoothed"):
            m[f"steady.{name}.{key}"] = summary[key]
    return m


# --- output ------------------------------------------------------------------

CSV_HEADER = "n,msd_db,msd_db_smoothed,sampled,comms,mults,adds"
CSV_ROW = "%d,%.6f,%.6f,%.6g,%.6g,%.6g,%.6g\n"


def write_csv(result: MonteCarloResult, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = np.column_stack(
        [
            np.arange(len(result.msd)),
            result.msd_db,
            result.msd_db_smoothed,
            result.sampled,
            result.comms,
            result.mults,
            result.adds,
        ]
    )
    # np.savetxt's bytes, formatted from Python floats rather than numpy scalars;
    # in chunks of rows, so that few of those floats are alive at a time
    with path.open("w") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, len(cols), 256):
            f.write("".join(CSV_ROW % tuple(row) for row in cols[lo:lo + 256].tolist()))


def write_manifest(manifest: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in manifest.items()]
    path.write_text("\n".join(lines) + "\n")

