"""Seeded realizations, Monte Carlo campaigns, metrics and aggregation.

A realization runs the synchronous round for the configured number of
iterations, as the list of steps :func:`run_batch` builds for its batch:

    decide -> adapt -> [censor] -> transmit -> [deliver] -> ACW -> combine
           -> update_alpha

decide and update_alpha when some row is adaptive, censor when some row
censors, deliver when some row hears through a delivered-link mask; the
ACW updates the variances at the sampled receivers of the links that
delivered.  The loop records each iteration's network MSD; every counter
follows per block from the sampled-node bitmap and the delivered links,
through :func:`analysis.block_costs`.  Realizations are independent: a
campaign runs the (variant, realization) rows of variants that share a
network in batches of at most CHUNK rows, one loop over (B, V, M) arrays
each, run by this process and the forked workers of :mod:`parallel` on the
CPUs it may use; aggregation is an element-wise mean per variant in
realization order.

All RNG use is keyed by (seed, realization, node, role) so different
policies see identical signal streams — paired comparisons stay paired.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, make_dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from asdnlms import analysis
from asdnlms.config import EnvSpec, RunConfig, TopologySpec, check_config, check_node_profiles
from asdnlms.network import (
    Topology,
    build_random_geometric,
    load_edge_list,
    uniform_weights,  # noqa: F401  (unused; perfbench/run.py traces it here)
)
from asdnlms.parallel import _run_batches, usable_cpus
from asdnlms.sampling import (
    AS_KINDS,
    DEFAULT_ALPHA_PLUS,
    POLICY_PARAMS,
    draw_active_links,
    draw_sampled_set,
    phi_prime,
)
from asdnlms.signals import (
    ROLE_POLICY,
    Environment,
    draw_signal_blocks,
    signal_streams,
    stream_rng,
)

# The floor of the ACW variances.  Noiseless runs reach it, as their link
# distances go to 0 (or round below 0 in Gram form); no noisy run measured has.
SIGMA2_FLOOR = 1e-12

# The per-iteration counters of a run, in output order: sampled nodes,
# communications, multiplications and additions.
COUNTERS = ("sampled", "comms", "mults", "adds")


@dataclass(frozen=True)
class Materialized:
    """Topology, environment and step-size profile pinned by the config seed."""

    topology: Topology
    env: Environment
    mu_tilde: np.ndarray


def materialize(cfg: RunConfig) -> Materialized:
    """Build the shared, realization-independent state deterministically.

    It makes every check of the config on every call: :func:`check_config`,
    then, for an edge-list topology, the node profiles against the graph its
    file holds.  A config that cannot be built raises here, before any
    realization runs.  A random geometric network is built once per process
    for the last (seed, topology, env) asked for, so the variants of a
    campaign and consecutive campaigns on one network share one
    ``Materialized``; its arrays are read-only.  An edge-list file is read on
    every call, since it may change between calls.
    """
    check_config(cfg)
    if cfg.topology.kind == "edge_list":
        top = load_edge_list(cfg.topology.edge_list)
        check_node_profiles(cfg, top.node_count)
        return _materialized(top, cfg.seed, cfg.env)
    return _random_geometric(cfg.seed, cfg.topology, cfg.env)


@lru_cache(maxsize=1)
def _random_geometric(seed: int, t: TopologySpec, e: EnvSpec) -> Materialized:
    """The network of a random geometric config, keyed by all its build reads."""
    top = build_random_geometric(t.V, t.radius, np.random.SeedSequence((seed, 1)))
    return _materialized(top, seed, e)


def _materialized(top: Topology, seed: int, e: EnvSpec) -> Materialized:
    """The environment and step sizes drawn for ``top``, as read-only arrays."""
    V = top.node_count
    env_rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
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
        mu_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        mu_tilde = mu_rng.uniform(e.mu_tilde_min, e.mu_tilde_max, size=V)
    for a in (env.w_opt, env.sigma2_v, env.sigma2_u, mu_tilde):
        a.flags.writeable = False
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
    """A realization's network MSD or alpha became NaN or infinite; ``row`` is its batch row."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


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
    policies=None,
) -> RunSeries:
    """Run seeded realizations side by side, on (B, V, M) state.

    Row b runs realization ``realizations[b]`` under ``policies[b]``, or
    under ``cfg.policy`` when ``policies`` is None.  The rows may be of any
    mix of kinds, provided their adaptive rows share one alpha_plus.  Rows
    of one realization see the same signals.

    A policy is row data fixed before the loop.  A masked row
    (:func:`_batch_links`) hears, at each iteration, its self links and the
    links its block's delivered-link mask holds: the ACW updates only their
    variances, and the combine gives every other link weight 0 through the
    numerator of its inverse variance.  So a ``non_cooperative`` row, whose
    mask holds no link, has c_kk = inv / inv = 1 exactly, and a
    ``probabilistic_transmission`` row is ``non_cooperative`` at p = 0 and
    ``full`` at p = 1, bit for bit.  A row's sampler (alpha >= 0, a random
    V_s draw, or every node) fills its rows of the sampled-node bitmap, and
    a non-adaptive row takes mu_s = beta = 0 in the alpha update, so its
    alpha never moves.  The counters come once per block from
    :func:`analysis.block_costs`, over the bitmap, the batch's links and the
    block's delivered-link mask: a link communication is one directed
    neighbor link that carries an estimate, a broadcast one node that
    reaches at least one neighbor.

    The state is the weight error W - w_opt, from -w_opt (a zero estimate),
    and e = v - u'(W - w_opt): a block carries the noise v, the MSD is
    ||W - w_opt||^2 / V, and a flip adds 2 w_opt to every error once.  The
    ACW distances do not change under the shift and round less in Gram form:
    at V = 20, M = 50 by at most 2e-7 relative, against 6e-4 on estimates.

    The round is the batch's list of steps, each a closure over the
    workspace, built before the first block; a batch makes no call for a
    kind it lacks, nor for a mask that is true everywhere.  The blocks of
    BLOCK iterations come from :func:`_prepared_blocks`, in the process
    that runs the round, in the same arrays, so each iteration's views are
    built once.  Every block checks that the network MSD and the adaptive
    rows' alpha stayed finite and raises :class:`NonFiniteStateError`.
    Every array the loop writes is allocated before the first block and
    written in place (``out=``); an iteration allocates only small arrays.

    Deterministic: a realization's series is the same, bit for bit, in
    whichever batch it runs.  ``mat`` may be passed to share the
    materialized network; it is never mutated.  ``record_states`` keeps the
    full (B, T, V, M) estimate trajectory, a debugging aid for short runs.
    """
    if mat is None:
        mat = materialize(cfg)
    top, env = mat.topology, mat.env
    rs = list(realizations)
    B, V, M, T = len(rs), top.node_count, env.M, cfg.iterations
    pols = [cfg.policy] * B if policies is None else list(policies)
    if len(pols) != B:
        raise ValueError("a batch needs one policy per row")
    kinds = [p.kind for p in pols]
    if len({p.alpha_plus for p in pols if p.kind in AS_KINDS}) > 1:
        raise ValueError("a batch's adaptive rows must share one alpha_plus")
    for p in pols:
        p.validate_for(V)

    # (B, 1) columns of the rows of each kind, fixed before the loop
    ad_col, rand_col, censor_col = (np.isin(kinds, ks)[:, None] for ks in (
        AS_KINDS, "random_sampling", "as_censoring"))
    src_e, dst_e, masked = _batch_links(top, kinds)
    E = src_e.size
    # (B, E) positions in flat (B * V) and (B * V * V) arrays: each link's
    # transmitter, its receiver, and its weight C[b, j, k]
    rows = np.arange(B)[:, None]
    src_rows, dst_rows = rows * V + src_e, rows * V + dst_e
    jk_rows = rows * V * V + src_e * V + dst_e
    dst_flat = dst_rows.ravel()

    flip_at, w_now, nu = env.flip_iteration, env.w_opt, cfg.env.nu  # w_now: w_opt at n
    gated = (ad_col | rand_col).any()  # some row has a sampler; the others sample every node
    # a censoring row transmits only a sampled node's psi, so only the others gate it
    gated_psi = (rand_col | ad_col & ~censor_col).any()

    # the workspace; W holds the errors w_k - w_opt from the zero estimate (one W
    # suffices: nothing reads the old W once the combine has written the new one),
    # and X, the other half of XW, the psi each node combines
    X, W = XW = np.empty((2, B, V, M))
    W[...] = -w_now
    W_flat = W.reshape(B, V * M)
    WT = W.transpose(0, 2, 1)
    PSI = X
    e, g = np.empty((2, B, V))  # the error, and a scratch row per node
    g3 = g[:, :, None]
    # The ACW recursion sigma2 <- (1 - nu) sigma2 + nu ||x_j - w_k||^2 per link
    # is coef . terms, one product per realization; the terms are x_j . w_k,
    # ||x_j||^2, ||w_k||^2 and sigma2.  A product over the flattened batch
    # would round a link's sum differently depending on where the link falls
    # in the batch.
    terms = np.empty((4, B, E))
    S2e = terms[3]
    S2e[...] = 1.0
    coef = np.array([-2.0 * nu, nu, nu, 1.0 - nu])
    terms_b = terms.transpose(1, 0, 2)
    inv, tmp, c = np.empty((3, B, E))
    inv_flat = inv.reshape(B * E)
    s_dst = np.empty((B, E), dtype=bool)  # the sampled-node mask at each link's receiver
    # the numerator of the inverse variances: 0 on the links a row does not
    # hear, so that a row that hears only its self link gets c_kk = inv / inv = 1
    num = np.ones((B, E))
    # the Gram matrix G[b, j, k] = x_j . w_k, then ||x_j||^2 and ||w_k||^2, in
    # one buffer, so that one take gathers each link's three terms
    BVV = B * V * V
    gram = np.empty(BVV + 2 * B * V)
    G = gram[:BVV].reshape(B, V, V)
    norms = gram[BVV:].reshape(2, B, V)
    gather = np.stack([jk_rows, BVV + src_rows, BVV + B * V + dst_rows])
    C = np.zeros((B, V, V))
    CT = C.transpose(0, 2, 1)
    C_all, jk_all, c_all = C.reshape(-1), jk_rows.ravel(), c.reshape(-1)

    msd = np.empty((B, T))
    sampled, comms, mults, adds = np.empty((4, B, T), dtype=np.int64)
    bitmap = np.empty((B, T, V), dtype=bool)
    # a block's sampled nodes and MSDs, with iteration l's rows S[l] and msd_l[l]
    sbuf, msd_blk = np.empty((B, BLOCK, V), dtype=bool), np.empty((BLOCK, B))
    sbuf[~(ad_col | rand_col)[:, 0]] = True  # the rows without a sampler
    S, msd_l = list(sbuf.transpose(1, 0, 2)), list(msd_blk)
    rand_rows = np.flatnonzero(rand_col)

    # The steps read the loop's l and s and the per-iteration views of the
    # block's inputs as free variables, and write through out=: an augmented
    # assignment would make the name local to the step.  Every take has valid
    # indices; mode="clip" spares the copy that "raise" makes of out.
    def adapt():  # psi = w + (mu e s) u, where e = d - u'w = v - u'(w - w_opt)
        u = U[l]
        np.vecdot(u, W, out=e)
        np.subtract(v[l], e, out=e)
        np.multiply(mu[l], e, out=g)
        if gated_psi:
            np.multiply(g, s, out=g)
        np.multiply(g3, u, out=PSI)
        np.add(PSI, W, out=PSI)

    def transmit():  # the Gram terms of every link, and the sampled mask at its receiver
        np.matmul(X, WT, out=G)
        np.vecdot(XW, XW, out=norms)
        gram.take(gather, out=terms[:3], mode="clip")
        if gated:
            s.take(dst_e, axis=1, out=s_dst, mode="clip")

    def acw_sampled():  # the links heard at sampled receivers; the others come out unchanged
        np.matmul(coef, terms_b, out=tmp)
        np.maximum(tmp, SIGMA2_FLOOR, out=tmp)
        np.putmask(S2e, s_dst if gated else fresh[l], tmp)

    def acw_all():  # every receiver samples and hears every link
        np.matmul(coef, terms_b, out=tmp)
        np.maximum(tmp, SIGMA2_FLOOR, out=S2e)

    def combine():  # the combination matrix C
        np.divide(num, S2e, out=inv)
        colsum = np.bincount(dst_flat, weights=inv_flat, minlength=B * V)
        np.divide(inv, colsum.take(dst_rows, out=c, mode="clip"), out=c)
        C_all[jk_all] = c_all
        np.matmul(CT, X, out=W)

    steps = [adapt, transmit, acw_sampled if gated or masked.size else acw_all, combine]
    # every node combines the last psi each node transmitted: psi itself
    # unless some row censors
    if censor_col.any():
        PSI = np.empty((B, V, M))
        X[...] = W  # the zero estimate
        S3, every = [s_l[:, :, None] for s_l in S], censor_col.all()
        tx, uncensored = np.empty((B, V, 1), dtype=bool), ~censor_col[:, :, None]

        def censor():  # a censoring row transmits where it samples, any other everywhere
            sent = S3[l] if every else np.logical_or(S3[l], uncensored, out=tx)
            np.copyto(X, PSI, where=sent)

        steps.insert(1, censor)
    if masked.size:
        # a masked row's ACW and combine hear only the links that delivered
        def deliver():
            if gated:
                np.logical_and(s_dst, fresh[l], out=s_dst)
            np.copyto(num, fresh[l])

        steps.insert(steps.index(acw_sampled), deliver)
    if ad_col.any():
        # a non-adaptive row takes mu_s = beta = 0, so its alpha never moves
        alpha_plus = next(p.alpha_plus for p in pols if p.kind in AS_KINDS)
        alpha = np.full((B, V), alpha_plus)
        pp = np.empty((B, V))
        eps2, q = np.zeros((2, B, V, 1))  # columns for the (V, V) @ (V, 1) product
        q0 = q[:, :, 0]
        mu_s, beta = (np.array([[getattr(p, k) or 0.0] for p in pols]) for k in ("mu_s", "beta"))

        # a non-adaptive row's alpha stays at alpha_plus > 0, so it may write
        # alpha >= 0 too, except a random_sampling row (where=True masks nothing)
        decided = ad_col if rand_col.any() else True

        def decide():
            np.greater_equal(alpha, 0, out=s, where=decided)

        def update_alpha():  # from the squared-error caches
            np.putmask(eps2, s, np.multiply(e, e, out=g))
            np.matmul(CT, eps2, out=q)
            np.multiply(phi_prime(alpha, alpha_plus), mu_s, out=pp)
            np.subtract(q0, np.multiply(s, beta, out=g), out=g)
            np.multiply(g, pp, out=g)
            np.add(alpha, g, out=alpha)
            np.maximum(alpha, -alpha_plus, out=alpha)
            np.minimum(alpha, alpha_plus, out=alpha)

        steps = [decide, *steps, update_alpha]
    states = np.empty((B, T, V, M)) if record_states else None
    if record_states:
        def record():
            np.add(W, w_now, out=states[:, n])

        steps.append(record)

    for n0, inputs in zip(range(0, T, BLOCK), _prepared_blocks(cfg, mat, rs, pols)):
        if n0 == 0:  # every block comes in the same arrays, so iteration l's views do too
            U = list(np.moveaxis(sliding_window_view(inputs["taps"], M, axis=2)[:, :, ::-1], 2, 0))
            v, mu = (list(np.moveaxis(inputs[k], 2, 0)) for k in ("v", "mu"))
            fresh = list(inputs.get("fresh", ()))
        L = min(BLOCK, T - n0)
        blk = np.s_[:, n0:n0 + L]
        sbuf[rand_rows, :L] = inputs["bits"][:, :L]

        for l in range(L):
            n = n0 + l
            if n == flip_at:  # w_opt changes sign: every error gains 2 w_opt, once
                W += 2.0 * w_now
                if X is not PSI:
                    X += 2.0 * w_now
                w_now = -w_now
            s = S[l]
            for step in steps:
                step()
            # the squared errors, divided by V once per block
            np.vecdot(W_flat, W_flat, out=msd_l[l])

        np.divide(msd_blk[:L].T, V, out=msd[blk])
        bits = bitmap[blk] = sbuf[:, :L]
        bad = ~np.isfinite(msd[blk])
        if bad.any():
            b, l = np.argwhere(bad)[0]
            raise NonFiniteStateError(
                f"realization {rs[b]}: network MSD is not finite at iteration {n0 + l}", b)
        if ad_col.any():  # and the alpha of every adaptive row
            bad = np.flatnonzero(ad_col[:, 0] & ~np.isfinite(alpha).all(axis=1))
            if bad.size:
                raise NonFiniteStateError(f"realization {rs[bad[0]]}: alpha is not finite "
                                          f"at iteration {n0 + L - 1}", bad[0])

        sampled[blk], comms[blk], mults[blk], adds[blk] = analysis.block_costs(
            M, bits, src_e, dst_e, cfg.comm_unit == "link", censor_col, ad_col,
            inputs["fresh"][:L] if masked.size else None)

    return RunSeries(msd=msd, sampled=sampled, comms=comms, mults=mults, adds=adds,
                     sampled_bitmap=bitmap, states=states)


def _batch_links(top: Topology, kinds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (src, dst) links a batch runs on, and its rows that hear through a mask:
    probabilistic_transmission and non_cooperative rows, except that a batch
    of only non_cooperative rows runs on its self links, E = V, unmasked."""
    src_e, dst_e = top.edge_arrays()
    lonely = np.isin(kinds, "non_cooperative")
    if lonely.all():
        own = src_e == dst_e
        return src_e[own], dst_e[own], np.flatnonzero([])
    return src_e, dst_e, np.flatnonzero(lonely | np.isin(kinds, "probabilistic_transmission"))


def _prepared_blocks(cfg: RunConfig, mat: Materialized, rs, pols):
    """Yield the inputs of a batch's blocks, each block written into the same arrays.

    None of them reads the round's state, w_opt or the flip.  Per row: the
    tap buffer, a block's L inputs at BLOCK-L to BLOCK and the M-1 before
    at BLOCK to BLOCK+M-1, newest first, so that the regressor of iteration
    l is the window at BLOCK-1-l in every block; the noise v and the step
    sizes mu, each drawn and windowed once per distinct realization and
    copied to the rows that share it; and the sampled-node bitmap of each
    random_sampling row.  When the batch has a masked row, also the
    (BLOCK, B, E) delivered-link mask over its links: true on every self
    link and every link of an unmasked row, on the other links a
    probabilistic_transmission row's draws, and false for a non_cooperative
    row, which draws nothing.  Every generator of the batch lives here, so
    its streams are drawn in the same order wherever this runs.
    """
    B, V, M, T = len(rs), mat.topology.node_count, cfg.env.M, cfg.iterations
    distinct = list(dict.fromkeys(rs))
    row_signal = np.array([distinct.index(r) for r in rs])
    streams = signal_streams(cfg.seed, distinct, V)
    policy_rngs = [stream_rng(cfg.seed, r, 0, ROLE_POLICY) for r in rs]
    kinds = [p.kind for p in pols]
    rand_rows = [b for b, k in enumerate(kinds) if k == "random_sampling"]
    pt_rows = np.flatnonzero(np.isin(kinds, "probabilistic_transmission"))
    out = {"taps": np.zeros((B, V, BLOCK + M - 1)), "v": np.zeros((B, V, BLOCK)),
           "mu": np.zeros((B, V, BLOCK)), "bits": np.zeros((len(rand_rows), BLOCK, V), bool)}
    src_e, dst_e, masked = _batch_links(mat.topology, kinds)
    ns = np.flatnonzero(src_e != dst_e)
    if masked.size:
        out["fresh"] = np.ones((BLOCK, B, src_e.size), bool)
        out["fresh"][:, masked[:, None], ns] = False
    taps = np.zeros((len(distinct), V, BLOCK + M - 1))
    for n0 in range(0, T, BLOCK):
        L = min(BLOCK, T - n0)
        work, v_blk = draw_signal_blocks(mat.env, streams, L)
        taps[:, :, BLOCK:] = taps[:, :, :M - 1]  # every block before the last is full
        taps[:, :, BLOCK - L:BLOCK] = work[:, :, ::-1]
        # window BLOCK-1-l is the regressor u(n) of iteration n = n0 + l
        win = sliding_window_view(taps[:, :, BLOCK - L:], M, axis=2)
        uu = np.vecdot(win, win, out=work)
        uu += cfg.env.delta
        mu_blk = np.divide(mat.mu_tilde[:, None], uu, out=uu)[:, :, ::-1]
        taps.take(row_signal, axis=0, out=out["taps"], mode="clip")
        v_blk.take(row_signal, axis=0, out=out["v"][:, :, :L], mode="clip")
        mu_blk.take(row_signal, axis=0, out=out["mu"][:, :, :L], mode="clip")
        for i, b in enumerate(rand_rows):
            out["bits"][i, :L] = draw_sampled_set(pols[b], V, policy_rngs[b], L)
        if pt_rows.size:
            active = np.stack([draw_active_links(pols[b].p, (L, ns.size), policy_rngs[b])
                               for b in pt_rows])
            out["fresh"][:L, pt_rows[:, None], ns] = active.transpose(1, 0, 2)
        yield out


# --- Monte Carlo aggregation -------------------------------------------------


# A campaign's result: its config, a (T,) array of per-iteration means for
# each name in SERIES, its steady-window summaries and its manifest.
SERIES = ("msd", "msd_db", "msd_db_smoothed") + COUNTERS
MonteCarloResult = make_dataclass("MonteCarloResult", ["config", *SERIES, "steady", "manifest"],
                                  namespace={"__module__": __name__})


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


def _campaign_key(cfg: RunConfig) -> RunConfig:
    """What the variants of one campaign share: all but the label and the policy."""
    return replace(cfg, label=None, policy=None)


def _group_key(cfg: RunConfig) -> tuple:
    """What the rows of one batch share: the campaign and alpha_plus, which a
    non-adaptive kind counts as the default."""
    alpha_plus = cfg.policy.alpha_plus
    return _campaign_key(cfg), DEFAULT_ALPHA_PLUS if alpha_plus is None else alpha_plus


def plan_batches(configs, cpus: int) -> list[list[tuple[int, int]]]:
    """A campaign's batches, each a list of (variant index, realization) rows.

    The rows of the variants with one :func:`_group_key`, whatever their
    kinds, run in variant-major order, in batches of CHUNK, key after key
    in the order of their first variants.  While there are fewer batches
    than ``cpus``, the largest (the first of them) splits in halves, unless
    every batch has one row.
    """
    keyed: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        keyed.setdefault(_group_key(cfg), []).append(i)
    plan = []
    for members in keyed.values():
        rows = [(i, r) for i in members for r in range(configs[i].realizations)]
        plan += [rows[k:k + CHUNK] for k in range(0, len(rows), CHUNK)]
    while len(plan) < cpus:
        k = max(range(len(plan)), key=lambda k: len(plan[k]))
        if len(plan[k]) == 1:
            break
        half = (len(plan[k]) + 1) // 2
        plan[k:k + 1] = [plan[k][:half], plan[k][half:]]
    return plan


class VariantGroup:
    """The variants of one campaign, run as the rows of shared batches.

    The variants agree on everything except their label and their policy,
    so they share one network.  Rows are (variant, realization) pairs,
    planned by :func:`plan_batches`: rows of every kind may share a batch,
    with any beta, mu_s, V_s and p, provided its adaptive rows share an
    alpha_plus.  The batches run on :func:`usable_cpus`
    processes, this one and :func:`parallel._run_batches`'s forked workers,
    each of which prepares the blocks of the batches it runs.  This process
    adds each batch's rows in plan order, so each variant sums its own rows
    in realization order and its means are bit-identical to those of a group
    of one, on any number of CPUs.  The rows run lazily, on the first call of :meth:`means`.
    """

    def __init__(self, configs):
        self.configs = list(configs)
        if len({_campaign_key(c) for c in self.configs}) != 1:
            raise ValueError("the variants of a group may differ only in label and policy")
        self._means = None

    def means(self, cfg: RunConfig, mat: Materialized) -> dict[str, np.ndarray]:
        """``cfg``'s per-iteration means over its realizations, one (T,) array per series."""
        if self._means is None:
            self._means = self._run(mat)
        return self._means[self.configs.index(cfg)]

    def _run(self, mat: Materialized) -> list[dict[str, np.ndarray]]:
        cfg = self.configs[0]
        T, R = cfg.iterations, cfg.realizations
        cpus = usable_cpus()
        plan = plan_batches(self.configs, cpus)
        acc = [{k: np.zeros(T) for k in ("msd",) + COUNTERS} for _ in self.configs]

        def run(rows):
            try:
                return run_batch(cfg, [r for _, r in rows], mat,
                                 policies=[self.configs[i].policy for i, _ in rows])
            except NonFiniteStateError as exc:  # name the variant, which may not be cfg
                raise NonFiniteStateError(f"{self.configs[rows[exc.row][0]].name()}, {exc}",
                                          exc.row) from exc

        def take(rows, batch):
            for b, (i, _) in enumerate(rows):  # in realization order, whatever the plan
                for key, a in acc[i].items():
                    a += getattr(batch, key)[b]

        _run_batches(plan, run, take, min(cpus, len(plan)))
        for a in acc:
            for v in a.values():
                v /= R
        return acc


def group_variants(configs) -> list[VariantGroup]:
    """The group of each config: configs that share a network share one group."""
    keyed: dict[RunConfig, list[RunConfig]] = {}
    for cfg in configs:
        keyed.setdefault(_campaign_key(cfg), []).append(cfg)
    groups = {key: VariantGroup(members) for key, members in keyed.items()}
    return [groups[_campaign_key(cfg)] for cfg in configs]


def monte_carlo(cfg: RunConfig, mat: Materialized | None = None,
                group: VariantGroup | None = None) -> MonteCarloResult:
    """Element-wise mean over the configured realizations, plus summaries.

    ``group``, which holds ``cfg``, runs ``cfg``'s realizations together
    with its other variants; without it ``cfg`` is a group of one.  The
    group's batches run the first time one of its variants is asked for;
    every child process is reaped before this returns or raises.
    """
    if mat is None:
        mat = materialize(cfg)
    series = dict((group or VariantGroup([cfg])).means(cfg, mat))
    series["msd_db"] = to_db(series["msd"])
    series["msd_db_smoothed"] = to_db(moving_average(series["msd"]))

    steady = {}
    for name, (lo, hi) in steady_windows(cfg.iterations, cfg.env.flip_iteration).items():
        steady[name] = {"window": (lo, hi)} | {
            k: float(series[k][lo:hi].mean()) for k in COUNTERS + ("msd_db_smoothed",)}

    manifest = build_manifest(cfg, mat, steady)
    return MonteCarloResult(config=cfg, **series, steady=steady, manifest=manifest)


def build_manifest(cfg: RunConfig, mat: Materialized, steady: dict) -> dict:
    """Human-readable echo of the full run: config, drawn profiles, predictions."""
    top, env = mat.topology, mat.env
    m: dict[str, object] = {}
    m["label"] = cfg.name()
    m["policy.kind"] = cfg.policy.kind
    for p in POLICY_PARAMS[cfg.policy.kind]:
        m[f"policy.{p}"] = getattr(cfg.policy, p)
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
        for name, value in asdict(pred).items():
            m[f"predicted.{name}"] = value

    # the closed-form NLMS steady state, for the one policy without cooperation
    if cfg.policy.kind == "non_cooperative" and env.M > 2:
        m["predicted.msd_db"] = float(to_db(analysis.nlms_steady_msd(
            mat.mu_tilde, env.sigma2_v, env.sigma2_u, env.M)))

    for name, summary in steady.items():
        for key, value in summary.items():
            m[f"steady.{name}.{key}"] = "%d:%d" % value if key == "window" else value
    return m


# --- output ------------------------------------------------------------------

CSV_COLUMNS = ("msd_db", "msd_db_smoothed") + COUNTERS
CSV_HEADER = ",".join(("n",) + CSV_COLUMNS)
CSV_ROW = "%d,%.6f,%.6f" + ",%.6g" * len(COUNTERS) + "\n"


def write_csv(result: MonteCarloResult, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = np.column_stack([np.arange(len(result.msd)),
                            *(getattr(result, k) for k in CSV_COLUMNS)])
    # np.savetxt's bytes, formatted from Python floats rather than numpy scalars;
    # in chunks of rows, one % each, so that few of those floats are alive at a time
    with path.open("w") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, len(cols), 256):
            chunk = cols[lo:lo + 256]
            f.write(CSV_ROW * len(chunk) % tuple(chunk.ravel().tolist()))


def write_manifest(manifest: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in manifest.items()]
    path.write_text("\n".join(lines) + "\n")

