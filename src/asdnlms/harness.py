"""Seeded realizations, Monte Carlo campaigns, metrics and aggregation.

A realization executes the synchronous round loop

    decide sampling -> adapt -> transmit/cache -> ACW update (sampled nodes)
    -> combine -> refresh squared-error caches -> update alpha

for the configured number of iterations, recording per-iteration network
MSD, sampled nodes and communications; the operation counts follow from the
sampled nodes through the :mod:`analysis` cost model.  Realizations are
independent; aggregation is an element-wise mean.

All RNG use is keyed by (seed, realization, node, role) so different
policies see identical signal streams — paired comparisons stay paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asdnlms import analysis
from asdnlms.diffusion import SIGMA2_FLOOR
from asdnlms.network import Topology, build_random_geometric, load_edge_list, uniform_weights
from asdnlms.sampling import AS_KINDS, PolicyConfig, draw_active_links, draw_sampled_set
from asdnlms.signals import (
    ROLE_POLICY,
    Environment,
    draw_signal_blocks,
    stream_rng,
)

COMM_UNITS = ("link", "broadcast")


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "random_geometric"
    V: int = 20
    radius: float = 0.35
    edge_list: str | None = None


@dataclass(frozen=True)
class EnvSpec:
    M: int = 50
    sigma2_v_min: float = 0.1
    sigma2_v_max: float = 0.4
    sigma2_v: tuple[float, ...] | None = None
    sigma2_u: float = 1.0
    mu_tilde_min: float = 0.2
    mu_tilde_max: float = 1.0
    mu_tilde: tuple[float, ...] | None = None
    nu: float = 0.2
    delta: float = 1e-5
    flip_iteration: int | None = None


@dataclass(frozen=True)
class RunConfig:
    topology: TopologySpec
    env: EnvSpec
    policy: PolicyConfig
    iterations: int = 20000
    realizations: int = 100
    seed: int = 1
    out_dir: str | None = None
    comm_unit: str = "link"
    label: str | None = None

    def name(self) -> str:
        return self.label or self.policy.kind


def validate_config(cfg: RunConfig) -> None:
    """Reject configurations the engine would not run correctly."""
    t, e = cfg.topology, cfg.env
    if cfg.iterations < 1 or cfg.realizations < 1:
        raise ConfigError("iterations and realizations must be >= 1")
    if cfg.comm_unit not in COMM_UNITS:
        raise ConfigError(f"comm_unit must be one of {COMM_UNITS}")
    if t.kind not in ("random_geometric", "edge_list"):
        raise ConfigError(f"unknown topology kind {t.kind!r}")
    if t.kind == "random_geometric":
        if t.V < 1:
            raise ConfigError("topology.V must be >= 1")
        if t.radius <= 0:
            raise ConfigError("topology.radius must be > 0")
    if t.kind == "edge_list" and not t.edge_list:
        raise ConfigError("topology.edge_list file required for kind=edge_list")
    if e.M < 1:
        raise ConfigError("env.M must be >= 1")
    if e.sigma2_v is None and not 0 < e.sigma2_v_min <= e.sigma2_v_max:
        raise ConfigError("noise profile needs 0 < sigma2_v_min <= sigma2_v_max")
    if e.sigma2_v is not None and any(v < 0 for v in e.sigma2_v):
        raise ConfigError("explicit sigma2_v entries must be >= 0")
    if e.sigma2_u <= 0:
        raise ConfigError("env.sigma2_u must be > 0")
    if e.mu_tilde is None and not 0 < e.mu_tilde_min <= e.mu_tilde_max < 2:
        raise ConfigError("step-size profile needs 0 < mu_tilde_min <= mu_tilde_max < 2")
    if e.mu_tilde is not None and any(not 0 < m < 2 for m in e.mu_tilde):
        raise ConfigError("explicit mu_tilde entries must lie in (0, 2)")
    if not 0 < e.nu <= 1:
        raise ConfigError("env.nu must lie in (0, 1]")
    if e.delta <= 0:
        raise ConfigError("env.delta must be > 0")
    if e.flip_iteration is not None and not 0 < e.flip_iteration < cfg.iterations:
        raise ConfigError("env.flip_iteration must lie strictly inside the run")
    V = _node_count(cfg)
    cfg.policy.validate_for(V)
    if e.sigma2_v is not None and len(e.sigma2_v) != V:
        raise ConfigError(f"explicit sigma2_v must have length V={V}")
    if e.mu_tilde is not None and len(e.mu_tilde) != V:
        raise ConfigError(f"explicit mu_tilde must have length V={V}")


def _node_count(cfg: RunConfig) -> int:
    if cfg.topology.kind == "edge_list":
        return load_edge_list(cfg.topology.edge_list).node_count
    return cfg.topology.V


@dataclass(frozen=True)
class Materialized:
    """Topology, environment and step-size profile pinned by the config seed."""

    topology: Topology
    env: Environment
    mu_tilde: np.ndarray


def materialize(cfg: RunConfig) -> Materialized:
    """Build the shared, realization-independent state deterministically."""
    validate_config(cfg)
    t, e = cfg.topology, cfg.env
    if t.kind == "edge_list":
        top = load_edge_list(t.edge_list)
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


def network_msd(W: np.ndarray, w_opt: np.ndarray) -> float:
    """(1/V) sum_k ||w_opt - w_k||^2 for a (V, M) stack of estimates."""
    dev = w_opt[None, :] - np.atleast_2d(W)
    return float(np.einsum("vm,vm->", dev, dev) / dev.shape[0])


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
    """Array-backed per-iteration record series for one realization."""

    msd: np.ndarray
    sampled: np.ndarray
    comms: np.ndarray
    mults: np.ndarray
    adds: np.ndarray
    sampled_bitmap: np.ndarray  # (T, V) bool: which nodes sampled at each iteration
    states: np.ndarray | None = None  # (T, V, M) combined estimates; debug runs only

    def __len__(self) -> int:
        return self.msd.size


# --- realization engine ------------------------------------------------------


def run_realization(
    cfg: RunConfig,
    realization: int,
    mat: Materialized | None = None,
    record_states: bool = False,
) -> RunSeries:
    """Run one seeded realization of the configured policy.

    A policy is data fixed before the loop: its edge set (self-loops only
    for ``non_cooperative``), its sampler (alpha >= 0 for the adaptive
    kinds, a random V_s draw, or every node) and its transmit rule.  Per
    node, a node transmits iff it samples (``as_censoring``) or always, and
    every node combines the last psi each neighbor transmitted, its own
    included.  Per link (``probabilistic_transmission``), each directed
    link carries psi with probability p into an edge cache.  A link
    communication is one active directed link; a broadcast is one node
    that reaches at least one neighbor.

    Deterministic: identical (cfg, realization) always produce identical
    series.  ``mat`` may be passed to share the materialized network across
    realizations; it is never mutated.  ``record_states`` keeps the full
    (T, V, M) estimate trajectory — debugging aid for short runs.
    """
    if mat is None:
        mat = materialize(cfg)
    top, env, mu_tilde = mat.topology, mat.env, mat.mu_tilde
    pol = cfg.policy
    V, M, T = top.node_count, env.M, cfg.iterations

    inputs, noises = draw_signal_blocks(env, cfg.seed, realization, T)
    policy_rng = stream_rng(cfg.seed, realization, 0, ROLE_POLICY)

    if pol.kind == "non_cooperative":  # the self-loop-only graph
        src_e = dst_e = np.arange(V)
        C = np.eye(V)
    else:
        src_e, dst_e = top.edge_arrays()
        C = uniform_weights(top)
    deg = np.bincount(dst_e, minlength=V)
    seg_start = np.cumsum(deg) - deg  # edges are grouped by receiver
    noself = src_e != dst_e
    src_ns = src_e[noself]

    adaptive = pol.kind in AS_KINDS
    random_subset = pol.kind == "random_sampling"
    per_link = pol.kind == "probabilistic_transmission"
    always_tx = pol.kind != "as_censoring"
    by_link = cfg.comm_unit == "link"

    w_opt = env.w_opt.copy()
    flip_at = env.flip_iteration
    nu = cfg.env.nu
    delta = cfg.env.delta

    W = np.zeros((V, M))
    U = np.zeros((V, M))
    X = np.zeros((V, M))  # per node: the last psi each node transmitted
    cache = np.zeros((src_e.size, M))  # per link: psi_src as last received at dst
    fresh = ~noself  # per link: the self link is always fresh
    S2e = np.ones(src_e.size)
    s = np.ones(V, dtype=bool)  # kept by the samplers that take every node
    if adaptive:
        alpha = np.full(V, pol.alpha_plus)
        eps2 = np.zeros(V)
        # phi'(alpha) inlined below; alpha stays clamped so exp() cannot overflow
        sgm_span = 1.0 / (1.0 + np.exp(-pol.alpha_plus)) - 1.0 / (1.0 + np.exp(pol.alpha_plus))

    msd = np.empty(T)
    comms = np.empty(T, dtype=np.int64)
    bitmap = np.empty((T, V), dtype=bool)
    states = np.empty((T, V, M)) if record_states else None

    for n in range(T):
        if flip_at is not None and n == flip_at:
            w_opt = -w_opt

        # decide
        if adaptive:
            s = alpha >= 0
        elif random_subset:
            s = draw_sampled_set(pol, V, policy_rng).astype(bool)
        s_col = s[:, None]

        # streaming data
        U[:, 1:] = U[:, :-1]
        U[:, 0] = inputs[n]
        d = U @ w_opt + noises[n]

        # adapt
        e = d - np.einsum("vm,vm->v", U, W)
        mu = mu_tilde / (delta + np.einsum("vm,vm->v", U, U))
        PSI = np.where(s_col, W + (mu * e)[:, None] * U, W)

        # transmit
        if per_link:
            links = draw_active_links(pol.p, src_ns, policy_rng)
            fresh[noself] = links
            cache[fresh] = PSI[src_e[fresh]]
            recv = cache
        else:
            tx = s | always_tx
            np.copyto(X, PSI, where=tx[:, None])
            links = tx[src_ns]
            recv = X[src_e]
        if by_link:
            comms[n] = np.count_nonzero(links)
        else:
            comms[n] = np.count_nonzero(np.bincount(src_ns[links], minlength=V))

        # ACW update for sampled nodes (weights of unsampled nodes stay stale)
        diff = recv - W[dst_e]
        d2 = np.einsum("em,em->e", diff, diff)
        upd = s[dst_e]
        S2e[upd] = np.maximum((1.0 - nu) * S2e[upd] + nu * d2[upd], SIGMA2_FLOOR)
        inv = 1.0 / S2e
        colsum = np.bincount(dst_e, weights=inv, minlength=V)
        C[src_e[upd], dst_e[upd]] = (inv / colsum[dst_e])[upd]

        # combine
        if per_link:
            W = np.add.reduceat(C[src_e, dst_e][:, None] * cache, seg_start)
        else:
            W = C.T @ X

        # squared-error caches and alpha
        if adaptive:
            eps2 = np.where(s, e * e, eps2)
            q = C.T @ eps2
            sg = 1.0 / (1.0 + np.exp(-alpha))
            pp = sg * (1.0 - sg) / sgm_span
            alpha = np.clip(
                alpha + pol.mu_s * pp * (q - pol.beta * s),
                -pol.alpha_plus,
                pol.alpha_plus,
            )

        # metrics
        dev = w_opt[None, :] - W
        msd[n] = np.einsum("vm,vm->", dev, dev) / V
        bitmap[n] = s
        if states is not None:
            states[n] = W

    sampled = np.count_nonzero(bitmap, axis=1)
    mults, adds = analysis.network_op_cost(
        M, deg, sampled, np.einsum("tv,v->t", bitmap, deg), adaptive)
    return RunSeries(msd=msd, sampled=sampled, comms=comms, mults=mults, adds=adds,
                     sampled_bitmap=bitmap, states=states)


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


def monte_carlo(cfg: RunConfig, mat: Materialized | None = None,
                smoothing: int = 64) -> MonteCarloResult:
    """Element-wise mean over the configured realizations, plus summaries."""
    if mat is None:
        mat = materialize(cfg)
    T, R = cfg.iterations, cfg.realizations
    acc = {k: np.zeros(T) for k in ("msd", "sampled", "comms", "mults", "adds")}
    for r in range(R):
        series = run_realization(cfg, r, mat)
        acc["msd"] += series.msd
        acc["sampled"] += series.sampled
        acc["comms"] += series.comms
        acc["mults"] += series.mults
        acc["adds"] += series.adds
    for k in acc:
        acc[k] /= R

    msd_db = to_db(acc["msd"])
    msd_db_smoothed = to_db(moving_average(acc["msd"], smoothing))

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
    np.savetxt(path, cols, fmt="%d,%.6f,%.6f,%.6g,%.6g,%.6g,%.6g", header=CSV_HEADER,
               comments="")


def write_manifest(manifest: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in manifest.items()]
    path.write_text("\n".join(lines) + "\n")


def write_sampled_bitmap(series: RunSeries, path: str | Path) -> None:
    """Diagnostic stream: one line per iteration, one 0/1 per node."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for row in series.sampled_bitmap:
            f.write("".join("1" if v else "0" for v in row) + "\n")
