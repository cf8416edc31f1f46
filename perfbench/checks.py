"""Output checks that need no stored copy of earlier output.

Each check derives what a variant's CSV and manifest must say from the
definitions of the policies, the cost model and the steady-state analysis,
or from an independent plain-numpy ATC-NLMS (``reference_full_msd``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = "n,msd_db,msd_db_smoothed,sampled,comms,mults,adds"
# A steady window must sit this far below the first MSD of its segment.  The
# slowest variant at benchmark size (random_Vs5 at T=1000) drops 5.8-9.3 dB
# over seeds 1-40.
MSD_DROP_DB = 3.0
# Slack on the sampled-node band, as in the repository's acceptance test C1.
BAND_SLACK = 0.5
# Probabilistic transmission: mean comms within this many binomial standard
# errors of p * links.
PT_SIGMAS = 6.0
REFERENCE_ITERATIONS = 300
REFERENCE_RTOL = 1e-8
# Variance floor of the adaptive combination weights (never reached in
# practice: it needs psi_j == w_k exactly).
SIGMA2_FLOOR = 1e-12
ROLE_INPUT, ROLE_NOISE = 0, 1


@dataclass
class Outcome:
    """Check result and work counts of one variant."""

    errors: list[str] = field(default_factory=list)
    iterations: int = 0
    sampled_share: float = 0.0
    comms: float = 0.0
    mults: float = 0.0


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_csv(path: Path) -> np.ndarray:
    with path.open() as f:
        header = f.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"header {header!r} != {CSV_HEADER!r}")
        return np.loadtxt(f, delimiter=",", ndmin=2)


def reference_full_msd(mat, seed: int, realization: int, nu: float, delta: float,
                       iterations: int) -> np.ndarray:
    """Network MSD of the `full` policy from a dense, masked ATC-NLMS.

    Written from the algorithm's definition, not from the package's engine:
    regressors are rebuilt by rolling a delay line, the adaptive combination
    weights are kept as a masked (V, V) variance matrix, and the signals are
    drawn from the documented (seed, realization, node, role) keying.
    """
    neighbors = mat.topology.neighbors
    V = len(neighbors)
    env = mat.env
    w_opt = np.array(env.w_opt, dtype=float)
    mask = np.zeros((V, V), dtype=bool)  # mask[j, k]: j in N_k
    for k, nk in enumerate(neighbors):
        mask[list(nk), k] = True
    x = np.empty((iterations, V))
    v = np.empty((iterations, V))
    for k in range(V):
        for role, dst, var in ((ROLE_INPUT, x, env.sigma2_u[k]), (ROLE_NOISE, v, env.sigma2_v[k])):
            rng = np.random.default_rng(np.random.SeedSequence((seed, realization, k, role)))
            dst[:, k] = rng.standard_normal(iterations) * np.sqrt(var)

    W = np.zeros((V, w_opt.size))
    U = np.zeros_like(W)
    var = np.where(mask, 1.0, np.inf)
    msd = np.empty(iterations)
    for n in range(iterations):
        if n == env.flip_iteration:
            w_opt = -w_opt
        U = np.roll(U, 1, axis=1)
        U[:, 0] = x[n]
        e = U @ w_opt + v[n] - (U * W).sum(axis=1)
        psi = W + (mat.mu_tilde / (delta + (U * U).sum(axis=1)) * e)[:, None] * U
        dist = ((psi[:, None, :] - W[None, :, :]) ** 2).sum(axis=2)  # ||psi_j - w_k||^2
        var = np.where(mask, np.maximum((1.0 - nu) * var + nu * dist, SIGMA2_FLOOR), np.inf)
        C = 1.0 / var
        C /= C.sum(axis=0)
        W = C.T @ psi
        msd[n] = ((w_opt - W) ** 2).sum() / V
    return msd


def check_variant(csv_path: Path, manifest_path: Path, iterations: int, mat, result,
                  steady_expected: bool) -> Outcome:
    """Run every check that applies to one variant's outputs."""
    out = Outcome()
    err = out.errors.append
    try:
        data = read_csv(csv_path)
        man = read_manifest(manifest_path)
    except (OSError, ValueError) as exc:
        err(f"unreadable output: {exc}")
        return out
    if mat is None or result is None:
        err("no materialize/monte_carlo call seen for this variant")
        return out

    T = iterations
    if data.shape != (T, 7):
        err(f"CSV shape {data.shape} != ({T}, 7)")
        return out
    if not np.array_equal(data[:, 0], np.arange(T)):
        err("column n is not 0..T-1")
    if not np.isfinite(data).all():
        err("non-finite value in CSV")
    msd_db, comms, mults = data[:, 1], data[:, 4], data[:, 5]

    neighbors = mat.topology.neighbors
    V = len(neighbors)
    deg = np.array([len(nk) for nk in neighbors])
    links = int((deg - 1).sum())  # directed, self-loops excluded
    M = mat.env.M
    kind = man.get("policy.kind")
    if man.get("run.iterations") != str(T):
        err(f"manifest run.iterations {man.get('run.iterations')} != {T}")
    if man.get("topology.links") != str(links // 2):
        err(f"manifest topology.links {man.get('topology.links')} != {links // 2}")

    flip = man.get("env.flip_iteration", "None")
    segments = {"pre": 0} if flip == "None" else {"pre": 0, "post": int(flip)}
    shares = []
    for window, start in segments.items():
        steady_db = float(man[f"steady.{window}.msd_db_smoothed"])
        if not steady_db <= msd_db[start] - MSD_DROP_DB:
            err(f"steady {window} MSD {steady_db:.2f} dB not {MSD_DROP_DB} dB below "
                f"{msd_db[start]:.2f} dB at n={start}")
        shares.append(float(man[f"steady.{window}.sampled"]) / V)

    if kind == "full":
        if not (comms == links).all():
            err(f"full comms differ from sum(deg-1) = {links}")
        full_mults = int((M * (3 + deg) + 4).sum())
        if not (mults == full_mults).all():
            err(f"full mults differ from sum_k M(3+|N_k|)+4 = {full_mults}")
        R = result.config.realizations
        if R == 1:
            n = min(REFERENCE_ITERATIONS, T)
            ref = reference_full_msd(mat, result.config.seed, 0, result.config.env.nu,
                                     result.config.env.delta, n)
            rel = float(np.max(np.abs(ref - result.msd[:n]) / ref))
            if not rel <= REFERENCE_RTOL:
                err(f"MSD differs from the reference ATC-NLMS by rel {rel:.3g}")
    elif kind == "non_cooperative":
        if not (comms == 0).all():
            err("non_cooperative comms are not 0")
    elif kind == "probabilistic_transmission":
        p = float(man["policy.p"])
        R = int(man["run.realizations"])
        half = PT_SIGMAS * np.sqrt(links * p * (1 - p) / (T * R))
        if not abs(comms.mean() - p * links) <= half or comms.min() < 0 or comms.max() > links:
            err(f"pt comms mean {comms.mean():.2f} outside {p * links:.2f} +- {half:.2f}")
    elif kind == "as_censoring":
        if not (comms <= links + 1e-3).all():
            err(f"censoring comms exceed full comms {links}")

    if steady_expected:
        sigma2 = np.array([float(s) for s in man["drawn.sigma2_v"].split(",")])
        beta = float(man["policy.beta"])
        lo, hi = V * sigma2.min() / beta, V * sigma2.max() / beta
        for window in segments:
            s = float(man[f"steady.{window}.sampled"])
            if not lo - BAND_SLACK <= s <= hi + BAND_SLACK:
                err(f"steady {window} sampled {s:.2f} outside [{lo:.2f}, {hi:.2f}] +- {BAND_SLACK}")

    out.iterations = T
    out.sampled_share = float(np.mean(shares))
    out.comms = float(comms.sum())
    out.mults = float(mults.sum())
    return out
