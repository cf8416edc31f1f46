"""Acceptance gate: end-to-end criteria at their stated tolerances.

Each test prints one `ACCEPTANCE C<k> [PASS|FAIL]` line with the measured
numbers.  The expensive Monte Carlo campaigns are shared, module-scoped
fixtures; realization counts for the campaigns that do not pin one are
chosen for runtime (documented per test) without touching any threshold.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Every
test here carries the `acceptance` marker.
"""

import inspect

import numpy as np
import pytest

from asdnlms.analysis import (
    duty_cycle_estimate,
    predict,
    sampled_node_bounds,
    theta_bounds,
)
from asdnlms.config import EnvSpec, RunConfig, TopologySpec
from asdnlms.harness import materialize, monte_carlo, run_realization
from asdnlms.sampling import PolicyConfig, phi_prime
from reference import adjacency, as_dnlms_op_cost, dnlms_op_cost, phi

SEED = 1
V = 20
M = 50
ITERATIONS = 20_000
FLIP = 10_000
SIGMA2_MIN_CFG = 0.1
SIGMA2_MAX_CFG = 0.4
BETA = 0.68
MU_S = 0.1571
BETA_RATIOS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0)

# `pytest -m "not acceptance"` runs the fast suite without these campaigns
pytestmark = pytest.mark.acceptance


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {cid} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def band(beta: float) -> tuple[float, float]:
    lo, hi = sampled_node_bounds(V, beta, SIGMA2_MIN_CFG, SIGMA2_MAX_CFG)
    return lo - 0.5, hi + 0.5


def _config(kind: str, flip: bool, realizations: int, beta=BETA, mu_s=MU_S, **extra) -> RunConfig:
    params = {}
    if kind in ("as_sampling", "as_censoring"):
        params = dict(beta=beta, mu_s=mu_s, alpha_plus=4.0)
    params.update(extra)
    return RunConfig(
        topology=TopologySpec(V=V, radius=0.35),
        env=EnvSpec(M=M, flip_iteration=FLIP if flip else None),
        policy=PolicyConfig(kind=kind, **params),
        iterations=ITERATIONS,
        realizations=realizations,
        seed=SEED,
    )


def crossing(series_db: np.ndarray, start: int, stop: int, threshold=-20.0):
    segment = series_db[start:stop]
    hits = np.flatnonzero(segment <= threshold)
    return start + int(hits[0]) if hits.size else None


@pytest.fixture(scope="module")
def flip_campaign():
    """Paired runs (identical signal streams) of the flip experiment, R=10."""
    vs_upper = sampled_node_bounds(V, BETA, SIGMA2_MIN_CFG, SIGMA2_MAX_CFG)[1]
    configs = {
        "full": _config("full", flip=True, realizations=10),
        "as": _config("as_sampling", flip=True, realizations=10),
        "random": _config("random_sampling", flip=True, realizations=10,
                          V_s=round(vs_upper)),
        "censoring": _config("as_censoring", flip=True, realizations=10),
    }
    return {name: monte_carlo(cfg) for name, cfg in configs.items()}


@pytest.fixture(scope="module")
def beta_sweep():
    """Stationary sweep over beta/sigma2_max ratios, 20 realizations each."""
    out = {}
    for ratio in BETA_RATIOS:
        beta = ratio * SIGMA2_MAX_CFG
        cfg = _config("as_sampling", flip=False, realizations=20, beta=beta)
        out[ratio] = monte_carlo(cfg).steady["pre"]["sampled"]
    return out


def test_c1_bound_containment(beta_sweep):
    """Steady-state mean sampled count lies inside the closed-form band."""
    lines = []
    ok = True
    for ratio, measured in beta_sweep.items():
        beta = ratio * SIGMA2_MAX_CFG
        lo, hi = band(beta)
        inside = lo <= measured <= hi
        ok &= inside
        lines.append(f"ratio {ratio:g}: {measured:.2f} in [{lo:.2f}, {hi:.2f}]"
                     + ("" if inside else " <-- OUT"))
    assert report("C1", ok, "; ".join(lines))


def test_c2_msd_parity_and_random_ordering(flip_campaign):
    """Adaptive sampling tracks full sampling within 1 dB; random sampling at
    the rounded upper bound reaches -20 dB strictly later."""
    full = flip_campaign["full"]
    adaptive = flip_campaign["as"]
    random = flip_campaign["random"]

    gaps = [abs(adaptive.steady[w]["msd_db_smoothed"] - full.steady[w]["msd_db_smoothed"])
            for w in ("pre", "post")]
    parity_ok = all(g <= 1.0 for g in gaps)

    t_as = crossing(adaptive.msd_db_smoothed, 0, FLIP)
    t_rand = crossing(random.msd_db_smoothed, 0, FLIP)
    order_ok = t_as is not None and (t_rand is None or t_rand > t_as)

    detail = (f"steady gap pre/post = {gaps[0]:.2f}/{gaps[1]:.2f} dB (<=1); "
              f"t(-20dB) as={t_as} random@{random.config.policy.V_s}={t_rand} (strictly slower)")
    assert report("C2", parity_ok and order_ok, detail)


def test_c3_transient_parity(flip_campaign):
    """Iterations to first reach -20 dB within 10% of full sampling, both
    at startup and after the flip."""
    full = flip_campaign["full"]
    adaptive = flip_campaign["as"]
    ok = True
    details = []
    for name, start, stop in (("startup", 0, FLIP), ("post-flip", FLIP, ITERATIONS)):
        t_full = crossing(full.msd_db_smoothed, start, stop)
        t_as = crossing(adaptive.msd_db_smoothed, start, stop)
        if t_full is None or t_as is None:
            ok = False
            details.append(f"{name}: no crossing (full={t_full}, as={t_as})")
            continue
        t_full -= start
        t_as -= start
        within = abs(t_as - t_full) <= 0.10 * t_full
        ok &= within
        details.append(f"{name}: full={t_full} as={t_as}")
    assert report("C3", ok, "; ".join(details))


def test_c4_change_detection(flip_campaign):
    """After the flip the network re-samples almost everyone within 500
    iterations, then settles back inside the predicted band."""
    adaptive = flip_campaign["as"]
    peak = float(adaptive.sampled[FLIP:FLIP + 500].max())
    peak_ok = peak >= 0.9 * V
    lo, hi = band(BETA)
    settled = adaptive.steady["post"]["sampled"]
    settle_ok = lo <= settled <= hi
    detail = f"peak sampled {peak:.1f} >= {0.9 * V:.0f}; post steady {settled:.2f} in [{lo:.2f}, {hi:.2f}]"
    assert report("C4", peak_ok and settle_ok, detail)


def test_c5_cost_accounting():
    """Recorded operation counters equal the cost-model sums exactly, and the
    sampled/idle cost deltas match the stated identities, for every iteration
    of a 100-iteration spot window (one window in the all-sampled transient,
    one in steady state with mixed sampling)."""
    cfg = _config("as_sampling", flip=False, realizations=1)
    mat = materialize(cfg)
    series = run_realization(cfg, 0, mat)
    deg = mat.topology.degrees()
    A = adjacency(mat.topology)

    windows = [range(0, 100), range(ITERATIONS - 100, ITERATIONS)]
    equal_ok = True
    delta_ok = True
    mixed_states = set()
    for window in windows:
        for n in window:
            s = series.sampled_bitmap[n].astype(int)
            mults = adds = 0
            for k in range(V):
                ssum = int(s[A[:, k]].sum())
                nk = int(deg[k])
                m, a = as_dnlms_op_cost(M, nk, int(s[k]), ssum)
                mults += m
                adds += a
                d_m, d_a = dnlms_op_cost(M, nk)
                if s[k]:
                    delta_ok &= (m - d_m == ssum + 2) and (a - d_a == nk + 1)
                else:
                    delta_ok &= (d_m - m == 3 * M + 2 - ssum) and (d_a - a == 4 * M - nk + 1)
                mixed_states.add(int(s[k]))
            equal_ok &= mults == int(series.mults[n]) and adds == int(series.adds[n])
    both_states = mixed_states == {0, 1}
    detail = (f"exact counter equality over {sum(len(w) for w in windows)} iterations; "
              f"delta identities hold; sampled and idle states both exercised={both_states}")
    assert report("C5", equal_ok and delta_ok and both_states, detail)


def test_c6_censoring_communications(flip_campaign):
    """Energy-saving variant: steady-state communications below 0.55x full
    dNLMS, with MSD degradation versus standard adaptive sampling <= 3 dB."""
    full = flip_campaign["full"]
    adaptive = flip_campaign["as"]
    censoring = flip_campaign["censoring"]

    ratios = [censoring.steady[w]["comms"] / full.steady[w]["comms"] for w in ("pre", "post")]
    comm_ok = all(r < 0.55 for r in ratios)
    degradation = [censoring.steady[w]["msd_db_smoothed"] - adaptive.steady[w]["msd_db_smoothed"]
                   for w in ("pre", "post")]
    msd_ok = all(d <= 3.0 for d in degradation)
    detail = (f"comm ratio pre/post = {ratios[0]:.3f}/{ratios[1]:.3f} (<0.55); "
              f"MSD degradation vs standard AS = {degradation[0]:.2f}/{degradation[1]:.2f} dB (<=3)")
    assert report("C6", comm_ok and msd_ok, detail)


def test_c7_gradient_check():
    """Sigmoid-slope analytic derivative vs central finite differences.

    The analytic side is ``sampling.phi_prime``, the one phi' in the package:
    the engine's alpha update calls it (tests/test_harness.py checks that).
    The numeric side differentiates the reference ``phi`` of tests/reference.py.
    """
    alpha_plus = 4.0
    h = 1e-5
    grid = np.linspace(-alpha_plus, alpha_plus, 101)
    numeric = (phi(grid + h, alpha_plus) - phi(grid - h, alpha_plus)) / (2 * h)
    analytic = phi_prime(grid, alpha_plus)
    rel = np.abs(numeric - analytic) / np.abs(analytic)
    ok = bool(rel.max() < 1e-6)
    assert report("C7", ok, f"max relative error {rel.max():.2e} over 101 grid points")


def test_c8_analysis_algebra():
    """Duty-cycle composition reproduces the sampled-node bound endpoints to
    1e-12 on 1000 random admissible triples; mu_s is structurally absent."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        s_min = rng.uniform(1e-3, 1.0)
        s_max = s_min * rng.uniform(1.0, 10.0)
        beta = s_max * rng.uniform(1.0 + 1e-9, 12.0)
        v = int(rng.integers(1, 200))
        t_max, t_min, tb_max, tb_min = theta_bounds(beta, s_min, s_max)
        lo, hi = sampled_node_bounds(v, beta, s_min, s_max)
        err_hi = abs(duty_cycle_estimate(t_max, tb_min) * v - hi) / max(1.0, hi)
        err_lo = abs(duty_cycle_estimate(t_min, tb_max) * v - lo) / max(1.0, lo)
        worst = max(worst, err_hi, err_lo)
    algebra_ok = worst <= 1e-12
    no_mu_s = all(
        "mu_s" not in inspect.signature(fn).parameters
        for fn in (predict, theta_bounds, sampled_node_bounds, duty_cycle_estimate)
    )
    assert report("C8", algebra_ok and no_mu_s,
                  f"worst endpoint error {worst:.2e} (<=1e-12); mu_s absent={no_mu_s}")


def test_c9_mu_s_insensitivity():
    """Steady-state sampled count unaffected by the sampling step size.

    Three paired stationary campaigns (R=10) across a 10x mu_s range.
    """
    counts = {}
    for mu_s in (0.05, MU_S, 0.5):
        cfg = _config("as_sampling", flip=False, realizations=10, mu_s=mu_s)
        counts[mu_s] = monte_carlo(cfg).steady["pre"]["sampled"]
    spread = max(counts.values()) - min(counts.values())
    ok = spread <= 1.0
    detail = ", ".join(f"mu_s={k:g}: {v:.2f}" for k, v in counts.items()) + \
        f"; spread {spread:.3f} (<=1.0)"
    assert report("C9", ok, detail)
