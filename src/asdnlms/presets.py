"""Experiment presets: named bundles of run configurations.

Each preset expands into one RunConfig per variant, all sharing a base
seed so the signal streams are paired across policies.  A variant is a
label and a policy; everything else comes from the config defaults: the
random-geometric topology (V = 20, radius 0.35), the environment (M = 50,
nu = 0.2, delta = 1e-5, sigma2_v in [0.1, 0.4], mu_tilde in [0.2, 1.0],
sigma2_u = 1), alpha_plus = 4 and the run size (100 realizations of 2e4
iterations).  The presets set the adaptive sampler's beta = 0.68 and
mu_s = 0.1571, and flip the optimal system at mid-run where a figure
tracks re-convergence.
"""

from __future__ import annotations

from asdnlms.config import ConfigError, EnvSpec, RunConfig, TopologySpec
from asdnlms.sampling import PolicyConfig

AS_BETA = 0.68
AS_MU_S = 0.1571
BETA_RATIOS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0)


def _as(kind: str = "as_sampling", beta: float = AS_BETA) -> PolicyConfig:
    return PolicyConfig(kind=kind, beta=beta, mu_s=AS_MU_S)


FULL = ("dnlms_full", PolicyConfig(kind="full"))

# name -> (flip at mid-run, [(label, policy)])
PRESETS = {
    # adaptive sampling against full sampling and fixed random subsets
    "fig_msd_cost": (True, [FULL, ("as_dnlms", _as())] + [
        (f"random_Vs{vs}", PolicyConfig(kind="random_sampling", V_s=vs)) for vs in (5, 10, 15)]),
    # stationary runs across the admissible penalty range, beta a multiple of max sigma2_v
    "fig_beta_sweep": (False, [
        (f"beta_{r:g}x", _as(beta=r * EnvSpec.sigma2_v_max)) for r in BETA_RATIOS]),
    # energy saving: who transmits how much, and at what MSD
    "fig_censoring": (True, [
        FULL,
        ("as_dnlms", _as()),
        ("as_dnlms_censoring", _as("as_censoring")),
        ("pt_dnlms", PolicyConfig(kind="probabilistic_transmission", p=0.5)),
        ("non_cooperative", PolicyConfig(kind="non_cooperative")),
    ]),
}
PRESET_NAMES = tuple(PRESETS)


def expand_preset(name: str, seed: int = 1, realizations: int = RunConfig.realizations,
                  iterations: int = RunConfig.iterations) -> list[RunConfig]:
    """Expand a preset name into its labeled run configurations."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    flip, variants = PRESETS[name]
    if flip and iterations < 2:
        raise ConfigError(f"preset {name} flips at mid-run, so iterations must be at least 2, "
                          f"got {iterations}")
    env = EnvSpec(flip_iteration=iterations // 2 if flip else None)
    return [RunConfig(TopologySpec(), env, policy, iterations=iterations,
                      realizations=realizations, seed=seed, label=label)
            for label, policy in variants]
