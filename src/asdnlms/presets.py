"""Experiment presets: named bundles of run configurations.

Each preset expands into one RunConfig per variant, all sharing a base
seed so the signal streams are paired across policies.  Defaults follow
the usual experimental setup: M = 50, nu = 0.2, delta = 1e-5,
alpha_plus = 4, beta = 0.68, mu_s = 0.1571, 100 realizations, 2e4
iterations.
"""

from __future__ import annotations

from asdnlms.harness import EnvSpec, RunConfig, TopologySpec
from asdnlms.sampling import PolicyConfig

DEFAULT_V = 20
DEFAULT_RADIUS = 0.35
DEFAULT_M = 50
DEFAULT_NU = 0.2
DEFAULT_DELTA = 1e-5
DEFAULT_BETA = 0.68
DEFAULT_MU_S = 0.1571
DEFAULT_ALPHA_PLUS = 4.0
DEFAULT_ITERATIONS = 20000
DEFAULT_REALIZATIONS = 100
DEFAULT_SIGMA2_MAX = 0.4

BETA_RATIOS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0)

PRESET_NAMES = ("fig_msd_cost", "fig_beta_sweep", "fig_censoring")


def _base(seed: int, iterations: int, flip: bool) -> tuple[TopologySpec, EnvSpec]:
    topo = TopologySpec(kind="random_geometric", V=DEFAULT_V, radius=DEFAULT_RADIUS)
    env = EnvSpec(
        M=DEFAULT_M,
        nu=DEFAULT_NU,
        delta=DEFAULT_DELTA,
        flip_iteration=iterations // 2 if flip else None,
    )
    return topo, env


def _as_policy(beta: float = DEFAULT_BETA, mu_s: float = DEFAULT_MU_S,
               censoring: bool = False) -> PolicyConfig:
    return PolicyConfig(
        kind="as_censoring" if censoring else "as_sampling",
        beta=beta,
        mu_s=mu_s,
        alpha_plus=DEFAULT_ALPHA_PLUS,
    )


def expand_preset(
    name: str,
    seed: int = 1,
    realizations: int = DEFAULT_REALIZATIONS,
    out_dir: str | None = None,
    iterations: int = DEFAULT_ITERATIONS,
) -> list[RunConfig]:
    """Expand a preset name into its labeled run configurations."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")

    def cfg(policy: PolicyConfig, label: str, flip: bool) -> RunConfig:
        topo, env = _base(seed, iterations, flip)
        return RunConfig(
            topology=topo,
            env=env,
            policy=policy,
            iterations=iterations,
            realizations=realizations,
            seed=seed,
            out_dir=out_dir,
            label=label,
        )

    if name == "fig_msd_cost":
        # Adaptive sampling against full sampling and fixed random subsets,
        # with an optimal-system flip halfway through.
        variants = [
            cfg(PolicyConfig(kind="full"), "dnlms_full", flip=True),
            cfg(_as_policy(), "as_dnlms", flip=True),
        ]
        for vs in (5, 10, 15):
            variants.append(
                cfg(PolicyConfig(kind="random_sampling", V_s=vs), f"random_Vs{vs}", flip=True)
            )
        return variants

    if name == "fig_beta_sweep":
        # Stationary runs across the admissible penalty range.
        variants = []
        for ratio in BETA_RATIOS:
            beta = ratio * DEFAULT_SIGMA2_MAX
            label = f"beta_{ratio:g}x"
            variants.append(cfg(_as_policy(beta=beta), label, flip=False))
        return variants

    if name == "fig_censoring":
        # Energy-saving comparison: who transmits how much, and at what MSD.
        return [
            cfg(PolicyConfig(kind="full"), "dnlms_full", flip=True),
            cfg(_as_policy(), "as_dnlms", flip=True),
            cfg(_as_policy(censoring=True), "as_dnlms_censoring", flip=True),
            cfg(PolicyConfig(kind="probabilistic_transmission", p=0.5), "pt_dnlms", flip=True),
            cfg(PolicyConfig(kind="non_cooperative"), "non_cooperative", flip=True),
        ]

    raise AssertionError(name)
