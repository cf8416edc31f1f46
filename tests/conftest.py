import numpy as np
import pytest

from asdnlms.config import EnvSpec, RunConfig, TopologySpec
from asdnlms.sampling import PolicyConfig


def make_config(
    kind="full",
    V=8,
    M=8,
    iterations=200,
    realizations=1,
    seed=7,
    flip=None,
    radius=0.6,
    sigma2_v=None,
    **policy_params,
):
    """Small-run config factory for unit tests."""
    defaults = {
        "as_sampling": dict(beta=0.68, mu_s=0.1571, alpha_plus=4.0),
        "as_censoring": dict(beta=0.68, mu_s=0.1571, alpha_plus=4.0),
        "random_sampling": dict(V_s=max(V // 2, 1)),
        "probabilistic_transmission": dict(p=0.5),
    }.get(kind, {})
    defaults.update(policy_params)
    return RunConfig(
        topology=TopologySpec(V=V, radius=radius),
        env=EnvSpec(M=M, flip_iteration=flip, sigma2_v=sigma2_v),
        policy=PolicyConfig(kind=kind, **defaults),
        iterations=iterations,
        realizations=realizations,
        seed=seed,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
