import os

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


def no_child_left():
    """This process has no child, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def reaps_every_child():
    """Every test kills and reaps each child process it forks."""
    yield
    if hasattr(os, "fork"):
        no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks, in order."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids
