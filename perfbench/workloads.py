"""The benchmark's workloads: which CLI calls one round makes, at what size.

Every input is made from the workload seed: it becomes ``run.seed`` or the
preset's ``--seed``, which keys the graph, the noise and step-size profiles
and every signal stream.  An operation is one variant, i.e. one RunConfig
taken through materialize -> monte_carlo -> CSV and manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PAPER_BETA = 0.68
PAPER_MU_S = 0.1571
ALPHA_PLUS = 4.0

PRESET_LABELS = {
    "fig_msd_cost": ("dnlms_full", "as_dnlms", "random_Vs5", "random_Vs10", "random_Vs15"),
    "fig_beta_sweep": tuple(f"beta_{r:g}x" for r in (1, 1.5, 2, 3, 5, 8, 10)),
    "fig_censoring": ("dnlms_full", "as_dnlms", "as_dnlms_censoring", "pt_dnlms",
                      "non_cooperative"),
}

# (full, quick) sizes.  Iteration counts are chosen so that the variants
# listed as steady have reached steady state before their final-20% window
# on every seed tried (see README.md).
SIZES = {
    "paper_presets": ({"R": 1, "T": 1000}, {"R": 1, "T": 800}),
    "many_realizations": ({"R": 8, "T": 2500}, {"R": 2, "T": 2500}),
    "long_sparse_network": ({"V": 100, "T": 4000}, {"V": 100, "T": 2000}),
}
SPARSE_RADIUS = 0.18
SPARSE_M = 10


@dataclass(frozen=True)
class Invocation:
    """One call of ``asdnlms.cli.main`` and the variants it must produce."""

    argv: tuple[str, ...]
    out_dir: Path
    labels: tuple[str, ...]
    iterations: int
    steady_labels: frozenset = frozenset()


def _as_policy(kind: str) -> str:
    return (f"policy.kind = {kind}\npolicy.beta = {PAPER_BETA}\n"
            f"policy.mu_s = {PAPER_MU_S}\npolicy.alpha_plus = {ALPHA_PLUS}\n")


def _config(label: str, policy: str, V: int, radius: float, M: int, T: int, R: int,
            seed: int, flip: int | None) -> str:
    text = (f"topology.kind = random_geometric\ntopology.V = {V}\n"
            f"topology.radius = {radius}\nenv.M = {M}\n")
    if flip is not None:
        text += f"env.flip_iteration = {flip}\n"
    return (text + policy + f"run.iterations = {T}\nrun.realizations = {R}\n"
            f"run.seed = {seed}\nrun.label = {label}\n")


def _run_call(label: str, config: str, T: int, work: Path, steady: bool) -> Invocation:
    cfg_path = work / "configs" / f"{label}.cfg"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(config)
    out = work / "out" / label
    return Invocation(("run", "--config", str(cfg_path), "--out", str(out)), out,
                      (label,), T, frozenset({label}) if steady else frozenset())


def invocations(workload: str, seed: int, work: Path, quick: bool) -> list[Invocation]:
    """The calls one round of ``workload`` makes; config files go under ``work``."""
    size = SIZES[workload][1 if quick else 0]
    if workload == "paper_presets":
        # The figure campaign at one reduced size.  Only workload with all six
        # policies, per-iteration sampling draws and the (V, V, M) link cache.
        # No AS variant settles at this length, so none is band-checked.
        return [
            Invocation(("preset", name, "--seed", str(seed), "--realizations", str(size["R"]),
                        "--iterations", str(size["T"]), "--out", str(work / "out" / name)),
                       work / "out" / name, labels, size["T"])
            for name, labels in PRESET_LABELS.items()
        ]
    if workload == "many_realizations":
        # Stationary AS-dNLMS: many realizations, each just past settling.
        T, R = size["T"], size["R"]
        text = _config("as_many", _as_policy("as_sampling"), 20, 0.35, 50, T, R, seed, None)
        return [_run_call("as_many", text, T, work, steady=True)]
    if workload == "long_sparse_network":
        # One long flipped realization per policy on a large sparse graph.
        V, T = size["V"], size["T"]
        calls = []
        for label, policy, steady in (
            ("sparse_censoring", _as_policy("as_censoring"), True),
            ("sparse_pt", "policy.kind = probabilistic_transmission\npolicy.p = 0.5\n", False),
        ):
            text = _config(label, policy, V, SPARSE_RADIUS, SPARSE_M, T, 1, seed, T // 2)
            calls.append(_run_call(label, text, T, work, steady))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(SIZES)
