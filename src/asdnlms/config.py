"""Run configuration: its dataclasses, its checks and its flat file format.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Sections are topology., env., policy. and run.; the keys are the
fields of the section's dataclass, parsed by the field's annotation.  A
numeric key that may be absent (env.flip_iteration, env.sigma2_v,
env.mu_tilde and every policy parameter) reads `none`, or an empty value,
as absent; a string key that may be absent (topology.edge_list,
run.out_dir, run.label) keeps `none` as its value, since `none` is a legal
file name.  Per-node profiles (env.sigma2_v, env.mu_tilde) are
comma-separated lists; when absent they are drawn from the configured
ranges and echoed into the output manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from asdnlms.sampling import PolicyConfig

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


def check_config(cfg: RunConfig) -> None:
    """Reject configurations the engine would not run correctly, reading no file.

    The node count of an edge-list topology is known only once its file is
    read, so :func:`asdnlms.harness.materialize` checks the node profiles
    of such a config against the graph it loads.
    """
    t, e = cfg.topology, cfg.env
    if cfg.iterations < 1 or cfg.realizations < 1:
        raise ConfigError("iterations and realizations must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {cfg.seed}")
    if cfg.comm_unit not in COMM_UNITS:
        raise ConfigError(f"comm_unit must be one of {COMM_UNITS}")
    # the label names the output files, which must stay inside the output directory
    if cfg.label is not None and (cfg.label == ".." or Path(cfg.label).name != cfg.label):
        raise ConfigError(f"run.label must be a plain file name, got {cfg.label!r}")
    if t.kind not in ("random_geometric", "edge_list"):
        raise ConfigError(f"unknown topology kind {t.kind!r}")
    if t.kind == "random_geometric":
        if t.V < 1:
            raise ConfigError("topology.V must be >= 1")
        if not t.radius > 0:
            raise ConfigError("topology.radius must be > 0")
    if t.kind == "edge_list" and not t.edge_list:
        raise ConfigError("topology.edge_list file required for kind=edge_list")
    if e.M < 1:
        raise ConfigError("env.M must be >= 1")
    if e.sigma2_v is None and not 0 < e.sigma2_v_min <= e.sigma2_v_max < math.inf:
        raise ConfigError("noise profile needs 0 < sigma2_v_min <= sigma2_v_max < inf")
    if e.sigma2_v is not None and any(not 0 <= v < math.inf for v in e.sigma2_v):
        raise ConfigError("explicit sigma2_v entries must be finite and >= 0")
    if not 0 < e.sigma2_u < math.inf:
        raise ConfigError("env.sigma2_u must be finite and > 0")
    if e.mu_tilde is None and not 0 < e.mu_tilde_min <= e.mu_tilde_max < 2:
        raise ConfigError("step-size profile needs 0 < mu_tilde_min <= mu_tilde_max < 2")
    if e.mu_tilde is not None and any(not 0 < m < 2 for m in e.mu_tilde):
        raise ConfigError("explicit mu_tilde entries must lie in (0, 2)")
    if not 0 < e.nu <= 1:
        raise ConfigError("env.nu must lie in (0, 1]")
    if not 0 < e.delta < math.inf:
        raise ConfigError("env.delta must be finite and > 0")
    if e.flip_iteration is not None and not 0 < e.flip_iteration < cfg.iterations:
        raise ConfigError("env.flip_iteration must lie strictly inside the run")
    if t.kind != "edge_list":
        check_node_profiles(cfg, t.V)


def check_node_profiles(cfg: RunConfig, V: int) -> None:
    """Check the policy and the explicit per-node profiles against V nodes."""
    e = cfg.env
    cfg.policy.validate_for(V)
    if e.sigma2_v is not None and len(e.sigma2_v) != V:
        raise ConfigError(f"explicit sigma2_v must have length V={V}")
    if e.mu_tilde is not None and len(e.mu_tilde) != V:
        raise ConfigError(f"explicit mu_tilde must have length V={V}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _optional(parse):
    """``parse``, reading `none` or an empty value as absent."""
    return lambda text: None if text.lower() in ("none", "") else parse(text)


# a field's annotation -> the parser of its value; a field whose annotation
# is missing here fails the import instead of losing its key
_PARSERS = {
    "str": str,
    "str | None": str,  # `none` stays a literal: a legal label or file name
    "int": int,
    "int | None": _optional(int),
    "float": float,
    "float | None": _optional(float),
    "tuple[float, ...] | None": _optional(_parse_float_list),
}
_SECTIONS = {"topology": TopologySpec, "env": EnvSpec, "policy": PolicyConfig, "run": RunConfig}
# `section.field` -> parser, for every field of the sections but RunConfig's nested ones
_SCHEMA = {f"{section}.{f.name}": _PARSERS[f.type]
           for section, cls in _SECTIONS.items() for f in fields(cls) if f.name not in _SECTIONS}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and check a flat key-value configuration.

    An edge-list file is not read here: ``materialize`` loads it and checks
    the node count against it.
    """
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc

    def section(prefix: str) -> dict:
        return {k.split(".", 1)[1]: v for k, v in raw.items() if k.startswith(prefix + ".")}

    if "policy.kind" not in raw:
        raise ConfigError(f"{source}: policy.kind is required")
    try:
        cfg = RunConfig(
            topology=TopologySpec(**section("topology")),
            env=EnvSpec(**section("env")),
            policy=PolicyConfig(**section("policy")),
            **section("run"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    check_config(cfg)
    return cfg


def parse_config_file(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))
