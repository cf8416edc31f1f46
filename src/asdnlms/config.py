"""Flat key-value run-configuration files.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Sections are topology., env., policy. and run.; every key maps
onto a RunConfig field.  Per-node profiles (env.sigma2_v, env.mu_tilde)
are comma-separated lists; when absent they are drawn from the configured
ranges and echoed into the output manifest.
"""

from __future__ import annotations

from pathlib import Path

from asdnlms.harness import ConfigError, EnvSpec, RunConfig, TopologySpec, check_config
from asdnlms.sampling import PolicyConfig


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _parse_optional_int(text: str):
    return None if text.lower() in ("none", "") else int(text)


_SCHEMA = {
    "topology.kind": str,
    "topology.V": int,
    "topology.radius": float,
    "topology.edge_list": str,
    "env.M": int,
    "env.sigma2_v_min": float,
    "env.sigma2_v_max": float,
    "env.sigma2_v": _parse_float_list,
    "env.sigma2_u": float,
    "env.mu_tilde_min": float,
    "env.mu_tilde_max": float,
    "env.mu_tilde": _parse_float_list,
    "env.nu": float,
    "env.delta": float,
    "env.flip_iteration": _parse_optional_int,
    "policy.kind": str,
    "policy.beta": float,
    "policy.mu_s": float,
    "policy.alpha_plus": float,
    "policy.V_s": int,
    "policy.p": float,
    "run.iterations": int,
    "run.realizations": int,
    "run.seed": int,
    "run.out_dir": str,
    "run.comm_unit": str,
    "run.label": str,
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and check a flat key-value configuration.

    An edge-list file is not read here: ``validate`` and ``materialize``
    load it and check the node count against it.
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


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig back into the flat file format (round-trippable)."""
    lines = []
    t = cfg.topology
    lines.append(f"topology.kind = {t.kind}")
    if t.kind == "random_geometric":
        lines.append(f"topology.V = {t.V}")
        lines.append(f"topology.radius = {t.radius}")
    else:
        lines.append(f"topology.edge_list = {t.edge_list}")
    e = cfg.env
    lines.append(f"env.M = {e.M}")
    if e.sigma2_v is not None:
        lines.append("env.sigma2_v = " + ",".join(f"{v:g}" for v in e.sigma2_v))
    else:
        lines.append(f"env.sigma2_v_min = {e.sigma2_v_min}")
        lines.append(f"env.sigma2_v_max = {e.sigma2_v_max}")
    lines.append(f"env.sigma2_u = {e.sigma2_u}")
    if e.mu_tilde is not None:
        lines.append("env.mu_tilde = " + ",".join(f"{v:g}" for v in e.mu_tilde))
    else:
        lines.append(f"env.mu_tilde_min = {e.mu_tilde_min}")
        lines.append(f"env.mu_tilde_max = {e.mu_tilde_max}")
    lines.append(f"env.nu = {e.nu}")
    lines.append(f"env.delta = {e.delta}")
    if e.flip_iteration is not None:
        lines.append(f"env.flip_iteration = {e.flip_iteration}")
    p = cfg.policy
    lines.append(f"policy.kind = {p.kind}")
    for name in ("beta", "mu_s", "alpha_plus", "V_s", "p"):
        val = getattr(p, name)
        if val is not None:
            lines.append(f"policy.{name} = {val}")
    lines.append(f"run.iterations = {cfg.iterations}")
    lines.append(f"run.realizations = {cfg.realizations}")
    lines.append(f"run.seed = {cfg.seed}")
    if cfg.out_dir is not None:
        lines.append(f"run.out_dir = {cfg.out_dir}")
    lines.append(f"run.comm_unit = {cfg.comm_unit}")
    if cfg.label is not None:
        lines.append(f"run.label = {cfg.label}")
    return "\n".join(lines) + "\n"
