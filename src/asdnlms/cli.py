"""Command-line entry point.

Subcommands:
    run       execute a Monte Carlo campaign from a config file
    preset    run a named experiment preset (one CSV per variant)
    predict   print the closed-form steady-state bounds
    validate  check a config file and build its network, without running it

Exit codes: 0 success, 1 configuration error, 2 runtime error (an I/O
failure, or a realization whose network MSD stopped being finite; no CSV is
written then).  The ASDNLMS_OUT environment variable overrides the output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from asdnlms import analysis
from asdnlms.config import ConfigError, parse_config_file
from asdnlms.harness import (
    Materialized,
    MonteCarloResult,
    NonFiniteStateError,
    materialize,
    monte_carlo,
    write_csv,
    write_manifest,
)
from asdnlms.presets import DEFAULT_SIGMA2_MAX, PRESET_NAMES, expand_preset

OUT_DIR_ENV = "ASDNLMS_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdnlms",
        description="Diffusion NLMS with adaptive node sampling: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo campaign from a config file")
    p_run.add_argument("--config", required=True, help="flat key-value config file")
    p_run.add_argument("--out", help="output directory (overrides run.out_dir)")

    p_preset = sub.add_parser("preset", help="run a named experiment preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--seed", type=int, default=1)
    p_preset.add_argument("--realizations", type=int, default=None)
    p_preset.add_argument("--iterations", type=int, default=None)
    p_preset.add_argument("--out", default=None, help="output directory")

    p_predict = sub.add_parser("predict", help="print steady-state sampled-node bounds")
    p_predict.add_argument("--V", type=int, required=True)
    p_predict.add_argument("--beta", type=float, required=True)
    p_predict.add_argument("--sigma2-min", type=float, required=True)
    p_predict.add_argument("--sigma2-max", type=float, required=True)

    p_val = sub.add_parser("validate", help="validate a config file without running")
    p_val.add_argument("--config", required=True)
    return parser


def _out_dir(explicit: str | None, fallback: str | None) -> Path:
    env_override = os.environ.get(OUT_DIR_ENV)
    chosen = env_override or explicit or fallback or "results"
    return Path(chosen)


def _run_one(cfg, out_dir: Path) -> tuple[MonteCarloResult, Materialized]:
    mat = materialize(cfg)
    result = monte_carlo(cfg, mat)
    name = cfg.name()
    write_csv(result, out_dir / f"{name}.csv")
    write_manifest(result.manifest, out_dir / f"{name}.manifest.txt")
    for window, summary in result.steady.items():
        print(
            f"{name}: steady[{window}] msd={summary['msd_db_smoothed']:.2f} dB "
            f"sampled={summary['sampled']:.2f} comms={summary['comms']:.1f}"
        )
    return result, mat


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    out_dir = _out_dir(args.out, cfg.out_dir)
    _run_one(cfg, out_dir)
    print(f"wrote results to {out_dir}")
    return 0


def cmd_preset(args) -> int:
    kwargs = {"seed": args.seed}
    if args.realizations is not None:
        kwargs["realizations"] = args.realizations
    if args.iterations is not None:
        kwargs["iterations"] = args.iterations
    configs = expand_preset(args.name, out_dir=args.out, **kwargs)
    out_dir = _out_dir(args.out, configs[0].out_dir or f"results/{args.name}")

    bounds_rows = []
    for cfg in configs:
        result, mat = _run_one(cfg, out_dir)
        if args.name == "fig_beta_sweep":
            env = mat.env
            beta = cfg.policy.beta
            lo, hi = analysis.sampled_node_bounds(env.V, beta, env.sigma2_min, env.sigma2_max)
            bounds_rows.append(
                (beta / DEFAULT_SIGMA2_MAX, beta, lo, hi, result.steady["pre"]["sampled"])
            )
    if bounds_rows:
        path = out_dir / "bounds.csv"
        with path.open("w") as f:
            f.write("beta_ratio,beta,vs_lower,vs_upper,measured_steady_sampled\n")
            for row in bounds_rows:
                f.write(",".join(f"{v:.6g}" for v in row) + "\n")
        print(f"wrote {path}")
    print(f"wrote results to {out_dir}")
    return 0


def cmd_predict(args) -> int:
    pred = analysis.predict(args.V, args.beta, args.sigma2_min, args.sigma2_max)
    print(f"Vs_lower = {pred.Vs_lower:.4f}")
    print(f"Vs_upper = {pred.Vs_upper:.4f}")
    print(f"theta_max = {pred.theta_max:.4f}")
    print(f"theta_min = {pred.theta_min:.4f}")
    print(f"theta_bar_max = {pred.theta_bar_max:.4f}")
    print(f"theta_bar_min = {pred.theta_bar_min:.4f}")
    print(f"duty_cycle_lower = {pred.duty_cycle_lower:.4f}")
    print(f"duty_cycle_upper = {pred.duty_cycle_upper:.4f}")
    return 0


def cmd_validate(args) -> int:
    materialize(parse_config_file(args.config))
    print(f"{args.config}: ok")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "preset": cmd_preset,
        "predict": cmd_predict,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
