"""Command-line entry point.

Subcommands:
    run       execute a Monte Carlo campaign from a config file
    preset    run a named experiment preset (one CSV per variant)
    predict   print the closed-form steady-state bounds
    validate  check a config file and build its network, without running it

Exit codes: 0 success, 1 configuration error, 2 runtime error (an I/O
failure, or a realization whose network MSD or the alpha of one of its
adaptive nodes stopped being finite; no CSV is written then).  The
ASDNLMS_OUT environment variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from asdnlms import analysis
from asdnlms.config import ConfigError, RunConfig, parse_config_file
from asdnlms.harness import (
    MonteCarloResult,
    NonFiniteStateError,
    VariantGroup,
    group_variants,
    materialize,
    monte_carlo,
    write_csv,
    write_manifest,
)
from asdnlms.presets import PRESET_NAMES, expand_preset

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
    p_preset.add_argument("--seed", type=int, default=RunConfig.seed)
    p_preset.add_argument("--realizations", type=int, default=RunConfig.realizations)
    p_preset.add_argument("--iterations", type=int, default=RunConfig.iterations)
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


def _run_one(cfg, out_dir: Path, group: VariantGroup | None = None) -> MonteCarloResult:
    result = monte_carlo(cfg, materialize(cfg), group)
    name = cfg.name()
    write_csv(result, out_dir / f"{name}.csv")
    write_manifest(result.manifest, out_dir / f"{name}.manifest.txt")
    for window, summary in result.steady.items():
        print(
            f"{name}: steady[{window}] msd={summary['msd_db_smoothed']:.2f} dB "
            f"sampled={summary['sampled']:.2f} comms={summary['comms']:.1f}"
        )
    return result


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    out_dir = _out_dir(args.out, cfg.out_dir)
    _run_one(cfg, out_dir)
    print(f"wrote results to {out_dir}")
    return 0


def cmd_preset(args) -> int:
    configs = expand_preset(args.name, seed=args.seed, realizations=args.realizations,
                            iterations=args.iterations)
    out_dir = _out_dir(args.out, f"results/{args.name}")

    bounds_rows = []
    for cfg, group in zip(configs, group_variants(configs)):
        m = _run_one(cfg, out_dir, group).manifest
        if args.name == "fig_beta_sweep":
            beta = cfg.policy.beta
            bounds_rows.append((beta / cfg.env.sigma2_v_max, beta, m["predicted.Vs_lower"],
                                m["predicted.Vs_upper"], m["steady.pre.sampled"]))
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
    for name, value in asdict(pred).items():
        print(f"{name} = {value:.4f}")
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
