#!/usr/bin/env python3
"""Run the three experiment presets end to end.

Produces, per preset, one CSV per variant plus a manifest; the beta sweep
also writes bounds.csv with the theoretical band next to the measured
steady-state sampled count.  Full fidelity (100 realizations x 2e4
iterations) took 3 min 31 s on a 2-core Xeon with one BLAS thread per
process, its batches running on both cores (6.5 CPU-minutes; python
3.11.7, numpy 2.4.6, measured 2026-10-21); --quick runs a reduced
campaign for a fast look at the curve shapes.

Usage:
    python scripts/reproduce_figures.py [--out DIR] [--seed S] [--quick]
"""

import argparse
import sys
import time

from asdnlms.cli import main as cli_main
from asdnlms.presets import PRESET_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="10 realizations x 4000 iterations instead of 100 x 20000")
    parser.add_argument("--presets", nargs="*", default=list(PRESET_NAMES),
                        choices=PRESET_NAMES)
    args = parser.parse_args()

    for name in args.presets:
        cmd = ["preset", name, "--seed", str(args.seed), "--out", f"{args.out}/{name}"]
        if args.quick:
            cmd += ["--realizations", "10", "--iterations", "4000"]
        print(f"== {name} ==")
        t0 = time.perf_counter()
        rc = cli_main(cmd)
        if rc != 0:
            return rc
        print(f"   done in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
