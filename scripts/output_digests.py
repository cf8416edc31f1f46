#!/usr/bin/env python3
"""Run a fixed set of CLI calls and print a digest of every output they make.

The set: the three presets at --seed 2 --realizations 3 --iterations 600;
`asdnlms run` of all six policies in both comm units at R=1 and R=8
(V=20, M=10, 600 iterations, flip at 300); and one realization each of
as_censoring and probabilistic_transmission, the latter in both comm units,
in the shape of perfbench's long_sparse_network (V=100, radius 0.18, M=10,
600 iterations, flip at 300), the one-row campaigns with the largest
blocks.  Each call runs in a fresh interpreter that imports `asdnlms` from
PYTHONPATH, so the digests of two source trees are compared by running
this script once with each tree's `src` on PYTHONPATH and diffing what it
prints; CI diffs a run pinned to one CPU against a run on all CPUs.  One
line per output file, `sha256  relative/path`, sorted, then one line for
the calls' stdout with the output directory replaced by OUT.

Usage:
    PYTHONPATH=src python scripts/output_digests.py OUT > digests.txt
    PYTHONPATH=src taskset -c 0 python scripts/output_digests.py OUT > digests-1cpu.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig_beta_sweep", "fig_msd_cost", "fig_censoring")
POLICIES = {
    "full": "",
    "as_sampling": "policy.beta = 0.68\npolicy.mu_s = 0.1571\n",
    "as_censoring": "policy.beta = 0.68\npolicy.mu_s = 0.1571\n",
    "random_sampling": "policy.V_s = 5\n",
    "probabilistic_transmission": "policy.p = 0.5\n",
    "non_cooperative": "",
}
RUN = """topology.V = 20
env.M = 10
env.flip_iteration = 300
run.iterations = 600
run.seed = 2
"""
SPARSE = RUN.replace("topology.V = 20", "topology.V = 100\ntopology.radius = 0.18")


def calls(out: Path, configs: Path):
    """The argument lists of the set's CLI calls, in order."""
    for name in PRESETS:
        yield ["preset", name, "--seed", "2", "--realizations", "3", "--iterations", "600",
               "--out", str(out / "preset" / name)]
    for kind, params in POLICIES.items():
        for unit in ("link", "broadcast"):
            for R in (1, 8):
                label = f"{kind}_{unit}_R{R}"
                path = configs / f"{label}.cfg"
                path.write_text(RUN + f"policy.kind = {kind}\n{params}run.comm_unit = {unit}\n"
                                f"run.realizations = {R}\nrun.label = {label}\n")
                yield ["run", "--config", str(path), "--out", str(out / "run")]
    for kind, unit in (("as_censoring", "link"), ("probabilistic_transmission", "link"),
                       ("probabilistic_transmission", "broadcast")):
        label = f"sparse_{kind}" if unit == "link" else f"sparse_{kind}_{unit}"
        path = configs / f"{label}.cfg"
        path.write_text(SPARSE + f"policy.kind = {kind}\n{POLICIES[kind]}run.comm_unit = {unit}\n"
                        f"run.realizations = 1\nrun.label = {label}\n")
        yield ["run", "--config", str(path), "--out", str(out / "run")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist yet")
    args = parser.parse_args()
    out = args.out.resolve()
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ASDNLMS_OUT"}
    stdout = hashlib.sha256()
    with tempfile.TemporaryDirectory() as configs:
        for argv in calls(out, Path(configs)):
            done = subprocess.run([sys.executable, "-m", "asdnlms.cli", *argv], env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(f"asdnlms {' '.join(argv)}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            stdout.update(done.stdout.replace(str(out), "OUT").encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    print(f"{stdout.hexdigest()}  <stdout>")
    return 0


if __name__ == "__main__":
    sys.exit(main())
