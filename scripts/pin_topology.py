#!/usr/bin/env python3
"""Generate and save a connected random geometric topology as an edge list.

The saved file can be referenced from a run config via
`topology.kind = edge_list` / `topology.edge_list = <path>` so that a whole
experiment series runs on one pinned graph.  The graph is the one that a
random geometric config of the same V, radius and `run.seed` builds, so a
run on the pinned file writes the same CSV as that config.

Usage:
    python scripts/pin_topology.py --V 20 --radius 0.35 --seed 1 --out graph.edges
"""

import argparse
import sys

from asdnlms.config import EnvSpec, RunConfig, TopologySpec
from asdnlms.harness import materialize
from asdnlms.network import save_edge_list
from asdnlms.sampling import PolicyConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--V", type=int, default=20)
    parser.add_argument("--radius", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    cfg = RunConfig(TopologySpec(V=args.V, radius=args.radius), EnvSpec(),
                    PolicyConfig(kind="full"), seed=args.seed)
    top = materialize(cfg).topology
    save_edge_list(top, args.out)
    deg = top.degrees()
    print(f"wrote {args.out}: V={top.node_count}, "
          f"links={int((deg - 1).sum() // 2)}, degrees {deg.min()}..{deg.max()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
