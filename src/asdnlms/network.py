"""Network topology: random geometric graphs and edge-list files.

A topology is an undirected, connected graph over V nodes in which every
neighborhood N_k contains k itself.  A combination matrix is a dense
(V, V) array with C[j, k] = weight that node k applies to the
intermediate estimate received from neighbor j; every column sums to 1
over N_k and is zero elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TopologyError(ValueError):
    """Raised when a topology cannot be built or violates an invariant."""


@dataclass(frozen=True)
class Topology:
    """Immutable neighborhood structure; safe to share across realizations."""

    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        V = len(self.neighbors)
        if V < 1:
            raise TopologyError("topology needs at least one node")
        for k, nk in enumerate(self.neighbors):
            if k not in nk:
                raise TopologyError(f"node {k} missing from its own neighborhood")
            for j in nk:
                if not 0 <= j < V:
                    raise TopologyError(f"neighbor index {j} out of range")
                if j != k and k not in self.neighbors[j]:
                    raise TopologyError(f"link {j}<->{k} is not symmetric")
        if not _connected(self.neighbors):
            raise TopologyError("graph is not connected")

    @property
    def node_count(self) -> int:
        return len(self.neighbors)

    def degrees(self) -> np.ndarray:
        """|N_k| for every k, self-loop included."""
        return np.array([len(nk) for nk in self.neighbors], dtype=np.int64)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All ordered pairs (src, dst) with src in N_dst, self-pairs included."""
        src, dst = [], []
        for k, nk in enumerate(self.neighbors):
            src.extend(nk)
            dst.extend([k] * len(nk))
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _connected(neighbors) -> bool:
    V = len(neighbors)
    seen = [False] * V
    queue = deque([0])
    seen[0] = True
    while queue:
        k = queue.popleft()
        for j in neighbors[k]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return all(seen)


def build_random_geometric(V: int, radius: float, seed, max_redraws: int = 1000) -> Topology:
    """Connected random geometric graph on the unit square.

    Nodes are placed uniformly at random and linked whenever their Euclidean
    distance is at most ``radius``.  Positions are redrawn (deterministically
    from ``seed``) until the graph is connected.
    """
    if V < 1:
        raise TopologyError("V must be >= 1")
    if radius <= 0:
        raise TopologyError("radius must be > 0")
    rng = np.random.default_rng(seed)
    for _ in range(max_redraws):
        pos = rng.uniform(0.0, 1.0, size=(V, 2))
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        # d2 is exactly symmetric and zero on the diagonal, so each row of the
        # mask is the node's sorted neighborhood, itself included
        close = d2 <= radius * radius
        nbrs = tuple(tuple(np.flatnonzero(row).tolist()) for row in close)
        if _connected(nbrs):
            return Topology(nbrs)
    raise TopologyError(
        f"could not produce a connected graph after {max_redraws} draws; radius too small"
    )


def uniform_weights(top: Topology) -> np.ndarray:
    """C[j, k] = 1/|N_k| for j in N_k; zero elsewhere."""
    V = top.node_count
    C = np.zeros((V, V))
    for k, nk in enumerate(top.neighbors):
        C[list(nk), k] = 1.0 / len(nk)
    return C


def save_edge_list(top: Topology, path: str | Path) -> None:
    """Plain-text pin of a topology: `V` header, then one `j k` pair per link."""
    lines = [str(top.node_count)]
    for k, nk in enumerate(top.neighbors):
        for j in nk:
            if j > k:
                lines.append(f"{k} {j}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> Topology:
    """Inverse of :func:`save_edge_list`; self-loops are implicit."""
    tokens = Path(path).read_text().split()
    if not tokens:
        raise TopologyError(f"{path}: empty edge-list file")
    try:
        V, *pairs = map(int, tokens)
    except ValueError as exc:
        raise TopologyError(f"{path}: {exc}") from None
    if V < 1:
        raise TopologyError(f"{path}: topology needs at least one node, got V={V}")
    if len(pairs) % 2:
        raise TopologyError(f"{path}: odd number of endpoints")
    nbrs = [{k} for k in range(V)]
    for i, j in zip(pairs[::2], pairs[1::2]):
        if not (0 <= i < V and 0 <= j < V):
            raise TopologyError(f"{path}: node index out of range")
        nbrs[i].add(j)
        nbrs[j].add(i)
    return Topology(tuple(tuple(sorted(nk)) for nk in nbrs))
