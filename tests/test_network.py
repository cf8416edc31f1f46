import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdnlms.network import (
    Topology,
    TopologyError,
    build_random_geometric,
    load_edge_list,
    save_edge_list,
    uniform_weights,
)
from reference import check_combination_matrix, metropolis_weights


def scan_invariants(top: Topology):
    V = top.node_count
    for k, nk in enumerate(top.neighbors):
        assert k in nk
        for j in nk:
            assert 0 <= j < V
            assert k in top.neighbors[j]


class TestBuildRandomGeometric:
    def test_single_node(self):
        top = build_random_geometric(1, 0.5, seed=3)
        assert top.neighbors == ((0,),)

    def test_two_nodes_large_radius(self):
        # radius exceeding the unit-square diameter always connects the pair
        top = build_random_geometric(2, 1.5, seed=11)
        assert top.neighbors == ((0, 1), (0, 1))

    def test_default_size_invariants(self):
        top = build_random_geometric(20, 0.35, seed=42)
        assert top.node_count == 20
        scan_invariants(top)

    def test_deterministic(self):
        a = build_random_geometric(20, 0.35, seed=42)
        b = build_random_geometric(20, 0.35, seed=42)
        assert a.neighbors == b.neighbors

    def test_different_seed_differs(self):
        a = build_random_geometric(20, 0.35, seed=42)
        b = build_random_geometric(20, 0.35, seed=43)
        assert a.neighbors != b.neighbors

    def test_unconnectable_radius_raises(self):
        with pytest.raises(TopologyError, match="connected"):
            build_random_geometric(30, 0.01, seed=0, max_redraws=50)

    def test_seeded_graph_is_pinned(self):
        top = build_random_geometric(8, 0.45, np.random.SeedSequence((7, 1)))
        assert top.neighbors == ((0, 2, 5), (1, 3, 4, 5, 7), (0, 2, 6), (1, 3, 4, 5, 7),
                                 (1, 3, 4, 5, 7), (0, 1, 3, 4, 5, 6, 7), (2, 5, 6),
                                 (1, 3, 4, 5, 7))

    def test_invalid_args(self):
        with pytest.raises(TopologyError):
            build_random_geometric(0, 0.5, seed=0)
        with pytest.raises(TopologyError):
            build_random_geometric(5, 0.0, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(V=st.integers(1, 12), radius=st.floats(0.8, 1.5), seed=st.integers(0, 10_000))
    def test_invariants_hold_generally(self, V, radius, seed):
        top = build_random_geometric(V, radius, seed=seed)
        scan_invariants(top)


class TestTopologyValidation:
    def test_missing_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="own neighborhood"):
            Topology(((1,), (0, 1)))

    def test_asymmetric_rejected(self):
        with pytest.raises(TopologyError, match="symmetric"):
            Topology(((0, 1), (1,)))

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="connected"):
            Topology(((0,), (1,)))


def star_topology(leaves=4) -> Topology:
    # node 0 is the hub
    nbrs = [tuple(range(leaves + 1))]
    for leaf in range(1, leaves + 1):
        nbrs.append((0, leaf))
    return Topology(tuple(nbrs))


class TestWeights:
    def test_uniform_split(self):
        top = star_topology(3)  # hub has |N| = 4
        C = uniform_weights(top)
        assert np.allclose(C[:, 0], [0.25, 0.25, 0.25, 0.25])

    def test_uniform_single_node(self):
        top = build_random_geometric(1, 0.5, seed=0)
        assert uniform_weights(top) == np.array([[1.0]])

    def test_uniform_column_sums(self):
        top = build_random_geometric(20, 0.35, seed=42)
        C = uniform_weights(top)
        check_combination_matrix(C, top)

    def test_metropolis_two_nodes(self):
        top = Topology(((0, 1), (0, 1)))
        C = metropolis_weights(top)
        assert np.allclose(C, [[0.5, 0.5], [0.5, 0.5]])

    def test_metropolis_star(self):
        # hub degree 5 (self included), leaf degree 2: leaf-to-hub weight 1/5
        top = star_topology(4)
        C = metropolis_weights(top)
        for leaf in range(1, 5):
            assert C[0, leaf] == pytest.approx(1 / 5)
            assert C[leaf, leaf] == pytest.approx(4 / 5)
        assert C[0, 0] == pytest.approx(1 / 5)

    def test_metropolis_column_stochastic(self):
        top = build_random_geometric(20, 0.35, seed=42)
        C = metropolis_weights(top)
        check_combination_matrix(C, top, tol=1e-12)

    def test_check_rejects_off_support(self):
        top = star_topology(2)
        C = uniform_weights(top)
        C[1, 2] = 0.1
        C[2, 2] -= 0.1
        with pytest.raises(ValueError, match="support"):
            check_combination_matrix(C, top)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        top = build_random_geometric(15, 0.4, seed=5)
        path = tmp_path / "pinned.edges"
        save_edge_list(top, path)
        again = load_edge_list(path)
        assert again.neighbors == top.neighbors

    def test_header_format(self, tmp_path):
        top = Topology(((0, 1), (0, 1)))
        path = tmp_path / "two.edges"
        save_edge_list(top, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2"
        assert lines[1:] == ["0 1"]

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1\n1\n")
        with pytest.raises(TopologyError, match="odd"):
            load_edge_list(path)
        path.write_text("3\n0 x\n")
        with pytest.raises(TopologyError, match=f"^{re.escape(str(path))}: invalid literal"):
            load_edge_list(path)
        path.write_text("0\n")
        with pytest.raises(TopologyError, match=f"^{re.escape(str(path))}: topology needs at least one node"):
            load_edge_list(path)
