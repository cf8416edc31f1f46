import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asdnlms.analysis import (
    beta_admissible,
    block_costs,
    duty_cycle_estimate,
    nlms_steady_msd,
    predict,
    sampled_node_bounds,
    theta_bounds,
)
from asdnlms.network import Topology, build_random_geometric, load_edge_list
from asdnlms.sampling import AS_KINDS
from reference import as_dnlms_op_cost, dnlms_op_cost, gated_dnlms_op_cost, iteration_counts


class TestBetaAdmissible:
    def test_default_choice(self):
        assert beta_admissible(0.68, 0.4)

    def test_boundary(self):
        assert beta_admissible(0.4, 0.4)

    def test_too_small(self):
        assert not beta_admissible(0.3, 0.4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta_admissible(0.0, 0.4)

    @pytest.mark.parametrize("beta, sigma2_max", [(math.inf, 0.4), (math.nan, 0.4),
                                                  (0.68, math.inf), (0.68, math.nan)])
    def test_rejects_non_finite(self, beta, sigma2_max):
        with pytest.raises(ValueError, match="finite"):
            beta_admissible(beta, sigma2_max)


class TestThetaBounds:
    def test_default_values(self):
        t_max, t_min, tb_max, tb_min = theta_bounds(0.68, 0.1, 0.4)
        assert t_max == pytest.approx(0.4 / 0.28, abs=1e-12)
        assert tb_max == pytest.approx(5.8, abs=1e-12)
        assert t_min == 1.0  # 0.1/0.58 < 1 floors at one sampled iteration
        assert tb_min == 1.0  # 0.28/0.4 < 1 floors likewise

    def test_homogeneous_symmetric_case(self):
        # beta = 2 sigma2: one sampled, one idle iteration per cycle
        t_max, t_min, tb_max, tb_min = theta_bounds(0.5, 0.25, 0.25)
        assert (t_max, t_min, tb_max, tb_min) == (1.0, 1.0, 1.0, 1.0)
        assert duty_cycle_estimate(t_max, tb_min) == 0.5

    def test_boundary_beta_gives_infinite_theta(self):
        t_max, _, _, tb_min = theta_bounds(0.4, 0.1, 0.4)
        assert math.isinf(t_max)
        assert tb_min == 1.0
        assert duty_cycle_estimate(t_max, tb_min) == 1.0

    def test_rejects_zero_sigma_min(self):
        with pytest.raises(ValueError):
            theta_bounds(0.68, 0.0, 0.4)

    def test_rejects_inadmissible_beta(self):
        with pytest.raises(ValueError):
            theta_bounds(0.3, 0.1, 0.4)

    @pytest.mark.parametrize("args", [(math.inf, 0.1, 0.4), (math.nan, 0.1, 0.4),
                                      (0.68, math.nan, 0.4), (0.68, 0.1, math.inf),
                                      (math.inf, math.inf, math.inf)])
    def test_rejects_non_finite(self, args):
        # beta = inf once gave zero bounds and an infinite theta_bar
        with pytest.raises(ValueError):
            theta_bounds(*args)

    def test_all_at_least_one(self):
        for beta in (0.4, 0.5, 0.9, 2.0, 4.0):
            vals = theta_bounds(beta, 0.1, 0.4)
            assert all(v >= 1 for v in vals)


class TestSampledNodeBounds:
    def test_default_values(self):
        lo, hi = sampled_node_bounds(20, 0.68, 0.1, 0.4)
        assert lo == pytest.approx(2.94, abs=0.01)
        assert hi == pytest.approx(11.76, abs=0.01)

    def test_coincide_when_homogeneous(self):
        lo, hi = sampled_node_bounds(20, 0.6, 0.3, 0.3)
        assert lo == hi

    def test_boundary_upper_equals_v(self):
        _, hi = sampled_node_bounds(20, 0.4, 0.1, 0.4)
        assert hi == 20.0

    @pytest.mark.parametrize("V", [0, -5])
    def test_rejects_fewer_than_one_node(self, V):
        # V = -5 once gave the negative bounds -0.7353 and -2.9412
        with pytest.raises(ValueError, match="V must be >= 1"):
            sampled_node_bounds(V, 0.68, 0.1, 0.4)

    @pytest.mark.parametrize("args", [(-5, 0.68, 0.1, 0.4), (0, 0.68, 0.1, 0.4),
                                      (20, math.inf, 0.1, 0.4), (20, 0.68, math.nan, 0.4)])
    def test_predict_rejects_impossible_inputs(self, args):
        with pytest.raises(ValueError):
            predict(*args)

    def test_monotone_decreasing_in_beta(self):
        betas = [0.4, 0.5, 0.68, 1.0, 2.0, 4.0]
        los, his = zip(*(sampled_node_bounds(20, b, 0.1, 0.4) for b in betas))
        assert all(a > b for a, b in zip(los, los[1:]))
        assert all(a > b for a, b in zip(his, his[1:]))


class TestDutyCycle:
    def test_symmetric(self):
        assert duty_cycle_estimate(1.0, 1.0) == 0.5

    def test_idle_limit(self):
        assert duty_cycle_estimate(1.0, math.inf) == 0.0

    def test_composition_collapses_to_ratio(self):
        t_max, _, _, tb_min = theta_bounds(0.68, 0.1, 0.4)
        assert duty_cycle_estimate(t_max, tb_min) == pytest.approx(0.4 / 0.68, abs=1e-12)

    def test_rejects_sub_one(self):
        with pytest.raises(ValueError):
            duty_cycle_estimate(0.5, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        sigma2_min=st.floats(1e-3, 1.0),
        spread=st.floats(1.0, 10.0),
        margin=st.floats(1.0001, 12.0),
        V=st.integers(1, 200),
    )
    def test_derivation_chain_closes(self, sigma2_min, spread, margin, V):
        # composing duty cycles from the theta extrema reproduces the
        # closed-form sampled-node bounds exactly
        sigma2_max = sigma2_min * spread
        beta = sigma2_max * margin
        t_max, t_min, tb_max, tb_min = theta_bounds(beta, sigma2_min, sigma2_max)
        lo, hi = sampled_node_bounds(V, beta, sigma2_min, sigma2_max)
        assert duty_cycle_estimate(t_max, tb_min) * V == pytest.approx(hi, abs=1e-12, rel=1e-12)
        assert duty_cycle_estimate(t_min, tb_max) * V == pytest.approx(lo, abs=1e-12, rel=1e-12)

    def test_mu_s_absent_from_every_prediction(self):
        for fn in (predict, theta_bounds, sampled_node_bounds, duty_cycle_estimate):
            assert "mu_s" not in inspect.signature(fn).parameters


class TestOpCostModel:
    def test_dnlms_values(self):
        assert dnlms_op_cost(50, 4) == (354, 353)

    def test_as_all_sampled(self):
        mults, adds = as_dnlms_op_cost(50, 4, s_k=1, s_neighbors_sum=4)
        assert mults == 360  # 154 + 200 + 4 + 2
        assert adds == 358

    def test_as_idle_no_neighbors_sampled(self):
        mults, adds = as_dnlms_op_cost(50, 4, s_k=0, s_neighbors_sum=0)
        assert mults == 202  # 200 + 0 + 2 = dnlms - (3M + 2)
        assert dnlms_op_cost(50, 4)[0] - mults == 3 * 50 + 2

    @settings(max_examples=200, deadline=None)
    @given(M=st.integers(1, 300), nk=st.integers(1, 60))
    def test_sampled_overhead_identities(self, M, nk):
        # sampled node, all neighbors sampled: +(sum s_i + 2) mults, +(nk + 1) adds
        d_m, d_a = dnlms_op_cost(M, nk)
        a_m, a_a = as_dnlms_op_cost(M, nk, 1, nk)
        assert a_m - d_m == nk + 2
        assert a_a - d_a == nk + 1

    @settings(max_examples=200, deadline=None)
    @given(M=st.integers(1, 300), nk=st.integers(1, 60), data=st.data())
    def test_idle_savings_identities(self, M, nk, data):
        # idle node: -(3M + 2 - sum s_i) mults, -(4M - nk + 1) adds
        ssum = data.draw(st.integers(0, nk))
        d_m, d_a = dnlms_op_cost(M, nk)
        a_m, a_a = as_dnlms_op_cost(M, nk, 0, ssum)
        assert d_m - a_m == 3 * M + 2 - ssum
        assert d_a - a_a == 4 * M - nk + 1

    def test_gated_reduces_to_dnlms_when_sampled(self):
        for M, nk in ((50, 4), (8, 3), (1, 1)):
            assert gated_dnlms_op_cost(M, nk, 1) == dnlms_op_cost(M, nk)

    @settings(max_examples=100, deadline=None)
    @given(M=st.integers(1, 100), V=st.integers(1, 12), data=st.data())
    def test_network_sum_matches_per_node_model(self, M, V, data):
        # symmetric graph with self-loops, arbitrary sampling states
        A = np.eye(V, dtype=bool)
        for i in range(V):
            for j in range(i + 1, V):
                A[i, j] = A[j, i] = data.draw(st.booleans())
        s = np.array(data.draw(st.lists(st.integers(0, 1), min_size=V, max_size=V)))
        deg = A.sum(axis=0)
        as_sum = [as_dnlms_op_cost(M, int(deg[k]), int(s[k]), int(s[A[:, k]].sum()))
                  for k in range(V)]
        gated_sum = [gated_dnlms_op_cost(M, int(deg[k]), int(s[k])) for k in range(V)]
        src, dst = np.nonzero(A)
        bits = s.astype(bool)[None, None]
        for mech, want in ((True, as_sum), (False, gated_sum)):
            _, _, mults, adds = block_costs(M, bits, src, dst, True, False, mech)
            assert (mults[0, 0], adds[0, 0]) == tuple(map(sum, zip(*want)))
        # per row: a (B, 1) mechanism column and each row's delivered-link
        # mask give each row the model of its own links and mechanism
        B, L = data.draw(st.integers(1, 4)), 3
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = rng.random((B, L, V)) < 0.5
        heard = (rng.random((L, B, src.size)) < 0.5) | (src == dst)
        mech = np.array(data.draw(st.lists(st.booleans(), min_size=B, max_size=B)))[:, None]
        for unit in (True, False):
            per_row = block_costs(M, bits, src, dst, unit, False, mech, heard)
            by_row = [block_costs(M, bits[b:b + 1], src, dst, unit, False, mech[b, 0],
                                  heard[:, b:b + 1]) for b in range(B)]
            assert np.array_equal(np.stack(per_row), np.concatenate(by_row, axis=1))


def _star(tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("6\n" + "".join(f"0 {k}\n" for k in range(1, 6)))
    return load_edge_list(path)


def _chain(tmp_path):
    path = tmp_path / "chain.edges"
    path.write_text("6\n" + "".join(f"{k} {k + 1}\n" for k in range(5)))
    return load_edge_list(path)


class TestBlockCosts:
    """Every counter of :func:`block_costs` against a per-node count of each row."""

    MIXED = ["as_censoring", "probabilistic_transmission", "non_cooperative", "full"]
    UNMASKED = ["as_censoring", "as_sampling", "random_sampling", "full"]

    @pytest.mark.parametrize("unit", ["link", "broadcast"])
    @pytest.mark.parametrize("kinds", [MIXED, UNMASKED], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("graph", ["random_geometric", "one_node", "star", "chain"])
    def test_matches_the_per_node_counts(self, graph, kinds, unit, tmp_path):
        top = {"random_geometric": lambda: build_random_geometric(10, 0.5, np.random.SeedSequence(3)),
               "one_node": lambda: Topology(((0,),)),
               "star": lambda: _star(tmp_path), "chain": lambda: _chain(tmp_path)}[graph]()
        src, dst = top.edge_arrays()
        B, L, V, M = len(kinds), 7, top.node_count, 5
        rng = np.random.default_rng(11)
        sampling = np.isin(kinds, AS_KINDS + ("random_sampling",))
        bits = (rng.random((B, L, V)) < 0.4) | ~sampling[:, None, None]
        masked = np.isin(kinds, ["probabilistic_transmission", "non_cooperative"])
        # true on self links and on every link of an unmasked row
        heard = (rng.random((L, B, src.size)) < 0.5) | (src == dst) | ~masked[:, None]
        heard[:, np.isin(kinds, "non_cooperative")] = src == dst
        col = np.array([[k == "as_censoring"] for k in kinds]), np.isin(kinds, AS_KINDS)[:, None]
        got = dict(zip(("sampled", unit, "mults", "adds"), block_costs(
            M, bits, src, dst, unit == "link", *col, heard if masked.any() else None)))
        ns = src != dst
        for b, l in np.ndindex(B, L):
            want = iteration_counts(kinds[b], top, bits[b, l].astype(int), M, heard[l, b, ns])
            assert {k: got[k][b, l] for k in got} == {k: want[k] for k in got}, (b, l)

    @settings(max_examples=80, deadline=None)
    @given(src=st.lists(st.integers(0, 7), max_size=30), p=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1), by_link=st.booleans())
    @example(src=[], p=1.0, seed=0, by_link=False)  # a graph without links
    def test_comms_match_a_count_per_transmitter(self, src, p, seed, by_link):
        # neighbor links from random sources, beside the 8 self links, in a random order
        V, rng = 8, np.random.default_rng(seed)
        src = np.array(src, dtype=np.int64)
        dst = (src + rng.integers(1, V, size=src.size)) % V
        order = rng.permutation(V + src.size)
        src_e, dst_e = np.r_[np.arange(V), src][order], np.r_[np.arange(V), dst][order]
        heard = (rng.random((5, 2, src_e.size)) < p) | (src_e == dst_e)
        no = np.zeros((2, 1), bool)
        _, comms, _, _ = block_costs(4, np.ones((2, 5, V), bool), src_e, dst_e, by_link, no, no,
                                     heard)
        assert comms.shape == (2, 5)
        for b, l in np.ndindex(2, 5):
            active = src_e[heard[l, b] & (src_e != dst_e)]
            assert comms[b, l] == (active.size if by_link else len(set(active.tolist())))


class TestPredict:
    def test_bundle_consistency(self):
        pred = predict(20, 0.68, 0.1, 0.4)
        assert pred.Vs_upper == pytest.approx(pred.duty_cycle_upper * 20, abs=1e-12)
        assert pred.Vs_lower == pytest.approx(pred.duty_cycle_lower * 20, abs=1e-12)
        assert pred.Vs_lower <= pred.Vs_upper
        assert 0 <= pred.Vs_lower <= 20 and 0 <= pred.Vs_upper <= 20


class TestNlmsSteadyMsd:
    def test_hand_value(self):
        # mu 1, sigma2_v 0.5, M 12, sigma2_u 2: 1 * 0.5 * 12 / (1 * 10 * 2) = 0.3
        assert nlms_steady_msd(1.0, 0.5, 2.0, 12) == pytest.approx(0.3)

    def test_mean_over_nodes(self):
        mu, s2v, s2u = np.array([0.2, 1.0]), np.array([0.1, 0.4]), np.array([1.0, 2.0])
        per_node = [nlms_steady_msd(m, v, u, 7) for m, v, u in zip(mu, s2v, s2u)]
        assert nlms_steady_msd(mu, s2v, s2u, 7) == pytest.approx(np.mean(per_node))

    @pytest.mark.parametrize("M", [1, 2])
    def test_needs_more_than_two_taps(self, M):
        with pytest.raises(ValueError, match="M > 2"):
            nlms_steady_msd(0.5, 0.1, 1.0, M)
