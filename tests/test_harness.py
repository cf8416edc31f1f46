import errno
import os
import pickle
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdnlms.config import ConfigError, TopologySpec
from asdnlms.harness import (
    BLOCK,
    CHUNK,
    COUNTERS,
    MonteCarloResult,
    VariantGroup,
    _prepared_blocks,
    group_variants,
    materialize,
    monte_carlo,
    moving_average,
    plan_batches,
    run_batch,
    run_realization,
    steady_windows,
    to_db,
    usable_cpus,
    write_csv,
    write_manifest,
)
from asdnlms.network import TopologyError
from asdnlms.presets import expand_preset
from asdnlms.sampling import AS_KINDS, PolicyConfig, phi_prime
from asdnlms.signals import draw_signal_blocks, signal_streams
from conftest import make_config, no_child_left
from reference import (
    adjacency,
    as_dnlms_op_cost,
    dnlms_op_cost,
    gated_dnlms_op_cost,
    network_msd,
    reference_run,
)


class TestNetworkMsd:
    def test_perfect(self, rng):
        w_opt = rng.normal(size=5)
        W = np.tile(w_opt, (4, 1))
        assert network_msd(W, w_opt) == 0.0

    def test_zero_estimates(self, rng):
        w_opt = rng.normal(size=5)
        W = np.zeros((3, 5))
        assert network_msd(W, w_opt) == pytest.approx(float(w_opt @ w_opt), abs=1e-12)

    def test_hand_average(self):
        w_opt = np.zeros(2)
        W = np.array([[1.0, 0.0], [np.sqrt(3.0), 0.0]])  # deviations 1 and 3
        assert network_msd(W, w_opt) == pytest.approx(2.0, abs=1e-12)


class TestMovingAverage:
    def test_constant_unchanged(self):
        x = np.full(200, 3.25)
        assert moving_average(x, 64) == pytest.approx(x, abs=1e-12)

    def test_impulse_response(self):
        x = np.zeros(300)
        x[100] = 1.0
        y = moving_average(x, 64)
        assert y[99] == 0.0
        assert y[100:164] == pytest.approx(np.full(64, 1 / 64), abs=1e-15)
        assert y[164] == 0.0

    def test_prefix_rule(self):
        y = moving_average(np.arange(5.0), 64)
        assert y == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=300),
        L=st.integers(1, 80),
    )
    def test_matches_naive_oracle(self, values, L):
        x = np.array(values)
        got = moving_average(x, L)
        for n in range(x.size):
            window = x[max(0, n - L + 1): n + 1]
            assert got[n] == pytest.approx(window.sum() / window.size, abs=1e-9)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(3), 0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["full", "as_sampling", "as_censoring",
                                      "random_sampling", "probabilistic_transmission"])
    def test_bit_identical_repeat(self, kind):
        cfg = make_config(kind=kind, V=6, M=5, iterations=150, seed=13)
        mat = materialize(cfg)
        a = run_realization(cfg, 0, mat)
        b = run_realization(cfg, 0, mat)
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.sampled, b.sampled)
        assert np.array_equal(a.comms, b.comms)

    def test_realizations_differ(self):
        cfg = make_config(kind="full", V=6, M=5, iterations=100, seed=13)
        mat = materialize(cfg)
        a = run_realization(cfg, 0, mat)
        b = run_realization(cfg, 1, mat)
        assert not np.array_equal(a.msd, b.msd)

    def test_policies_share_signal_streams(self):
        # paired comparisons: identical first-iteration behavior before policies diverge
        cfg_full = make_config(kind="full", V=6, M=5, iterations=50, seed=13)
        cfg_rand = make_config(kind="random_sampling", V=6, M=5, iterations=50, seed=13, V_s=6)
        a = run_realization(cfg_full, 0, materialize(cfg_full))
        b = run_realization(cfg_rand, 0, materialize(cfg_rand))
        assert np.array_equal(a.msd, b.msd)  # V_s = V: identical to full sampling


class TestPolicyEquivalences:
    """Limit cases in which one policy is another, bit for bit."""

    @staticmethod
    def pair(kind, other, V, unit, **params):
        """One realization each of ``kind`` and ``other`` on the same network and signals."""
        cfgs = [replace(make_config(kind=k, V=V, M=5, iterations=BLOCK + 72, seed=4,
                                    flip=BLOCK // 2, **ps), comm_unit=unit)
                for k, ps in ((kind, params), (other, {}))]
        return [run_realization(cfg, 0, materialize(cfg)) for cfg in cfgs]

    # one node too: a lone node has no neighbor to reach under any policy
    CASES = ((6, "link"), (6, "broadcast"), (1, "link"), (1, "broadcast"))

    def test_pt_with_p_one_matches_full(self):
        # every link delivers at every iteration
        for V, unit in self.CASES:
            pt, full = self.pair("probabilistic_transmission", "full", V, unit, p=1.0)
            for name in ("msd", "comms", "mults", "adds"):
                assert np.array_equal(getattr(pt, name), getattr(full, name)), (V, unit, name)
            assert pt.comms.any() == (V > 1)

    def test_pt_with_p_zero_matches_non_cooperative(self):
        # no link delivers: every node combines its own psi with weight 1
        for V, unit in self.CASES:
            pt, lonely = self.pair("probabilistic_transmission", "non_cooperative", V, unit,
                                   p=0.0)
            for name in ("msd", "comms", "mults", "adds"):
                assert np.array_equal(getattr(pt, name), getattr(lonely, name)), (V, unit, name)
            assert not pt.comms.any()

    @pytest.mark.parametrize("kind", ["as_sampling", "as_censoring"])
    @pytest.mark.parametrize("unit", ["link", "broadcast"])
    def test_adaptive_kinds_at_tiny_beta_match_full(self, kind, unit):
        # the weighted squared error never falls to beta = 1e-9, so every alpha
        # stays at alpha_plus and every node samples, through the flip too;
        # the mults differ by the cost of the alpha update
        adaptive, full = self.pair(kind, "full", 6, unit, beta=1e-9)
        assert adaptive.sampled_bitmap.all()
        for name in ("msd", "sampled", "comms"):
            assert np.array_equal(getattr(adaptive, name), getattr(full, name)), name

    def test_non_cooperative_never_transmits(self):
        cfg = make_config(kind="non_cooperative", V=6, M=5, iterations=100, seed=4)
        series = run_realization(cfg, 0, materialize(cfg))
        assert np.all(series.comms == 0)

    def test_censoring_all_sampled_matches_plain_comms(self):
        # while every node samples (transient), censoring transmits like full dNLMS
        cfg = make_config(kind="as_censoring", V=8, M=20, iterations=30, seed=9)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        assert series.sampled_bitmap[:10].all()
        full_t = int((mat.topology.degrees() - 1).sum())
        assert np.all(series.comms[:10] == full_t)


class TestScaleInvariance:
    """NLMS does not see the scale of its data: an exact relation that shares no oracle."""

    KINDS = ("as_censoring", "as_sampling", "full", "probabilistic_transmission",
             "random_sampling", "non_cooperative")

    @staticmethod
    def run(scale):
        # u and v scale by 2, mu_tilde / (||u||^2 + delta) by 1/4 and e^2 and
        # beta by 4, so psi - w, the ACW distances and the alpha steps round the
        # same: every product and sum scales by a power of two
        cfg = make_config(V=12, M=8, iterations=3000, seed=5, flip=2000)
        env = cfg.env
        cfg = replace(cfg, env=replace(env, sigma2_u=env.sigma2_u * scale, delta=env.delta * scale,
                                       sigma2_v_min=env.sigma2_v_min * scale,
                                       sigma2_v_max=env.sigma2_v_max * scale))
        pols = [make_config(kind=k, V=12).policy for k in TestScaleInvariance.KINDS]
        pols = [replace(p, beta=p.beta * scale, mu_s=p.mu_s / scale) if p.kind in AS_KINDS
                else p for p in pols]
        return run_batch(cfg, [0, 1] * len(pols), policies=[p for p in pols for _ in (0, 1)])

    def test_data_four_times_larger_leaves_every_series_unchanged(self):
        base, scaled = self.run(1.0), self.run(4.0)
        # some node stops sampling, so the alpha update's error power is at work
        assert base.sampled[:4, -1000:].mean() < 8
        for name in COUNTERS + ("msd", "sampled_bitmap"):
            assert np.array_equal(getattr(base, name), getattr(scaled, name)), name


class TestCommAccounting:
    def test_full_link_count(self):
        cfg = make_config(kind="full", V=7, M=4, iterations=60, seed=2)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        expected = int((mat.topology.degrees() - 1).sum())
        assert np.all(series.comms == expected)

    def test_censoring_counts_sampled_out_degrees(self):
        cfg = make_config(kind="as_censoring", V=7, M=4, iterations=400, seed=2)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        out_deg = mat.topology.degrees() - 1
        expected = series.sampled_bitmap @ out_deg
        assert np.array_equal(series.comms, expected)

    def test_broadcast_unit(self):
        cfg = replace(make_config(kind="as_censoring", V=7, M=4, iterations=300, seed=2),
                      comm_unit="broadcast")
        series = run_realization(cfg, 0, materialize(cfg))
        assert np.array_equal(series.comms, series.sampled_bitmap.sum(axis=1))


class TestCostAccounting:
    def test_as_sampling_matches_model_exactly(self):
        cfg = make_config(kind="as_sampling", V=8, M=10, iterations=300, seed=6)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        deg = mat.topology.degrees()
        A = adjacency(mat.topology)
        M = cfg.env.M
        for n in range(0, 300, 7):
            s = series.sampled_bitmap[n].astype(int)
            mults = adds = 0
            for k in range(8):
                ssum = int(s[A[:, k]].sum())
                m, a = as_dnlms_op_cost(M, int(deg[k]), int(s[k]), ssum)
                mults += m
                adds += a
            assert series.mults[n] == mults
            assert series.adds[n] == adds

    def test_random_sampling_matches_gated_model(self):
        cfg = make_config(kind="random_sampling", V=8, M=10, iterations=100, seed=6, V_s=3)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        deg = mat.topology.degrees()
        for n in range(0, 100, 11):
            s = series.sampled_bitmap[n].astype(int)
            expected = np.array([gated_dnlms_op_cost(10, int(deg[k]), int(s[k])) for k in range(8)])
            assert series.mults[n] == expected[:, 0].sum()
            assert series.adds[n] == expected[:, 1].sum()

    def test_full_matches_dnlms_row(self):
        cfg = make_config(kind="full", V=8, M=10, iterations=20, seed=6)
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        deg = mat.topology.degrees()
        expected = sum(dnlms_op_cost(10, int(nk))[0] for nk in deg)
        assert np.all(series.mults == expected)


def observed(cfg, realizations, mat, policies=None):
    """A batch's series, and the n and a copy of the weight errors of each ``observe`` call."""
    calls = []
    series = run_batch(cfg, realizations, mat, policies=policies,
                       observe=lambda n, W: calls.append((n, W.copy())))
    return series, [n for n, _ in calls], np.array([W for _, W in calls])


def observed_run(cfg, realization, mat):
    """One realization's series and its (T, V, M) estimates: the round keeps
    the weight errors, so an estimate is W + w_opt before the flip and
    W - w_opt from it on."""
    series, ns, W = observed(cfg, [realization], mat)
    sign = np.where(np.array(ns) < (cfg.env.flip_iteration or cfg.iterations), 1.0, -1.0)
    return series.realization(0), W[:, 0] + sign[:, None, None] * mat.env.w_opt


class TestEngineMatchesPerNodeReference:
    @pytest.mark.parametrize("kind", ["full", "as_sampling", "as_censoring", "random_sampling",
                                      "probabilistic_transmission", "non_cooperative"])
    def test_trajectories_agree(self, kind):
        cfg = make_config(kind=kind, V=6, M=4, iterations=120, seed=31,
                          **({"V_s": 3} if kind == "random_sampling" else {}))
        mat = materialize(cfg)
        W_ref, s_ref, alpha_ref, comms_ref = reference_run(cfg, 0, mat)

        series, states = observed_run(cfg, 0, mat)
        assert np.array_equal(series.sampled_bitmap.astype(int), s_ref)
        assert np.array_equal(series.comms, comms_ref["link"])
        assert states == pytest.approx(W_ref, rel=1e-8, abs=1e-12)

        ref_msd = np.array([network_msd(W_ref[n], mat.env.w_opt) for n in range(120)])
        assert series.msd == pytest.approx(ref_msd, rel=1e-8, abs=1e-12)


class TestAlphaUpdate:
    def test_engine_runs_sampling_phi_prime(self, monkeypatch):
        # C7 checks sampling.phi_prime; this checks that it is the phi' the engine runs
        import asdnlms.harness as harness

        cfg = make_config(kind="as_sampling", V=6, M=4, iterations=300, seed=3, mu_s=1.0)
        mat = materialize(cfg)
        assert not run_realization(cfg, 0, mat).sampled_bitmap.all()
        calls = []

        def flat(alpha, alpha_plus):
            calls.append(alpha_plus)
            return np.zeros_like(phi_prime(alpha, alpha_plus))

        monkeypatch.setattr(harness, "phi_prime", flat)
        frozen = run_realization(cfg, 0, mat)
        assert calls == [cfg.policy.alpha_plus] * cfg.iterations
        assert frozen.sampled_bitmap.all()  # a zero slope keeps every alpha at alpha_plus

    @pytest.mark.parametrize("kinds", [["full"], ["random_sampling"], ["non_cooperative"],
                                       ["full", "random_sampling", "non_cooperative"],
                                       ["probabilistic_transmission"]])
    def test_batch_without_adaptive_rows_never_calls_phi_prime(self, monkeypatch, kinds):
        # a batch makes no call for a kind it lacks: without adaptive rows, no alpha update
        import asdnlms.harness as harness

        calls = []

        def counted(alpha, alpha_plus):
            calls.append(alpha_plus)
            return phi_prime(alpha, alpha_plus)

        monkeypatch.setattr(harness, "phi_prime", counted)
        cfg = make_config(kind=kinds[0], V=6, M=4, iterations=300, seed=3)
        run_batch(cfg, [0] * len(kinds), policies=[make_config(kind=k, V=6).policy for k in kinds])
        assert calls == []

    def test_non_finite_alpha_names_its_row_at_the_block_end(self, monkeypatch):
        # a NaN alpha would stop its node from sampling while the MSD stays
        # finite; the phi' of every row goes NaN, but only adaptive rows are named
        import asdnlms.harness as harness

        calls = []

        def nan_from_iteration(alpha, alpha_plus):
            calls.append(None)
            slope = phi_prime(alpha, alpha_plus)
            return slope * np.nan if len(calls) > BLOCK + 10 else slope

        monkeypatch.setattr(harness, "phi_prime", nan_from_iteration)
        cfg = make_config(kind="as_sampling", V=6, M=4, iterations=2 * BLOCK + 44, seed=3)
        with pytest.raises(harness.NonFiniteStateError, match=(
                f"^realization 1: alpha is not finite at iteration {2 * BLOCK - 1}$")) as exc:
            run_batch(cfg, [0, 1], policies=[PolicyConfig(kind="full"), cfg.policy])
        assert exc.value.row == 1
        assert len(calls) == 2 * BLOCK  # raised at the end of the block where alpha went NaN


KINDS = ["full", "as_sampling", "as_censoring", "random_sampling", "probabilistic_transmission",
         "non_cooperative"]
SERIES = ("msd", "sampled", "comms", "mults", "adds", "sampled_bitmap")


def assert_matches_reference(cfg, realization=0, rel=1e-8, abs=1e-12):
    """The engine's trajectory, sampled nodes and comms against :func:`reference_run`."""
    mat = materialize(cfg)
    W_ref, s_ref, _, comms_ref = reference_run(cfg, realization, mat)
    series, states = observed_run(cfg, realization, mat)
    assert np.array_equal(series.sampled_bitmap.astype(int), s_ref)
    assert np.array_equal(series.comms, comms_ref[cfg.comm_unit])
    assert states == pytest.approx(W_ref, rel=rel, abs=abs)
    flip = cfg.env.flip_iteration
    sign = np.where(np.arange(cfg.iterations) < (flip or cfg.iterations), 1.0, -1.0)
    ref_msd = np.array([network_msd(W, s * mat.env.w_opt) for W, s in zip(W_ref, sign)])
    assert series.msd == pytest.approx(ref_msd, rel=rel, abs=abs)


class TestBatchEngine:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_above_chunk_matches_single_runs(self, kind):
        R = CHUNK + 3
        cfg = replace(make_config(kind=kind, V=6, M=4, iterations=300, realizations=R, seed=5,
                                  flip=150), comm_unit="broadcast")
        mat = materialize(cfg)
        batch = run_batch(cfg, range(R), mat)
        agg = monte_carlo(cfg, mat)
        msd_sum = np.zeros(cfg.iterations)
        for r in range(R):
            single = run_realization(cfg, r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[r], getattr(single, name)), name
            msd_sum += single.msd
        assert np.array_equal(agg.msd, msd_sum / R)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("V, M, radius", [(20, 50, 0.35), (100, 10, 0.18)])
    def test_batch_of_eight_matches_single_runs_at_benchmark_shapes(self, kind, V, M, radius):
        # 134 and 1046 links per realization: here a product over the flattened
        # batch gives some realizations other last bits than a batch of one
        cfg = make_config(kind=kind, V=V, M=M, iterations=40, seed=5, radius=radius, flip=20)
        mat = materialize(cfg)
        batch = run_batch(cfg, range(8), mat)
        for r in range(8):
            single = run_realization(cfg, r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[r], getattr(single, name)), name

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_iterations_match_reference_tightly(self, kind):
        # three iterations leave no room for drift, so a wrong term of the ACW
        # recursion fails here rather than as a slow divergence
        assert_matches_reference(make_config(kind=kind, V=6, M=4, iterations=3, seed=31),
                                 rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind", ["as_censoring", "probabilistic_transmission"])
    @pytest.mark.parametrize("T", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_block_boundaries_match_reference(self, kind, T):
        assert_matches_reference(make_config(kind=kind, V=4, M=3, iterations=T, seed=8))

    @pytest.mark.parametrize("kind", ["as_sampling", "random_sampling"])
    def test_flip_at_block_start_matches_reference(self, kind):
        assert_matches_reference(make_config(kind=kind, V=4, M=3, iterations=2 * BLOCK + 5,
                                             seed=8, flip=BLOCK), realization=2)

    def test_flip_shifts_what_idle_censoring_nodes_hold(self):
        # no node samples at the flip, so every node's neighbors combine the psi
        # it held from before the flip, which must move with w_opt
        cfg = make_config(kind="as_censoring", V=6, M=4, iterations=300, seed=3, flip=200,
                          mu_s=2.0)
        assert not run_realization(cfg, 0).sampled_bitmap[200].any()
        assert_matches_reference(cfg)

    def test_taps_carry_over_blocks_shorter_than_the_filter(self, monkeypatch):
        import asdnlms.harness as harness

        monkeypatch.setattr(harness, "BLOCK", 3)
        assert_matches_reference(make_config(kind="as_censoring", V=4, M=7, iterations=20,
                                             seed=8, flip=10))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        unit=st.sampled_from(["link", "broadcast"]),
        V=st.integers(1, 6),
        M=st.integers(1, 6),
        T=st.integers(1, 300),
        flip=st.booleans(),
        seed=st.integers(0, 2**16),
        realization=st.integers(0, 3),
        radius=st.floats(0.4, 1.5),
        beta=st.floats(0.05, 2.0),
        mu_s=st.floats(0.01, 1.0),
        p=st.floats(0.0, 1.0),
    )
    def test_property_matches_reference(self, kind, unit, V, M, T, flip, seed, realization,
                                        radius, beta, mu_s, p):
        params = {
            "as_sampling": dict(beta=beta, mu_s=mu_s),
            "as_censoring": dict(beta=beta, mu_s=mu_s),
            "random_sampling": dict(V_s=1 + seed % V),
            "probabilistic_transmission": dict(p=p),
        }.get(kind, {})
        cfg = make_config(kind=kind, V=V, M=M, iterations=T, seed=seed, radius=radius,
                          flip=T // 2 if flip and T > 1 else None, **params)
        assert_matches_reference(replace(cfg, comm_unit=unit), realization)


class TestHubAndChain:
    """Probabilistic transmission on an irregular graph: a hub and a chain."""

    @pytest.fixture
    def hub_and_chain(self, tmp_path):
        # node 0 reaches nodes 1..12, and nodes 12..23 form a chain: the hub
        # has 13 links, self included, of E = 70 over V = 24 nodes
        links = [(0, k) for k in range(1, 13)] + [(k, k + 1) for k in range(12, 23)]
        path = tmp_path / "hub_chain.edges"
        path.write_text("24\n" + "".join(f"{j} {k}\n" for j, k in links))
        return TopologySpec(kind="edge_list", edge_list=str(path))

    def _config(self, topology, unit):
        cfg = make_config(kind="probabilistic_transmission", M=4, iterations=BLOCK + 40,
                          seed=13, flip=BLOCK // 2, p=0.4)
        return replace(cfg, topology=topology, comm_unit=unit)

    @pytest.mark.parametrize("unit", ["link", "broadcast"])
    def test_matches_reference(self, hub_and_chain, unit):
        cfg = self._config(hub_and_chain, unit)
        deg = materialize(cfg).topology.degrees()
        assert deg.max() > 4 * deg.mean()
        assert_matches_reference(cfg, realization=1)

    @pytest.mark.parametrize("unit", ["link", "broadcast"])
    def test_batch_of_eight_matches_single_runs(self, hub_and_chain, unit):
        cfg = self._config(hub_and_chain, unit)
        mat = materialize(cfg)
        batch = run_batch(cfg, range(8), mat)
        for r in range(8):
            single = run_realization(cfg, r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[r], getattr(single, name)), name


class TestWorkspace:
    def test_interleaved_batches_match_standalone_runs(self, monkeypatch):
        # a second batch of another shape runs inside the first, between its
        # blocks; neither may see the other's workspace
        import asdnlms.harness as harness

        outer = make_config(kind="as_sampling", V=20, M=50, iterations=2 * BLOCK + 7,
                            seed=11, radius=0.35, flip=BLOCK + 3)
        inner = replace(make_config(kind="probabilistic_transmission", V=9, M=3,
                                    iterations=BLOCK + 5, seed=12, radius=0.5),
                        comm_unit="broadcast")
        mat_outer, mat_inner = materialize(outer), materialize(inner)
        before = {id(m): _arrays(m) for m in (mat_outer, mat_inner)}
        alone_outer = run_batch(outer, range(3), mat_outer)
        alone_inner = run_batch(inner, [0, 4], mat_inner)

        draw = harness.draw_signal_blocks
        nested = []

        def draw_then_interleave(env, streams, L):
            if env is mat_outer.env:
                nested.append(run_batch(inner, [0, 4], mat_inner))
            return draw(env, streams, L)

        monkeypatch.setattr(harness, "draw_signal_blocks", draw_then_interleave)
        interleaved = run_batch(outer, range(3), mat_outer)
        assert len(nested) == 3  # one per block of the outer run
        for got, want in [(interleaved, alone_outer)] + [(n, alone_inner) for n in nested]:
            for name in SERIES:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for m in (mat_outer, mat_inner):
            after = _arrays(m)
            assert all(np.array_equal(after[k], v) for k, v in before[id(m)].items())

    def test_random_sampling_draws_exactly_vs_uniform_nodes(self):
        V, V_s, R, T = 10, 3, 4, 2 * BLOCK + 40
        cfg = make_config(kind="random_sampling", V=V, M=3, iterations=T, realizations=R,
                          seed=21, V_s=V_s)
        bits = run_batch(cfg, range(R), materialize(cfg)).sampled_bitmap
        assert np.all(bits.sum(axis=2) == V_s)  # every iteration, across block boundaries
        p, trials = V_s / V, R * T
        freq = bits.reshape(trials, V).mean(axis=0)
        assert np.all(np.abs(freq - p) <= 6 * np.sqrt(p * (1 - p) / trials))


class TestObserve:
    """The ``observe`` hook sees each iteration's weight errors, row by row."""

    def test_rows_of_a_mixed_batch_observe_their_single_runs(self):
        cfg = make_config(V=6, M=4, iterations=BLOCK + 40, seed=9, flip=BLOCK // 2)
        mat = materialize(cfg)
        pols = [PolicyConfig(kind="full"), PolicyConfig(kind="as_sampling", beta=0.68, mu_s=2.0),
                PolicyConfig(kind="as_censoring", beta=1.5, mu_s=1.0),
                PolicyConfig(kind="random_sampling", V_s=3), PolicyConfig(kind="non_cooperative"),
                PolicyConfig(kind="probabilistic_transmission", p=0.3),
                PolicyConfig(kind="probabilistic_transmission", p=0.7),
                PolicyConfig(kind="as_censoring", beta=0.68, mu_s=2.0)]
        rs = [0, 1, 0, 2, 1, 0, 2, 1]
        batch, _, W = observed(cfg, rs, mat, pols)
        unobserved = run_batch(cfg, rs, mat, policies=pols)
        for name in SERIES:  # observing changes nothing
            assert np.array_equal(getattr(batch, name), getattr(unobserved, name)), name
        for b, (pol, r) in enumerate(zip(pols, rs)):
            _, _, W_single = observed(replace(cfg, policy=pol), [r], mat)
            assert np.array_equal(W[:, b], W_single[:, 0]), (pol.kind, r)

    @pytest.mark.parametrize("kinds", [["full"], ["as_censoring", "probabilistic_transmission"]])
    def test_one_call_per_iteration_in_order(self, kinds):
        # across block boundaries, with a flip at a block start
        T = 2 * BLOCK + 5
        cfg = make_config(V=6, M=4, iterations=T, seed=8, flip=BLOCK)
        pols = [make_config(kind=k, V=6).policy for k in kinds]
        series, ns, W = observed(cfg, [0] * len(kinds), materialize(cfg), pols)
        assert ns == list(range(T))
        # what it sees is the state the network MSD is taken from
        msd = np.einsum("nbvm,nbvm->bn", W, W) / cfg.topology.V
        assert msd == pytest.approx(series.msd, rel=1e-12, abs=0)


class TestGroupedRows:
    """Variants as the rows of one batch: each row is its variant's own run."""

    ROW_POLICIES = {
        "as_sampling": [dict(beta=0.68, mu_s=2.0), dict(beta=1.5, mu_s=1.0),
                        dict(beta=3.0, mu_s=0.5)],
        "as_censoring": [dict(beta=0.68, mu_s=2.0), dict(beta=1.5, mu_s=1.0),
                         dict(beta=3.0, mu_s=0.5)],
        "random_sampling": [dict(V_s=1), dict(V_s=3), dict(V_s=6)],
        "probabilistic_transmission": [dict(p=0.2), dict(p=0.5), dict(p=1.0)],
    }

    @pytest.mark.parametrize("kind", list(ROW_POLICIES))
    def test_rows_match_single_runs(self, kind):
        cfg = make_config(kind=kind, V=6, M=4, iterations=BLOCK + 40, seed=9, flip=BLOCK // 2)
        mat = materialize(cfg)
        pols = [PolicyConfig(kind=kind, **params) for params in self.ROW_POLICIES[kind]]
        # rows that share realization 0 or 2 share its signals
        rows = [(pols[0], 0), (pols[1], 0), (pols[2], 0), (pols[0], 2), (pols[2], 2)]
        batch = run_batch(cfg, [r for _, r in rows], mat, policies=[p for p, _ in rows])
        # the parameters matter: the three rows of realization 0 differ
        assert len({batch.sampled[b].tobytes() + batch.comms[b].tobytes() for b in range(3)}) == 3
        for b, (pol, r) in enumerate(rows):
            single = run_realization(replace(cfg, policy=pol), r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), name

    @pytest.mark.parametrize("comm_unit", ["link", "broadcast"])
    def test_mixed_kind_rows_match_single_runs(self, comm_unit):
        cfg = replace(make_config(V=6, M=4, iterations=BLOCK + 40, seed=9, flip=BLOCK // 2),
                      comm_unit=comm_unit)
        mat = materialize(cfg)
        pols = [PolicyConfig(kind="full"), PolicyConfig(kind="as_sampling", beta=0.68, mu_s=2.0),
                PolicyConfig(kind="as_censoring", beta=1.5, mu_s=1.0),
                PolicyConfig(kind="random_sampling", V_s=3), PolicyConfig(kind="non_cooperative"),
                PolicyConfig(kind="probabilistic_transmission", p=0.3),
                PolicyConfig(kind="probabilistic_transmission", p=0.7)]
        rows = [(pol, r) for r in (0, 1) for pol in pols]
        batch = run_batch(cfg, [r for _, r in rows], mat, policies=[p for p, _ in rows])
        for b, (pol, r) in enumerate(rows):
            single = run_realization(replace(cfg, policy=pol), r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), \
                    (pol.kind, r, name)

    @pytest.mark.parametrize("kinds", [
        ["full"], ["non_cooperative"], ["probabilistic_transmission"],
        ["full", "probabilistic_transmission"], ["as_censoring", "as_censoring"],
        ["as_censoring", "as_sampling"], ["as_sampling", "random_sampling"],
        ["as_censoring", "probabilistic_transmission"], ["full", "non_cooperative"],
        ["as_censoring", "non_cooperative"]])
    def test_each_step_form_matches_single_runs(self, kinds):
        # a batch picks each step's form from its kinds (no sampler, no mask,
        # every row censoring, ...), and a row alone may run another form
        cfg = make_config(V=6, M=4, iterations=2 * BLOCK + 44, seed=9, flip=BLOCK + 7)
        mat = materialize(cfg)
        params = {"as_sampling": dict(beta=0.68, mu_s=2.0), "as_censoring": dict(beta=0.68, mu_s=2.0),
                  "random_sampling": dict(V_s=3), "probabilistic_transmission": dict(p=0.5)}
        rows = [(PolicyConfig(kind=k, **params.get(k, {})), r) for r in (0, 1) for k in kinds]
        batch = run_batch(cfg, [r for _, r in rows], mat, policies=[p for p, _ in rows])
        for b, (pol, r) in enumerate(rows):
            # a row with a sampler leaves some node out, so its gate matters
            sampler = pol.kind in ("as_sampling", "as_censoring", "random_sampling")
            assert batch.sampled_bitmap[b].all() != sampler
            single = run_realization(replace(cfg, policy=pol), r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), \
                    (pol.kind, r, name)
            if r == 0:  # a row alone may run the same wrong form
                assert_matches_reference(replace(cfg, policy=pol))

    def test_beta_sweep_rows_match_single_runs(self):
        cfgs = expand_preset("fig_beta_sweep", seed=2, realizations=1, iterations=300)
        mat = materialize(cfgs[0])
        batch = run_batch(cfgs[0], [0] * len(cfgs), mat, policies=[c.policy for c in cfgs])
        for b, cfg in enumerate(cfgs):
            single = run_realization(cfg, 0, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), name

    def test_group_matches_standalone_campaigns(self, monkeypatch):
        import asdnlms.harness as harness

        R = 3
        base = make_config(kind="as_censoring", V=6, M=4, iterations=200, realizations=R,
                           seed=4, flip=100)
        cfgs = [replace(base, label=f"v{i}", policy=PolicyConfig(kind="as_censoring", **params))
                for i, params in enumerate(self.ROW_POLICIES["as_censoring"])]
        assert CHUNK < len(cfgs) * R <= 2 * CHUNK  # the rows span a chunk boundary
        mat = materialize(base)
        alone = [monte_carlo(cfg, mat) for cfg in cfgs]

        batches = []
        run = harness.run_batch

        def counting(*args, **kwargs):
            batches.append(len(args[1]))
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)  # a child's counts stay in the child
        monkeypatch.setattr(harness, "run_batch", counting)
        groups = group_variants(cfgs)
        assert all(g is groups[0] for g in groups)
        grouped = [monte_carlo(cfg, mat, group) for cfg, group in zip(cfgs, groups)]
        assert batches == [CHUNK, len(cfgs) * R - CHUNK]  # all run in the first call
        for got, want in zip(grouped, alone):
            assert got.config is want.config
            for name in ("msd", "msd_db", "msd_db_smoothed", "sampled", "comms", "mults",
                         "adds"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.manifest == want.manifest

    @pytest.mark.parametrize("name, batches", [("fig_msd_cost", [CHUNK, 15 - CHUNK]),
                                               ("fig_censoring", [CHUNK, 15 - CHUNK])])
    def test_preset_groups_match_standalone_campaigns(self, name, batches, monkeypatch):
        # at R = 3 the variants' rows span a chunk boundary, and each batch
        # holds rows of several kinds
        import asdnlms.harness as harness

        cfgs = expand_preset(name, seed=5, realizations=3, iterations=160)
        mat = materialize(cfgs[0])
        alone = [monte_carlo(cfg, mat) for cfg in cfgs]
        sizes, run = [], harness.run_batch

        def counting(*args, **kwargs):
            sizes.append(len(args[1]))
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)  # a child's counts stay in the child
        monkeypatch.setattr(harness, "run_batch", counting)
        grouped = [monte_carlo(cfg, mat, group) for cfg, group in zip(cfgs, group_variants(cfgs))]
        assert sizes == batches
        for got, want in zip(grouped, alone):
            for name in ("msd", "msd_db", "msd_db_smoothed") + COUNTERS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.manifest == want.manifest

    def test_non_finite_row_names_its_variant(self, monkeypatch):
        # with two rows per batch, the second batch holds only v1's rows; it
        # fails inside the monte_carlo call of v0, which runs the whole group
        import asdnlms.harness as harness

        draw, draws = harness.draw_signal_blocks, []

        def nan_in_second_batch(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            draws.append(None)
            if len(draws) == 2:
                inputs[0, 2, 30] = np.nan
            return inputs, noises

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)  # a child's counts stay in the child
        monkeypatch.setattr(harness, "CHUNK", 2)
        monkeypatch.setattr(harness, "draw_signal_blocks", nan_in_second_batch)
        base = make_config(kind="random_sampling", V=6, M=4, iterations=60, realizations=2)
        cfgs = [replace(base, label=f"v{vs}", policy=PolicyConfig(kind="random_sampling", V_s=vs))
                for vs in (2, 4)]
        groups = group_variants(cfgs)
        with pytest.raises(harness.NonFiniteStateError,
                           match="v4, realization 0: network MSD is not finite at iteration 30"):
            monte_carlo(cfgs[0], materialize(base), groups[0])

    def test_non_finite_non_cooperative_row_names_its_variant(self, monkeypatch):
        # the first batch holds nc's two rows and one row of full; only nc's
        # row of realization 1 sees the NaN
        import asdnlms.harness as harness

        draw, draws = harness.draw_signal_blocks, []

        def nan_in_realization_1(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            draws.append(None)
            if len(draws) == 1:
                inputs[1, 2, 30] = np.nan
            return inputs, noises

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)  # a child's counts stay in the child
        monkeypatch.setattr(harness, "CHUNK", 3)
        monkeypatch.setattr(harness, "draw_signal_blocks", nan_in_realization_1)
        base = make_config(kind="non_cooperative", V=6, M=4, iterations=60, realizations=2)
        cfgs = [replace(base, label="nc"),
                replace(base, label="dnlms", policy=PolicyConfig(kind="full"))]
        groups = group_variants(cfgs)
        assert groups[0] is groups[1]
        with pytest.raises(harness.NonFiniteStateError,
                           match="nc, realization 1: network MSD is not finite at iteration 30"):
            monte_carlo(cfgs[1], materialize(base), groups[1])

    def test_grouping_rule(self, tmp_path):
        base = make_config(kind="as_sampling", V=6, flip=100)
        # every policy joins the campaign, whatever its kind and parameters
        same = [replace(base, label="a"),
                replace(base, label="b", policy=replace(base.policy, beta=1.1, mu_s=0.3)),
                replace(base, policy=replace(base.policy, kind="as_censoring")),
                make_config(kind="full", V=6, flip=100),
                make_config(kind="random_sampling", V=6, flip=100, V_s=2),
                make_config(kind="non_cooperative", V=6, flip=100),
                make_config(kind="probabilistic_transmission", V=6, flip=100)]
        # ... but these run in batches of their own
        own_batch = [
            replace(base, policy=replace(base.policy, alpha_plus=3.0)),
            replace(base, policy=PolicyConfig(kind="as_censoring", beta=0.68, mu_s=0.1571,
                                              alpha_plus=2.0)),
        ]
        apart = [
            replace(base, seed=8),
            replace(base, env=replace(base.env, flip_iteration=None)),
            replace(base, topology=replace(base.topology, radius=0.5)),
            replace(base, comm_unit="broadcast"),
        ]
        campaign = [base] + same + own_batch
        groups = group_variants(campaign + apart)
        assert all(g is groups[0] for g in groups[:len(campaign)])
        assert groups[0].configs == campaign
        assert len({id(g) for g in groups}) == 1 + len(apart)
        for other in apart:
            with pytest.raises(ValueError, match="may differ only"):
                VariantGroup([base, other])
        n = 1 + len(same)
        plan = plan_batches(campaign, cpus=1)
        assert [[i for i, _ in batch] for batch in plan] == [list(range(n)), [n], [n + 1]]

    def test_batch_rejects_rows_of_two_alpha_plus(self):
        # rows of any kinds share a batch; a second adaptive alpha_plus does not
        cfg = make_config(kind="as_sampling", V=6, iterations=5)
        mat = materialize(cfg)
        for other in (replace(cfg.policy, alpha_plus=2.0),
                      replace(cfg.policy, kind="as_censoring", alpha_plus=2.0)):
            with pytest.raises(ValueError, match="adaptive rows must share one alpha_plus"):
                run_batch(cfg, [0, 1], mat, policies=[cfg.policy, other])
        with pytest.raises(ValueError, match="one policy per row"):
            run_batch(cfg, [0, 1], mat, policies=[cfg.policy])


class TestBatchPlan:
    def test_one_cpu_runs_variant_major_chunks_per_batch_key(self):
        cfgs = expand_preset("fig_censoring", realizations=3)
        rows = [(i, r) for i in range(5) for r in range(3)]
        assert plan_batches(cfgs, 1) == [rows[:CHUNK], rows[CHUNK:]]

    @pytest.mark.parametrize("cfgs, cpus, plan", [
        # one kind, 8 rows: one batch split in halves
        ([make_config(realizations=8)], 2, [[(0, r) for r in range(4)],
                                            [(0, r) for r in range(4, 8)]]),
        # the largest batch splits first, and the rows keep their order
        ([make_config(realizations=8)], 3, [[(0, 0), (0, 1)], [(0, 2), (0, 3)],
                                            [(0, r) for r in range(4, 8)]]),
        ([make_config(realizations=3)], 8, [[(0, 0)], [(0, 1)], [(0, 2)]]),
        # every kind in one batch, split in halves, the first the larger
        (expand_preset("fig_censoring", realizations=1), 2,
         [[(0, 0), (1, 0), (2, 0)], [(3, 0), (4, 0)]]),
        # as many batches as CPUs already: one per alpha_plus
        ([make_config(kind="as_sampling", realizations=2),
          make_config(kind="as_sampling", realizations=2, alpha_plus=2.0)], 2,
         [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]),
        ([make_config(realizations=1)], 2, [[(0, 0)]]),
    ])
    def test_fewer_batches_than_cpus_split(self, cfgs, cpus, plan):
        assert plan_batches(cfgs, cpus) == plan

    def test_usable_cpus_is_one_while_other_threads_run(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert usable_cpus() == 1  # a forked child would lack the thread
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))

    def test_a_large_campaign_keeps_full_chunks(self):
        cfgs = expand_preset("fig_msd_cost", realizations=16)
        plan = plan_batches(cfgs, 2)
        assert plan == plan_batches(cfgs, 1)
        assert [len(batch) for batch in plan] == [CHUNK] * 10


def _failed_fork_leaks_no_descriptor(monkeypatch, campaign):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "fork")

    monkeypatch.setattr(os, "fork", no_fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        campaign()
    assert len(os.listdir("/proc/self/fd")) == before


counts_fds = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="counts the entries of /proc/self/fd")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
class TestForkedWorkers:
    """Campaigns at 2 CPUs, on any host: the second batch runs in a forked child."""

    SMALL = (6, 4, 60, 2)  # V, M, T, R

    @pytest.fixture
    def campaign(self, monkeypatch, request):
        # 2R rows split in halves: v2's rows run here, v4's in the child
        import asdnlms.harness as harness

        V, M, T, R = getattr(request, "param", self.SMALL)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        base = make_config(kind="random_sampling", V=V, M=M, iterations=T, realizations=R)
        cfgs = [replace(base, label=f"v{vs}", policy=PolicyConfig(kind="random_sampling", V_s=vs))
                for vs in (2, 4)]
        assert plan_batches(cfgs, 2) == [[(i, r) for r in range(R)] for i in (0, 1)]
        return cfgs, group_variants(cfgs), materialize(base)

    # the larger campaign's worker result, about 140 KB, crosses the pipe in
    # several writes (its default size is 64 KiB on Linux)
    @pytest.mark.parametrize("campaign, min_bytes", [
        (SMALL, 0), ((20, 10, 600, 4), 1 << 16)],
        ids=["small", "result_over_64KiB"], indirect=["campaign"])
    def test_matches_one_cpu_and_leaves_no_process(self, campaign, min_bytes, monkeypatch):
        import asdnlms.harness as harness

        cfgs, groups, mat = campaign
        got = [monte_carlo(cfg, mat, group) for cfg, group in zip(cfgs, groups)]
        no_child_left()
        R = cfgs[1].realizations
        child_result = run_batch(cfgs[1], range(R), mat, policies=[cfgs[1].policy] * R)
        assert len(pickle.dumps(child_result, pickle.HIGHEST_PROTOCOL)) > min_bytes
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        for cfg, result in zip(cfgs, got):
            want = monte_carlo(cfg, mat)
            for name in ("msd", "msd_db", "msd_db_smoothed") + COUNTERS:
                assert np.array_equal(getattr(result, name), getattr(want, name)), name

    @pytest.mark.parametrize("in_child, variant", [(True, "v4"), (False, "v2")])
    def test_non_finite_batch_names_its_variant(self, campaign, in_child, variant, monkeypatch):
        import asdnlms.harness as harness

        cfgs, groups, mat = campaign
        parent, draw = os.getpid(), harness.draw_signal_blocks

        def nan_in_one_process(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            if (os.getpid() != parent) == in_child:
                inputs[0, 2, 30] = np.nan
            return inputs, noises

        monkeypatch.setattr(harness, "draw_signal_blocks", nan_in_one_process)
        with pytest.raises(harness.NonFiniteStateError, match=(
                f"{variant}, realization 0: network MSD is not finite at iteration 30")):
            monte_carlo(cfgs[0], mat, groups[0])
        no_child_left()

    def test_interrupt_here_kills_the_children(self, campaign, monkeypatch):
        import asdnlms.harness as harness

        cfgs, groups, mat = campaign
        parent, run_batch = os.getpid(), harness.run_batch

        def interrupted_here(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "run_batch", interrupted_here)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo(cfgs[0], mat, groups[0])
        no_child_left()

    def test_single_row_forks_nothing(self, monkeypatch):
        # one batch, however many blocks, runs in this process: nothing prepares them ahead
        import asdnlms.harness as harness

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        three_blocks = [make_config(kind=kind, V=10, M=4, iterations=2 * BLOCK + 44, seed=6,
                                    flip=BLOCK + 7)
                        for kind in ("as_censoring", "probabilistic_transmission")]
        for cfg in (make_config(iterations=30), *three_blocks):
            assert np.isfinite(monte_carlo(cfg).msd).all()

    @counts_fds
    def test_failed_fork_leaks_no_descriptor(self, campaign, monkeypatch):
        cfgs, groups, mat = campaign
        _failed_fork_leaks_no_descriptor(monkeypatch, lambda: monte_carlo(cfgs[0], mat, groups[0]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
class TestBlocksPreparedHere:
    """One-row campaigns at 2 CPUs, on any host: the process that runs the
    round prepares every block, and nothing forks."""

    T = 2 * BLOCK + 44  # three blocks, the last one short

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        import asdnlms.harness as harness

        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)

    def config(self, kind):
        return make_config(kind=kind, V=10, M=4, iterations=self.T, seed=6, flip=BLOCK + 7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_row_matches_one_cpu(self, kind, forks, monkeypatch):
        import asdnlms.harness as harness

        cfg = self.config(kind)
        mat = materialize(cfg)
        got = monte_carlo(cfg, mat)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        want = monte_carlo(cfg, mat)
        assert not forks
        for name in ("msd", "msd_db", "msd_db_smoothed") + COUNTERS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_rows_sharing_a_realization_match_single_runs(self, forks):
        cfg = self.config("as_sampling")
        mat = materialize(cfg)
        pols = [cfg.policy, PolicyConfig(kind="random_sampling", V_s=3),
                PolicyConfig(kind="full"), PolicyConfig(kind="as_censoring", beta=0.68,
                                                        mu_s=0.1571)]
        realizations = [0, 1, 0, 0]
        batch = run_batch(cfg, realizations, mat, policies=pols)
        for b, (pol, r) in enumerate(zip(pols, realizations)):
            single = run_realization(replace(cfg, policy=pol), r, mat)
            for name in SERIES:
                assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), \
                    (pol.kind, name)
        assert not forks

    def test_every_block_is_drawn_here(self, forks, monkeypatch):
        import asdnlms.harness as harness

        draw, calls = harness.draw_signal_blocks, []

        def logged(env, streams, iterations):
            calls.append((os.getpid(), iterations))
            return draw(env, streams, iterations)

        monkeypatch.setattr(harness, "draw_signal_blocks", logged)
        monte_carlo(self.config("as_censoring"))
        here = os.getpid()
        assert calls == [(here, BLOCK), (here, BLOCK), (here, self.T - 2 * BLOCK)]
        assert not forks

    @staticmethod
    def at_block_1(monkeypatch, spoil):
        # spoil(inputs) at the second draw: block 1
        import asdnlms.harness as harness

        draw, calls = harness.draw_signal_blocks, []

        def spoiled(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            calls.append(iterations)
            if len(calls) == 2:
                spoil(inputs)
            return inputs, noises

        monkeypatch.setattr(harness, "draw_signal_blocks", spoiled)

    def test_nan_in_a_later_block_names_realization_and_iteration(self, forks, monkeypatch):
        import asdnlms.harness as harness

        self.at_block_1(monkeypatch, lambda inputs: inputs.__setitem__((0, 2, 30), np.nan))
        cfg = self.config("as_censoring")
        with pytest.raises(harness.NonFiniteStateError, match=(
                f"{cfg.name()}, realization 0: network MSD is not finite at iteration "
                f"{BLOCK + 30}")):
            monte_carlo(cfg)
        assert not forks

    def test_exception_in_a_later_block_is_raised_at_that_block(self, forks, monkeypatch):
        import asdnlms.analysis as analysis

        def fail(inputs):
            raise ValueError("no block 1")

        self.at_block_1(monkeypatch, fail)
        cost, blocks_done = analysis.block_costs, []

        def counted(*args):
            blocks_done.append(os.getpid())
            return cost(*args)

        monkeypatch.setattr(analysis, "block_costs", counted)
        with pytest.raises(ValueError, match="no block 1"):
            monte_carlo(self.config("probabilistic_transmission"))
        assert blocks_done == [os.getpid()]  # block 0 ran here, block 1 raised
        assert not forks

    def test_interrupted_campaign_leaves_the_next_one_unchanged(self, forks, monkeypatch):
        # an interrupt at block 1 leaves no state that a later campaign reads
        import asdnlms.analysis as analysis

        cfg = self.config("random_sampling")
        mat = materialize(cfg)
        want = monte_carlo(cfg, mat)
        cost, calls = analysis.block_costs, []

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return cost(*args)

        monkeypatch.setattr(analysis, "block_costs", interrupted)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo(cfg, mat)
        monkeypatch.setattr(analysis, "block_costs", cost)
        got = monte_carlo(cfg, mat)
        assert not forks
        for name in ("msd", "msd_db", "msd_db_smoothed") + COUNTERS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestPreparedBlocks:
    def test_blocks_read_neither_w_opt_nor_the_flip(self):
        # the blocks hold the noise, not the reference, so the target and its
        # flip live only in the round
        cfg = make_config(kind="probabilistic_transmission", V=10, M=4,
                          iterations=2 * BLOCK + 44, seed=6, flip=BLOCK + 7)
        other = replace(cfg, env=replace(cfg.env, flip_iteration=None))
        mat = materialize(cfg)
        other_mat = replace(materialize(other), env=replace(
            mat.env, w_opt=-mat.env.w_opt, flip_iteration=None))
        rs = [0, 1, 0]
        pols = [cfg.policy, PolicyConfig(kind="random_sampling", V_s=3),
                PolicyConfig(kind="as_censoring", beta=0.68, mu_s=0.1571)]

        def blocks(c, m):
            return [{k: a.copy() for k, a in out.items()}
                    for out in _prepared_blocks(c, m, rs, pols)]

        got, want = blocks(other, other_mat), blocks(cfg, mat)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for k in w:
                assert np.array_equal(g[k], w[k]), k

    def test_only_non_cooperative_rows_run_on_self_links_without_a_mask(self, monkeypatch):
        # beside another kind a non_cooperative row is a masked row that hears
        # no neighbor; a batch of only such rows drops the neighbor links
        import asdnlms.harness as harness

        cfg = make_config(kind="non_cooperative", V=6, M=4, iterations=BLOCK + 5, seed=9)
        mat = materialize(cfg)
        lonely, full = cfg.policy, PolicyConfig(kind="full")
        calls, batch_links = [], harness._batch_links

        def spy(top, kinds):
            calls.append(batch_links(top, kinds))
            return calls[-1]

        monkeypatch.setattr(harness, "_batch_links", spy)
        run_batch(cfg, [0, 1], mat, policies=[lonely, lonely])
        assert len(calls) == 2  # the round's and its blocks'
        for src, dst, masked in calls:
            assert np.array_equal(src, np.arange(6)) and np.array_equal(dst, src)
            assert masked.size == 0
        assert all("fresh" not in out for out in _prepared_blocks(cfg, mat, [0, 1],
                                                                   [lonely, lonely]))

        src, dst, masked = batch_links(mat.topology, ["full", "non_cooperative"])
        assert src.size > 6 and masked.tolist() == [1]
        for out in _prepared_blocks(cfg, mat, [0, 0], [full, lonely]):
            assert out["fresh"][:, 0].all()
            own = np.broadcast_to(src == dst, (BLOCK, src.size))
            assert np.array_equal(out["fresh"][:, 1], own)

    @pytest.mark.parametrize("block, M, T", [(BLOCK, 4, 2 * BLOCK - 1), (3, 7, 20)])
    def test_window_of_iteration_l_is_its_regressor(self, block, M, T, monkeypatch):
        # the round builds its per-iteration views from the first block: every
        # block must come in the same arrays, with iteration l at the same place
        import asdnlms.harness as harness

        monkeypatch.setattr(harness, "BLOCK", block)
        cfg = make_config(kind="random_sampling", V=5, M=M, iterations=T, seed=6)
        mat = materialize(cfg)
        rs = [1, 0, 1]
        # each node's inputs u(n - M + 1), ..., u(n) at padded[:, n:n + M]
        padded = {r: np.pad(draw_signal_blocks(mat.env, signal_streams(cfg.seed, [r], 5), T)[0][0],
                            ((0, 0), (M - 1, 0))) for r in set(rs)}
        first = None
        for n0, out in zip(range(0, T, block), _prepared_blocks(cfg, mat, rs, [cfg.policy] * 3)):
            first = first or dict(out)
            assert all(out[k] is a for k, a in first.items()) and out.keys() == first.keys()
            for l in range(min(block, T - n0)):
                for b, r in enumerate(rs):
                    u = padded[r][:, n0 + l:n0 + l + M][:, ::-1]  # the newest tap first
                    assert np.array_equal(out["taps"][b, :, block - 1 - l:block - 1 + M - l], u)
                    assert out["mu"][b, :, l] == pytest.approx(
                        mat.mu_tilde / ((u * u).sum(axis=1) + cfg.env.delta), rel=1e-12)


def _arrays(mat):
    """Copies of every array a Materialized holds."""
    env = mat.env
    return {"mu_tilde": mat.mu_tilde.copy(), "w_opt": env.w_opt.copy(),
            "sigma2_v": env.sigma2_v.copy(), "sigma2_u": env.sigma2_u.copy()}


class TestMonteCarlo:
    def test_single_realization_identity(self):
        cfg = make_config(kind="as_sampling", V=6, M=5, iterations=120, seed=3, realizations=1)
        mat = materialize(cfg)
        agg = monte_carlo(cfg, mat)
        single = run_realization(cfg, 0, mat)
        assert np.array_equal(agg.msd, single.msd)
        assert np.array_equal(agg.sampled, single.sampled.astype(float))

    def test_aggregate_is_mean_over_realizations(self):
        cfg = make_config(kind="full", V=6, M=5, iterations=80, seed=3, realizations=4)
        mat = materialize(cfg)
        agg = monte_carlo(cfg, mat)
        stack = np.stack([run_realization(cfg, r, mat).msd for r in range(4)])
        assert agg.msd == pytest.approx(stack.mean(axis=0), rel=1e-12)

    def test_flip_shows_in_msd(self):
        cfg = make_config(kind="full", V=6, M=5, iterations=400, seed=3, flip=200)
        res = monte_carlo(cfg)
        assert res.msd[200] > 10 * res.msd[199]

    def test_steady_windows(self):
        assert steady_windows(1000, None) == {"pre": (800, 1000)}
        assert steady_windows(1000, 600) == {"pre": (480, 600), "post": (920, 1000)}

    def test_manifest_includes_bounds_and_profiles(self):
        cfg = make_config(kind="as_sampling", V=6, M=5, iterations=100, seed=3)
        res = monte_carlo(cfg)
        m = res.manifest
        assert "predicted.Vs_lower" in m and "predicted.Vs_upper" in m
        assert len(m["drawn.sigma2_v"].split(",")) == 6
        assert len(m["drawn.mu_tilde"].split(",")) == 6
        assert m["run.seed"] == 3

    def test_validate_config_rejects(self):
        good = make_config(kind="full", V=6, M=5, iterations=100)
        materialize(good)
        with pytest.raises(ConfigError):
            materialize(replace(good, iterations=0))
        with pytest.raises(ConfigError):
            materialize(replace(good, comm_unit="smoke"))
        cfg = make_config(kind="random_sampling", V=6, M=5, V_s=7)
        with pytest.raises(ValueError):
            materialize(cfg)


class TestSharedNetwork:
    """A random geometric network is built once per (seed, topology, env) and shared."""

    @staticmethod
    def same(a, b) -> bool:
        return (a.topology == b.topology and a.env.flip_iteration == b.env.flip_iteration
                and all(np.array_equal(x, y) for x, y in zip(_arrays(a).values(),
                                                             _arrays(b).values())))

    @staticmethod
    def built(cfg):
        """The network of ``cfg``, built afresh."""
        import asdnlms.harness as harness

        return harness._random_geometric.__wrapped__(cfg.seed, cfg.topology, cfg.env)

    @pytest.mark.parametrize("change", [
        lambda c: replace(c, env=replace(c.env, flip_iteration=40)),
        lambda c: replace(c, seed=c.seed + 1),
        lambda c: replace(c, topology=replace(c.topology, radius=0.9)),
    ], ids=["flip_iteration", "seed", "radius"])
    def test_configs_differing_in_what_the_build_reads_get_their_own(self, change):
        base = make_config(kind="full", V=8, M=5, iterations=100, seed=11, radius=0.5)
        other = change(base)
        a, b = materialize(base), materialize(other)
        assert a is not b and not self.same(a, b)
        assert self.same(b, self.built(other))
        assert self.same(materialize(base), self.built(base))
        # what the build does not read is not in the key
        variant = replace(other, policy=PolicyConfig(kind="non_cooperative"), label="lonely",
                          iterations=90, realizations=3, comm_unit="broadcast")
        assert materialize(variant) is materialize(other)

    @pytest.mark.parametrize("sigma2_v", [None, (0.1, 0.2, 0.3, 0.4, 0.2, 0.1)])
    def test_shared_arrays_are_read_only(self, sigma2_v):
        mat = materialize(make_config(V=6, M=5, seed=11, sigma2_v=sigma2_v))
        for a in (mat.env.w_opt, mat.env.sigma2_v, mat.env.sigma2_u, mat.mu_tilde):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_failing_build_raises_on_every_call(self, monkeypatch):
        import asdnlms.harness as harness

        build, builds = harness.build_random_geometric, []

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(harness, "build_random_geometric", counting)
        cfg = make_config(V=30, M=5, radius=0.01)
        for calls in (1, 2):
            with pytest.raises(TopologyError, match="radius too small"):
                materialize(cfg)
            assert len(builds) == calls


class TestOutputFiles:
    def test_csv_and_manifest(self, tmp_path):
        cfg = make_config(kind="as_sampling", V=6, M=5, iterations=50, seed=3)
        res = monte_carlo(cfg)
        csv_path = tmp_path / "out.csv"
        write_csv(res, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,msd_db,msd_db_smoothed,sampled,comms,mults,adds"
        assert len(lines) == 51
        assert lines[2] == "1,3.171451,3.395178,6,28,330,318"
        man_path = tmp_path / "out.manifest.txt"
        write_manifest(res.manifest, man_path)
        text = man_path.read_text()
        assert "policy.kind = as_sampling" in text

    def test_csv_bytes_match_savetxt(self, tmp_path):
        # negative, tiny and large values, over more rows than one write chunk
        x = np.concatenate([[-3.5e-300, 1e-12, -2.25, 0.0, -0.0, 1.5e12, -7.0e20, 123456.789],
                            np.linspace(-50.0, 50.0, 593)])
        series = dict(msd_db=x, msd_db_smoothed=-x[::-1], sampled=np.abs(x),
                      comms=2.5 * np.abs(x[::-1]), mults=np.full(x.size, 1e-7),
                      adds=np.arange(x.size) * 1e6)
        res = MonteCarloResult(config=None, msd=np.abs(x), steady={}, manifest={}, **series)
        write_csv(res, tmp_path / "engine.csv")
        np.savetxt(tmp_path / "numpy.csv", np.column_stack([np.arange(x.size), *series.values()]),
                   fmt="%d,%.6f,%.6f,%.6g,%.6g,%.6g,%.6g",
                   header="n,msd_db,msd_db_smoothed,sampled,comms,mults,adds", comments="")
        assert (tmp_path / "engine.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_to_db(self):
        assert to_db(np.array([1.0]))[0] == 0.0
        assert to_db(np.array([0.1]))[0] == pytest.approx(-10.0)

