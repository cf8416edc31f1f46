import numpy as np
import pytest

from asdnlms.harness import monte_carlo
from conftest import make_config
from reference import NodeEstimator, acw_update, adapt, combine, compute_error


def estimator(M=4, mu_tilde=0.5, nu=0.2, delta=1e-5, neighbors=(0, 1)):
    return NodeEstimator(
        w=np.zeros(M),
        psi=np.zeros(M),
        sigma2={j: 1.0 for j in neighbors},
        mu_tilde=mu_tilde,
        nu=nu,
        delta=delta,
    )


class TestComputeError:
    def test_perfect_estimate(self, rng):
        w_opt = rng.normal(size=6)
        est = estimator(M=6)
        est.w = w_opt.copy()
        u = rng.normal(size=6)
        assert compute_error(est, u, float(u @ w_opt)) == 0.0

    def test_zero_estimate(self, rng):
        est = estimator(M=3)
        assert compute_error(est, rng.normal(size=3), 1.25) == 1.25

    def test_matches_naive_loop(self, rng):
        est = estimator(M=16)
        est.w = rng.normal(size=16)
        u = rng.normal(size=16)
        d = rng.normal()
        naive = d - sum(u[i] * est.w[i] for i in range(16))
        assert compute_error(est, u, d) == pytest.approx(naive, abs=1e-12)


class TestAdapt:
    def test_unsampled_is_exact_copy(self, rng):
        est = estimator()
        est.w = rng.normal(size=4)
        psi = adapt(est, rng.normal(size=4), None, sampled=0)
        assert np.array_equal(psi, est.w)

    def test_zero_regressor(self):
        est = estimator()
        est.w = np.array([1.0, 2.0, 3.0, 4.0])
        psi = adapt(est, np.zeros(4), 5.0, sampled=1)
        assert np.array_equal(psi, est.w)

    def test_hand_example_scalar(self):
        # M=1: w=0, u=2, d=1 -> e=1, mu = 1/(delta + 4), psi ~ 0.5
        est = NodeEstimator(
            w=np.zeros(1), psi=np.zeros(1), sigma2={0: 1.0}, mu_tilde=1.0, nu=0.2, delta=1e-15
        )
        u = np.array([2.0])
        e = compute_error(est, u, 1.0)
        assert e == 1.0
        psi = adapt(est, u, e, sampled=1)
        assert psi[0] == pytest.approx(0.5, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NodeEstimator(np.zeros(1), np.zeros(1), {}, mu_tilde=2.5, nu=0.2)
        with pytest.raises(ValueError):
            NodeEstimator(np.zeros(1), np.zeros(1), {}, mu_tilde=0.5, nu=0.2, delta=0.0)


class TestAcwUpdate:
    def test_equal_variances_give_uniform(self, rng):
        est = estimator(M=3, neighbors=(0, 1, 2))
        psi = rng.normal(size=3)
        weights = acw_update(est, {j: psi for j in (0, 1, 2)})
        assert weights == pytest.approx({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})

    def test_inverse_variance_split(self):
        # nu=1 and disagreement energies {1, 3} -> weights {0.75, 0.25}
        est = NodeEstimator(
            w=np.zeros(1), psi=np.zeros(1), sigma2={0: 1.0, 1: 1.0}, mu_tilde=0.5, nu=1.0
        )
        weights = acw_update(est, {0: np.array([1.0]), 1: np.array([np.sqrt(3.0)])})
        assert weights[0] == pytest.approx(0.75)
        assert weights[1] == pytest.approx(0.25)

    def test_weights_sum_to_one(self, rng):
        est = estimator(M=5, neighbors=(0, 1, 2, 3))
        est.w = rng.normal(size=5)
        weights = acw_update(est, {j: rng.normal(size=5) for j in range(4)})
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in weights.values())

    def test_degenerate_equality_floored(self):
        est = NodeEstimator(
            w=np.ones(2), psi=np.ones(2), sigma2={0: 1.0}, mu_tilde=0.5, nu=1.0
        )
        weights = acw_update(est, {0: np.ones(2)})  # psi_0 == w exactly
        assert est.sigma2[0] == 1e-12
        assert weights[0] == 1.0


class TestCombine:
    def test_self_only(self, rng):
        psi = rng.normal(size=4)
        out = combine({2: psi}, {2: 1.0})
        assert np.array_equal(out, psi)

    def test_identical_inputs_idempotent(self, rng):
        psi = rng.normal(size=4)
        out = combine({0: psi, 1: psi, 2: psi}, {0: 0.2, 1: 0.5, 2: 0.3})
        assert out == pytest.approx(psi, abs=1e-12)

    def test_matches_weighted_sum_oracle(self, rng):
        psis = {j: rng.normal(size=6) for j in range(4)}
        raw = rng.uniform(0.1, 1.0, size=4)
        weights = {j: raw[j] / raw.sum() for j in range(4)}
        oracle = np.zeros(6)
        for j in range(4):
            for i in range(6):
                oracle[i] += weights[j] * psis[j][i]
        assert combine(psis, weights) == pytest.approx(oracle, abs=1e-12)


class TestEndToEnd:
    def test_noiseless_reaches_minus_60db(self):
        # stationary, zero noise, all nodes sampled: MSD below 1e-6 within 5000 iters
        cfg = make_config(kind="full", V=20, M=50, iterations=5000, radius=0.35,
                          sigma2_v=tuple([0.0] * 20), seed=1)
        result = monte_carlo(cfg)
        assert result.msd[-1] < 1e-6

    def test_full_sampling_counter_contract(self):
        # all nodes sampled: per node, M(3+|N_k|)+4 mults and M(3+|N_k|)+3 adds
        cfg = make_config(kind="full", V=10, M=12, iterations=40, seed=3)
        from asdnlms.harness import materialize, run_realization

        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        deg = mat.topology.degrees()
        M = cfg.env.M
        expected_mults = int((M * (3 + deg) + 4).sum())
        expected_adds = int((M * (3 + deg) + 3).sum())
        assert np.all(series.mults == expected_mults)
        assert np.all(series.adds == expected_adds)
