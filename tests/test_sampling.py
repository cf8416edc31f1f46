import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdnlms.harness import materialize, run_realization
from asdnlms.sampling import (
    MAX_ALPHA_PLUS,
    PolicyConfig,
    draw_active_links,
    draw_sampled_set,
    phi_prime,
)
from conftest import make_config
from reference import SamplerState, decide, phi, update_alpha_value


class TestPhi:
    def test_endpoints(self):
        for a_plus in (1.0, 4.0, 10.0):
            assert phi(a_plus, a_plus) == 1.0
            assert phi(-a_plus, a_plus) == 0.0

    def test_midpoint(self):
        assert phi(0.0, 4.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(-4, 4, 200)
        vals = phi(grid, 4.0)
        assert np.all(np.diff(vals) > 0)

    def test_range(self):
        grid = np.linspace(-4, 4, 101)
        vals = phi(grid, 4.0)
        assert np.all((vals >= 0) & (vals <= 1))


class TestPhiPrime:
    def test_value_at_zero(self):
        # 0.25 / (sgm(4) - sgm(-4))
        assert phi_prime(0.0, 4.0) == pytest.approx(0.25933, abs=1e-5)

    def test_symmetry(self):
        grid = np.linspace(0, 4, 50)
        assert phi_prime(grid, 4.0) == pytest.approx(phi_prime(-grid, 4.0), abs=1e-12)

    def test_positive(self):
        grid = np.linspace(-4, 4, 101)
        assert np.all(phi_prime(grid, 4.0) > 0)

    @pytest.mark.parametrize("alpha_plus", [0.5, 1.0, 4.0])
    def test_cosh_form_matches_sigmoid_form(self, alpha_plus):
        # phi_prime computes (0.5 / span) / (1 + cosh alpha); this is the slope as defined
        grid = np.linspace(-alpha_plus, alpha_plus, 401)
        s = 1.0 / (1.0 + np.exp(-grid))
        span = 1.0 / (1.0 + np.exp(-alpha_plus)) - 1.0 / (1.0 + np.exp(alpha_plus))
        assert phi_prime(grid, alpha_plus) == pytest.approx(s * (1.0 - s) / span, rel=1e-13, abs=0)

    def test_matches_finite_difference(self):
        h = 1e-5
        grid = np.linspace(-4, 4, 101)
        numeric = (phi(grid + h, 4.0) - phi(grid - h, 4.0)) / (2 * h)
        analytic = phi_prime(grid, 4.0)
        rel = np.abs(numeric - analytic) / np.abs(analytic)
        assert rel.max() < 1e-6


class TestDecide:
    def test_at_top(self):
        assert decide(4.0) == 1

    def test_negative(self):
        assert decide(-0.001) == 0

    def test_boundary_is_sampled(self):
        assert decide(0.0) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(-10, 10, allow_nan=False),
        alpha_plus=st.floats(0.1, 10, allow_nan=False),
    )
    def test_threshold_equivalence(self, alpha, alpha_plus):
        alpha = float(np.clip(alpha, -alpha_plus, alpha_plus))
        st_ = SamplerState(beta=0.5, mu_s=0.1, alpha_plus=alpha_plus, alpha=alpha)
        assert st_.decide() == (1 if alpha >= 0 else 0)


class TestUpdateAlpha:
    def test_idle_never_decreases(self):
        # unsampled: increment is mu_s phi'(alpha) sum(c eps2) >= 0
        for q in (0.0, 0.1, 2.0):
            new = update_alpha_value(-1.0, q, 0, beta=0.68, mu_s=0.1571, alpha_plus=4.0)
            assert new >= -1.0

    def test_sampled_zero_error_step(self):
        got = update_alpha_value(0.0, 0.0, 1, beta=0.68, mu_s=0.1571, alpha_plus=4.0)
        assert got == pytest.approx(-0.1571 * phi_prime(0.0, 4.0) * 0.68, abs=1e-15)

    def test_idle_uniform_noise_step(self):
        sigma2 = 0.25
        got = update_alpha_value(0.0, sigma2, 0, beta=0.68, mu_s=0.1571, alpha_plus=4.0)
        assert got == pytest.approx(0.1571 * phi_prime(0.0, 4.0) * sigma2, abs=1e-15)

    def test_clamped(self):
        hi = update_alpha_value(3.99, 100.0, 0, beta=0.68, mu_s=0.5, alpha_plus=4.0)
        assert hi == 4.0
        lo = update_alpha_value(-3.99, 0.0, 1, beta=100.0, mu_s=0.5, alpha_plus=4.0)
        assert lo == -4.0

    def test_monotone_resumption(self):
        # idle node with any positive weighted error is re-sampled in finite time
        state = SamplerState(beta=0.68, mu_s=0.1571, alpha_plus=4.0, alpha=-4.0, s_bar=0)
        state.eps2 = {0: 0.5}
        weights = {0: 1.0}
        steps = 0
        prev = state.alpha
        while state.decide() == 0:
            state.s_bar = 0
            state.update_alpha(weights)
            assert state.alpha > prev
            prev = state.alpha
            steps += 1
            assert steps < 10_000
        assert steps > 0

    def test_descent_while_sampled_at_low_error(self):
        state = SamplerState(beta=0.68, mu_s=0.1571, alpha_plus=4.0, alpha=1.0, s_bar=1)
        state.eps2 = {0: 0.2, 1: 0.3}
        weights = {0: 0.5, 1: 0.5}  # weighted eps2 = 0.25 < beta
        for _ in range(5):
            prev = state.alpha
            state.s_bar = 1
            state.update_alpha(weights)
            assert state.alpha < prev


class TestRefreshEps:
    def test_sampled_refresh(self):
        state = SamplerState(beta=0.68, mu_s=0.1)
        state.refresh_eps(3, 2.0, sampled_i=1)
        assert state.eps2[3] == 4.0

    def test_unsampled_keeps_previous(self):
        state = SamplerState(beta=0.68, mu_s=0.1)
        state.refresh_eps(3, 2.0, sampled_i=1)
        state.refresh_eps(3, 100.0, sampled_i=0)
        assert state.eps2[3] == 4.0

    def test_initial_default_zero(self):
        state = SamplerState(beta=0.68, mu_s=0.1)
        assert state.eps2.get(7, 0.0) == 0.0


class TestPolicyConfig:
    def test_requires_parameters(self):
        with pytest.raises(ValueError, match="requires"):
            PolicyConfig(kind="as_sampling", mu_s=0.1)
        with pytest.raises(ValueError, match="requires"):
            PolicyConfig(kind="random_sampling")
        with pytest.raises(ValueError, match="requires"):
            PolicyConfig(kind="probabilistic_transmission")

    def test_rejects_extraneous(self):
        with pytest.raises(ValueError, match="does not take"):
            PolicyConfig(kind="full", beta=0.68)
        with pytest.raises(ValueError, match="does not take"):
            PolicyConfig(kind="random_sampling", V_s=3, p=0.5)

    def test_alpha_plus_defaults_to_four(self):
        pol = PolicyConfig(kind="as_sampling", beta=0.68, mu_s=0.1571)
        assert pol.alpha_plus == 4.0

    @pytest.mark.parametrize("kind", ["as_sampling", "as_censoring"])
    def test_alpha_plus_above_the_bound_is_rejected(self, kind):
        # cosh(alpha) in phi_prime overflows above about 710
        assert np.isfinite(phi_prime(np.array([-MAX_ALPHA_PLUS, MAX_ALPHA_PLUS]),
                                     MAX_ALPHA_PLUS)).all()
        assert PolicyConfig(kind=kind, beta=0.68, mu_s=0.1571,
                            alpha_plus=MAX_ALPHA_PLUS).alpha_plus == 700.0
        for alpha_plus in (np.nextafter(MAX_ALPHA_PLUS, np.inf), 1e300):
            with pytest.raises(ValueError, match="alpha_plus must be <= 700"):
                PolicyConfig(kind=kind, beta=0.68, mu_s=0.1571, alpha_plus=alpha_plus)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            PolicyConfig(kind="sometimes")

    def test_vs_exceeding_v(self):
        pol = PolicyConfig(kind="random_sampling", V_s=30)
        with pytest.raises(ValueError, match="exceeds"):
            pol.validate_for(20)


class TestBaselines:
    def test_random_draws_exact_count(self, rng):
        pol = PolicyConfig(kind="random_sampling", V_s=4)
        for _ in range(20):
            s = draw_sampled_set(pol, 10, rng)
            assert s.sum() == 4

    def test_random_block_draws_match_one_draw(self):
        pol = PolicyConfig(kind="random_sampling", V_s=4)
        whole = draw_sampled_set(pol, 10, np.random.default_rng(5), 30)
        rng = np.random.default_rng(5)
        parts = np.concatenate([draw_sampled_set(pol, 10, rng, L) for L in (1, 12, 17)])
        assert whole.shape == (30, 10)
        assert np.array_equal(whole, parts)
        assert np.all(whole.sum(axis=1) == 4)

    def test_random_with_vs_equal_v_is_full(self, rng):
        pol = PolicyConfig(kind="random_sampling", V_s=10)
        assert np.all(draw_sampled_set(pol, 10, rng) == 1)

    def test_active_links_extremes(self, rng):
        assert not draw_active_links(0.0, (3, 6), rng).any()
        assert draw_active_links(1.0, (3, 6), rng).all()
        assert draw_active_links(0.5, (3, 6), rng).shape == (3, 6)


class TestCycleStructure:
    def test_no_absorbing_states_in_steady_state(self):
        # over 1e4 steady-state iterations every node keeps cycling
        cfg = make_config(
            kind="as_sampling", V=20, M=50, iterations=20_000, radius=0.35, seed=1
        )
        mat = materialize(cfg)
        series = run_realization(cfg, 0, mat)
        window = series.sampled_bitmap[10_000:]
        frac = window.mean(axis=0)
        assert np.all(frac > 0.0), "some node never sampled in steady state"
        assert np.all(frac < 1.0), "some node never idle in steady state"
        # idle streaks stay bounded: no node waits pathologically long
        for k in range(20):
            trace = window[:, k].astype(int)
            changes = np.flatnonzero(np.diff(trace) != 0)
            runs = np.diff(np.concatenate([[0], changes + 1, [trace.size]]))
            assert runs.max() < 1000
