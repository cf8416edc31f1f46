import numpy as np
import pytest

from asdnlms.signals import Environment, draw_signal_blocks, signal_streams
from reference import NodeStream, apply_flip, init_environment


class TestInitEnvironment:
    def test_default_draw(self):
        env = init_environment(M=50, V=20, seed=3)
        assert env.w_opt.shape == (50,)
        assert np.all(np.abs(env.w_opt) <= 1.0)
        assert np.all(env.sigma2_u == 1.0)
        assert np.all((env.sigma2_v >= 0.1) & (env.sigma2_v <= 0.4))
        # the profile ceiling anchors the usual penalty choice
        assert 1.7 * 0.4 == pytest.approx(0.68)

    def test_deterministic(self):
        a = init_environment(M=10, V=5, seed=99)
        b = init_environment(M=10, V=5, seed=99)
        assert np.array_equal(a.w_opt, b.w_opt)
        assert np.array_equal(a.sigma2_v, b.sigma2_v)

    def test_derived_extrema(self):
        env = Environment(
            w_opt=np.ones(3), sigma2_v=np.array([0.3, 0.1, 0.2]), sigma2_u=np.ones(3)
        )
        assert env.sigma2_max == 0.3
        assert env.sigma2_min == 0.1

    @pytest.mark.parametrize("bad", [(0.4, 0.1), (0.0, 0.4), (-0.1, 0.4)])
    def test_invalid_profile(self, bad):
        with pytest.raises(ValueError):
            init_environment(M=5, V=5, sigma2_v_range=bad, seed=0)

    def test_zero_noise_allowed_explicitly(self):
        env = Environment(w_opt=np.ones(2), sigma2_v=np.zeros(3), sigma2_u=np.ones(3))
        assert env.sigma2_max == 0.0


class TestAdvanceStream:
    def test_zero_system_zero_noise(self):
        env = Environment(w_opt=np.zeros(4), sigma2_v=np.zeros(1), sigma2_u=np.ones(1))
        stream = NodeStream(env, node=0, seed=5)
        for _ in range(20):
            _, d = stream.advance()
            assert d == 0.0

    def test_noiseless_identity(self):
        env = init_environment(M=6, V=2, seed=1)
        env.sigma2_v = np.zeros(2)
        stream = NodeStream(env, node=1, seed=5)
        for _ in range(30):
            u, d = stream.advance()
            assert d - u @ env.w_opt == 0.0

    def test_shift_property(self):
        env = init_environment(M=5, V=1, seed=2)
        stream = NodeStream(env, node=0, seed=2)
        prev = None
        for _ in range(10):
            u, _ = stream.advance()
            if prev is not None:
                assert np.array_equal(u[1:], prev[:-1])
            prev = u.copy()

    def test_empirical_output_variance(self):
        # var(d) = ||w_opt||^2 sigma2_u + sigma2_v for i.i.d. input
        env = init_environment(M=8, V=1, seed=11)
        stream = NodeStream(env, node=0, seed=11)
        N = 100_000
        d = np.empty(N)
        for n in range(N):
            _, d[n] = stream.advance()
        expected = float(env.w_opt @ env.w_opt) * env.sigma2_u[0] + env.sigma2_v[0]
        assert d[8:].var() == pytest.approx(expected, rel=0.03)

    def test_input_noise_streams_decorrelated(self):
        env = init_environment(M=4, V=3, seed=8)
        inputs, noises = (a[0].T for a in draw_signal_blocks(env, signal_streams(8, [0], 3),
                                                                100_000))
        for k in range(3):
            corr = np.corrcoef(inputs[:, k], noises[:, k])[0, 1]
            assert abs(corr) < 0.02

    def test_blocks_match_stream(self):
        env = init_environment(M=5, V=2, seed=21)
        inputs, noises = (a[0].T for a in draw_signal_blocks(env, signal_streams(21, [4], 2), 50))
        stream = NodeStream(env, node=1, seed=21, realization=4)
        for n in range(50):
            u, d = stream.advance()
            assert u[0] == inputs[n, 1]
            assert d - u @ env.w_opt == pytest.approx(noises[n, 1], abs=1e-12)


    def test_streamed_blocks_match_full_draw(self):
        env = init_environment(M=5, V=3, seed=2)
        full = draw_signal_blocks(env, signal_streams(2, [0, 5], 3), 700)
        streams = signal_streams(2, [0, 5], 3)
        blocks = [draw_signal_blocks(env, streams, L) for L in (256, 1, 300, 143)]
        for whole, parts in zip(full, zip(*blocks)):
            assert whole.shape == (2, 3, 700)
            assert np.array_equal(np.concatenate(parts, axis=2), whole)

class TestApplyFlip:
    def test_sign_flip(self):
        env = Environment(
            w_opt=np.array([1.0, -2.0]),
            sigma2_v=np.ones(1),
            sigma2_u=np.ones(1),
            flip_iteration=5,
        )
        apply_flip(env, 5)
        assert np.array_equal(env.w_opt, [-1.0, 2.0])

    def test_involution(self):
        env = Environment(
            w_opt=np.array([0.5, 0.25, -1.0]),
            sigma2_v=np.ones(1),
            sigma2_u=np.ones(1),
            flip_iteration=3,
        )
        original = env.w_opt.copy()
        apply_flip(env, 3)
        apply_flip(env, 3)
        assert np.array_equal(env.w_opt, original)

    def test_other_iterations_noop(self):
        env = Environment(
            w_opt=np.array([1.0]), sigma2_v=np.ones(1), sigma2_u=np.ones(1), flip_iteration=3
        )
        apply_flip(env, 2)
        assert env.w_opt[0] == 1.0
        env2 = Environment(w_opt=np.array([1.0]), sigma2_v=np.ones(1), sigma2_u=np.ones(1))
        apply_flip(env2, 0)
        assert env2.w_opt[0] == 1.0
