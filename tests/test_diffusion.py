import math

import numpy as np
import pytest

from singvc import tensor as T
from singvc.diffusion import diffusion_loss, forward_sample, reverse_step, sample
from singvc.errors import ShapeError
from singvc.rng import RandomStream
from singvc.schedule import linear_schedule, step_stats
from singvc.tensor import Tensor, backward

S = linear_schedule(100)


class ZeroModel:
    def __call__(self, y_t, t, cond):
        return T.zeros(y_t.shape)


class OracleModel:
    """Returns a fixed array regardless of input."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def __call__(self, y_t, t, cond):
        return Tensor(np.broadcast_to(self.value, y_t.shape).copy())


class SineModel:
    """A model whose output varies with y_t and t, for the byte comparisons."""

    def __call__(self, y_t, t, cond):
        return Tensor(np.sin(y_t.data * 3.0 + 0.01 * t))


def tensor_forward_sample(s, y0, t, eps):
    """`forward_sample` as the `Tensor` ops it once ran, the reference for
    the array version's bytes."""
    sqrt_ab, sqrt_1mab, _ = step_stats(s, t)
    return T.add(T.scale(Tensor(y0), sqrt_ab), T.scale(Tensor(eps), sqrt_1mab)).data


def tensor_reverse_step(s, model, y_t, t, cond, z):
    """`reverse_step` as the `Tensor` ops it once ran."""
    _, sqrt_1mab, sigma = step_stats(s, t)
    alpha = float(s.alpha[t - 1])
    y = Tensor(y_t)
    inner = T.sub(y, T.scale(model(y, t, cond), (1.0 - alpha) / sqrt_1mab))
    return T.add(T.scale(inner, 1.0 / np.sqrt(alpha)), T.scale(Tensor(z), sigma)).data


def tensor_sample(s, model, cond, frames, n_mels, rng):
    """`sample`'s chain on `tensor_reverse_step`, drawing in its order."""
    y = rng.normal((frames, n_mels))
    for t in range(s.steps, 0, -1):
        z = rng.normal(y.shape) if t > 1 else np.zeros(y.shape)
        y = tensor_reverse_step(s, model, y, t, cond, z)
    return y


class TestTensorReference:
    @pytest.mark.parametrize("t", [1, 2, 37, 100])
    def test_forward_sample_has_the_tensor_bytes(self, t):
        rng = RandomStream(20 + t)
        y0, eps = rng.normal((6, 5)), rng.normal((6, 5))
        y0[0, 0], eps[0, 0] = -0.0, -0.0
        out = forward_sample(S, y0, t, eps)
        assert type(out) is np.ndarray
        assert out.tobytes() == tensor_forward_sample(S, y0, t, eps).tobytes()

    @pytest.mark.parametrize("t", [1, 2, 37, 100])
    def test_reverse_step_has_the_tensor_bytes(self, t):
        rng = RandomStream(30 + t)
        y_t = rng.normal((6, 5))
        z = rng.normal((6, 5)) if t > 1 else np.zeros((6, 5))
        out = reverse_step(S, SineModel(), y_t, t, None, z)
        assert type(out) is np.ndarray
        assert out.tobytes() == tensor_reverse_step(S, SineModel(), y_t, t, None, z).tobytes()

    def test_last_step_adds_the_zero_noise_term(self):
        # at t = 1, z = 0 and sigma = 0; (-0.0 - 0.0) / sqrt(alpha) is -0.0,
        # and only the added 0.0 * 0.0 makes it +0.0
        y_t = np.full((2, 3), -0.0)
        out = reverse_step(S, ZeroModel(), y_t, 1, None, np.zeros((2, 3)))
        expected = tensor_reverse_step(S, ZeroModel(), y_t, 1, None, np.zeros((2, 3)))
        assert not np.signbit(expected).any()
        assert out.tobytes() == expected.tobytes()

    def test_sample_chain_has_the_tensor_bytes(self):
        s = linear_schedule(20)
        seen = {"array": [], "tensor": []}

        class Recording(SineModel):
            def __init__(self, key):
                self.key = key

            def __call__(self, y_t, t, cond):
                seen[self.key].append(y_t.data.tobytes())
                return super().__call__(y_t, t, cond)

        a_rng, t_rng = RandomStream(8), RandomStream(8)
        out = sample(s, Recording("array"), None, 7, 6, a_rng)
        expected = tensor_sample(s, Recording("tensor"), None, 7, 6, t_rng)
        assert type(out) is np.ndarray
        assert len(seen["array"]) == 20 and seen["array"] == seen["tensor"]
        assert out.tobytes() == expected.tobytes()
        assert a_rng.state == t_rng.state


class TestForwardSample:
    def test_noise_free_limit(self):
        y0 = np.full((3, 4), 2.0)
        out = forward_sample(S, y0, 50, np.zeros((3, 4)))
        sqrt_ab, _, _ = step_stats(S, 50)
        np.testing.assert_allclose(out, sqrt_ab * y0)

    def test_zero_data_limit(self):
        eps = np.ones((3, 4))
        out = forward_sample(S, np.zeros((3, 4)), 50, eps)
        _, sqrt_1mab, _ = step_stats(S, 50)
        np.testing.assert_allclose(out, sqrt_1mab * np.ones((3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_sample(S, np.zeros((3, 4)), 50, np.zeros((4, 3)))

    def test_linearity(self):
        rng = RandomStream(12)
        y0a, y0b = rng.normal((2, 3)), rng.normal((2, 3))
        eps = rng.normal((2, 3))
        lhs = forward_sample(S, y0a + y0b, 30, eps)
        rhs = forward_sample(S, y0a, 30, eps) + forward_sample(S, y0b, 30, np.zeros((2, 3)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 50, 100])
    def test_monte_carlo_statistics(self, t):
        # statistical oracle: mean sqrt(ab)*y0, variance (1 - ab), 3 SE bands
        n = 10_000
        y0_value = 0.7
        rng = RandomStream(100 + t)
        sqrt_ab, sqrt_1mab, _ = step_stats(S, t)
        draws = np.array(
            [forward_sample(S, np.array([[y0_value]]), t, rng.normal((1, 1)))[0, 0] for _ in range(n)]
        )
        true_var = sqrt_1mab**2
        mean_se = math.sqrt(true_var / n)
        var_se = true_var * math.sqrt(2.0 / (n - 1))
        assert abs(draws.mean() - sqrt_ab * y0_value) < 3 * mean_se + 1e-12
        assert abs(draws.var(ddof=1) - true_var) < 3 * var_se + 1e-12


class TestDiffusionLoss:
    def test_perfect_model_zero_loss(self):
        rng = RandomStream(1)
        eps_value = rng.normal((4, 5))
        loss = diffusion_loss(S, OracleModel(eps_value), [np.zeros((4, 5))], [None], [10], [eps_value])
        assert float(loss.data) == 0.0

    def test_constant_offset_gives_c_squared(self):
        rng = RandomStream(2)
        eps_value = rng.normal((4, 5))
        c = 0.37
        model = OracleModel(eps_value + c)
        loss = diffusion_loss(S, model, [np.zeros((4, 5))], [None], [10], [eps_value])
        assert float(loss.data) == pytest.approx(c * c, rel=1e-12)

    def test_gradient_through_probe_parameter(self):
        # model: eps_hat = probe * y_t (probe is a learnable scalar-like matrix)
        rng = RandomStream(3)
        probe = Tensor(rng.normal((5, 5)) * 0.1, requires_grad=True)
        y0 = rng.normal((4, 5))
        eps_value = rng.normal((4, 5))

        class ProbeModel:
            def __call__(self, y_t, t, cond):
                return T.matmul(y_t, probe)

        loss = diffusion_loss(S, ProbeModel(), [y0], [None], [25], [eps_value])
        backward(loss)

        sqrt_ab, sqrt_1mab, _ = step_stats(S, 25)
        y_t = sqrt_ab * y0 + sqrt_1mab * eps_value

        def loss_fn():
            return float(((eps_value - y_t @ probe.data) ** 2).mean())

        h = 1e-5
        flat = probe.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_fn()
            flat[i] = keep - h
            lo = loss_fn()
            flat[i] = keep
            fd[i] = (hi - lo) / (2 * h)
        ad = probe.grad.reshape(-1)
        rel = np.abs(ad - fd) / np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-3)
        assert rel.max() < 1e-4


class TestReverseStep:
    def test_t1_independent_of_z(self):
        rng = RandomStream(4)
        y1 = rng.normal((3, 4))
        a = reverse_step(S, ZeroModel(), y1, 1, None, np.zeros((3, 4)))
        b = reverse_step(S, ZeroModel(), y1, 1, None, rng.normal((3, 4)))
        np.testing.assert_array_equal(a, b)

    def test_zero_model_rescales(self):
        y = np.full((2, 2), 3.0)
        out = reverse_step(S, ZeroModel(), y, 5, None, np.zeros((2, 2)))
        np.testing.assert_allclose(out, y / math.sqrt(S.alpha[4]))

    def test_scalar_hand_evaluation_t2(self):
        # scalar arithmetic oracle for the update at t=2, default schedule
        beta2 = 1e-4 + (0.06 - 1e-4) / 99
        alpha1, alpha2 = 1.0 - 1e-4, 1.0 - beta2
        ab1, ab2 = alpha1, alpha1 * alpha2
        sigma2 = math.sqrt((1.0 - ab1) / (1.0 - ab2) * beta2)
        y, eps_hat, z = 0.8, -0.3, 0.5
        expected = (y - (1.0 - alpha2) / math.sqrt(1.0 - ab2) * eps_hat) / math.sqrt(alpha2) + sigma2 * z
        got = reverse_step(S, OracleModel([[eps_hat]]), np.array([[y]]), 2, None, np.array([[z]]))
        assert float(got[0, 0]) == pytest.approx(expected, abs=1e-15)

    def test_perfect_predictor_reconstructs_y0_at_t1(self):
        rng = RandomStream(5)
        y0 = rng.normal((4, 6))
        eps = rng.normal((4, 6))
        y1 = forward_sample(S, y0, 1, eps)
        rec = reverse_step(S, OracleModel(eps), y1, 1, None, np.zeros((4, 6)))
        np.testing.assert_allclose(rec, y0, atol=1e-9)


class TestSample:
    def test_equal_seeds_bit_identical(self):
        a = sample(S, ZeroModel(), None, 7, 80, RandomStream(42))
        b = sample(S, ZeroModel(), None, 7, 80, RandomStream(42))
        np.testing.assert_array_equal(a, b)

    def test_output_shape_default_config(self):
        out = sample(S, ZeroModel(), None, 5, 80, RandomStream(0))
        assert out.shape == (5, 80)

    def test_bounded_model_gives_finite_output(self):
        out = sample(S, ZeroModel(), None, 6, 8, RandomStream(1))
        assert np.all(np.isfinite(out))

    def test_loop_structure_matches_reverse_chain(self):
        calls = []

        class Spy(ZeroModel):
            def __call__(self, y_t, t, cond):
                calls.append(t)
                return super().__call__(y_t, t, cond)

        rng = RandomStream(2)
        sample(S, Spy(), None, 3, 4, rng)
        assert calls == list(range(100, 0, -1))
        # normals drawn: initial y_T plus z for every t > 1, 12 values each
        assert rng.state[1] == 100 * 12
