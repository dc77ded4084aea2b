import math

import numpy as np
import pytest

from singvc import tensor as T
from singvc.denoiser import Denoiser, ModelConfig, parameter_count, sinusoidal_step_vector
from singvc.diffusion import diffusion_loss
from singvc.errors import InputError, ShapeError
from singvc.rng import RandomStream
from singvc.schedule import linear_schedule
from singvc.tensor import Tensor, backward
from singvc.training import Adam

TOY = ModelConfig(n_mels=8, channels=8, layers=4, ppg_dim=12, cond_dim=16, n_bins=16)


@pytest.fixture(scope="module")
def toy_model():
    return Denoiser.init(TOY, RandomStream(0).split("toy"))


@pytest.fixture(scope="module")
def default_model():
    return Denoiser.init(ModelConfig(), RandomStream(0).split("default"))


def toy_inputs(frames, seed=0):
    rng = RandomStream(seed).split("inputs")
    y = Tensor(rng.normal((frames, TOY.n_mels)))
    ppg = rng.normal((frames, TOY.ppg_dim))
    f0_bins = rng.integers(0, TOY.n_bins, frames)
    loud_bins = rng.integers(0, TOY.n_bins, frames)
    return y, ppg, f0_bins, loud_bins


class TestStepEncoding:
    def test_probe_t0(self):
        v = sinusoidal_step_vector(0)
        np.testing.assert_array_equal(v[:64], np.zeros(64))
        np.testing.assert_array_equal(v[64:], np.ones(64))

    def test_first_component_at_t1(self):
        assert sinusoidal_step_vector(1)[0] == pytest.approx(0.841471, abs=1e-6)

    def test_dimension_is_128(self):
        assert sinusoidal_step_vector(17).shape == (128,)

    def test_frequency_grows_with_index(self):
        # second sin component uses 10^(4/63), not a decaying frequency
        assert sinusoidal_step_vector(1)[1] == pytest.approx(math.sin(10 ** (4 / 63)), abs=1e-12)

    def test_injective_over_training_steps(self):
        table = np.stack([sinusoidal_step_vector(t) for t in range(1, 101)])
        dists = np.sqrt(((table[:, None, :] - table[None, :, :]) ** 2).sum(-1))
        dists[np.diag_indices(100)] = np.inf
        assert dists.min() > 0.0

    def test_projection_shape(self, toy_model):
        assert sinusoidal_step_vector(5).shape == (128,)
        assert toy_model.encode_step(5).shape == (1, 512)

    def test_one_adam_step_moves_step_vectors_little(self):
        # ADAM moves every stored weight by about lr; the step path must turn
        # that into a small change of the step vectors.  Without the fan-in
        # constant one step at the overfit config's lr changes them by ~60%,
        # enough to throw Swish units past their turning point in training.
        cfg = ModelConfig(n_mels=16, channels=32, layers=4, ppg_dim=16, cond_dim=64, n_bins=64)
        model = Denoiser.init(cfg, RandomStream(0).split("init"))
        steps = range(1, 51)

        def table():
            return np.stack([model.encode_step(t).data[0] for t in steps])

        before = table()
        direction = RandomStream(1).normal(before.shape)
        loss = None
        for row, t in enumerate(steps):
            term = T.tsum(T.mul(model.encode_step(t), Tensor(direction[row : row + 1])))
            loss = term if loss is None else T.add(loss, term)
        backward(loss)
        Adam().step(model.params, lr=4e-3)
        change = np.linalg.norm(table() - before) / np.linalg.norm(before)
        assert change < 0.15


class TestConditioner:
    def test_zero_weights_give_zero(self):
        model = Denoiser.init(TOY, RandomStream(1).split("z"))
        for name in ("ppg_prenet.w", "ppg_prenet.b", "f0_table", "loud_table"):
            model.params[name].data[:] = 0.0
        _, ppg, f0_bins, loud_bins = toy_inputs(6)
        cond = model.build_conditioner(ppg, f0_bins, loud_bins)
        np.testing.assert_array_equal(cond.data, np.zeros((6, TOY.cond_dim)))

    def test_locality_of_bin_change(self, toy_model):
        _, ppg, f0_bins, loud_bins = toy_inputs(6)
        base = toy_model.build_conditioner(ppg, f0_bins, loud_bins).data
        changed = loud_bins.copy()
        changed[3] = (changed[3] + 1) % TOY.n_bins
        other = toy_model.build_conditioner(ppg, f0_bins, changed).data
        diff = np.abs(base - other).sum(axis=1)
        assert diff[3] > 0
        np.testing.assert_array_equal(diff[np.arange(6) != 3], np.zeros(5))

    def test_default_shape(self, default_model):
        rng = RandomStream(2)
        cond = default_model.build_conditioner(
            rng.normal((9, 218)), rng.integers(0, 256, 9), rng.integers(0, 256, 9)
        )
        assert cond.shape == (9, 256)

    def test_frame_mismatch_rejected(self, toy_model):
        _, ppg, f0_bins, loud_bins = toy_inputs(6)
        with pytest.raises(InputError):
            toy_model.build_conditioner(ppg, f0_bins[:-1], loud_bins)


class TestPredictEps:
    def test_output_shape_matches_input(self, default_model):
        rng = RandomStream(3)
        y = Tensor(rng.normal((5, 80)))
        cond = default_model.build_conditioner(
            rng.normal((5, 218)), rng.integers(0, 256, 5), rng.integers(0, 256, 5)
        )
        assert default_model.predict_eps(y, 42, cond).shape == (5, 80)

    def test_untrained_output_is_exactly_zero(self, toy_model):
        y, ppg, f0_bins, loud_bins = toy_inputs(7)
        cond = toy_model.build_conditioner(ppg, f0_bins, loud_bins)
        out = toy_model.predict_eps(y, 3, cond)
        np.testing.assert_array_equal(out.data, np.zeros((7, TOY.n_mels)))

    def test_shape_mismatch_rejected(self, toy_model):
        y, ppg, f0_bins, loud_bins = toy_inputs(6)
        cond = toy_model.build_conditioner(ppg, f0_bins, loud_bins)
        with pytest.raises(ShapeError):
            toy_model.predict_eps(Tensor(np.zeros((6, TOY.n_mels + 1))), 3, cond)
        with pytest.raises(ShapeError):
            toy_model.predict_eps(Tensor(np.zeros((5, TOY.n_mels))), 3, cond)

    def test_end_to_end_gradient_on_conditioner_conv_weight(self):
        # finite-difference oracle on a 4-frame, 8-mel toy config
        cfg = ModelConfig(n_mels=8, channels=8, layers=2, ppg_dim=12, cond_dim=16, n_bins=16)
        model = Denoiser.init(cfg, RandomStream(4).split("fd"))
        model.params["out_conv2.w"].data[:] = RandomStream(5).normal((8, 8, 1)) * 0.3
        rng = RandomStream(6)
        y0 = Tensor(rng.normal((4, 8)))
        eps = Tensor(rng.normal((4, 8)))
        ppg = rng.normal((4, 12))
        f0_bins = rng.integers(0, 16, 4)
        loud_bins = rng.integers(0, 16, 4)
        sched = linear_schedule(20, 1e-4, 0.06)

        def run():
            cond = model.build_conditioner(ppg, f0_bins, loud_bins)
            return diffusion_loss(sched, model, y0, cond, 7, eps)

        model.zero_grads()
        backward(run())
        w = model.params["layer1.cond.w"]
        ad = w.grad[2, 3, 0]

        h = 1e-5
        keep = w.data[2, 3, 0]
        w.data[2, 3, 0] = keep + h
        hi = float(run().data)
        w.data[2, 3, 0] = keep - h
        lo = float(run().data)
        w.data[2, 3, 0] = keep
        fd = (hi - lo) / (2 * h)
        assert abs(ad - fd) / max(abs(ad), abs(fd), 1e-3) < 1e-4

    def test_time_shift_equivariance_away_from_padding(self, toy_model):
        frames, shift = 32, 5
        y, ppg, f0_bins, loud_bins = toy_inputs(frames)
        model = Denoiser.init(TOY, RandomStream(0).split("toy"))
        model.params["out_conv2.w"].data[:] = RandomStream(7).normal((8, 8, 1)) * 0.3

        def shifted(arr, k):
            out = np.zeros_like(arr)
            out[k:] = arr[: len(arr) - k] if arr.ndim == 1 else arr[: len(arr) - k]
            return out

        cond_a = model.build_conditioner(ppg, f0_bins, loud_bins)
        out_a = model.predict_eps(y, 9, cond_a).data
        cond_b = model.build_conditioner(shifted(ppg, shift), shifted(f0_bins, shift), shifted(loud_bins, shift))
        out_b = model.predict_eps(Tensor(shifted(y.data, shift)), 9, cond_b).data

        margin = TOY.layers * (TOY.kernel_size - 1) * TOY.dilation // 2
        interior = slice(margin + shift, frames - margin)
        np.testing.assert_allclose(
            out_b[interior], out_a[margin : frames - margin - shift], rtol=0, atol=1e-12
        )

    def test_fully_convolutional_across_frame_counts(self, toy_model):
        names_before = set(toy_model.params)
        for frames in (1, 64):
            y, ppg, f0_bins, loud_bins = toy_inputs(frames)
            cond = toy_model.build_conditioner(ppg, f0_bins, loud_bins)
            assert toy_model.predict_eps(y, 2, cond).shape == (frames, TOY.n_mels)
        assert set(toy_model.params) == names_before


class TestParameterCount:
    @pytest.mark.parametrize("cfg", [TOY, ModelConfig()])
    def test_closed_form_matches_actual(self, cfg):
        model = Denoiser.init(cfg, RandomStream(8).split("count"))
        actual = sum(p.data.size for p in model.params.values())
        assert actual == parameter_count(cfg)
