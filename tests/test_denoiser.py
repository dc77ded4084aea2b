import math

import numpy as np
import pytest

from singvc import tensor as T
from singvc.config import RunConfig
from singvc.denoiser import RESIDUAL_TAPS, Denoiser, ModelConfig, sinusoidal_step_vector
from singvc.diffusion import diffusion_loss, sample
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
    return Denoiser.init(RunConfig().model_config(), RandomStream(0).split("default"))


@pytest.fixture()
def live_model():
    """A toy model whose final conv is not zero, so its outputs are."""
    model = Denoiser.init(TOY, RandomStream(9).split("live"))
    model.params["out_conv2.w"].data[:] = RandomStream(10).normal((1, 8, 8)) * 0.3
    return model


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

    def test_input_projection_is_linear(self, live_model):
        # a bias far below zero would put every input projection under a
        # ReLU's floor, and the output would no longer depend on y_t
        live_model.params["input_conv.b"].data[:] = -1e3
        y, ppg, f0_bins, loud_bins = toy_inputs(7)
        cond = live_model.build_conditioner(ppg, f0_bins, loud_bins)
        a = live_model.predict_eps(y, 3, cond).data
        b = live_model.predict_eps(Tensor(y.data + 0.5), 3, cond).data
        assert not np.array_equal(a, b)

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
        model.params["out_conv2.w"].data[:] = RandomStream(5).normal((8, 8, 1)).transpose(2, 0, 1) * 0.3
        rng = RandomStream(6)
        y0 = rng.normal((4, 8))
        eps = rng.normal((4, 8))
        ppg = rng.normal((4, 12))
        f0_bins = rng.integers(0, 16, 4)
        loud_bins = rng.integers(0, 16, 4)
        sched = linear_schedule(20)

        def run():
            cond = model.build_conditioner(ppg, f0_bins, loud_bins)
            return diffusion_loss(sched, model, [y0], [cond], [7], [eps])

        backward(run())
        w = model.params["layer1.cond.w"]
        ad = w.grad[0, 2, 3]

        h = 1e-5
        keep = w.data[0, 2, 3]
        w.data[0, 2, 3] = keep + h
        hi = float(run().data)
        w.data[0, 2, 3] = keep - h
        lo = float(run().data)
        w.data[0, 2, 3] = keep
        fd = (hi - lo) / (2 * h)
        assert abs(ad - fd) / max(abs(ad), abs(fd), 1e-3) < 1e-4

    def test_time_shift_equivariance_away_from_padding(self, toy_model):
        frames, shift = 32, 5
        y, ppg, f0_bins, loud_bins = toy_inputs(frames)
        model = Denoiser.init(TOY, RandomStream(0).split("toy"))
        model.params["out_conv2.w"].data[:] = RandomStream(7).normal((8, 8, 1)).transpose(2, 0, 1) * 0.3

        def shifted(arr, k):
            out = np.zeros_like(arr)
            out[k:] = arr[: len(arr) - k] if arr.ndim == 1 else arr[: len(arr) - k]
            return out

        cond_a = model.build_conditioner(ppg, f0_bins, loud_bins)
        out_a = model.predict_eps(y, 9, cond_a).data
        cond_b = model.build_conditioner(shifted(ppg, shift), shifted(f0_bins, shift), shifted(loud_bins, shift))
        out_b = model.predict_eps(Tensor(shifted(y.data, shift)), 9, cond_b).data

        margin = TOY.layers * (RESIDUAL_TAPS - 1) // 2
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


class TestBatchedForward:
    LENGTHS = (7, 16, 5)
    STEPS = [3, 9, 14]

    def batch(self, model, seed=8):
        rng = RandomStream(seed).split("batch")
        y = rng.normal((sum(self.LENGTHS), TOY.n_mels))
        conds = [model.build_conditioner(rng.normal((n, TOY.ppg_dim)), rng.integers(0, TOY.n_bins, n),
                                         rng.integers(0, TOY.n_bins, n)) for n in self.LENGTHS]
        return y, conds

    def rows(self, i):
        start = sum(self.LENGTHS[:i])
        return slice(start, start + self.LENGTHS[i])

    def test_each_segment_gets_the_bits_of_a_call_on_it_alone(self, live_model):
        y, conds = self.batch(live_model)
        out = live_model.predict_eps(Tensor(y), self.STEPS, conds).data
        for i, (t, cond) in enumerate(zip(self.STEPS, conds)):
            alone = live_model.predict_eps(Tensor(y[self.rows(i)]), t, cond).data
            assert np.ascontiguousarray(out[self.rows(i)]).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("perturbed", [0, 1, 2])
    def test_perturbing_one_segment_leaves_the_others_unchanged(self, live_model, perturbed):
        y, conds = self.batch(live_model)
        base = live_model.predict_eps(Tensor(y), self.STEPS, conds).data
        y2 = y.copy()
        y2[self.rows(perturbed)] += 1.0
        other = live_model.predict_eps(Tensor(y2), self.STEPS, conds).data
        for i in range(len(self.LENGTHS)):
            same = base[self.rows(i)].tobytes() == other[self.rows(i)].tobytes()
            assert same == (i != perturbed), f"segment {i}"

    def test_prepared_batch_gives_the_bits_of_plain(self, live_model):
        y, conds = self.batch(live_model)
        plain = live_model.predict_eps(Tensor(y), self.STEPS, conds).data
        prepared = live_model.predict_eps(Tensor(y), self.STEPS, live_model.prepare(conds)).data
        assert prepared.tobytes() == plain.tobytes()

    def test_segment_count_must_match(self, live_model):
        y, conds = self.batch(live_model)
        with pytest.raises(ShapeError, match="steps"):
            live_model.predict_eps(Tensor(y), self.STEPS[:2], conds)
        with pytest.raises(ShapeError, match="frames"):
            live_model.predict_eps(Tensor(y[:-1]), self.STEPS, conds)


class TestPreparedConditioning:
    def conditioner(self, model, frames=12):
        y, ppg, f0_bins, loud_bins = toy_inputs(frames, seed=3)
        return y, model.build_conditioner(ppg, f0_bins, loud_bins)

    @pytest.mark.parametrize("t", [1, 7, 33, 50])
    def test_prepared_gives_the_bits_of_plain(self, live_model, t):
        y, cond = self.conditioner(live_model)
        plain = live_model.predict_eps(y, t, cond).data
        prepared = live_model.predict_eps(y, t, live_model.prepare(cond)).data
        assert np.any(plain != 0.0)
        assert prepared.tobytes() == plain.tobytes()

    def test_sample_chain_is_byte_identical(self, live_model):
        _, cond = self.conditioner(live_model)
        schedule = linear_schedule(20)
        chains = [sample(schedule, live_model, c, 12, TOY.n_mels, RandomStream(4).split("sample"))
                  for c in (cond, live_model.prepare(cond))]
        assert chains[0].tobytes() == chains[1].tobytes()

    def test_frame_mismatch_rejected(self, live_model):
        _, cond = self.conditioner(live_model)
        prepared = live_model.prepare(cond)
        assert [p.shape for p in prepared.layers] == [(2 * TOY.channels, 12)] * TOY.layers
        with pytest.raises(ShapeError, match="conditioner frames 12 != input frames 11"):
            live_model.predict_eps(Tensor(np.zeros((11, TOY.n_mels))), 3, prepared)


class TestTapeMemory:
    """What a training forward leaves on the tape for backward."""

    CHANNELS = 8
    LENGTHS = (45, 35)  # 80 frames: [C, frames] is larger than the 512-wide step MLP rows

    @staticmethod
    def captured(fn):
        """What a closure holds, through the functions, lists and tuples it
        holds; nodes are left out (the walk reaches them as inputs)."""
        stack = [cell.cell_contents for cell in fn.__closure__ or ()]
        while stack:
            value = stack.pop()
            if isinstance(value, (list, tuple)):
                stack.extend(value)
            elif callable(value) and getattr(value, "__closure__", None):
                stack.extend(cell.cell_contents for cell in value.__closure__)
            elif not isinstance(value, T._Node):
                yield value

    def training_forward(self, layers):
        """A model of `layers` residual layers and the output of a
        training-path `predict_eps` (plain conditioners, in the graph)."""
        cfg = ModelConfig(n_mels=3, channels=self.CHANNELS, layers=layers, ppg_dim=5, cond_dim=6, n_bins=4)
        model = Denoiser.init(cfg, RandomStream(1).split("tape"))
        rng = RandomStream(2).split("tape-inputs")
        conds = [model.build_conditioner(rng.normal((n, 5)), rng.integers(0, 4, n), rng.integers(0, 4, n))
                 for n in self.LENGTHS]
        return model, model.predict_eps(Tensor(rng.normal((sum(self.LENGTHS), 3))), [3, 7], conds)

    @staticmethod
    def closures(out):
        """The backward closure of every node reachable from out's node."""
        seen, stack = set(), [out._node]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.backward is not None:
                yield node.backward
            stack.extend(node.inputs)

    def held_units(self, layers):
        """The buffers reachable from a training-path `predict_eps` output,
        each counted once (views by their base) and in units of one
        [channels, frames] float64 buffer, parameters left out."""
        model, out = self.training_forward(layers)
        params = {id(p.data) for p in model.params.values()}
        buffers = {}
        arrays = [out.data]
        for fn in self.closures(out):
            arrays += [v.data if isinstance(v, Tensor) else v for v in self.captured(fn)
                       if isinstance(v, (Tensor, np.ndarray))]
        for a in arrays:
            base = a if a.base is None else a.base
            if id(base) not in params:
                buffers[id(base)] = base
        unit = self.CHANNELS * sum(self.LENGTHS) * 8
        return sum(b.nbytes // unit for b in buffers.values())

    def test_each_residual_layer_holds_four_channel_buffers(self):
        # per layer: the tanh and sigmoid halves (their own backward reads
        # them, and so does the gate's), the gate (the residual and skip
        # convs' input) and the scaled residual sum (the next layer's input);
        # the dilated conv's output, the pre-activation, the unscaled
        # residual sum and the skip sums are read by no backward
        assert self.held_units(3) - self.held_units(2) == 4

    def test_no_closure_captures_a_tensor(self):
        model, out = self.training_forward(2)
        params = {id(p) for p in model.params.values()}
        captured = [v for fn in self.closures(out) for v in self.captured(fn)
                    if isinstance(v, Tensor) and id(v) not in params]
        assert captured == []
