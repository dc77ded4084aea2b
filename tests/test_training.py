import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from singvc import cli, featio, training
from singvc import tensor as T
from singvc.config import RunConfig, serialize_config
from singvc.denoiser import Denoiser, parameter_layout
from singvc.diffusion import diffusion_loss, forward_sample
from singvc.errors import ConfigError, ContractError, DataError, DivergenceError, FormatError
from singvc.features import F0_MAX, F0_MIN
from singvc.rng import RandomStream
from singvc.schedule import linear_schedule
from singvc.tensor import Tensor
from singvc.training import (
    ADAM_BLOCK,
    Adam,
    FeatureStats,
    TrainingSample,
    compute_feature_stats,
    conditioner_bins,
    load_checkpoint,
    save_checkpoint,
    stratified_step,
    train,
)

from conftest import array_spans, config_block_lines, cut_array, layout_mismatch, put_value, set_config_value
from test_acceptance import OVERFIT_CFG, _overfit_sample

TOY_CFG = RunConfig(
    n_mels=8,
    ppg_dim=12,
    diffusion_steps=20,
    layers=2,
    channels=8,
    cond_dim=16,
    n_bins=16,
    n_iter=12,
    lr=1e-3,
    seed=5,
    batch=2,
    segment_frames=16,
    log_every=1,
)


def make_sample(name="utt0", frames=32, seed=0, n_mels=8, ppg_dim=12):
    rng = RandomStream(seed).split(name)
    hz = 200.0 + 40.0 * np.sin(np.linspace(0, 3, frames))
    hz[: frames // 8] = 0.0  # a few unvoiced frames
    return TrainingSample(
        name=name,
        ppg=np.abs(rng.normal((frames, ppg_dim))),
        f0=hz,
        loudness=rng.normal(frames) - 10.0,
        log_mel=rng.normal((frames, n_mels)),
    )


@pytest.fixture()
def corpus():
    return [make_sample("utt0", seed=1), make_sample("utt1", frames=40, seed=2)]


class TestAdam:
    def test_zero_gradient_leaves_params_and_decays_moments(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam()
        opt.m["p"] = np.array([0.5, 0.5])
        opt.v["p"] = np.array([0.25, 0.25])
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step({"p": p}, lr=0.1)
        # m decays toward zero, v likewise; the bias-corrected update is tiny
        assert opt.m["p"][0] == pytest.approx(0.45)
        assert opt.v["p"][0] == pytest.approx(0.25 * 0.999)
        assert np.abs(p.data - before).max() < 0.1 + 1e-9

    def test_first_step_scalar_oracle(self):
        # hand evaluation of the ADAM recurrence at t=1
        g, lr = 0.37, 0.01
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([g])
        Adam().step({"p": p}, lr=lr)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_identical_grads_identical_updates(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        a.grad = np.array([0.2])
        b.grad = np.array([0.2])
        Adam().step({"a": a, "b": b}, lr=0.05)
        assert a.data[0] == b.data[0]

    def test_scale_invariance_for_large_gradients(self):
        updates = []
        for scale in (1.0, 10.0):
            p = Tensor(np.array([0.0]), requires_grad=True)
            p.grad = np.array([0.5 * scale])
            Adam().step({"p": p}, lr=0.01)
            updates.append(p.data[0])
        assert abs(updates[0] - updates[1]) / abs(updates[0]) < 0.01

    def test_non_finite_gradient_aborts(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError):
            Adam().step({"p": p}, lr=0.01)

    def test_step_releases_every_gradient(self):
        params = {n: Tensor(np.ones(3), requires_grad=True) for n in "abc"}
        params["a"].grad = np.full(3, 0.5)
        params["b"].grad = np.full(3, -0.5)  # "c" has none: it reads as zero
        Adam().step(params, lr=0.01)
        assert [p.grad for p in params.values()] == [None, None, None]

    def test_divergence_leaves_parameters_moments_and_gradients_untouched(self):
        params = {n: Tensor(np.full(3, float(i)), requires_grad=True) for i, n in enumerate("abc")}
        opt = Adam()
        for p in params.values():
            p.grad = np.full(3, 0.25)
        opt.step(params, lr=0.01)

        # "a" comes before the bad gradient: a partial update would move it
        grads = {"a": np.full(3, 0.5), "b": np.array([0.5, np.inf, 0.5]), "c": np.full(3, 0.5)}
        for n, p in params.items():
            p.grad = grads[n]

        def state():
            return ([p.data.tobytes() for p in params.values()], [m.tobytes() for m in opt.m.values()],
                    [v.tobytes() for v in opt.v.values()], opt.step_count)

        before = state()
        with pytest.raises(DivergenceError, match="'b'"):
            opt.step(params, lr=0.01)
        assert state() == before
        for n, p in params.items():
            assert p.grad is grads[n]
        assert grads["a"].tobytes() == np.full(3, 0.5).tobytes()

    def test_in_place_update_matches_out_of_place_reference(self):
        rng = RandomStream(21)
        # "c" spans three blocks, the last one short; "d" has no gradient
        # at every other step
        shapes = {"a": (5, 7), "b": (3,), "c": (2, ADAM_BLOCK + 5), "d": (4,)}
        init = {n: rng.normal(shape) for n, shape in shapes.items()}
        grads = [{n: 2.0 * rng.normal(shape) for n, shape in shapes.items()} for _ in range(6)]
        for step_grads in grads[::2]:
            step_grads["d"] = None

        # the update as it was before the moments were updated in place:
        # every step binds new moment arrays
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        ref = {n: a.copy() for n, a in init.items()}
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        for count, step_grads in enumerate(grads, start=1):
            c1, c2 = 1.0 - b1**count, 1.0 - b2**count
            for n, g in step_grads.items():
                g = np.zeros(shapes[n]) if g is None else g
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                ref[n] -= lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + eps)

        params = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        opt = Adam()
        for count, step_grads in enumerate(grads, start=1):
            for n, p in params.items():
                p.grad = step_grads[n]
            opt.step(params, lr)
            if count == 1:
                moments = {n: (opt.m[n], opt.v[n]) for n in params}
        for n, p in params.items():
            assert p.data.tobytes() == ref[n].tobytes()
            assert opt.m[n].tobytes() == m[n].tobytes() and opt.v[n].tobytes() == v[n].tobytes()
            assert opt.m[n] is moments[n][0] and opt.v[n] is moments[n][1]

    def test_strided_parameter_is_a_contract_error(self):
        # a flat view of it would be a copy, and the update would be lost
        p = Tensor(np.zeros((4, 3)).T, requires_grad=True)
        p.grad = np.ones((3, 4))
        with pytest.raises(ContractError, match="'p'"):
            Adam().step({"p": p}, lr=0.01)

    def test_divergence_in_the_last_block_of_a_long_parameter(self):
        # the check runs block by block and still ends before any update
        shapes = {"a": (3,), "b": (2, ADAM_BLOCK + 5), "c": (3,)}
        params = {n: Tensor(np.full(shape, 1.0), requires_grad=True) for n, shape in shapes.items()}
        opt = Adam()
        for p in params.values():
            p.grad = np.full(p.shape, 0.25)
        opt.step(params, lr=0.01)
        grads = {n: np.full(shape, 0.5) for n, shape in shapes.items()}
        grads["b"][-1, -1] = np.nan
        for n, p in params.items():
            p.grad = grads[n]

        def state():
            arrays = (*(p.data for p in params.values()), *opt.m.values(), *opt.v.values())
            return [a.tobytes() for a in arrays], opt.step_count

        before = state()
        with pytest.raises(DivergenceError, match="'b'"):
            opt.step(params, lr=0.01)
        assert state() == before
        for n, p in params.items():
            assert p.grad is grads[n]


def reference_predict_eps(model, y_t, t, cond):
    """The noise estimate of one segment, built as before the batch became
    one graph: each batch element ran this on its own."""
    p, cfg = model.params, model.cfg

    def conv(name, x):
        return T.conv1d(x, p[f"{name}.w"], p[f"{name}.b"])

    h = conv("input_conv", T.transpose(y_t))
    h = T.add_per_segment(h, [model.step_vector(t)], (h.shape[1],))  # one segment: a column add
    ec = T.transpose(cond)
    c, skip = cfg.channels, None
    for i in range(cfg.layers):
        u = T.add(conv(f"layer{i}.dilated", h), conv(f"layer{i}.cond", ec))
        gate = T.mul(T.tanh(T.slice_rows(u, 0, c)), T.sigmoid(T.slice_rows(u, c, 2 * c)))
        h = T.scale(T.add(h, conv(f"layer{i}.residual", gate)), T.SQRT_HALF)
        s = conv(f"layer{i}.skip", gate)
        skip = s if skip is None else T.add(skip, s)
    out = T.relu(conv("out_conv1", T.scale(skip, 1.0 / math.sqrt(cfg.layers))))
    return T.transpose(conv("out_conv2", out))


def reference_loss(schedule, model, y0, conds, steps, noises):
    """The per-element loop: one graph per segment, the MSEs summed and
    scaled by 1/batch."""
    total = None
    for y, cond, t, eps in zip(y0, conds, steps, noises):
        pred = reference_predict_eps(model, Tensor(forward_sample(schedule, y, t, eps)), t, cond)
        term = T.mse(Tensor(eps), pred)
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(steps))


def reference_adam_step(params, m, v, count, lr):
    """ADAM with a new array for every intermediate."""
    grads = {n: p.grad if p.grad is not None else np.zeros_like(p.data) for n, p in params.items()}
    c1, c2 = 1.0 - 0.9**count, 1.0 - 0.999**count
    for n, p in params.items():
        g = grads[n]
        m[n] = 0.9 * m.get(n, np.zeros_like(g)) + (1.0 - 0.9) * g
        v[n] = 0.999 * v.get(n, np.zeros_like(g)) + (1.0 - 0.999) * g * g
        p.data = p.data - lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + 1e-8)
        p.grad = None


def cond_inputs(sample, sl, cfg):
    """PPG rows and some melody and loudness bins of one segment."""
    frames = np.arange(sl.start, sl.stop)
    return sample.ppg[sl], frames % cfg.n_bins, (7 * frames) % cfg.n_bins


class TestBatchedIteration:
    """One graph per iteration against the per-element loop, byte for byte."""

    @pytest.mark.parametrize("segments", [
        [("utt1", 3)],
        [("utt0", 5), ("short", 0), ("utt1", 20)],  # "short" has 11 frames, under segment_frames
    ])
    def test_loss_gradients_and_adam_match_the_per_element_loop(self, corpus, segments):
        self.match_per_element_loop(corpus, segments, TOY_CFG.layers)

    def test_conditioner_gradient_sums_three_layers_in_order(self, corpus):
        # two layers' contributions add the same bits in either order; three
        # do not, so this pins the order in which the layers' cond convs add
        # into the conditioner's gradient
        self.match_per_element_loop(corpus, [("utt0", 5), ("utt1", 20)], 3)

    @staticmethod
    def match_per_element_loop(corpus, segments, layers):
        utts = {s.name: s for s in corpus + [make_sample("short", frames=11, seed=3)]}
        cfg = RunConfig(**{**TOY_CFG.__dict__, "batch": len(segments), "layers": layers})
        schedule = cfg.schedule()
        init = Denoiser.init(cfg.model_config(), RandomStream(4).split("init"))
        # a non-zero output conv, so every parameter gets a gradient at once
        init.params["out_conv2.w"].data[:] = RandomStream(6).normal(init.params["out_conv2.w"].shape) * 0.3
        batched = Denoiser(init.cfg, {n: Tensor(p.data.copy(), requires_grad=True) for n, p in init.params.items()})
        ref = Denoiser(init.cfg, {n: Tensor(p.data.copy(), requires_grad=True) for n, p in init.params.items()})
        adam, ref_m, ref_v = Adam(), {}, {}
        rng = RandomStream(7)
        for count in (1, 2, 3):
            y0, steps, noises, slices = [], [], [], []
            for b, (name, start) in enumerate(segments):
                sample = utts[name]
                sl = slice(start, start + min(cfg.segment_frames, sample.log_mel.shape[0]))
                slices.append((sample, sl))
                y0.append(sample.log_mel[sl])
                steps.append(stratified_step(rng, b, cfg.batch, cfg.diffusion_steps))
                noises.append(rng.normal((sl.stop - sl.start, cfg.n_mels)))

            loss = diffusion_loss(schedule, batched, y0, [batched.build_conditioner(*cond_inputs(s, sl, cfg))
                                                          for s, sl in slices], steps, noises)
            expected = reference_loss(schedule, ref, y0, [ref.build_conditioner(*cond_inputs(s, sl, cfg))
                                                          for s, sl in slices], steps, noises)
            assert loss.data.tobytes() == expected.data.tobytes()
            T.backward(loss)
            T.backward(expected)
            for name, p in batched.params.items():
                q = ref.params[name]
                assert (p.grad is None) == (q.grad is None), name
                assert p.grad is None or p.grad.tobytes() == q.grad.tobytes(), name

            adam.step(batched.params, cfg.lr)
            reference_adam_step(ref.params, ref_m, ref_v, count, cfg.lr)
            for name, p in batched.params.items():
                assert p.data.tobytes() == ref.params[name].data.tobytes(), name
                assert adam.m[name].tobytes() == ref_m[name].tobytes(), name
                assert adam.v[name].tobytes() == ref_v[name].tobytes(), name

    @pytest.mark.parametrize("batch", [1, 3])
    def test_one_iteration_runs_each_convolution_once(self, corpus, monkeypatch, batch):
        calls = []
        conv1d = T.conv1d

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return conv1d(*args, **kwargs)

        monkeypatch.setattr(T, "conv1d", counted)
        cfg = RunConfig(**{**TOY_CFG.__dict__, "batch": batch, "n_iter": 1})
        train(corpus, cfg)
        assert len(calls) == 4 * cfg.layers + 3


class TestGradientAdoption:
    def test_adopting_fresh_gradients_matches_copying_them(self, monkeypatch):
        # the fast path (a node adopts a fresh first contribution, later
        # rank-1 products are added in row blocks) against the copying path
        # it replaced, in one process: losses, parameters and moments
        data = [_overfit_sample()]
        cfg = dataclasses.replace(OVERFIT_CFG, n_iter=3)
        accumulate, add_outer = T._Node.accumulate, T._add_outer
        adopted, blocked = [], []

        def spy_accumulate(node, g, fresh=False):
            accumulate(node, g, fresh)
            adopted.append(node.grad is g)

        def spy_add_outer(out, col, row):
            add_outer(out, col, row)
            blocked.append(out.shape)

        def state(ckpt, losses):
            return repr(losses), [{n: a.tobytes() for n, a in d.items()}
                                  for d in (ckpt.params, ckpt.adam.m, ckpt.adam.v)]

        monkeypatch.setattr(T._Node, "accumulate", spy_accumulate)
        monkeypatch.setattr(T, "_add_outer", spy_add_outer)
        fast = state(*train(data, cfg))
        assert any(adopted) and (512, 512) in blocked

        monkeypatch.setattr(T._Node, "accumulate", lambda node, g, fresh=False: accumulate(node, g))
        monkeypatch.setattr(T, "_add_outer", lambda out, col, row: out.__iadd__(np.multiply(col[:, None], row)))
        assert state(*train(data, cfg)) == fast

    def test_one_iteration_copies_no_fresh_gradient(self, monkeypatch):
        # every gradient is C-ordered, so each fresh first contribution is
        # adopted: a transposed conditioner's conv1d input gradient too
        accumulate, step = T._Node.accumulate, Adam.step
        copied, c_ordered = [], {}

        def spy_accumulate(node, g, fresh=False):
            first = node.grad is None
            accumulate(node, g, fresh)
            if fresh and first and node.grad is not g:
                copied.append(g.shape)

        def spy_step(opt, params, lr):
            c_ordered.update({n: p.grad.flags.c_contiguous for n, p in params.items() if p.grad is not None})
            step(opt, params, lr)

        monkeypatch.setattr(T._Node, "accumulate", spy_accumulate)
        monkeypatch.setattr(Adam, "step", spy_step)
        train([_overfit_sample()], dataclasses.replace(OVERFIT_CFG, n_iter=1))
        assert copied == []
        assert c_ordered and all(c_ordered.values()), [n for n, c in c_ordered.items() if not c]


class TestStratifiedStep:
    def test_batch_mixture_uniform(self):
        rng = RandomStream(9)
        draws = np.array([[stratified_step(rng, i, 4, 10) for i in range(4)] for _ in range(1000)])
        counts = np.bincount(draws.ravel(), minlength=11)[1:]
        # the strata of 1..10 split steps 3 and 8 between two elements; each
        # step still has probability 1/10 per draw: binomial(4000, 0.1), sd 19
        assert np.abs(counts - 400).max() < 76

    def test_element_stays_in_its_stratum(self):
        rng = RandomStream(10)
        draws = np.array([[stratified_step(rng, i, 4, 20) for i in range(4)] for _ in range(200)])
        for i, col in enumerate(draws.T):
            assert col.min() == 5 * i + 1 and col.max() == 5 * i + 5

    def test_batch_of_one_is_plain_uniform_draw(self):
        a, b = RandomStream(11), RandomStream(11)
        for _ in range(50):
            assert stratified_step(a, 0, 1, 50) == int(b.integers(1, 51, 1)[0])
        assert a.state == b.state

    def test_largest_draw_stays_in_range(self):
        class Top:
            def uniform(self, n):
                return np.full(n, 1.0 - 2.0**-53)  # the largest draw below 1

        # (3 + u) / 4 rounds to 1.0 in float64
        assert stratified_step(Top(), 3, 4, 10) == 10


class TestInitialLoss:
    def test_zero_init_model_loss_near_one(self):
        # E||eps||^2 / D under mean reduction, 100 batches
        cfg = TOY_CFG
        model = Denoiser.init(cfg.model_config(), RandomStream(0).split("init"))
        sched = linear_schedule(cfg.diffusion_steps)
        rng = RandomStream(123)
        losses = []
        for _ in range(100):
            y0 = rng.normal((16, cfg.n_mels))
            eps = rng.normal((16, cfg.n_mels))
            t = int(rng.integers(1, cfg.diffusion_steps + 1, 1)[0])
            cond = model.build_conditioner(
                rng.normal((16, cfg.ppg_dim)),
                rng.integers(0, cfg.n_bins, 16),
                rng.integers(0, cfg.n_bins, 16),
            )
            losses.append(float(diffusion_loss(sched, model, [y0], [cond], [t], [eps]).data))
        assert abs(np.mean(losses) - 1.0) < 0.1


class TestTrainLoop:
    def test_determinism(self, corpus):
        _, losses_a = train(corpus, TOY_CFG)
        _, losses_b = train(corpus, TOY_CFG)
        assert losses_a == losses_b

    @pytest.mark.parametrize("ckpt_every, saved", [(2, [2, 4]), (3, [3, 4]), (0, [4])],
                             ids=["every2", "every3", "off"])
    def test_each_iteration_saves_at_most_once(self, corpus, tmp_path, monkeypatch, ckpt_every, saved):
        iterations = []
        inner = training.save_checkpoint

        def save(path, ckpt):
            iterations.append(ckpt.iteration)
            inner(path, ckpt)

        monkeypatch.setattr(training, "save_checkpoint", save)
        cfg = dataclasses.replace(TOY_CFG, n_iter=4, ckpt_every=ckpt_every)
        train(corpus, cfg, ckpt_path=tmp_path / "model.ckpt")
        assert iterations == saved

    def test_loss_is_logged(self, corpus, tmp_path):
        log = tmp_path / "loss.csv"
        train(corpus, TOY_CFG, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,loss,wall_ms"
        assert len(lines) == 1 + TOY_CFG.n_iter

    def test_log_rows_reach_the_file_as_they_are_logged(self, corpus, tmp_path, monkeypatch):
        log, on_disk = tmp_path / "loss.csv", []
        inner = training.Adam.step

        def step(adam, params, lr):
            on_disk.append(len(log.read_text().splitlines()))
            inner(adam, params, lr)

        monkeypatch.setattr(training.Adam, "step", step)
        train(corpus, dataclasses.replace(TOY_CFG, n_iter=5), log_path=log)
        assert on_disk == [1, 2, 3, 4, 5]  # at iteration k: the header and k - 1 rows

    def test_a_fresh_run_that_trains_nothing_writes_no_log(self, corpus, tmp_path):
        log = tmp_path / "loss.csv"
        train(corpus, dataclasses.replace(TOY_CFG, n_iter=0), log_path=log)
        assert not log.exists()

    def test_frame_misaligned_corpus_rejected(self):
        bad = TrainingSample(
            name="bad",
            ppg=np.zeros((5, 12)),
            f0=np.zeros(6),
            loudness=np.zeros(5),
            log_mel=np.zeros((5, 8)),
        )
        with pytest.raises(DataError, match="bad"):
            train([bad], TOY_CFG)

    @pytest.mark.parametrize("kind", ["ppg", "f0", "loudness", "mel"])
    def test_non_finite_feature_rejected(self, kind):
        s = make_sample()
        ppg, hz, loud, mel = s.ppg.copy(), s.f0.copy(), s.loudness.copy(), s.log_mel.copy()
        {"ppg": ppg, "f0": hz, "loudness": loud, "mel": mel}[kind][5] = np.nan
        bad = TrainingSample(s.name, ppg, hz, loud, mel)
        with pytest.raises(DataError, match=rf"utt0.*non-finite {kind} value at frame 5"):
            train([bad], TOY_CFG)

    def test_wrong_ppg_dim_rejected(self):
        sample = make_sample(ppg_dim=7)
        with pytest.raises(DataError, match="ppg dim"):
            train([sample], TOY_CFG)

    MALFORMED = {
        "rank_1_ppg": (lambda s: dataclasses.replace(s, ppg=s.ppg[:, 0]), "ppg has rank 1, expected 2"),
        "zero_frames": (lambda s: TrainingSample(s.name, s.ppg[:0], s.f0[:0],
                                                 s.loudness[:0], s.log_mel[:0]), "no frames"),
        "mel_depth": (lambda s: dataclasses.replace(s, log_mel=s.log_mel[:, :6]),
                      "mel depth 6 != configured n_mels 8"),
        "rank_2_f0": (lambda s: dataclasses.replace(s, f0=np.stack([s.f0, s.f0], axis=1)),
                      "f0 has rank 2, expected 1"),
    }

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_features_rejected_before_training(self, corpus, kind):
        malform, message = self.MALFORMED[kind]
        with pytest.raises(DataError, match=re.escape(f"utterance 'bad': {message}")):
            train([corpus[0], malform(make_sample("bad"))], TOY_CFG)

    def test_nan_loss_aborts_with_diagnostic(self, corpus):
        ckpt, _ = train(corpus, TOY_CFG)
        # poisoned in memory: `load_checkpoint` rejects a NaN record
        ckpt.params["out_conv2.b"][:] = np.nan
        cfg = RunConfig(**{**TOY_CFG.__dict__, "n_iter": TOY_CFG.n_iter + 1})
        with pytest.raises(DivergenceError, match=r"iteration 13"):
            train(corpus, cfg, resume=ckpt)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_schedule_tables_roundtrip_bit_exact(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path).config.schedule()
        run = linear_schedule(TOY_CFG.diffusion_steps)
        for name in ("beta", "alpha", "alpha_bar", "sigma"):
            assert getattr(loaded, name).tobytes() == getattr(run, name).tobytes()

    def test_resume_reproduces_uninterrupted_losses(self, corpus, tmp_path):
        full_cfg = RunConfig(**{**TOY_CFG.__dict__, "n_iter": 22})  # TOY_CFG runs 12
        full, full_losses = train(corpus, full_cfg)

        ckpt, head_losses = train(corpus, TOY_CFG)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, ckpt)
        resumed, tail_losses = train(corpus, full_cfg, resume=load_checkpoint(path))
        assert head_losses + tail_losses == full_losses

        def state_bytes(ck):
            arrays = {n: a.tobytes() for n, a in ck.params.items()}
            arrays.update({f"m.{n}": a.tobytes() for n, a in ck.adam.m.items()})
            arrays.update({f"v.{n}": a.tobytes() for n, a in ck.adam.v.items()})
            return arrays

        assert state_bytes(resumed) == state_bytes(full)

    def test_an_iteration_0_save_holds_zero_moments(self, corpus, tmp_path):
        # a fresh run at n_iter = 0 saves its state before any ADAM step:
        # both moment sets, all zero, and it resumes as a fresh run
        path = tmp_path / "start.ckpt"
        train(corpus, dataclasses.replace(TOY_CFG, n_iter=0), ckpt_path=path)
        loaded = load_checkpoint(path)
        for moments in (loaded.adam.m, loaded.adam.v):
            assert list(moments) == list(loaded.params)
            assert not any(arr.any() for arr in moments.values())
        assert train(corpus, TOY_CFG, resume=loaded)[1] == train(corpus, TOY_CFG)[1]

    def test_config_block_ends_with_the_training_state(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, ckpt)
        lines = config_block_lines(path)
        stats = ckpt.stats
        assert lines[:-8] == serialize_config(TOY_CFG).splitlines()
        assert lines[-8:] == [
            f"iteration = {TOY_CFG.n_iter}",
            f"rng_counter = {ckpt.rng.state[1]}",
            f"mel_lo = {stats.mel_lo!r}",
            f"mel_hi = {stats.mel_hi!r}",
            f"f0_lo = {stats.f0_lo!r}",
            f"f0_hi = {stats.f0_hi!r}",
            f"loud_lo = {stats.loud_lo!r}",
            f"loud_hi = {stats.loud_hi!r}",
        ]

    def test_loaded_stream_is_derived_from_the_config_seed(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, ckpt)
        counter = ckpt.rng.state[1]
        assert counter > 0
        assert load_checkpoint(path).rng.state == (RandomStream(TOY_CFG.seed).split("train").state[0], counter)
        # the file names its stream by the config's seed alone
        set_config_value(path, "seed", 6)
        assert load_checkpoint(path).rng.state == (RandomStream(6).split("train").state[0], counter)

    BAD_STATE = [
        ("iteration", "z", "state key iteration: bad value 'z'"),
        ("rng_counter", "7.5", "state key rng_counter: bad value '7.5'"),
        ("rng_counter", "-3", "state key rng_counter: bad value '-3'"),
        # the stream's state is two 64-bit integers
        ("rng_counter", "18446744073709551616", "state key rng_counter: bad value '18446744073709551616'"),
        ("mel_lo", "q.0003", "state key mel_lo: bad value 'q.0003'"),
        ("f0_hi", "nan", "state key f0_hi: bad value 'nan'"),
        # each range's ends out of order
        ("mel_lo", "1e9", "state keys mel_lo, mel_hi: need mel_lo < mel_hi, got 1000000000.0 >= "),
        ("f0_hi", "-1e9", "state keys f0_lo, f0_hi: need f0_lo < f0_hi, got "),
        ("loud_lo", "1e9", "state keys loud_lo, loud_hi: need loud_lo < loud_hi, got 1000000000.0 >= "),
        # a run setting that `RunConfig` rejects names the file too
        ("batch", "0", "batch must be at least 1, got 0"),
    ]

    @pytest.mark.parametrize("key, value, error", BAD_STATE, ids=[f"{k}-{v}" for k, v, _ in BAD_STATE])
    def test_bad_state_value_rejected(self, corpus, tmp_path, key, value, error):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, ckpt)
        set_config_value(path, key, value)
        for optimizer in (True, False):
            with pytest.raises(FormatError, match=re.escape(f"{path}: {error}")):
                load_checkpoint(path, optimizer=optimizer)

    def test_mismatched_dims_rejected(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        bigger = RunConfig(**{**TOY_CFG.__dict__, "channels": 16})
        with pytest.raises(ConfigError, match="channels"):
            train(corpus, bigger, resume=load_checkpoint(path))

    def test_failed_save_keeps_previous_file(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "keep.ckpt"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        # parameters are written in layout order, "out_conv2.b" is the last
        # one and cannot be converted to float64, so the write fails after
        # the other parameters went out
        unconvertible = np.full(ckpt.params["out_conv2.b"].shape, "x")
        broken = dataclasses.replace(ckpt, params={**ckpt.params, "out_conv2.b": unconvertible})
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.ckpt"]

    def test_save_refuses_an_array_off_the_layout(self, corpus, tmp_path):
        # a transposed weight has the layout's size, so a file holding it
        # would load at the layout's shape without an error
        ckpt, _ = train(corpus, TOY_CFG)
        broken = dataclasses.replace(ckpt, params={**ckpt.params, "ppg_prenet.w": ckpt.params["ppg_prenet.w"].T})
        with pytest.raises(ContractError, match=re.escape(
                "cannot save 'ppg_prenet.w' of shape (16, 12): the config's layout has (12, 16)")):
            save_checkpoint(tmp_path / "t.ckpt", broken)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_rejected(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ckpt)
        spans, data = array_spans(path), path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match=re.escape(layout_mismatch(path, spans, len(data) // 2))):
            load_checkpoint(path)

    def test_old_version_rejected(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        # 1: fan-in-scaled step weights; 2: conv weights [C_out, C_in, K];
        # 3: stored schedule tables and ADAM step count; 4: STFT window and
        # residual conv settings in the config block; 5: the mel band's edges
        # in the config block; 6: the loudness FFT length in the config block;
        # 7: the gradient-clip norm in the config block; 8: the schedule's beta
        # range in the config block; 9: the audio front end in the config block;
        # 10: a record header per array; 11: weights trained with a ReLU after
        # the input conv; 12: the training stream's seed in the state
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
            path = tmp_path / f"v{version}.ckpt"
            save_checkpoint(path, ckpt)
            data = bytearray(path.read_bytes())
            data[4] = version  # the u8 version after the magic
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError, match=re.escape(f"{path}: unsupported checkpoint version {version}")):
                load_checkpoint(path)

    # each damages the file's bytes, given the span of every array; a file
    # whose arrays no longer fill the config's layout fails on its size
    DAMAGE = {
        "missing": (lambda data, spans: cut_array(data, spans["layer1.skip.w"]), None),
        "short_table": (lambda data, spans: cut_array(data, spans["f0_table"], 3 * 16 * 8), None),  # 3 of 16 rows
        "unexpected": (lambda data, spans: data + bytes(16), None),
        "missing_moment": (lambda data, spans: cut_array(data, spans["adam.v.out_conv2.b"]), None),
        "moment_shape": (lambda data, spans: cut_array(data, spans["adam.m.step_fc1.b"], 3 * 8), None),
        "nan_param": (lambda data, spans: put_value(data, spans["out_conv2.b"], 3, np.nan),
                      r"record 'out_conv2.b': non-finite value nan at index \(3,\)"),
        "inf_moment": (lambda data, spans: put_value(data, spans["adam.v.step_fc1.b"], 7, -np.inf),
                       r"record 'adam.v.step_fc1.b': non-finite value -inf at index \(0, 7\)"),
    }

    @pytest.mark.parametrize("kind", DAMAGE)
    def test_damaged_records_rejected_at_load(self, corpus, tmp_path, kind):
        damage, message = self.DAMAGE[kind]
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "damaged.ckpt"
        save_checkpoint(path, ckpt)
        spans = array_spans(path)
        data = damage(path.read_bytes(), spans)
        path.write_bytes(data)
        message = message or re.escape(layout_mismatch(path, spans, len(data)))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)
        if kind != "inf_moment":  # an inference load checks the moments' size, not their values
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path, optimizer=False)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WHAT" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_overfit_toy_checkpoint_under_10mb(self, tmp_path):
        cfg = RunConfig(
            n_mels=16, ppg_dim=16, diffusion_steps=50, layers=4, channels=32,
            cond_dim=32, n_bins=32, n_iter=1, batch=1, segment_frames=16, seed=0,
        )
        sample = make_sample("one", frames=64, n_mels=16, ppg_dim=16)
        path = tmp_path / "toy.ckpt"
        train([sample], cfg, ckpt_path=path)
        assert path.stat().st_size < 10 * 1024 * 1024


class TestRecordSizes:
    # config settings whose layout needs far more bytes than the file holds:
    # 1.6 GB of arrays at 2**20 channels, past 2**64 bytes at 2**40
    @pytest.mark.parametrize("dims", [{"channels": 2**20}, {"channels": 2**40, "cond_dim": 2**40}])
    def test_oversized_record_rejected_before_allocating(self, corpus, tmp_path, dims):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, ckpt)
        for key, value in dims.items():
            set_config_value(path, key, value)
        layout = parameter_layout(dataclasses.replace(TOY_CFG, **dims).model_config())
        need = 3 * 8 * sum(math.prod(shape) for _, shape, _ in layout)
        data = path.read_bytes()
        left = len(data) - 9 - struct.unpack_from("<I", data, 5)[0]  # after the magic, version and block
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(
                    f"{path}: {left} bytes after the config block, its parameter layout needs {need}")):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_oversized_skipped_record_rejected(self, corpus, tmp_path):
        # an inference read skips the moments, but the file must hold them
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, ckpt)
        spans = array_spans(path)
        data = path.read_bytes()[: spans["adam.v.out_conv2.b"][0]]
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(layout_mismatch(path, spans, len(data)))):
            load_checkpoint(path, optimizer=False)


MID_CFG = RunConfig(layers=6, channels=128, diffusion_steps=10, n_iter=1, batch=1,
                    segment_frames=16, seed=2)


@pytest.fixture(scope="module")
def mid_checkpoint(tmp_path_factory):
    """A 6 x 128 checkpoint at the published feature sizes, with conditioner
    features for a 24-frame conversion."""
    root = tmp_path_factory.mktemp("mid")
    sample = make_sample("mid", frames=24, n_mels=MID_CFG.n_mels, ppg_dim=MID_CFG.ppg_dim)
    train([sample], MID_CFG, ckpt_path=root / "mid.ckpt")
    featio.write_feat(root / "ppg.feat", sample.ppg)
    featio.write_feat(root / "f0.feat", sample.f0)
    featio.write_feat(root / "loud.feat", sample.loudness)
    return root


class TestInferenceLoad:
    def test_params_only_load_peaks_near_parameter_bytes(self, mid_checkpoint):
        path = mid_checkpoint / "mid.ckpt"
        param_bytes = sum(a.nbytes for a in load_checkpoint(path).params.values())
        tracemalloc.start()
        try:
            model = load_checkpoint(path, optimizer=False).build_model()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.params) > 0
        assert peak < 1.3 * param_bytes, f"peak {peak / param_bytes:.2f}x the parameter bytes"

    def test_params_only_load_matches_full_load(self, mid_checkpoint):
        full = load_checkpoint(mid_checkpoint / "mid.ckpt")
        lean = load_checkpoint(mid_checkpoint / "mid.ckpt", optimizer=False)
        assert lean.adam is None
        assert full.adam.m and full.adam.v and full.adam.step_count == MID_CFG.n_iter
        assert sorted(lean.params) == sorted(full.params)
        for name, arr in full.params.items():
            assert lean.params[name].tobytes() == arr.tobytes()
        assert lean.rng.state == full.rng.state
        for field in ("iteration", "stats", "config"):
            assert getattr(lean, field) == getattr(full, field)

    def test_inference_and_trainable_models_share_arrays(self, mid_checkpoint):
        ckpt = load_checkpoint(mid_checkpoint / "mid.ckpt", optimizer=False)
        shared = ckpt.build_model()
        trainable = ckpt.build_model(trainable=True)
        for name, arr in ckpt.params.items():
            assert shared.params[name].data is arr
            assert trainable.params[name].data is arr
            assert trainable.params[name].requires_grad and not shared.params[name].requires_grad

    def test_convert_output_equals_full_load(self, mid_checkpoint, tmp_path, monkeypatch):
        def convert(tag):
            out, wav = tmp_path / f"{tag}.mel.feat", tmp_path / f"{tag}.wav"
            argv = ["convert", "--ckpt", mid_checkpoint / "mid.ckpt", "--ppg", mid_checkpoint / "ppg.feat",
                    "--f0", mid_checkpoint / "f0.feat", "--loud", mid_checkpoint / "loud.feat",
                    "--out", out, "--seed", 4, "--denorm", "--wav", wav]
            assert cli.main([str(a) for a in argv]) == 0
            return out.read_bytes(), wav.read_bytes()

        lean = convert("lean")
        monkeypatch.setattr(cli, "load_checkpoint", lambda path, optimizer: load_checkpoint(path))
        assert convert("full") == lean

    def test_resume_and_save_need_optimizer_state(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "r.ckpt"
        save_checkpoint(path, ckpt)
        lean = load_checkpoint(path, optimizer=False)
        cfg = RunConfig(**{**TOY_CFG.__dict__, "n_iter": TOY_CFG.n_iter + 2})
        with pytest.raises(ContractError, match="resume from a checkpoint loaded without optimizer state"):
            train(corpus, cfg, resume=lean)
        with pytest.raises(ContractError, match="save a checkpoint loaded without optimizer state"):
            save_checkpoint(tmp_path / "lean.ckpt", lean)
        assert [p.name for p in tmp_path.iterdir()] == ["r.ckpt"]


class TestTrainingState:
    def test_saves_write_the_live_state_without_copies(self, tmp_path, monkeypatch):
        # from the last ADAM step to train's return only the checkpoint save
        # runs; writing the live arrays allocates no copy of the state
        sample = make_sample("mid", frames=24, n_mels=MID_CFG.n_mels, ppg_dim=MID_CFG.ppg_dim)
        after_step = []
        inner = Adam.__dict__["step"]

        def step(self, *args, **kwargs):
            inner(self, *args, **kwargs)
            after_step.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

        monkeypatch.setattr(Adam, "step", step)
        tracemalloc.start()
        try:
            state, _ = train([sample], MID_CFG, ckpt_path=tmp_path / "s.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(a.nbytes for arrays in (state.params, state.adam.m, state.adam.v)
                          for a in arrays.values())
        assert len(after_step) == MID_CFG.n_iter
        growth = peak - after_step[-1]
        assert growth < 0.1 * state_bytes, f"save phase +{growth / state_bytes:.2f}x the state bytes"

    def test_resume_advances_its_argument_in_place(self, monkeypatch):
        # from train's start to its first ADAM step a resume allocates that
        # step's gradients, left out of the bound, and no copy of the state
        sample = make_sample("mid", frames=24, n_mels=MID_CFG.n_mels, ppg_dim=MID_CFG.ppg_dim)
        ckpt, _ = train([sample], MID_CFG)
        state_bytes = sum(a.nbytes for arrays in (ckpt.params, ckpt.adam.m, ckpt.adam.v)
                          for a in arrays.values())
        before_step = []
        inner = Adam.__dict__["step"]

        def step(self, params, lr):
            grads = sum(p.grad.nbytes for p in params.values() if p.grad is not None)
            before_step.append(tracemalloc.get_traced_memory()[1] - grads)
            inner(self, params, lr)

        monkeypatch.setattr(Adam, "step", step)
        cfg = dataclasses.replace(MID_CFG, n_iter=MID_CFG.n_iter + 1)
        tracemalloc.start()
        try:
            state, losses = train([sample], cfg, resume=ckpt)
        finally:
            tracemalloc.stop()
        growth = before_step[0]
        assert growth < 0.1 * state_bytes, f"resume +{growth / state_bytes:.2f}x the state bytes"
        assert state is ckpt and len(losses) == 1
        assert ckpt.iteration == ckpt.adam.step_count == cfg.n_iter


class TestFeatureStats:
    def test_quantization_ranges_are_percentiles(self, corpus):
        stats = compute_feature_stats(corpus)
        voiced = np.log(np.concatenate([s.f0[s.f0 > 0] for s in corpus]))
        lo, hi = np.percentile(voiced, [0.1, 99.9])
        assert stats.f0_lo == pytest.approx(lo)
        assert stats.f0_hi == pytest.approx(hi)
        assert stats.mel_lo == min(s.log_mel.min() for s in corpus)
        assert stats.mel_hi == max(s.log_mel.max() for s in corpus)

    def test_constant_mel_corpus_rejected(self):
        flat = dataclasses.replace(make_sample(), log_mel=np.full((32, 8), -3.0))
        with pytest.raises(DataError, match=r"degenerate mel statistics: min -3.0 >= max -3.0"):
            compute_feature_stats([flat])

    def test_unvoiced_corpus_falls_back_to_config_range(self):
        # the F0 search range, constants of `features`
        sample = make_sample()
        silent = TrainingSample(
            name=sample.name,
            ppg=sample.ppg,
            f0=np.zeros(sample.log_mel.shape[0]),
            loudness=sample.loudness,
            log_mel=sample.log_mel,
        )
        stats = compute_feature_stats([silent])
        assert stats.f0_lo == pytest.approx(math.log(F0_MIN))
        assert stats.f0_hi == pytest.approx(math.log(F0_MAX))

    def test_unvoiced_frames_land_in_bin_0(self):
        # log-F0 is taken as 0 where hz is 0, below any voiced range
        stats = FeatureStats(mel_lo=0.0, mel_hi=1.0, f0_lo=math.log(100.0), f0_hi=math.log(400.0),
                             loud_lo=-1.0, loud_hi=1.0)
        hz = np.array([0.0, 150.0, 0.0, 300.0, 1000.0, 0.0])
        f0_bins, loud_bins = conditioner_bins(stats, hz, np.array([-2.0, -0.6, -0.1, 0.2, 0.7, 3.0]), 4)
        np.testing.assert_array_equal(f0_bins, [0, 1, 0, 3, 3, 0])
        np.testing.assert_array_equal(loud_bins, [0, 0, 1, 2, 3, 3])
