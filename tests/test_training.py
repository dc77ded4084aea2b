import dataclasses
import math

import numpy as np
import pytest

from singvc.config import RunConfig
from singvc.denoiser import Denoiser
from singvc.diffusion import diffusion_loss, gaussian
from singvc.errors import ConfigError, DataError, DivergenceError, FormatError
from singvc.features import F0Contour
from singvc.rng import RandomStream
from singvc.schedule import linear_schedule
from singvc.tensor import Tensor
from singvc.training import (
    Adam,
    TrainingSample,
    compute_feature_stats,
    load_checkpoint,
    save_checkpoint,
    stratified_step,
    train,
)

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
        f0=F0Contour(hz=hz),
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

    def test_max_norm_clipping(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        p.grad = np.array([3.0, 4.0])  # norm 5
        opt = Adam()
        opt.step({"p": p}, lr=1.0, grad_clip=1.0)
        np.testing.assert_allclose(opt.m["p"], 0.1 * np.array([0.6, 0.8]))


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
        sched = linear_schedule(cfg.diffusion_steps, cfg.beta_start, cfg.beta_end)
        rng = RandomStream(123)
        losses = []
        for _ in range(100):
            y0 = Tensor(rng.normal((16, cfg.n_mels)))
            eps = gaussian((16, cfg.n_mels), rng)
            t = int(rng.integers(1, cfg.diffusion_steps + 1, 1)[0])
            cond = model.build_conditioner(
                rng.normal((16, cfg.ppg_dim)),
                rng.integers(0, cfg.n_bins, 16),
                rng.integers(0, cfg.n_bins, 16),
            )
            losses.append(float(diffusion_loss(sched, model, y0, cond, t, eps).data))
        assert abs(np.mean(losses) - 1.0) < 0.1


class TestTrainLoop:
    def test_determinism(self, corpus):
        _, losses_a = train(corpus, TOY_CFG)
        _, losses_b = train(corpus, TOY_CFG)
        assert losses_a == losses_b

    def test_loss_is_logged(self, corpus, tmp_path):
        log = tmp_path / "loss.csv"
        train(corpus, TOY_CFG, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,loss,wall_ms"
        assert len(lines) == 1 + TOY_CFG.n_iter

    def test_frame_misaligned_corpus_rejected(self):
        bad = TrainingSample(
            name="bad",
            ppg=np.zeros((5, 12)),
            f0=F0Contour(hz=np.zeros(6)),
            loudness=np.zeros(5),
            log_mel=np.zeros((5, 8)),
        )
        with pytest.raises(DataError, match="bad"):
            train([bad], TOY_CFG)

    @pytest.mark.parametrize("kind", ["ppg", "f0", "loudness", "mel"])
    def test_non_finite_feature_rejected(self, kind):
        s = make_sample()
        ppg, hz, loud, mel = s.ppg.copy(), s.f0.hz.copy(), s.loudness.copy(), s.log_mel.copy()
        {"ppg": ppg, "f0": hz, "loudness": loud, "mel": mel}[kind][5] = np.nan
        bad = TrainingSample(s.name, ppg, F0Contour(hz=hz), loud, mel)
        with pytest.raises(DataError, match=rf"utt0.*non-finite {kind} value at frame 5"):
            train([bad], TOY_CFG)

    def test_wrong_ppg_dim_rejected(self):
        sample = make_sample(ppg_dim=7)
        with pytest.raises(DataError, match="ppg dim"):
            train([sample], TOY_CFG)

    def test_nan_loss_aborts_with_diagnostic(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        ckpt.params["out_conv2.b"][:] = np.nan
        path = tmp_path / "poison.ckpt"
        save_checkpoint(path, ckpt)
        cfg = RunConfig(**{**TOY_CFG.__dict__, "n_iter": TOY_CFG.n_iter + 1})
        with pytest.raises(DivergenceError, match=r"iteration 13"):
            train(corpus, cfg, resume=load_checkpoint(path))


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
        loaded = load_checkpoint(path)
        for name in ("beta", "alpha", "alpha_bar", "sigma"):
            np.testing.assert_array_equal(getattr(loaded.schedule, name), getattr(ckpt.schedule, name))

    def test_resume_reproduces_uninterrupted_losses(self, corpus, tmp_path):
        full_cfg = RunConfig(**{**TOY_CFG.__dict__, "n_iter": 22})
        _, full_losses = train(corpus, full_cfg)

        ckpt, head_losses = train(corpus, TOY_CFG)  # 12 iterations
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, ckpt)
        _, tail_losses = train(corpus, full_cfg, resume=load_checkpoint(path))
        assert head_losses + tail_losses == full_losses

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
        # parameters are written in name order and "zzz" cannot be converted
        # to float64, so the write fails after the other parameters went out
        broken = dataclasses.replace(ckpt, params={**ckpt.params, "zzz": np.array(["x"])})
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.ckpt"]

    def test_truncated_file_rejected(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_old_version_rejected(self, corpus, tmp_path):
        ckpt, _ = train(corpus, TOY_CFG)
        path = tmp_path / "v1.ckpt"
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        data[4] = 1  # the u8 version after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 1"):
            load_checkpoint(path)

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


class TestFeatureStats:
    def test_quantization_ranges_are_percentiles(self, corpus):
        stats = compute_feature_stats(corpus, TOY_CFG)
        voiced = np.concatenate([s.f0.log_f0[s.f0.voiced] for s in corpus])
        lo, hi = np.percentile(voiced, [0.1, 99.9])
        assert stats.f0_lo == pytest.approx(lo)
        assert stats.f0_hi == pytest.approx(hi)
        assert stats.mel.lo == min(s.log_mel.min() for s in corpus)

    def test_unvoiced_corpus_falls_back_to_config_range(self):
        sample = make_sample()
        silent = TrainingSample(
            name=sample.name,
            ppg=sample.ppg,
            f0=F0Contour(hz=np.zeros(sample.frames)),
            loudness=sample.loudness,
            log_mel=sample.log_mel,
        )
        stats = compute_feature_stats([silent], TOY_CFG)
        assert stats.f0_lo == pytest.approx(math.log(TOY_CFG.f0_min))
        assert stats.f0_hi == pytest.approx(math.log(TOY_CFG.f0_max))
