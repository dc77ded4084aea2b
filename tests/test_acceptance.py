"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The overfit criterion trains for a few minutes; everything else is seconds.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from singvc import featio, gradcheck
from singvc.cli import main as cli_main
from singvc.config import RunConfig, serialize_config
from singvc.denoiser import Denoiser
from singvc.diffusion import forward_sample, gaussian, reverse_step, sample
from singvc.features import (
    F0Contour,
    compute_log_mel,
    compute_loudness,
    estimate_f0,
    median_f0,
    synth_ppg,
    write_wav,
)
from singvc.metrics import CepstrumSequence, dtw, fpc, mcd
from singvc.rng import RandomStream
from singvc.schedule import linear_schedule, step_stats
from singvc.tensor import Tensor, zeros
from singvc.training import (
    TrainingSample,
    compute_feature_stats,
    conditioner_bins,
    load_checkpoint,
    train,
)

from test_metrics import enumerate_min_cost


def report(n: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {n}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def harmonic_voice(freq=220.0, seconds=0.64, sr=24000, seed=0):
    """Vibrato tone with six harmonics and a slow amplitude envelope."""
    n = int(seconds * sr)
    t = np.arange(n) / sr
    depth = 2.0 ** (40.0 / 1200.0) - 1.0
    inst = freq * (1.0 + depth * np.sin(2 * np.pi * 5.0 * t))
    phase = 2 * np.pi * np.cumsum(inst) / sr
    wav = sum(np.sin(k * phase) / k for k in range(1, 7))
    envelope = 0.25 + 0.15 * np.sin(2 * np.pi * 1.7 * t + seed)
    rng = np.random.default_rng(seed)
    return envelope * wav / 2.5 + 0.001 * rng.standard_normal(n)


OVERFIT_CFG = RunConfig(
    n_mels=16,
    ppg_dim=16,
    diffusion_steps=50,
    layers=4,
    channels=32,
    cond_dim=64,
    n_bins=64,
    n_iter=5000,
    lr=4e-3,
    seed=0,
    batch=4,
    segment_frames=64,
    log_every=500,
)

PIPELINE_CFG = dataclasses.replace(
    OVERFIT_CFG, diffusion_steps=10, n_iter=60, lr=1e-3, segment_frames=32, log_every=10
)


def _overfit_sample() -> TrainingSample:
    wav = harmonic_voice()
    return TrainingSample(
        name="one",
        ppg=synth_ppg(64, OVERFIT_CFG.ppg_dim, 0),
        f0=estimate_f0(wav, 24000, 240, 40.0, 800.0),
        loudness=compute_loudness(wav, 24000),
        log_mel=compute_log_mel(wav, OVERFIT_CFG.mel_config()),
    )


@pytest.fixture(scope="module")
def overfit_run():
    data = _overfit_sample()
    start = time.perf_counter()
    ckpt, losses = train([data], OVERFIT_CFG)
    elapsed = time.perf_counter() - start
    return {"data": data, "ckpt": ckpt, "losses": np.array(losses), "seconds": elapsed}


@pytest.fixture(scope="module")
def pipeline_corpus(tmp_path_factory):
    """4 synthetic utterances extracted through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(serialize_config(PIPELINE_CFG))
    feats = root / "feats"
    for i, freq in enumerate((196.0, 220.0, 262.0, 330.0)):
        wav_path = root / f"utt{i}.wav"
        write_wav(wav_path, harmonic_voice(freq, seconds=1.0, seed=i), 24000)
        code = cli_main(["extract", "--wav", str(wav_path), "--out", str(feats),
                         "--config", str(cfg_path), "--synth-ppg", str(i)])
        assert code == 0
    return {"root": root, "cfg": cfg_path, "feats": feats}


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = gradcheck.run_checks(seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.ok for r in results) and elapsed < 60.0
    report(1, "gradient suite vs central finite differences, rel err < 1e-4",
           ok, f"{len(results)} checks, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_schedule_correctness():
    s = linear_schedule(100, 1e-4, 0.06)
    prod = 1.0
    max_err = 0.0
    for t in range(100):
        prod *= 1.0 - (1e-4 + t * (0.06 - 1e-4) / 99)
        max_err = max(max_err, abs(prod - s.alpha_bar[t]))
    ok = (
        max_err <= 1e-12
        and s.sigma[0] == 0.0
        and np.all(np.diff(s.beta) > 0)
        and np.all(np.diff(s.alpha_bar) < 0)
        and np.all((s.alpha_bar > 0) & (s.alpha_bar < 1))
    )
    report(2, "schedule tables vs brute-force product, sigma_1 = 0, monotone",
           ok, f"max |alpha_bar err| = {max_err:.2e}")


@pytest.mark.parametrize("t", [1, 50, 100])
def test_criterion_3_forward_statistics(t):
    s = linear_schedule(100, 1e-4, 0.06)
    n = 10_000
    y0_value = 0.7
    rng = RandomStream(300 + t)
    sqrt_ab, sqrt_1mab, _ = step_stats(s, t)
    draws = np.array(
        [forward_sample(s, Tensor([[y0_value]]), t, gaussian((1, 1), rng)).data[0, 0] for _ in range(n)]
    )
    true_var = sqrt_1mab**2
    mean_err = abs(draws.mean() - sqrt_ab * y0_value)
    var_err = abs(draws.var(ddof=1) - true_var)
    mean_bound = 3 * math.sqrt(true_var / n) + 1e-12
    var_bound = 3 * true_var * math.sqrt(2.0 / (n - 1)) + 1e-12
    ok = mean_err < mean_bound and var_err < var_bound
    report(3, f"forward-process Monte Carlo statistics at t={t}",
           ok, f"mean err {mean_err:.2e} < {mean_bound:.2e}, var err {var_err:.2e} < {var_bound:.2e}")


def test_criterion_4_perfect_predictor_consistency():
    s = linear_schedule(100, 1e-4, 0.06)
    rng = RandomStream(44)
    y0 = Tensor(rng.normal((8, 16)))
    eps = Tensor(rng.normal((8, 16)))

    class Perfect:
        def __call__(self, y_t, t, cond):
            return Tensor(eps.data.copy())

    y1 = forward_sample(s, y0, 1, eps)
    rec = reverse_step(s, Perfect(), y1, 1, None, zeros((8, 16)))
    err = float(np.abs(rec.data - y0.data).max())
    report(4, "perfect predictor reconstructs y0 from t=1", err < 1e-9, f"max err {err:.2e}")


def test_criterion_5_overfit_reconstruction(overfit_run):
    losses = overfit_run["losses"]
    running = float(losses[-500:].mean())
    ckpt, data = overfit_run["ckpt"], overfit_run["data"]

    model = ckpt.build_model()
    f0_bins, loud_bins = conditioner_bins(ckpt.stats, data.f0, data.loudness, OVERFIT_CFG.n_bins)
    cond = model.build_conditioner(data.ppg, f0_bins, loud_bins)
    out = sample(ckpt.schedule, model, cond, 64, OVERFIT_CFG.n_mels,
                 RandomStream(7).split("sample")).data
    target = ckpt.stats.mel.normalize(data.log_mel)
    pearson = np.array(
        [np.corrcoef(out[:, b], target[:, b])[0, 1] for b in range(OVERFIT_CFG.n_mels)]
    )

    # trainer invariant: 500-iteration moving average non-increasing
    kernel = np.ones(500) / 500
    ma = np.convolve(losses, kernel, mode="valid")
    max_ma_rise = float(np.diff(ma).max())

    ok = (
        running < 0.05
        and pearson.mean() >= 0.8
        and overfit_run["seconds"] < 900.0
        and max_ma_rise < 5e-3
    )
    report(
        5,
        "toy overfit: running-mean loss < 0.05 and per-bin Pearson >= 0.8",
        ok,
        f"loss {running:.4f}, pearson mean {pearson.mean():.3f} min {pearson.min():.3f}, "
        f"{overfit_run['seconds']:.0f}s, max MA rise {max_ma_rise:.2e}",
    )


def test_criterion_6_metrics_oracles():
    rng = RandomStream(66)
    worst_dtw = 0.0
    for ni in range(1, 10):
        for nj in range(1, 11 - ni):
            for _ in range(5):
                a = rng.integers(0, 4, ni).astype(np.float64)
                b = rng.integers(0, 4, nj).astype(np.float64)
                _, cost = dtw(a, b)
                worst_dtw = max(worst_dtw, abs(cost - enumerate_min_cost(a, b)))

    base = rng.normal((5, 13))
    delta = 0.3
    shifted = base.copy()
    shifted[:, 1:] += delta
    expected = (10.0 / math.log(10.0)) * math.sqrt(24.0) * delta
    mcd_err = abs(mcd(CepstrumSequence(values=base), CepstrumSequence(values=shifted)) - expected)

    ref = np.linspace(100.0, 400.0, 40)
    hyp = ref + rng.normal(40) * 7.0
    direct = float(np.corrcoef(ref, hyp)[0, 1])
    fpc_err = abs(fpc(F0Contour(hz=ref), F0Contour(hz=hyp)) - direct)

    ok = worst_dtw < 1e-12 and mcd_err < 1e-9 and fpc_err < 1e-12
    report(6, "metrics: DTW vs enumeration, MCD closed form, FPC direct formula",
           ok, f"dtw err {worst_dtw:.1e}, mcd err {mcd_err:.1e}, fpc err {fpc_err:.1e}")


def test_criterion_7_f0_ensemble():
    rng = RandomStream(77)
    contours = [F0Contour(hz=np.abs(rng.normal(40)) * 80 + 100 * (rng.uniform(40) > 0.2)) for _ in range(5)]
    base = median_f0(contours).hz
    permutation_ok = True
    for _ in range(10):
        order = list(np.argsort(rng.uniform(5)))  # a random permutation
        permuted = median_f0([contours[i] for i in order]).hz
        permutation_ok = permutation_ok and np.array_equal(permuted, base)

    max_dev = 0.0
    for freq in (110.0, 220.0, 440.0):
        t = np.arange(24000) / 24000
        tone = 0.4 * np.sin(2 * np.pi * freq * t)
        contour = estimate_f0(tone, 24000, 240, 40.0, 800.0)
        voiced = contour.hz[contour.voiced]
        max_dev = max(max_dev, abs(float(np.median(voiced)) - freq))

    ok = permutation_ok and max_dev < 3.0
    report(7, "median F0 permutation-invariant; estimator within 3 Hz on sines",
           ok, f"max deviation {max_dev:.2f} Hz")


def test_criterion_8_determinism(pipeline_corpus, tmp_path):
    root, cfg, feats = pipeline_corpus["root"], pipeline_corpus["cfg"], pipeline_corpus["feats"]

    # extract twice -> byte identical
    again = tmp_path / "re-extract"
    assert cli_main(["extract", "--wav", str(root / "utt0.wav"), "--out", str(again),
                     "--config", str(cfg), "--synth-ppg", "0"]) == 0
    extract_ok = all(
        (again / f"utt0.{kind}.feat").read_bytes() == (feats / f"utt0.{kind}.feat").read_bytes()
        for kind in ("mel", "f0", "loud", "ppg")
    )

    # train twice -> byte-identical checkpoints
    ckpts = []
    for name in ("t1.ckpt", "t2.ckpt"):
        path = tmp_path / name
        assert cli_main(["train", "--data", str(feats), "--config", str(cfg),
                         "--out", str(path), "--seed", "21"]) == 0
        ckpts.append(path.read_bytes())
    train_ok = ckpts[0] == ckpts[1]

    # convert twice -> byte identical
    ckpt_path = tmp_path / "t1.ckpt"
    mels = []
    for name in ("c1.feat", "c2.feat"):
        out = tmp_path / name
        assert cli_main(["convert", "--ckpt", str(ckpt_path), "--ppg", str(feats / "utt0.ppg.feat"),
                         "--f0", str(feats / "utt0.f0.feat"), "--loud", str(feats / "utt0.loud.feat"),
                         "--out", str(out), "--seed", "5"]) == 0
        mels.append(out.read_bytes())
    convert_ok = mels[0] == mels[1]

    # resume reproduces the uninterrupted loss sequence
    from singvc.cli import load_corpus

    data = load_corpus(feats)
    full_cfg = dataclasses.replace(PIPELINE_CFG, n_iter=40, seed=21)
    head_cfg = dataclasses.replace(full_cfg, n_iter=20)
    _, full_losses = train(data, full_cfg)
    head_ckpt, head_losses = train(data, head_cfg)
    resume_path = tmp_path / "resume.ckpt"
    from singvc.training import save_checkpoint

    save_checkpoint(resume_path, head_ckpt)
    _, tail_losses = train(data, full_cfg, resume=load_checkpoint(resume_path))
    resume_ok = head_losses + tail_losses == full_losses

    ok = extract_ok and train_ok and convert_ok and resume_ok
    report(8, "extract/train/convert bit-identical under fixed seeds; resume exact",
           ok, f"extract {extract_ok}, train {train_ok}, convert {convert_ok}, resume {resume_ok}")


def test_criterion_9_pipeline_smoke(pipeline_corpus, tmp_path, capsys):
    root, cfg, feats = pipeline_corpus["root"], pipeline_corpus["cfg"], pipeline_corpus["feats"]

    ckpt = tmp_path / "model.ckpt"
    assert cli_main(["train", "--data", str(feats), "--config", str(cfg),
                     "--out", str(ckpt), "--log", str(tmp_path / "loss.csv")]) == 0

    converted = tmp_path / "converted"
    converted.mkdir()
    for i in range(4):
        assert cli_main(["convert", "--ckpt", str(ckpt),
                         "--ppg", str(feats / f"utt{i}.ppg.feat"),
                         "--f0", str(feats / f"utt{i}.f0.feat"),
                         "--loud", str(feats / f"utt{i}.loud.feat"),
                         "--out", str(converted / f"utt{i}.mel.feat"), "--seed", str(i)]) == 0
        assert featio.read_feat(converted / f"utt{i}.mel.feat").shape[1] == PIPELINE_CFG.n_mels

    # self-eval: target vs target
    report_path = tmp_path / "self_eval.csv"
    assert cli_main(["eval", "--ref", str(feats), "--hyp", str(feats),
                     "--out", str(report_path)]) == 0
    rows = report_path.read_text().splitlines()[1:]
    mcds = [float(r.split(",")[1]) for r in rows]
    fpcs = [float(r.split(",")[2]) for r in rows]
    ok = len(rows) == 4 and all(v == 0.0 for v in mcds) and all(v == 1.0 for v in fpcs)
    report(9, "extract -> train -> convert -> eval completes; self-eval MCD = 0",
           ok, f"{len(rows)} utterances, MCD {mcds}, FPC {fpcs}")
