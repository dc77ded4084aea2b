"""The four workloads: seeded input synthesis, set-up, one measured
repetition each, and the output checks that count as failures.

Every input is a pure function of the workload seed.  Sizes (utterance
lengths, clip length, iteration counts) do not depend on the seed, so the
exact counts of a traced run repeat across seeds; the seed only moves note
pitches, timing, timbre and noise.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import shutil
import struct
import time
import wave
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from singvc import cli, training
from singvc.config import RunConfig, serialize_config

SR = 24000
HOP = 240
TEMPO = 1.05  # the hypothesis rendering of the corpus is 5% slower

# criterion-5 toy widths
TOY_CFG = RunConfig(n_mels=16, ppg_dim=16, diffusion_steps=50, layers=4, channels=32,
                    cond_dim=64, n_bins=64, lr=4e-3, batch=4, segment_frames=64, log_every=1)
# the published RunConfig defaults (80 mels, 218-dim PPG, T = 100, 20 x 256, batch 16 x 128)
FULL_CFG = RunConfig(log_every=1)
# the checkpoint convert_full loads: published model, one cheap ADAM step so
# the file carries moments and a non-zero final conv
CKPT_CFG = dataclasses.replace(FULL_CFG, batch=1, segment_frames=16, n_iter=1)


# ---------------------------------------------------------------------------
# input synthesis


def note_plan(rng: np.random.Generator, n_notes: int) -> list[tuple]:
    """Seeded notes of one utterance: (onset, offset) as fractions of its
    length, pitch, harmonic amplitudes, vibrato rate and depth, level.

    Each note sits in its own slot and leaves part of it silent, so every
    utterance has voiced and unvoiced stretches."""
    plan = []
    for k in range(n_notes):
        fill = rng.uniform(0.6, 0.85)
        lead = rng.uniform(0.05, 0.95 - fill)
        onset = (k + lead) / n_notes
        plan.append((
            onset,
            onset + fill / n_notes,
            float(np.exp(rng.uniform(np.log(110.0), np.log(440.0)))),
            rng.uniform(0.5, 1.0, 6) / np.arange(1, 7),
            rng.uniform(4.5, 6.0),
            rng.uniform(20.0, 50.0),
            rng.uniform(0.15, 0.3),
        ))
    return plan


def render(plan: list[tuple], seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Harmonic vibrato tones with 20 ms ramps over a -60 dB noise floor."""
    n = int(round(seconds * SR))
    out = 0.001 * rng.standard_normal(n)
    for onset, offset, f0, amps, vib_hz, vib_cents, level in plan:
        a, b = int(onset * n), int(offset * n)
        tt = np.arange(b - a) / SR
        inst = f0 * 2.0 ** (vib_cents / 1200.0 * np.sin(2 * np.pi * vib_hz * tt))
        phase = 2 * np.pi * np.cumsum(inst) / SR
        env = level * np.minimum(1.0, np.minimum(tt, tt[-1] - tt) / 0.02)
        out[a:b] += env * sum(amp * np.sin((h + 1) * phase) for h, amp in enumerate(amps))
    return out


def write_pcm16(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SR)
        f.writeframes(pcm.tobytes())


def synth_corpus(folder: Path, seed: int, n_utts: int, seconds: float, tempo: float | None = None) -> list[Path]:
    """Writes n_utts seeded WAVs; with `tempo`, a second rendering of the
    same notes, `tempo` times longer, goes to folder/tempo/."""
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_utts):
        rng = np.random.default_rng([seed, i])
        plan = note_plan(rng, n_notes=4)
        path = folder / f"utt{i}.wav"
        write_pcm16(path, render(plan, seconds, rng))
        paths.append(path)
        if tempo is not None:
            (folder / "tempo").mkdir(exist_ok=True)
            write_pcm16(folder / "tempo" / path.name, render(plan, seconds * tempo, rng))
    return paths


# ---------------------------------------------------------------------------
# readers the checks use; independent of the code under test


def read_feat1(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:5] != b"FEAT1":
        raise ValueError(f"{path}: not a FEAT1 file")
    (rank,) = struct.unpack_from("<I", raw, 6)
    dims = struct.unpack_from(f"<{rank}I", raw, 10)
    return np.frombuffer(raw, dtype="<f4", offset=10 + 4 * rank).reshape(dims)


def wav_samples(path: Path) -> int:
    with wave.open(str(path), "rb") as f:
        return f.getnframes()


def frames_of(samples: int) -> int:
    return -(-samples // HOP)


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Rep:
    """What one measured repetition did and how its outputs checked out."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples_ms: list[float] = field(default_factory=list)  # op_ms_p50 samples
    digest: str = ""
    extra: dict = field(default_factory=dict)

    def op(self, problems: list[str]) -> None:
        """Counts one operation; it failed if any of its checks found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def _extract(wav: Path, out: Path, cfg: Path, ppg_seed: int) -> int:
    return cli.main(["extract", "--wav", str(wav), "--out", str(out), "--config", str(cfg),
                     "--synth-ppg", str(ppg_seed)])


def _run(name: str, fn, *args) -> tuple[object, list[str]]:
    """Calls fn; an exception or a non-zero exit code is a problem."""
    try:
        result = fn(*args)
    except Exception as exc:  # any exception fails the operation, the run goes on
        return None, [f"{name} raised {exc!r}"]
    if isinstance(result, int) and result != 0:
        return None, [f"{name} exited {result}"]
    return result, []


def _check_mel(path: Path, frames: int, n_mels: int, problems: list[str]) -> np.ndarray | None:
    try:
        mel = read_feat1(path)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None
    if mel.shape != (frames, n_mels):
        problems.append(f"{path.name}: shape {mel.shape} != {(frames, n_mels)}")
    if not np.all(np.isfinite(mel)):
        problems.append(f"{path.name}: non-finite values")
    return mel


@contextmanager
def step_clock():
    """Times training iterations from outside `train`: yields a list that
    gets the perf_counter at each return of `Adam.step`, so the difference
    of two stamps is one whole iteration, whatever `train` times itself."""
    stamps: list[float] = []
    inner = training.Adam.__dict__["step"]

    def step(self, *args, **kwargs):
        inner(self, *args, **kwargs)
        stamps.append(time.perf_counter())

    training.Adam.step = step
    try:
        yield stamps
    finally:
        training.Adam.step = inner


class TrainWorkload:
    """`training.train` from a fresh seeded init on an extracted corpus."""

    def __init__(self, name: str, cfg: RunConfig, iters: int, n_utts: int = 3, seconds: float = 1.5):
        self.name, self.cfg, self.iters = name, cfg, iters
        self.n_utts, self.seconds = n_utts, seconds

    def setup(self, work: Path, seed: int) -> None:
        cfg_path = work / "run.cfg"
        cfg_path.write_text(serialize_config(self.cfg))
        for i, wav in enumerate(synth_corpus(work / "wav", seed, self.n_utts, self.seconds)):
            if _extract(wav, work / "feats", cfg_path, seed * 100 + i) != 0:
                raise RuntimeError(f"extract failed on {wav.name}")

    def rep(self, work: Path, seed: int, rep: Rep) -> None:
        data = cli.load_corpus(work / "feats")
        cfg = dataclasses.replace(self.cfg, seed=seed, n_iter=self.iters)
        log, ckpt = work / "loss.csv", work / "model.ckpt"
        with step_clock() as stamps:
            result, problems = _run("train", training.train, data, cfg, None, log, ckpt)
        if result is None:
            rep.op(problems)
            return
        losses = result[1]
        with open(log, newline="") as f:
            walls = [float(row["wall_ms"]) for row in csv.DictReader(f)]
        if not len(losses) == len(walls) == len(stamps) == self.iters:
            problems.append(f"{len(losses)} losses, {len(walls)} log rows, {len(stamps)} ADAM steps, "
                            f"{self.iters} iterations")
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite loss")
        if not (ckpt.is_file() and ckpt.stat().st_size > 0):
            problems.append("no checkpoint written")
        rep.op(problems)
        # one sample per iteration after the first, which is warm-up
        rep.samples_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        rep.digest = hashlib.sha256(repr(losses).encode()).hexdigest()
        rep.extra["loss_mean"] = float(np.mean(losses))
        rep.extra["log_ms"] = walls[1:]  # train's own timing, kept as a cross-check


class ConvertWorkload:
    """`singvc convert --denorm --wav` on a published-size checkpoint."""

    name = "convert_full"
    clip_seconds = 1.0

    def setup(self, work: Path, seed: int) -> None:
        cfg_path = work / "run.cfg"
        cfg_path.write_text(serialize_config(FULL_CFG))
        (wav,) = synth_corpus(work / "wav", seed, 1, self.clip_seconds)
        if _extract(wav, work / "feats", cfg_path, seed) != 0:
            raise RuntimeError("extract failed on the clip")
        cfg = dataclasses.replace(CKPT_CFG, seed=seed)
        ckpt, _ = training.train(cli.load_corpus(work / "feats"), cfg, ckpt_path=work / "model.ckpt")
        if not np.any(ckpt.params["out_conv2.w"]):
            raise RuntimeError("checkpoint final conv is still zero")

    def rep(self, work: Path, seed: int, rep: Rep) -> None:
        feats, out_mel, out_wav = work / "feats", work / "out.mel.feat", work / "out.wav"
        for p in (out_mel, out_wav):
            p.unlink(missing_ok=True)
        argv = ["convert", "--ckpt", str(work / "model.ckpt"),
                "--ppg", str(feats / "utt0.ppg.feat"), "--f0", str(feats / "utt0.f0.feat"),
                "--loud", str(feats / "utt0.loud.feat"), "--out", str(out_mel),
                "--seed", str(seed), "--denorm", "--wav", str(out_wav)]
        tic = time.perf_counter()
        code, problems = _run("convert", cli.main, argv)
        wall_ms = (time.perf_counter() - tic) * 1e3
        if code is None:
            rep.op(problems)
            return
        frames = frames_of(round(self.clip_seconds * SR))
        mel = _check_mel(out_mel, frames, FULL_CFG.n_mels, problems)
        if not (out_wav.is_file() and wav_samples(out_wav) == frames * HOP):
            problems.append(f"converted WAV is not {frames} x {HOP} samples")
        rep.op(problems)
        rep.samples_ms.append(wall_ms)
        rep.digest = hashlib.sha256(mel.tobytes()).hexdigest() if mel is not None else ""
        rep.extra["audio_s"] = self.clip_seconds


class CorpusWorkload:
    """`singvc extract` on every WAV of two renderings, then `singvc eval`."""

    name = "corpus"
    n_utts = 4
    seconds = 3.0

    def setup(self, work: Path, seed: int) -> None:
        (work / "run.cfg").write_text(serialize_config(FULL_CFG))
        synth_corpus(work / "wav", seed, self.n_utts, self.seconds, tempo=TEMPO)

    def rep(self, work: Path, seed: int, rep: Rep) -> None:
        cfg = work / "run.cfg"
        sides = {"ref": work / "wav", "hyp": work / "wav" / "tempo"}
        digest = hashlib.sha256()
        extract_ms = 0.0
        audio_s = 0.0
        tic = time.perf_counter()
        for side, folder in sides.items():
            out = work / f"{side}_feats"
            for i, wav in enumerate(sorted(folder.glob("*.wav"))):
                t0 = time.perf_counter()
                code, problems = _run(f"extract {side}/{wav.name}", _extract, wav, out, cfg, seed * 100 + i)
                extract_ms += (time.perf_counter() - t0) * 1e3
                samples = wav_samples(wav)
                audio_s += samples / SR
                if code is not None:
                    mel = _check_mel(out / f"{wav.stem}.mel.feat", frames_of(samples), FULL_CFG.n_mels, problems)
                    if mel is not None:
                        digest.update(mel.tobytes())
                rep.op(problems)
        report = work / "report.csv"
        report.unlink(missing_ok=True)
        argv = ["eval", "--ref", str(work / "ref_feats"), "--hyp", str(work / "hyp_feats"), "--out", str(report)]
        t0 = time.perf_counter()
        code, problems = _run("eval", cli.main, argv)
        eval_ms = (time.perf_counter() - t0) * 1e3
        round_ms = (time.perf_counter() - tic) * 1e3
        if code is None:
            rep.op(problems)
            return
        text = report.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.n_utts:
            problems.append(f"eval wrote {len(rows)} rows for {self.n_utts} pairs")
        for row in rows:
            mcd, fpc = float(row["mcd_db"]), float(row["fpc"] or "nan")
            if not (math.isfinite(mcd) and mcd >= 0.0):
                problems.append(f"{row['utterance_id']}: mcd_db {mcd}")
            if not -1.0 <= fpc <= 1.0:
                problems.append(f"{row['utterance_id']}: fpc {fpc}")
        rep.op(problems)
        rep.samples_ms.append(round_ms)
        digest.update(text.encode())
        rep.digest = digest.hexdigest()
        rep.extra.update(audio_s=audio_s, extract_ms=extract_ms, eval_ms=eval_ms, pairs=len(rows))


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train_toy", TOY_CFG, iters=60),
        TrainWorkload("train_full", FULL_CFG, iters=3),
        ConvertWorkload(),
        CorpusWorkload(),
    )
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
