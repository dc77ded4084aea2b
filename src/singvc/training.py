"""Training loop, ADAM optimizer, corpus statistics and checkpointing.

Each iteration samples `batch` utterance segments, one diffusion step t and
one fresh noise draw per segment, averages the per-segment losses, and takes
one ADAM step.  The batch's steps are stratified (see `stratified_step`):
over the batch they are exactly uniform on 1..T, so the expected loss is the
uniform-t one, but every batch spans the range of t instead of sometimes
drawing no small t, whose loss is an order of magnitude above the large-t
one.  All randomness flows from the run seed through named streams, so runs
and checkpoint resumes are exactly reproducible.

Checkpoint container: magic "DSVC", u8 version, u32-length-prefixed UTF-8
config block (key=value lines, run config plus training-state keys), the four
schedule tables, then named tensor records {u16 name length, name UTF-8,
u32 rank, u32 x rank dims, float64 LE data}.  Payloads are 64-bit so that a
reloaded state continues training bit-exactly.  Saves are atomic: the file is
written under a temporary name in the same directory and renamed over the
target, so an interrupted save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import RunConfig, parse_config_text, serialize_config
from .denoiser import Denoiser
from .diffusion import diffusion_loss, gaussian
from .errors import ConfigError, DataError, DivergenceError, FormatError
from .features import F0Contour, MelStats, quantize
from .rng import RandomStream
from .schedule import NoiseSchedule, linear_schedule
from .tensor import Tensor

CKPT_MAGIC = b"DSVC"
# 2: step-path FC weights are stored at unit scale (see denoiser); a version-1
# file holds fan-in-scaled ones and would silently shrink the step vectors
CKPT_VERSION = 2

_STATE_KEYS = (
    "iteration",
    "adam_step",
    "rng_seed",
    "rng_counter",
    "mel_lo",
    "mel_hi",
    "f0_lo",
    "f0_hi",
    "loud_lo",
    "loud_hi",
)


@dataclass(frozen=True)
class TrainingSample:
    """One frame-aligned utterance: PPG, F0, loudness, raw log-mel."""

    name: str
    ppg: np.ndarray
    f0: F0Contour
    loudness: np.ndarray
    log_mel: np.ndarray

    @property
    def frames(self) -> int:
        return self.log_mel.shape[0]

    def validate(self) -> None:
        frames = {
            "ppg": self.ppg.shape[0],
            "f0": len(self.f0),
            "loudness": len(self.loudness),
            "mel": self.log_mel.shape[0],
        }
        if len(set(frames.values())) != 1:
            raise DataError(f"utterance {self.name!r}: frame counts differ: {frames}")
        for kind, values in (("ppg", self.ppg), ("f0", self.f0.hz),
                             ("loudness", self.loudness), ("mel", self.log_mel)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise DataError(f"utterance {self.name!r}: non-finite {kind} value at frame {int(bad[0][0])}")


@dataclass(frozen=True)
class FeatureStats:
    """Normalization/quantization ranges fixed over the training corpus."""

    mel: MelStats
    f0_lo: float
    f0_hi: float
    loud_lo: float
    loud_hi: float


def compute_feature_stats(data: list[TrainingSample], cfg: RunConfig) -> FeatureStats:
    """Mel min/max plus 0.1/99.9 percentile quantization ranges.

    Falls back to the configured F0 search range if the corpus has no voiced
    frames; degenerate ranges are widened so quantization stays defined.
    """
    mel = MelStats.from_corpus([s.log_mel for s in data])
    voiced = np.concatenate([s.f0.log_f0[s.f0.voiced] for s in data]) if data else np.array([])
    if voiced.size:
        f0_lo, f0_hi = np.percentile(voiced, [0.1, 99.9])
    else:
        f0_lo, f0_hi = np.log(cfg.f0_min), np.log(cfg.f0_max)
    loud = np.concatenate([s.loudness for s in data])
    loud_lo, loud_hi = np.percentile(loud, [0.1, 99.9])
    if f0_hi - f0_lo < 1e-6:
        f0_hi = f0_lo + 1e-6
    if loud_hi - loud_lo < 1e-6:
        loud_hi = loud_lo + 1e-6
    return FeatureStats(mel=mel, f0_lo=float(f0_lo), f0_hi=float(f0_hi),
                        loud_lo=float(loud_lo), loud_hi=float(loud_hi))


def conditioner_bins(stats: FeatureStats, f0: F0Contour, loudness: np.ndarray,
                     n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantized melody and loudness bins; unvoiced frames land in bin 0
    because log-F0 = 0 clamps to the low edge."""
    f0_bins = quantize(f0.log_f0, stats.f0_lo, stats.f0_hi, n_bins)
    loud_bins = quantize(loudness, stats.loud_lo, stats.loud_hi, n_bins)
    return f0_bins, loud_bins


def stratified_step(rng: RandomStream, index: int, count: int, steps: int) -> int:
    """Diffusion step of batch element `index` of `count`, in 1..steps.

    Element i draws from the i-th of `count` equal strata of the unit
    interval, mapped onto 1..steps: over the batch the mixture is exactly
    uniform on 1..steps, and every batch spans the range of t.  One uniform
    per element, the same draw a plain uniform step would consume.
    """
    u = float(rng.uniform(1)[0])
    # min: (count - 1 + u) / count can round up to 1.0
    return 1 + min(steps - 1, int((index + u) / count * steps))


class Adam:
    """Bias-corrected ADAM over a named parameter dict."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], lr: float, grad_clip: float = 0.0) -> None:
        grads = {}
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in parameter {name!r}")
            grads[name] = g
        if grad_clip > 0.0:
            norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
            if norm > grad_clip:
                factor = grad_clip / norm
                grads = {n: g * factor for n, g in grads.items()}
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class Checkpoint:
    config: RunConfig
    schedule: NoiseSchedule
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_step: int
    stats: FeatureStats
    iteration: int
    rng_state: tuple[int, int]

    def build_model(self, trainable: bool = False) -> Denoiser:
        params = {
            name: Tensor(arr.copy(), requires_grad=trainable)
            for name, arr in self.params.items()
        }
        return Denoiser(self.config.model_config(), params)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(f, ckpt)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint(f, ckpt: Checkpoint) -> None:
    extras = {
        "iteration": str(ckpt.iteration),
        "adam_step": str(ckpt.adam_step),
        "rng_seed": str(ckpt.rng_state[0]),
        "rng_counter": str(ckpt.rng_state[1]),
        "mel_lo": repr(ckpt.stats.mel.lo),
        "mel_hi": repr(ckpt.stats.mel.hi),
        "f0_lo": repr(ckpt.stats.f0_lo),
        "f0_hi": repr(ckpt.stats.f0_hi),
        "loud_lo": repr(ckpt.stats.loud_lo),
        "loud_hi": repr(ckpt.stats.loud_hi),
    }
    block = serialize_config(ckpt.config, extras).encode("utf-8")
    s = ckpt.schedule
    f.write(CKPT_MAGIC)
    f.write(struct.pack("<B", CKPT_VERSION))
    f.write(struct.pack("<I", len(block)))
    f.write(block)
    f.write(struct.pack("<I", s.steps))
    for table in (s.beta, s.alpha, s.alpha_bar, s.sigma):
        f.write(np.ascontiguousarray(table, dtype="<f8").tobytes())

    def record(name: str, arr: np.ndarray) -> None:
        encoded = name.encode("utf-8")
        f.write(struct.pack("<H", len(encoded)))
        f.write(encoded)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    for name in sorted(ckpt.params):
        record(name, ckpt.params[name])
    for name in sorted(ckpt.adam_m):
        record(f"adam.m.{name}", ckpt.adam_m[name])
    for name in sorted(ckpt.adam_v):
        record(f"adam.v.{name}", ckpt.adam_v[name])


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(raw) < pos + n:
            raise FormatError(f"{path}: truncated {what} at byte {pos}")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte 0")
    version = take(1, "version")[0]
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (block_len,) = struct.unpack("<I", take(4, "config length"))
    block = take(block_len, "config block").decode("utf-8")
    config, extras = parse_config_text(block, extra_keys=_STATE_KEYS)
    missing = [k for k in _STATE_KEYS if k not in extras]
    if missing:
        raise FormatError(f"{path}: config block missing state keys {missing}")

    (steps,) = struct.unpack("<I", take(4, "schedule length"))
    tables = [
        np.frombuffer(take(8 * steps, "schedule table"), dtype="<f8").astype(np.float64)
        for _ in range(4)
    ]
    schedule = NoiseSchedule(beta=tables[0], alpha=tables[1], alpha_bar=tables[2], sigma=tables[3])

    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    while pos < len(raw):
        (name_len,) = struct.unpack("<H", take(2, "record name length"))
        name = take(name_len, "record name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "record rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "record dims"))
        count = int(np.prod(dims))
        data = np.frombuffer(take(8 * count, f"record {name!r}"), dtype="<f8")
        arr = data.reshape(dims).astype(np.float64)
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v.") :]] = arr
        else:
            params[name] = arr

    return Checkpoint(
        config=config,
        schedule=schedule,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_step=int(extras["adam_step"]),
        stats=FeatureStats(
            mel=MelStats(lo=float(extras["mel_lo"]), hi=float(extras["mel_hi"])),
            f0_lo=float(extras["f0_lo"]),
            f0_hi=float(extras["f0_hi"]),
            loud_lo=float(extras["loud_lo"]),
            loud_hi=float(extras["loud_hi"]),
        ),
        iteration=int(extras["iteration"]),
        rng_state=(int(extras["rng_seed"]), int(extras["rng_counter"])),
    )


_DIM_FIELDS = (
    "n_mels", "ppg_dim", "diffusion_steps", "beta_start", "beta_end",
    "layers", "channels", "cond_dim", "n_bins", "kernel_size", "dilation",
)


def _check_resume_config(cfg: RunConfig, ckpt: Checkpoint) -> None:
    bad = [f for f in _DIM_FIELDS if getattr(cfg, f) != getattr(ckpt.config, f)]
    if bad:
        detail = ", ".join(
            f"{f}: {getattr(cfg, f)} != checkpoint {getattr(ckpt.config, f)}" for f in bad
        )
        raise ConfigError(f"config incompatible with checkpoint ({detail})")


@dataclass(frozen=True)
class _Prepared:
    name: str
    mel: np.ndarray
    ppg: np.ndarray
    f0_bins: np.ndarray
    loud_bins: np.ndarray


def train(
    data: list[TrainingSample],
    cfg: RunConfig,
    resume: Checkpoint | None = None,
    log_path=None,
    ckpt_path=None,
) -> tuple[Checkpoint, list[float]]:
    """Run cfg.n_iter total iterations (resume continues the counter);
    returns the final checkpoint and the per-iteration losses of this call."""
    if not data:
        raise DataError("empty training corpus")
    for sample in data:
        sample.validate()
        if sample.ppg.shape[1] != cfg.ppg_dim:
            raise DataError(
                f"utterance {sample.name!r}: ppg dim {sample.ppg.shape[1]} != configured {cfg.ppg_dim}"
            )

    schedule = linear_schedule(cfg.diffusion_steps, cfg.beta_start, cfg.beta_end)
    if resume is not None:
        _check_resume_config(cfg, resume)
        stats = resume.stats
        model = resume.build_model(trainable=True)
        adam = Adam()
        adam.step_count = resume.adam_step
        adam.m = {k: v.copy() for k, v in resume.adam_m.items()}
        adam.v = {k: v.copy() for k, v in resume.adam_v.items()}
        rng = RandomStream.from_state(resume.rng_state)
        start_iter = resume.iteration
    else:
        stats = compute_feature_stats(data, cfg)
        master = RandomStream(cfg.seed)
        model = Denoiser.init(cfg.model_config(), master.split("init"))
        adam = Adam()
        rng = master.split("train")
        start_iter = 0

    prepared = []
    for s in data:
        f0_bins, loud_bins = conditioner_bins(stats, s.f0, s.loudness, cfg.n_bins)
        prepared.append(_Prepared(s.name, stats.mel.normalize(s.log_mel), s.ppg, f0_bins, loud_bins))

    def snapshot(iteration: int) -> Checkpoint:
        return Checkpoint(
            config=cfg,
            schedule=schedule,
            params={k: v.data.copy() for k, v in model.params.items()},
            adam_m={k: v.copy() for k, v in adam.m.items()},
            adam_v={k: v.copy() for k, v in adam.v.items()},
            adam_step=adam.step_count,
            stats=stats,
            iteration=iteration,
            rng_state=rng.state,
        )

    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    if log_file:
        log_file.write("iteration,loss,wall_ms\n")
    losses: list[float] = []
    try:
        for it in range(start_iter + 1, cfg.n_iter + 1):
            tic = time.perf_counter()
            total = None
            meta = []
            for b in range(cfg.batch):
                u = int(rng.integers(0, len(prepared), 1)[0])
                item = prepared[u]
                seg = min(cfg.segment_frames, item.mel.shape[0])
                start = int(rng.integers(0, item.mel.shape[0] - seg + 1, 1)[0])
                t = stratified_step(rng, b, cfg.batch, cfg.diffusion_steps)
                eps = gaussian((seg, cfg.n_mels), rng)
                sl = slice(start, start + seg)
                cond = model.build_conditioner(item.ppg[sl], item.f0_bins[sl], item.loud_bins[sl])
                term = diffusion_loss(schedule, model, Tensor(item.mel[sl]), cond, t, eps)
                total = term if total is None else T.add(total, term)
                meta.append((t, f"{item.name}[{start}:{start + seg}]"))
            total = T.scale(total, 1.0 / cfg.batch)
            loss = float(total.data)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at iteration {it} "
                    f"(t={[m[0] for m in meta]}, segments={[m[1] for m in meta]})"
                )
            model.zero_grads()
            T.backward(total)
            adam.step(model.params, cfg.lr, cfg.grad_clip)
            losses.append(loss)
            wall_ms = (time.perf_counter() - tic) * 1e3
            if log_file and (it % max(1, cfg.log_every) == 0 or it == cfg.n_iter):
                log_file.write(f"{it},{loss!r},{wall_ms:.3f}\n")
            if ckpt_path and cfg.ckpt_every > 0 and it % cfg.ckpt_every == 0:
                save_checkpoint(ckpt_path, snapshot(it))
    finally:
        if log_file:
            log_file.close()

    final = snapshot(max(cfg.n_iter, start_iter))
    if ckpt_path:
        save_checkpoint(ckpt_path, final)
    return final, losses
