"""Training loop, ADAM optimizer, corpus ranges and checkpointing.

Each iteration samples `batch` utterance segments, one diffusion step t and
one fresh noise draw per segment, averages the per-segment losses, and takes
one ADAM step.  The segments go through the denoiser together, one forward
and one backward per iteration (see `diffusion_loss`).  The batch's steps
are stratified (see `stratified_step`): over the batch they are exactly
uniform on 1..T, so the expected loss is the uniform-t one, but every batch
spans the range of t instead of sometimes drawing no small t, whose loss is
an order of magnitude above the large-t one.  All randomness flows from the
config's `seed` through two named streams, the initial weights' and the
training stream (`train_stream`), so runs and checkpoint resumes are
exactly reproducible.  A resume must keep its checkpoint's `seed`: another
one would continue a stream that the saved config does not name.

The corpus ranges (`FeatureStats`: the mel min/max that normalize the mel
target, the log-F0 and loudness ranges that quantize the conditioner) are
fixed by the first run and carried by its checkpoints.  `train` first checks
every utterance: feature ranks, one shared frame count of at least one,
finite values, and the configured PPG and mel widths.  The settings
themselves were checked when the `RunConfig` was built, so `train` takes
them as they are.

Checkpoint container: magic "DSVC", u8 version, u32-length-prefixed UTF-8
config block (key=value lines: the run config, whose settings `RunConfig`
checks, a bad one failing the load as a `FormatError` naming the file, then
the training state in `_STATE_KEYS` order, the iteration, the training
stream's counter and the `FeatureStats` fields, each written and read
through its one type; a value that does not parse, a count outside 0 to
2^64 - 1 or a range that is not finite is a `FormatError` naming the key,
and so is a range whose low end is not below its high end), then three
float64 LE sections with no headers: the parameters, ADAM's first moments
and its second moments, each holding the arrays of the config's parameter
layout (``denoiser.parameter_layout``) in its order and at its shapes.
Nothing derivable is stored: the arrays' names and shapes follow from the
config, and so do the noise schedule (`RunConfig.schedule`) and the
training stream's seed (`train_stream`); ADAM's step count equals the
iteration, since every save follows a whole iteration.  Payloads are
64-bit so that a reloaded state continues training bit-exactly.  A fresh
run holds zero moments from iteration 0, so every file holds both moment
sets.  ADAM updates each parameter from its own gradient alone, so a
resumed run's updates do not depend on the layout's order.
Saves are atomic: the file is written under a temporary name in the same
directory and renamed over the target, so an interrupted save leaves the
previous checkpoint intact.
The reader compares the bytes after the config block with the three
sections' size before it allocates anything, so a cut, appended bytes or a
config whose layout does not fit the arrays fail the load with one
`FormatError` naming the file.  It then reads each array straight into its
final array; one that holds NaN or infinity fails the load with a
`FormatError` naming it (a moment as ``adam.m.<name>`` or
``adam.v.<name>``).  A read for inference (``optimizer=False``) stops after
the parameters: the moments are twice their size.

A `Checkpoint` is the training state itself: `train` builds one, or takes
the one it resumes, advances its parameter arrays, ADAM moments, stream and
iteration in place, and saves it as it stands, so neither a resume nor a
save copies the state.  `train` writes a file only for an iteration it ran,
and for a fresh run's iteration 0; a resume already at `n_iter` writes
nothing, loss log included.  A resume that trains continues the loss log:
it keeps the header and the rows up to its checkpoint's iteration, then
appends its own.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import RunConfig, parse_config_text, serialize_config
from .denoiser import Denoiser, ModelConfig, parameter_layout
from .diffusion import diffusion_loss
from .errors import ConfigError, ContractError, DataError, DivergenceError, FormatError, InputError
from .features import F0_MAX, F0_MIN, quantize
from .rng import RandomStream
from .tensor import Tensor

CKPT_MAGIC = b"DSVC"
# 2: step-path FC weights are stored at unit scale (see denoiser); a version-1
# file holds fan-in-scaled ones and would silently shrink the step vectors.
# 3: conv weights are stored tap-major, [K, C_out, C_in]; a version-2 file
# holds them as [C_out, C_in, K]
# 4: the schedule tables and ADAM's step count are derived from the config and
# the iteration; a version-3 file stores both
# 5: the STFT windows are the FFT lengths and the residual conv is 3 taps,
# undilated; a version-4 config block also sets both window lengths and the
# conv's width and dilation, which are no longer keys
# 6: the mel band spans 0 Hz to sample_rate / 2; a version-5 config block also
# sets the band's two edges, which are no longer keys
# 7: the loudness FFT length is a constant; a version-6 config block also sets
# it as `loud_fft`, which is no longer a key
# 8: ADAM takes the raw gradient; a version-7 config block also sets the
# gradient-clip norm, which is no longer a key
# 9: the schedule's beta range is a constant; a version-8 config block also
# sets `beta_start` and `beta_end`, which are no longer keys
# 10: the audio front end is a set of constants of `features`; a version-9
# config block also sets `sample_rate`, `n_fft`, `hop_size`, `f0_min` and
# `f0_max`, which are no longer keys
# 11: the arrays are three headerless sections in the config's parameter
# layout; a version-10 file gives each array a record header (name, rank,
# dims) and may leave the moments out at iteration 0
# 12: the input conv is linear; a version-11 file holds weights trained
# with a ReLU after it, which this network would read as something else
# 13: the training stream is derived from the config's `seed`; a version-12
# state block also stores the stream's own seed
CKPT_VERSION = 13

@dataclass(frozen=True)
class TrainingSample:
    """One frame-aligned utterance: PPG, F0 in Hz, loudness, raw log-mel."""

    name: str
    ppg: np.ndarray
    f0: np.ndarray
    loudness: np.ndarray
    log_mel: np.ndarray

    def validate(self) -> None:
        """Ranks (ppg and mel 2, F0 and loudness 1), one shared frame count of
        at least one, and finite values; else a `DataError` naming the
        utterance."""
        arrays = {"ppg": self.ppg, "f0": self.f0, "loudness": self.loudness, "mel": self.log_mel}
        for kind, values in arrays.items():
            rank = 2 if kind in ("ppg", "mel") else 1
            if values.ndim != rank:
                raise DataError(f"utterance {self.name!r}: {kind} has rank {values.ndim}, expected {rank}")
        frames = {kind: len(values) for kind, values in arrays.items()}
        if len(set(frames.values())) != 1:
            raise DataError(f"utterance {self.name!r}: frame counts differ: {frames}")
        if not frames["mel"]:
            raise DataError(f"utterance {self.name!r}: no frames")
        for kind, values in arrays.items():
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise DataError(f"utterance {self.name!r}: non-finite {kind} value at frame {int(bad[0][0])}")


@dataclass(frozen=True)
class FeatureStats:
    """Ranges fixed over the training corpus, stored in the checkpoint and
    reused at conversion: the raw log-mel min/max, which normalization maps
    to exactly [-1, +1] (values outside clamp), and the log-F0 and loudness
    quantization ranges."""

    mel_lo: float
    mel_hi: float
    f0_lo: float
    f0_hi: float
    loud_lo: float
    loud_hi: float

    def normalize_mel(self, log_mel: np.ndarray) -> np.ndarray:
        scaled = 2.0 * ((log_mel - self.mel_lo) / (self.mel_hi - self.mel_lo)) - 1.0
        return np.clip(scaled, -1.0, 1.0)

    def denormalize_mel(self, normalized: np.ndarray) -> np.ndarray:
        return (normalized + 1.0) / 2.0 * (self.mel_hi - self.mel_lo) + self.mel_lo


# the training state in the config block, in file order, with each value's
# type: the iteration and the training stream's counter, then the ranges
_STATE_KEYS = {
    "iteration": int,
    "rng_counter": int,
    **{f.name: float for f in fields(FeatureStats)},
}


def compute_feature_stats(data: list[TrainingSample]) -> FeatureStats:
    """Mel min/max plus 0.1/99.9 percentile quantization ranges.

    Falls back to the F0 search range (`features.F0_MIN` to `F0_MAX`) if the
    corpus has no voiced frames; degenerate quantization ranges are widened
    so quantization stays defined, and a degenerate mel range is a
    `DataError`.
    """
    mel_lo = min(float(s.log_mel.min()) for s in data)
    mel_hi = max(float(s.log_mel.max()) for s in data)
    if not mel_lo < mel_hi:
        raise DataError(f"degenerate mel statistics: min {mel_lo} >= max {mel_hi}")
    voiced = np.concatenate([np.log(s.f0[s.f0 > 0]) for s in data])
    if voiced.size:
        f0_lo, f0_hi = np.percentile(voiced, [0.1, 99.9])
    else:
        f0_lo, f0_hi = np.log(F0_MIN), np.log(F0_MAX)
    loud = np.concatenate([s.loudness for s in data])
    loud_lo, loud_hi = np.percentile(loud, [0.1, 99.9])
    if f0_hi - f0_lo < 1e-6:
        f0_hi = f0_lo + 1e-6
    if loud_hi - loud_lo < 1e-6:
        loud_hi = loud_lo + 1e-6
    return FeatureStats(mel_lo=mel_lo, mel_hi=mel_hi, f0_lo=float(f0_lo), f0_hi=float(f0_hi),
                        loud_lo=float(loud_lo), loud_hi=float(loud_hi))


def conditioner_bins(stats: FeatureStats, f0_hz: np.ndarray, loudness: np.ndarray,
                     n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantized melody (log-F0) and loudness bins; unvoiced frames land in
    bin 0 because their log-F0 is taken as 0, which clamps to the low edge."""
    log_f0 = np.zeros_like(f0_hz)
    voiced = f0_hz > 0
    log_f0[voiced] = np.log(f0_hz[voiced])
    f0_bins = quantize(log_f0, stats.f0_lo, stats.f0_hi, n_bins)
    loud_bins = quantize(loudness, stats.loud_lo, stats.loud_hi, n_bins)
    return f0_bins, loud_bins


def train_stream(cfg: RunConfig, counter: int = 0) -> RandomStream:
    """The run's training stream, `counter` draws in: the config's `seed`
    split as "train", so a checkpoint stores only the counter."""
    return RandomStream(RandomStream(cfg.seed).split("train").state[0], counter)


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # elements per pass of `Adam.step`: 256 KiB per buffer, which stays in cache


class Adam:
    """Bias-corrected ADAM over a named parameter dict: its moments by
    parameter name and the steps taken.  `step` gives a parameter that has
    no moments zero ones."""

    def __init__(self, m: dict[str, np.ndarray] | None = None, v: dict[str, np.ndarray] | None = None,
                 step_count: int = 0):
        self.step_count = step_count
        self.m = {} if m is None else m
        self.v = {} if v is None else v
        self._scratch = np.empty((2, ADAM_BLOCK))
        self._finite = np.empty(ADAM_BLOCK, dtype=bool)

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        """One update of every parameter from its ``.grad`` (None reads as
        zero), which is then released.  Every gradient is checked first, so a
        `DivergenceError` leaves parameters, moments and gradients untouched.

        Each parameter is updated in place, `ADAM_BLOCK` elements at a time,
        through two scratch buffers of that size reused across blocks,
        parameters and steps: a block's textbook passes run while it is in
        cache.  The arithmetic is the textbook expression's, operation for
        operation, so blocking changes no bit.  A block is a slice of the
        flat views of the parameter and its moments, which are therefore
        C-contiguous: the moments are made in the parameter's layout."""
        for name, p in params.items():
            if not p.data.flags.c_contiguous:
                raise ContractError(f"ADAM updates C-contiguous parameters only; {name!r} is not")
            if p.grad is None:
                continue
            g = p.grad.reshape(-1)
            for i in range(0, g.size, ADAM_BLOCK):
                part = g[i : i + ADAM_BLOCK]
                if not np.isfinite(part, out=self._finite[: part.size]).all():
                    raise DivergenceError(f"non-finite gradient in parameter {name!r}")

        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1**self.step_count
        c2 = 1.0 - ADAM_BETA2**self.step_count
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            # flat views, updated in place: a checkpoint holding these arrays
            # sees every step
            data, m, v = (a.reshape(-1) for a in (p.data, self.m[name], self.v[name]))
            grad = None if p.grad is None else p.grad.reshape(-1)
            for i in range(0, data.size, ADAM_BLOCK):
                j = i + ADAM_BLOCK
                g = 0.0 if grad is None else grad[i:j]
                mb, vb = m[i:j], v[i:j]
                s1, s2 = self._scratch[:, : mb.size]
                np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
                mb *= ADAM_BETA1
                mb += s1
                np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
                s1 *= g
                vb *= ADAM_BETA2
                vb += s1
                np.divide(vb, c2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += ADAM_EPS  # sqrt(v_hat) + eps
                np.divide(mb, c1, out=s2)
                s2 *= lr  # lr * m_hat
                s2 /= s1
                data[i:j] -= s2
            p.grad = None


@dataclass
class Checkpoint:
    """The training state: what a save writes and a resume continues from."""

    config: RunConfig
    params: dict[str, np.ndarray]
    # None when loaded without optimizer state (load_checkpoint(optimizer=False))
    adam: Adam | None
    stats: FeatureStats
    iteration: int
    rng: RandomStream

    def build_model(self, trainable: bool = False) -> Denoiser:
        """A model that wraps the checkpoint's arrays without copying them,
        so optimizer steps on a trainable one advance the checkpoint."""
        params = {name: Tensor(arr, requires_grad=trainable) for name, arr in self.params.items()}
        return Denoiser(self.config.model_config(), params)


def _require_optimizer_state(ckpt: Checkpoint, action: str) -> None:
    # without the moments a resume would silently restart ADAM, and a saved
    # file would look like a full checkpoint that restarts it later
    if ckpt.adam is None:
        raise ContractError(f"cannot {action} a checkpoint loaded without optimizer state; "
                            "load it with optimizer=True")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    _require_optimizer_state(ckpt, "save")
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
    state = dict(iteration=ckpt.iteration, rng_counter=ckpt.rng.state[1], **asdict(ckpt.stats))
    extras = {key: repr(cast(state[key])) for key, cast in _STATE_KEYS.items()}
    block = serialize_config(ckpt.config, extras).encode("utf-8")
    f.write(CKPT_MAGIC)
    f.write(struct.pack("<B", CKPT_VERSION))
    f.write(struct.pack("<I", len(block)))
    f.write(block)
    layout = parameter_layout(ckpt.config.model_config())
    for arrays in (ckpt.params, ckpt.adam.m, ckpt.adam.v):
        for name, shape, _ in layout:
            if arrays[name].shape != shape:
                raise ContractError(f"cannot save {name!r} of shape {arrays[name].shape}: "
                                    f"the config's layout has {shape}")
            f.write(np.ascontiguousarray(arrays[name], dtype="<f8"))


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """Read a checkpoint, each array straight into its final array.

    With ``optimizer=False`` the read stops after the parameters, and the
    checkpoint's ``adam`` is None: enough for inference, not for resuming.
    Every length is checked against the bytes left in the file before
    anything is allocated or read.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n: int, what: str) -> bytes:
            if n > size - f.tell():
                raise FormatError(f"{path}: truncated {what} at byte {f.tell()}")
            return f.read(n)

        if take(4, "magic") != CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic at byte 0")
        version = take(1, "version")[0]
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (block_len,) = struct.unpack("<I", take(4, "config length"))
        raw = take(block_len, "config block")
        try:
            config, extras = parse_config_text(raw.decode("utf-8"), extra_keys=tuple(_STATE_KEYS))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: config block is not UTF-8 ({exc})") from None
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        state = _parse_state(path, extras)

        layout = parameter_layout(config.model_config())
        need = 3 * 8 * sum(math.prod(shape) for _, shape, _ in layout)
        if size - f.tell() != need:
            raise FormatError(f"{path}: {size - f.tell()} bytes after the config block, "
                              f"its parameter layout needs {need}")

        def read(prefix: str) -> dict[str, np.ndarray]:
            arrays = {}
            for name, shape, _ in layout:
                arr = arrays[name] = np.empty(shape, dtype="<f8")
                f.readinto(arr)
                if not np.isfinite(arr).all():
                    index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
                    raise FormatError(f"{path}: record {prefix + name!r}: non-finite value {arr[index]} "
                                      f"at index {index}")
            return arrays

        params = read("")
        # `train` saves only between iterations, each one ADAM step
        adam = Adam(read("adam.m."), read("adam.v."), state["iteration"]) if optimizer else None

    iteration = state.pop("iteration")
    rng = train_stream(config, state.pop("rng_counter"))
    return Checkpoint(config=config, params=params, adam=adam, stats=FeatureStats(**state),
                      iteration=iteration, rng=rng)


def _parse_state(path, extras: dict[str, str]) -> dict:
    """The state keys' values, each cast to its type; a missing key, a value
    that does not parse, a count outside 0 to 2^64 - 1 (the stream's
    counter is a 64-bit integer), a range end that is not finite or a range
    whose low end is not below its high end is a `FormatError`."""
    missing = [key for key in _STATE_KEYS if key not in extras]
    if missing:
        raise FormatError(f"{path}: config block missing state keys {missing}")
    state = {}
    for key, cast in _STATE_KEYS.items():
        try:
            state[key] = cast(extras[key])
            valid = math.isfinite(state[key]) if cast is float else 0 <= state[key] < 2**64
        except ValueError:
            valid = False
        if not valid:
            raise FormatError(f"{path}: state key {key}: bad value {extras[key]!r}")
    ranges = [f.name for f in fields(FeatureStats)]
    for lo, hi in zip(ranges[::2], ranges[1::2]):
        if not state[lo] < state[hi]:
            raise FormatError(f"{path}: state keys {lo}, {hi}: need {lo} < {hi}, "
                              f"got {state[lo]!r} >= {state[hi]!r}")
    return state


# the settings a resume must keep: the arrays' shapes, the schedule's length
# and the seed its training stream is derived from
_RESUME_FIELDS = (*(f.name for f in fields(ModelConfig)), "diffusion_steps", "seed")


def _check_resume_config(cfg: RunConfig, ckpt: Checkpoint) -> None:
    bad = [f for f in _RESUME_FIELDS if getattr(cfg, f) != getattr(ckpt.config, f)]
    if bad:
        detail = ", ".join(
            f"{f}: {getattr(cfg, f)} != checkpoint {getattr(ckpt.config, f)}" for f in bad
        )
        raise ConfigError(f"config incompatible with checkpoint ({detail})")


LOG_HEADER = "iteration,loss,wall_ms\n"


def _open_log(path, resumed_at: int | None):
    """The loss log, line-buffered so each row reaches the file as it is
    logged.  A fresh run (`resumed_at` None) starts it anew.  A resume
    keeps its header and the rows up to iteration `resumed_at`, dropping
    the rows a run killed between saves left past it, and appends after
    them; a missing log starts with the header.  A log whose first line is
    not the header, or a row with no iteration, is an `InputError` naming
    the file."""
    keep = 0
    if resumed_at is not None and os.path.exists(path):
        with open(path, "rb") as f:
            lines = f.readlines()
        if not lines or lines[0] != LOG_HEADER.encode():
            raise InputError(f"{path}: first line is not the loss log header {LOG_HEADER.strip()!r}")
        keep = len(lines[0])
        for number, line in enumerate(lines[1:], start=2):
            try:
                iteration = int(line.split(b",", 1)[0])
            except ValueError:
                raise InputError(f"{path}: line {number} has no iteration: {line!r}") from None
            # a row cut by a kill has no newline; its iteration is past any save
            if iteration > resumed_at or not line.endswith(b"\n"):
                break
            keep += len(line)
        os.truncate(path, keep)
    log = open(path, "a" if keep else "w", encoding="utf-8", buffering=1)
    if not keep:
        log.write(LOG_HEADER)
    return log


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
    """Run cfg.n_iter total iterations (resume continues the counter, and
    a checkpoint past n_iter is a ConfigError); returns the final training
    state and the per-iteration losses of this call.  A resume advances
    `resume` itself, in place, and returns it.  With `ckpt_path`, every
    `ckpt_every`-th iteration and the last one are saved, and a fresh run
    with n_iter = 0 saves its initial state.  With `log_path`, every
    `log_every`-th iteration and the last one are written to the loss log
    as they run, a resume's after the rows it keeps (see `_open_log`); a
    call that trains nothing leaves `log_path` alone.  A resume must keep
    the checkpoint's `seed`, model sizes and `diffusion_steps`; another
    value is a ConfigError."""
    if not data:
        raise DataError("empty training corpus")
    for sample in data:
        sample.validate()
        if sample.ppg.shape[1] != cfg.ppg_dim:
            raise DataError(
                f"utterance {sample.name!r}: ppg dim {sample.ppg.shape[1]} != configured {cfg.ppg_dim}"
            )
        if sample.log_mel.shape[1] != cfg.n_mels:
            raise DataError(
                f"utterance {sample.name!r}: mel depth {sample.log_mel.shape[1]} != configured n_mels {cfg.n_mels}"
            )

    if resume is not None:
        _check_resume_config(cfg, resume)
        if resume.iteration > cfg.n_iter:
            raise ConfigError(f"checkpoint is at iteration {resume.iteration}, past n_iter = {cfg.n_iter}")
        _require_optimizer_state(resume, "resume from")
        state = resume
        state.config = cfg
    else:
        init = Denoiser.init(cfg.model_config(), RandomStream(cfg.seed).split("init")).params
        params = {name: p.data for name, p in init.items()}
        zeros = [{name: np.zeros_like(arr) for name, arr in params.items()} for _ in range(2)]
        state = Checkpoint(
            config=cfg,
            params=params,
            adam=Adam(*zeros),
            stats=compute_feature_stats(data),
            iteration=0,
            rng=train_stream(cfg),
        )
    model = state.build_model(trainable=True)
    schedule = cfg.schedule()
    rng = state.rng

    prepared = []
    for s in data:
        f0_bins, loud_bins = conditioner_bins(state.stats, s.f0, s.loudness, cfg.n_bins)
        # float64 whatever the corpus dtype: the loss noises y0 in float64
        mel = state.stats.normalize_mel(s.log_mel).astype(np.float64, copy=False)
        prepared.append(_Prepared(s.name, mel, s.ppg, f0_bins, loud_bins))

    # opened only when an iteration will run, so a resume already at n_iter
    # leaves the log alone
    log_file = None
    if log_path and state.iteration < cfg.n_iter:
        log_file = _open_log(log_path, None if resume is None else state.iteration)
    losses: list[float] = []
    try:
        for it in range(state.iteration + 1, cfg.n_iter + 1):
            tic = time.perf_counter()
            y0, conds, steps, noises, names = [], [], [], [], []
            for b in range(cfg.batch):
                u = int(rng.integers(0, len(prepared), 1)[0])
                item = prepared[u]
                seg = min(cfg.segment_frames, item.mel.shape[0])
                start = int(rng.integers(0, item.mel.shape[0] - seg + 1, 1)[0])
                steps.append(stratified_step(rng, b, cfg.batch, cfg.diffusion_steps))
                noises.append(rng.normal((seg, cfg.n_mels)))
                sl = slice(start, start + seg)
                y0.append(item.mel[sl])
                conds.append(model.build_conditioner(item.ppg[sl], item.f0_bins[sl], item.loud_bins[sl]))
                names.append(f"{item.name}[{start}:{start + seg}]")
            total = diffusion_loss(schedule, model, y0, conds, steps, noises)
            loss = float(total.data)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at iteration {it} "
                    f"(t={steps}, segments={names})"
                )
            T.backward(total)
            state.adam.step(model.params, cfg.lr)
            state.iteration = it
            losses.append(loss)
            wall_ms = (time.perf_counter() - tic) * 1e3
            if log_file and (it % cfg.log_every == 0 or it == cfg.n_iter):
                log_file.write(f"{it},{loss!r},{wall_ms:.3f}\n")
            if ckpt_path and (it == cfg.n_iter or (cfg.ckpt_every > 0 and it % cfg.ckpt_every == 0)):
                save_checkpoint(ckpt_path, state)
    finally:
        if log_file:
            log_file.close()

    if ckpt_path and resume is None and cfg.n_iter == 0:
        save_checkpoint(ckpt_path, state)
    return state, losses
