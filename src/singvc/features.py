"""Audio feature extraction: mel spectrograms, F0, loudness, quantization,
PPG handling, and best-effort mel inversion.

The analysis functions take the `RunConfig` itself and read the published
values from it (sample rate, mel FFT length, hop, mel bins, F0 range), so
each is stated once, in `config`, and has been checked when the config was
built.  The F0 frame (`YIN_FRAME`) and the loudness FFT (`LOUDNESS_FFT`) are
constants of this module, not settings.

Features are plain float64 arrays with frames on axis 0 (log-mel and PPGs
[frames, dim], loudness [frames]); quantized contours are int64 bins.  Only
F0 has a type, `F0Contour`, which carries the rule that a frame is voiced
iff hz > 0.

Fixed conventions (tests depend on these):
  * frames = ceil(num_samples / hop); frame t is centered at sample t*hop via
    reflect padding of n_fft//2 per side (zero-padded when the signal is too
    short to reflect);
  * periodic Hann window as long as the FFT;
  * triangular mel filterbank on the Slaney mel scale with Slaney area
    normalization, spanning 0 Hz to sample_rate / 2;
  * log compression is ln(mel_power + 1e-5); the floor keeps silence finite.

The corpus ranges that normalize the mel and quantize F0 and loudness are
training state: `training.FeatureStats`.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError, ContractError, FormatError, InputError
from .featio import read_feat
from .rng import RandomStream

LOG_MEL_FLOOR = 1e-5
LOUDNESS_FLOOR = 1e-10
YIN_THRESHOLD = 0.1
YIN_FRAME = 2048  # samples per F0 analysis window
LOUDNESS_FFT = 2048  # points of the loudness STFT
GRIFFIN_LIM_ITERATIONS = 32


@dataclass(frozen=True)
class F0Contour:
    hz: np.ndarray  # 0 where unvoiced

    @property
    def log_f0(self) -> np.ndarray:
        out = np.zeros_like(self.hz)
        voiced = self.hz > 0
        out[voiced] = np.log(self.hz[voiced])
        return out

    @property
    def voiced(self) -> np.ndarray:
        return self.hz > 0

    def __len__(self) -> int:
        return len(self.hz)


# ---------------------------------------------------------------------------
# framing / STFT


def frame_count(num_samples: int, hop: int) -> int:
    return -(-num_samples // hop)


def _pad_center(wav: np.ndarray, pad: int) -> np.ndarray:
    """Reflect-pad by `pad` per side; zero-fill whatever reflect cannot cover."""
    n = len(wav)
    r = min(pad, n - 1) if n > 1 else 0
    out = np.pad(wav, r, mode="reflect") if r else wav.astype(np.float64)
    if r < pad:
        out = np.pad(out, pad - r)
    return out


def _frames(wav: np.ndarray, win: int, hop: int, extra_right: int = 0) -> np.ndarray:
    """[frames, win + extra_right] windows with frame t centered at t*hop."""
    n = len(wav)
    count = frame_count(n, hop)
    pad = win // 2
    x = _pad_center(wav, pad)
    need = (count - 1) * hop + win + extra_right
    if len(x) < need:
        x = np.pad(x, (0, need - len(x)))
    view = np.lib.stride_tricks.sliding_window_view(x, win + extra_right)
    return view[: (count - 1) * hop + 1 : hop]


def hann_window(win: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(win) / win))


def stft(wav: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Complex spectrogram [frames, n_fft//2 + 1]; the window is n_fft long."""
    if len(wav) == 0:
        raise InputError("empty audio")
    frames = _frames(wav, n_fft, hop) * hann_window(n_fft)
    return np.fft.rfft(frames, n=n_fft, axis=1)


# ---------------------------------------------------------------------------
# mel


def _hz_to_mel(hz):
    """Slaney scale: linear below 1 kHz, logarithmic above."""
    hz = np.asarray(hz, dtype=np.float64)
    mel = hz * 3.0 / 200.0
    log_region = hz >= 1000.0
    logstep = np.log(6.4) / 27.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(hz, 1000.0) / 1000.0) / logstep, mel)
    return mel


def _mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    hz = mel * 200.0 / 3.0
    log_region = mel >= 15.0
    logstep = np.log(6.4) / 27.0
    hz = np.where(log_region, 1000.0 * np.exp(logstep * (mel - 15.0)), hz)
    return hz


def mel_filterbank(cfg: RunConfig) -> np.ndarray:
    """[n_mels, n_fft//2 + 1] triangular filters from 0 Hz to Nyquist, Slaney
    area normalization."""
    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(cfg.sample_rate / 2), cfg.n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / (mid - lo)
        down = (hi - fft_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def compute_log_mel(wav: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Unnormalized log-mel, [frames, n_mels]: ln(filterbank @ |STFT|^2 + floor)."""
    power = np.abs(stft(wav, cfg.n_fft, cfg.hop_size)) ** 2
    mel_power = power @ mel_filterbank(cfg).T
    return np.log(mel_power + LOG_MEL_FLOOR)


# ---------------------------------------------------------------------------
# F0


def _fft_size(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT is fast at
    (2649 = 3 * 883 is several times slower than 2700)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def estimate_f0(wav: np.ndarray, cfg: RunConfig) -> F0Contour:
    """Per-frame F0 in [cfg.f0_min, cfg.f0_max] by normalized autocorrelation
    (YIN-style).

    The squared-difference function over candidate lags is normalized by its
    cumulative mean, the first dip under `YIN_THRESHOLD` is picked (walked to
    its local minimum), and the lag is refined by parabolic interpolation.
    Frames with no dip under the threshold are unvoiced (hz = 0); silence has
    a flat normalized curve at 1 and is therefore unvoiced automatically.
    """
    if len(wav) == 0:
        raise InputError("empty audio")
    sample_rate, f_min, f_max = cfg.sample_rate, cfg.f0_min, cfg.f0_max
    tau_min = max(2, int(math.ceil(sample_rate / f_max)))
    tau_max = int(math.floor(sample_rate / f_min))
    w = YIN_FRAME
    if w < tau_max:
        raise ConfigError(f"f0_min {f_min} Hz: one period ({tau_max} samples) is longer than "
                          f"the F0 frame ({w} samples)")
    segs = _frames(wav, w, cfg.hop_size, extra_right=tau_max + 1)
    count = segs.shape[0]
    n_lags = tau_max + 2  # need d at tau_max + 1 for interpolation

    # d(tau) = E(0) + E(tau) - 2 * corr(tau), via one FFT per frame; a
    # circular correlation at any length >= the segment has no wraparound at
    # the lags kept
    fft_len = _fft_size(segs.shape[1])
    spec_full = np.fft.rfft(segs, n=fft_len, axis=1)
    spec_head = np.fft.rfft(segs[:, :w], n=fft_len, axis=1)
    corr = np.fft.irfft(np.conj(spec_head) * spec_full, n=fft_len, axis=1)[:, :n_lags]

    sq = np.cumsum(segs**2, axis=1)
    energy = np.empty((count, n_lags))
    energy[:, 0] = sq[:, w - 1]
    energy[:, 1:] = sq[:, w : w + n_lags - 1] - sq[:, : n_lags - 1]
    d = np.maximum(energy[:, :1] + energy - 2.0 * corr, 0.0)

    # cumulative-mean normalization; flat (silent) frames pin to 1
    cum = np.cumsum(d[:, 1:], axis=1)
    dn = np.ones_like(d)
    taus = np.arange(1, n_lags, dtype=np.float64)
    np.divide(d[:, 1:] * taus, cum, out=dn[:, 1:], where=cum > 0.0)

    hz = np.zeros(count)
    for i in range(count):
        row = dn[i]
        below = np.nonzero(row[tau_min : tau_max + 1] < YIN_THRESHOLD)[0]
        if below.size == 0:
            continue
        tau = tau_min + int(below[0])
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        denom = row[tau - 1] - 2.0 * row[tau] + row[tau + 1]
        delta = 0.0 if denom <= 0 else (row[tau - 1] - row[tau + 1]) / (2.0 * denom)
        period = tau + float(np.clip(delta, -1.0, 1.0))
        hz[i] = float(np.clip(sample_rate / period, f_min, f_max))
    return F0Contour(hz=hz)


def median_f0(contours: list[F0Contour]) -> F0Contour:
    """Per-frame fusion of estimator outputs.

    A frame is voiced iff a strict majority of the contours are voiced there;
    its value is the median over the voiced values only.
    """
    if not contours:
        raise InputError("median_f0 needs at least one contour")
    length = len(contours[0])
    for c in contours[1:]:
        if len(c) != length:
            raise InputError(f"contour length mismatch: {len(c)} != {length}")
    stacked = np.stack([c.hz for c in contours])
    voiced = stacked > 0
    majority = voiced.sum(axis=0) * 2 > len(contours)
    hz = np.zeros(length)
    for j in np.nonzero(majority)[0]:
        hz[j] = float(np.median(stacked[voiced[:, j], j]))
    return F0Contour(hz=hz)


# ---------------------------------------------------------------------------
# loudness


def a_weighting_db(freqs) -> np.ndarray:
    """Standard analog A-curve magnitude in dB, normalized to 0 dB at 1 kHz."""

    def raw(f):
        f = np.asarray(f, dtype=np.float64)
        f2 = f**2
        num = (12194.0**2) * f2**2
        den = (f2 + 20.6**2) * np.sqrt((f2 + 107.7**2) * (f2 + 737.9**2)) * (f2 + 12194.0**2)
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.where(f > 0, num / np.where(den > 0, den, 1.0), 0.0))

    return raw(freqs) - raw(1000.0)


def compute_loudness(wav: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Per-frame natural log of the A-weighted power-spectrum sum, [frames],
    from a `LOUDNESS_FFT`-point STFT."""
    n_fft = LOUDNESS_FFT
    power = np.abs(stft(wav, n_fft, cfg.hop_size)) ** 2
    freqs = np.arange(n_fft // 2 + 1) * cfg.sample_rate / n_fft
    weights = 10.0 ** (a_weighting_db(freqs) / 10.0)
    weights[freqs <= 0] = 0.0
    return np.log(power @ weights + LOUDNESS_FLOOR)


# ---------------------------------------------------------------------------
# quantization


def quantize(values: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """int64 bin = clamp(floor((v - lo) / (hi - lo) * n_bins), 0, n_bins - 1)."""
    if not lo < hi:
        raise ContractError(f"quantization range invalid: lo {lo} >= hi {hi}")
    scaled = (np.asarray(values, dtype=np.float64) - lo) / (hi - lo) * n_bins
    return np.clip(np.floor(scaled), 0, n_bins - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# PPG


def synth_ppg(frames: int, dim: int, seed: int = 0) -> np.ndarray:
    """Synthetic stand-in for ASR posteriors, [frames, dim]: temporally
    smoothed noise, softmax-normalized per frame."""
    if frames <= 0 or dim <= 0:
        raise InputError(f"frames and dim must be positive, got {frames}, {dim}")
    rng = RandomStream(seed).split("synth-ppg")
    raw = rng.normal((frames, dim))
    kernel = hann_window(9)
    kernel /= kernel.sum()
    # the centered `frames` samples of the full convolution; mode="same" would
    # return len(kernel) samples when frames < len(kernel)
    half = len(kernel) // 2
    smooth = np.apply_along_axis(lambda col: np.convolve(col, kernel)[half : half + frames], 0, raw)
    logits = smooth * 4.0
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def load_ppg(path) -> np.ndarray:
    """[frames, ppg_dim] PPGs from a FEAT1 file."""
    values = read_feat(path)
    if values.ndim != 2:
        raise FormatError(f"{path}: PPG file must be rank 2, got rank {values.ndim}")
    return values


# ---------------------------------------------------------------------------
# mel inversion (best effort; for audible sanity output only)


def _istft(spec: np.ndarray, n_fft: int, hop: int, num_samples: int) -> np.ndarray:
    window = hann_window(n_fft)
    frames = np.fft.irfft(spec, n=n_fft, axis=1)
    count = spec.shape[0]
    pad = n_fft // 2
    total = (count - 1) * hop + n_fft
    out = np.zeros(total)
    norm = np.zeros(total)
    for t in range(count):
        out[t * hop : t * hop + n_fft] += frames[t] * window
        norm[t * hop : t * hop + n_fft] += window**2
    out = np.divide(out, norm, out=np.zeros_like(out), where=norm > 1e-10)
    out = out[pad : pad + num_samples]
    if len(out) < num_samples:
        out = np.pad(out, (0, num_samples - len(out)))
    return out


def invert_log_mel(log_mel: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Pseudo-inverse filterbank plus Griffin-Lim phase reconstruction.

    Zero-phase initialization keeps the output deterministic.  Output length
    is exactly frames * hop samples.
    """
    fb = mel_filterbank(cfg)
    mel_power = np.maximum(np.exp(log_mel) - LOG_MEL_FLOOR, 0.0)
    spec_power = np.maximum(mel_power @ np.linalg.pinv(fb).T, 0.0)
    mag = np.sqrt(spec_power)
    num_samples = log_mel.shape[0] * cfg.hop_size
    spec = mag.astype(np.complex128)
    wav = _istft(spec, cfg.n_fft, cfg.hop_size, num_samples)
    for _ in range(GRIFFIN_LIM_ITERATIONS):
        phase = np.angle(stft(wav, cfg.n_fft, cfg.hop_size))
        wav = _istft(mag * np.exp(1j * phase), cfg.n_fft, cfg.hop_size, num_samples)
    return wav


# ---------------------------------------------------------------------------
# WAV I/O (strict: 16-bit PCM mono)


def read_wav(path) -> tuple[np.ndarray, int]:
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise InputError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise InputError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            sr = f.getframerate()
            raw = f.readframes(f.getnframes())
    except wave.Error as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if len(samples) == 0:
        raise InputError(f"{path}: empty audio")
    return samples, sr


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(pcm.tobytes())
