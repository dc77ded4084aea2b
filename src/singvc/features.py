"""Audio feature extraction: mel spectrograms, F0, loudness, quantization,
PPG handling, and best-effort mel inversion.

The audio front end is the published one (DiffSVC): 24 kHz audio
(`SAMPLE_RATE`), a 1024-point mel FFT (`MEL_FFT`), a 240-sample hop
(`HOP_SIZE`, 100 frames/s), an F0 search range of 40-800 Hz (`F0_MIN`,
`F0_MAX`) in a 2048-sample frame (`YIN_FRAME`), and a 2048-point loudness
FFT (`LOUDNESS_FFT`).  These are constants of this module, not settings,
so the mel functions take only `n_mels` (`invert_log_mel` reads it from its
input), F0 and loudness only the audio, and WAV I/O is at 24 kHz only.

Every feature is a plain float64 array with frames on axis 0: log-mel and
PPGs [frames, dim], F0 and loudness [frames]; quantized contours are int64
bins.

Fixed conventions (tests depend on these):
  * F0 is in Hz, 0 where unvoiced: a frame is voiced iff hz > 0;
  * frames = ceil(num_samples / HOP_SIZE); frame t is centered at sample
    t*HOP_SIZE via reflect padding of n_fft//2 per side (zero-padded when
    the signal is too short to reflect);
  * periodic Hann window as long as the FFT;
  * triangular mel filterbank on the Slaney mel scale with Slaney area
    normalization, spanning 0 Hz to SAMPLE_RATE / 2;
  * log compression is ln(mel_power + 1e-5); the floor keeps silence finite.

F0 and every STFT run over blocks of `FRAME_BLOCK` frames.  Each block's
samples are cut from the clip with the padding above applied at the clip's
edges, so no padded copy of the clip is made, and each call allocates its
work buffers once and reuses them for every block.  The F0 work therefore
takes the same memory at any clip length (about 3.5 MiB).  The power
spectrum behind log-mel and loudness still holds one [frames, n_fft//2 + 1]
row per frame.  Blocking keeps every bit: each row of an FFT, a cumsum, the
difference function and |.|^2 is computed on its own, whatever the rows
around it.  The filterbank and A-weight
products are not: BLAS may round a row of a product differently with the
number of rows in the call (a per-block `power @ fb.T` changed log-mel
bits at 16 mels), so both run once over the whole clip.

The corpus ranges that normalize the mel and quantize F0 and loudness are
training state: `training.FeatureStats`.
"""

from __future__ import annotations

import math
import wave
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, InputError
from .rng import RandomStream

SAMPLE_RATE = 24000  # Hz, of every WAV read and written
MEL_FFT = 1024  # points of the mel STFT
HOP_SIZE = 240  # samples between frames: 100 frames/s
F0_MIN = 40.0  # Hz, the F0 search range
F0_MAX = 800.0
LOG_MEL_FLOOR = 1e-5
LOUDNESS_FLOOR = 1e-10
YIN_THRESHOLD = 0.1
YIN_FRAME = 2048  # samples per F0 analysis window; holds one period of F0_MIN
FRAME_BLOCK = 32  # frames per block of F0 and STFT work
LOUDNESS_FFT = 2048  # points of the loudness STFT
GRIFFIN_LIM_ITERATIONS = 32


# ---------------------------------------------------------------------------
# framing / STFT


def frame_count(num_samples: int) -> int:
    return -(-num_samples // HOP_SIZE)


def _fill_centered(out: np.ndarray, wav: np.ndarray, start: int, reach: int) -> None:
    """out[i] = sample start + i of wav extended by reflection `reach`
    samples past each end (the edge sample itself not repeated), 0 beyond."""
    n = len(wav)
    stop = start + len(out)
    out.fill(0.0)
    lo, hi = max(start, 0), min(stop, n)
    if lo < hi:
        out[lo - start : hi - start] = wav[lo:hi]
    lo, hi = max(start, -reach), min(stop, 0)  # sample k < 0 is wav[-k]
    if lo < hi:
        out[lo - start : hi - start] = wav[1 - hi : 1 - lo][::-1]
    lo, hi = max(start, n), min(stop, n + reach)  # sample k >= n is wav[2n - 2 - k]
    if lo < hi:
        out[lo - start : hi - start] = wav[2 * n - 1 - hi : 2 * n - 1 - lo][::-1]


def _frame_blocks(wav: np.ndarray, win: int, width: int):
    """Yields (first frame, frames [rows, width]) for each `FRAME_BLOCK`
    frames of the clip.  Frame t starts at sample t*hop - win//2, so a
    win-long frame is centered at t*hop; samples before the start and past
    the end reflect by up to win//2 and are 0 beyond that.  The frames are
    a view of one buffer, which the next block overwrites."""
    hop = HOP_SIZE
    count = frame_count(len(wav))
    pad = win // 2
    reach = min(pad, len(wav) - 1)
    samples = np.empty((min(FRAME_BLOCK, count) - 1) * hop + width)
    for first in range(0, count, FRAME_BLOCK):
        rows = min(FRAME_BLOCK, count - first)
        span = samples[: (rows - 1) * hop + width]
        _fill_centered(span, wav, first * hop - pad, reach)
        yield first, np.lib.stride_tricks.sliding_window_view(span, width)[::hop]


def hann_window(win: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(win) / win))


def _stft_blocks(wav: np.ndarray, n_fft: int):
    """Yields (first frame, complex spectrum [rows, n_fft//2 + 1]) for each
    block of Hann-windowed frames; the spectrum is a buffer that the next
    block overwrites."""
    if len(wav) == 0:
        raise InputError("empty audio")
    window = hann_window(n_fft)
    block = min(FRAME_BLOCK, frame_count(len(wav)))
    windowed = np.empty((block, n_fft))
    spec = np.empty((block, n_fft // 2 + 1), dtype=np.complex128)
    for first, frames in _frame_blocks(wav, n_fft, n_fft):
        rows = len(frames)
        np.multiply(frames, window, out=windowed[:rows])
        np.fft.rfft(windowed[:rows], n=n_fft, axis=1, out=spec[:rows])
        yield first, spec[:rows]


def stft(wav: np.ndarray) -> np.ndarray:
    """Complex mel-FFT spectrogram [frames, MEL_FFT//2 + 1]."""
    out = np.empty((frame_count(len(wav)), MEL_FFT // 2 + 1), dtype=np.complex128)
    for first, spec in _stft_blocks(wav, MEL_FFT):
        out[first : first + len(spec)] = spec
    return out


def power_spectrum(wav: np.ndarray, n_fft: int) -> np.ndarray:
    """|STFT|^2, [frames, n_fft//2 + 1], filled block by block."""
    power = np.empty((frame_count(len(wav)), n_fft // 2 + 1))
    for first, spec in _stft_blocks(wav, n_fft):
        rows = power[first : first + len(spec)]
        np.abs(spec, out=rows)
        np.square(rows, out=rows)
    return power


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


def mel_filterbank(n_mels: int) -> np.ndarray:
    """[n_mels, MEL_FFT//2 + 1] triangular filters from 0 Hz to Nyquist,
    Slaney area normalization."""
    n_bins = MEL_FFT // 2 + 1
    fft_freqs = np.arange(n_bins) * SAMPLE_RATE / MEL_FFT
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2), n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / (mid - lo)
        down = (hi - fft_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def compute_log_mel(wav: np.ndarray, n_mels: int) -> np.ndarray:
    """Unnormalized log-mel, [frames, n_mels]: ln(filterbank @ |STFT|^2 + floor)."""
    power = power_spectrum(wav, MEL_FFT)
    # one product over the whole clip: per block, BLAS may round a row
    # differently (it did at 16 mels)
    mel_power = power @ mel_filterbank(n_mels).T
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


def estimate_f0(wav: np.ndarray) -> np.ndarray:
    """Per-frame F0 in [F0_MIN, F0_MAX] by normalized autocorrelation
    (YIN-style).

    The squared-difference function over candidate lags is normalized by its
    cumulative mean, the first dip under `YIN_THRESHOLD` is picked (walked to
    its local minimum), and the lag is refined by parabolic interpolation.
    Frames with no dip under the threshold are unvoiced (hz = 0); silence has
    a flat normalized curve at 1 and is therefore unvoiced automatically.
    """
    if len(wav) == 0:
        raise InputError("empty audio")
    tau_min = max(2, int(math.ceil(SAMPLE_RATE / F0_MAX)))
    tau_max = int(math.floor(SAMPLE_RATE / F0_MIN))
    w = YIN_FRAME
    width = w + tau_max + 1  # each frame's segment: the window and every lag past it
    n_lags = tau_max + 2  # need d at tau_max + 1 for interpolation
    # a circular correlation at any length >= the segment has no wraparound
    # at the lags kept
    fft_len = _fft_size(width)
    taus = np.arange(1, n_lags, dtype=np.float64)

    hz = np.zeros(frame_count(len(wav)))
    # one set of work buffers per call, reused by every block
    block = min(FRAME_BLOCK, len(hz))
    squares = np.empty((block, width))
    spec_full = np.empty((block, fft_len // 2 + 1), dtype=np.complex128)
    spec_head = np.empty_like(spec_full)
    corr = np.empty((block, fft_len))
    energy = np.empty((block, n_lags))
    d = np.empty_like(energy)
    dn = np.empty_like(energy)
    cum = np.empty((block, n_lags - 1))
    positive = np.empty(cum.shape, dtype=bool)

    for first, segs in _frame_blocks(wav, w, width):
        rows = len(segs)
        # d(tau) = E(0) + E(tau) - 2 * corr(tau), the correlation by one FFT
        # per frame
        np.fft.rfft(segs, n=fft_len, axis=1, out=spec_full[:rows])
        np.fft.rfft(segs[:, :w], n=fft_len, axis=1, out=spec_head[:rows])
        np.conjugate(spec_head[:rows], out=spec_head[:rows])
        np.multiply(spec_head[:rows], spec_full[:rows], out=spec_head[:rows])
        np.fft.irfft(spec_head[:rows], n=fft_len, axis=1, out=corr[:rows])

        sq = np.square(segs, out=squares[:rows])
        np.cumsum(sq, axis=1, out=sq)
        e = energy[:rows]
        e[:, 0] = sq[:, w - 1]
        np.subtract(sq[:, w : w + n_lags - 1], sq[:, : n_lags - 1], out=e[:, 1:])
        dd = np.add(e[:, :1], e, out=d[:rows])
        c = np.multiply(2.0, corr[:rows, :n_lags], out=corr[:rows, :n_lags])
        np.subtract(dd, c, out=dd)
        np.maximum(dd, 0.0, out=dd)

        # cumulative-mean normalization; flat (silent) frames pin to 1
        cs = np.cumsum(dd[:, 1:], axis=1, out=cum[:rows])
        norm = dn[:rows]
        norm.fill(1.0)
        weighted = np.multiply(dd[:, 1:], taus, out=e[:, 1:])  # E is spent by now
        np.divide(weighted, cs, out=norm[:, 1:], where=np.greater(cs, 0.0, out=positive[:rows]))
        for i in range(rows):
            row = norm[i]
            below = np.nonzero(row[tau_min : tau_max + 1] < YIN_THRESHOLD)[0]
            if below.size == 0:
                continue
            tau = tau_min + int(below[0])
            while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
                tau += 1
            denom = row[tau - 1] - 2.0 * row[tau] + row[tau + 1]
            delta = 0.0 if denom <= 0 else (row[tau - 1] - row[tau + 1]) / (2.0 * denom)
            period = tau + float(np.clip(delta, -1.0, 1.0))
            hz[first + i] = float(np.clip(SAMPLE_RATE / period, F0_MIN, F0_MAX))
    return hz


def median_f0(contours: list[np.ndarray]) -> np.ndarray:
    """Per-frame fusion of estimator outputs, F0 contours of one length.

    A frame is voiced iff a strict majority of the contours are voiced there;
    its value is the median over the voiced values only.
    """
    if not contours:
        raise InputError("median_f0 needs at least one contour")
    length = len(contours[0])
    for c in contours[1:]:
        if len(c) != length:
            raise InputError(f"contour length mismatch: {len(c)} != {length}")
    stacked = np.stack(contours)
    voiced = stacked > 0
    majority = voiced.sum(axis=0) * 2 > len(contours)
    hz = np.zeros(length)
    for j in np.nonzero(majority)[0]:
        hz[j] = float(np.median(stacked[voiced[:, j], j]))
    return hz


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


def compute_loudness(wav: np.ndarray) -> np.ndarray:
    """Per-frame natural log of the A-weighted power-spectrum sum, [frames],
    from a `LOUDNESS_FFT`-point STFT."""
    n_fft = LOUDNESS_FFT
    power = power_spectrum(wav, n_fft)
    freqs = np.arange(n_fft // 2 + 1) * SAMPLE_RATE / n_fft
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


# ---------------------------------------------------------------------------
# mel inversion (best effort; for audible sanity output only)


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """The rows of `frames`, [count, MEL_FFT], added at HOP_SIZE steps in
    row order: (count - 1) * HOP_SIZE + MEL_FFT samples."""
    n_fft, hop = MEL_FFT, HOP_SIZE
    out = np.zeros((frames.shape[0] - 1) * hop + n_fft)
    for t, frame in enumerate(frames):
        out[t * hop : t * hop + n_fft] += frame
    return out


def _overlap_norm(count: int) -> np.ndarray:
    """The overlap-added squared window of `count` frames: `_istft`'s
    divisor, the same for every spectrogram of that many frames."""
    return _overlap_add(np.broadcast_to(hann_window(MEL_FFT) ** 2, (count, MEL_FFT)))


def _istft(spec: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Overlap-add of the frames of spec, divided by `_overlap_norm`'s norm."""
    n_fft, hop = MEL_FFT, HOP_SIZE
    frames = np.fft.irfft(spec, n=n_fft, axis=1)
    frames *= hann_window(n_fft)
    count = spec.shape[0]
    pad = n_fft // 2
    out = _overlap_add(frames)
    out = np.divide(out, norm, out=np.zeros_like(out), where=norm > 1e-10)
    # the frames reach (count - 1) * hop + n_fft samples, past the cut
    # whenever hop <= n_fft // 2
    return out[pad : pad + count * hop]


def invert_log_mel(log_mel: np.ndarray) -> np.ndarray:
    """Pseudo-inverse filterbank plus Griffin-Lim phase reconstruction.

    Zero-phase initialization keeps the output deterministic.  Output length
    is exactly frames * HOP_SIZE samples.  A log-mel too loud for `exp`
    gives samples that are not finite, and no numpy warning.
    """
    fb = mel_filterbank(log_mel.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        mel_power = np.maximum(np.exp(log_mel) - LOG_MEL_FLOOR, 0.0)
        spec_power = np.maximum(mel_power @ np.linalg.pinv(fb).T, 0.0)
        mag = np.sqrt(spec_power)
        norm = _overlap_norm(mag.shape[0])
        wav = _istft(mag.astype(np.complex128), norm)
        for _ in range(GRIFFIN_LIM_ITERATIONS):
            phase = np.angle(stft(wav))
            wav = _istft(mag * np.exp(1j * phase), norm)
    return wav


# ---------------------------------------------------------------------------
# WAV I/O (strict: 16-bit PCM mono at SAMPLE_RATE)


def read_wav(path) -> np.ndarray:
    """The samples of a 16-bit mono WAV at `SAMPLE_RATE`, in [-1, 1); any
    other WAV is an `InputError`, a damaged one a `FormatError`."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise InputError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise InputError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            sr = f.getframerate()
            n_frames = f.getnframes()
            raw = f.readframes(n_frames)
    except wave.Error as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc})") from exc
    # `wave` raises these bare, without a message
    except EOFError:
        raise FormatError(f"{path}: not a readable WAV file (a chunk is cut short)") from None
    except RuntimeError:
        raise FormatError(f"{path}: not a readable WAV file (a chunk size is out of range)") from None
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: truncated sample data ({len(raw)} bytes, "
                          f"the header says {n_frames} 16-bit samples)")
    if n_frames == 0:
        raise InputError(f"{path}: empty audio")
    if sr != SAMPLE_RATE:
        raise InputError(f"{path}: sample rate {sr} Hz != {SAMPLE_RATE} Hz")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples: np.ndarray) -> None:
    """Writes `samples` as 16-bit mono PCM at `SAMPLE_RATE`, clipped to
    [-1, 1); a sample that is NaN or infinite is an `InputError`, raised
    before the file is opened."""
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise InputError(f"{path}: non-finite sample {samples[bad[0]]} at index {int(bad[0])}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())
