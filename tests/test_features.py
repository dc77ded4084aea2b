import math
import struct
import tracemalloc
import warnings
import wave

import numpy as np
import pytest

from singvc import featio, features
from singvc.config import RunConfig
from singvc.errors import ContractError, FormatError, InputError
from singvc.features import (
    F0_MAX,
    F0_MIN,
    HOP_SIZE,
    MEL_FFT,
    SAMPLE_RATE,
    YIN_FRAME,
    LOG_MEL_FLOOR,
    LOUDNESS_FLOOR,
    a_weighting_db,
    compute_log_mel,
    compute_loudness,
    estimate_f0,
    frame_count,
    invert_log_mel,
    median_f0,
    mel_filterbank,
    quantize,
    read_wav,
    synth_ppg,
    write_wav,
)
from singvc.rng import RandomStream
from singvc.training import FeatureStats, TrainingSample, compute_feature_stats

from conftest import write_raw_feat

N_MELS = RunConfig().n_mels  # the published 80


def mel_stats(log_mels) -> FeatureStats:
    """`compute_feature_stats` over utterances that differ only in their mels."""
    samples = [TrainingSample(f"u{i}", np.zeros((len(m), 1)), np.zeros(len(m)),
                              np.zeros(len(m)), m) for i, m in enumerate(log_mels)]
    return compute_feature_stats(samples)


def mel_range(lo, hi) -> FeatureStats:
    return FeatureStats(mel_lo=lo, mel_hi=hi, f0_lo=0.0, f0_hi=1.0, loud_lo=0.0, loud_hi=1.0)


def sine(freq, seconds=1.0, sr=24000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestMel:
    def test_one_second_gives_100_frames(self):
        log_mel = compute_log_mel(sine(440.0), N_MELS)
        assert log_mel.shape == (100, 80)
        assert frame_count(24000) == 100

    def test_frame_count_is_ceil(self):
        assert compute_log_mel(sine(440.0, seconds=1.1)[:24001], N_MELS).shape[0] == 101
        assert compute_log_mel(sine(440.0)[:239], N_MELS).shape[0] == 1

    def test_pure_tone_argmax_constant_across_frames(self):
        # FFT-bin-aligned tone on a filter center near 1 kHz (exact 1 kHz
        # straddles two filters of the pinned filterbank)
        freq = 45 * SAMPLE_RATE / MEL_FFT  # 1054.7 Hz, center of filter 24
        fb = mel_filterbank(N_MELS)
        expected = int(np.argmax(fb[:, 45]))
        # cosine: even at t=0, so the reflect-padded first frame has no kink
        tone = 0.5 * np.cos(2 * np.pi * freq * np.arange(24000) / 24000)
        got = np.argmax(compute_log_mel(tone, N_MELS), axis=1)
        assert np.all(got == expected)

    def test_exact_1khz_argmax_stays_within_straddled_pair(self):
        fb = mel_filterbank(N_MELS)
        bin_1khz = round(1000.0 / (SAMPLE_RATE / MEL_FFT))
        top = int(np.argmax(fb[:, bin_1khz]))
        got = np.argmax(compute_log_mel(sine(1000.0), N_MELS), axis=1)
        assert set(np.unique(got)) <= {top - 1, top}

    def test_band_ends_at_nyquist(self):
        fb = mel_filterbank(N_MELS)
        assert np.all(fb.max(axis=1) > 0)  # no filter lies above Nyquist
        assert fb[-1, -1] == 0.0 and fb[-1, -2] > 0  # the top filter closes at it

    def test_silence_floors_and_normalizes_to_minus_one(self):
        silent = compute_log_mel(np.zeros(24000), N_MELS)
        np.testing.assert_array_equal(silent, np.full((100, 80), math.log(LOG_MEL_FLOOR)))
        stats = mel_stats([silent, compute_log_mel(sine(440.0), N_MELS)])
        np.testing.assert_array_equal(stats.normalize_mel(silent), np.full((100, 80), -1.0))

    def test_empty_audio_rejected(self):
        with pytest.raises(InputError):
            compute_log_mel(np.array([]), N_MELS)

    def test_normalization_exact_at_corpus_extremes(self):
        mels = [compute_log_mel(sine(f), N_MELS) for f in (220.0, 660.0)]
        stats = mel_stats(mels)
        normalized = [stats.normalize_mel(m) for m in mels]
        assert min(n.min() for n in normalized) == -1.0
        assert max(n.max() for n in normalized) == 1.0

    def test_normalization_clamps_outside_range(self):
        stats = mel_range(0.0, 1.0)
        np.testing.assert_array_equal(stats.normalize_mel(np.array([-5.0, 0.5, 7.0])), [-1.0, 0.0, 1.0])

    def test_denormalize_inverts(self):
        stats = mel_range(-11.0, 2.5)
        x = np.linspace(-11.0, 2.5, 13)
        np.testing.assert_allclose(stats.denormalize_mel(stats.normalize_mel(x)), x, atol=1e-12)


class TestF0:
    def test_sine_within_3hz(self):
        hz = estimate_f0(sine(220.0))
        voiced = hz[hz > 0]
        assert len(voiced) > 50
        assert abs(np.median(voiced) - 220.0) < 3.0

    def test_white_noise_mostly_unvoiced(self):
        noise = RandomStream(0).normal(24000) * 0.3
        assert (estimate_f0(noise) == 0).mean() >= 0.8

    def test_silence_all_unvoiced(self):
        assert not estimate_f0(np.zeros(24000)).any()

    def test_amplitude_invariance(self):
        base = estimate_f0(sine(220.0, amp=1.0))
        for s in (0.1, 0.4, 1.0):
            scaled = estimate_f0(sine(220.0, amp=s))
            voiced = base > 0
            np.testing.assert_array_equal(scaled > 0, voiced)
            np.testing.assert_allclose(scaled[voiced], base[voiced], atol=0.1)

    def test_search_range_lies_below_nyquist(self):
        assert 0.0 < F0_MIN < F0_MAX < SAMPLE_RATE / 2

    def test_longest_period_fits_the_frame(self):
        assert SAMPLE_RATE / F0_MIN <= YIN_FRAME

    def test_fft_length_is_the_next_5_smooth_one(self):
        # 2649 = YIN_FRAME + tau_max + 1 at 40 Hz; 2650..2699 all have a factor over 5
        assert features._fft_size(2649) == 2700
        assert [features._fft_size(n) for n in (1, 7, 11, 2048, 4449)] == [1, 8, 12, 2048, 4500]

    @pytest.mark.parametrize("name", ["sine", "vibrato", "voice_in_noise", "noise"])
    def test_matches_the_estimator_at_a_power_of_two_fft_length(self, monkeypatch, name):
        # the 8192-point estimator is the reference: the correlation lags it
        # keeps are the same sums at any length, so only rounding may differ
        rng = RandomStream(31).split(name)
        t = np.arange(36000) / 24000
        wav = {
            "sine": sine(180.0, seconds=1.5),
            "vibrato": 0.4 * np.sin(2 * np.pi * np.cumsum(300.0 * (1.0 + 0.02 * np.sin(2 * np.pi * 5.5 * t))) / 24000),
            "voice_in_noise": sine(95.0, seconds=1.5, amp=0.3) + 0.05 * rng.normal(36000),
            "noise": 0.2 * rng.normal(36000),
        }[name]
        new = estimate_f0(wav)
        monkeypatch.setattr(features, "_fft_size", lambda n: 1 << int(np.ceil(np.log2(n + features.YIN_FRAME))))
        ref = estimate_f0(wav)
        np.testing.assert_array_equal(new > 0, ref > 0)
        voiced = ref > 0
        assert np.all(np.abs(new[voiced] - ref[voiced]) <= 1e-12 * ref[voiced])
        assert new.astype(np.float32).tobytes() == ref.astype(np.float32).tobytes()

    def test_frame_count_matches_mel(self):
        for n in (24000, 12345, 999):
            wav = sine(220.0)[:n]
            assert len(estimate_f0(wav)) == compute_log_mel(wav, N_MELS).shape[0]


def whole_clip_frames(wav, win, width):
    """Every frame of the clip at once, from the whole reflect-padded clip:
    the reference the blocked framing must match."""
    pad = win // 2
    reach = min(pad, len(wav) - 1)
    x = np.pad(np.pad(wav, reach, mode="reflect") if reach else wav, pad - reach)
    count = frame_count(len(wav))
    x = np.pad(x, (0, max(0, (count - 1) * HOP_SIZE + width - len(x))))
    return np.lib.stride_tricks.sliding_window_view(x, width)[: (count - 1) * HOP_SIZE + 1 : HOP_SIZE]


def whole_clip_power(wav, n_fft):
    frames = whole_clip_frames(wav, n_fft, n_fft) * features.hann_window(n_fft)
    return np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2


def whole_clip_f0(wav):
    """`estimate_f0` with every frame's arrays built at once."""
    sr, f_min, f_max = SAMPLE_RATE, F0_MIN, F0_MAX
    tau_min, tau_max = max(2, math.ceil(sr / f_max)), math.floor(sr / f_min)
    w, n_lags = YIN_FRAME, tau_max + 2
    segs = whole_clip_frames(wav, w, w + tau_max + 1)
    fft_len = features._fft_size(segs.shape[1])
    spec_full = np.fft.rfft(segs, n=fft_len, axis=1)
    spec_head = np.fft.rfft(segs[:, :w], n=fft_len, axis=1)
    corr = np.fft.irfft(np.conj(spec_head) * spec_full, n=fft_len, axis=1)[:, :n_lags]
    sq = np.cumsum(segs**2, axis=1)
    energy = np.empty((len(segs), n_lags))
    energy[:, 0] = sq[:, w - 1]
    energy[:, 1:] = sq[:, w : w + n_lags - 1] - sq[:, : n_lags - 1]
    d = np.maximum(energy[:, :1] + energy - 2.0 * corr, 0.0)
    cum = np.cumsum(d[:, 1:], axis=1)
    dn = np.ones_like(d)
    np.divide(d[:, 1:] * np.arange(1, n_lags, dtype=np.float64), cum, out=dn[:, 1:], where=cum > 0.0)
    hz = np.zeros(len(segs))
    for i, row in enumerate(dn):
        below = np.nonzero(row[tau_min : tau_max + 1] < features.YIN_THRESHOLD)[0]
        if below.size == 0:
            continue
        tau = tau_min + int(below[0])
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        denom = row[tau - 1] - 2.0 * row[tau] + row[tau + 1]
        delta = 0.0 if denom <= 0 else (row[tau - 1] - row[tau + 1]) / (2.0 * denom)
        hz[i] = float(np.clip(sr / (tau + float(np.clip(delta, -1.0, 1.0))), f_min, f_max))
    return hz


BLOCK = features.FRAME_BLOCK


class TestFrameBlocks:
    """The blocked F0 and STFT keep every bit of the whole-clip computation."""

    @staticmethod
    def song(frames, hop=240):
        """A note with vibrato over noise, stopping midway, `frames` frames
        long: voiced and unvoiced frames, and edges that reflect."""
        n = frames * hop - 7
        rng = RandomStream(17).split(f"song-{frames}")
        t = np.arange(n) / 24000
        tone = 0.4 * np.sin(2 * np.pi * np.cumsum(200.0 * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t))) / 24000)
        return np.where(t < n / 48000, tone, 0.0) + 0.01 * rng.normal(n)

    # 1 frame, exactly one block, one block + 1 frame, and several blocks
    # with a partial last one
    LENGTHS = [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]

    @pytest.mark.parametrize("n_mels", [N_MELS, 16], ids=["published", "16_mels"])
    @pytest.mark.parametrize("frames", LENGTHS)
    def test_power_and_features_match_the_whole_clip(self, n_mels, frames):
        wav = self.song(frames)
        assert frame_count(len(wav)) == frames
        for n_fft in (MEL_FFT, features.LOUDNESS_FFT):
            got = features.power_spectrum(wav, n_fft)
            assert got.tobytes() == whole_clip_power(wav, n_fft).tobytes()
        power = whole_clip_power(wav, MEL_FFT)
        log_mel = np.log(power @ mel_filterbank(n_mels).T + LOG_MEL_FLOOR)
        assert compute_log_mel(wav, n_mels).tobytes() == log_mel.tobytes()

    @pytest.mark.parametrize("n_mels", [N_MELS, 16], ids=["published", "16_mels"])
    @pytest.mark.parametrize("frames", LENGTHS)
    def test_f0_matches_the_whole_clip(self, n_mels, frames):
        wav = self.song(frames)
        hz = estimate_f0(wav)
        assert hz.tobytes() == whole_clip_f0(wav).tobytes()
        assert len(hz) == len(compute_log_mel(wav, n_mels))
        if frames > BLOCK:
            assert 0 < np.count_nonzero(hz) < frames

    def test_one_sample_clip(self):
        wav = np.array([0.25])  # nothing to reflect: all padding is zeros
        assert estimate_f0(wav).tobytes() == whole_clip_f0(wav).tobytes()
        got = features.power_spectrum(wav, MEL_FFT)
        assert got.tobytes() == whole_clip_power(wav, MEL_FFT).tobytes()

    def test_f0_memory_does_not_grow_with_the_clip(self):
        # the whole-clip arrays took about 107 MiB at 10 s and grew with the
        # clip; the blocked work buffers take about 3.5 MiB at any length
        estimate_f0(self.song(BLOCK))  # FFT plans are cached on first use
        peaks = {}
        for seconds in (1, 8):
            wav = self.song(100 * seconds)
            tracemalloc.start()
            try:
                estimate_f0(wav)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 8 * 2**20
        assert peaks[8] < 1.25 * peaks[1]


class TestMedianF0:
    def test_identical_contours(self):
        c = np.array([100.0, 0.0, 220.0])
        np.testing.assert_array_equal(median_f0([c, c, c]), c)

    def test_odd_count_median(self):
        contours = [np.array([v]) for v in (100.0, 200.0, 300.0)]
        assert median_f0(contours)[0] == 200.0

    def test_majority_voiced_median_over_voiced_only(self):
        contours = [np.array([v]) for v in (100.0, 0.0, 110.0)]
        assert median_f0(contours)[0] == 105.0

    def test_majority_unvoiced_wins(self):
        contours = [np.array([v]) for v in (100.0, 0.0, 0.0)]
        assert median_f0(contours)[0] == 0.0

    def test_tie_is_unvoiced(self):
        contours = [np.array([v]) for v in (100.0, 0.0)]
        assert median_f0(contours)[0] == 0.0

    def test_permutation_invariance(self):
        rng = RandomStream(13)
        contours = [np.abs(rng.normal(25)) * 100 * (rng.uniform(25) > 0.3) for _ in range(5)]
        base = median_f0(contours)
        order = [3, 0, 4, 2, 1]
        np.testing.assert_array_equal(median_f0([contours[i] for i in order]), base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            median_f0([np.zeros(3), np.zeros(4)])

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            median_f0([])


class TestLoudness:
    def test_a_weight_zero_db_at_1khz(self):
        assert a_weighting_db(1000.0) == 0.0

    def test_a_weight_attenuates_extremes(self):
        assert a_weighting_db(50.0) < -25.0
        assert a_weighting_db(20000.0) < -5.0

    def test_doubling_amplitude_adds_log4(self):
        quiet = compute_loudness(sine(440.0, amp=0.25))
        loud = compute_loudness(sine(440.0, amp=0.5))
        np.testing.assert_allclose(loud - quiet, math.log(4.0), atol=1e-6)

    def test_silence_floored_constant(self):
        contour = compute_loudness(np.zeros(24000))
        np.testing.assert_array_equal(contour, np.full(100, math.log(LOUDNESS_FLOOR)))

    def test_finite_everywhere(self):
        contour = compute_loudness(RandomStream(1).normal(10000) * 0.1)
        assert np.all(np.isfinite(contour))


class TestQuantize:
    def test_boundaries(self):
        q = quantize(np.array([0.0, 1.0]), 0.0, 1.0, 256)
        assert q[0] == 0 and q[1] == 255
        assert q.dtype == np.int64

    def test_stated_formula_midpoint(self):
        v = 0.0 + (1.0 - 0.0) * (127.5 / 256)
        assert quantize(np.array([v]), 0.0, 1.0, 256)[0] == 127

    def test_clamping(self):
        q = quantize(np.array([-10.0, 10.0]), 0.0, 1.0, 256)
        assert q[0] == 0 and q[1] == 255

    def test_monotone(self):
        v = np.sort(RandomStream(2).normal(200) * 3)
        bins = quantize(v, -2.0, 2.0, 256)
        assert np.all(np.diff(bins) >= 0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ContractError):
            quantize(np.zeros(3), 1.0, 1.0, 256)


class TestPpg:
    def test_rows_sum_to_one(self):
        ppg = synth_ppg(50, 218, seed=3)
        np.testing.assert_allclose(ppg.sum(axis=1), np.ones(50), atol=1e-9)
        assert np.all(ppg > 0)

    def test_deterministic(self):
        np.testing.assert_array_equal(synth_ppg(20, 32, seed=9), synth_ppg(20, 32, seed=9))

    def test_roundtrip_bit_identical(self, tmp_path):
        ppg = synth_ppg(20, 32, seed=4)
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        featio.write_feat(p1, ppg)
        featio.write_feat(p2, featio.read_feat(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_frames_rejected(self):
        with pytest.raises(InputError):
            synth_ppg(0, 10)

    @pytest.mark.parametrize("frames", [1, 5, 8, 9, 10])
    def test_one_row_per_frame_around_the_smoothing_width(self, frames):
        assert synth_ppg(frames, 4).shape == (frames, 4)


class TestFeatFormat:
    def test_roundtrip_values(self, tmp_path):
        arr = RandomStream(5).normal((7, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.feat"
        featio.write_feat(path, arr)
        np.testing.assert_array_equal(featio.read_feat(path), arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE!" + bytes(20))
        with pytest.raises(FormatError, match="byte 0"):
            featio.read_feat(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.feat"
        featio.write_feat(path, np.ones((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            featio.read_feat(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.feat"
        featio.write_feat(path, np.ones(4))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            featio.read_feat(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.feat"
        featio.write_feat(path, np.ones(2))
        data = bytearray(path.read_bytes())
        data[5] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            featio.read_feat(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_index(self, tmp_path, bad):
        arr = np.ones((4, 3))
        arr[2, 1] = bad
        path = tmp_path / "nf.feat"
        write_raw_feat(path, arr)
        with pytest.raises(InputError, match=r"nf\.feat: non-finite value .* at index \(2, 1\)"):
            featio.read_feat(path)

    # NaN, infinity, and finite float64 values that overflow float32
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e200])
    def test_non_finite_value_not_written(self, tmp_path, bad):
        arr = np.ones((4, 3))
        arr[2, 1] = bad
        path = tmp_path / "nf.feat"
        path.write_bytes(b"kept")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning either
            with pytest.raises(InputError, match=r"nf\.feat: non-finite value .* at index \(2, 1\)"):
                featio.write_feat(path, arr)
        assert path.read_bytes() == b"kept"

    def test_element_count_is_exact(self, tmp_path):
        # 2^22 * 2^21 * 2^21 = 2^64 elements: a wrapping int64 product is 0,
        # which an empty payload would match
        path = tmp_path / "huge.feat"
        path.write_bytes(b"FEAT1" + struct.pack("<BI3I", 1, 3, 2**22, 2**21, 2**21))
        with pytest.raises(FormatError, match=f"truncated payload at byte 22 \\(need {22 + 4 * 2**64}\\)"):
            featio.read_feat(path)


class TestInvertMel:
    def test_roundtrip_correlation_on_sine(self):
        wav = sine(440.0)
        log_mel = compute_log_mel(wav, N_MELS)
        rec = invert_log_mel(log_mel)
        rec_mel = compute_log_mel(rec, N_MELS)
        for a, b in zip(log_mel, rec_mel):
            r = np.corrcoef(a, b)[0, 1]
            assert r >= 0.7

    def test_zero_mel_near_silent(self):
        log_mel = np.full((20, 80), math.log(LOG_MEL_FLOOR))
        rec = invert_log_mel(log_mel)
        assert np.abs(rec).max() < 0.01

    def test_output_length(self):
        rec = invert_log_mel(np.full((25, 80), math.log(LOG_MEL_FLOOR)))
        assert len(rec) == 25 * HOP_SIZE

    def test_norm_once_per_invert_keeps_the_wav_bytes(self, tmp_path, monkeypatch):
        # the window-square norm is built once per invert, no longer in each
        # of the 33 inverse STFTs: the WAV keeps its bytes
        def per_call_istft(spec, norm=None):
            window = features.hann_window(MEL_FFT)
            frames = np.fft.irfft(spec, n=MEL_FFT, axis=1)
            count = spec.shape[0]
            total = (count - 1) * HOP_SIZE + MEL_FFT
            out, norm = np.zeros(total), np.zeros(total)
            for t in range(count):
                out[t * HOP_SIZE : t * HOP_SIZE + MEL_FFT] += frames[t] * window
                norm[t * HOP_SIZE : t * HOP_SIZE + MEL_FFT] += window**2
            out = np.divide(out, norm, out=np.zeros_like(out), where=norm > 1e-10)
            return out[MEL_FFT // 2 : MEL_FFT // 2 + count * HOP_SIZE]

        log_mel = compute_log_mel(sine(440.0, seconds=0.5), N_MELS)
        once = invert_log_mel(log_mel)
        monkeypatch.setattr(features, "_istft", per_call_istft)
        per_call = invert_log_mel(log_mel)
        assert once.tobytes() == per_call.tobytes()
        write_wav(tmp_path / "once.wav", once)
        write_wav(tmp_path / "per_call.wav", per_call)
        assert (tmp_path / "once.wav").read_bytes() == (tmp_path / "per_call.wav").read_bytes()

    @pytest.mark.parametrize("bins", [slice(3, 4), slice(None)], ids=["one_bin", "all_bins"])
    def test_overflow_is_non_finite_without_warnings(self, bins):
        # exp(8200) overflows, in one bin or in every bin
        log_mel = np.zeros((10, 16))
        log_mel[:, bins] = 8200.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = invert_log_mel(log_mel)
        assert len(rec) == 10 * HOP_SIZE and not np.isfinite(rec).any()


class TestAlignment:
    def test_all_contours_same_frame_count(self):
        for n in (24000, 17777):
            wav = sine(330.0)[:n]
            frames = compute_log_mel(wav, N_MELS).shape[0]
            assert len(estimate_f0(wav)) == frames
            assert len(compute_loudness(wav)) == frames
            assert synth_ppg(frames, 16, 0).shape[0] == frames


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        wav = sine(440.0, seconds=0.1)
        path = tmp_path / "a.wav"
        write_wav(path, wav)
        with wave.open(str(path), "rb") as f:
            assert f.getframerate() == SAMPLE_RATE
        np.testing.assert_allclose(read_wav(path), wav, atol=1.0 / 32000)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_sample_not_written(self, tmp_path, bad):
        wav = sine(440.0, seconds=0.01)
        wav[3] = bad
        path = tmp_path / "out" / "a.wav"
        with pytest.raises(InputError) as exc:
            write_wav(path, wav)
        assert str(exc.value) == f"{path}: non-finite sample {bad} at index 3"
        assert not path.parent.exists()

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(24000)
            f.writeframes(bytes(400))
        with pytest.raises(InputError, match="mono"):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "wide.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(4)
            f.setframerate(24000)
            f.writeframes(bytes(400))
        with pytest.raises(InputError, match="16-bit"):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(FormatError):
            read_wav(path)

    # damage to a 100-sample WAV (44-byte header): cuts inside the last
    # sample, between samples and many samples short, a cut inside the fmt
    # chunk, and a fmt chunk size past the end
    DAMAGE = {
        "odd_sample_bytes": (lambda data: data[:-1], "truncated sample data (199 bytes"),
        "even_sample_bytes": (lambda data: data[:-2], "truncated sample data (198 bytes, the header says 100 "),
        "cut_many_samples": (lambda data: data[:-120], "truncated sample data (80 bytes, the header says 100 "),
        "cut_fmt_chunk": (lambda data: data[:30], "a chunk is cut short"),
        "fmt_size_out_of_range": (lambda data: data[:16] + struct.pack("<I", 2**31) + data[20:],
                                  "a chunk size is out of range"),
    }

    @pytest.mark.parametrize("case", DAMAGE)
    def test_malformed_wav_is_format_error(self, tmp_path, case):
        damage, message = self.DAMAGE[case]
        path = tmp_path / "bad.wav"
        write_wav(path, sine(440.0, seconds=100 / 24000))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(FormatError) as exc:
            read_wav(path)
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
