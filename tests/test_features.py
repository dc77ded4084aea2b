import math
import wave

import numpy as np
import pytest

from singvc import featio
from singvc.errors import ConfigError, FormatError, InputError
from singvc.features import (
    F0Contour,
    LOG_MEL_FLOOR,
    LOUDNESS_FLOOR,
    MelConfig,
    MelStats,
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

CFG = MelConfig()


def sine(freq, seconds=1.0, sr=24000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestMel:
    def test_one_second_gives_100_frames(self):
        log_mel = compute_log_mel(sine(440.0), CFG)
        assert log_mel.shape == (100, 80)
        assert frame_count(24000, 240) == 100

    def test_frame_count_is_ceil(self):
        assert compute_log_mel(sine(440.0, seconds=1.1)[:24001], CFG).shape[0] == 101
        assert compute_log_mel(sine(440.0)[:239], CFG).shape[0] == 1

    def test_pure_tone_argmax_constant_across_frames(self):
        # FFT-bin-aligned tone on a filter center near 1 kHz (exact 1 kHz
        # straddles two filters of the pinned filterbank)
        freq = 45 * CFG.sample_rate / CFG.n_fft  # 1054.7 Hz, center of filter 24
        fb = mel_filterbank(CFG)
        expected = int(np.argmax(fb[:, 45]))
        # cosine: even at t=0, so the reflect-padded first frame has no kink
        tone = 0.5 * np.cos(2 * np.pi * freq * np.arange(24000) / 24000)
        got = np.argmax(compute_log_mel(tone, CFG), axis=1)
        assert np.all(got == expected)

    def test_exact_1khz_argmax_stays_within_straddled_pair(self):
        fb = mel_filterbank(CFG)
        bin_1khz = round(1000.0 / (CFG.sample_rate / CFG.n_fft))
        top = int(np.argmax(fb[:, bin_1khz]))
        got = np.argmax(compute_log_mel(sine(1000.0), CFG), axis=1)
        assert set(np.unique(got)) <= {top - 1, top}

    def test_silence_floors_and_normalizes_to_minus_one(self):
        silent = compute_log_mel(np.zeros(24000), CFG)
        np.testing.assert_array_equal(silent, np.full((100, 80), math.log(LOG_MEL_FLOOR)))
        stats = MelStats.from_corpus([silent, compute_log_mel(sine(440.0), CFG)])
        np.testing.assert_array_equal(stats.normalize(silent), np.full((100, 80), -1.0))

    def test_empty_audio_rejected(self):
        with pytest.raises(InputError):
            compute_log_mel(np.array([]), CFG)

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(InputError):
            compute_log_mel(sine(440.0), CFG, sample_rate=16000)

    def test_normalization_exact_at_corpus_extremes(self):
        mels = [compute_log_mel(sine(f), CFG) for f in (220.0, 660.0)]
        stats = MelStats.from_corpus(mels)
        normalized = [stats.normalize(m) for m in mels]
        assert min(n.min() for n in normalized) == -1.0
        assert max(n.max() for n in normalized) == 1.0

    def test_normalization_clamps_outside_range(self):
        stats = MelStats(lo=0.0, hi=1.0)
        np.testing.assert_array_equal(stats.normalize(np.array([-5.0, 0.5, 7.0])), [-1.0, 0.0, 1.0])

    def test_denormalize_inverts(self):
        stats = MelStats(lo=-11.0, hi=2.5)
        x = np.linspace(-11.0, 2.5, 13)
        np.testing.assert_allclose(stats.denormalize(stats.normalize(x)), x, atol=1e-12)


class TestF0:
    def test_sine_within_3hz(self):
        contour = estimate_f0(sine(220.0), 24000, 240, 40.0, 800.0)
        voiced = contour.hz[contour.voiced]
        assert len(voiced) > 50
        assert abs(np.median(voiced) - 220.0) < 3.0

    def test_white_noise_mostly_unvoiced(self):
        noise = RandomStream(0).normal(24000) * 0.3
        contour = estimate_f0(noise, 24000, 240, 40.0, 800.0)
        assert (~contour.voiced).mean() >= 0.8

    def test_silence_all_unvoiced(self):
        contour = estimate_f0(np.zeros(24000), 24000, 240, 40.0, 800.0)
        assert not contour.voiced.any()

    def test_amplitude_invariance(self):
        base = estimate_f0(sine(220.0, amp=1.0), 24000, 240, 40.0, 800.0)
        for s in (0.1, 0.4, 1.0):
            scaled = estimate_f0(sine(220.0, amp=s), 24000, 240, 40.0, 800.0)
            np.testing.assert_array_equal(scaled.voiced, base.voiced)
            np.testing.assert_allclose(scaled.hz[base.voiced], base.hz[base.voiced], atol=0.1)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ConfigError):
            estimate_f0(sine(220.0), 24000, 240, 10.0, 800.0, frame_length=1024)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            estimate_f0(sine(220.0), 24000, 240, 500.0, 100.0)

    def test_log_f0_zero_for_unvoiced(self):
        contour = F0Contour(hz=np.array([0.0, 100.0, 0.0]))
        np.testing.assert_allclose(contour.log_f0, [0.0, math.log(100.0), 0.0])

    def test_frame_count_matches_mel(self):
        for n in (24000, 12345, 999):
            wav = sine(220.0)[:n]
            assert len(estimate_f0(wav, 24000, 240, 40.0, 800.0)) == compute_log_mel(wav, CFG).shape[0]


class TestMedianF0:
    def test_identical_contours(self):
        c = F0Contour(hz=np.array([100.0, 0.0, 220.0]))
        np.testing.assert_array_equal(median_f0([c, c, c]).hz, c.hz)

    def test_odd_count_median(self):
        contours = [F0Contour(hz=np.array([v])) for v in (100.0, 200.0, 300.0)]
        assert median_f0(contours).hz[0] == 200.0

    def test_majority_voiced_median_over_voiced_only(self):
        contours = [F0Contour(hz=np.array([v])) for v in (100.0, 0.0, 110.0)]
        assert median_f0(contours).hz[0] == 105.0

    def test_majority_unvoiced_wins(self):
        contours = [F0Contour(hz=np.array([v])) for v in (100.0, 0.0, 0.0)]
        assert median_f0(contours).hz[0] == 0.0

    def test_tie_is_unvoiced(self):
        contours = [F0Contour(hz=np.array([v])) for v in (100.0, 0.0)]
        assert median_f0(contours).hz[0] == 0.0

    def test_permutation_invariance(self):
        rng = RandomStream(13)
        hz = [np.abs(rng.normal(25)) * 100 * (rng.uniform(25) > 0.3) for _ in range(5)]
        contours = [F0Contour(hz=h) for h in hz]
        base = median_f0(contours).hz
        order = [3, 0, 4, 2, 1]
        np.testing.assert_array_equal(median_f0([contours[i] for i in order]).hz, base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            median_f0([F0Contour(hz=np.zeros(3)), F0Contour(hz=np.zeros(4))])

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
        quiet = compute_loudness(sine(440.0, amp=0.25), 24000)
        loud = compute_loudness(sine(440.0, amp=0.5), 24000)
        np.testing.assert_allclose(loud - quiet, math.log(4.0), atol=1e-6)

    def test_silence_floored_constant(self):
        contour = compute_loudness(np.zeros(24000), 24000)
        np.testing.assert_array_equal(contour, np.full(100, math.log(LOUDNESS_FLOOR)))

    def test_finite_everywhere(self):
        contour = compute_loudness(RandomStream(1).normal(10000) * 0.1, 24000)
        assert np.all(np.isfinite(contour))


class TestQuantize:
    def test_boundaries(self):
        q = quantize(np.array([0.0, 1.0]), 0.0, 1.0)
        assert q[0] == 0 and q[1] == 255
        assert q.dtype == np.int64

    def test_stated_formula_midpoint(self):
        v = 0.0 + (1.0 - 0.0) * (127.5 / 256)
        assert quantize(np.array([v]), 0.0, 1.0)[0] == 127

    def test_clamping(self):
        q = quantize(np.array([-10.0, 10.0]), 0.0, 1.0)
        assert q[0] == 0 and q[1] == 255

    def test_monotone(self):
        v = np.sort(RandomStream(2).normal(200) * 3)
        bins = quantize(v, -2.0, 2.0)
        assert np.all(np.diff(bins) >= 0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            quantize(np.zeros(3), 1.0, 1.0)


class TestPpg:
    def test_rows_sum_to_one(self):
        ppg = synth_ppg(50, 218, seed=3)
        np.testing.assert_allclose(ppg.sum(axis=1), np.ones(50), atol=1e-9)
        assert np.all(ppg > 0)

    def test_default_dim(self):
        assert synth_ppg(5).shape[1] == 218

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
        featio.write_feat(path, arr)
        with pytest.raises(InputError, match=r"nf\.feat: non-finite value .* at index \(2, 1\)"):
            featio.read_feat(path)


class TestInvertMel:
    def test_roundtrip_correlation_on_sine(self):
        wav = sine(440.0)
        log_mel = compute_log_mel(wav, CFG)
        rec = invert_log_mel(log_mel, CFG, iterations=32)
        rec_mel = compute_log_mel(rec, CFG)
        for a, b in zip(log_mel, rec_mel):
            r = np.corrcoef(a, b)[0, 1]
            assert r >= 0.7

    def test_zero_mel_near_silent(self):
        log_mel = np.full((20, 80), math.log(LOG_MEL_FLOOR))
        rec = invert_log_mel(log_mel, CFG, iterations=4)
        assert np.abs(rec).max() < 0.01

    def test_output_length(self):
        rec = invert_log_mel(np.full((25, 80), math.log(LOG_MEL_FLOOR)), CFG, iterations=1)
        assert len(rec) == 25 * CFG.hop_size


class TestAlignment:
    def test_all_contours_same_frame_count(self):
        for n in (24000, 17777):
            wav = sine(330.0)[:n]
            frames = compute_log_mel(wav, CFG).shape[0]
            assert len(estimate_f0(wav, 24000, 240, 40.0, 800.0)) == frames
            assert len(compute_loudness(wav, 24000)) == frames
            assert synth_ppg(frames, 16, 0).shape[0] == frames


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        wav = sine(440.0, seconds=0.1)
        path = tmp_path / "a.wav"
        write_wav(path, wav, 24000)
        loaded, sr = read_wav(path)
        assert sr == 24000
        np.testing.assert_allclose(loaded, wav, atol=1.0 / 32000)

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
