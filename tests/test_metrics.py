import math
import tracemalloc

import numpy as np
import pytest

from singvc.errors import InputError, MetricUndefinedError
from singvc.metrics import dtw, fpc, mcd, mel_to_cepstrum
from singvc.rng import RandomStream


def enumerate_min_cost(a, b):
    """Brute-force oracle: minimum cost over all monotone paths."""
    a = np.asarray(a, dtype=np.float64).reshape(len(a), -1)
    b = np.asarray(b, dtype=np.float64).reshape(len(b), -1)
    ni, nj = a.shape[0], b.shape[0]

    def local(i, j):
        return float(np.sqrt(((a[i] - b[j]) ** 2).sum()))

    best = [math.inf]

    def walk(i, j, cost):
        cost += local(i, j)
        if cost >= best[0]:
            return
        if (i, j) == (ni - 1, nj - 1):
            best[0] = cost
            return
        if i + 1 < ni and j + 1 < nj:
            walk(i + 1, j + 1, cost)
        if i + 1 < ni:
            walk(i + 1, j, cost)
        if j + 1 < nj:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def dtw_reference(a, b):
    """The per-cell loop the vectorised dtw replaced: local costs from the full
    N x M x D difference, one Python step per table cell, the same backtrack."""
    a = np.asarray(a, dtype=np.float64).reshape(len(a), -1)
    b = np.asarray(b, dtype=np.float64).reshape(len(b), -1)
    ni, nj = a.shape[0], b.shape[0]
    local = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    acc = np.full((ni + 1, nj + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, ni + 1):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, nj + 1):
            row[j] = local[i - 1, j - 1] + min(prev[j], row[j - 1], prev[j - 1])
    pairs = [(ni - 1, nj - 1)]
    i, j = ni, nj
    while (i, j) != (1, 1):
        choices = ((acc[i - 1, j - 1], i - 1, j - 1), (acc[i - 1, j], i - 1, j), (acc[i, j - 1], i, j - 1))
        _, i, j = min(choices, key=lambda c: c[0])
        pairs.append((i - 1, j - 1))
    pairs.reverse()
    return pairs, float(acc[ni, nj])


def _pairs(path: np.ndarray) -> list[tuple[int, int]]:
    assert path.dtype == np.int64 and path.ndim == 2 and path.shape[1] == 2
    return [tuple(p) for p in path.tolist()]


def _path_is_valid(path: np.ndarray, ni, nj):
    pairs = _pairs(path)
    assert pairs[0] == (0, 0)
    assert pairs[-1] == (ni - 1, nj - 1)
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


class TestDtw:
    def test_identical_sequences_diagonal_zero_cost(self):
        a = RandomStream(0).normal((6, 3))
        path, cost = dtw(a, a)
        assert cost == 0.0
        assert _pairs(path) == [(i, i) for i in range(6)]

    def test_three_vs_two_matches_enumeration(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([0.0, 1.0])
        path, cost = dtw(a, b)
        assert cost == pytest.approx(enumerate_min_cost(a, b), abs=1e-12)
        _path_is_valid(path, 3, 2)

    def test_symmetry(self):
        rng = RandomStream(1)
        a, b = rng.normal((5, 2)), rng.normal((7, 2))
        assert dtw(a, b)[1] == pytest.approx(dtw(b, a)[1], abs=1e-12)

    def test_matches_enumeration_on_all_small_shapes(self):
        # every (I, J) with I + J <= 10, random integer sequences in [0, 3]
        rng = RandomStream(2)
        for ni in range(1, 10):
            for nj in range(1, 11 - ni):
                for _ in range(5):
                    a = rng.integers(0, 4, ni).astype(np.float64)
                    b = rng.integers(0, 4, nj).astype(np.float64)
                    path, cost = dtw(a, b)
                    assert cost == pytest.approx(enumerate_min_cost(a, b), abs=1e-12)
                    _path_is_valid(path, ni, nj)
                    assert len(path) <= ni + nj - 1

    def test_cost_not_above_straight_pairing(self):
        rng = RandomStream(3)
        a, b = rng.normal((8, 4)), rng.normal((8, 4))
        straight = float(np.sqrt(((a - b) ** 2).sum(axis=1)).sum())
        assert dtw(a, b)[1] <= straight + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            dtw(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            dtw(np.zeros((3, 2)), np.zeros((3, 4)))


class TestDtwMatchesReference:
    @pytest.mark.parametrize("dim", [1, 12])
    @pytest.mark.parametrize("rounded", [False, True], ids=["random", "tie_heavy"])
    @pytest.mark.parametrize("ni, nj", [(1, 1), (1, 9), (9, 1), (37, 41), (50, 9)])
    def test_same_path_and_cost_bytes(self, ni, nj, dim, rounded):
        rng = RandomStream(11)
        a, b = rng.normal((ni, dim)), rng.normal((nj, dim))
        if rounded:  # integer frames: many equal local costs and equal table values
            a, b = np.round(a), np.round(b)
        path, cost = dtw(a, b)
        ref_pairs, ref_cost = dtw_reference(a, b)
        assert _pairs(path) == ref_pairs
        assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()

    def test_zero_width_frames(self):
        # mcd on one-coefficient cepstra aligns frames with no coefficients left
        a, b = np.zeros((4, 0)), np.zeros((6, 0))
        path, cost = dtw(a, b)
        assert (_pairs(path), cost) == dtw_reference(a, b)

    def test_peak_memory_is_a_few_tables(self):
        # the N x M x D difference of the per-cell version peaked at 25 tables
        ni, nj = 600, 640
        rng = RandomStream(12)
        a, b = rng.normal((ni, 12)), rng.normal((nj, 12))
        tracemalloc.start()
        try:
            dtw(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ni * nj * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_input_rejected(self, side, bad):
        x, y = np.zeros((5, 3)), np.zeros((6, 3))
        (x if side == "a" else y)[3, 1] = bad
        (x if side == "a" else y)[4, 0] = bad
        with pytest.raises(InputError, match=f"input {side} .* frame 3"):
            dtw(x, y)


class TestMelToCepstrum:
    def test_constant_frame_has_only_c0(self):
        cep = mel_to_cepstrum(np.full((3, 16), 2.5))
        assert np.all(cep[:, 0] != 0.0)
        np.testing.assert_allclose(cep[:, 1:], 0.0, atol=1e-12)

    # at MCD_COEFFS (13) bins every coefficient is kept: the full transform
    def test_impulse_matches_closed_form_dct(self):
        n = 13
        frame = np.zeros((1, n))
        frame[0, 0] = 1.0
        cep = mel_to_cepstrum(frame)
        k = np.arange(n)
        scale = np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
        expected = scale * np.cos(math.pi * k * 1.0 / (2 * n))
        np.testing.assert_allclose(cep[0], expected, atol=1e-12)

    def test_parseval(self):
        frames = RandomStream(4).normal((5, 13))
        cep = mel_to_cepstrum(frames)
        np.testing.assert_allclose(
            (cep**2).sum(axis=1), (frames**2).sum(axis=1), rtol=1e-12
        )

    def test_default_coefficient_count(self):
        assert mel_to_cepstrum(np.zeros((4, 80))).shape[1] == 13

    def test_matches_explicit_cosine_sum_at_80_bins(self):
        n = 80
        frames = RandomStream(7).normal((3, n)) * 4.0 - 6.0
        cep = mel_to_cepstrum(frames)
        for f, frame in enumerate(frames):
            for k in range(13):
                total = sum(frame[i] * math.cos(math.pi * k * (2 * i + 1) / (2 * n)) for i in range(n))
                expected = math.sqrt((1.0 if k == 0 else 2.0) / n) * total
                assert abs(cep[f, k] - expected) <= 1e-12, (f, k)


class TestMcd:
    def test_identical_is_zero(self):
        cep = mel_to_cepstrum(RandomStream(5).normal((6, 20)))
        db, path = mcd(cep, cep)
        assert db == 0.0
        assert path.tolist() == [[i, i] for i in range(6)]

    def test_constant_offset_closed_form(self):
        base = RandomStream(6).normal((5, 13))
        delta = 0.25
        shifted = base.copy()
        shifted[:, 1:] += delta
        expected = (10.0 / math.log(10.0)) * math.sqrt(24.0) * delta
        got, _ = mcd(base, shifted)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_dtw_alignment_not_worse_than_straight(self):
        rng = RandomStream(7)
        a, b = rng.normal((10, 13)), rng.normal((10, 13))
        aligned, _ = mcd(a, b)
        straight = (10.0 / math.log(10.0)) * np.mean(
            np.sqrt(2.0 * ((a[:, 1:] - b[:, 1:]) ** 2).sum(axis=1))
        )
        assert aligned <= straight + 1e-12

    def test_nonnegative(self):
        rng = RandomStream(8)
        a = rng.normal((4, 13))
        b = rng.normal((7, 13))
        assert mcd(a, b)[0] > 0.0

    def test_averages_over_the_returned_path_without_coefficient_0(self):
        rng = RandomStream(11)
        a, b = rng.normal((6, 13)), rng.normal((9, 13))
        a[:, 0] *= 100.0  # an energy track that would dominate the alignment
        db, path = mcd(a, b)
        expected_path, _ = dtw(a[:, 1:], b[:, 1:])
        assert path.tolist() == expected_path.tolist()
        assert path.tolist() != dtw(a, b)[0].tolist()
        sq = ((a[path[:, 0], 1:] - b[path[:, 1], 1:]) ** 2).sum(axis=1)
        assert db == (10.0 / math.log(10.0)) * np.mean(np.sqrt(2.0 * sq))

    def test_coefficient_mismatch_rejected(self):
        with pytest.raises(InputError):
            mcd(np.zeros((3, 13)), np.zeros((3, 12)))

    def test_one_coefficient_rejected(self):
        # a 1-bin mel keeps only c0, which MCD leaves out: DTW would align
        # 0-wide frames at no cost and report 0 dB for unrelated mels
        rng = RandomStream(12)
        ref, hyp = mel_to_cepstrum(rng.normal((20, 1))), mel_to_cepstrum(rng.normal((25, 1)))
        with pytest.raises(InputError, match="MCD needs at least 2 coefficients, c0 left out; got 1"):
            mcd(ref, hyp)


class TestFpc:
    def test_identical_voiced_contours(self):
        hz = np.array([220.0, 230.0, 0.0, 240.0, 250.0])
        assert fpc(hz, hz) == pytest.approx(1.0, abs=1e-12)

    def test_mirrored_contour_is_minus_one(self):
        ref = np.array([200.0, 220.0, 240.0, 260.0])
        hyp = 2 * ref.mean() - ref  # reflection around the mean, still positive
        assert fpc(ref, hyp) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_pearson_formula(self):
        rng = RandomStream(9)
        ref = np.linspace(100.0, 400.0, 50)
        hyp = ref + rng.normal(50) * 5.0
        r = fpc(ref, hyp)
        direct = float(
            ((ref - ref.mean()) * (hyp - hyp.mean())).sum()
            / math.sqrt((((ref - ref.mean()) ** 2).sum() * ((hyp - hyp.mean()) ** 2).sum()))
        )
        assert r == pytest.approx(direct, abs=1e-12)

    def test_affine_invariance_positive_slope(self):
        rng = RandomStream(10)
        ref = np.abs(rng.normal(30)) * 100 + 100
        hyp = np.abs(rng.normal(30)) * 100 + 100
        base = fpc(ref, hyp)
        scaled = fpc(ref, hyp * 1.7 + 11.0)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_only_jointly_voiced_frames_used(self):
        ref = np.array([100.0, 0.0, 200.0, 300.0])
        hyp = np.array([110.0, 999.0, 190.0, 310.0])
        r = fpc(ref, hyp)
        joint_ref, joint_hyp = ref[[0, 2, 3]], hyp[[0, 2, 3]]
        direct = np.corrcoef(joint_ref, joint_hyp)[0, 1]
        assert r == pytest.approx(direct, abs=1e-12)

    def test_undefined_below_two_joint_voiced(self):
        with pytest.raises(MetricUndefinedError):
            fpc(np.array([100.0, 0.0]), np.array([0.0, 100.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            fpc(np.zeros(3), np.zeros(4))
