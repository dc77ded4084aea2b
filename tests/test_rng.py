import numpy as np
import pytest

from singvc.errors import ContractError
from singvc.rng import RandomStream


def test_fixed_seed_fixed_first_value():
    first = RandomStream(1234).normal(1)[0]
    assert first == RandomStream(1234).normal(1)[0]


def test_normal_moments_within_clt_bounds():
    z = RandomStream(7).normal(1_000_000)
    assert abs(z.mean()) < 0.005
    assert 0.995 < z.var() < 1.005


def test_streams_from_different_seeds_uncorrelated():
    a = RandomStream(1).normal(100_000)
    b = RandomStream(2).normal(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_split_streams_uncorrelated_and_stable():
    root = RandomStream(99)
    a = root.split("noise").normal(100_000)
    b = root.split("data").normal(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    # splitting does not advance the parent
    assert root.state == (RandomStream(99).state)


def test_state_roundtrip_continues_stream():
    s = RandomStream(5)
    s.normal(17)
    resumed = RandomStream(*s.state)
    np.testing.assert_array_equal(s.normal((3, 4)), resumed.normal((3, 4)))


def test_counter_wraps_at_2_64():
    # a counter 2 below 2^64 draws at indices 2^64 - 1, 0, 1 and 2, so its
    # last two draws are a fresh counter's first two
    top = RandomStream(5, 2**64 - 2)
    draws = top.uniform(4)
    assert top.state == (5, 2)
    np.testing.assert_array_equal(draws[2:], RandomStream(5).uniform(2))
    np.testing.assert_array_equal(draws[1:2], RandomStream(5, 2**64 - 1).uniform(1))


def test_integers_cover_range_uniformly():
    vals = RandomStream(3).integers(1, 101, 50_000)
    assert vals.min() == 1 and vals.max() == 100
    counts = np.bincount(vals)[1:]
    assert counts.min() > 350  # expected 500 per bin


def test_integers_reject_an_empty_range():
    with pytest.raises(ContractError, match=r"empty integer range \[4, 4\)"):
        RandomStream(3).integers(4, 4)


def test_uniform_in_unit_interval():
    u = RandomStream(11).uniform(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
