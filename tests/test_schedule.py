import math

import numpy as np
import pytest

from singvc.errors import ContractError
from singvc.schedule import BETA_END, BETA_START, linear_schedule, schedule_csv, step_stats


def brute_force_alpha_bar(steps):
    """Independent direct-product oracle."""
    betas = [BETA_START + (t - 1) * (BETA_END - BETA_START) / (steps - 1) for t in range(1, steps + 1)]
    out = []
    prod = 1.0
    for b in betas:
        prod = prod * (1.0 - b)
        out.append(prod)
    return np.array(out)


def test_default_schedule_endpoints():
    s = linear_schedule(100)
    assert s.beta[0] == 1e-4
    assert s.beta[-1] == 0.06
    assert s.alpha[0] == 1.0 - 1e-4


def test_alpha_bar_matches_brute_force_product():
    s = linear_schedule(100)
    np.testing.assert_allclose(s.alpha_bar, brute_force_alpha_bar(100), rtol=0, atol=1e-12)


def test_monotonicity_invariants():
    s = linear_schedule(100)
    assert np.all(np.diff(s.beta) > 0)
    assert 0 < s.beta[0] and s.beta[-1] < 1
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all((s.alpha_bar > 0) & (s.alpha_bar < 1))


def test_sigma_one_is_zero_and_sigma_bounded_by_beta():
    s = linear_schedule(100)
    assert s.sigma[0] == 0.0
    assert np.all(s.sigma**2 <= s.beta + 1e-15)


def test_recurrence_alpha_bar():
    s = linear_schedule(50)
    prev = np.concatenate(([1.0], s.alpha_bar[:-1]))
    np.testing.assert_allclose(s.alpha_bar, prev * s.alpha, rtol=0, atol=1e-12)


def test_step_stats_values():
    s = linear_schedule(100)
    sqrt_ab, sqrt_1mab, sigma = step_stats(s, 1)
    assert sigma == 0.0
    assert sqrt_ab == math.sqrt(0.9999)
    for t in range(1, 101):
        a, b, _ = step_stats(s, t)
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)


def test_step_stats_range_checked():
    s = linear_schedule(10)
    with pytest.raises(ContractError):
        step_stats(s, 0)
    with pytest.raises(ContractError):
        step_stats(s, 11)


@pytest.mark.parametrize("steps,start,end", [(1, BETA_START, BETA_END)])
def test_invalid_schedule_rejected(steps, start, end):
    # one step cannot run from start to end: linspace would give start alone
    assert (start, end) == (BETA_START, BETA_END)
    with pytest.raises(ContractError, match="at least 2 steps, got 1"):
        linear_schedule(steps)


def test_csv_dump_first_row():
    lines = schedule_csv(linear_schedule(100)).splitlines()
    assert lines[0] == "t,beta,alpha_bar,sigma"
    assert lines[1].startswith("1,0.0001,")
    assert len(lines) == 101
