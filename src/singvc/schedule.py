"""Noise schedule and its derived per-step constants.

The schedule is the published linear one: T betas spaced evenly from
`BETA_START` to `BETA_END`, both included.  T is the only run setting
(`diffusion_steps`, checked by `RunConfig`).  For steps t = 1..T the tables
hold beta_t, alpha_t = 1 - beta_t, the running product alpha_bar_t, and
sigma_t = sqrt((1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) * beta_t) with
alpha_bar_0 defined as 1 (so sigma_1 = 0).
Arrays are 0-indexed; the public API is 1-indexed in t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

BETA_START = 1e-4
BETA_END = 0.06


@dataclass(frozen=True)
class NoiseSchedule:
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.beta)


def linear_schedule(steps: int) -> NoiseSchedule:
    """Endpoint-inclusive linear betas over `steps` >= 2 steps:
    beta_1 = BETA_START, beta_T = BETA_END."""
    if steps < 2:
        raise ContractError(f"a linear schedule needs at least 2 steps, got {steps}")
    beta = np.linspace(BETA_START, BETA_END, steps)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
    sigma = np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta)
    s = NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma=sigma)
    for arr in (s.beta, s.alpha, s.alpha_bar, s.sigma):
        arr.setflags(write=False)
    return s


def step_stats(s: NoiseSchedule, t: int) -> tuple[float, float, float]:
    """(sqrt(alpha_bar_t), sqrt(1 - alpha_bar_t), sigma_t) for 1 <= t <= T."""
    if not 1 <= t <= s.steps:
        raise ContractError(f"step {t} outside [1, {s.steps}]")
    ab = s.alpha_bar[t - 1]
    return float(np.sqrt(ab)), float(np.sqrt(1.0 - ab)), float(s.sigma[t - 1])


def schedule_csv(s: NoiseSchedule) -> str:
    """CSV dump with columns t, beta, alpha_bar, sigma."""
    lines = ["t,beta,alpha_bar,sigma"]
    for i in range(s.steps):
        lines.append(f"{i + 1},{float(s.beta[i])!r},{float(s.alpha_bar[i])!r},{float(s.sigma[i])!r}")
    return "\n".join(lines) + "\n"
