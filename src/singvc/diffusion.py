"""Forward noising, the noise-prediction loss, and the reverse sampler.

Generic over any epsilon predictor: a callable (y_t, t, cond) -> tensor of
the same shape as y_t, where t is the 1-based step index and cond is passed
through opaquely.  The sampler passes one step; the loss passes a batch as
one call, its segments stacked along the frames of y_t and t and cond as
lists with one entry per segment.  Only the model is learned: data, noise
and chain state are arrays; a `Tensor` is built only to call the model and
to score its output.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .rng import RandomStream
from .schedule import NoiseSchedule, step_stats
from .tensor import Tensor


def forward_sample(s: NoiseSchedule, y0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """y_t = sqrt(alpha_bar_t) * y0 + sqrt(1 - alpha_bar_t) * eps."""
    if y0.shape != eps.shape:
        raise ShapeError(f"noise shape {eps.shape} != data shape {y0.shape}")
    sqrt_ab, sqrt_1mab, _ = step_stats(s, t)
    return y0 * sqrt_ab + eps * sqrt_1mab


def diffusion_loss(s: NoiseSchedule, model, y0: list, cond: list, t: list, eps: list) -> Tensor:
    """Mean over a batch's segments of each one's mean squared error between
    eps and the model's prediction at its step.

    Segment i is y0[i] noised by eps[i] at step t[i] under cond[i]; the model
    sees the whole batch in one call.  Mean reduction over elements (not the
    plain squared norm): it rescales the gradient by a constant that folds
    into the learning rate and keeps the loss scale independent of segment
    length and mel depth.
    """
    if not len(y0) == len(cond) == len(t) == len(eps):
        raise ShapeError(f"batch lists differ in length: {len(y0)} y0, {len(cond)} cond, "
                         f"{len(t)} t, {len(eps)} eps")
    y_t = np.concatenate([forward_sample(s, y, step, e) for y, step, e in zip(y0, t, eps)])
    noise = np.concatenate(eps)
    pred = model(Tensor(y_t), list(t), list(cond))
    if pred.shape != noise.shape:
        raise ShapeError(f"model output shape {pred.shape} != noise shape {noise.shape}")
    return T.segment_mse(Tensor(noise), pred, [e.shape[0] for e in eps])


def reverse_step(s: NoiseSchedule, model, y_t: np.ndarray, t: int, cond, z: np.ndarray) -> np.ndarray:
    """One Langevin update:

    y_{t-1} = (y_t - (1 - alpha_t)/sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_t)
              + sigma_t * z

    The zero sigma_t * z is added at t = 1 too: it turns a -0.0 into +0.0.
    """
    if z.shape != y_t.shape:
        raise ShapeError(f"z shape {z.shape} != y_t shape {y_t.shape}")
    _, sqrt_1mab, sigma = step_stats(s, t)
    alpha = float(s.alpha[t - 1])
    eps_hat = model(Tensor(y_t), t, cond).data
    return (y_t - eps_hat * ((1.0 - alpha) / sqrt_1mab)) * (1.0 / np.sqrt(alpha)) + z * sigma


def sample(s: NoiseSchedule, model, cond, frames: int, n_mels: int, rng: RandomStream) -> np.ndarray:
    """Run the full T-step reverse chain from y_T ~ N(0, I).

    Fresh z is drawn for every step t > 1; z = 0 at t = 1.  Deterministic
    given the stream.
    """
    y = rng.normal((frames, n_mels))
    for t in range(s.steps, 0, -1):
        z = rng.normal(y.shape) if t > 1 else np.zeros(y.shape)
        y = reverse_step(s, model, y, t, cond, z)
    return y
