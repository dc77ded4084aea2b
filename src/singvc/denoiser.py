"""The conditional noise predictor.

Pipeline: sinusoidal step encoding -> two FC+Swish layers -> shared
projection added to every frame; PPG prenet plus melody/loudness embedding
tables fused into a per-frame conditioner; a stack of gated residual
convolution blocks (kernel 3, dilation 1, non-causal) whose summed skip
connections map back to mel depth through Conv1x1 -> ReLU -> Conv1x1.

The three step-path FC layers use an equalized-learning-rate
parametrization (Karras et al. 2018, arXiv 1710.10196): weights are stored
at unit scale, U(-1, 1), and multiplied by 1/sqrt(fan_in) in the forward
pass, so the effective weights start fan-in uniform like every other layer.
ADAM moves each stored coordinate by about lr per step whatever its scale.
Stored at fan-in scale, a 512-wide step layer, fed the same row for every
frame, would see each Swish pre-activation shift by several times its spread
per step; units then cross Swish's turning point at z = -1.28, below which
a quieter output means a lower z, and sink until most diffusion steps share
one step vector.  The fan-in constant scales those moves by 1/sqrt(fan_in).

The final convolution is zero-initialized so an untrained model predicts
exactly zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InputError, ShapeError
from .rng import RandomStream
from .tensor import Tensor

STEP_SIN_DIM = 128
STEP_HIDDEN = 512


@dataclass(frozen=True)
class ModelConfig:
    n_mels: int = 80
    channels: int = 256
    layers: int = 20
    kernel_size: int = 3
    dilation: int = 1
    ppg_dim: int = 218
    cond_dim: int = 256
    n_bins: int = 256


def sinusoidal_step_vector(t: int) -> np.ndarray:
    """[sin(10^(0*4/63) t) .. sin(10^(63*4/63) t), cos(...) .. cos(...)].

    Frequency grows with the index, 10^0 up to 10^4.
    """
    freqs = 10.0 ** (np.arange(64) * 4.0 / 63.0)
    return np.concatenate([np.sin(freqs * t), np.cos(freqs * t)])


def parameter_count(cfg: ModelConfig) -> int:
    """Closed-form size of the parameter set for a given config."""
    c, e, k, n = cfg.channels, cfg.cond_dim, cfg.kernel_size, cfg.layers
    total = cfg.ppg_dim * e + e                     # PPG prenet
    total += 2 * cfg.n_bins * e                     # melody + loudness tables
    total += STEP_SIN_DIM * STEP_HIDDEN + STEP_HIDDEN
    total += STEP_HIDDEN * STEP_HIDDEN + STEP_HIDDEN
    total += STEP_HIDDEN * c + c                    # shared step projection
    total += c * cfg.n_mels + c                     # input Conv1x1
    total += n * (2 * c * c * k + 2 * c)            # dilated convs
    total += n * (2 * c * e + 2 * c)                # conditioner Conv1x1
    total += 2 * n * (c * c + c)                    # residual + skip Conv1x1
    total += c * c + c                              # output Conv1x1 #1
    total += cfg.n_mels * c + cfg.n_mels            # output Conv1x1 #2
    return total


def _fan_in_uniform(rng: RandomStream, shape, fan_in: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    u = rng.uniform(int(np.prod(shape))).reshape(shape)
    return Tensor((u * 2.0 - 1.0) * bound, requires_grad=True)


class Denoiser:
    """Gated residual convolutional noise predictor with fused conditioning."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: ModelConfig, rng: RandomStream) -> "Denoiser":
        """Fan-in uniform weights (unit-scale U(-1, 1) on the step path),
        zero biases, N(0, 0.01^2) embedding tables, zero-initialized final
        convolution."""
        c, e, k = cfg.channels, cfg.cond_dim, cfg.kernel_size
        p: dict[str, Tensor] = {}

        def fc(name, d_in, d_out):
            p[f"{name}.w"] = _fan_in_uniform(rng, (d_in, d_out), d_in)
            p[f"{name}.b"] = T.zeros((1, d_out), requires_grad=True)

        def conv(name, c_out, c_in, width):
            p[f"{name}.w"] = _fan_in_uniform(rng, (c_out, c_in, width), c_in * width)
            p[f"{name}.b"] = T.zeros((c_out,), requires_grad=True)

        fc("ppg_prenet", cfg.ppg_dim, e)
        p["f0_table"] = Tensor(rng.normal((cfg.n_bins, e)) * 0.01, requires_grad=True)
        p["loud_table"] = Tensor(rng.normal((cfg.n_bins, e)) * 0.01, requires_grad=True)

        def step_fc(name, d_in, d_out):
            # stored at unit scale; _step_fc applies the fan-in constant
            p[f"{name}.w"] = _fan_in_uniform(rng, (d_in, d_out), 1)
            p[f"{name}.b"] = T.zeros((1, d_out), requires_grad=True)

        step_fc("step_fc1", STEP_SIN_DIM, STEP_HIDDEN)
        step_fc("step_fc2", STEP_HIDDEN, STEP_HIDDEN)
        step_fc("step_proj", STEP_HIDDEN, c)
        conv("input_conv", c, cfg.n_mels, 1)
        for i in range(cfg.layers):
            conv(f"layer{i}.dilated", 2 * c, c, k)
            conv(f"layer{i}.cond", 2 * c, e, 1)
            conv(f"layer{i}.residual", c, c, 1)
            conv(f"layer{i}.skip", c, c, 1)
        conv("out_conv1", c, c, 1)
        p["out_conv2.w"] = T.zeros((cfg.n_mels, c, 1), requires_grad=True)
        p["out_conv2.b"] = T.zeros((cfg.n_mels,), requires_grad=True)
        return cls(cfg, p)

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _fc(self, name: str, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _step_fc(self, name: str, x: Tensor) -> Tensor:
        w = self.params[f"{name}.w"]
        h = T.scale(T.matmul(x, w), 1.0 / math.sqrt(w.shape[0]))
        return T.add(h, self.params[f"{name}.b"])

    def _conv(self, name: str, x: Tensor, dilation: int = 1) -> Tensor:
        return T.conv1d(x, self.params[f"{name}.w"], self.params[f"{name}.b"], dilation)

    def encode_step(self, t: int) -> Tensor:
        """[1, 512]: the step's sinusoid through two FC+Swish layers."""
        h = Tensor(sinusoidal_step_vector(t)[None, :])
        h = T.swish(self._step_fc("step_fc1", h))
        return T.swish(self._step_fc("step_fc2", h))

    def step_vector(self, t: int) -> Tensor:
        """The [1, channels] step vector added to every frame at step t."""
        return self._step_fc("step_proj", self.encode_step(t))

    def build_conditioner(self, ppg_values, f0_bins, loud_bins) -> Tensor:
        """[frames, cond_dim]: prenet(ppg) + f0_table[f0_bins] +
        loud_table[loud_bins], per frame."""
        ppg = ppg_values if isinstance(ppg_values, Tensor) else Tensor(ppg_values)
        f0_bins = np.asarray(f0_bins)
        loud_bins = np.asarray(loud_bins)
        if not (ppg.shape[0] == len(f0_bins) == len(loud_bins)):
            raise InputError(
                f"conditioner frame counts differ: ppg {ppg.shape[0]}, "
                f"f0 {len(f0_bins)}, loudness {len(loud_bins)}"
            )
        if ppg.shape[1] != self.cfg.ppg_dim:
            raise ShapeError(f"ppg dim {ppg.shape[1]} != configured {self.cfg.ppg_dim}")
        e = self._fc("ppg_prenet", ppg)
        e = T.add(e, T.embedding_lookup(self.params["f0_table"], f0_bins))
        return T.add(e, T.embedding_lookup(self.params["loud_table"], loud_bins))

    def predict_eps(self, y_t: Tensor, t: int, cond: Tensor) -> Tensor:
        cfg = self.cfg
        if y_t.data.ndim != 2 or y_t.shape[1] != cfg.n_mels:
            raise ShapeError(f"expected [frames, {cfg.n_mels}] input, got {y_t.shape}")
        if cond.shape[0] != y_t.shape[0]:
            raise ShapeError(f"conditioner frames {cond.shape[0]} != input frames {y_t.shape[0]}")

        h = T.relu(self._conv("input_conv", T.transpose(y_t)))          # [C, L]
        h = T.add(h, T.transpose(self.step_vector(t)))                  # broadcast over frames
        ec = T.transpose(cond)                                          # [cond_dim, L]

        c = cfg.channels
        skip = None
        for i in range(cfg.layers):
            u = T.add(
                self._conv(f"layer{i}.dilated", h, cfg.dilation),
                self._conv(f"layer{i}.cond", ec),
            )
            gate = T.mul(T.tanh(T.slice_rows(u, 0, c)), T.sigmoid(T.slice_rows(u, c, 2 * c)))
            h = T.scale(T.add(h, self._conv(f"layer{i}.residual", gate)), T.SQRT_HALF)
            s = self._conv(f"layer{i}.skip", gate)
            skip = s if skip is None else T.add(skip, s)

        out = T.relu(self._conv("out_conv1", T.scale(skip, 1.0 / math.sqrt(cfg.layers))))
        return T.transpose(self._conv("out_conv2", out))

    __call__ = predict_eps
