"""The conditional noise predictor.

Pipeline: a linear input Conv1x1 from mel depth to the channels, plus a
step vector added to every frame (sinusoidal step encoding -> two FC+Swish
layers -> shared projection); PPG prenet plus melody/loudness embedding
tables fused into a per-frame conditioner; a stack of gated residual
convolution blocks whose summed skip connections map back to mel depth
through Conv1x1 -> ReLU -> Conv1x1.  Each block's first conv has 3 taps,
dilation 1 and no causal shift; its parameters keep DiffWave's name
``layer{i}.dilated``, though here nothing dilates it.

DiffWave (arXiv 2009.09761) puts a ReLU after the input Conv1x1.  Here it
zeroed part of the noise in the near-silent mel bins before any layer could
read it, and the toy overfit run of acceptance criterion 5 stalled: it
passed at 5 of 30 (seed, OpenBLAS kernel) pairs with the ReLU and at 29 of
30 without it, seed 0 on all three kernels (``BENCH_input_relu.json``).

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

Conv weights are stored tap-major, [K, C_out, C_in] (see ``tensor.conv1d``),
and drawn at init in [C_out, C_in, K] order so seeded inits do not depend
on the layout.  The final convolution is zero-initialized so an untrained
model predicts exactly zero noise.

A training batch is one forward: its segments go through the network as one
[C, frames] slab (see ``predict_eps``), so each convolution, gate and
residual and skip sum runs once per batch, and the tape holds one graph per
iteration instead of one per segment.

Each layer's conditioner conv (``layer{i}.cond``) does not depend on the
diffusion step.  ``prepare`` runs them (20 at the published size) once and
returns a ``Conditioning`` that ``predict_eps`` takes in place of the
conditioner, so a T-step sampling chain projects the conditioner once
instead of T times.  It holds 2 * channels doubles per layer per frame:
80 KiB per frame at the published size.  Training passes the plain
conditioner, and the projections then run inside the forward, in the graph.
Either way each projection is the same BLAS call on the same operands, so
the outputs have the same bits.

Each of a layer's three sums (the conditioner projection into the
pre-activation, the residual into h, the skip into the running skip sum) is
a conv's ``addend`` (see ``tensor.conv1d``), so no sum takes a pass or a
tape node of its own.  A training forward leaves four [channels, frames]
buffers per residual layer on the tape, the arrays some backward reads: the
tanh and sigmoid halves (read by their own backward and the gate's), the
gate (the residual and skip convs' input) and the scaled residual sum (the
next layer's input).  The dilated conv's output, the pre-activation, the
unscaled residual sum and the skip sums are read by no backward, so each is
freed once the forward has used it (see ``tensor``).

Each layer's cond conv reads its own transpose of the conditioner: backward
then adds the layers' conditioner gradients in layer order, the order of a
graph with separate sums; through one shared transpose it would add them
from the last layer down, which rounds differently.
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
RESIDUAL_TAPS = 3  # width of each layer's `dilated` conv


@dataclass(frozen=True)
class ModelConfig:
    """The network's shape; `RunConfig.model_config` holds the published one."""

    n_mels: int
    channels: int
    layers: int
    ppg_dim: int
    cond_dim: int
    n_bins: int


def sinusoidal_step_vector(t: int) -> np.ndarray:
    """[sin(10^(0*4/63) t) .. sin(10^(63*4/63) t), cos(...) .. cos(...)].

    Frequency grows with the index, 10^0 up to 10^4.
    """
    freqs = 10.0 ** (np.arange(64) * 4.0 / 63.0)
    return np.concatenate([np.sin(freqs * t), np.cos(freqs * t)])


def _fan_in_uniform(rng: RandomStream, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    u = rng.uniform(int(np.prod(shape))).reshape(shape)
    return (u * 2.0 - 1.0) * bound


def parameter_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Each parameter's name, stored shape and initializer, in the training
    state's parameter order, in which each section of a checkpoint holds
    its arrays.  `Denoiser.init` draws from this list, and
    `training.load_checkpoint` reads a file's arrays by it.

    Initializers: "fan_in" U(-1, 1)/sqrt(fan_in); "unit" U(-1, 1), the
    step-path FC weights, whose fan-in constant `_step_fc` applies; "table"
    N(0, 0.01^2); "zero"."""
    c, e = cfg.channels, cfg.cond_dim
    layout = []

    def fc(name, d_in, d_out, init="fan_in"):
        layout.append((f"{name}.w", (d_in, d_out), init))
        layout.append((f"{name}.b", (1, d_out), "zero"))

    def conv(name, c_out, c_in, width=1, init="fan_in"):
        layout.append((f"{name}.w", (width, c_out, c_in), init))  # tap-major
        layout.append((f"{name}.b", (c_out,), "zero"))

    fc("ppg_prenet", cfg.ppg_dim, e)
    layout.append(("f0_table", (cfg.n_bins, e), "table"))
    layout.append(("loud_table", (cfg.n_bins, e), "table"))
    fc("step_fc1", STEP_SIN_DIM, STEP_HIDDEN, "unit")
    fc("step_fc2", STEP_HIDDEN, STEP_HIDDEN, "unit")
    fc("step_proj", STEP_HIDDEN, c, "unit")
    conv("input_conv", c, cfg.n_mels)
    for i in range(cfg.layers):
        conv(f"layer{i}.dilated", 2 * c, c, RESIDUAL_TAPS)
        conv(f"layer{i}.cond", 2 * c, e)
        conv(f"layer{i}.residual", c, c)
        conv(f"layer{i}.skip", c, c)
    conv("out_conv1", c, c)
    conv("out_conv2", cfg.n_mels, c, init="zero")
    return layout


@dataclass(frozen=True)
class Conditioning:
    """A conditioner projected into every residual layer: ``layers[i]`` is
    ``layer{i}.cond`` applied to it, [2 * channels, frames], for segments of
    ``lengths`` frames.  Built by `Denoiser.prepare`."""

    lengths: list[int]
    layers: list[Tensor]


def _segments(cond) -> list:
    return cond if isinstance(cond, list) else [cond]


class Denoiser:
    """Gated residual convolutional noise predictor with fused conditioning."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: ModelConfig, rng: RandomStream) -> "Denoiser":
        """Parameters drawn in `parameter_layout`'s order, which is also the
        insertion order of ``params``."""
        p: dict[str, Tensor] = {}
        for name, shape, init in parameter_layout(cfg):
            if init == "zero":
                p[name] = T.zeros(shape, requires_grad=True)
                continue
            if init == "table":
                data = rng.normal(shape) * 0.01
            elif len(shape) == 3:
                # a conv: drawn [C_out, C_in, K], stored tap-major [K, C_out, C_in]
                k, c_out, c_in = shape
                w = _fan_in_uniform(rng, (c_out, c_in, k), c_in * k)
                data = np.ascontiguousarray(w.transpose(2, 0, 1))
            else:
                data = _fan_in_uniform(rng, shape, shape[0] if init == "fan_in" else 1)
            p[name] = Tensor(data, requires_grad=True)
        return cls(cfg, p)

    def _fc(self, name: str, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _step_fc(self, name: str, x: Tensor) -> Tensor:
        w = self.params[f"{name}.w"]
        h = T.scale(T.matmul(x, w), 1.0 / math.sqrt(w.shape[0]))
        return T.add(h, self.params[f"{name}.b"])

    def _conv(self, name: str, x: Tensor, lengths, addend: Tensor | None = None) -> Tensor:
        return T.conv1d(x, self.params[f"{name}.w"], self.params[f"{name}.b"], lengths, addend)

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
        ppg = Tensor(ppg_values)
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

    def prepare(self, cond) -> Conditioning:
        """The step-invariant part of `predict_eps` for the conditioner cond
        (one [frames, cond_dim] tensor or a batch's list of them), computed
        once so that every step of a sampling chain can reuse it."""
        lengths = [c.shape[0] for c in _segments(cond)]
        ec = T.transpose(T.concat_rows(_segments(cond)))  # [cond_dim, L]
        return Conditioning(lengths, [self._conv(f"layer{i}.cond", ec, lengths) for i in range(self.cfg.layers)])

    def predict_eps(self, y_t: Tensor, t, cond) -> Tensor:
        """The noise estimate for y_t [frames, n_mels] at step t under the
        conditioner cond [frames, cond_dim], or its `prepare`d form.

        A batch of segments is one call: y_t stacks them along frames, and t
        and cond are lists with each segment's step and conditioner, whose
        frame count is the segment's.  The step vectors and conditioners stay
        per segment; everything after them runs once over the slab, and each
        segment's output and gradients have the bits of a call on it alone
        (see ``tensor``).
        """
        cfg = self.cfg
        steps = _segments(t)
        lengths = cond.lengths if isinstance(cond, Conditioning) else [c.shape[0] for c in _segments(cond)]
        if y_t.data.ndim != 2 or y_t.shape[1] != cfg.n_mels:
            raise ShapeError(f"expected [frames, {cfg.n_mels}] input, got {y_t.shape}")
        if sum(lengths) != y_t.shape[0]:
            raise ShapeError(f"conditioner frames {sum(lengths)} != input frames {y_t.shape[0]}")
        if len(steps) != len(lengths):
            raise ShapeError(f"{len(steps)} steps for {len(lengths)} conditioners")

        h = self._conv("input_conv", T.transpose(y_t), lengths)  # [C, L]
        h = T.add_per_segment(h, [self.step_vector(s) for s in steps], lengths)
        prepared = cond.layers if isinstance(cond, Conditioning) else None
        if prepared is None:
            ec = T.concat_rows(_segments(cond))  # [L, cond_dim]

        c = cfg.channels
        skip = None
        for i in range(cfg.layers):
            if prepared is None:
                u = self._conv(f"layer{i}.dilated", h, lengths)
                # a transpose per layer: the conditioner's gradient then sums
                # the layers' contributions in layer order
                u = self._conv(f"layer{i}.cond", T.transpose(ec), lengths, u)
            else:
                u = self._conv(f"layer{i}.dilated", h, lengths, prepared[i])
            gate = T.mul(T.tanh(T.slice_rows(u, 0, c)), T.sigmoid(T.slice_rows(u, c, 2 * c)))
            h = T.scale(self._conv(f"layer{i}.residual", gate, lengths, h), T.SQRT_HALF)
            skip = self._conv(f"layer{i}.skip", gate, lengths, skip)

        out = T.relu(self._conv("out_conv1", T.scale(skip, 1.0 / math.sqrt(cfg.layers)), lengths))
        return T.transpose(self._conv("out_conv2", out, lengths))

    __call__ = predict_eps
