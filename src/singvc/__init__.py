"""Desk-scale singing voice conversion: a conditional denoising-diffusion
model over mel spectrograms, conditioned on content (PPG), melody (log-F0)
and loudness, with its own tensor/autodiff engine, feature extraction, and
MCD/FPC evaluation."""

__version__ = "0.1.0"

from .config import RunConfig, load_config, serialize_config
from .denoiser import Denoiser, ModelConfig
from .diffusion import diffusion_loss, forward_sample, gaussian, reverse_step, sample
from .features import F0Contour, MelConfig, MelStats
from .rng import RandomStream
from .schedule import NoiseSchedule, linear_schedule, step_stats
from .tensor import Tensor, backward
from .training import Adam, Checkpoint, FeatureStats, TrainingSample, load_checkpoint, save_checkpoint, train

__all__ = [
    "Adam",
    "Checkpoint",
    "Denoiser",
    "F0Contour",
    "FeatureStats",
    "MelConfig",
    "MelStats",
    "ModelConfig",
    "NoiseSchedule",
    "RandomStream",
    "RunConfig",
    "Tensor",
    "TrainingSample",
    "backward",
    "diffusion_loss",
    "forward_sample",
    "gaussian",
    "linear_schedule",
    "load_checkpoint",
    "load_config",
    "sample",
    "save_checkpoint",
    "serialize_config",
    "step_stats",
    "train",
    "reverse_step",
]
