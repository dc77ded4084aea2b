"""Flat key=value run configuration covering features, schedule, model and
training.  Unknown keys are rejected; parse -> serialize -> parse is
idempotent.  The defaults are the published setup, stated here only, and
`ModelConfig` is built from one.  The audio front end (sample rate, mel
FFT, hop and F0 range) is the published one, constants of `features`, not
settings.

`RunConfig` is also the one place that decides which values are valid.  Every
way to build one (the constructor, `parse_config_text`, `dataclasses.replace`,
the checkpoint reader) checks every setting, so a bad value is a
`ConfigError` naming its key before any command does work.  The noise
schedule's only setting is its step count T; its beta range is the published
one, `schedule.BETA_START` to `schedule.BETA_END`."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .denoiser import ModelConfig
from .errors import ConfigError
from .schedule import NoiseSchedule, linear_schedule


@dataclass(frozen=True)
class RunConfig:
    # features; the sample rate, FFT lengths, hop and F0 range are constants
    # of `features`
    n_mels: int = 80
    ppg_dim: int = 218
    # noise schedule; its beta range is a constant of `schedule`
    diffusion_steps: int = 100
    # model
    layers: int = 20
    channels: int = 256
    cond_dim: int = 256
    n_bins: int = 256
    # training
    n_iter: int = 10000
    lr: float = 2e-4
    seed: int = 0
    batch: int = 16
    segment_frames: int = 128
    log_every: int = 50
    ckpt_every: int = 0

    def __post_init__(self):
        for key, least in _LEAST.items():
            if not getattr(self, key) >= least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and above 0, got {self.lr!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)})

    def schedule(self) -> NoiseSchedule:
        return linear_schedule(self.diffusion_steps)


# the least value of each count; `seed` may be any integer
_LEAST = {
    **dict.fromkeys(("n_mels", "ppg_dim", "layers", "channels", "cond_dim", "n_bins", "batch",
                     "segment_frames", "log_every"), 1),
    "diffusion_steps": 2,
    "n_iter": 0,
    "ckpt_every": 0,
}

_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config_text(text: str, extra_keys: tuple[str, ...] = ()) -> tuple[RunConfig, dict[str, str]]:
    """Parse key=value lines; returns the config plus any allowed extra keys."""
    values: dict = {}
    extras: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in extras or key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in extra_keys:
            extras[key] = value
            continue
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        caster = int if _FIELDS[key] in (int, "int") else float
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return RunConfig(**values), extras


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from None
    cfg, _ = parse_config_text(text)
    return cfg


def serialize_config(cfg: RunConfig, extras: dict | None = None) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)!r}" for f in dataclasses.fields(RunConfig)]
    for key, value in (extras or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
