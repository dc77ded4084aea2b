import dataclasses

import pytest

from singvc.config import RunConfig, load_config, parse_config_text, serialize_config
from singvc.errors import ConfigError
from singvc.features import F0_MAX, F0_MIN, HOP_SIZE, LOUDNESS_FFT, MEL_FFT, SAMPLE_RATE
from singvc.schedule import BETA_END, BETA_START


def test_defaults_match_published_setup():
    cfg = RunConfig()
    assert SAMPLE_RATE == 24000
    assert (MEL_FFT, HOP_SIZE) == (1024, 240)
    assert (F0_MIN, F0_MAX) == (40.0, 800.0)
    # the types the settings had, so every expression computes the same bits
    assert [type(v) for v in (SAMPLE_RATE, MEL_FFT, HOP_SIZE, F0_MIN, F0_MAX)] == [int, int, int, float, float]
    assert cfg.n_mels == 80
    assert cfg.ppg_dim == 218
    assert cfg.diffusion_steps == 100
    assert (BETA_START, BETA_END) == (1e-4, 0.06)
    assert (cfg.layers, cfg.channels, cfg.cond_dim, cfg.n_bins) == (20, 256, 256, 256)
    assert cfg.lr == 2e-4
    assert LOUDNESS_FFT == 2048


def test_parse_serialize_idempotent():
    cfg = RunConfig(n_iter=123, lr=3.5e-4, channels=32)
    text = serialize_config(cfg)
    parsed, _ = parse_config_text(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text


def test_comments_and_blank_lines():
    cfg, _ = parse_config_text("# full line comment\n\nn_iter = 7  # trailing\nlr=0.001\n")
    assert cfg.n_iter == 7 and cfg.lr == 0.001


def test_unknown_key_rejected():
    # settings up to checkpoint version 4 (the next four), 5 (the next two),
    # 6 and 7 (one each), 8 (the next two) and 9 (the last five)
    for key in ("bogus", "win_size", "loud_win", "kernel_size", "dilation", "mel_fmin", "mel_fmax",
                "loud_fft", "grad_clip", "beta_start", "beta_end",
                "sample_rate", "n_fft", "hop_size", "f0_min", "f0_max"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("n_iter = 1\nn_iter = 2\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("n_iter = soon\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just some text\n")


def test_load_config_roundtrip(tmp_path):
    cfg = RunConfig(seed=9, segment_frames=32)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    assert load_config(path) == cfg


def test_every_field_survives_roundtrip():
    # perturb each field away from its default one at a time
    base = RunConfig()
    for f in dataclasses.fields(RunConfig):
        value = getattr(base, f.name) + (2 if f.type in (int, "int") else 0.5)
        bumped = dataclasses.replace(base, **{f.name: value})
        parsed, _ = parse_config_text(serialize_config(bumped))
        assert parsed == bumped, f.name


# one invalid value per rule; every field but `seed` has at least one
INVALID = [
    *((key, 0) for key in ("n_mels", "ppg_dim", "layers", "channels", "cond_dim", "n_bins", "batch",
                           "segment_frames")),
    ("diffusion_steps", 1),
    ("lr", 0.0),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("n_iter", -1),
    ("log_every", 0),
    ("ckpt_every", -1),
]


@pytest.mark.parametrize("key, value", INVALID, ids=str)
def test_invalid_setting_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"{key} = {value!r}\n")
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(RunConfig(), **{key: value})


def test_every_setting_has_a_rule():
    assert {key for key, _ in INVALID} | {"seed"} == {f.name for f in dataclasses.fields(RunConfig)}
    for seed in (-1, 2**70):  # free: the stream takes any integer mod 2^64
        assert parse_config_text(f"seed = {seed}\n")[0].seed == seed
