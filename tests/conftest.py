import math
import struct
import wave

import numpy as np
import pytest

from singvc.config import RunConfig, serialize_config
from singvc.denoiser import parameter_layout
from singvc.features import write_wav
from singvc.training import load_checkpoint


def synth_voice(freq, seconds=1.0, sr=24000, vibrato_hz=5.0, vibrato_cents=30.0, seed=0):
    """Sine with mild vibrato and an amplitude envelope; sings one note."""
    n = int(seconds * sr)
    t = np.arange(n) / sr
    depth = 2.0 ** (vibrato_cents / 1200.0) - 1.0
    inst_freq = freq * (1.0 + depth * np.sin(2 * np.pi * vibrato_hz * t))
    phase = 2 * np.pi * np.cumsum(inst_freq) / sr
    envelope = 0.3 + 0.2 * np.sin(2 * np.pi * 1.3 * t + seed)
    return (envelope * np.sin(phase)).astype(np.float64)


def write_pcm_wav(path, samples, rate) -> None:
    """A 16-bit mono WAV at any sample rate, which `features.write_wav`,
    fixed at 24 kHz, cannot write."""
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())


def write_raw_feat(path, array) -> None:
    """A FEAT1 file holding `array` as float32 as it is, NaN and infinity
    included, which `featio.write_feat` refuses to write."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = b"FEAT1" + struct.pack(f"<BI{arr.ndim}I", 1, arr.ndim, *arr.shape)
    path.write_bytes(header + arr.tobytes())


def config_block_lines(path) -> list[str]:
    """The lines of a checkpoint's config block."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 5)  # after the magic and the u8 version
    return data[9 : 9 + length].decode("utf-8").splitlines()


def array_spans(path) -> dict[str, tuple[int, int]]:
    """The (start, stop) byte span of each array of a checkpoint, by the
    name its errors give it: the parameter's, or ``adam.m.`` or ``adam.v.``
    and the parameter's for a moment.  Three sections follow the config
    block, each holding its config's parameter layout in order."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 5)
    at = 9 + length
    layout = parameter_layout(load_checkpoint(path, optimizer=False).config.model_config())
    spans = {}
    for prefix in ("", "adam.m.", "adam.v."):
        for name, shape, _ in layout:
            spans[prefix + name] = (at, at + 8 * math.prod(shape))
            at = spans[prefix + name][1]
    return spans


def layout_mismatch(path, spans: dict[str, tuple[int, int]], size: int) -> str:
    """`load_checkpoint`'s error on the file at `path` cut or extended to
    `size` bytes, whose arrays sat at `spans` when it was whole."""
    start, stop = min(a for a, _ in spans.values()), max(b for _, b in spans.values())
    return f"{path}: {size - start} bytes after the config block, its parameter layout needs {stop - start}"


def cut_array(data: bytes, span: tuple[int, int], keep: int = 0) -> bytes:
    """`data` without the bytes of the array at `span` past its first `keep`."""
    return data[: span[0] + keep] + data[span[1] :]


def put_value(data: bytes, span: tuple[int, int], index: int, value: float) -> bytes:
    """`data` with element `index` (flat) of the array at `span` set to `value`."""
    at = span[0] + 8 * index
    return data[:at] + struct.pack("<d", value) + data[at + 8 :]


def with_setting(cfg_path, out_path, key, value):
    """Writes a copy of a config file with one key's value replaced."""
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in cfg_path.read_text().splitlines()]
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def set_config_value(path, key, value) -> None:
    """Rewrite one key's value in a checkpoint's config block."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 5)
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in config_block_lines(path)]
    block = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(block)) + block + data[9 + length :])


TEST_CFG = RunConfig(
    n_mels=16,
    ppg_dim=16,
    diffusion_steps=10,
    layers=2,
    channels=8,
    cond_dim=16,
    n_bins=16,
    n_iter=300,
    lr=1e-3,
    seed=3,
    batch=2,
    segment_frames=32,
    log_every=5,
)

SMALL_CFG = RunConfig(**{**TEST_CFG.__dict__, "n_iter": 15, "log_every": 1})


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Config files plus two 1-second synthetic WAVs."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(serialize_config(TEST_CFG))
    cfg_small = root / "small.cfg"
    cfg_small.write_text(serialize_config(SMALL_CFG))
    wavs = []
    for i, freq in enumerate((220.0, 330.0)):
        path = root / f"utt{i}.wav"
        write_wav(path, synth_voice(freq, seed=i))
        wavs.append(path)
    return {"root": root, "cfg": cfg_path, "cfg_small": cfg_small, "wavs": wavs}
