"""A seeded corruption sweep over every input of `extract`, `schedule`,
`convert`, `eval` and `train`.

A workspace is built through the CLI at `SMALL_CFG`: two 0.5 s WAVs,
extracted and trained.  Each case damages input files (the WAV, the
config, the checkpoint, the PPG, F0, loudness or mel FEAT1 file, or the mel
on `eval`'s ref side; one file, or several in a fixed case) and runs every
command that reads them through `cli.main` in process.  `train`
gets its own config, a 3-iteration `SMALL_CFG`, and resumes from a
checkpoint of 2 iterations, so each of its cases trains a step or more; its
data directory holds both utterances, one of them damaged.  A key a config
leaves out takes its published default, so a config cut between lines would
train the published model for hours; `train`'s config lists `ppg_dim`
last, and such a cut fails on the corpus's PPG width instead.  A case
passes if the command exits 0, or if it exits 1 with exactly one `error:`
line and writes none of its outputs; an exception escaping `cli.main` (a
traceback) fails it.  A fixed case also names the file its `error:` line
must begin with: the damaged input where the command reads it, or the
output the command refused to write.  Payload damage that leaves every
value finite may exit 0: neither FEAT1 nor DSVC carries a checksum.
Damage every reader can see must exit 1: a binary file cut short, and each
fixed case.

The mutations are cuts at any length (odd and even, inside the header or
the data), flips of one header byte, flips of one payload byte, and bytes
appended, drawn from `RandomStream(seed)`; the fixed cases add every class
of damage that once ended in a traceback or in a silent bad output.
"""

import dataclasses
import shutil
import struct

import numpy as np
import pytest

from singvc import cli
from singvc.config import serialize_config
from singvc.features import write_wav
from singvc.rng import RandomStream
from singvc.training import load_checkpoint, save_checkpoint

from conftest import SMALL_CFG, array_spans, synth_voice

SEEDS = (0, 1)
PER_KIND = 8  # random mutations per seed, input, command and kind
KINDS = ("cut", "header_flip", "payload_flip", "append")
# the file format of an input whose name is not its format
FORMAT = {"train_config": "config", "resume": "ckpt"}


def header_size(kind: str, data: bytes) -> int:
    """Bytes before the payload: the WAV's 44-byte header, FEAT1's magic,
    version, rank and dims, DSVC's magic, version and config block; a
    config file is all header."""
    if kind == "wav":
        return 44
    if kind == "config":
        return len(data)
    if kind == "ckpt":
        return 9 + struct.unpack_from("<I", data, 5)[0]
    return 10 + 4 * struct.unpack_from("<I", data, 6)[0]


def flip(data: bytes, at: int, mask: int) -> bytes:
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]


def mutate(data: bytes, header: int, kind: str, rng: RandomStream) -> bytes | None:
    """`data` damaged by one mutation of `kind`; None where the file has no
    byte of that kind to damage (a config file has no payload)."""
    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi)[0])

    if kind == "cut":
        return data[: pick(0, len(data))]
    if kind == "append":
        return data + bytes(int(b) for b in rng.integers(0, 256, pick(1, 17)))
    lo, hi = (0, header) if kind == "header_flip" else (header, len(data))
    if lo >= hi:
        return None
    return flip(data, pick(lo, hi), pick(1, 256))


def ppg_dim_last(cfg) -> str:
    """`cfg` as a config file with `ppg_dim` moved to its last line."""
    lines = serialize_config(cfg).splitlines()
    return "\n".join(sorted(lines, key=lambda line: line.startswith("ppg_dim ="))) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "run.cfg"
    cfg.write_text(serialize_config(SMALL_CFG))
    feats = root / "feats"
    for i, freq in enumerate((220.0, 330.0)):
        wav = root / f"utt{i}.wav"
        write_wav(wav, synth_voice(freq, seconds=0.5, seed=i))
        assert cli.main(["extract", "--wav", str(wav), "--out", str(feats), "--config", str(cfg),
                         "--synth-ppg", str(i)]) == 0
    ckpt = root / "model.ckpt"
    assert cli.main(["train", "--data", str(feats), "--config", str(cfg), "--out", str(ckpt)]) == 0
    train_cfg, resume = root / "train.cfg", root / "resume.ckpt"
    train_cfg.write_text(ppg_dim_last(dataclasses.replace(SMALL_CFG, n_iter=2)))
    assert cli.main(["train", "--data", str(feats), "--config", str(train_cfg), "--out", str(resume)]) == 0
    train_cfg.write_text(ppg_dim_last(dataclasses.replace(SMALL_CFG, n_iter=3)))
    inputs = {"wav": root / "utt0.wav", "config": cfg, "ckpt": ckpt, "train_config": train_cfg,
              "resume": resume, **{kind: feats / f"utt0.{kind}.feat" for kind in ("ppg", "f0", "loud", "mel")},
              "ref_mel": feats / "utt0.mel.feat"}
    return {"root": root, "feats": feats, "inputs": inputs}


def command(name: str, paths: dict, feats, out):
    """(argv, output paths, {input: the path the command reads it from}) of
    one command on `paths`, writing under `out`."""
    if name == "extract":
        return (["extract", "--wav", paths["wav"], "--out", out / "feats", "--config", paths["config"],
                 "--synth-ppg", 0], [out / "feats"], paths)
    if name == "extract_ppg":
        return (["extract", "--wav", paths["wav"], "--out", out / "feats", "--config", paths["config"],
                 "--ppg", paths["ppg"]], [out / "feats"], paths)
    if name in ("train", "train_resume"):
        # the damaged feature file stands in for its clean copy in --data
        data = out / "data"
        data.mkdir()
        for src in feats.glob("*.feat"):
            shutil.copyfile(src, data / src.name)
        reads = dict(paths)
        for kind in ("ppg", "f0", "loud", "mel"):
            reads[kind] = data / f"utt0.{kind}.feat"
            shutil.copyfile(paths[kind], reads[kind])
        resume = ["--resume", paths["resume"]] if name == "train_resume" else []
        return (["train", "--data", data, "--config", paths["train_config"], "--out", out / "m.ckpt", *resume],
                [out / "m.ckpt"], reads)
    if name == "schedule":
        return ["schedule", "--config", paths["config"], "--out", out / "s.csv"], [out / "s.csv"], paths
    if name == "convert":
        return (["convert", "--ckpt", paths["ckpt"], "--ppg", paths["ppg"], "--f0", paths["f0"],
                 "--loud", paths["loud"], "--out", out / "c.feat", "--denorm", "--wav", out / "c.wav"],
                [out / "c.feat", out / "c.wav"], paths)
    # eval: the damaged F0 or mel file stands in for its clean copy on the hyp
    # side, the damaged ref mel on the ref side
    reads = dict(paths)
    for side, kinds in (("ref", {"mel": "ref_mel"}), ("hyp", {"f0": "f0", "mel": "mel"})):
        (out / side).mkdir()
        for src in feats.glob("*.feat"):
            shutil.copyfile(src, out / side / src.name)
        for kind, target in kinds.items():
            reads[target] = out / side / f"utt0.{kind}.feat"
            shutil.copyfile(paths[target], reads[target])
    return ["eval", "--ref", out / "ref", "--hyp", out / "hyp", "--out", out / "r.csv"], [out / "r.csv"], reads


READERS = {
    "wav": ("extract",),
    "config": ("extract", "schedule"),
    "ppg": ("extract_ppg", "convert"),
    "ckpt": ("convert",),
    "f0": ("convert", "eval"),
    "loud": ("convert",),
    "mel": ("eval",),
    "ref_mel": ("eval",),
}
TRAIN_READERS = {
    "train_config": ("train",),
    **{kind: ("train",) for kind in ("ppg", "f0", "loud", "mel")},
    "resume": ("train_resume",),
}


def run_case(workspace, capsys, case: str, damage: dict, name: str, refuse: bool,
             named: str | None) -> str | None:
    """Runs `name` with each input in `damage` replaced by its bytes there;
    the reason the case fails, or None if it passes.  With `refuse`, exit 0
    fails it; with `named`, an input or the file name of an output, an
    error that does not begin with that file's path fails it."""
    out = workspace["root"] / "case"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    paths = dict(workspace["inputs"])
    for target, data in damage.items():
        paths[target] = out / f"{target}-{paths[target].name}"
        paths[target].write_bytes(data)
    argv, outputs, reads = command(name, paths, workspace["feats"], out)
    capsys.readouterr()
    try:
        code = cli.main([str(a) for a in argv])
    except Exception as exc:  # a traceback on the command line
        return f"{case}: {name} raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 0:
        return f"{case}: {name} exited 0" if refuse else None
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code != 1 or len(errors) != 1:
        return f"{case}: {name} exited {code} with stderr {err!r}"
    written = [p.name for p in outputs if p.exists()]
    if written:
        return f"{case}: {name} exited 1 ({errors[0]}) but wrote {written}"
    if named is not None:
        path = reads[named] if named in reads else next(p for p in outputs if p.name == named)
        if not errors[0].startswith(f"error: {path}: "):
            return f"{case}: {name}'s {errors[0]!r} does not name {path}"
    return None


def damaged_checkpoint(path, damage) -> bytes:
    """The bytes of the checkpoint at `path` altered by `damage`;
    `load_checkpoint` and `save_checkpoint` do the encoding."""
    ckpt = load_checkpoint(path)
    damage(ckpt)
    out = path.with_name("fixed.ckpt")
    save_checkpoint(out, ckpt)
    return out.read_bytes()


# a FEAT1 header whose dims multiply past 2**64
HUGE_FEAT1 = b"FEAT1" + struct.pack("<BI3I", 1, 3, 2**22, 2**21, 2**21)


def set_item(name, index, value):
    return lambda ckpt: ckpt.params[name].__setitem__(index, value)


def cut_after(path, name: str) -> bytes:
    """The checkpoint at `path` cut after its array `name`, as
    `conftest.array_spans` names it: its sections hold the parameters, then
    adam.m, then adam.v."""
    return path.read_bytes()[: array_spans(path)[name][1]]


def narrow_mel(frames: int, depth: int) -> bytes:
    """A FEAT1 mel of `frames` frames and `depth` mel bins, each bin of a
    frame holding the frame's index."""
    values = np.repeat(np.arange(frames, dtype="<f4"), depth)
    return b"FEAT1" + struct.pack("<BI2I", 1, 2, frames, depth) + values.tobytes()


def zero_frame_mel(depth: int) -> bytes:
    """A FEAT1 mel of `depth` mel bins and no frames."""
    return b"FEAT1" + struct.pack("<BI2I", 1, 2, 0, depth)


def fixed_cases(inputs) -> list[tuple[str, dict, str]]:
    """(case, {input: damaged bytes}, the file its error names) of every
    damage class once known to end in a traceback or in a bad output
    written with exit 0."""
    wav = inputs["wav"].read_bytes()
    return [
        ("wav cut inside a sample", {"wav": wav[:-1]}, "wav"),
        ("wav cut by one sample", {"wav": wav[:-2]}, "wav"),
        ("wav cut by 1000 samples", {"wav": wav[:-2000]}, "wav"),
        ("fmt size flip: wave's EOFError", {"wav": flip(wav, 16, 0x10)}, "wav"),
        ("fmt size flip: wave's RuntimeError", {"wav": flip(wav, 16, 0x80)}, "wav"),
        ("FEAT1 dims past 2**64", {"mel": HUGE_FEAT1}, "mel"),
        # eval reads the ref side first
        ("mel depth 0 on both sides", {"ref_mel": narrow_mel(5, 0), "mel": narrow_mel(6, 0)}, "ref_mel"),
        # one bin gives one cepstral coefficient, c0, which MCD leaves out
        ("mel depth 1 on both sides", {"ref_mel": narrow_mel(5, 1), "mel": narrow_mel(6, 1)}, "ref_mel"),
        ("mel of 0 frames on both sides", {"ref_mel": zero_frame_mel(16), "mel": zero_frame_mel(16)}, "ref_mel"),
        ("NaN checkpoint record",
         {"ckpt": damaged_checkpoint(inputs["ckpt"], set_item("out_conv2.b", 0, np.nan))}, "ckpt"),
        ("infinite checkpoint record",
         {"ckpt": damaged_checkpoint(inputs["ckpt"], set_item("layer0.dilated.w", (0, 0, 0), np.inf))}, "ckpt"),
        # every record is finite: the WAV that Griffin-Lim makes of the mel is not
        ("bias past Griffin-Lim's exp",
         {"ckpt": damaged_checkpoint(inputs["ckpt"], set_item("out_conv2.b", slice(None), -1e3))}, "c.wav"),
    ]


def train_fixed_cases(inputs) -> list[tuple[str, dict, str]]:
    """`fixed_cases` for the files `train` reads."""
    return [
        ("FEAT1 dims past 2**64", {"mel": HUGE_FEAT1}, "mel"),
        ("NaN resume record",
         {"resume": damaged_checkpoint(inputs["resume"], set_item("out_conv2.b", 0, np.nan))}, "resume"),
        ("infinite resume record",
         {"resume": damaged_checkpoint(inputs["resume"], set_item("layer0.dilated.w", (0, 0, 0), np.inf))},
         "resume"),
        # every checkpoint holds both moment sets, so a cut before either fails
        ("resume cut after its parameters", {"resume": cut_after(inputs["resume"], "out_conv2.b")}, "resume"),
        ("resume cut between adam.m and adam.v",
         {"resume": cut_after(inputs["resume"], "adam.m.out_conv2.b")}, "resume"),
    ]


def sweep(inputs, readers, fixed):
    """Yields (case, {input: damaged bytes}, command, whether it must exit
    1, the file its error must name or None) for the `fixed` cases and
    `PER_KIND` seeded mutations of each kind, for every input in `readers`
    and every command that reads it; one at a time, since a damaged
    checkpoint is megabytes."""
    for case, damage, named in fixed:
        for name in sorted(set().union(*(readers[target] for target in damage))):
            yield case, damage, name, True, named
    for seed in SEEDS:
        for target, names in readers.items():
            data = inputs[target].read_bytes()
            form = FORMAT.get(target, target)
            header = header_size(form, data)
            for name in names:
                for kind in KINDS:
                    rng = RandomStream(seed).split(f"{target}-{name}-{kind}")
                    for i in range(PER_KIND):
                        damaged = mutate(data, header, kind, rng)
                        if damaged is not None:
                            refuse = kind == "cut" and form != "config"
                            yield f"seed {seed} {target} {kind} #{i}", {target: damaged}, name, refuse, None


def check_all(workspace, capsys, cases) -> None:
    failures, count = [], 0
    for count, case in enumerate(cases, 1):
        if failure := run_case(workspace, capsys, *case):
            failures.append(failure)
    assert not failures, f"{len(failures)} of {count} cases failed:\n" + "\n".join(failures[:20])


def test_every_damaged_input_exits_cleanly(workspace, capsys):
    inputs = workspace["inputs"]
    check_all(workspace, capsys, sweep(inputs, READERS, fixed_cases(inputs)))


def test_every_damaged_train_input_exits_cleanly(workspace, capsys):
    inputs = workspace["inputs"]
    check_all(workspace, capsys, sweep(inputs, TRAIN_READERS, train_fixed_cases(inputs)))
