"""Command-line pipeline: extract | train | convert | eval | schedule | gradcheck.

Exit codes: 0 success, 1 runtime error (running out of memory included), 2
usage error.  All randomness flows from explicit --seed flags.  Every run
setting comes from a `--config` file or a checkpoint's config block, and is
checked as it is read, so a bad one exits 1 before any work.  So does an
output path that names a directory; an output's missing parent directories
are made before the work starts.

`convert` projects the conditioner into the residual layers once
(`Denoiser.prepare`) and runs every sampling step on that projection.

`eval` scores the utterances whose `*.mel.feat` stem is in both directories,
and finding none is an error.  It aligns each pair once: MCD's cepstral DTW
path (`metrics.mcd`) also indexes the two F0 contours for FPC, so each F0
file must have its mel file's frame count.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import featio, gradcheck, metrics
from .config import RunConfig, load_config
from .diffusion import sample
from .errors import DataError, InputError, MetricUndefinedError, SingvcError
from .features import (
    compute_log_mel,
    compute_loudness,
    estimate_f0,
    invert_log_mel,
    read_wav,
    synth_ppg,
    write_wav,
)
from .rng import RandomStream
from .schedule import schedule_csv
from .training import (
    TrainingSample,
    conditioner_bins,
    load_checkpoint,
    train,
)

_ERRORS = (SingvcError, OSError)


def _output_path(path):
    """`path` (None passes through) checked before any work is done: a
    directory there is an `InputError`, and missing parents are made."""
    if path is None:
        return None
    path = Path(path)
    if path.is_dir():
        raise InputError(f"{path}: is a directory, not a file to write")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    wav = read_wav(args.wav)
    log_mel = compute_log_mel(wav, cfg.n_mels)
    f0 = estimate_f0(wav)
    loud = compute_loudness(wav)
    frames = log_mel.shape[0]

    if args.ppg is not None:
        ppg = _read_rank(args.ppg, 2)
        if ppg.shape[0] != frames:
            raise InputError(f"{args.ppg}: PPG frames {ppg.shape[0]} != mel frames {frames}")
        if ppg.shape[1] != cfg.ppg_dim:
            raise InputError(f"{args.ppg}: PPG dim {ppg.shape[1]} != configured ppg_dim {cfg.ppg_dim}")
    else:
        ppg = synth_ppg(frames, cfg.ppg_dim, seed=args.synth_ppg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.wav).stem
    featio.write_feat(out / f"{stem}.mel.feat", log_mel)
    featio.write_feat(out / f"{stem}.f0.feat", f0)
    featio.write_feat(out / f"{stem}.loud.feat", loud)
    featio.write_feat(out / f"{stem}.ppg.feat", ppg)
    return 0


def load_corpus(data_dir) -> list[TrainingSample]:
    root = Path(data_dir)
    stems = sorted(p.name[: -len(".mel.feat")] for p in root.glob("*.mel.feat"))
    if not stems:
        raise DataError(f"no *.mel.feat files in {root}")
    samples = []
    for stem in stems:
        paths = {kind: root / f"{stem}.{kind}.feat" for kind in ("mel", "f0", "loud", "ppg")}
        missing = [str(p) for p in paths.values() if not p.exists()]
        if missing:
            raise DataError(f"utterance {stem!r}: missing feature files {missing}")
        samples.append(
            TrainingSample(
                name=stem,
                ppg=featio.read_feat(paths["ppg"]),
                f0=featio.read_feat(paths["f0"]),
                loudness=featio.read_feat(paths["loud"]),
                log_mel=featio.read_feat(paths["mel"]),
            )
        )
    return samples


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    data = load_corpus(args.data)
    resume = load_checkpoint(args.resume) if args.resume else None
    out, log = _output_path(args.out), _output_path(args.log)
    _, losses = train(data, cfg, resume=resume, log_path=log, ckpt_path=out)
    if losses:
        print(f"trained to iteration {cfg.n_iter}: final loss {losses[-1]:.6f}", file=sys.stderr)
    return 0


def _shift_f0(hz: np.ndarray, shift: float) -> np.ndarray:
    """Voiced frames (hz > 0) times exp(shift), unvoiced frames left at 0.

    A shift that is not finite, or that moves a voiced frame's F0 to
    infinity or to zero, would silently make frames unvoiced or pin them to
    the top melody bin, so it is an `InputError`."""
    if not math.isfinite(shift):
        raise InputError(f"--logf0-shift must be finite, got {shift}")
    try:
        # math.exp, not np.exp: numpy's can differ in the last bit (at -3.3,
        # for one), which would move the shifted F0 of every voiced frame
        factor = math.exp(shift)
    except OverflowError:
        raise InputError(f"--logf0-shift {shift} overflows: exp({shift}) is not finite") from None
    voiced = hz > 0
    with np.errstate(over="ignore"):
        shifted = np.where(voiced, hz * factor, 0.0)
    bad = voiced & ~(np.isfinite(shifted) & (shifted > 0))
    if bad.any():
        frame = int(bad.argmax())
        raise InputError(f"--logf0-shift {shift} takes frame {frame}'s F0 of {hz[frame]} Hz "
                         f"to {shifted[frame]} Hz")
    return shifted


def _read_rank(path, rank: int) -> np.ndarray:
    """A feature file's values; any other rank is an `InputError` naming
    the file."""
    values = featio.read_feat(path)
    if values.ndim != rank:
        raise InputError(f"{path}: expected a rank-{rank} feature, got rank {values.ndim}")
    return values


def cmd_convert(args) -> int:
    out, wav = _output_path(args.out), _output_path(args.wav)
    ckpt = load_checkpoint(args.ckpt, optimizer=False)
    cfg = ckpt.config
    model = ckpt.build_model()

    ppg = _read_rank(args.ppg, 2)
    if len(ppg) == 0:
        raise InputError(f"{args.ppg}: zero frames, nothing to convert")
    if ppg.shape[1] != cfg.ppg_dim:
        raise InputError(f"{args.ppg}: PPG dim {ppg.shape[1]} != checkpoint's ppg_dim {cfg.ppg_dim}")
    hz = _read_rank(args.f0, 1)
    loud_values = _read_rank(args.loud, 1)
    for path, values in ((args.f0, hz), (args.loud, loud_values)):
        if len(values) != len(ppg):
            raise InputError(f"{path}: {len(values)} frames != {len(ppg)} in the PPG file {args.ppg}")

    if args.logf0_shift:
        hz = _shift_f0(hz, args.logf0_shift)
    f0_bins, loud_bins = conditioner_bins(ckpt.stats, hz, loud_values, cfg.n_bins)
    cond = model.prepare(model.build_conditioner(ppg, f0_bins, loud_bins))
    rng = RandomStream(args.seed).split("sample")
    mel = sample(cfg.schedule(), model, cond, len(ppg), cfg.n_mels, rng)

    log_mel = ckpt.stats.denormalize_mel(mel)
    # both outputs are checked before either is written
    payload = featio.as_payload(out, log_mel if args.denorm else mel)
    if wav:
        write_wav(wav, invert_log_mel(log_mel))
    featio.write_feat(out, payload)
    return 0


def cmd_eval(args) -> int:
    ref_dir, hyp_dir = Path(args.ref), Path(args.hyp)
    for root in (ref_dir, hyp_dir):
        if not root.is_dir():
            raise InputError(f"{root}: not a directory")
    out = _output_path(args.out)
    ref_stems = {p.name[: -len(".mel.feat")] for p in ref_dir.glob("*.mel.feat")}
    hyp_stems = {p.name[: -len(".mel.feat")] for p in hyp_dir.glob("*.mel.feat")}
    matched = sorted(ref_stems & hyp_stems)
    if not matched:
        raise InputError(f"{ref_dir}, {hyp_dir}: no *.mel.feat stem in both, nothing to evaluate")
    unmatched = sorted(ref_stems ^ hyp_stems)
    for stem in unmatched:
        side = "hyp" if stem in ref_stems else "ref"
        print(f"warning: {stem!r} missing on {side} side, skipped", file=sys.stderr)

    lines = ["utterance_id,mcd_db,fpc,frames_ref,frames_hyp"]
    for stem in matched:
        ref_path, hyp_path = ref_dir / f"{stem}.mel.feat", hyp_dir / f"{stem}.mel.feat"
        mel_ref, mel_hyp = _read_rank(ref_path, 2), _read_rank(hyp_path, 2)
        if mel_ref.shape[1] != mel_hyp.shape[1]:
            raise InputError(f"{hyp_path}: mel depth {mel_hyp.shape[1]} != {mel_ref.shape[1]} in {ref_path}")
        if mel_ref.shape[1] < 2:
            raise InputError(f"{ref_path}: mel depth {mel_ref.shape[1]}, MCD needs at least 2 mel bins")
        for mel_path, mel in ((ref_path, mel_ref), (hyp_path, mel_hyp)):
            if len(mel) == 0:
                raise InputError(f"{mel_path}: 0 frames, nothing to align")
        mcd_db, path = metrics.mcd(metrics.mel_to_cepstrum(mel_ref), metrics.mel_to_cepstrum(mel_hyp))
        fpc_field = ""
        ref_f0, hyp_f0 = ref_dir / f"{stem}.f0.feat", hyp_dir / f"{stem}.f0.feat"
        if ref_f0.exists() and hyp_f0.exists():
            contours = []
            for f0_path, mel_path, mel, on_path in ((ref_f0, ref_path, mel_ref, path[:, 0]),
                                                    (hyp_f0, hyp_path, mel_hyp, path[:, 1])):
                hz = _read_rank(f0_path, 1)
                if len(hz) != len(mel):
                    raise InputError(f"{f0_path}: {len(hz)} frames != {len(mel)} in the mel file {mel_path}")
                contours.append(hz[on_path])
            try:
                fpc_field = repr(metrics.fpc(*contours))
            except MetricUndefinedError as exc:
                print(f"warning: {stem!r}: {exc}", file=sys.stderr)
                fpc_field = "nan"
        else:
            print(f"warning: {stem!r}: missing f0 features, FPC skipped", file=sys.stderr)
        lines.append(f"{stem},{mcd_db!r},{fpc_field},{mel_ref.shape[0]},{mel_hyp.shape[0]}")

    print(f"evaluated {len(matched)} utterances, skipped {len(unmatched)}", file=sys.stderr)
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def cmd_schedule(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    _write_text(_output_path(args.out), schedule_csv(cfg.schedule()))
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_checks(seed=args.seed)
    print(gradcheck.report(results))
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singvc",
        description="Diffusion-based singing voice conversion at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract mel/F0/loudness (+PPG) features from a WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ppg", help="FEAT1 file with precomputed PPG features")
    group.add_argument("--synth-ppg", type=int, metavar="SEED", help="generate synthetic PPGs")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the conversion model on an extracted corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--log", default=None, help="loss CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="generate a mel spectrogram from conditioner features")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ppg", required=True)
    p.add_argument("--f0", required=True)
    p.add_argument("--loud", required=True)
    p.add_argument("--out", required=True, help="output mel FEAT1 path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wav", default=None, help="also write best-effort audio here")
    p.add_argument("--denorm", action="store_true", help="write log-mel instead of normalized mel")
    p.add_argument("--logf0-shift", type=float, default=0.0, help="log-F0 shift toward the target range")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="MCD/FPC report between two feature directories")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("schedule", help="dump the noise schedule tables as CSV")
    p.add_argument("--config", default=None, help="run config (default: the published setup)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
