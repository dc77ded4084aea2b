"""Command-line pipeline: extract | train | convert | eval | schedule | gradcheck.

Exit codes: 0 success, 1 runtime error, 2 usage error.  All randomness flows
from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import featio, gradcheck, metrics
from .config import load_config
from .diffusion import sample
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    FormatError,
    InputError,
    MetricUndefinedError,
    ShapeError,
)
from .features import (
    F0Contour,
    compute_log_mel,
    compute_loudness,
    estimate_f0,
    invert_log_mel,
    load_ppg,
    read_wav,
    synth_ppg,
    write_wav,
)
from .rng import RandomStream
from .schedule import linear_schedule, schedule_csv
from .training import (
    TrainingSample,
    conditioner_bins,
    load_checkpoint,
    train,
)

_ERRORS = (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    FormatError,
    InputError,
    MetricUndefinedError,
    ShapeError,
    OSError,
)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    wav, sr = read_wav(args.wav)
    mel_cfg = cfg.mel_config()
    log_mel = compute_log_mel(wav, mel_cfg, sample_rate=sr)
    f0 = estimate_f0(wav, sr, cfg.hop_size, cfg.f0_min, cfg.f0_max)
    loud = compute_loudness(wav, sr, cfg.loud_fft, cfg.loud_win, cfg.hop_size)
    frames = log_mel.shape[0]

    if args.ppg is not None:
        ppg = load_ppg(args.ppg)
        if ppg.shape[0] != frames:
            raise InputError(f"PPG frames {ppg.shape[0]} != mel frames {frames}")
        if ppg.shape[1] != cfg.ppg_dim:
            raise InputError(f"PPG dim {ppg.shape[1]} != configured {cfg.ppg_dim}")
    else:
        ppg = synth_ppg(frames, cfg.ppg_dim, seed=args.synth_ppg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.wav).stem
    featio.write_feat(out / f"{stem}.mel.feat", log_mel)
    featio.write_feat(out / f"{stem}.f0.feat", f0.hz)
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
                f0=F0Contour(hz=featio.read_feat(paths["f0"])),
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
    _, losses = train(data, cfg, resume=resume, log_path=args.log, ckpt_path=args.out)
    if losses:
        print(f"trained to iteration {cfg.n_iter}: final loss {losses[-1]:.6f}", file=sys.stderr)
    return 0


def cmd_convert(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.config
    model = ckpt.build_model()

    ppg = load_ppg(args.ppg)
    hz = featio.read_feat(args.f0)
    loud_values = featio.read_feat(args.loud)
    if hz.ndim != 1 or loud_values.ndim != 1:
        raise FormatError("f0 and loudness features must be rank 1")
    frames, ppg_dim = ppg.shape
    if not (len(hz) == len(loud_values) == frames):
        raise InputError(
            f"feature frame counts differ: ppg {frames}, f0 {len(hz)}, loudness {len(loud_values)}"
        )
    if ppg_dim != cfg.ppg_dim:
        raise ConfigError(f"PPG dim {ppg_dim} != checkpoint model dim {cfg.ppg_dim}")

    if args.logf0_shift:
        hz = np.where(hz > 0, hz * math.exp(args.logf0_shift), 0.0)
    f0_bins, loud_bins = conditioner_bins(ckpt.stats, F0Contour(hz=hz), loud_values, cfg.n_bins)
    cond = model.build_conditioner(ppg, f0_bins, loud_bins)
    rng = RandomStream(args.seed).split("sample")
    mel = sample(ckpt.schedule, model, cond, frames, cfg.n_mels, rng).data

    featio.write_feat(args.out, ckpt.stats.mel.denormalize(mel) if args.denorm else mel)
    if args.wav:
        audio = invert_log_mel(ckpt.stats.mel.denormalize(mel), cfg.mel_config())
        write_wav(args.wav, audio, cfg.sample_rate)
    return 0


def _aligned_fpc(ref_hz: np.ndarray, hyp_hz: np.ndarray) -> float:
    if len(ref_hz) != len(hyp_hz):
        path, _ = metrics.dtw(ref_hz[:, None], hyp_hz[:, None])
        idx = np.array(path.pairs)
        ref_hz, hyp_hz = ref_hz[idx[:, 0]], hyp_hz[idx[:, 1]]
    return metrics.fpc(F0Contour(hz=ref_hz), F0Contour(hz=hyp_hz))


def cmd_eval(args) -> int:
    ref_dir, hyp_dir = Path(args.ref), Path(args.hyp)
    ref_stems = {p.name[: -len(".mel.feat")] for p in ref_dir.glob("*.mel.feat")}
    hyp_stems = {p.name[: -len(".mel.feat")] for p in hyp_dir.glob("*.mel.feat")}
    matched = sorted(ref_stems & hyp_stems)
    unmatched = sorted(ref_stems ^ hyp_stems)
    for stem in unmatched:
        side = "hyp" if stem in ref_stems else "ref"
        print(f"warning: {stem!r} missing on {side} side, skipped", file=sys.stderr)

    lines = ["utterance_id,mcd_db,fpc,frames_ref,frames_hyp"]
    for stem in matched:
        mel_ref = featio.read_feat(ref_dir / f"{stem}.mel.feat")
        mel_hyp = featio.read_feat(hyp_dir / f"{stem}.mel.feat")
        mcd_db = metrics.mcd(metrics.mel_to_cepstrum(mel_ref), metrics.mel_to_cepstrum(mel_hyp))
        fpc_field = ""
        ref_f0, hyp_f0 = ref_dir / f"{stem}.f0.feat", hyp_dir / f"{stem}.f0.feat"
        if ref_f0.exists() and hyp_f0.exists():
            try:
                fpc_field = repr(_aligned_fpc(featio.read_feat(ref_f0), featio.read_feat(hyp_f0)))
            except MetricUndefinedError as exc:
                print(f"warning: {stem!r}: {exc}", file=sys.stderr)
                fpc_field = "nan"
        else:
            print(f"warning: {stem!r}: missing f0 features, FPC skipped", file=sys.stderr)
        lines.append(f"{stem},{mcd_db!r},{fpc_field},{mel_ref.shape[0]},{mel_hyp.shape[0]}")

    print(f"evaluated {len(matched)} utterances, skipped {len(unmatched)}", file=sys.stderr)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_schedule(args) -> int:
    _write_text(args.out, schedule_csv(linear_schedule(args.steps, args.beta_start, args.beta_end)))
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
    p.add_argument("--T", dest="steps", type=int, default=100)
    p.add_argument("--beta-start", type=float, default=1e-4)
    p.add_argument("--beta-end", type=float, default=0.06)
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


if __name__ == "__main__":
    sys.exit(main())
