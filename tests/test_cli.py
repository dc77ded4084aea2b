import inspect
import struct

import numpy as np
import pytest

from singvc import cli, errors, featio, metrics
from singvc.cli import main
from singvc.denoiser import Denoiser
from singvc.features import write_wav
from singvc.training import load_checkpoint, save_checkpoint

from conftest import (array_spans, config_block_lines, cut_array, layout_mismatch, put_value, set_config_value,
                      synth_voice, write_pcm_wav, write_raw_feat)


def run(*argv):
    return main([str(a) for a in argv])


def with_setting(cfg_path, out_path, key, value):
    """Writes a copy of a config file with one key's value replaced."""
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in cfg_path.read_text().splitlines()]
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


@pytest.fixture(scope="session")
def extracted(cli_workspace):
    out = cli_workspace["root"] / "feats"
    for i, wav in enumerate(cli_workspace["wavs"]):
        assert run("extract", "--wav", wav, "--out", out, "--config", cli_workspace["cfg"],
                   "--synth-ppg", i) == 0
    return out


@pytest.fixture(scope="session")
def trained(cli_workspace, extracted):
    ckpt = cli_workspace["root"] / "model.ckpt"
    log = cli_workspace["root"] / "loss.csv"
    assert run("train", "--data", extracted, "--config", cli_workspace["cfg"],
               "--out", ckpt, "--log", log) == 0
    return ckpt


class TestExtract:
    def test_writes_aligned_feature_files(self, extracted):
        mel = featio.read_feat(extracted / "utt0.mel.feat")
        f0 = featio.read_feat(extracted / "utt0.f0.feat")
        loud = featio.read_feat(extracted / "utt0.loud.feat")
        ppg = featio.read_feat(extracted / "utt0.ppg.feat")
        assert mel.shape == (100, 16)
        assert len(f0) == len(loud) == ppg.shape[0] == 100

    def test_f0_tracks_the_note(self, extracted):
        hz = featio.read_feat(extracted / "utt0.f0.feat")
        voiced = hz[hz > 0]
        assert len(voiced) > 80
        assert abs(np.median(voiced) - 220.0) < 6.0

    def test_rerun_is_byte_identical(self, cli_workspace, extracted):
        again = cli_workspace["root"] / "feats2"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", again,
                   "--config", cli_workspace["cfg"], "--synth-ppg", 0) == 0
        for kind in ("mel", "f0", "loud", "ppg"):
            a = (extracted / f"utt0.{kind}.feat").read_bytes()
            b = (again / f"utt0.{kind}.feat").read_bytes()
            assert a == b, kind

    def test_missing_ppg_choice_is_usage_error(self, cli_workspace):
        with pytest.raises(SystemExit) as exc:
            run("extract", "--wav", cli_workspace["wavs"][0], "--out",
                cli_workspace["root"] / "x", "--config", cli_workspace["cfg"])
        assert exc.value.code == 2

    def test_sample_rate_mismatch_is_error(self, cli_workspace, tmp_path, capsys):
        wav = tmp_path / "low.wav"
        write_pcm_wav(wav, synth_voice(220.0, sr=16000), 16000)
        out = tmp_path / "feats"
        assert run("extract", "--wav", wav, "--out", out, "--config", cli_workspace["cfg"],
                   "--synth-ppg", 0) == 1
        assert capsys.readouterr().err == f"error: {wav}: sample rate 16000 Hz != 24000 Hz\n"
        assert not out.exists()

    def test_bad_setting_is_error(self, cli_workspace, tmp_path, capsys):
        cfg = with_setting(cli_workspace["cfg"], tmp_path / "bad.cfg", "n_mels", 0)
        out = tmp_path / "feats"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", out, "--config", cfg,
                   "--synth-ppg", 0) == 1
        assert capsys.readouterr().err == "error: n_mels must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sample_rate", 24000), ("n_fft", 1024), ("hop_size", 240),
                                            ("f0_min", 40.0), ("f0_max", 800.0)])
    def test_front_end_key_is_error(self, cli_workspace, tmp_path, capsys, key, value):
        # the audio front end is constants of `features`, not settings
        cfg = tmp_path / "old.cfg"
        cfg.write_text(cli_workspace["cfg"].read_text() + f"{key} = {value}\n")
        out = tmp_path / "feats"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", out, "--config", cfg,
                   "--synth-ppg", 0) == 1
        lines = len(cli_workspace["cfg"].read_text().splitlines())
        assert capsys.readouterr().err == f"error: line {lines + 1}: unknown key '{key}'\n"
        assert not out.exists()

    def test_truncated_wav_is_error(self, cli_workspace, tmp_path, capsys):
        wav = tmp_path / "cut.wav"
        wav.write_bytes(cli_workspace["wavs"][0].read_bytes()[:-1])  # half of the last sample
        out = tmp_path / "feats"
        assert run("extract", "--wav", wav, "--out", out, "--config", cli_workspace["cfg"],
                   "--synth-ppg", 0) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: truncated sample data (") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cut", [2, 2 * 500])
    def test_wav_cut_between_samples_is_error(self, cli_workspace, tmp_path, capsys, cut):
        # whole samples short of the header's count: 1 sample, 500 samples
        wav = tmp_path / "cut.wav"
        wav.write_bytes(cli_workspace["wavs"][0].read_bytes()[:-cut])
        out = tmp_path / "feats"
        assert run("extract", "--wav", wav, "--out", out, "--config", cli_workspace["cfg"],
                   "--synth-ppg", 0) == 1
        assert capsys.readouterr().err == (
            f"error: {wav}: truncated sample data ({48000 - cut} bytes, the header says 24000 16-bit samples)\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["frames", "dim"])
    def test_ppg_mismatch_names_the_file(self, cli_workspace, extracted, tmp_path, capsys, case):
        ppg = featio.read_feat(extracted / "utt0.ppg.feat")
        bad = tmp_path / "bad.ppg.feat"
        featio.write_feat(bad, ppg[:99] if case == "frames" else ppg[:, :15])
        out = tmp_path / "feats"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", out,
                   "--config", cli_workspace["cfg"], "--ppg", bad) == 1
        message = {"frames": "PPG frames 99 != mel frames 100", "dim": "PPG dim 15 != configured ppg_dim 16"}
        assert capsys.readouterr().err == f"error: {bad}: {message[case]}\n"
        assert not out.exists()

    def test_rank_1_ppg_is_error(self, cli_workspace, extracted, tmp_path, capsys):
        ppg = tmp_path / "column.ppg.feat"
        featio.write_feat(ppg, featio.read_feat(extracted / "utt0.ppg.feat")[:, 0])
        out = tmp_path / "feats"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", out,
                   "--config", cli_workspace["cfg"], "--ppg", ppg) == 1
        assert capsys.readouterr().err == f"error: {ppg}: expected a rank-2 feature, got rank 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 1.86 GiB for an array", ""])
    def test_out_of_memory_is_error(self, cli_workspace, tmp_path, monkeypatch, capsys, message):
        def estimate_f0(wav):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "estimate_f0", estimate_f0)
        out = tmp_path / "feats"
        assert run("extract", "--wav", cli_workspace["wavs"][0], "--out", out,
                   "--config", cli_workspace["cfg"], "--synth-ppg", 0) == 1
        detail = f" ({message})" if message else ""
        assert capsys.readouterr().err == f"error: out of memory{detail}\n"
        assert not out.exists()

    def test_missing_wav_is_runtime_error(self, cli_workspace, capsys):
        code = run("extract", "--wav", cli_workspace["root"] / "nope.wav", "--out",
                   cli_workspace["root"] / "x", "--config", cli_workspace["cfg"], "--synth-ppg", 0)
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_and_log_exist(self, cli_workspace, trained):
        assert trained.exists()
        lines = (cli_workspace["root"] / "loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,wall_ms"
        assert len(lines) > 1

    def test_final_loss_below_initial(self, cli_workspace, trained):
        rows = (cli_workspace["root"] / "loss.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_mean_loss_falls_over_run(self, cli_workspace, trained):
        # a logged row is one batch (2 x 32 frames x 16 mels), whose loss has
        # sd ~0.04 against a fall of ~0.05 over the run: the first and last
        # ten rows compare the trend, not two single batches
        rows = (cli_workspace["root"] / "loss.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_seeded_rerun_identical_loss_column(self, cli_workspace, extracted, tmp_path):
        logs = []
        for name in ("a", "b"):
            log = tmp_path / f"{name}.csv"
            assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"],
                       "--out", tmp_path / f"{name}.ckpt", "--log", log, "--seed", 11) == 0
            rows = log.read_text().splitlines()[1:]
            logs.append([r.split(",")[:2] for r in rows])
        assert logs[0] == logs[1]

    def test_rerun_checkpoint_bit_identical(self, cli_workspace, extracted, tmp_path):
        paths = [tmp_path / "r1.ckpt", tmp_path / "r2.ckpt"]
        for p in paths:
            assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"],
                       "--out", p, "--seed", 12) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_resume_continues_counter(self, cli_workspace, extracted, tmp_path):
        from singvc.training import load_checkpoint

        ckpt = tmp_path / "c.ckpt"
        assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"], "--out", ckpt) == 0
        assert load_checkpoint(ckpt).iteration == 15
        assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"],
                   "--out", ckpt, "--resume", ckpt) == 0
        assert load_checkpoint(ckpt).iteration == 15  # n_iter already reached
        # a resume that trains nothing writes nothing, so another lr is not saved
        saved = ckpt.read_bytes()
        cfg = with_setting(cli_workspace["cfg_small"], tmp_path / "lr.cfg", "lr", 0.5)
        assert run("train", "--data", extracted, "--config", cfg, "--out", ckpt, "--resume", ckpt) == 0
        assert ckpt.read_bytes() == saved

    def test_resume_past_n_iter_is_error(self, cli_workspace, extracted, tmp_path, capsys):
        ckpt, log = tmp_path / "c.ckpt", tmp_path / "loss.csv"
        assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"], "--out", ckpt) == 0
        saved = ckpt.read_bytes()
        capsys.readouterr()
        cfg = with_setting(cli_workspace["cfg_small"], tmp_path / "short.cfg", "n_iter", 7)
        assert run("train", "--data", extracted, "--config", cfg, "--out", ckpt, "--resume", ckpt,
                   "--log", log) == 1
        assert capsys.readouterr().err == "error: checkpoint is at iteration 15, past n_iter = 7\n"
        assert ckpt.read_bytes() == saved
        assert not log.exists()

    def test_non_finite_mel_is_error(self, cli_workspace, extracted, tmp_path, capsys):
        data = tmp_path / "nan_feats"
        data.mkdir()
        for src in extracted.glob("utt0.*.feat"):
            (data / src.name).write_bytes(src.read_bytes())
        mel = featio.read_feat(data / "utt0.mel.feat")
        mel[4, 2] = np.nan
        write_raw_feat(data / "utt0.mel.feat", mel)
        assert run("train", "--data", data, "--config", cli_workspace["cfg_small"],
                   "--out", tmp_path / "x.ckpt") == 1
        assert "utt0.mel.feat: non-finite value nan at index (4, 2)" in capsys.readouterr().err

    def test_bad_setting_is_error(self, cli_workspace, extracted, tmp_path, capsys):
        cfg = with_setting(cli_workspace["cfg_small"], tmp_path / "bad.cfg", "batch", 0)
        assert run("train", "--data", extracted, "--config", cfg, "--out", tmp_path / "x.ckpt") == 1
        assert capsys.readouterr().err == "error: batch must be at least 1, got 0\n"
        assert not (tmp_path / "x.ckpt").exists()

    def test_bad_schedule_fails_before_the_model_is_built(self, cli_workspace, extracted, tmp_path,
                                                          capsys, monkeypatch):
        built = []
        monkeypatch.setattr(Denoiser, "init", lambda *args: built.append(args))
        cfg = with_setting(cli_workspace["cfg_small"], tmp_path / "bad.cfg", "diffusion_steps", 1)
        assert run("train", "--data", extracted, "--config", cfg, "--out", tmp_path / "x.ckpt") == 1
        assert capsys.readouterr().err == "error: diffusion_steps must be at least 2, got 1\n"
        assert built == []

    def test_out_into_missing_directory(self, cli_workspace, extracted, tmp_path):
        ckpt, log = tmp_path / "nodir" / "sub" / "m.ckpt", tmp_path / "logs" / "loss.csv"
        assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"],
                   "--out", ckpt, "--log", log) == 0
        assert load_checkpoint(ckpt).iteration == 15
        assert len(log.read_text().splitlines()) == 16

    def test_out_naming_a_directory_fails_before_training(self, cli_workspace, extracted, tmp_path, capsys):
        target, log = tmp_path / "ckpts", tmp_path / "loss.csv"
        target.mkdir()
        assert run("train", "--data", extracted, "--config", cli_workspace["cfg_small"],
                   "--out", target, "--log", log) == 1
        assert capsys.readouterr().err == f"error: {target}: is a directory, not a file to write\n"
        assert not log.exists() and list(target.iterdir()) == []

    def test_empty_data_dir_is_error(self, cli_workspace, tmp_path):
        assert run("train", "--data", tmp_path, "--config", cli_workspace["cfg_small"],
                   "--out", tmp_path / "x.ckpt") == 1


class TestConvert:
    def test_output_frames_match_conditioner(self, cli_workspace, extracted, trained):
        out = cli_workspace["root"] / "conv0.mel.feat"
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out, "--seed", 7) == 0
        assert featio.read_feat(out).shape == (100, 16)

    def test_equal_seeds_identical_output(self, cli_workspace, extracted, trained, tmp_path):
        outs = [tmp_path / "a.feat", tmp_path / "b.feat"]
        for out in outs:
            assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                       "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                       "--out", out, "--seed", 7) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_different_seeds_differ(self, cli_workspace, extracted, trained, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.feat"
            assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                       "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                       "--out", out, "--seed", seed) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_out_into_missing_directory(self, cli_workspace, extracted, trained, tmp_path):
        out = tmp_path / "missing" / "dir" / "conv.mel.feat"
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out, "--seed", 7) == 0
        assert featio.read_feat(out).shape == (100, 16)

    def test_wav_output(self, cli_workspace, extracted, trained, tmp_path):
        from singvc.features import read_wav

        wav_path = tmp_path / "conv.wav"
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", tmp_path / "c.feat", "--wav", wav_path) == 0
        assert len(read_wav(wav_path)) == 100 * 240

    def test_denorm_flag_changes_domain(self, cli_workspace, extracted, trained, tmp_path):
        norm, denorm = tmp_path / "n.feat", tmp_path / "d.feat"
        for out, flags in ((norm, ()), (denorm, ("--denorm",))):
            assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                       "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                       "--out", out, *flags) == 0
        assert featio.read_feat(denorm).min() < featio.read_feat(norm).min()

    @pytest.mark.parametrize("kind", ["ppg", "f0", "loud"])
    def test_non_finite_feature_is_error(self, extracted, trained, tmp_path, capsys, kind):
        paths = {k: extracted / f"utt0.{k}.feat" for k in ("ppg", "f0", "loud")}
        values = featio.read_feat(paths[kind])
        values[7] = np.nan
        paths[kind] = tmp_path / f"nan.{kind}.feat"
        write_raw_feat(paths[kind], values)
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", paths["ppg"], "--f0", paths["f0"],
                   "--loud", paths["loud"], "--out", out) == 1
        assert f"nan.{kind}.feat: non-finite value nan at index (7" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def check_cut_contour(extracted, trained, tmp_path, capsys, kind):
        """`convert` with the `kind` contour cut to 50 of its 100 frames
        exits 1 with an error naming the cut file and the PPG file."""
        paths = {k: extracted / f"utt0.{k}.feat" for k in ("ppg", "f0", "loud")}
        short = tmp_path / f"short.{kind}.feat"
        featio.write_feat(short, featio.read_feat(paths[kind])[:50])
        paths[kind] = short
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", paths["ppg"], "--f0", paths["f0"],
                   "--loud", paths["loud"], "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {short}: 50 frames != 100 in the PPG file {paths['ppg']}\n")
        assert not out.exists()

    def test_frame_mismatch_is_error(self, extracted, trained, tmp_path, capsys):
        self.check_cut_contour(extracted, trained, tmp_path, capsys, "f0")

    def test_loudness_frame_mismatch_is_error(self, extracted, trained, tmp_path, capsys):
        self.check_cut_contour(extracted, trained, tmp_path, capsys, "loud")

    def test_ppg_dim_mismatch_is_error(self, extracted, trained, tmp_path, capsys):
        ppg = featio.read_feat(extracted / "utt0.ppg.feat")
        wide = tmp_path / "wide.ppg.feat"
        featio.write_feat(wide, np.concatenate([ppg, ppg[:, :1]], axis=1))
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", wide, "--f0", extracted / "utt0.f0.feat",
                   "--loud", extracted / "utt0.loud.feat", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {wide}: PPG dim 17 != checkpoint's ppg_dim 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["f0", "loud"])
    def test_rank_2_contour_is_error(self, extracted, trained, tmp_path, capsys, kind):
        paths = {k: extracted / f"utt0.{k}.feat" for k in ("ppg", "f0", "loud")}
        column = tmp_path / f"column.{kind}.feat"
        featio.write_feat(column, featio.read_feat(paths[kind])[:, None])
        paths[kind] = column
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", paths["ppg"], "--f0", paths["f0"],
                   "--loud", paths["loud"], "--out", out) == 1
        assert capsys.readouterr().err == f"error: {column}: expected a rank-1 feature, got rank 2\n"
        assert not out.exists()

    def test_rank_1_ppg_is_error(self, extracted, trained, tmp_path, capsys):
        ppg = tmp_path / "column.ppg.feat"
        featio.write_feat(ppg, featio.read_feat(extracted / "utt0.ppg.feat")[:, 0])
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", ppg, "--f0", extracted / "utt0.f0.feat",
                   "--loud", extracted / "utt0.loud.feat", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {ppg}: expected a rank-2 feature, got rank 1\n"
        assert not out.exists()

    def test_zero_frames_is_error(self, trained, tmp_path, capsys):
        paths = {kind: tmp_path / f"empty.{kind}.feat" for kind in ("ppg", "f0", "loud")}
        featio.write_feat(paths["ppg"], np.zeros((0, 16)))
        featio.write_feat(paths["f0"], np.zeros(0))
        featio.write_feat(paths["loud"], np.zeros(0))
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", paths["ppg"], "--f0", paths["f0"],
                   "--loud", paths["loud"], "--out", out) == 1
        assert capsys.readouterr().err == f"error: {paths['ppg']}: zero frames, nothing to convert\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("rng_seed", "z"), ("mel_lo", "q.0003")])
    def test_bad_state_value_is_error(self, extracted, trained, tmp_path, capsys, key, value):
        bad, out = tmp_path / "bad.ckpt", tmp_path / "x.feat"
        bad.write_bytes(trained.read_bytes())
        set_config_value(bad, key, value)
        assert run("convert", "--ckpt", bad, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: state key {key}: bad value {value!r}\n"
        assert not out.exists()

    def test_version_9_checkpoint_is_error(self, extracted, trained, tmp_path, capsys):
        # a version-9 file: its config block also sets the audio front end
        lines = config_block_lines(trained)
        front_end = ["sample_rate = 24000", "n_fft = 1024", "hop_size = 240", "f0_min = 40.0", "f0_max = 800.0"]
        block = "\n".join(front_end + lines) + "\n"
        data = trained.read_bytes()
        (length,) = struct.unpack_from("<I", data, 5)
        old, out = tmp_path / "v9.ckpt", tmp_path / "x.feat"
        old.write_bytes(b"DSVC\x09" + struct.pack("<I", len(block)) + block.encode() + data[9 + length :])
        assert run("convert", "--ckpt", old, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out) == 1
        assert capsys.readouterr().err == f"error: {old}: unsupported checkpoint version 9\n"
        assert not out.exists()

    def test_version_8_checkpoint_is_error(self, extracted, trained, tmp_path, capsys):
        # a version-8 file: its config block also sets the schedule's beta range
        lines = config_block_lines(trained)
        at = lines.index("diffusion_steps = 10") + 1
        block = "\n".join(lines[:at] + ["beta_start = 0.0001", "beta_end = 0.06"] + lines[at:]) + "\n"
        data = trained.read_bytes()
        (length,) = struct.unpack_from("<I", data, 5)
        old, out = tmp_path / "v8.ckpt", tmp_path / "x.feat"
        old.write_bytes(b"DSVC\x08" + struct.pack("<I", len(block)) + block.encode() + data[9 + length :])
        assert run("convert", "--ckpt", old, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out) == 1
        assert capsys.readouterr().err == f"error: {old}: unsupported checkpoint version 8\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config block"])
    def test_non_utf8_byte_is_error(self, extracted, trained, tmp_path, capsys, where):
        data = bytearray(trained.read_bytes())
        data[9] = 0xFF  # the config block starts after the magic, the u8 version and its u32 length
        bad, out = tmp_path / "bad.ckpt", tmp_path / "x.feat"
        bad.write_bytes(bytes(data))
        assert run("convert", "--ckpt", bad, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {where} is not UTF-8 (") and err.count("\n") == 1
        assert not out.exists()

    def test_inverted_mel_range_is_error(self, extracted, trained, tmp_path, capsys):
        bad, out = tmp_path / "bad.ckpt", tmp_path / "x.feat"
        bad.write_bytes(trained.read_bytes())
        set_config_value(bad, "mel_lo", "5.0")
        set_config_value(bad, "mel_hi", "-5.0")
        assert run("convert", "--ckpt", bad, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: state keys mel_lo, mel_hi: need mel_lo < mel_hi, got 5.0 >= -5.0\n")
        assert not out.exists()

    def test_logf0_shift_moves_the_output(self, extracted, trained, tmp_path):
        outs = [tmp_path / "plain.feat", tmp_path / "shifted.feat"]
        for out, shift in zip(outs, ("0", "0.5")):
            assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                       "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                       "--out", out, "--logf0-shift", shift) == 0
        assert outs[0].read_bytes() != outs[1].read_bytes()

    # nan would leave every frame unvoiced, inf put every voiced frame in the
    # top bin, exp(800) overflows, 705 takes F0 to inf and -800 to 0
    @pytest.mark.parametrize("shift", ["nan", "inf", "800", "705", "-800"])
    def test_bad_logf0_shift_is_error(self, extracted, trained, tmp_path, capsys, shift):
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", out, "--logf0-shift", shift) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --logf0-shift ") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def convert_damaged(trained, extracted, tmp_path, damage):
        """`convert` on a copy of the trained checkpoint whose bytes `damage`
        altered, given the span of every array; returns the exit code, the
        copy, the output and the error a file of the copy's size gets if
        its arrays no longer fill the config's layout."""
        spans = array_spans(trained)
        damaged, out = tmp_path / "damaged.ckpt", tmp_path / "x.feat"
        damaged.write_bytes(damage(trained.read_bytes(), spans))
        code = run("convert", "--ckpt", damaged, "--ppg", extracted / "utt1.ppg.feat",
                   "--f0", extracted / "utt1.f0.feat", "--loud", extracted / "utt1.loud.feat",
                   "--out", out)
        return code, damaged, out, layout_mismatch(damaged, spans, damaged.stat().st_size)

    def test_short_embedding_table_is_error(self, extracted, trained, tmp_path, capsys):
        def cut(data, spans):
            return cut_array(data, spans["f0_table"], 3 * 16 * 8)  # 3 of n_bins 16 rows

        code, damaged, out, mismatch = self.convert_damaged(trained, extracted, tmp_path, cut)
        assert code == 1
        assert capsys.readouterr().err == f"error: {mismatch}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_record_is_error(self, extracted, trained, tmp_path, capsys, bad):
        def spoil(data, spans):
            return put_value(data, spans["out_conv2.b"], 0, bad)

        code, damaged, out, _ = self.convert_damaged(trained, extracted, tmp_path, spoil)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {damaged}: record 'out_conv2.b': non-finite value {bad} at index (0,)\n")
        assert not out.exists()

    def test_mel_beyond_float32_is_error(self, extracted, trained, tmp_path, capsys):
        # finite float64 weights whose output overflows float32: the mel
        # file would hold values `read_feat` rejects
        ckpt = load_checkpoint(trained)
        ckpt.params["out_conv2.w"][:] = 1e200
        damaged, out, wav = tmp_path / "damaged.ckpt", tmp_path / "x.feat", tmp_path / "x.wav"
        out.write_bytes(b"kept")
        save_checkpoint(damaged, ckpt)
        assert run("convert", "--ckpt", damaged, "--ppg", extracted / "utt1.ppg.feat",
                   "--f0", extracted / "utt1.f0.feat", "--loud", extracted / "utt1.loud.feat",
                   "--out", out, "--denorm", "--wav", wav) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: non-finite value ") and err.count("\n") == 1
        assert out.read_bytes() == b"kept"
        assert not wav.exists()

    def test_audio_beyond_exp_is_error(self, extracted, trained, tmp_path, capsys, recwarn):
        # a finite bias that puts the log-mel near 8200: the mel file would be
        # finite, but Griffin-Lim's exp overflows and the audio is NaN
        ckpt = load_checkpoint(trained)
        ckpt.params["out_conv2.b"][:] = -1e3
        damaged, out, wav = tmp_path / "damaged.ckpt", tmp_path / "x.feat", tmp_path / "x.wav"
        save_checkpoint(damaged, ckpt)
        assert run("convert", "--ckpt", damaged, "--ppg", extracted / "utt1.ppg.feat",
                   "--f0", extracted / "utt1.f0.feat", "--loud", extracted / "utt1.loud.feat",
                   "--out", out, "--denorm", "--wav", wav) == 1
        assert capsys.readouterr().err == f"error: {wav}: non-finite sample nan at index 0\n"
        assert not out.exists() and not wav.exists()
        assert len(recwarn) == 0

    def test_missing_record_is_error(self, extracted, trained, tmp_path, capsys):
        code, damaged, out, mismatch = self.convert_damaged(
            trained, extracted, tmp_path, lambda data, spans: cut_array(data, spans["layer1.skip.w"]))
        assert code == 1
        assert capsys.readouterr().err == f"error: {mismatch}\n"
        assert not out.exists()


class TestEval:
    def test_self_eval_is_perfect(self, extracted, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run("eval", "--ref", extracted, "--hyp", extracted, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "utterance_id,mcd_db,fpc,frames_ref,frames_hyp"
        assert len(lines) == 3
        for row in lines[1:]:
            stem, mcd_db, fpc, fr, fh = row.split(",")
            assert float(mcd_db) == 0.0
            assert float(fpc) == 1.0
            assert fr == fh == "100"

    def test_out_into_missing_directory(self, extracted, tmp_path):
        out = tmp_path / "nodir2" / "r.csv"
        assert run("eval", "--ref", extracted, "--hyp", extracted, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_out_naming_a_directory_fails_before_alignment(self, extracted, tmp_path, capsys, monkeypatch):
        aligned = []
        monkeypatch.setattr(metrics, "mcd", lambda *args: aligned.append(args))
        assert run("eval", "--ref", extracted, "--hyp", extracted, "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: is a directory, not a file to write\n"
        assert aligned == []

    def test_unmatched_stems_warned_and_skipped(self, extracted, tmp_path, capsys):
        hyp = tmp_path / "partial"
        hyp.mkdir()
        for kind in ("mel", "f0"):
            src = extracted / f"utt0.{kind}.feat"
            (hyp / src.name).write_bytes(src.read_bytes())
        out = tmp_path / "r.csv"
        assert run("eval", "--ref", extracted, "--hyp", hyp, "--out", out) == 0
        err = capsys.readouterr().err
        assert "skipped 1" in err
        assert len(out.read_text().splitlines()) == 2

    # a missing directory on either side, and a file where a directory goes
    @pytest.mark.parametrize("side, name", [("ref", "no_such_dir"), ("hyp", "no_such_dir"), ("ref", "file")],
                             ids=["ref_missing", "hyp_missing", "ref_file"])
    def test_ref_or_hyp_not_a_directory_is_error(self, extracted, tmp_path, capsys, side, name):
        bad, out = tmp_path / name, tmp_path / "r.csv"
        if name == "file":
            bad.write_bytes((extracted / "utt0.mel.feat").read_bytes())
        dirs = {"ref": extracted, "hyp": extracted, side: bad}
        assert run("eval", "--ref", dirs["ref"], "--hyp", dirs["hyp"], "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: not a directory\n"
        assert not out.exists()

    def test_no_shared_stem_is_error(self, extracted, tmp_path, capsys):
        hyp, out = tmp_path / "hyp", tmp_path / "r.csv"
        hyp.mkdir()
        (hyp / "other.mel.feat").write_bytes((extracted / "utt0.mel.feat").read_bytes())
        assert run("eval", "--ref", extracted, "--hyp", hyp, "--out", out) == 1
        assert capsys.readouterr().err == (f"error: {extracted}, {hyp}: no *.mel.feat stem in both, "
                                           "nothing to evaluate\n")
        assert not out.exists()

    def test_time_stretched_pair_scores_fpc_on_the_mcd_path(self, cli_workspace, extracted, tmp_path):
        # the same note sung 5% slower: 105 frames against the ref's 100
        wav = tmp_path / "utt0.wav"
        write_wav(wav, synth_voice(220.0, seconds=1.05, vibrato_hz=5.0 / 1.05))
        hyp_dir, out = tmp_path / "hyp", tmp_path / "r.csv"
        assert run("extract", "--wav", wav, "--out", hyp_dir, "--config", cli_workspace["cfg"],
                   "--synth-ppg", 0) == 0
        assert run("eval", "--ref", extracted, "--hyp", hyp_dir, "--out", out) == 0
        _, row = out.read_text().splitlines()
        stem, mcd_db, fpc, frames_ref, frames_hyp = row.split(",")
        assert (stem, frames_ref, frames_hyp) == ("utt0", "100", "105")

        ref = {kind: featio.read_feat(extracted / f"utt0.{kind}.feat") for kind in ("mel", "f0")}
        hyp = {kind: featio.read_feat(hyp_dir / f"utt0.{kind}.feat") for kind in ("mel", "f0")}
        expected_mcd, path = metrics.mcd(metrics.mel_to_cepstrum(ref["mel"]),
                                         metrics.mel_to_cepstrum(hyp["mel"]))
        expected_fpc = metrics.fpc(ref["f0"][path[:, 0]], hyp["f0"][path[:, 1]])
        assert float(mcd_db) == expected_mcd
        assert float(fpc) == expected_fpc

    # each damages the hyp side's utt0: a rank-1 mel, a rank-2 F0, a mel 2
    # bins short of the ref's 16, deep enough that both keep all 13 MCD
    # coefficients and the cepstra alone would not show the mismatch, an F0
    # contour half as long as its mel, and a mel of no frames
    MALFORMED = {
        "mel_rank": ("mel", lambda mel: mel[:, 0], "{hyp}: expected a rank-2 feature, got rank 1"),
        "f0_rank": ("f0", lambda f0: f0[:, None], "{hyp}: expected a rank-1 feature, got rank 2"),
        "mel_depth": ("mel", lambda mel: mel[:, :14], "{hyp}: mel depth 14 != 16 in {ref}"),
        "f0_frames": ("f0", lambda f0: f0[:50], "{hyp}: 50 frames != 100 in the mel file {hyp_mel}"),
        "mel_frames": ("mel", lambda mel: mel[:0], "{hyp}: 0 frames, nothing to align"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_feature_is_error(self, extracted, tmp_path, capsys, case):
        kind, damage, message = self.MALFORMED[case]
        hyp_dir = tmp_path / "hyp"
        hyp_dir.mkdir()
        for src in extracted.glob("utt*.feat"):
            (hyp_dir / src.name).write_bytes(src.read_bytes())
        ref, hyp = extracted / f"utt0.{kind}.feat", hyp_dir / f"utt0.{kind}.feat"
        featio.write_feat(hyp, damage(featio.read_feat(ref)))
        out = tmp_path / "r.csv"
        assert run("eval", "--ref", extracted, "--hyp", hyp_dir, "--out", out) == 1
        message = message.format(hyp=hyp, ref=ref, hyp_mel=hyp_dir / "utt0.mel.feat")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestScheduleCmd:
    def test_default_first_row(self, capsys):
        assert run("schedule") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,beta,alpha_bar,sigma"
        assert lines[1].startswith("1,0.0001,")
        assert len(lines) == 101

    def test_config_sets_the_schedule(self, cli_workspace, capsys):
        assert run("schedule", "--config", cli_workspace["cfg"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11  # diffusion_steps = 10

    def test_out_into_missing_directory(self, tmp_path):
        out = tmp_path / "nodir" / "s.csv"
        assert run("schedule", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 101

    def test_bad_range_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("diffusion_steps = 1\n")
        assert run("schedule", "--config", cfg) == 1
        assert capsys.readouterr().err == "error: diffusion_steps must be at least 2, got 1\n"

    @pytest.mark.parametrize("key", ["beta_start", "beta_end"])
    def test_removed_schedule_key_is_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"diffusion_steps = 10\n{key} = 0.05\n")
        assert run("schedule", "--config", cfg) == 1
        assert capsys.readouterr() == ("", f"error: line 2: unknown key '{key}'\n")

    def test_non_utf8_config_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\ndiffusion_steps = 10\n")
        assert run("schedule", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: not UTF-8 (") and captured.err.count("\n") == 1
        assert captured.out == ""


class TestGradcheckCmd:
    def test_fresh_build_passes(self, capsys):
        assert run("gradcheck") == 0
        assert "gradient checks passed" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


def test_every_error_class_derives_from_the_base():
    assert errors.SingvcError in ERROR_CLASSES and len(ERROR_CLASSES) > 1
    assert all(issubclass(cls, errors.SingvcError) for cls in ERROR_CLASSES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_exits_1(cls, monkeypatch, capsys):
    def raise_it(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_schedule", raise_it)
    assert run("schedule") == 1
    assert capsys.readouterr().err == "error: boom\n"
