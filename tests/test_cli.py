import numpy as np
import pytest

from singvc import featio
from singvc.cli import main


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_non_finite_mel_is_error(self, cli_workspace, extracted, tmp_path, capsys):
        data = tmp_path / "nan_feats"
        data.mkdir()
        for src in extracted.glob("utt0.*.feat"):
            (data / src.name).write_bytes(src.read_bytes())
        mel = featio.read_feat(data / "utt0.mel.feat")
        mel[4, 2] = np.nan
        featio.write_feat(data / "utt0.mel.feat", mel)
        assert run("train", "--data", data, "--config", cli_workspace["cfg_small"],
                   "--out", tmp_path / "x.ckpt") == 1
        assert "utt0.mel.feat: non-finite value nan at index (4, 2)" in capsys.readouterr().err

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

    def test_wav_output(self, cli_workspace, extracted, trained, tmp_path):
        from singvc.features import read_wav

        wav_path = tmp_path / "conv.wav"
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", extracted / "utt0.f0.feat", "--loud", extracted / "utt0.loud.feat",
                   "--out", tmp_path / "c.feat", "--wav", wav_path) == 0
        samples, sr = read_wav(wav_path)
        assert sr == 24000 and len(samples) == 100 * 240

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
        featio.write_feat(paths[kind], values)
        out = tmp_path / "x.feat"
        assert run("convert", "--ckpt", trained, "--ppg", paths["ppg"], "--f0", paths["f0"],
                   "--loud", paths["loud"], "--out", out) == 1
        assert f"nan.{kind}.feat: non-finite value nan at index (7" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_mismatch_is_error(self, cli_workspace, extracted, trained, tmp_path):
        short = tmp_path / "short.f0.feat"
        featio.write_feat(short, featio.read_feat(extracted / "utt0.f0.feat")[:50])
        assert run("convert", "--ckpt", trained, "--ppg", extracted / "utt0.ppg.feat",
                   "--f0", short, "--loud", extracted / "utt0.loud.feat",
                   "--out", tmp_path / "x.feat") == 1


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


class TestScheduleCmd:
    def test_default_first_row(self, capsys):
        assert run("schedule") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,beta,alpha_bar,sigma"
        assert lines[1].startswith("1,0.0001,")
        assert len(lines) == 101

    def test_bad_range_is_error(self, capsys):
        assert run("schedule", "--beta-start", "0.5", "--beta-end", "0.1") == 1


class TestGradcheckCmd:
    def test_fresh_build_passes(self, capsys):
        assert run("gradcheck") == 0
        assert "gradient checks passed" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
