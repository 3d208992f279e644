"""End-to-end command-line tests via subprocess."""

import shutil
import subprocess
import sys

import numpy as np
import pytest

from mmfusion.data_io import read_embeddings, write_embeddings


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mmfusion", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def summary_lines(out_dir):
    text = (out_dir / "summary.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines())


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    proc = run_cli(
        "gen-synthetic",
        "--seed", 11,
        "--n-train", 96,
        "--n-test", 32,
        "--n-val", 32,
        "--noise", 0.15,
        "--out", root,
    )
    assert proc.returncode == 0, proc.stderr
    return root


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_model")
    proc = run_cli(
        "train-head",
        "--train", data_dir / "train",
        "--val", data_dir / "val",
        "--kind", "text_linear",
        "--lr", 0.01,
        "--max-epochs", 4,
        "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    return out


class TestBasics:
    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        for sub in ("gen-synthetic", "train-head", "predict", "fuse-logits",
                    "evaluate", "pseudo-loop", "flops"):
            assert run_cli(sub, "--help").returncode == 0

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 1

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli("gen-synthetic").returncode == 1


class TestFlops:
    def test_reference_quantities(self, tmp_path):
        proc = run_cli("flops", "--dk", 3, "--m", 16, "--n", 32, "--df", 8,
                       "--out", tmp_path / "f")
        assert proc.returncode == 0
        assert "standard_macs=294912" in proc.stdout
        assert "separable_macs=41984" in proc.stdout
        assert (tmp_path / "f" / "flops.txt").exists()
        assert set(summary_lines(tmp_path / "f")) == {
            "macro_f1", "mean_accuracy", "epochs", "seed", "wall_ms"
        }

    def test_compound_scaling_block(self, tmp_path):
        proc = run_cli("flops", "--alpha", 1.2, "--beta", 1.1, "--gamma", 1.15,
                       "--phi", 1, "--out", tmp_path / "f")
        assert proc.returncode == 0
        assert "flops_factor=1.92027" in proc.stdout

    def test_overflow_is_numeric_failure(self, tmp_path):
        proc = run_cli("flops", "--dk", 2**20, "--m", 2**16, "--n", 2**16,
                       "--df", 2**16, "--out", tmp_path / "f")
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr

    def test_no_flags_is_data_error(self, tmp_path):
        assert run_cli("flops", "--out", tmp_path / "f").returncode == 2


class TestGenSynthetic:
    def test_writes_three_splits(self, data_dir):
        for split in ("train", "test", "val"):
            for name in ("text.femb", "image.femb", "ids.csv", "labels.csv"):
                assert (data_dir / split / name).exists()
        summary = summary_lines(data_dir)
        assert summary["seed"] == "11"
        assert summary["macro_f1"] == "nan"


class TestTrainHead:
    def test_outputs_present(self, trained_dir):
        assert (trained_dir / "model.fus1").exists()
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_f1"
        assert len(history) >= 2
        summary = summary_lines(trained_dir)
        assert summary["macro_f1"] != "nan"
        assert summary["epochs"] == str(len(history) - 1)

    def test_config_file_and_override_precedence(self, data_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr = 0.01\nmax_epochs = 2\npatience = 9\n")
        out_file = tmp_path / "by_file"
        proc = run_cli("train-head", "--train", data_dir / "train",
                       "--val", data_dir / "val", "--kind", "text_linear",
                       "--config", cfg, "--out", out_file)
        assert proc.returncode == 0, proc.stderr
        assert summary_lines(out_file)["epochs"] == "2"
        out_flag = tmp_path / "by_flag"
        proc = run_cli("train-head", "--train", data_dir / "train",
                       "--val", data_dir / "val", "--kind", "text_linear",
                       "--config", cfg, "--max-epochs", 3, "--out", out_flag)
        assert proc.returncode == 0, proc.stderr
        assert summary_lines(out_flag)["epochs"] == "3"

    def test_missing_train_dir_is_data_error(self, tmp_path):
        proc = run_cli("train-head", "--train", tmp_path / "nowhere",
                       "--kind", "text_linear", "--out", tmp_path / "o")
        assert proc.returncode == 2


class TestPredictAndFuse:
    def test_predict_outputs(self, trained_dir, data_dir, tmp_path):
        out = tmp_path / "pred"
        proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", out)
        assert proc.returncode == 0, proc.stderr
        pred_lines = (out / "predictions.csv").read_text().splitlines()
        assert pred_lines[0] == "ImageID,Labels"
        assert len(pred_lines) == 33
        assert (out / "logits.femb").exists()

    def test_predict_twice_is_byte_identical(self, trained_dir, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                           "--data", data_dir / "test", "--out", out)
            assert proc.returncode == 0
            outs.append(out)
        for fname in ("predictions.csv", "logits.femb"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_kind_mismatch_is_data_error(self, trained_dir, data_dir, tmp_path):
        proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--kind", "vision_linear", "--data", data_dir / "test",
                       "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "vision_linear" in proc.stderr

    def test_corrupt_model_is_data_error(self, trained_dir, data_dir, tmp_path):
        blob = bytearray((trained_dir / "model.fus1").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.fus1"
        bad.write_bytes(bytes(blob))
        proc = run_cli("predict", "--model", bad, "--data", data_dir / "test",
                       "--out", tmp_path / "o")
        assert proc.returncode == 2

    def test_fuse_logits_and_evaluate(self, trained_dir, data_dir, tmp_path):
        pred = tmp_path / "pred"
        assert run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", pred).returncode == 0
        fused = tmp_path / "fused"
        proc = run_cli("fuse-logits",
                       "--logits", pred / "logits.femb", pred / "logits.femb",
                       "--ids", pred / "ids.csv",
                       "--labels", data_dir / "test" / "labels.csv",
                       "--out", fused)
        assert proc.returncode == 0, proc.stderr
        # fusing a set with itself must reproduce its predictions exactly
        assert (fused / "predictions.csv").read_bytes() == (pred / "predictions.csv").read_bytes()
        ev = tmp_path / "eval"
        proc = run_cli("evaluate", "--pred", fused / "predictions.csv",
                       "--truth", data_dir / "test" / "labels.csv", "--out", ev)
        assert proc.returncode == 0, proc.stderr
        assert "macro_f1=" in proc.stdout
        class_rows = [line for line in proc.stdout.splitlines() if line.startswith("class")]
        assert len(class_rows) == 18
        assert summary_lines(ev)["macro_f1"] == summary_lines(fused)["macro_f1"]

    def test_evaluate_requires_every_truth_id_predicted(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("ImageID,Labels\na,1\nb,2 3\nc,19\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ImageID,Labels\na,1\n")
        proc = run_cli("evaluate", "--pred", pred, "--truth", truth, "--out", tmp_path / "ev")
        assert proc.returncode == 2
        assert "no prediction for 2 truth ids" in proc.stderr

    @pytest.mark.parametrize("command", ["train-head", "predict", "fuse-logits"])
    def test_non_finite_embeddings_rejected_at_load(
        self, command, trained_dir, data_dir, tmp_path
    ):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir / "test", bad)
        text = read_embeddings(bad / "text.femb")
        text[3, 7] = np.inf
        write_embeddings(text, bad / "text.femb")
        if command == "train-head":
            argv = ("--train", bad, "--kind", "text_linear")
        elif command == "predict":
            argv = ("--model", trained_dir / "model.fus1", "--data", bad)
        else:
            argv = ("--logits", bad / "text.femb", bad / "text.femb", "--ids", bad / "ids.csv")
        proc = run_cli(command, *argv, "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr

    def test_fuse_needs_two_files(self, trained_dir, data_dir, tmp_path):
        pred = tmp_path / "pred"
        assert run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", pred).returncode == 0
        proc = run_cli("fuse-logits", "--logits", pred / "logits.femb",
                       "--ids", pred / "ids.csv", "--out", tmp_path / "f")
        assert proc.returncode == 2


class TestPseudoLoop:
    def test_round_zero_only(self, data_dir, tmp_path):
        out = tmp_path / "loop"
        proc = run_cli("pseudo-loop", "--train", data_dir / "train",
                       "--test", data_dir / "test", "--val", data_dir / "val",
                       "--lr", 0.01, "--max-epochs", 3, "--max-rounds", 0,
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        rounds = (out / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "round,val_f1"
        assert len(rounds) == 2
        assert (out / "models" / "vision_linear.fus1").exists()
        assert (out / "models" / "text_linear.fus1").exists()
        assert not (out / "pseudo_labels.csv").exists()

    def test_overlapping_splits_rejected(self, data_dir, tmp_path):
        proc = run_cli("pseudo-loop", "--train", data_dir / "train",
                       "--test", data_dir / "train", "--val", data_dir / "val",
                       "--max-rounds", 1, "--out", tmp_path / "loop")
        assert proc.returncode == 2
