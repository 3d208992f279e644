"""End-to-end command-line tests, mostly via subprocess."""

import shutil
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from mmfusion import cli
from mmfusion.data_io import (
    EMBEDDING_MAGIC,
    EmbeddingDataset,
    load_dataset,
    read_embeddings,
    read_label_matrix,
    save_dataset,
    save_model,
    write_embeddings,
    write_ids,
)
from mmfusion.fusion import (
    FUSION_SETS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    expected_param_shapes,
)
from mmfusion.training import TrainConfig
from mmfusion.vision_blocks import ScalingSpec, compound_scale


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mmfusion", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_shuffled_rows(src, dst, seed=0):
    """Copy a labels CSV with its data rows in a shuffled order."""
    header, *rows = src.read_text().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    assert (order != np.arange(len(rows))).any()
    dst.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")


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


def save_empty_split(directory):
    """Save a labelled dataset of 0 rows under ``directory``."""
    save_dataset(
        EmbeddingDataset(
            ids=(),
            text=np.zeros((0, TEXT_DIM)),
            image=np.zeros((0, IMAGE_DIM)),
            labels=np.zeros((0, N_CLASSES), dtype=bool),
        ),
        directory,
    )
    return directory


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


@pytest.fixture(scope="module")
def pred_dir(tmp_path_factory, trained_dir, data_dir):
    out = tmp_path_factory.mktemp("cli_pred")
    proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                   "--data", data_dir / "test", "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


SUBCOMMAND_ARGS = {
    "gen-synthetic": lambda data, model, pred: [
        "--n-train", 8, "--n-test", 4, "--n-val", 4],
    "train-head": lambda data, model, pred: [
        "--train", data / "train", "--val", data / "val", "--kind", "text_linear",
        "--max-epochs", 2],
    "predict": lambda data, model, pred: ["--model", model, "--data", data / "test"],
    "fuse-logits": lambda data, model, pred: [
        "--logits", pred / "logits.femb", pred / "logits.femb", "--ids", pred / "ids.csv",
        "--labels", data / "test" / "labels.csv"],
    "evaluate": lambda data, model, pred: [
        "--pred", pred / "predictions.csv", "--truth", data / "test" / "labels.csv"],
    "pseudo-loop": lambda data, model, pred: [
        "--train", data / "train", "--test", data / "test", "--val", data / "val",
        "--max-epochs", 2, "--max-rounds", 1],
    "flops": lambda data, model, pred: ["--dk", 3, "--m", 4, "--n", 8, "--df", 5],
}

# one failing call per subcommand, each a data or domain error (exit 2)
FAILING_ARGS = {
    "gen-synthetic": lambda data, model, pred: ["--n-train", 0],
    "train-head": lambda data, model, pred: [
        "--train", data / "train", "--kind", "text_linear", "--lr", "-1"],
    "predict": lambda data, model, pred: [
        "--model", model, "--kind", "vision_linear", "--data", data / "test"],
    "fuse-logits": lambda data, model, pred: [
        "--logits", pred / "logits.femb", "--ids", pred / "ids.csv"],
    "evaluate": lambda data, model, pred: [
        "--pred", pred / "predictions.csv", "--truth", data / "nowhere.csv"],
    "pseudo-loop": lambda data, model, pred: [
        "--train", data / "train", "--test", data / "train", "--val", data / "val"],
    "flops": lambda data, model, pred: [],
}


class TestSummaryContract:
    """``main`` owns --out, the timer and summary.txt for every subcommand."""

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_summary_holds_the_keys_in_order(
        self, command, data_dir, trained_dir, pred_dir, tmp_path
    ):
        argv = SUBCOMMAND_ARGS[command](data_dir, trained_dir / "model.fus1", pred_dir)
        out = tmp_path / "nested" / "out"
        code = cli.main([command, *map(str, argv), "--out", str(out)])
        assert code == 0
        keys = [line.split("=", 1)[0] for line in (out / "summary.txt").read_text().splitlines()]
        assert tuple(keys) == cli.SUMMARY_KEYS
        assert float(summary_lines(out)["wall_ms"]) >= 0.0

    @pytest.mark.parametrize("command", sorted(FAILING_ARGS))
    def test_failure_leaves_no_summary(self, command, data_dir, trained_dir, pred_dir, tmp_path):
        argv = FAILING_ARGS[command](data_dir, trained_dir / "model.fus1", pred_dir)
        out = tmp_path / "out"
        assert cli.main([command, *map(str, argv), "--out", str(out)]) == 2
        assert not (out / "summary.txt").exists()

    def test_every_subcommand_is_covered(self):
        subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert set(subs.choices) == set(SUBCOMMAND_ARGS) == set(FAILING_ARGS)


# each TrainConfig field both commands take as a flag, the flag, and a value that is not its default
CONFIG_FLAGS = [
    ("lr", "--lr", "0.125", 0.125),
    ("batch_size", "--batch-size", "7", 7),
    ("max_epochs", "--max-epochs", "9", 9),
    ("patience", "--patience", "3", 3),
    ("seed", "--seed", "13", 13),
    ("class_weighting", "--class-weighting", "false", False),
]


class TestConfigFlags:
    def test_flags_cover_every_field(self):
        # fusion_set is the one field only pseudo-loop takes as a flag
        keys = [key for key, *_ in CONFIG_FLAGS] + ["fusion_set"]
        assert keys == [f.name for f in fields(TrainConfig)]

    def test_fusion_set_flag_reaches_pseudo_loop(self):
        args = cli.build_parser().parse_args(
            ["pseudo-loop", "--train", "t", "--test", "p", "--val", "v",
             "--fusion-set", "fm3", "--out", "o"])
        assert cli._resolve_config(args) == TrainConfig(fusion_set=FUSION_SETS["fm3"])

    def test_train_head_takes_fusion_set_only_from_a_config_file(self, tmp_path):
        required = ["train-head", "--train", "t", "--kind", "text_linear"]
        assert cli.main([*required, "--fusion-set", "fm3", "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()
        # one config file may serve train-head and pseudo-loop alike
        cfg = tmp_path / "train.cfg"
        cfg.write_text("fusion_set = fm3\n")
        args = cli.build_parser().parse_args([*required, "--config", str(cfg), "--out", "o"])
        assert cli._resolve_config(args).fusion_set == FUSION_SETS["fm3"]

    @pytest.mark.parametrize("command, required", [
        ("train-head", ["--train", "t", "--kind", "text_linear"]),
        ("pseudo-loop", ["--train", "t", "--test", "p", "--val", "v"]),
    ])
    @pytest.mark.parametrize("key, flag, raw, value", CONFIG_FLAGS)
    def test_flag_reaches_its_field(self, command, required, key, flag, raw, value):
        args = cli.build_parser().parse_args([command, *required, flag, raw, "--out", "o"])
        config = cli._resolve_config(args)
        assert getattr(config, key) == value
        assert getattr(config, key) != getattr(TrainConfig(), key)
        others = {f.name for f in fields(TrainConfig)} - {key}
        assert all(getattr(config, name) == getattr(TrainConfig(), name) for name in others)


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

    def test_phi_alone_takes_the_scaling_spec_defaults(self, tmp_path):
        proc = run_cli("flops", "--phi", 1, "--out", tmp_path / "f")
        assert proc.returncode == 0
        want = compound_scale(ScalingSpec(phi=1.0))._asdict()
        assert proc.stdout.splitlines() == [f"{key}={value!r}" for key, value in want.items()]

    def test_overflow_is_numeric_failure(self, tmp_path):
        proc = run_cli("flops", "--dk", 2**20, "--m", 2**16, "--n", 2**16,
                       "--df", 2**16, "--out", tmp_path / "f")
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr

    @pytest.mark.parametrize("phi, quantity", [("3000", "flops_factor"), ("1e308", "depth")])
    def test_scaling_overflow_names_the_quantity_and_phi(self, phi, quantity, tmp_path):
        proc = run_cli("flops", "--phi", phi, "--out", tmp_path / "f")
        assert proc.returncode == 3
        assert proc.stderr == (f"numeric failure: compound scaling: {quantity} overflows "
                               f"the float range at phi={float(phi)!r}\n")
        assert not (tmp_path / "f" / "flops.txt").exists()

    def test_no_flags_is_data_error(self, tmp_path):
        assert run_cli("flops", "--out", tmp_path / "f").returncode == 2

    def test_cost_flags_without_dk_rejected(self, tmp_path):
        proc = run_cli("flops", "--phi", 1, "--groups", 3, "--m", 4, "--out", tmp_path / "f")
        assert proc.returncode == 2
        assert "--m, --groups" in proc.stderr
        assert not (tmp_path / "f" / "flops.txt").exists()

    @pytest.mark.parametrize("cost", [[], ["--dk", 3, "--m", 4, "--n", 8, "--df", 5]])
    def test_scaling_flags_without_phi_rejected(self, cost, tmp_path):
        proc = run_cli("flops", *cost, "--alpha", 9, "--budget", 7, "--out", tmp_path / "f")
        assert proc.returncode == 2
        assert "needs --phi alongside --alpha, --budget" in proc.stderr
        assert not (tmp_path / "f" / "flops.txt").exists()

    def test_non_finite_scaling_value_rejected(self, tmp_path):
        proc = run_cli("flops", "--phi", 1, "--budget", "nan", "--out", tmp_path / "f")
        assert proc.returncode == 2
        assert "ScalingSpec.budget must be finite" in proc.stderr
        assert not (tmp_path / "f" / "flops.txt").exists()


class TestGenSynthetic:
    def test_writes_three_splits(self, data_dir):
        for split in ("train", "test", "val"):
            for name in ("text.femb", "image.femb", "ids.csv", "labels.csv"):
                assert (data_dir / split / name).exists()
        summary = summary_lines(data_dir)
        assert summary["seed"] == "11"
        assert summary["macro_f1"] == "nan"


    def test_negative_seed_is_data_error(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli("gen-synthetic", "--seed", -1, "--n-train", 4, "--n-test", 2,
                       "--n-val", 2, "--out", out)
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr and "Traceback" not in proc.stderr
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("flag, raw", [("--lr", "abc"), ("--batch-size", "1.5")])
    def test_non_numeric_flag_is_data_error(self, flag, raw, data_dir, tmp_path):
        proc = run_cli("train-head", "--train", data_dir / "train", "--kind", "text_linear",
                       flag, raw, "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert repr(raw) in proc.stderr and "Traceback" not in proc.stderr

    def test_non_numeric_config_value_is_data_error(self, data_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max_epochs = 2\nlr = abc\n")
        proc = run_cli("train-head", "--train", data_dir / "train", "--kind", "text_linear",
                       "--config", cfg, "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "lr must be a number, got 'abc'" in proc.stderr

    def test_val_overlapping_train_is_data_error(self, data_dir, tmp_path):
        out = tmp_path / "o"
        proc = run_cli("train-head", "--train", data_dir / "train", "--val", data_dir / "train",
                       "--kind", "text_linear", "--max-epochs", 1, "--out", out)
        assert proc.returncode == 2
        assert "train and val splits share 96 ids, e.g. 'train_00000'" in proc.stderr
        assert not (out / "model.fus1").exists()

    def test_empty_val_is_refused_before_training(self, data_dir, tmp_path):
        empty = save_empty_split(tmp_path / "empty")
        out = tmp_path / "o"
        proc = run_cli("train-head", "--train", data_dir / "train", "--val", empty,
                       "--kind", "text_linear", "--max-epochs", 1, "--out", out)
        assert proc.returncode == 2
        assert f"{empty}: validation split has no rows" in proc.stderr
        assert list(out.iterdir()) == []

    def test_missing_train_dir_is_data_error(self, tmp_path):
        proc = run_cli("train-head", "--train", tmp_path / "nowhere",
                       "--kind", "text_linear", "--out", tmp_path / "o")
        assert proc.returncode == 2


@pytest.mark.parametrize("command", ["evaluate", "train-head", "predict"])
def test_text_input_that_is_not_utf8_is_data_error(command, data_dir, trained_dir, tmp_path):
    if command == "evaluate":  # a binary file passed where a CSV belongs
        bad = data_dir / "test" / "image.femb"
        argv = ["--pred", bad, "--truth", data_dir / "test" / "labels.csv"]
    elif command == "train-head":
        bad = tmp_path / "train.cfg"
        bad.write_bytes(b"lr = 0.01\n\xff\n")
        argv = ["--train", data_dir / "train", "--kind", "text_linear", "--config", bad]
    else:
        split = tmp_path / "split"
        shutil.copytree(data_dir / "test", split)
        bad = split / "ids.csv"
        bad.write_bytes(bad.read_bytes().replace(b"test_00001", b"test_\xff0001"))
        argv = ["--model", trained_dir / "model.fus1", "--data", split]
    proc = run_cli(command, *argv, "--out", tmp_path / "o")
    assert proc.returncode == 2
    assert f"{bad}: not UTF-8 text" in proc.stderr and "Traceback" not in proc.stderr


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

    def test_predict_scores_before_it_writes(self, trained_dir, tmp_path):
        empty = save_empty_split(tmp_path / "empty")
        out = tmp_path / "pred"
        proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", empty, "--out", out)
        assert proc.returncode == 2
        assert "cannot evaluate an empty set" in proc.stderr
        assert list(out.iterdir()) == []

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
        assert "rows for 2 unknown ids, first 'b'" in proc.stderr

    def test_fuse_logits_aligns_rows_by_the_ids_beside_each_file(
        self, trained_dir, data_dir, tmp_path
    ):
        pred = tmp_path / "pred"
        assert run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", pred).returncode == 0
        ids = (pred / "ids.csv").read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(ids))
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        write_embeddings(read_embeddings(pred / "logits.femb")[order], shuffled / "logits.femb")
        write_ids([ids[i] for i in order], shuffled / "ids.csv")
        fused = tmp_path / "fused"
        proc = run_cli("fuse-logits", "--logits", pred / "logits.femb", shuffled / "logits.femb",
                       "--ids", pred / "ids.csv", "--out", fused)
        assert proc.returncode == 0, proc.stderr
        # the same rows in another order fuse as the file fused with itself
        assert (fused / "predictions.csv").read_bytes() == (pred / "predictions.csv").read_bytes()
        assert (fused / "ids.csv").read_bytes() == (pred / "ids.csv").read_bytes()
        # fused logits carry their ids, so they fuse again
        proc = run_cli("fuse-logits", "--logits", fused / "logits.femb", shuffled / "logits.femb",
                       "--ids", shuffled / "ids.csv", "--out", tmp_path / "again")
        assert proc.returncode == 0, proc.stderr

    def test_fuse_logits_rejects_rows_of_other_ids(self, trained_dir, data_dir, tmp_path):
        preds = {}
        for split in ("test", "val"):  # 32 rows each, different ids
            preds[split] = tmp_path / f"pred_{split}"
            assert run_cli("predict", "--model", trained_dir / "model.fus1",
                           "--data", data_dir / split, "--out", preds[split]).returncode == 0
        out = tmp_path / "fused"
        proc = run_cli("fuse-logits", "--logits", preds["test"] / "logits.femb",
                       preds["val"] / "logits.femb", "--ids", preds["test"] / "ids.csv",
                       "--out", out)
        assert proc.returncode == 2
        assert f"{preds['val'] / 'logits.femb'}: no rows for 32 ids" in proc.stderr
        assert not (out / "logits.femb").exists()
        # a logits file whose ids.csv lists another row count
        write_ids(("a", "b"), preds["val"] / "ids.csv")
        proc = run_cli("fuse-logits", "--logits", preds["test"] / "logits.femb",
                       preds["val"] / "logits.femb", "--ids", preds["test"] / "ids.csv",
                       "--out", out)
        assert proc.returncode == 2
        assert "32 rows, but its ids.csv lists 2" in proc.stderr

    def test_fuse_logits_requires_every_truth_id_fused(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("ImageID,Labels\na,1\nb,2 3\nc,19\n")
        logits = tmp_path / "a.femb"
        write_embeddings(np.zeros((1, 18)), logits)
        write_ids(("a",), tmp_path / "ids.csv")
        out = tmp_path / "fused"
        proc = run_cli("fuse-logits", "--logits", logits, logits, "--ids", tmp_path / "ids.csv",
                       "--labels", truth, "--out", out)
        assert proc.returncode == 2
        assert "rows for 2 unknown ids, first 'b'" in proc.stderr
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("command", ["train-head", "predict", "fuse-logits"])
    def test_non_finite_embeddings_rejected_at_load(
        self, command, trained_dir, data_dir, tmp_path
    ):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir / "test", bad)
        text = read_embeddings(bad / "text.femb")
        text[3, 7] = np.inf
        header = EMBEDDING_MAGIC + struct.pack("<III", 1, *text.shape)  # write_embeddings refuses inf
        (bad / "text.femb").write_bytes(header + text.astype("<f4").tobytes())
        if command == "train-head":
            argv = ("--train", bad, "--kind", "text_linear")
        elif command == "predict":
            argv = ("--model", trained_dir / "model.fus1", "--data", bad)
        else:
            argv = ("--logits", bad / "text.femb", bad / "text.femb", "--ids", bad / "ids.csv")
        proc = run_cli(command, *argv, "--out", tmp_path / "o")
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr

    def test_truth_in_any_row_order_scores_the_same(self, trained_dir, data_dir, tmp_path):
        truth = data_dir / "test" / "labels.csv"
        shuffled = tmp_path / "shuffled.csv"
        write_shuffled_rows(truth, shuffled)
        pred = tmp_path / "pred"
        assert run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", pred).returncode == 0
        scores = []
        for labels in (truth, shuffled):
            fused, ev = tmp_path / f"fused_{labels.stem}", tmp_path / f"eval_{labels.stem}"
            proc = run_cli("fuse-logits", "--logits", pred / "logits.femb", pred / "logits.femb",
                           "--ids", pred / "ids.csv", "--labels", labels, "--out", fused)
            assert proc.returncode == 0, proc.stderr
            proc = run_cli("evaluate", "--pred", fused / "predictions.csv", "--truth", labels,
                           "--out", ev)
            assert proc.returncode == 0, proc.stderr
            scores.append([
                {k: summary_lines(d)[k] for k in ("macro_f1", "mean_accuracy")}
                for d in (fused, ev)
            ])
        assert scores[0] == scores[1]
        assert scores[0][0] == scores[0][1] and scores[0][0]["macro_f1"] != "nan"

    def test_predict_reads_labels_in_any_row_order(self, trained_dir, data_dir, tmp_path):
        shuffled = tmp_path / "shuffled"
        shutil.copytree(data_dir / "test", shuffled)
        write_shuffled_rows(data_dir / "test" / "labels.csv", shuffled / "labels.csv")
        outs = []
        for data in (data_dir / "test", shuffled):
            out = tmp_path / f"pred_{data.name}"
            proc = run_cli("predict", "--model", trained_dir / "model.fus1", "--data", data,
                           "--out", out)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for key in ("macro_f1", "mean_accuracy"):
            assert summary_lines(outs[0])[key] == summary_lines(outs[1])[key]
        assert (outs[0] / "predictions.csv").read_bytes() == (outs[1] / "predictions.csv").read_bytes()

    def test_predict_overflow_is_numeric_failure(self, data_dir, tmp_path, monkeypatch):
        # float32 files bound the logits far below the float64 range, so the
        # overflowing inputs come in through the loader
        rng = np.random.default_rng(5)
        params = {name: rng.standard_normal(shape) * 0.1
                  for name, shape in expected_param_shapes("cross_attn_fcnn").items()}
        save_model(FusionModel(kind="cross_attn_fcnn", params=params), tmp_path / "m.fus1")
        data = load_dataset(data_dir / "test")
        # raw float64 blocks: neither float32 nor a dataset could hold these values
        blocks = {name: getattr(data, name).astype(np.float64) * 1e200 for name in ("text", "image")}
        monkeypatch.setattr(cli, "load_inputs", lambda *args, **kwargs: (data.ids, blocks, None))
        out = tmp_path / "o"
        code = cli.main(["predict", "--model", str(tmp_path / "m.fus1"),
                         "--data", str(data_dir / "test"), "--out", str(out)])
        assert code == 3
        assert not (out / "logits.femb").exists()

    def test_predict_reads_only_its_heads_embedding_files(self, trained_dir, data_dir, tmp_path):
        cut = tmp_path / "cut"
        shutil.copytree(data_dir / "test", cut)
        blob = (cut / "image.femb").read_bytes()
        (cut / "image.femb").write_bytes(blob[: len(blob) // 2])
        # trained_dir holds a text_linear model, which never opens image.femb
        outs = []
        for data in (data_dir / "test", cut):
            out = tmp_path / f"pred_{data.name}"
            proc = run_cli("predict", "--model", trained_dir / "model.fus1", "--data", data,
                           "--out", out)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for fname in ("logits.femb", "ids.csv", "predictions.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        scores = [{k: v for k, v in summary_lines(out).items() if k != "wall_ms"} for out in outs]
        assert scores[0] == scores[1]
        params = {name: np.zeros(shape) for name, shape in expected_param_shapes("vision_linear").items()}
        save_model(FusionModel(kind="vision_linear", params=params), tmp_path / "v.fus1")
        proc = run_cli("predict", "--model", tmp_path / "v.fus1", "--data", cut,
                       "--out", tmp_path / "v")
        assert proc.returncode == 2
        assert "image.femb" in proc.stderr

    def test_ids_a_labels_csv_cannot_hold_rejected_at_load(self, trained_dir, data_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir / "test", bad)
        (bad / "labels.csv").unlink()
        ids = (bad / "ids.csv").read_text().splitlines()
        (bad / "ids.csv").write_text("\n".join(["a,7", *ids[1:]]) + "\n")
        out = tmp_path / "o"
        proc = run_cli("predict", "--model", trained_dir / "model.fus1", "--data", bad,
                       "--out", out)
        assert proc.returncode == 2
        assert "'a,7'" in proc.stderr
        assert not (out / "predictions.csv").exists()

    def test_fuse_needs_two_files(self, trained_dir, data_dir, tmp_path):
        pred = tmp_path / "pred"
        assert run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--out", pred).returncode == 0
        proc = run_cli("fuse-logits", "--logits", pred / "logits.femb",
                       "--ids", pred / "ids.csv", "--out", tmp_path / "f")
        assert proc.returncode == 2


class TestThreshold:
    def test_higher_threshold_keeps_a_subset_of_each_label_set(
        self, trained_dir, data_dir, pred_dir, tmp_path
    ):
        out = tmp_path / "high"
        proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--threshold", 0.9, "--out", out)
        assert proc.returncode == 0, proc.stderr
        default_ids, default = read_label_matrix(pred_dir / "predictions.csv")
        high_ids, high = read_label_matrix(out / "predictions.csv")
        assert high_ids == default_ids
        assert not (high & ~default).any()
        assert high.sum() < default.sum()

    def test_default_threshold_matches_the_flag_left_out(
        self, trained_dir, data_dir, pred_dir, tmp_path
    ):
        out = tmp_path / "half"
        proc = run_cli("predict", "--model", trained_dir / "model.fus1",
                       "--data", data_dir / "test", "--threshold", 0.5, "--out", out)
        assert proc.returncode == 0, proc.stderr
        for fname in ("predictions.csv", "logits.femb", "ids.csv"):
            assert (out / fname).read_bytes() == (pred_dir / fname).read_bytes()

    @pytest.mark.parametrize("command", ["predict", "fuse-logits"])
    def test_threshold_outside_unit_interval_writes_nothing(
        self, command, trained_dir, data_dir, pred_dir, tmp_path
    ):
        args = SUBCOMMAND_ARGS[command](data_dir, trained_dir / "model.fus1", pred_dir)
        out = tmp_path / "o"
        proc = run_cli(command, *args, "--threshold", 1.5, "--out", out)
        assert proc.returncode == 2
        assert "threshold must lie in [0, 1]" in proc.stderr
        assert list(out.iterdir()) == []


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

    def test_empty_pool_is_refused_before_training(self, data_dir, tmp_path):
        empty = save_empty_split(tmp_path / "empty")
        out = tmp_path / "loop"
        proc = run_cli("pseudo-loop", "--train", data_dir / "train", "--test", empty,
                       "--val", data_dir / "val", "--max-epochs", 1, "--out", out)
        assert proc.returncode == 2
        assert "unlabeled pool has no rows" in proc.stderr
        assert list(out.iterdir()) == []

    def test_empty_val_is_refused_before_training(self, data_dir, tmp_path):
        empty = save_empty_split(tmp_path / "empty")
        out = tmp_path / "loop"
        proc = run_cli("pseudo-loop", "--train", data_dir / "train", "--test", data_dir / "test",
                       "--val", empty, "--max-epochs", 1, "--out", out)
        assert proc.returncode == 2
        assert "validation split has no rows" in proc.stderr
        assert list(out.iterdir()) == []

    def test_overlapping_splits_rejected(self, data_dir, tmp_path):
        proc = run_cli("pseudo-loop", "--train", data_dir / "train",
                       "--test", data_dir / "train", "--val", data_dir / "val",
                       "--max-rounds", 1, "--out", tmp_path / "loop")
        assert proc.returncode == 2
