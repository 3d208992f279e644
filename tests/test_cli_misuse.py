"""A seeded sweep of damaged CLI inputs: every run ends in a clean exit code.

Eight kinds of input file are damaged in nine ways each, three seeded draws
per way: 216 runs of ``cli.main`` in this process.  Each run must exit 0
(the damage was harmless), 2 (a data error) or 3 (a numeric failure); no
exception may escape.  A run that exits 0 must leave outputs that read back,
and a run that fails must leave no ``summary.txt``.
"""

import contextlib
import io
import shutil

import numpy as np
import pytest

from mmfusion import cli
from mmfusion.data_io import (
    gen_synthetic,
    load_model,
    read_embeddings,
    read_ids,
    read_label_matrix,
    save_dataset,
)
from mmfusion.fusion import N_CLASSES

CONFIG = "lr=0.01\nmax_epochs=1\npatience=1\nbatch_size=16\nseed=3\n"


def truncate(data: bytes, rng) -> bytes:
    return data[: rng.integers(0, len(data))]


def flip_a_bit(data: bytes, rng) -> bytes:
    at = rng.integers(0, len(data))
    return data[:at] + bytes([data[at] ^ (1 << int(rng.integers(0, 8)))]) + data[at + 1:]


def repeat_a_span(data: bytes, rng) -> bytes:
    start, stop = sorted(rng.integers(0, len(data) + 1, size=2))
    return data[:stop] + data[start:stop] + data[stop:]


def crlf(data: bytes, rng) -> bytes:
    return data.replace(b"\n", b"\r\n")


def bom(data: bytes, rng) -> bytes:
    return b"\xef\xbb\xbf" + data


def insert(piece: bytes):
    def mutate(data: bytes, rng) -> bytes:
        at = rng.integers(0, len(data) + 1)
        return data[:at] + piece + data[at:]
    mutate.__name__ = f"insert {piece!r}"
    return mutate


def shuffle_lines(data: bytes, rng) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines[i] for i in rng.permutation(len(lines)))


MUTATIONS = (truncate, flip_a_bit, repeat_a_span, crlf, bom, insert(b"\x00"), insert(b","),
             shuffle_lines, insert(b"\xe9"))  # the last is Latin-1 "e acute", no UTF-8
DRAWS = 3
ROWS = 12  # of the test and val splits, so of every labels output


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Tiny splits, two trained text and vision heads, their val predictions and a config."""
    root = tmp_path_factory.mktemp("misuse")
    for name, split in zip(("train", "test", "val"),
                           gen_synthetic(seed=5, n_train=24, n_test=ROWS, n_val=ROWS, noise=0.3)):
        save_dataset(split, root / name)
    (root / "config.txt").write_text(CONFIG, encoding="utf-8")
    for kind in ("text_linear", "vision_linear"):
        assert run(["train-head", "--train", root / "train", "--val", root / "val", "--kind", kind,
                    "--config", root / "config.txt", "--out", root / kind]) == 0
        assert run(["predict", "--model", root / kind / "model.fus1", "--data", root / "val",
                    "--out", root / f"pred_{kind}"]) == 0
    return root


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


def read_summary(out) -> dict[str, str]:
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split("=", 1) for line in lines)
    assert tuple(summary) == cli.SUMMARY_KEYS
    return summary


def check_labels_output(out) -> None:
    logits = read_embeddings(out / "logits.femb")
    ids = read_ids(out / "ids.csv")
    pred_ids, preds = read_label_matrix(out / "predictions.csv")
    assert logits.shape == (ROWS, N_CLASSES) and len(ids) == ROWS and pred_ids == ids
    assert preds.any(axis=1).all()


def check_model_output(out) -> None:
    assert load_model(out / "model.fus1").kind == "text_linear"
    assert (out / "history.csv").read_text(encoding="utf-8").startswith("epoch,")


def check_scores(out) -> None:
    assert 0.0 <= float(read_summary(out)["macro_f1"]) <= 1.0


def train_with(file_name: str):
    """A train-head run over a copy of the train split whose ``file_name`` is damaged."""
    def setup(base, work, damage):
        shutil.copytree(base / "train", work / "train")
        damage(base / "train" / file_name, work / "train" / file_name)
        return ["train-head", "--train", work / "train", "--val", base / "val",
                "--kind", "text_linear", "--config", base / "config.txt"]
    return setup, check_model_output


def predict_test_ids(base, work, damage):
    shutil.copytree(base / "test", work / "test")
    damage(base / "test" / "ids.csv", work / "test" / "ids.csv")
    return ["predict", "--model", base / "text_linear" / "model.fus1", "--data", work / "test"]


def predict_with_model(base, work, damage):
    damage(base / "text_linear" / "model.fus1", work / "model.fus1")
    return ["predict", "--model", work / "model.fus1", "--data", base / "val"]


def evaluate_predictions(base, work, damage):
    damage(base / "pred_text_linear" / "predictions.csv", work / "predictions.csv")
    return ["evaluate", "--pred", work / "predictions.csv", "--truth", base / "val" / "labels.csv"]


def fuse_logits_ids(base, work, damage):
    shutil.copytree(base / "pred_text_linear", work / "logits")
    damage(base / "pred_text_linear" / "ids.csv", work / "logits" / "ids.csv")
    return ["fuse-logits", "--logits", work / "logits" / "logits.femb",
            base / "pred_vision_linear" / "logits.femb", "--ids", base / "val" / "ids.csv",
            "--labels", base / "val" / "labels.csv"]


def train_with_config(base, work, damage):
    damage(base / "config.txt", work / "config.txt")
    return ["train-head", "--train", base / "train", "--val", base / "val",
            "--kind", "text_linear", "--config", work / "config.txt"]


# file kind: (argv of a run over a damaged copy, the check of a run that exits 0)
FILE_KINDS = {
    "train labels.csv": train_with("labels.csv"),
    "train ids.csv": train_with("ids.csv"),
    "train text.femb": train_with("text.femb"),
    "test ids.csv": (predict_test_ids, check_labels_output),
    "model.fus1": (predict_with_model, check_labels_output),
    "predictions.csv": (evaluate_predictions, check_scores),
    "logits ids.csv": (fuse_logits_ids, check_labels_output),
    "config": (train_with_config, check_model_output),
}


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_damaged_input_exits_cleanly(kind, base, tmp_path):
    setup, check = FILE_KINDS[kind]
    rng = np.random.default_rng(sorted(FILE_KINDS).index(kind))
    for number, mutation in enumerate(m for m in MUTATIONS for _ in range(DRAWS)):
        work = tmp_path / str(number)
        work.mkdir()

        def damage(src, dst):
            dst.write_bytes(mutation(src.read_bytes(), rng))

        out = work / "out"
        code = run([*setup(base, work, damage), "--out", out])
        label = f"{kind}, {mutation.__name__}, run {number}"
        assert code in (0, 2, 3), label
        if code == 0:
            read_summary(out)
            check(out)
        else:
            assert not (out / "summary.txt").exists(), label
