"""Smoke runs of the experiment scripts at tiny sizes, as subprocesses."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmfusion

REPO = Path(__file__).resolve().parents[1]
SRC = Path(mmfusion.__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_fusion_ablation_reports_every_set():
    proc = run_script("run_fusion_ablation.py", "--n-train", 200, "--n-val", 60,
                      "--max-epochs", 5)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("  fm3: ") and lines[-1].endswith(
        "[vision_linear, text_linear, cross_attn_fcnn]"
    )
    assert sum(" val F1 " in line for line in lines) == 4


@pytest.mark.parametrize("fusion_set", ["fm2", "vision_linear, text_linear"], ids=["named", "listed"])
def test_pseudo_label_reports_best_round(fusion_set):
    proc = run_script("run_pseudo_label.py", "--n-train", 200, "--n-val", 60,
                      "--max-rounds", 2, "--fusion-set", fusion_set)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("best round ") and last.endswith(" pseudo-labels retained")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--fusion-set", "fm9"), "unknown head kinds in fusion_set: ['fm9']"),
        (("--withheld", "1.5"), "--withheld 1.5 must lie strictly between 0 and 1"),
        (("--withheld", "0"), "--withheld 0.0 must lie strictly between 0 and 1"),
        (("--withheld", "0.999"), "--withheld 0.999 must lie strictly between 0 and 1"),
        (("--n-val", "0"), "every split needs at least one sample"),
        (("--noise", "-1"), "noise must be a finite value >= 0, got -1.0"),
        (("--max-rounds", "-1"), "max_rounds must be >= 0, got -1"),
    ],
    ids=["unknown_set", "withheld_above_one", "withheld_zero", "nothing_labeled", "no_val_rows",
         "negative_noise", "negative_max_rounds"],
)
def test_pseudo_label_refuses_bad_flags_before_any_work(flags, message):
    assert_refused(run_script("run_pseudo_label.py", "--n-train", 200, "--n-val", 50, *flags),
                   message)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--max-epochs", "0"), "max_epochs must be >= 1, got 0"),
        (("--n-train", "0"), "every split needs at least one sample"),
    ],
    ids=["no_epochs", "no_train_rows"],
)
def test_fusion_ablation_refuses_bad_flags_before_any_work(flags, message):
    assert_refused(run_script("run_fusion_ablation.py", "--n-train", 100, "--n-val", 30, *flags),
                   message)


def assert_refused(proc, message):
    """A usage error with the library's message, before any output of work."""
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and message in proc.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, REPO / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fingerprint():
    return load_script("fingerprint.py")


@pytest.fixture(scope="module")
def fingerprints(fingerprint, tmp_path_factory):
    """The artifact directories of two tiny canonical runs of this tree."""
    runs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp("fingerprint") / name
        fingerprint.run_set(SRC, out, "tiny")
        runs.append(out)
    return runs


def test_fingerprint_listing_is_stable(fingerprint, fingerprints):
    first, second = map(fingerprint.digests, fingerprints)
    assert first == second
    for name in ("train_head/cross_attn_fcnn/w.npy", "fused_probs/fm3.npy",
                 "pseudo_label_loop/fm3/history.csv", "cli/pseudo/rounds.csv",
                 "cli/log/pseudo-loop-unknown-set.txt", "cli/log/help-flops.txt",
                 "gen_synthetic/train/image.npy", "save_dataset/val/text.femb",
                 "backward/cross_attn_fcnn/wk.npy"):
        assert name in first


def test_fingerprint_reports_a_perturbed_artifact(fingerprint, fingerprints, tmp_path):
    old, new = fingerprints
    assert fingerprint.differences(old, new) == []
    perturbed = tmp_path / "perturbed"
    shutil.copytree(new, perturbed)
    weights = perturbed / "train_head" / "vision_linear" / "w.npy"
    w = np.load(weights)
    w[3, 7] = np.nextafter(w[3, 7], np.inf)
    np.save(weights, w)
    (perturbed / "cli" / "log" / "evaluate.txt").write_text("exit 0\n", encoding="utf-8")
    lines = fingerprint.differences(old, perturbed)
    assert len(lines) == 2
    assert lines[0] == "cli/log/evaluate.txt: differs"
    assert lines[1].startswith("train_head/vision_linear/w.npy: differs, largest absolute difference ")
    assert float(lines[1].rsplit(" ", 1)[1]) > 0.0


def test_fingerprint_tells_a_dtype_change_from_a_value_change(fingerprint, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    w = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    for root, dtype in ((old, np.float64), (new, np.float32)):
        root.mkdir()
        np.save(root / "w.npy", w.astype(dtype))  # float32-exact either way
        np.save(root / "b.npy", np.full(3, 0.5 if root is old else 0.75))
    assert fingerprint.differences(old, new) == [
        "b.npy: differs, largest absolute difference 0.25",
        "w.npy: differs in bytes only, values equal (dtype float64 -> float32)",
    ]


def test_fingerprint_against_a_revision(fingerprint, capsys, tmp_path):
    # a tree of the working tree's src/, written through a scratch index, makes the same
    # bytes as the working tree whether or not src/ matches HEAD
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp_path / "index")}
    add = subprocess.run(["git", "-C", str(REPO), "add", "--", "src"], env=env,
                         capture_output=True)
    if add.returncode:
        pytest.skip("not a git checkout")
    tree = subprocess.run(["git", "-C", str(REPO), "write-tree"], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()
    code = fingerprint.main(["--against", tree], size="tiny")
    out = capsys.readouterr().out
    assert code == 0, out
    assert re.fullmatch(rf"0 of \d+ artifacts differ from {tree}", out.strip())
