#!/usr/bin/env python3
"""One sha256 per artifact of a fixed canonical run, to check byte identity.

    python scripts/fingerprint.py                 # one "digest  artifact" line each
    python scripts/fingerprint.py --against REV   # the artifacts REV makes differently

The canonical set runs with one BLAS thread on synthetic data of a fixed
seed: ``gen_synthetic``'s splits as held in memory (each block and the
labels) and the files ``save_dataset`` writes for them, so a change of data
representation shows by name; the parameter gradients of one weighted-BCE
backward pass per head kind, at seeded parameters on the first 64 training
rows, so a change of the backward shows by name too; ``train_head``
(parameters and history) and ``predict_logits`` for every head kind,
``fused_probs`` for fm1-fm3, ``pseudo_label_loop`` over fm2 and fm3, and the
CLI chain (every output file, and the stdout, stderr and exit code of each
command, one failing command included) with the ``--help`` text of the
parser and of every subcommand.  ``wall_ms`` lines are dropped, so two runs
of one tree on one machine print the same listing.

``--against REV`` unpacks ``git archive REV src`` into a temporary directory
and runs the same set against that source as well; it lists each artifact
whose digest differs, with the largest absolute difference of its numbers
or, when its numbers are equal, as differing in bytes only (naming any dtype
change), and exits 1 if any differs.  The working tree is left untouched.  Digests
are comparable only on one machine: BLAS kernels, and so the low bits, can
differ between CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

# rows of the train, test and val splits, training epochs and pseudo-label rounds
SIZES = {
    "full": dict(n_train=600, n_test=300, n_val=200, epochs=4, rounds=2),
    "tiny": dict(n_train=48, n_test=40, n_val=24, epochs=2, rounds=2),
}
SEED = 42
SUBCOMMANDS = ("gen-synthetic", "train-head", "predict", "fuse-logits", "evaluate", "pseudo-loop",
               "flops")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# ------------------------------------------------------------ the canonical run


def collect(out: Path, size: str) -> None:
    """Write every artifact of the canonical set under ``out``, from whatever ``mmfusion`` imports."""
    from mmfusion import cli
    from mmfusion.data_io import gen_synthetic, save_dataset
    from mmfusion.fusion import (FUSION_SETS, HEAD_KINDS, expected_param_shapes,
                                 head_forward_batch, predict_logits)
    from mmfusion.tensor import Tensor
    from mmfusion.training import (TrainConfig, bce_loss_node, class_weights, fused_probs,
                                   pseudo_label_loop, train_head)

    s = SIZES[size]
    train, test, val = gen_synthetic(SEED, s["n_train"], s["n_test"], s["n_val"], noise=0.3)
    config = TrainConfig(lr=1e-2, max_epochs=s["epochs"], patience=2, seed=SEED)

    def save(name: str, value) -> None:
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(value, str):
            path.write_text(value, encoding="utf-8")
        else:
            np.save(path, np.asarray(value), allow_pickle=False)

    def save_models(prefix: str, models) -> None:
        for kind, model in models.items():
            for name, arr in model.params.items():
                save(f"{prefix}/{kind}/{name}.npy", arr)

    for name, split in zip(("train", "test", "val"), (train, test, val)):
        for block in ("text", "image", "labels"):
            save(f"gen_synthetic/{name}/{block}.npy", getattr(split, block))
        save_dataset(split, out / "save_dataset" / name)

    # one weighted-BCE backward per kind on the first 64 rows, at drawn parameters, so
    # its gradients do not depend on training
    rows = slice(0, 64)
    weights = class_weights(train.label_counts())
    for kind in HEAD_KINDS:
        draw = np.random.default_rng(SEED).standard_normal
        leaves = {name: Tensor(0.05 * draw(shape), requires_grad=True)
                  for name, shape in expected_param_shapes(kind).items()}
        logits = head_forward_batch(kind, leaves, train.text[rows], train.image[rows])
        bce_loss_node(logits, train.labels[rows], weights).backward()
        for name, leaf in leaves.items():
            save(f"backward/{kind}/{name}.npy", leaf.grad)

    models = {}
    for kind in HEAD_KINDS:
        result = train_head(train, val, kind, config)
        models[kind] = result.model
        save_models("train_head", {kind: result.model})
        save(f"train_head/{kind}/history.csv",
             "".join(f"{r.epoch},{r.train_loss!r},{r.val_f1!r}\n" for r in result.history))
        save(f"train_head/{kind}/logits.npy", predict_logits(result.model, test.text, test.image))
    for name, kinds in FUSION_SETS.items():
        save(f"fused_probs/{name}.npy", fused_probs({k: models[k] for k in kinds}, test))

    for name in ("fm2", "fm3"):
        result = pseudo_label_loop(train, test.without_labels(), val,
                                   replace(config, fusion_set=FUSION_SETS[name]),
                                   max_rounds=s["rounds"])
        save_models(f"pseudo_label_loop/{name}", result.models)
        save(f"pseudo_label_loop/{name}/history.csv",
             "".join(f"{r.round},{r.val_f1!r}\n" for r in result.history))
        save(f"pseudo_label_loop/{name}/pseudo_labels.csv",
             "".join(f"{i},{' '.join(map(str, v.ids()))}\n" for i, v in result.pseudo_labels.items()))
        save(f"pseudo_label_loop/{name}/fused_probs.npy", fused_probs(result.models, val))

    _run_cli(cli, out / "cli", s)


def _run_cli(cli, work: Path, s: dict) -> None:
    """The CLI chain inside ``work``, each command's streams and exit code in ``work/log``."""
    train_flags = ["--lr", "1e-2", "--max-epochs", str(s["epochs"]), "--patience", "2",
                   "--seed", str(SEED)]
    commands = [("gen-synthetic", ["gen-synthetic", "--seed", str(SEED), "--n-train", str(s["n_train"]),
                                   "--n-test", str(s["n_test"]), "--n-val", str(s["n_val"]),
                                   "--out", "data"])]
    for kind in cli.HEAD_KINDS:
        commands.append((f"train-head-{kind}", ["train-head", "--train", "data/train", "--val",
                                                "data/val", "--kind", kind, *train_flags,
                                                "--out", f"heads/{kind}"]))
        commands.append((f"predict-{kind}", ["predict", "--model", f"heads/{kind}/model.fus1",
                                             "--data", "data/val", "--out", f"predict/{kind}"]))
    commands += [
        ("fuse-logits", ["fuse-logits", "--logits", "predict/vision_linear/logits.femb",
                         "predict/text_linear/logits.femb", "--ids", "data/val/ids.csv",
                         "--labels", "data/val/labels.csv", "--out", "fused"]),
        ("evaluate", ["evaluate", "--pred", "fused/predictions.csv",
                      "--truth", "data/val/labels.csv", "--out", "evaluate"]),
        ("pseudo-loop", ["pseudo-loop", "--train", "data/train", "--test", "data/test",
                         "--val", "data/val", "--fusion-set", "fm3", "--max-rounds", str(s["rounds"]),
                         *train_flags, "--out", "pseudo"]),
        ("pseudo-loop-unknown-set", ["pseudo-loop", "--train", "data/train", "--test", "data/test",
                                     "--val", "data/val", "--fusion-set", "fm9", "--out", "refused"]),
        ("help", ["--help"]),
    ]
    commands += [(f"help-{sub}", [sub, "--help"]) for sub in SUBCOMMANDS]
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)  # relative paths keep the temporary directory out of every output
    try:
        for name, argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            log = Path("log") / f"{name}.txt"
            log.parent.mkdir(exist_ok=True)
            log.write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n"
                           f"{stderr.getvalue()}", encoding="utf-8")
    finally:
        os.chdir(home)
    for summary in work.rglob("summary.txt"):  # wall_ms is the one timing in the outputs
        lines = summary.read_text(encoding="utf-8").splitlines(keepends=True)
        summary.write_text("".join(line for line in lines if not line.startswith("wall_ms=")),
                           encoding="utf-8")


# ------------------------------------------------------------ digests and diffs


def run_set(src: Path, out: Path, size: str) -> None:
    """:func:`collect` in a fresh process with one BLAS thread, importing ``mmfusion`` from ``src``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src), "COLUMNS": "80"}
    subprocess.run([sys.executable, __file__, "--collect", str(out), str(src), size],
                   env=env, check=True)


def digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def numbers(path: Path) -> np.ndarray | None:
    """The numbers an artifact holds, flattened in their dtype, or None for a file of no numbers."""
    from mmfusion.data_io import load_model, read_embeddings

    if path.suffix == ".npy":
        return np.load(path, allow_pickle=False).ravel()
    if path.suffix == ".femb":
        return read_embeddings(path).ravel()
    if path.suffix == ".fus1":
        params = load_model(path).params
        return np.concatenate([params[name].ravel() for name in sorted(params)])
    if path.suffix in (".csv", ".txt"):
        found = _NUMBER.findall(path.read_text(encoding="utf-8", errors="replace"))
        return np.array([float(x) for x in found]) if found else None
    return None


def differences(old: Path, new: Path) -> list[str]:
    """One line per artifact that is missing from one side or whose bytes differ.

    Numbers are compared bit for bit, widened to float64, so an artifact whose
    bytes differ while its numbers are equal, such as a dtype change, reads
    apart from one whose numbers moved.
    """
    a, b = digests(old), digests(new)
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b or name not in a:
            lines.append(f"{name}: only in {'the old' if name in a else 'the new'} set")
        elif a[name] != b[name]:
            x, y = numbers(old / name), numbers(new / name)
            if x is None or y is None or x.shape != y.shape:
                lines.append(f"{name}: differs")
                continue
            wide_x, wide_y = x.astype(np.float64), y.astype(np.float64)
            if wide_x.tobytes() == wide_y.tobytes():
                dtypes = f" (dtype {x.dtype} -> {y.dtype})" if x.dtype != y.dtype else ""
                lines.append(f"{name}: differs in bytes only, values equal{dtypes}")
            else:
                with np.errstate(invalid="ignore"):
                    gap = np.abs(wide_x - wide_y)
                lines.append(f"{name}: differs, largest absolute difference {np.nanmax(gap, initial=0.0):.3g}")
    return lines


def main(argv=None, size: str = "full") -> int:
    """The command line; ``size`` picks the row counts of the canonical set (tests use "tiny")."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV", help="git revision to compare the working tree with")
    ap.add_argument("--collect", nargs=3, metavar=("DIR", "SRC", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.collect:
        import mmfusion

        out, src, size = args.collect
        if Path(mmfusion.__file__).resolve().parents[1] != Path(src).resolve():
            sys.exit(f"mmfusion was imported from {mmfusion.__file__}, not from {src}")
        collect(Path(out), size)
        return 0

    sys.path.insert(0, str(REPO / "src"))  # numbers() reads the binary formats through it
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        tmp = Path(tmp)
        run_set(REPO / "src", tmp / "new", size)
        if not args.against:
            for name, digest in digests(tmp / "new").items():
                print(f"{digest}  {name}")
            return 0
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.against, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout, check=True)
        run_set(tmp / "rev" / "src", tmp / "old", size)
        lines = differences(tmp / "old", tmp / "new")
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(digests(tmp / 'new'))} artifacts differ from {args.against}")
        return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
