"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs, as
one caller, a fixed amount of work per iteration: ``iterate`` calls the
library (or the CLI) as a user would, ``replay`` repeats the same work from
public calls inside spans.  Every output check is an operation of its own,
so a failed check counts once against the attempted operations.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from mmfusion import (
    TrainConfig,
    evaluate_model,
    fused_val_f1,
    gen_synthetic,
    load_dataset,
    load_model,
    pseudo_label_loop,
    read_embeddings,
    read_labels,
    save_dataset,
    save_model,
    train_head,
    write_embeddings,
    write_predictions,
)
from mmfusion.data_io import read_ids, write_ids
from mmfusion.fusion import FUSION_SETS, assign_labels_batch, fuse_logits, logits_to_probs, predict_logits
from mmfusion.training import fused_predictions

import replay

NOISE = 0.3
LR = 1e-2
# the synthetic recipe's promise: a head that sees one modality is capped near
# macro F1 0.5, and both modalities together beat it by at least this margin
FUSION_MARGIN = 0.05
SINGLE_MODALITY_CAP = 0.5
PREDICT_REPEATS = 3
# one pseudo-label round always runs, so every iteration does the same work
ROUNDS = 1
EPS = 1e-4


class Ops:
    """Attempted and failed operations; a call and each check on its output is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._counted: Exception | None = None

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{name}: {exc!r}")
            self._counted = exc
            raise

    def uncaught(self, exc: Exception) -> None:
        """Count an exception that escaped an iteration; one raised inside ``op`` is counted already."""
        if exc is not self._counted:
            self.attempted += 1
            self.failures.append(f"iteration: {exc!r}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".rstrip())


def config(seed: int, epochs: int, fusion_set=FUSION_SETS["fm1"]) -> TrainConfig:
    # patience >= max_epochs: every head trains exactly ``epochs`` epochs
    return TrainConfig(lr=LR, max_epochs=epochs, patience=epochs, seed=seed, fusion_set=fusion_set)


def label_sets_ok(preds, n: int) -> bool:
    return len(preds) == n and not any(p.is_empty for p in preds)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class InProcess:
    """A workload that calls the library in the benchmark's own process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        return {}


class SelfTrain(InProcess):
    """``pseudo_label_loop`` over the fm2 heads, then fused labels for the pool."""

    EPOCHS = 2
    SIZES = dict(n_train=2000, n_test=4000, n_val=500)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = config(seed, self.EPOCHS, FUSION_SETS["fm2"])
        self.first = None

    def setup(self) -> None:
        self.train, pool, self.val = gen_synthetic(seed=self.seed, noise=NOISE, **self.SIZES)
        self.pool = pool.without_labels()
        warm = self.train.subset(range(128))
        pseudo_label_loop(warm, self.pool.subset(range(128)), self.val.subset(range(64)),
                          config(self.seed, 1, FUSION_SETS["fm2"]), ROUNDS, EPS)

    def _predict(self, models):
        return [timed(fused_predictions, models, self.pool) for _ in range(PREDICT_REPEATS)]

    def iterate(self, ops: Ops) -> dict:
        start = time.perf_counter()
        with ops.op("pseudo_label_loop"):
            result, train_s = timed(pseudo_label_loop, self.train, self.pool, self.val,
                                    self.config, ROUNDS, EPS)
        with ops.op("fused_predictions"):
            runs = self._predict(result.models)
        wall = time.perf_counter() - start

        preds = runs[0][0]
        ops.check("labels_nonempty", all(label_sets_ok(p, len(self.pool)) for p, _ in runs))
        fused = fused_val_f1(result.models, self.val)
        singles = {k: evaluate_model(result.models[k], self.val) for k in FUSION_SETS["fm1"]}
        ops.check("fused_beats_single", all(fused >= f + FUSION_MARGIN for f in singles.values()),
                  f"fused {fused!r} singles {singles!r}")
        if self.first is None:
            self.first = (result.models, preds)
        else:
            ops.check("deterministic", replay.same_models(result.models, self.first[0])
                      and preds == self.first[1])
        rounds = len(result.history)
        rows = len(self.train) + (rounds - 1) * (len(self.train) + len(self.pool))
        return dict(
            wall_s=wall,
            train_s=train_s,
            train_samples=rows * self.EPOCHS * len(self.config.fusion_set),
            predict_s=sorted(t for _, t in runs)[len(runs) // 2],
            predict_rows=len(self.pool),
            f1=fused,
        )

    def replay(self, tr, ops: Ops) -> float:
        start = time.perf_counter()
        with ops.op("replay"):
            models = replay.pseudo_label_loop(tr, self.train, self.pool, self.val, self.config,
                                              ROUNDS, EPS)
            preds = [replay.fused_predictions(tr, models, self.pool) for _ in range(PREDICT_REPEATS)]
        wall = time.perf_counter() - start
        ops.check("replay_matches", replay.same_models(models, self.first[0])
                  and all(p == self.first[1] for p in preds))
        return wall

class CrossAttn(InProcess):
    """``train_head`` for the cross-attention head, then its labels for a test split."""

    KIND = "cross_attn_fcnn"
    EPOCHS = 2
    SIZES = dict(n_train=2000, n_test=2000, n_val=500)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = config(seed, self.EPOCHS)
        self.first = None

    def setup(self) -> None:
        self.train, self.test, self.val = gen_synthetic(seed=self.seed, noise=NOISE, **self.SIZES)
        train_head(self.train.subset(range(128)), self.val.subset(range(64)), self.KIND,
                   config(self.seed, 1))

    def _labels(self, model):
        logits = predict_logits(model, self.test.text, self.test.image)
        return assign_labels_batch(logits_to_probs(logits).data)

    def iterate(self, ops: Ops) -> dict:
        start = time.perf_counter()
        with ops.op("train_head"):
            result, train_s = timed(train_head, self.train, self.val, self.KIND, self.config)
        with ops.op("predict"):
            runs = [timed(self._labels, result.model) for _ in range(PREDICT_REPEATS)]
        wall = time.perf_counter() - start

        preds = runs[0][0]
        ops.check("labels_nonempty", all(label_sets_ok(p, len(self.test)) for p, _ in runs))
        f1 = evaluate_model(result.model, self.val)
        ops.check("beats_single_modality", f1 >= SINGLE_MODALITY_CAP + FUSION_MARGIN, f"f1 {f1!r}")
        models = {self.KIND: result.model}
        if self.first is None:
            self.first = (models, preds)
        else:
            ops.check("deterministic", replay.same_models(models, self.first[0])
                      and preds == self.first[1])
        return dict(
            wall_s=wall,
            train_s=train_s,
            train_samples=len(self.train) * len(result.history),
            predict_s=sorted(t for _, t in runs)[len(runs) // 2],
            predict_rows=len(self.test),
            f1=f1,
        )

    def replay(self, tr, ops: Ops) -> float:
        start = time.perf_counter()
        n = len(self.test)
        with ops.op("replay"):
            model = replay.train_head(tr, self.train, self.val, self.KIND, self.config)
            preds = []
            for _ in range(PREDICT_REPEATS):
                logits = tr.call("fusion.predict_logits", predict_logits, model, self.test.text,
                                 self.test.image, rows=n, kind=self.KIND)
                preds.append(replay.assign(tr, logits, n))
        wall = time.perf_counter() - start
        ops.check("replay_matches", replay.same_models({self.KIND: model}, self.first[0])
                  and all(p == self.first[1] for p in preds))
        return wall


def _stable_digest(path: Path) -> str:
    """sha256 of a CLI artifact; ``wall_ms`` is the one field allowed to differ between runs."""
    data = path.read_bytes()
    if path.name == "summary.txt":
        data = b"".join(l for l in data.splitlines(True) if not l.startswith(b"wall_ms="))
    return hashlib.sha256(data).hexdigest()


def _summary(path: Path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines())
    return {k: float(v) for k, v in pairs}


class CliPipeline:
    """train-head x2, predict x2, fuse-logits and evaluate, each as its own process."""

    HEADS = FUSION_SETS["fm1"]
    EPOCHS = 3
    SIZES = dict(n_train=2000, n_test=10000, n_val=500)
    COMMAND_TIMEOUT_S = 150

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = config(seed, self.EPOCHS)
        self.work = work
        self.data = work / "data"
        self.first = None
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def _commands(self, out: Path):
        d, e = self.data, str(self.EPOCHS)
        cmds = [
            ("train-head",
             ["train-head", "--train", d / "train", "--val", d / "val", "--kind", kind,
              "--lr", str(LR), "--max-epochs", e, "--patience", e, "--seed", str(self.seed),
              "--out", out / kind])
            for kind in self.HEADS
        ]
        cmds += [
            ("predict",
             ["predict", "--model", out / kind / "model.fus1", "--data", d / "test",
              "--out", out / f"pred_{kind}"])
            for kind in self.HEADS
        ]
        preds = [out / f"pred_{kind}" for kind in self.HEADS]
        cmds.append(("fuse-logits",
                     ["fuse-logits", "--logits", *(p / "logits.femb" for p in preds),
                      "--ids", preds[0] / "ids.csv", "--labels", d / "test" / "labels.csv",
                      "--out", out / "fused"]))
        cmds.append(("evaluate",
                     ["evaluate", "--pred", out / "fused" / "predictions.csv",
                      "--truth", d / "test" / "labels.csv", "--out", out / "eval"]))
        return cmds

    def _cli(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mmfusion", *map(str, argv)], env=self.env,
                              cwd=self.work, capture_output=True, text=True,
                              timeout=self.COMMAND_TIMEOUT_S)

    def setup(self) -> None:
        splits = gen_synthetic(seed=self.seed, noise=NOISE, **self.SIZES)
        for name, split in zip(("train", "test", "val"), splits):
            save_dataset(split, self.data / name)
        self.n_test = len(splits[1])
        self._cli(["--help"])  # warm the interpreter's and numpy's files

    def _chain(self, ops: Ops, out: Path, tr=None) -> dict:
        """Run every command in order; returns seconds per command name (summed)."""
        shutil.rmtree(out, ignore_errors=True)
        seconds: dict[str, float] = {}
        for name, argv in self._commands(out):
            with ops.op(f"cli.{name}"):
                start = time.perf_counter()
                if tr is None:
                    proc = self._cli(argv)
                else:
                    proc = tr.call(f"cli.{name}", self._cli, argv)
                seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return seconds

    def iterate(self, ops: Ops) -> dict:
        out = self.work / "run"
        seconds = self._chain(ops, out)

        fused = out / "fused"
        with ops.op("check.labels"):
            truth_ids = read_ids(self.data / "test" / "ids.csv")
            preds = read_labels(fused / "predictions.csv")
        ops.check("labels_nonempty", list(preds) == list(truth_ids)
                  and label_sets_ok(list(preds.values()), self.n_test))
        singles = [_summary(out / f"pred_{k}" / "summary.txt")["macro_f1"] for k in self.HEADS]
        fused_f1 = _summary(fused / "summary.txt")["macro_f1"]
        ops.check("fused_beats_single", all(fused_f1 >= f + FUSION_MARGIN for f in singles),
                  f"fused {fused_f1!r} singles {singles!r}")
        digests = {str(p.relative_to(out)): _stable_digest(p)
                   for p in sorted(out.rglob("*")) if p.is_file()}
        if self.first is None:
            self.first = digests
        else:
            ops.check("byte_identical", digests == self.first)
        return dict(
            wall_s=sum(seconds.values()),
            train_s=seconds["train-head"],
            train_samples=self.SIZES["n_train"] * self.EPOCHS * len(self.HEADS),
            predict_s=seconds["predict"] + seconds["fuse-logits"],
            predict_rows=self.n_test,
            f1=_summary(out / "eval" / "summary.txt")["macro_f1"],
        )

    def replay(self, tr, ops: Ops) -> float:
        """The command chain with one span per process, then its library calls in-process."""
        out = self.work / "run"
        wall = sum(self._chain(ops, out, tr).values())
        with ops.op("replay"):
            same = self._replay_in_process(tr, out, self.work / "replay")
        ops.check("replay_matches", same)
        return wall

    def _replay_in_process(self, tr, out: Path, rdir: Path) -> bool:
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)
        d = self.data
        n = self.n_test
        same = True
        for kind in self.HEADS:  # train-head
            train = tr.call("data_io.load_dataset", load_dataset, d / "train", True,
                            rows=self.SIZES["n_train"])
            val = tr.call("data_io.load_dataset", load_dataset, d / "val", True,
                          rows=self.SIZES["n_val"])
            model = replay.train_head(tr, train, val, kind, self.config)
            tr.call("data_io.save_model", save_model, model, rdir / f"{kind}.fus1")
            cli_model = load_model(out / kind / "model.fus1")
            same &= replay.same_models({kind: model}, {kind: cli_model})
        for kind in self.HEADS:  # predict
            model = tr.call("data_io.load_model", load_model, out / kind / "model.fus1")
            for name in ("text.femb", "image.femb"):  # the reads load_dataset makes, alone
                path = d / "test" / name
                tr.call("data_io.read_embeddings", read_embeddings, path,
                        bytes=path.stat().st_size)
            test = tr.call("data_io.load_dataset", load_dataset, d / "test", rows=n)
            logits = tr.call("fusion.predict_logits", predict_logits, model, test.text, test.image,
                             rows=n, kind=kind)
            preds = replay.assign(tr, logits, n)
            tr.call("data_io.write_embeddings", write_embeddings, logits, rdir / f"{kind}.femb",
                    rows=n)
            tr.call("data_io.write_ids", write_ids, test.ids, rdir / f"{kind}.ids", rows=n)
            tr.call("data_io.write_predictions", write_predictions, test.ids, preds,
                    rdir / f"{kind}.csv", rows=n)
            replay.score(tr, preds, test.labels)
        # fuse-logits
        paths = [out / f"pred_{kind}" / "logits.femb" for kind in self.HEADS]
        blocks = [tr.call("data_io.read_embeddings", read_embeddings, p, bytes=p.stat().st_size)
                  for p in paths]
        ids = tr.call("data_io.read_ids", read_ids, out / f"pred_{self.HEADS[0]}" / "ids.csv",
                      rows=n)
        fused = tr.call("fusion.fuse_logits", fuse_logits, blocks, rows=n).data
        preds = replay.assign(tr, fused, n)
        tr.call("data_io.write_embeddings", write_embeddings, fused, rdir / "fused.femb", rows=n)
        tr.call("data_io.write_predictions", write_predictions, ids, preds, rdir / "fused.csv",
                rows=n)
        truth = tr.call("data_io.read_labels", read_labels, d / "test" / "labels.csv", rows=n)
        replay.score(tr, preds, [truth[i] for i in ids])
        # evaluate
        pred_map = tr.call("data_io.read_labels", read_labels, out / "fused" / "predictions.csv",
                           rows=n)
        truth_map = tr.call("data_io.read_labels", read_labels, d / "test" / "labels.csv", rows=n)
        replay.score(tr, list(pred_map.values()), [truth_map[i] for i in pred_map])
        return same and list(pred_map.values()) == preds

    def import_ms(self) -> float:
        """Median over three fresh interpreters of importing the CLI module, numpy included."""
        times = []
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mmfusion.cli"],
                                  env=self.env, cwd=self.work, capture_output=True, text=True,
                                  timeout=self.COMMAND_TIMEOUT_S, check=True)
            # lines read "import time: self [us] | cumulative | name"; nesting indents the name
            top = [line.split("|") for line in proc.stderr.splitlines() if "|" in line]
            times.append(sum(int(f[1]) for f in top
                             if f[2].startswith(" mmfusion") and not f[2].startswith("  ")) / 1e3)
        return sorted(times)[1]

    def peak_rss_mb(self) -> float:
        # the largest of the finished child processes
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        return {"cli.import_ms": self.import_ms()}


WORKLOADS = {"self_train": SelfTrain, "cross_attn": CrossAttn, "cli_pipeline": CliPipeline}
