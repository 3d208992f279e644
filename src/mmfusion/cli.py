"""Command-line surface for the fusion pipeline.

Every subcommand works inside its --out directory.  ``main`` creates that
directory, times the subcommand and, only when it succeeds, writes
``summary.txt`` there: key=value lines with the keys macro_f1,
mean_accuracy, epochs, seed, macs_per_row, wall_ms taken from what the
subcommand returns (``nan`` where a key does not apply).  For pseudo-loop,
``epochs`` counts executed rounds.  train-head and pseudo-loop report the
validation scores their library call recorded for the best epoch or round;
neither predicts the validation split again.  macs_per_row, written by
train-head and predict, is the head's forward multiply-accumulates per row
(:func:`fusion.forward_macs`).  Exit codes: 0 success, 1 usage error, 2 data
or shape error, 3 numeric failure.  wall_ms is the only nondeterministic
output.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data_io import (
    gen_synthetic,
    load_dataset,
    load_inputs,
    load_model,
    read_embeddings,
    read_ids,
    read_label_matrix,
    rows_in_order,
    save_dataset,
    save_model,
    write_embeddings,
    write_ids,
    write_predictions,
)
from .errors import DataError, DomainError, NumericError, ShapeError
from .fusion import (
    HEAD_INPUTS,
    HEAD_KINDS,
    LABEL_THRESHOLD,
    N_CLASSES,
    CLASS_IDS,
    assign_label_matrix,
    forward_macs,
    fuse_logits,
    logits_to_probs,
    predict_logits,
)
from .metrics import confusion_counts, f1_per_class, macro_f1, mean_accuracy, scores
from .training import TrainConfig, pseudo_label_loop, train_head
from .vision_blocks import (
    ConvSpec,
    ScalingSpec,
    compound_scale,
    cost_depthwise_separable,
    cost_grouped,
    cost_standard,
    separable_ratio,
)

def _add_config_flags(sub: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """One flag per TrainConfig field outside ``skip``, stored as ``cfg_<field>``."""
    sub.add_argument("--config", help="key=value config file")
    for field in fields(TrainConfig):
        if field.name not in skip:
            flag = "--" + field.name.replace("_", "-")
            sub.add_argument(flag, dest=f"cfg_{field.name}", metavar="VALUE")


def _resolve_config(args) -> TrainConfig:
    # a skipped field has no flag, hence no attribute
    flags = {f.name: getattr(args, f"cfg_{f.name}", None) for f in fields(TrainConfig)}
    overrides = {key: raw for key, raw in flags.items() if raw is not None}
    if args.config:
        return TrainConfig.from_file(args.config, overrides)
    return TrainConfig().with_overrides(overrides)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


SUMMARY_KEYS = ("macro_f1", "mean_accuracy", "epochs", "seed", "macs_per_row", "wall_ms")


def write_summary(out_dir: Path, **values) -> None:
    row = {key: values.get(key, float("nan")) for key in SUMMARY_KEYS}
    lines = [f"{key}={_fmt(val)}" for key, val in row.items()]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _label_and_write(logits: np.ndarray, ids, truth, threshold: float, out: Path) -> dict:
    """Label ``logits``, score them against ``truth`` if given, then write the three outputs.

    Scoring first means labels that cannot be scored leave ``out`` empty.
    """
    preds = assign_label_matrix(logits_to_probs(logits), threshold=threshold)
    summary = {} if truth is None else scores(preds, truth)
    write_embeddings(logits, out / "logits.femb")
    write_ids(ids, out / "ids.csv")
    write_predictions(ids, preds, out / "predictions.csv")
    return summary


# ---------------------------------------------------------------- subcommands


def cmd_gen_synthetic(args, out: Path) -> dict:
    train, test, val = gen_synthetic(
        seed=args.seed, n_train=args.n_train, n_test=args.n_test, n_val=args.n_val, noise=args.noise
    )
    save_dataset(train, out / "train")
    save_dataset(test, out / "test")
    save_dataset(val, out / "val")
    print(f"wrote train/test/val splits under {out}")
    return {"seed": args.seed}


def cmd_train_head(args, out: Path) -> dict:
    config = _resolve_config(args)
    train = load_dataset(args.train, require_labels=True)
    val = load_dataset(args.val, require_labels=True)
    result = train_head(train, val, args.kind, config)
    save_model(result.model, out / "model.fus1")
    history_lines = ["epoch,train_loss,val_f1"]
    history_lines += [f"{r.epoch},{r.train_loss!r},{r.val_f1!r}" for r in result.history]
    (out / "history.csv").write_text("\n".join(history_lines) + "\n", encoding="utf-8")
    best = result.history[result.best_epoch - 1]
    print(f"trained {args.kind}: best epoch {result.best_epoch}, val f1 {best.val_f1!r}")
    return {"epochs": len(result.history), "seed": config.seed,
            "macro_f1": best.val_f1, "mean_accuracy": best.val_mean_accuracy,
            "macs_per_row": forward_macs(args.kind)}


def cmd_predict(args, out: Path) -> dict:
    model = load_model(args.model)
    ids, blocks, labels = load_inputs(args.data, HEAD_INPUTS[model.kind])
    logits = predict_logits(model, blocks.get("text"), blocks.get("image"))
    summary = _label_and_write(logits, ids, labels, args.threshold, out)
    print(f"wrote predictions for {len(ids)} samples to {out}")
    return {**summary, "macs_per_row": forward_macs(model.kind)}


def _logits_in_order(path, ids) -> np.ndarray:
    """The rows of logits file ``path`` in the order of ``ids``, by the ids.csv beside it."""
    block = read_embeddings(path)
    if block.shape[1] != N_CLASSES:
        raise ShapeError(f"{path}: logits must have {N_CLASSES} columns, got {block.shape[1]}")
    return rows_in_order(ids, read_ids(Path(path).with_name("ids.csv")), block, path)


def cmd_fuse_logits(args, out: Path) -> dict:
    if len(args.logits) < 2:
        raise DomainError("fuse-logits needs at least two logits files")
    ids = read_ids(args.ids)
    blocks = [_logits_in_order(path, ids) for path in args.logits]
    truth = None
    if args.labels:
        truth = rows_in_order(ids, *read_label_matrix(args.labels), args.labels)
    summary = _label_and_write(fuse_logits(blocks), ids, truth, args.threshold, out)
    print(f"fused {len(args.logits)} logit sets over {len(ids)} samples")
    return summary


def cmd_evaluate(args, out: Path) -> dict:
    pred_ids, preds = read_label_matrix(args.pred)
    truth_ids, truth = read_label_matrix(args.truth)
    truth = rows_in_order(pred_ids, truth_ids, truth, args.truth)
    counts = confusion_counts(preds, truth)
    per_class = f1_per_class(counts)
    macro = macro_f1(counts)
    acc = mean_accuracy(counts)
    for class_id, score in zip(CLASS_IDS, per_class):
        print(f"class{class_id}_f1={float(score)!r}")
    print(f"macro_f1={macro!r}")
    print(f"mean_accuracy={acc!r}")
    return {"macro_f1": macro, "mean_accuracy": acc}


def cmd_pseudo_loop(args, out: Path) -> dict:
    config = _resolve_config(args)
    train = load_dataset(args.train, require_labels=True)
    test = load_dataset(args.test)
    val = load_dataset(args.val, require_labels=True)
    result = pseudo_label_loop(
        train, test, val, config, max_rounds=args.max_rounds, eps=args.eps
    )
    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    for kind, model in result.models.items():
        save_model(model, models_dir / f"{kind}.fus1")
    rounds_lines = ["round,val_f1"] + [f"{r.round},{r.val_f1!r}" for r in result.history]
    (out / "rounds.csv").write_text("\n".join(rounds_lines) + "\n", encoding="utf-8")
    if result.pseudo_labels:  # keyed by the test ids, in their order
        write_predictions(*zip(*result.pseudo_labels.items()), out / "pseudo_labels.csv")
    best = result.history[result.best_round]
    print(f"pseudo-label loop: best round {result.best_round} with fused val f1 {best.val_f1!r}")
    return {"epochs": len(result.history), "seed": config.seed,
            "macro_f1": best.val_f1, "mean_accuracy": best.val_mean_accuracy}


def cmd_flops(args, out: Path) -> dict:
    # the first flag of each group leads it: the cost model needs --dk, compound scaling --phi
    for lead, *group in (("dk", "m", "n", "df", "groups"), [f.name for f in fields(ScalingSpec)]):
        stray = [f"--{name}" for name in group if getattr(args, name) is not None]
        if getattr(args, lead) is None and stray:
            raise DomainError(f"flops needs --{lead} alongside {', '.join(stray)}")
    lines = []
    if args.dk is not None:
        for name in ("m", "n", "df"):
            if getattr(args, name) is None:
                raise DomainError(f"flops needs --{name} alongside --dk")
        spec = ConvSpec(dk=args.dk, m=args.m, n=args.n, df=args.df, mode="standard")
        std = cost_standard(spec)
        dw, pw, total = cost_depthwise_separable(spec)
        lines += [
            f"standard_macs={std}",
            f"depthwise_macs={dw}",
            f"pointwise_macs={pw}",
            f"separable_macs={total}",
            f"separable_ratio={separable_ratio(spec)!r}",
        ]
        if args.groups is not None:
            grouped = cost_grouped(replace(spec, groups=args.groups, mode="grouped"))
            lines.append(f"grouped_macs={grouped}")
    if args.phi is not None:  # each ScalingSpec field has the flag of its name
        given = {f.name: getattr(args, f.name) for f in fields(ScalingSpec)}
        spec = ScalingSpec(**{name: value for name, value in given.items() if value is not None})
        lines += [f"{key}={value!r}" for key, value in compound_scale(spec)._asdict().items()]
    if not lines:
        raise DomainError("flops needs --dk (cost model) or --phi (compound scaling) flags")
    for line in lines:
        print(line)
    (out / "flops.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {}


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmfusion", description="multi-label multi-modal fusion toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-synthetic", help="write a synthetic train/test/val benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--n-val", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.3)
    p.set_defaults(handler=cmd_gen_synthetic)

    p = subs.add_parser("train-head", help="train one head and save it")
    p.add_argument("--train", required=True, help="training dataset directory")
    p.add_argument("--val", required=True,
                   help="labeled validation dataset directory, scored after every epoch")
    p.add_argument("--kind", required=True, choices=HEAD_KINDS)
    # one head trains here, so only pseudo-loop reads fusion_set; a --config file may name it
    _add_config_flags(p, skip=("fusion_set",))
    p.set_defaults(handler=cmd_train_head)

    p = subs.add_parser("predict", help="run a saved model over a dataset")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--threshold", type=float, default=LABEL_THRESHOLD)
    p.set_defaults(handler=cmd_predict)

    p = subs.add_parser("fuse-logits", help="average logit files and assign labels")
    p.add_argument("--logits", nargs="+", required=True, help="two or more logit files")
    p.add_argument("--ids", required=True, help="ids file giving the order of the fused rows")
    p.add_argument("--labels", help="optional truth labels to score against")
    p.add_argument("--threshold", type=float, default=LABEL_THRESHOLD)
    p.set_defaults(handler=cmd_fuse_logits)

    p = subs.add_parser("evaluate", help="score predictions against truth labels")
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument("--truth", required=True, help="truth labels file")
    p.set_defaults(handler=cmd_evaluate)

    p = subs.add_parser("pseudo-loop", help="run the self-training loop")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True, help="unlabeled pool directory")
    p.add_argument("--val", required=True)
    p.add_argument("--max-rounds", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-4)
    _add_config_flags(p)
    p.set_defaults(handler=cmd_pseudo_loop)

    p = subs.add_parser("flops", help="print convolution cost and scaling quantities")
    p.add_argument("--dk", type=int, help="kernel size")
    p.add_argument("--m", type=int, help="input channels")
    p.add_argument("--n", type=int, help="output channels")
    p.add_argument("--df", type=int, help="feature-map side")
    p.add_argument("--groups", type=int)
    for field in fields(ScalingSpec):  # an unset flag leaves the field's default
        p.add_argument("--" + field.name, type=float)
    p.set_defaults(handler=cmd_flops)

    for sub in subs.choices.values():  # main creates --out; every subcommand lists it last
        sub.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 0 for --help, map the rest to 1
        return 0 if exc.code == 0 else 1
    try:
        start = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = args.handler(args, out)
        write_summary(out, wall_ms=(time.perf_counter() - start) * 1e3, **summary)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
