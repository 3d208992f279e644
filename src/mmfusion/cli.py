"""Command-line surface for the fusion pipeline.

Every subcommand writes a ``summary.txt`` of key=value lines into its --out
directory with the keys macro_f1, mean_accuracy, epochs, seed, wall_ms
(``nan`` where a key does not apply; for pseudo-loop, ``epochs`` counts
executed rounds).  Exit codes: 0 success, 1 usage error, 2 data or shape
error, 3 numeric failure.  wall_ms is the only nondeterministic output.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .data_io import (
    EmbeddingDataset,
    gen_synthetic,
    load_dataset,
    load_model,
    read_embeddings,
    read_ids,
    read_labels,
    save_dataset,
    save_model,
    write_embeddings,
    write_ids,
    write_predictions,
)
from .errors import DataError, DomainError, NumericError, ShapeError
from .fusion import (
    HEAD_KINDS,
    N_CLASSES,
    CLASS_IDS,
    assign_label_matrix,
    fuse_logits,
    logits_to_probs,
    predict_logits,
)
from .metrics import confusion_counts, f1_per_class, macro_f1, mean_accuracy
from .training import TrainConfig, fused_probs, pseudo_label_loop, train_head
from .vision_blocks import (
    ConvSpec,
    ScalingSpec,
    compound_scale,
    cost_depthwise_separable,
    cost_grouped,
    cost_standard,
    separable_ratio,
)

_CONFIG_FLAGS = (
    ("--lr", "lr"),
    ("--batch-size", "batch_size"),
    ("--max-epochs", "max_epochs"),
    ("--patience", "patience"),
    ("--beta1", "beta1"),
    ("--beta2", "beta2"),
    ("--adam-eps", "eps"),
    ("--seed", "seed"),
    ("--class-weighting", "class_weighting"),
    ("--fusion-set", "fusion_set"),
)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    for flag, key in _CONFIG_FLAGS:
        sub.add_argument(flag, dest=f"cfg_{key}", metavar="VALUE")


def _resolve_config(args) -> TrainConfig:
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for _, key in _CONFIG_FLAGS
        if getattr(args, f"cfg_{key}") is not None
    }
    if args.config:
        return TrainConfig.from_file(args.config, overrides)
    return TrainConfig().with_overrides(overrides)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


SUMMARY_KEYS = ("macro_f1", "mean_accuracy", "epochs", "seed", "wall_ms")


def write_summary(out_dir: Path, **values) -> None:
    row = {key: values.get(key, float("nan")) for key in SUMMARY_KEYS}
    lines = [f"{key}={_fmt(val)}" for key, val in row.items()]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- subcommands


def cmd_gen_synthetic(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    train, test, val = gen_synthetic(
        seed=args.seed, n_train=args.n_train, n_test=args.n_test, n_val=args.n_val, noise=args.noise
    )
    save_dataset(train, out / "train")
    save_dataset(test, out / "test")
    save_dataset(val, out / "val")
    write_summary(out, seed=args.seed, wall_ms=(time.perf_counter() - start) * 1e3)
    print(f"wrote train/test/val splits under {out}")


def cmd_train_head(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    config = _resolve_config(args)
    train = load_dataset(args.train, require_labels=True)
    val = load_dataset(args.val, require_labels=True) if args.val else None
    result = train_head(train, val, args.kind, config)
    save_model(result.model, out / "model.fus1")
    history_lines = ["epoch,train_loss,val_f1"]
    history_lines += [f"{r.epoch},{r.train_loss!r},{r.val_f1!r}" for r in result.history]
    (out / "history.csv").write_text("\n".join(history_lines) + "\n", encoding="utf-8")
    best = result.history[result.best_epoch - 1]
    metrics = {}
    if val is not None:
        probs = logits_to_probs(predict_logits(result.model, val.text, val.image)).data
        counts = confusion_counts(assign_label_matrix(probs), val.labels)
        metrics = {"macro_f1": macro_f1(counts), "mean_accuracy": mean_accuracy(counts)}
    write_summary(
        out,
        epochs=len(result.history),
        seed=config.seed,
        wall_ms=(time.perf_counter() - start) * 1e3,
        **metrics,
    )
    print(f"trained {args.kind}: best epoch {result.best_epoch}, val f1 {best.val_f1!r}")


def cmd_predict(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    model = load_model(args.model, expect_kind=args.kind)
    data = load_dataset(args.data)
    logits = predict_logits(model, data.text, data.image)
    probs = logits_to_probs(logits).data
    preds = assign_label_matrix(probs, threshold=args.threshold)
    write_embeddings(logits, out / "logits.femb")
    write_ids(data.ids, out / "ids.csv")
    write_predictions(data.ids, preds, out / "predictions.csv")
    metrics = {}
    if data.labels is not None:
        counts = confusion_counts(preds, data.labels)
        metrics = {"macro_f1": macro_f1(counts), "mean_accuracy": mean_accuracy(counts)}
    write_summary(out, wall_ms=(time.perf_counter() - start) * 1e3, **metrics)
    print(f"wrote predictions for {len(data)} samples to {out}")


def cmd_fuse_logits(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    if len(args.logits) < 2:
        raise DomainError("fuse-logits needs at least two logits files")
    blocks = [read_embeddings(path) for path in args.logits]
    for path, block in zip(args.logits, blocks):
        if block.shape[1] != N_CLASSES:
            raise ShapeError(f"{path}: logits must have {N_CLASSES} columns, got {block.shape[1]}")
    ids = read_ids(args.ids)
    if any(block.shape[0] != len(ids) for block in blocks):
        raise DataError(f"logit files disagree with {args.ids} on the sample count")
    fused = fuse_logits(blocks).data
    preds = assign_label_matrix(logits_to_probs(fused).data, threshold=args.threshold)
    write_embeddings(fused, out / "logits.femb")
    write_predictions(ids, preds, out / "predictions.csv")
    metrics = {}
    if args.labels:
        truth = read_labels(args.labels)
        missing = [i for i in ids if i not in truth]
        if missing:
            raise DataError(f"{args.labels}: no labels for {len(missing)} ids, first {missing[0]!r}")
        counts = confusion_counts(preds, [truth[i] for i in ids])
        metrics = {"macro_f1": macro_f1(counts), "mean_accuracy": mean_accuracy(counts)}
    write_summary(out, wall_ms=(time.perf_counter() - start) * 1e3, **metrics)
    print(f"fused {len(args.logits)} logit sets over {len(ids)} samples")


def cmd_evaluate(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    pred_map = read_labels(args.pred)
    truth_map = read_labels(args.truth)
    missing = [i for i in pred_map if i not in truth_map]
    if missing:
        raise DataError(f"{args.truth}: no truth for {len(missing)} ids, first {missing[0]!r}")
    unpredicted = [i for i in truth_map if i not in pred_map]
    if unpredicted:
        raise DataError(
            f"{args.pred}: no prediction for {len(unpredicted)} truth ids, first {unpredicted[0]!r}"
        )
    ids = list(pred_map)
    counts = confusion_counts([pred_map[i] for i in ids], [truth_map[i] for i in ids])
    per_class = f1_per_class(counts)
    macro = macro_f1(counts)
    acc = mean_accuracy(counts)
    for class_id, score in zip(CLASS_IDS, per_class):
        print(f"class{class_id}_f1={float(score)!r}")
    print(f"macro_f1={macro!r}")
    print(f"mean_accuracy={acc!r}")
    write_summary(
        out, macro_f1=macro, mean_accuracy=acc, wall_ms=(time.perf_counter() - start) * 1e3
    )


def cmd_pseudo_loop(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
    config = _resolve_config(args)
    train = load_dataset(args.train, require_labels=True)
    test = load_dataset(args.test).without_labels()
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
    preds = assign_label_matrix(fused_probs(result.models, val))
    fused_counts = confusion_counts(preds, val.labels)
    write_summary(
        out,
        macro_f1=macro_f1(fused_counts),
        mean_accuracy=mean_accuracy(fused_counts),
        epochs=len(result.history),
        seed=config.seed,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )
    print(
        f"pseudo-label loop: best round {result.best_round} "
        f"with fused val f1 {result.best_val_f1!r}"
    )


def cmd_flops(args) -> None:
    start = time.perf_counter()
    out = _out_dir(args)
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
            grouped = cost_grouped(
                ConvSpec(
                    dk=args.dk, m=args.m, n=args.n, df=args.df, groups=args.groups, mode="grouped"
                )
            )
            lines.append(f"grouped_macs={grouped}")
    if args.phi is not None:
        spec = ScalingSpec(
            d0=args.d0,
            w0=args.w0,
            r0=args.r0,
            alpha=args.alpha,
            beta=args.beta,
            gamma=args.gamma,
            phi=args.phi,
            budget=args.budget,
        )
        scaled = compound_scale(spec)
        lines += [
            f"depth={scaled.depth!r}",
            f"width={scaled.width!r}",
            f"resolution={scaled.resolution!r}",
            f"flops_factor={scaled.flops_factor!r}",
            f"constraint_residual={scaled.constraint_residual!r}",
        ]
    if not lines:
        raise DomainError("flops needs --dk (cost model) or --phi (compound scaling) flags")
    for line in lines:
        print(line)
    (out / "flops.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_summary(out, wall_ms=(time.perf_counter() - start) * 1e3)


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
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen_synthetic)

    p = subs.add_parser("train-head", help="train one head and save it")
    p.add_argument("--train", required=True, help="training dataset directory")
    p.add_argument("--val", help="validation dataset directory")
    p.add_argument("--kind", required=True, choices=HEAD_KINDS)
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train_head)

    p = subs.add_parser("predict", help="run a saved model over a dataset")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--kind", choices=HEAD_KINDS, help="require this head kind")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_predict)

    p = subs.add_parser("fuse-logits", help="average logit files and assign labels")
    p.add_argument("--logits", nargs="+", required=True, help="two or more logit files")
    p.add_argument("--ids", required=True, help="ids file aligned with the logit rows")
    p.add_argument("--labels", help="optional truth labels to score against")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fuse_logits)

    p = subs.add_parser("evaluate", help="score predictions against truth labels")
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument("--truth", required=True, help="truth labels file")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = subs.add_parser("pseudo-loop", help="run the self-training loop")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True, help="unlabeled pool directory")
    p.add_argument("--val", required=True)
    p.add_argument("--max-rounds", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-4)
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_pseudo_loop)

    p = subs.add_parser("flops", help="print convolution cost and scaling quantities")
    p.add_argument("--dk", type=int, help="kernel size")
    p.add_argument("--m", type=int, help="input channels")
    p.add_argument("--n", type=int, help="output channels")
    p.add_argument("--df", type=int, help="feature-map side")
    p.add_argument("--groups", type=int)
    p.add_argument("--alpha", type=float, default=1.2)
    p.add_argument("--beta", type=float, default=1.1)
    p.add_argument("--gamma", type=float, default=1.15)
    p.add_argument("--phi", type=float)
    p.add_argument("--d0", type=float, default=1.0)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--budget", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_flops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 0 for --help, map the rest to 1
        return 0 if exc.code == 0 else 1
    try:
        args.handler(args)
    except (NumericError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
