"""Class weighting, the weighted BCE objective, Adam, and the training loops.

The loss treats each of the 18 classes as an independent binary problem.
Rare classes get weights above 1 through a log-ratio rule: with T the total
number of positive label assignments in the split and n_c the positive count
of class c (clamped to at least 2), the weight is

    w_c = (log(n_c)/log(T) + log(T)/log(n_c)) / 2

which is 1 exactly when n_c == T and grows as n_c shrinks.  The ratio is
independent of the logarithm base.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_io import EmbeddingDataset
from .errors import (
    DatasetError,
    DomainError,
    NumericError,
    ShapeError,
)
from .fusion import (
    FUSION_SETS,
    HEAD_KINDS,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    assign_label_matrix,
    assign_labels_batch,
    expected_param_shapes,
    fuse_logits,
    head_forward_batch,
    logits_to_probs,
    predict_logits,
)
from .metrics import confusion_counts, macro_f1
from .tensor import Tensor, _sigmoid_values, make_scalar_node

# ------------------------------------------------------------- class weights


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights, all >= 1, derived from positive-label counts."""

    values: np.ndarray
    total: int
    counts: np.ndarray

    def __post_init__(self):
        if self.values.shape != (N_CLASSES,):
            raise ShapeError(f"weights must have shape ({N_CLASSES},), got {self.values.shape}")
        if not np.isfinite(self.values).all() or (self.values < 1.0 - 1e-12).any():
            raise DomainError("class weights must be finite and >= 1")


def class_weights(counts, total: int | None = None) -> ClassWeights:
    """Log-ratio weights from per-class positive counts.

    ``total`` defaults to the sum of the counts, the number of positive
    label assignments in the split.  Counts below 2 are clamped up to 2 so
    the ratio stays defined for absent classes.
    """
    arr = np.asarray(counts, dtype=np.int64)
    if arr.shape != (N_CLASSES,):
        raise ShapeError(f"need {N_CLASSES} per-class counts, got shape {arr.shape}")
    if (arr < 0).any():
        raise DomainError("per-class counts must be >= 0")
    t = int(arr.sum()) if total is None else int(total)
    if t < 3:
        raise DomainError(f"total positive count must be >= 3, got {t}")
    clamped = np.maximum(arr, 2).astype(np.float64)
    ratio = np.log(clamped) / math.log(t)
    values = 0.5 * (ratio + 1.0 / ratio)
    return ClassWeights(values=values, total=t, counts=arr)


def uniform_weights() -> np.ndarray:
    """All-ones weights; the loss then reduces to plain BCE."""
    return np.ones(N_CLASSES)


# ---------------------------------------------------------------------- loss


def _weight_values(weights) -> np.ndarray:
    w = weights.values if isinstance(weights, ClassWeights) else np.asarray(weights, dtype=np.float64)
    if w.shape != (N_CLASSES,):
        raise ShapeError(f"weights must have shape ({N_CLASSES},), got {w.shape}")
    return w


def weighted_bce_loss(logits, targets, weights) -> tuple[float, np.ndarray]:
    """Stable weighted binary cross-entropy over a [batch, 18] logit block.

    Returns the scalar loss and its gradient with respect to the logits,
    ``w_c * (sigmoid(z) - y) / batch``.  Each element contributes
    ``max(z, 0) - z*y + log1p(exp(-|z|))``, the overflow-free form of
    ``-[y log s + (1-y) log(1-s)]``.
    """
    z = np.asarray(logits.data if isinstance(logits, Tensor) else logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != N_CLASSES:
        raise ShapeError(f"logits must be [batch, {N_CLASSES}], got {z.shape}")
    if z.shape[0] < 1:
        raise DomainError("loss needs at least one sample")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != z.shape:
        raise ShapeError(f"targets shape {y.shape} does not match logits {z.shape}")
    if ((y != 0.0) & (y != 1.0)).any():
        raise DomainError("targets must be 0/1 indicators")
    if not np.isfinite(z).all():
        raise NumericError("logits contain non-finite values")
    w = _weight_values(weights)
    batch = z.shape[0]
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float((per_element * w).sum() / batch)
    grad = w * (_sigmoid_values(z) - y) / batch
    return loss, grad


def bce_loss_node(logits: Tensor, targets, weights) -> Tensor:
    """Scalar graph node for the weighted BCE loss; backward feeds the head."""
    loss, grad = weighted_bce_loss(logits, targets, weights)
    links = []
    if isinstance(logits, Tensor) and logits.requires_grad:
        links.append((logits, lambda g: g * grad))
    return make_scalar_node(loss, links)


# -------------------------------------------------------------------- config

DEFAULT_FUSION_SET = ("vision_linear", "text_linear")

_CONFIG_KEYS = (
    "lr",
    "batch_size",
    "max_epochs",
    "patience",
    "beta1",
    "beta2",
    "eps",
    "seed",
    "class_weighting",
    "fusion_set",
)

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    class_weighting: bool = True
    fusion_set: tuple[str, ...] = DEFAULT_FUSION_SET

    def __post_init__(self):
        # lr == 0 is allowed so no-op training stays expressible.
        if not (self.lr >= 0.0 and math.isfinite(self.lr)):
            raise DomainError(f"lr must be a finite value >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise DomainError(f"patience must be >= 0, got {self.patience}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise DomainError(f"{name} must lie in [0, 1), got {beta}")
        if self.eps <= 0.0:
            raise DomainError(f"eps must be > 0, got {self.eps}")
        kinds = tuple(self.fusion_set)
        if len(kinds) < 2:
            raise DomainError("fusion_set needs at least two head kinds")
        if len(set(kinds)) != len(kinds):
            raise DomainError(f"fusion_set repeats a head kind: {kinds}")
        unknown = [k for k in kinds if k not in HEAD_KINDS]
        if unknown:
            raise DomainError(f"unknown head kinds in fusion_set: {unknown}")
        object.__setattr__(self, "fusion_set", kinds)

    @staticmethod
    def parse_value(key: str, raw: str):
        if key in ("lr", "beta1", "beta2", "eps"):
            return float(raw)
        if key in ("batch_size", "max_epochs", "patience", "seed"):
            return int(raw)
        if key == "class_weighting":
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise DomainError(f"class_weighting must be true/false, got {raw!r}")
        if key == "fusion_set":
            name = raw.strip()
            if name in FUSION_SETS:
                return FUSION_SETS[name]
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        raise DomainError(f"unknown config key {key!r}, expected one of {_CONFIG_KEYS}")

    def with_overrides(self, overrides: Mapping[str, str]) -> "TrainConfig":
        """Apply raw string overrides (CLI flags beat file values)."""
        parsed = {key: TrainConfig.parse_value(key, raw) for key, raw in overrides.items()}
        return replace(self, **parsed)

    @staticmethod
    def from_file(path, overrides: Mapping[str, str] | None = None) -> "TrainConfig":
        """Read key=value lines; '#' starts a comment; blank lines ignored."""
        text = Path(path).read_text(encoding="utf-8")
        file_values: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key in file_values:
                raise DomainError(f"{path}:{lineno}: key {key!r} set twice")
            file_values[key] = raw.strip()
        merged = dict(file_values)
        merged.update(overrides or {})
        parsed = {key: TrainConfig.parse_value(key, raw) for key, raw in merged.items()}
        return TrainConfig(**parsed)


# ---------------------------------------------------------------------- adam


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus the bias-correction step count."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(params: Mapping[str, np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
    )


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray | None],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs are not mutated.

    Raises :class:`NumericError` as soon as a moment or a parameter stops
    being finite, e.g. when the squared gradient overflows.
    """
    if set(params) != set(state.m):
        raise ShapeError("optimizer state does not cover the parameter set")
    t = state.step + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter {p.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            m = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
            v = config.beta2 * state.v[name] + (1.0 - config.beta2) * g * g
            m_hat = m / (1.0 - config.beta1**t)
            v_hat = v / (1.0 - config.beta2**t)
            new_p = p - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
        # a non-finite first moment leaves the new value non-finite as well
        if not (np.isfinite(v).all() and np.isfinite(new_p).all()):
            raise NumericError(f"Adam step {t}: the moments or values of {name!r} are not finite")
        new_params[name] = new_p
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


# ------------------------------------------------------------ the epoch loop


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_f1: float


@dataclass(frozen=True)
class TrainResult:
    model: FusionModel
    history: tuple[EpochRecord, ...]
    best_epoch: int


def init_head_params(kind: str, seed: int, d_k: int = TEXT_DIM) -> dict[str, np.ndarray]:
    """Zero linear layer; attention projections drawn at scale 128^-0.5."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    scale = 1.0 / math.sqrt(TEXT_DIM)
    for name, shape in expected_param_shapes(kind, d_k).items():
        if name in ("wq", "wk", "wv"):
            params[name] = scale * rng.standard_normal(shape)
        elif name == "ln_gain":
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return params


def _snapshot(kind: str, params: Mapping[str, np.ndarray]) -> FusionModel:
    return FusionModel(kind=kind, params={k: np.array(v) for k, v in params.items()})


def evaluate_model(model: FusionModel, data: EmbeddingDataset, threshold: float = 0.5) -> float:
    """Macro F1 of thresholded sigmoid predictions against the data's labels."""
    if data.labels is None:
        raise DatasetError("evaluation needs a labeled dataset")
    probs = logits_to_probs(predict_logits(model, data.text, data.image)).data
    return macro_f1(confusion_counts(assign_label_matrix(probs, threshold), data.labels))


@contextmanager
def _overflow_raises():
    """Turn numpy overflow and invalid-value results into :class:`NumericError`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"training diverged: {exc}") from None


@_overflow_raises()
def train_head(
    train: EmbeddingDataset,
    val: EmbeddingDataset | None,
    kind: str,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam on one head; returns the best-validation snapshot.

    Validation runs on a float32-quantized snapshot after every epoch, so the
    F1 recorded in the history is exactly the F1 of the model a caller would
    save and reload.  With no validation data the final epoch's snapshot is
    returned and the history carries NaN in the F1 column.  A value that
    overflows or turns invalid anywhere in training raises
    :class:`NumericError`.
    """
    if len(train) == 0:
        raise DatasetError("training set is empty")
    if train.labels is None:
        raise DatasetError("training set has no labels")
    has_val = val is not None and len(val) > 0
    if has_val and val.labels is None:
        raise DatasetError("validation set has no labels")

    if config.class_weighting:
        weights = class_weights(train.label_counts())
    else:
        weights = uniform_weights()

    params = init_head_params(kind, config.seed)
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)
    n = len(train)

    history: list[EpochRecord] = []
    best_model: FusionModel | None = None
    best_f1 = -math.inf
    best_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
            logits = head_forward_batch(kind, leaves, train.text[idx], train.image[idx])
            loss = bce_loss_node(logits, train.labels[idx], weights)
            loss.backward()
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            params, state = adam_step(params, grads, state, config)
            loss_sum += float(loss.data) * len(idx)
        epoch_loss = loss_sum / n

        snapshot = _snapshot(kind, params)
        if has_val:
            val_f1 = evaluate_model(snapshot, val)
            if val_f1 > best_f1:
                best_f1 = val_f1
                best_model = snapshot
                best_epoch = epoch
        else:
            val_f1 = math.nan
            best_model = snapshot
            best_epoch = epoch
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss, val_f1=val_f1))
        if has_val and epoch - best_epoch > config.patience:
            break

    assert best_model is not None
    return TrainResult(model=best_model, history=tuple(history), best_epoch=best_epoch)


# --------------------------------------------------------------- pseudo loop


@dataclass(frozen=True)
class RoundRecord:
    round: int
    val_f1: float


@dataclass(frozen=True)
class PseudoLabelResult:
    """State of the best round: its heads, the pseudo-labels its training
    set was built with (empty for round 0), and the per-round F1 trace."""

    models: dict[str, FusionModel]
    pseudo_labels: dict[str, LabelVector]
    history: tuple[RoundRecord, ...]
    best_round: int

    @property
    def best_val_f1(self) -> float:
        return self.history[self.best_round].val_f1


def fused_val_f1(
    models: Mapping[str, FusionModel], data: EmbeddingDataset, threshold: float = 0.5
) -> float:
    """Macro F1 of mean-fused logits from several heads on labeled data."""
    if data.labels is None:
        raise DatasetError("fused evaluation needs a labeled dataset")
    probs = fused_probs(models, data)
    return macro_f1(confusion_counts(assign_label_matrix(probs, threshold), data.labels))


def fused_probs(models: Mapping[str, FusionModel], data: EmbeddingDataset) -> np.ndarray:
    """Sigmoid probabilities of the heads' mean-fused logits, [n, 18]."""
    logit_sets = [predict_logits(m, data.text, data.image) for m in models.values()]
    return logits_to_probs(fuse_logits(logit_sets)).data


def fused_predictions(
    models: Mapping[str, FusionModel], data: EmbeddingDataset, threshold: float = 0.5
) -> list[LabelVector]:
    return assign_labels_batch(fused_probs(models, data), threshold=threshold)


def _train_fusion_heads(
    train: EmbeddingDataset, val: EmbeddingDataset, config: TrainConfig
) -> tuple[dict[str, FusionModel], float]:
    models = {kind: train_head(train, val, kind, config).model for kind in config.fusion_set}
    return models, fused_val_f1(models, val)


def pseudo_label_loop(
    train: EmbeddingDataset,
    test_unlabeled: EmbeddingDataset,
    val: EmbeddingDataset,
    config: TrainConfig,
    max_rounds: int = 5,
    eps: float = 1e-4,
) -> PseudoLabelResult:
    """Self-training: label the unlabeled pool with the fused heads, retrain,
    keep going while fused validation F1 improves by more than ``eps``.

    Every round rebuilds the merged training set from the original labeled
    split plus fresh pseudo-labels, so stale pseudo-labels never accumulate
    and no id is ever duplicated.  The result is the best round's state.
    """
    if max_rounds < 0:
        raise DomainError(f"max_rounds must be >= 0, got {max_rounds}")
    if eps < 0.0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if train.labels is None or val.labels is None:
        raise DatasetError("train and val splits must be labeled")
    pools = {"train": set(train.ids), "test": set(test_unlabeled.ids), "val": set(val.ids)}
    for (name_a, ids_a), (name_b, ids_b) in (
        (("train", pools["train"]), ("test", pools["test"])),
        (("train", pools["train"]), ("val", pools["val"])),
        (("test", pools["test"]), ("val", pools["val"])),
    ):
        overlap = ids_a & ids_b
        if overlap:
            raise DatasetError(
                f"{name_a} and {name_b} splits share {len(overlap)} ids, "
                f"e.g. {next(iter(overlap))!r}"
            )

    models, f1 = _train_fusion_heads(train, val, config)
    history = [RoundRecord(round=0, val_f1=f1)]
    best_models = models
    best_pseudo: dict[str, LabelVector] = {}
    best_round = 0
    best_f1 = f1

    pool = test_unlabeled.without_labels()
    for round_index in range(1, max_rounds + 1):
        pseudo = assign_label_matrix(fused_probs(best_models, pool))
        merged = train.merge(
            EmbeddingDataset(ids=pool.ids, text=pool.text, image=pool.image, labels=pseudo)
        )
        models, f1 = _train_fusion_heads(merged, val, config)
        history.append(RoundRecord(round=round_index, val_f1=f1))
        if f1 > best_f1 + eps:
            best_models = models
            best_pseudo = dict(zip(pool.ids, map(LabelVector.from_mask, pseudo)))
            best_round = round_index
            best_f1 = f1
        else:
            break

    return PseudoLabelResult(
        models=best_models,
        pseudo_labels=best_pseudo,
        history=tuple(history),
        best_round=best_round,
    )
