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
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from itertools import combinations

import numpy as np

from .data_io import EmbeddingDataset, _read_utf8
from .errors import (
    _SETTING_TYPES,
    DatasetError,
    DomainError,
    NumericError,
    ShapeError,
    _check_setting,
    _check_type,
    _float64,
)
from .fusion import (
    FUSION_SETS,
    HEAD_INPUTS,
    MODALITY_DIMS,
    N_CLASSES,
    FusionModel,
    LabelVector,
    assign_label_matrix,
    assign_labels_batch,
    check_fusion_set,
    head_forward_batch,
    init_head_params,
    label_vectors,
    logits_to_probs,
    overflow_raises,
    predict_fused_logits,
    predict_logits,
)
from .metrics import scores
from .tensor import Tensor, _node, _sigmoid_values, as_tensor

# ------------------------------------------------------------- class weights


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights, all >= 1, derived from positive-label counts."""

    values: np.ndarray

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
    arr = np.asarray(counts)
    if arr.shape != (N_CLASSES,):
        raise ShapeError(f"need {N_CLASSES} per-class counts, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":  # an int64 cast would truncate fractional counts
        raise DomainError(f"per-class counts must have an integer dtype, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if (arr < 0).any():
        raise DomainError("per-class counts must be >= 0")
    t = arr.sum() if total is None else total
    _check_setting("total", t, int, 3)
    clamped = np.maximum(arr, 2).astype(np.float64)
    ratio = np.log(clamped) / math.log(t)
    values = 0.5 * (ratio + 1.0 / ratio)
    return ClassWeights(values=values)


def uniform_weights() -> np.ndarray:
    """All-ones weights; the loss then reduces to plain BCE."""
    return np.ones(N_CLASSES)


# ---------------------------------------------------------------------- loss


def _weight_values(weights) -> np.ndarray:
    """The values of :class:`ClassWeights`, or an [18] weight vector whose entries are
    finite and >= 0, else a DomainError naming ``weights``."""
    if isinstance(weights, ClassWeights):
        return weights.values
    w = _float64(weights, "weights")
    if w.shape != (N_CLASSES,):
        raise ShapeError(f"weights must have shape ({N_CLASSES},), got {w.shape}")
    if not ((w >= 0.0) & (w < np.inf)).all():  # NaN fails both comparisons
        raise DomainError(f"weights must be finite and >= 0, got {w.tolist()}")
    return w


def weighted_bce_loss(logits: np.ndarray, targets, weights) -> tuple[float, np.ndarray]:
    """Stable weighted binary cross-entropy over a [batch, 18] logit array.

    Returns the scalar loss and its gradient with respect to the logits,
    ``w_c * (sigmoid(z) - y) / batch``.  Each element contributes
    ``max(z, 0) - z*y + log1p(exp(-|z|))``, the overflow-free form of
    ``-[y log s + (1-y) log(1-s)]``.
    """
    z = _float64(logits, "logits")
    if z.ndim != 2 or z.shape[1] != N_CLASSES:
        raise ShapeError(f"logits must be [batch, {N_CLASSES}], got {z.shape}")
    if z.shape[0] < 1:
        raise DomainError("loss needs at least one sample")
    targets = np.asarray(targets)
    y = _float64(targets, "targets")
    if y.shape != z.shape:
        raise ShapeError(f"targets shape {y.shape} does not match logits {z.shape}")
    # bool targets, the label matrix's own dtype, are 0/1 by construction
    if targets.dtype != bool and ((y != 0.0) & (y != 1.0)).any():
        raise DomainError("targets must be 0/1 indicators")
    if not np.isfinite(z).all():
        raise NumericError("logits contain non-finite values")
    w = _weight_values(weights)
    batch = z.shape[0]
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float((per_element * w).sum() / batch)
    grad = w * (_sigmoid_values(z) - y) / batch
    return loss, grad


def bce_loss_node(logits, targets, weights) -> Tensor:
    """Scalar graph node for the weighted BCE loss; backward feeds the head."""
    logits = as_tensor(logits)
    loss, grad = weighted_bce_loss(logits.data, targets, weights)
    return _node(loss, (logits, lambda g: g * grad))


# -------------------------------------------------------------------- config

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_number(key: str, raw: str, convert: type):
    try:
        return convert(raw)
    except ValueError:
        raise DomainError(f"{key} must be {_SETTING_TYPES[convert][1]}, got {raw!r}") from None


# the least value of each numeric TrainConfig field: lr == 0 keeps no-op training
# expressible, and numpy's generators take no negative seed
_CONFIG_LEAST = {"lr": 0, "batch_size": 1, "max_epochs": 1, "patience": 0, "seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    class_weighting: bool = True
    fusion_set: tuple[str, ...] = FUSION_SETS["fm1"]

    def __post_init__(self):
        for field in fields(self):
            if type(field.default) in _SETTING_TYPES:
                value = getattr(self, field.name)
                _check_setting(field.name, value, type(field.default), _CONFIG_LEAST.get(field.name))
        object.__setattr__(self, "fusion_set", check_fusion_set(self.fusion_set))

    @staticmethod
    def parse_value(key: str, raw: str):
        """Parse a raw string setting by the type of the field's default value."""
        defaults = {field.name: field.default for field in fields(TrainConfig)}
        if key not in defaults:
            raise DomainError(f"unknown config key {key!r}, expected one of {tuple(defaults)}")
        kind = type(defaults[key])
        if kind is bool:
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise DomainError(f"{key} must be true/false, got {raw!r}")
        if kind is tuple:  # a named fusion set or comma-separated head kinds
            name = raw.strip()
            if name in FUSION_SETS:
                return FUSION_SETS[name]
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        return _parse_number(key, raw, kind)

    def with_overrides(self, overrides: Mapping[str, str]) -> "TrainConfig":
        """Apply raw string overrides (CLI flags beat file values)."""
        parsed = {key: TrainConfig.parse_value(key, raw) for key, raw in overrides.items()}
        return replace(self, **parsed)

    @staticmethod
    def from_file(path, overrides: Mapping[str, str] | None = None) -> "TrainConfig":
        """Read key=value lines; '#' starts a comment; blank lines ignored."""
        text = _read_utf8(path, DomainError)
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
        return TrainConfig().with_overrides({**file_values, **(overrides or {})})


# ---------------------------------------------------------------------- adam

# Adam's moment decay rates and the term added to the update's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """One bias-corrected Adam update at ``config.lr``; inputs are not mutated.

    Each tensor takes four parameter-sized arrays: the new first moment
    ``m``, the new second moment ``v``, the new value (built in place of
    the step) and one scratch array that holds ``(1 - beta1) * g``, then
    ``(1 - beta2) * g * g``, then ``sqrt(v / c2) + eps``.  With ``c1`` and
    ``c2`` the bias corrections ``1 - beta**t``, the new value is
    ``p - (lr * (m / c1)) / (sqrt(v / c2) + eps)``, each operation in that
    order, so the result has the bits of the plain expression.

    Raises :class:`NumericError` as soon as a moment or a parameter stops
    being finite, e.g. when the squared gradient overflows.  An argument of
    the wrong type is a DomainError naming it, before any update.
    """
    for name, value, kind in (("params", params, Mapping), ("grads", grads, Mapping),
                              ("state", state, AdamState), ("config", config, TrainConfig)):
        _check_type(name, value, kind, DomainError)
    if set(params) != set(state.m):
        raise ShapeError("optimizer state does not cover the parameter set")
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else _float64(g, f"gradient for {name!r}")
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter {p.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            scratch = np.multiply(g, 1.0 - ADAM_BETA1)
            m = np.multiply(state.m[name], ADAM_BETA1)
            m += scratch
            np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
            scratch *= g
            v = np.multiply(state.v[name], ADAM_BETA2)
            v += scratch
            step = np.divide(m, c1)
            step *= config.lr
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            step /= scratch
            new_p = np.subtract(p, step, out=step)
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
    val_mean_accuracy: float


@dataclass(frozen=True)
class TrainResult:
    model: FusionModel
    history: tuple[EpochRecord, ...]
    best_epoch: int


def evaluate_model(model: FusionModel, data: EmbeddingDataset) -> float:
    """Macro F1 of sigmoid predictions thresholded at ``LABEL_THRESHOLD`` against the labels."""
    return _model_scores(model, data)["macro_f1"]


def _model_scores(model: FusionModel, data: EmbeddingDataset) -> dict[str, float]:
    """:func:`metrics.scores` of one model's thresholded predictions on labeled ``data``."""
    _check_type("model", model, FusionModel, DomainError)
    _check_type("data", data, EmbeddingDataset, DatasetError)
    if data.labels is None:
        raise DatasetError("evaluation needs a labeled dataset")
    probs = logits_to_probs(predict_logits(model, data.text, data.image))
    return scores(assign_label_matrix(probs), data.labels)


@overflow_raises()
def train_head(
    train: EmbeddingDataset,
    val: EmbeddingDataset,
    kind: str,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam on one head; returns the best-validation snapshot.

    Both splits must be labeled, non-empty and share no id, else a DatasetError
    is raised before any training.  Validation runs once per epoch, on the
    float32 snapshot that epoch ends with, and its record keeps both scores
    (:func:`metrics.scores`).  So ``history[best_epoch - 1]`` holds exactly the
    scores of the returned model, which a caller would save and reload, and
    no caller needs to predict the validation split again.  A value that
    overflows or turns invalid anywhere in training raises :class:`NumericError`.
    """
    _check_type("config", config, TrainConfig, DomainError)
    _check_splits(train=train, val=val)
    for name, data in (("training", train), ("validation", val)):
        if len(data) == 0:
            raise DatasetError(f"{name} split has no rows")
        if data.labels is None:
            raise DatasetError(f"{name} split has no labels")

    if config.class_weighting:
        weights = class_weights(train.label_counts())
    else:
        weights = uniform_weights()

    params = init_head_params(kind, config.seed)
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)
    n = len(train)
    inputs = {name: getattr(train, name) for name in HEAD_INPUTS[kind]}

    history: list[EpochRecord] = []
    best_f1 = -math.inf  # a macro F1 is finite, so epoch 1 always sets the best snapshot

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
            batch = {name: block[idx] for name, block in inputs.items()}
            logits = head_forward_batch(kind, leaves, batch.get("text"), batch.get("image"))
            loss = bce_loss_node(logits, train.labels[idx], weights)
            loss.backward()
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            params, state = adam_step(params, grads, state, config)
            loss_sum += float(loss.data) * len(idx)
        epoch_loss = loss_sum / n

        snapshot = FusionModel(kind=kind, params=params)  # float32 copies, never aliases
        val_scores = _model_scores(snapshot, val)
        if val_scores["macro_f1"] > best_f1:
            best_f1 = val_scores["macro_f1"]
            best_model = snapshot
            best_epoch = epoch
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss,
                                   val_f1=val_scores["macro_f1"],
                                   val_mean_accuracy=val_scores["mean_accuracy"]))
        if epoch - best_epoch > config.patience:
            break

    return TrainResult(model=best_model, history=tuple(history), best_epoch=best_epoch)


def _check_splits(**splits: EmbeddingDataset) -> None:
    """Raise :class:`DatasetError` when a named split is not a dataset or two share an id."""
    for name, data in splits.items():
        _check_type(name, data, EmbeddingDataset, DatasetError)
    pools = {name: set(data.ids) for name, data in splits.items()}
    for (name_a, ids_a), (name_b, ids_b) in combinations(pools.items(), 2):
        overlap = ids_a & ids_b
        if overlap:
            raise DatasetError(
                f"{name_a} and {name_b} splits share {len(overlap)} ids, "
                f"e.g. {min(overlap)!r}"
            )


# --------------------------------------------------------------- pseudo loop


@dataclass(frozen=True)
class RoundRecord:
    round: int
    val_f1: float
    val_mean_accuracy: float


@dataclass(frozen=True)
class PseudoLabelResult:
    """State of the best round: its heads, the pseudo-labels its training
    set was built with (empty for round 0), and the per-round scores."""

    models: dict[str, FusionModel]
    pseudo_labels: dict[str, LabelVector]
    history: tuple[RoundRecord, ...]
    best_round: int

    @property
    def best_val_f1(self) -> float:
        return self.history[self.best_round].val_f1


def fused_val_f1(models: Mapping[str, FusionModel], data: EmbeddingDataset) -> float:
    """Macro F1 of mean-fused logits from several heads on labeled data."""
    return _fused_scores(models, data)["macro_f1"]


def _fused_scores(models: Mapping[str, FusionModel], data: EmbeddingDataset) -> dict[str, float]:
    """:func:`metrics.scores` of the heads' fused, thresholded predictions on labeled ``data``."""
    _check_type("data", data, EmbeddingDataset, DatasetError)
    if data.labels is None:
        raise DatasetError("fused evaluation needs a labeled dataset")
    return scores(assign_label_matrix(fused_probs(models, data)), data.labels)


def fused_probs(models: Mapping[str, FusionModel], data: EmbeddingDataset) -> np.ndarray:
    """Sigmoid probabilities of the heads' mean-fused logits, [n, 18], from folded heads."""
    _check_type("models", models, Mapping, DomainError)
    for kind, model in models.items():
        _check_type(f"models[{kind!r}]", model, FusionModel, DomainError)
    return logits_to_probs(predict_fused_logits(list(models.values()), data.text, data.image))


def fused_predictions(
    models: Mapping[str, FusionModel], data: EmbeddingDataset
) -> list[LabelVector]:
    return assign_labels_batch(fused_probs(models, data))


def _train_fusion_heads(
    train: EmbeddingDataset, val: EmbeddingDataset, config: TrainConfig, round_index: int
) -> tuple[dict[str, FusionModel], RoundRecord]:
    models = {kind: train_head(train, val, kind, config).model for kind in config.fusion_set}
    val_scores = _fused_scores(models, val)
    return models, RoundRecord(round=round_index, val_f1=val_scores["macro_f1"],
                               val_mean_accuracy=val_scores["mean_accuracy"])


def check_stopping(max_rounds: int, eps: float) -> None:
    """Refuse stopping settings :func:`pseudo_label_loop` cannot run with, before any work."""
    _check_setting("max_rounds", max_rounds, int, 0)
    _check_setting("eps", eps, float, 0)


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

    Each round's fused heads are scored on ``val`` once and its record keeps
    both scores, so ``history[best_round]`` holds the returned heads' scores.

    Every round labels the merged training set afresh, with the original
    labels of the labeled split plus new pseudo-labels, so stale
    pseudo-labels never accumulate and no id is ever duplicated.  The
    embeddings of the two splits are joined once, before the first round,
    and each round builds and checks its split once.  Labels the pool may
    carry are never read.  The result is the best round's state.
    """
    check_stopping(max_rounds, eps)
    _check_type("config", config, TrainConfig, DomainError)
    _check_splits(train=train, test=test_unlabeled, val=val)
    if not len(test_unlabeled):  # every round would retrain on the unchanged train split
        raise DatasetError("the unlabeled pool has no rows")

    models, record = _train_fusion_heads(train, val, config, 0)
    history = [record]
    best_models = models
    best_pseudo: dict[str, LabelVector] = {}
    best_round = 0

    # train rows then pool rows; every round's split holds these blocks
    joined = {name: np.concatenate([getattr(train, name), getattr(test_unlabeled, name)])
              for name in MODALITY_DIMS}
    for round_index in range(1, max_rounds + 1):
        pseudo = assign_label_matrix(fused_probs(best_models, test_unlabeled))
        merged = EmbeddingDataset(ids=train.ids + test_unlabeled.ids,
                                  labels=np.concatenate([train.labels, pseudo]), **joined)
        models, record = _train_fusion_heads(merged, val, config, round_index)
        history.append(record)
        if record.val_f1 > history[best_round].val_f1 + eps:
            best_models = models
            best_pseudo = dict(zip(test_unlabeled.ids, label_vectors(pseudo)))
            best_round = round_index
        else:
            break

    return PseudoLabelResult(
        models=best_models,
        pseudo_labels=best_pseudo,
        history=tuple(history),
        best_round=best_round,
    )
