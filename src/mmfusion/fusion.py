"""Label vocabulary, fusion heads over precomputed embeddings, and logit fusion.

The label space has 18 classes identified by the ids 1..19 with 12 unused.
Text embeddings are 128 wide, image embeddings 1792 wide; the image vector
also reads as 14 tokens of width 128 for the attention head.

Four head kinds map an embedding pair to 18 logits:

* ``vision_linear``   logits = w @ image + b
* ``text_linear``     logits = w @ text + b
* ``concat_fcnn``     logits = w @ [text; image] + b
* ``cross_attn_fcnn`` the text vector queries the 14 image tokens through
  cross-attention; logits = w @ [attended; text; image] + b

Ensembles average logits element-wise before thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attention import AttentionParams, cross_attention
from .errors import DomainError, LabelDomainError, NumericError, ShapeError
from .tensor import Tensor, as_tensor, concat, sigmoid, softmax_rows

TEXT_DIM = 128
IMAGE_DIM = 1792
N_CLASSES = 18
TOKEN_COUNT = IMAGE_DIM // TEXT_DIM
CONCAT_DIM = TEXT_DIM + IMAGE_DIM

# class ids run 1..19 with 12 reserved and unused
CLASS_IDS = tuple(i for i in range(1, 20) if i != 12)

HEAD_KINDS = ("vision_linear", "text_linear", "concat_fcnn", "cross_attn_fcnn")
PROB_MODES = ("sigmoid", "softmax")


def class_index(class_id: int) -> int:
    """Map a class id to its slot: ids below 12 shift by one, above by two."""
    if not isinstance(class_id, (int, np.integer)) or class_id < 1 or class_id > 19 or class_id == 12:
        raise LabelDomainError(f"class id must be in 1..19 excluding 12, got {class_id!r}")
    return class_id - 1 if class_id <= 11 else class_id - 2


def index_to_class(index: int) -> int:
    if not 0 <= index < N_CLASSES:
        raise LabelDomainError(f"slot index must be in 0..{N_CLASSES - 1}, got {index}")
    return CLASS_IDS[index]


@dataclass(frozen=True)
class LabelVector:
    """An 18-slot multi-hot label set, hashable and order-free."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) != N_CLASSES or not set(map(type, self.bits)) <= {bool}:
            raise LabelDomainError(f"LabelVector needs exactly {N_CLASSES} booleans")

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "LabelVector":
        bits = [False] * N_CLASSES
        for cid in ids:
            slot = class_index(cid)
            if bits[slot]:
                raise LabelDomainError(f"class id {cid} listed twice")
            bits[slot] = True
        return cls(tuple(bits))

    @classmethod
    def from_mask(cls, mask) -> "LabelVector":
        arr = np.asarray(mask)
        if arr.shape != (N_CLASSES,):
            raise LabelDomainError(f"mask must have shape ({N_CLASSES},), got {arr.shape}")
        return cls(tuple(bool(v) for v in arr))

    def ids(self) -> tuple[int, ...]:
        return tuple(CLASS_IDS[i] for i, b in enumerate(self.bits) if b)

    @property
    def is_empty(self) -> bool:
        return not any(self.bits)

    def __len__(self) -> int:
        return sum(self.bits)


def labels_to_matrix(labels) -> np.ndarray:
    """The [n, 18] bool matrix of a 0/1 matrix, a sequence of its rows, or label vectors."""
    if not isinstance(labels, np.ndarray):
        rows = [row.bits if isinstance(row, LabelVector) else row for row in labels]
        labels = np.array(rows) if rows else np.zeros((0, N_CLASSES), dtype=bool)
    if labels.ndim != 2 or labels.shape[1] != N_CLASSES:
        raise ShapeError(f"labels must be [n, {N_CLASSES}], got shape {labels.shape}")
    if labels.dtype != bool and not np.isin(labels, (0, 1)).all():
        raise LabelDomainError("label entries must be booleans or 0/1 values")
    return labels.astype(bool, copy=False)


def _quantize(arr: np.ndarray) -> np.ndarray:
    # snap to float32-representable values so a saved model predicts identically
    with np.errstate(over="ignore"):
        snapped = np.ascontiguousarray(arr, dtype=np.float64).astype(np.float32)
    if not np.isfinite(snapped).all():
        raise NumericError("parameter values are not finite in float32")
    return snapped.astype(np.float64)


_LINEAR_INPUT = {
    "vision_linear": IMAGE_DIM,
    "text_linear": TEXT_DIM,
    "concat_fcnn": CONCAT_DIM,
    "cross_attn_fcnn": TEXT_DIM + CONCAT_DIM,
}


def expected_param_shapes(kind: str, d_k: int = TEXT_DIM) -> dict[str, tuple[int, ...]]:
    """Parameter table for one head kind; final layer weights are [18, input]."""
    if kind not in HEAD_KINDS:
        raise DomainError(f"unknown head kind {kind!r}, expected one of {HEAD_KINDS}")
    shapes: dict[str, tuple[int, ...]] = {
        "w": (N_CLASSES, _LINEAR_INPUT[kind]),
        "b": (N_CLASSES,),
    }
    if kind == "cross_attn_fcnn":
        shapes.update(
            wq=(TEXT_DIM, d_k),
            wk=(TEXT_DIM, d_k),
            wv=(TEXT_DIM, TEXT_DIM),
            ln_gain=(TEXT_DIM,),
            ln_bias=(TEXT_DIM,),
        )
    return shapes


@dataclass
class FusionModel:
    """One head kind plus its named parameter arrays.

    Parameters are stored as float64 values that round-trip exactly through
    float32, the storage precision of the model file format.
    """

    kind: str
    params: dict[str, np.ndarray]
    d_k: int = TEXT_DIM

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise DomainError(f"unknown head kind {self.kind!r}, expected one of {HEAD_KINDS}")
        expected = expected_param_shapes(self.kind, self.d_k)
        if set(self.params) != set(expected):
            raise ShapeError(
                f"{self.kind} needs parameters {sorted(expected)}, got {sorted(self.params)}"
            )
        clean = {}
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"parameter {name!r} must have shape {shape}, got {arr.shape}")
            clean[name] = _quantize(arr)
        self.params = clean


def head_forward_batch(kind: str, params: Mapping[str, object], text: object, image: object) -> Tensor:
    """Run one head over a batch; ``text`` is [n, 128] and ``image`` [n, 1792].

    Parameter entries may be plain arrays or gradient-requiring tensors; the
    same code path serves inference and training.
    """
    if kind not in HEAD_KINDS:
        raise DomainError(f"unknown head kind {kind!r}, expected one of {HEAD_KINDS}")
    ft = as_tensor(text)
    fi = as_tensor(image)
    if ft.ndim != 2 or ft.shape[1] != TEXT_DIM:
        raise ShapeError(f"text batch must be [n, {TEXT_DIM}], got {ft.shape}")
    if fi.ndim != 2 or fi.shape[1] != IMAGE_DIM:
        raise ShapeError(f"image batch must be [n, {IMAGE_DIM}], got {fi.shape}")
    if ft.shape[0] != fi.shape[0]:
        raise ShapeError(f"batch sizes differ: {ft.shape[0]} text vs {fi.shape[0]} image rows")
    p = {name: as_tensor(value) for name, value in params.items()}

    if kind == "vision_linear":
        feats = fi
    elif kind == "text_linear":
        feats = ft
    elif kind == "concat_fcnn":
        feats = concat([ft, fi], axis=1)
    else:
        n = ft.shape[0]
        attn = AttentionParams(p["wq"], p["wk"], p["wv"], p["ln_gain"], p["ln_bias"])
        attended = cross_attention(
            ft.reshape(n, 1, TEXT_DIM), fi.reshape(n, TOKEN_COUNT, TEXT_DIM), attn
        )
        feats = concat([attended.reshape(n, TEXT_DIM), ft, fi], axis=1)

    w = p["w"]
    if w.ndim != 2 or w.shape[1] != feats.shape[1]:
        raise ShapeError(f"final layer expects input width {w.shape[1]}, features are {feats.shape}")
    return feats @ w.transpose_last() + p["b"]


def predict_logits(model: FusionModel, text: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Batched inference as a plain array; the canonical prediction path."""
    return head_forward_batch(model.kind, model.params, text, image).data


def fuse_logits(logit_sets: Sequence) -> Tensor:
    """Element-wise mean of two or more aligned logit tensors."""
    if len(logit_sets) < 2:
        raise DomainError(f"fusion needs at least two logit sets, got {len(logit_sets)}")
    ts = [as_tensor(t) for t in logit_sets]
    shape = ts[0].shape
    for t in ts[1:]:
        if t.shape != shape:
            raise ShapeError(f"logit shapes differ: {shape} vs {t.shape}")
    total = ts[0]
    for t in ts[1:]:
        total = total + t
    return total * (1.0 / len(ts))


def logits_to_probs(logits, mode: str = "sigmoid") -> Tensor:
    """Independent per-class probabilities by default; ``softmax`` for a single-label view."""
    t = as_tensor(logits)
    if mode == "sigmoid":
        return sigmoid(t)
    if mode == "softmax":
        if t.ndim == 1:
            return softmax_rows(t.reshape(1, t.shape[0])).reshape(t.shape[0])
        return softmax_rows(t)
    raise DomainError(f"mode must be one of {PROB_MODES}, got {mode!r}")


def assign_label_matrix(probs, threshold: float = 0.5) -> np.ndarray:
    """Per row of an [n, 18] block, pick every class above ``threshold``.

    A row with none falls back to its argmax, and ties resolve to the lowest
    slot, so no row of the [n, 18] bool result is ever empty.
    """
    arr = np.asarray(probs.data if isinstance(probs, Tensor) else probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ShapeError(f"probs must be [n, {N_CLASSES}], got {arr.shape}")
    if not (0.0 <= threshold <= 1.0):
        raise DomainError(f"threshold must lie in [0, 1], got {threshold}")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise DomainError("probabilities must be finite and lie in [0, 1]")
    mask = arr > threshold
    empty = ~mask.any(axis=1)
    mask[empty, arr[empty].argmax(axis=1)] = True
    return mask


def assign_labels(probs, threshold: float = 0.5) -> LabelVector:
    """:func:`assign_label_matrix` for one [18] probability vector."""
    arr = np.asarray(probs.data if isinstance(probs, Tensor) else probs, dtype=np.float64)
    return assign_labels_batch(arr[None], threshold)[0]  # a shape other than [18] fails there


def assign_labels_batch(probs, threshold: float = 0.5) -> list[LabelVector]:
    return [LabelVector(tuple(row)) for row in assign_label_matrix(probs, threshold).tolist()]


# named ensembles used by the ablation script and the label-refinement loop
FUSION_SETS = {
    "fm1": ("vision_linear", "text_linear"),
    "fm2": ("vision_linear", "text_linear", "concat_fcnn"),
    "fm3": ("vision_linear", "text_linear", "cross_attn_fcnn"),
}
