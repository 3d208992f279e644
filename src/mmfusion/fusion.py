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

One table, ``_FINAL_COLUMNS``, gives each kind's blocks in weight-column
order.  Parameter shapes and starts (a zero final layer, plus cross-attention
for a kind that reads ``attended``), the forward pass, its MAC count
(:func:`forward_macs`) and the fold read it.
Each kind reads only its own embedding blocks (:data:`HEAD_INPUTS`), and
may be handed ``None`` for a block it does not read.  A block may arrive at
any float precision, such as the float32 of the embedding files, and a
model's parameters are float32 as in its file; a head widens what it reads
to float64, which is exact.  The final layer is one node reading each
block through its own columns of ``w``, so the concat head computes
``w[:, :128] @ text + w[:, 128:] @ image + b`` and never builds
``[text; image]``.

Ensembles average logits element-wise before thresholding.  A fusion set
names two or more distinct head kinds (:func:`check_fusion_set`).  Since
every final layer is linear in its blocks, :func:`predict_fused_logits` gets
a set's mean from one pass: it adds each head's weight columns, scaled by
one over the head count, into the matching columns of the first kind that
reads every block of the set, and averages the biases, in float64.
:func:`fuse_logits` averages any logits already computed, such as logits
files.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attention import AttentionParams, cross_attention
from .errors import (
    DomainError,
    LabelDomainError,
    NumericError,
    ShapeError,
    _check_setting,
    _check_type,
    _float32_payload,
    _float64,
)
from .tensor import Tensor, _node, _sigmoid_values, as_tensor

TEXT_DIM = 128
IMAGE_DIM = 1792
N_CLASSES = 18
TOKEN_COUNT = IMAGE_DIM // TEXT_DIM

# class ids run 1..19 with 12 reserved and unused
CLASS_IDS = tuple(i for i in range(1, 20) if i != 12)

# the width of each embedding block, named as the dataset fields and their files
MODALITY_DIMS = {"text": TEXT_DIM, "image": IMAGE_DIM}


def _columns(*blocks: str) -> dict[str, slice]:
    """Consecutive weight columns for ``blocks``, each as wide as its block."""
    dims = {**MODALITY_DIMS, "attended": TEXT_DIM}
    columns, start = {}, 0
    for name in blocks:
        columns[name] = slice(start, start + dims[name])
        start = columns[name].stop
    return columns


# the columns of each kind's final-layer weight that read each of its blocks
_FINAL_COLUMNS = {
    "vision_linear": _columns("image"),
    "text_linear": _columns("text"),
    "concat_fcnn": _columns("text", "image"),
    "cross_attn_fcnn": _columns("attended", "text", "image"),
}

# each kind's parameters in draw order, each a shape and a start (a fill, or a standard-normal
# draw at a scale): a zero final layer, then cross-attention if the kind reads the attended block
_Param = namedtuple("_Param", "shape fill scale", defaults=(0.0, None))
_ATTENTION_PARAMS = {
    **dict.fromkeys(("wq", "wk", "wv"), _Param((TEXT_DIM, TEXT_DIM), scale=1.0 / np.sqrt(TEXT_DIM))),
    "ln_gain": _Param((TEXT_DIM,), fill=1.0),
    "ln_bias": _Param((TEXT_DIM,)),
}
_PARAMS = {kind: {"w": _Param((N_CLASSES, max(c.stop for c in columns.values()))),
                  "b": _Param((N_CLASSES,)),
                  **(_ATTENTION_PARAMS if "attended" in columns else {})}
           for kind, columns in _FINAL_COLUMNS.items()}

HEAD_KINDS = tuple(_FINAL_COLUMNS)

# the embedding blocks each head kind reads, in MODALITY_DIMS order
HEAD_INPUTS = {kind: tuple(name for name in MODALITY_DIMS if name in columns)
               for kind, columns in _FINAL_COLUMNS.items()}

# a class is assigned when its probability exceeds this
LABEL_THRESHOLD = 0.5

# inference runs a head over at most this many rows at a time, which bounds
# the transient feature and attention blocks whatever the pool size
PREDICT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class LabelVector:
    """An 18-slot multi-hot label set, hashable and order-free."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) != N_CLASSES or not set(map(type, self.bits)) <= {bool}:
            raise LabelDomainError(f"LabelVector needs exactly {N_CLASSES} booleans")

    @classmethod
    def from_mask(cls, mask) -> "LabelVector":
        """The label set of one [18] mask, read as the one row of :func:`labels_to_matrix`."""
        return cls(tuple(labels_to_matrix([mask])[0].tolist()))

    def ids(self) -> tuple[int, ...]:
        return tuple(CLASS_IDS[i] for i, b in enumerate(self.bits) if b)

    @property
    def is_empty(self) -> bool:
        return not any(self.bits)

    def __len__(self) -> int:
        return sum(self.bits)


def labels_to_matrix(labels) -> np.ndarray:
    """The [n, 18] bool matrix of a 0/1 matrix, a sequence of its rows, or label vectors: the
    one label rule.  Labels not [n, 18], such as None or ragged rows, raise :class:`ShapeError`;
    an entry not a bool or 0/1, such as a string, a complex value, NaN or 0.5,
    :class:`LabelDomainError`, which names the dtype when it is not bool, integer or float."""
    if not isinstance(labels, Iterable):
        raise ShapeError(f"labels must be [n, {N_CLASSES}], got {type(labels).__name__}")
    if not isinstance(labels, np.ndarray):
        rows = [row.bits if isinstance(row, LabelVector) else row for row in labels]
        try:
            labels = np.array(rows) if rows else np.zeros((0, N_CLASSES), dtype=bool)
        except ValueError:  # numpy's "inhomogeneous shape"
            raise ShapeError(f"labels must be [n, {N_CLASSES}], got ragged rows") from None
    if labels.ndim != 2 or labels.shape[1] != N_CLASSES:
        raise ShapeError(f"labels must be [n, {N_CLASSES}], got shape {labels.shape}")
    if labels.dtype.kind not in "biuf":  # np.isin alone would take 1+0j for 1
        raise LabelDomainError(f"label entries must be booleans or 0/1 values, got dtype {labels.dtype}")
    if labels.dtype != bool and not np.isin(labels, (0, 1)).all():
        raise LabelDomainError("label entries must be booleans or 0/1 values")
    return labels.astype(bool, copy=False)


# a label-matrix row packs to one integer code, bit i for slot i
_SLOT_BITS = 1 << np.arange(N_CLASSES, dtype=np.int64)


def label_vectors(mask) -> list[LabelVector]:
    """The :class:`LabelVector` of each row of an [n, 18] label matrix.

    Each distinct row is validated and built once; identical rows share
    that one instance.
    """
    mask = labels_to_matrix(mask)
    codes = mask @ _SLOT_BITS
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    distinct = [LabelVector(tuple(row)) for row in mask[first].tolist()]
    return [distinct[i] for i in inverse.tolist()]


def _check_kind(kind: str) -> None:
    if kind not in HEAD_KINDS:
        raise DomainError(f"unknown head kind {kind!r}, expected one of {HEAD_KINDS}")


def expected_param_shapes(kind: str) -> dict[str, tuple[int, ...]]:
    """Parameter table for one head kind; final layer weights are [18, input]."""
    _check_kind(kind)
    return {name: param.shape for name, param in _PARAMS[kind].items()}


def forward_macs(kind: str) -> int:
    """The multiply-accumulates of one row's forward pass through a head of ``kind``.

    Every matrix product costs rows x inner x outer; bias adds, the softmax,
    the residual add and the layer norm are not products and are not
    counted, the convention of the conv cost model in ``vision_blocks``.
    The final layer is one product of its weight.  A kind with attention
    draws three projections: the query's maps the one text row, the keys'
    and the values' each map the :data:`TOKEN_COUNT` image tokens, and the
    scores and the value mix cost one key or value width per token.
    """
    _check_kind(kind)
    macs = math.prod(_PARAMS[kind]["w"].shape)
    projections = [p.shape for p in _PARAMS[kind].values() if p.scale is not None]
    if projections:
        (d_x, d_k), (d_y, _), (_, d_v) = projections
        macs += d_x * d_k  # the query
        macs += TOKEN_COUNT * d_y * (d_k + d_v)  # the keys and the values
        macs += TOKEN_COUNT * (d_k + d_v)  # the scores and the value mix
    return macs


def _check_param_names(kind: str, params) -> None:
    """Refuse ``params`` unless it is a mapping that holds exactly ``kind``'s parameter names."""
    _check_type("params", params, Mapping, DomainError)
    if set(params) != set(_PARAMS[kind]):
        raise ShapeError(f"{kind} needs parameters {sorted(_PARAMS[kind])}, got {sorted(params)}")


def init_head_params(kind: str, seed: int) -> dict[str, np.ndarray]:
    """A new head's parameters, each from its start; the projections draw in table order."""
    _check_kind(kind)
    draw = np.random.default_rng(seed).standard_normal
    return {name: np.full(p.shape, p.fill) if p.scale is None else p.scale * draw(p.shape)
            for name, p in _PARAMS[kind].items()}


@dataclass(frozen=True)
class FusionModel:
    """One head kind plus its named parameter arrays, read-only once checked.

    Parameters are held as float32, the precision of the model file format,
    by the rule a dataset's blocks follow (:func:`errors._float32_payload`),
    but a value not finite in float32 raises :class:`NumericError`.  So a
    model holds the bytes :func:`data_io.save_model` writes, and a head
    widens them as it reads them, which is exact.  ``params`` is a read-only
    mapping of read-only copies, so no value can be edited in past the checks.
    """

    kind: str
    params: Mapping[str, np.ndarray]

    def __post_init__(self):
        expected = expected_param_shapes(self.kind)
        _check_param_names(self.kind, self.params)
        clean = {}
        for name, shape in expected.items():
            if np.shape(self.params[name]) != shape:
                raise ShapeError(f"parameter {name!r} must have shape {shape}, "
                                 f"got {np.shape(self.params[name])}")
            payload = _float32_payload(self.params[name], f"parameter {name!r}", NumericError)
            clean[name] = payload.copy()  # never the caller's own float32 array
            clean[name].flags.writeable = False
        object.__setattr__(self, "params", MappingProxyType(clean))


def _batch_rows(kind: str, text: np.ndarray | None, image: np.ndarray | None) -> int:
    """The row count of a batch of arrays for ``kind``, checked without converting any block.

    Every block the kind reads must be given; a block it does not read may
    be None.  Each given block must be [n, width], with one n for both.
    """
    _check_kind(kind)
    blocks = {"text": text, "image": image}
    for name in HEAD_INPUTS[kind]:
        if blocks[name] is None:
            raise ShapeError(f"{kind} reads the {name} batch, got None")
    shapes = {name: np.shape(block) for name, block in blocks.items() if block is not None}
    for name, shape in shapes.items():
        if len(shape) != 2 or shape[1] != MODALITY_DIMS[name]:
            raise ShapeError(f"{name} batch must be [n, {MODALITY_DIMS[name]}], got {shape}")
    if len({shape[0] for shape in shapes.values()}) > 1:
        raise ShapeError(
            f"batch sizes differ: {shapes['text'][0]} text vs {shapes['image'][0]} image rows"
        )
    return next(iter(shapes.values()))[0]


def head_forward_batch(kind: str, params: Mapping[str, object], text, image) -> Tensor:
    """Run one head over a batch of arrays; ``text`` is [n, 128] and ``image`` [n, 1792].

    Only the blocks the kind reads are widened to float64, and a block that is
    not real is a DomainError naming it; the other may be None.  ``params``
    maps exactly the kind's parameter names (:func:`expected_param_shapes`),
    else a ShapeError names both sets; its entries may be plain arrays or
    gradient-requiring tensors, so the same code path serves inference and
    training.
    """
    n = _batch_rows(kind, text, image)
    _check_param_names(kind, params)
    columns = _FINAL_COLUMNS[kind]
    blocks = {name: Tensor(_float64(block, f"{name} batch"))
              for name, block in (("text", text), ("image", image)) if name in columns}
    p = {name: as_tensor(value) for name, value in params.items()}

    if "attended" in columns:
        ft, fi = blocks["text"], blocks["image"]
        attn = AttentionParams(**{name: p[name] for name in _ATTENTION_PARAMS})
        blocks["attended"] = cross_attention(
            ft.reshape(n, 1, TEXT_DIM), fi.reshape(n, TOKEN_COUNT, TEXT_DIM), attn
        ).reshape(n, TEXT_DIM)
    return _final_layer(blocks, p["w"], p["b"], columns)


def _final_layer(blocks: dict, w: Tensor, b: Tensor, columns: dict) -> Tensor:
    """``Σ blocks[name] @ w[:, cols]ᵀ + b`` over ``columns`` in their order, as one node.

    Each product runs through :func:`tensor.matmul`.  The backward gives a
    block ``g @ w[:, cols]``, ``b`` the column sums of ``g``, and ``w`` one
    array filled block by block with ``gᵀ @ block``, so no zero-padded
    [18, width] gradient is made per block.
    """
    width = max(cols.stop for cols in columns.values())
    if w.shape != (N_CLASSES, width) or b.shape != (N_CLASSES,):
        raise ShapeError(f"final layer needs w {(N_CLASSES, width)} and b {(N_CLASSES,)}, "
                         f"got {w.shape} and {b.shape}")
    out = None
    for name, cols in columns.items():
        part = (Tensor(blocks[name].data) @ Tensor(w.data[:, cols].T)).data
        out = part if out is None else out + part

    def pull_w(g: np.ndarray) -> np.ndarray:
        dw = np.empty_like(w.data)
        for name, cols in columns.items():
            np.matmul(g.T, blocks[name].data, out=dw[:, cols])
        return dw

    reads = [(blocks[name], lambda g, cols=cols: g @ w.data[:, cols])
             for name, cols in columns.items()]
    return _node(out + b.data, *reads, (w, pull_w), (b, lambda g: g.sum(axis=0)))


@contextmanager
def overflow_raises():
    """Turn numpy overflow and invalid-value results into :class:`NumericError`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"non-finite result: {exc}") from None


def predict_logits(model: FusionModel, text: np.ndarray | None, image: np.ndarray | None) -> np.ndarray:
    """Batched inference as a plain array; the canonical prediction path.

    The rows run through the head in near-equal blocks of at most
    :data:`PREDICT_BLOCK_ROWS`, and each block is widened to float64 on its
    own, so a float32 pool is never copied whole.  No block holds a lone
    row unless the batch is one row, since numpy routes a one-row product
    through a different kernel.  A block the head does not read may be
    None.  A value that overflows or turns invalid, or a row whose logits
    are not finite, raises :class:`NumericError`.
    """
    _check_type("model", model, FusionModel, DomainError)
    return _run_head(model.kind, model.params, text, image)


@overflow_raises()
def _run_head(kind: str, params: Mapping[str, np.ndarray], text, image) -> np.ndarray:
    """:func:`predict_logits` for one head kind and its parameter arrays, float32 or float64.

    The parameters are widened once, not once per block.  Logits that are
    not finite, such as a NaN input row's, raise naming their first row.
    """
    n = _batch_rows(kind, text, image)
    params = {name: as_tensor(value) for name, value in params.items()}
    blocks = max(1, -(-n // PREDICT_BLOCK_ROWS))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    out = np.empty((n, N_CLASSES))
    for lo, hi in zip(bounds, bounds[1:]):
        rows = slice(lo, hi)
        out[rows] = head_forward_batch(
            kind, params,
            None if text is None else text[rows], None if image is None else image[rows],
        ).data
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericError(f"logits of row {int(finite.argmin())} are not finite")
    return out


def check_fusion_set(kinds) -> tuple[str, ...]:
    """``kinds`` as a tuple, checked to be a fusion set: two or more distinct, known head kinds."""
    if not isinstance(kinds, (list, tuple)) or not all(isinstance(k, str) for k in kinds):
        raise DomainError(f"fusion_set must be a list or tuple of head kinds, got {kinds!r}")
    unknown = [k for k in kinds if k not in HEAD_KINDS]
    if unknown:
        raise DomainError(f"unknown head kinds in fusion_set: {unknown}, expected kinds "
                          f"from {HEAD_KINDS} or a set named one of {tuple(FUSION_SETS)}")
    if len(kinds) < 2:
        raise DomainError("fusion_set needs at least two head kinds")
    if len(set(kinds)) != len(kinds):
        raise DomainError(f"fusion_set repeats a head kind: {tuple(kinds)}")
    return tuple(kinds)


def _fold(models: Sequence[FusionModel]) -> tuple[str, dict[str, np.ndarray]]:
    """One head whose logits are the mean of a fusion set's logits, as ``(kind, params)``.

    Each final layer is linear in its blocks, so every head adds its weight
    columns into the matching columns of the first kind that reads every block
    of the set: heads without attention in the order given, then the attention
    head, which lends its attention parameters.  The sums are scaled once by
    ``1 / len(models)``.  Both sums run in float64, in fold order, and the
    folded arrays never pass through :class:`FusionModel`, whose float32
    rounding would move the logits.
    """
    check_fusion_set([m.kind for m in models])
    folded = sorted(models, key=lambda m: "attended" in _FINAL_COLUMNS[m.kind])
    reads = {name for m in models for name in _FINAL_COLUMNS[m.kind]}
    kind, columns = next((k, cols) for k, cols in _FINAL_COLUMNS.items() if reads <= cols.keys())
    w, b = np.zeros(expected_param_shapes(kind)["w"]), np.zeros(N_CLASSES)
    for m in folded:
        for name, cols in _FINAL_COLUMNS[m.kind].items():
            w[:, columns[name]] += m.params["w"][:, cols]
        b += m.params["b"]
    scale = 1.0 / len(models)
    return kind, {**folded[-1].params, "w": w * scale, "b": b * scale}


def predict_fused_logits(models: Sequence[FusionModel], text, image) -> np.ndarray:
    """The mean of a fusion set's logits: one :func:`predict_logits` pass of its folded head."""
    return _run_head(*_fold(models), text, image)


def fuse_logits(logit_sets: Sequence) -> np.ndarray:
    """Element-wise mean of two or more aligned logit arrays, given as a list or tuple,
    widened to float64."""
    _check_type("logit_sets", logit_sets, (list, tuple), DomainError)
    if len(logit_sets) < 2:
        raise DomainError(f"fusion needs at least two logit sets, got {len(logit_sets)}")
    arrays = [_float64(a, f"logit set {i}") for i, a in enumerate(logit_sets)]
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ShapeError(f"logit shapes differ: {shape} vs {a.shape}")
    return sum(arrays[1:], arrays[0]) * (1.0 / len(arrays))


def logits_to_probs(logits) -> np.ndarray:
    """Independent per-class probabilities: the sigmoid of each logit, in float64."""
    return _sigmoid_values(_float64(logits, "logits"))


def assign_label_matrix(probs: np.ndarray, threshold: float = LABEL_THRESHOLD) -> np.ndarray:
    """Per row of an [n, 18] probability array, pick every class above ``threshold``.

    A row with none falls back to its argmax, and ties resolve to the lowest
    slot, so no row of the [n, 18] bool result is ever empty.
    """
    arr = _float64(probs, "probs")
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ShapeError(f"probs must be [n, {N_CLASSES}], got {arr.shape}")
    _check_setting("threshold", threshold, float)
    if not (0.0 <= threshold <= 1.0):
        raise DomainError(f"threshold must lie in [0, 1], got {threshold}")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise DomainError("probabilities must be finite and lie in [0, 1]")
    mask = arr > threshold
    empty = ~mask.any(axis=1)
    mask[empty, arr[empty].argmax(axis=1)] = True
    return mask


def assign_labels(probs: np.ndarray, threshold: float = LABEL_THRESHOLD) -> LabelVector:
    """:func:`assign_label_matrix` for one [18] probability array."""
    # a shape other than [18] fails there
    return assign_labels_batch(np.asarray(probs)[None], threshold)[0]


def assign_labels_batch(probs: np.ndarray, threshold: float = LABEL_THRESHOLD) -> list[LabelVector]:
    return label_vectors(assign_label_matrix(probs, threshold))


# named ensembles used by the ablation script and the label-refinement loop
FUSION_SETS = {
    "fm1": ("vision_linear", "text_linear"),
    "fm2": ("vision_linear", "text_linear", "concat_fcnn"),
    "fm3": ("vision_linear", "text_linear", "cross_attn_fcnn"),
}
