"""File formats, dataset containers, and the synthetic benchmark generator.

Embedding file (magic ``FEMB``), little-endian throughout::

    bytes 0..3    magic  b"FEMB"
    bytes 4..7    u32    format version, currently 1
    bytes 8..11   u32    row count n
    bytes 12..15  u32    width d
    bytes 16..    f32    n * d values, row major

Sample ids live beside the embeddings in a sidecar text file, one id per
line, row-aligned with the payload.

Model file (magic ``FUS1``), little-endian::

    magic b"FUS1", u32 version
    u32 kind length, kind bytes (utf-8)
    u32 text width, u32 image width, u32 class count, u32 key width
    u32 tensor count, then per tensor:
        u32 name length, name bytes, u32 rank, u32 dims..., f32 payload
    u32 crc32 over everything between the magic and this field

Values are stored as float32 and widened back to float64 on load; models
quantize their parameters the same way, so a round trip is exact.

Labels and predictions share one CSV schema: a header ``ImageID,Labels``
and per row a sample id plus space-separated ascending class ids.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    DatasetError,
    DuplicateIdError,
    KindMismatchError,
    LabelDomainError,
    NonFiniteError,
    ShapeError,
    TruncatedFileError,
    UnknownKindError,
    VersionMismatchError,
)
from .fusion import (
    CLASS_IDS,
    HEAD_KINDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    expected_param_shapes,
    labels_to_matrix,
)

EMBEDDING_MAGIC = b"FEMB"
MODEL_MAGIC = b"FUS1"
FORMAT_VERSION = 1


# ---------------------------------------------------------------- embeddings


def write_embeddings(values: np.ndarray, path) -> None:
    """Write an [n, d] array as a version-1 embedding file (float32 payload)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"embeddings must be [n, d], got shape {arr.shape}")
    n, d = arr.shape
    payload = arr.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, n, d))
        fh.write(payload)


def read_embeddings(path) -> np.ndarray:
    """Read an embedding file back as float64, validating the header strictly."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise TruncatedFileError(f"{path}: only {len(blob)} bytes, no room for magic")
    if blob[:4] != EMBEDDING_MAGIC:
        raise BadMagicError(f"{path}: expected magic {EMBEDDING_MAGIC!r}, found {blob[:4]!r}")
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: header needs 16 bytes, found {len(blob)}")
    version, n, d = struct.unpack_from("<III", blob, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, this reader speaks {FORMAT_VERSION}")
    expected = 16 + 4 * n * d
    if len(blob) != expected:
        raise TruncatedFileError(f"{path}: header promises {expected} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    # min and max propagate NaN and reach +-inf, so two reductions see any non-finite value
    if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
        first = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise NonFiniteError(
            f"{path}: non-finite value {flat[first]} at row {first // d}, column {first % d}"
        )
    return flat.astype(np.float64).reshape(n, d)


def write_ids(ids: Sequence[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id in ids:
            fh.write(f"{sample_id}\n")


def read_ids(path) -> tuple[str, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        ids = tuple(line.rstrip("\n") for line in fh if line.strip())
    seen = set()
    for sample_id in ids:
        if sample_id in seen:
            raise DuplicateIdError(f"{path}: id {sample_id!r} appears twice")
        seen.add(sample_id)
    return ids


# -------------------------------------------------------------------- labels

LABELS_HEADER = "ImageID,Labels"


def read_labels(path) -> dict[str, LabelVector]:
    """Parse a labels CSV into id -> label vector, rejecting malformed rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != LABELS_HEADER:
        raise LabelDomainError(f"{path}: first line must be {LABELS_HEADER!r}")
    out: dict[str, LabelVector] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "," not in line:
            raise LabelDomainError(f"{path}:{lineno}: expected 'id,labels', got {line!r}")
        sample_id, _, spec = line.partition(",")
        if sample_id in out:
            raise DuplicateIdError(f"{path}:{lineno}: id {sample_id!r} appears twice")
        fields = spec.split()
        if not fields:
            raise LabelDomainError(f"{path}:{lineno}: empty label set for {sample_id!r}")
        try:
            ids = [int(f) for f in fields]
        except ValueError:
            raise LabelDomainError(f"{path}:{lineno}: non-integer class id in {spec!r}")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise LabelDomainError(f"{path}:{lineno}: class ids must be strictly ascending")
        out[sample_id] = LabelVector.from_ids(ids)
    return out


def write_predictions(ids: Sequence[str], labels, path) -> None:
    """Write aligned ids and label sets (any form labels_to_matrix takes) as CSV."""
    mask = labels_to_matrix(labels)
    if len(ids) != len(mask):
        raise DatasetError(f"{len(ids)} ids vs {len(mask)} label sets")
    empty = ~mask.any(axis=1)
    if empty.any():
        raise LabelDomainError(f"refusing to write an empty label set for {ids[empty.argmax()]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELS_HEADER + "\n")
        for sample_id, row in zip(ids, mask.tolist()):
            class_ids = " ".join(str(c) for c, on in zip(CLASS_IDS, row) if on)
            fh.write(f"{sample_id},{class_ids}\n")


# -------------------------------------------------------------------- models


class _Reader:
    """Bounds-checked cursor over a byte string."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > len(self.blob):
            raise TruncatedFileError(
                f"{self.path}: needed {count} bytes at offset {self.pos}, "
                f"have {len(self.blob) - self.pos}"
            )
        piece = self.blob[self.pos : self.pos + count]
        self.pos += count
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def save_model(model: FusionModel, path) -> None:
    body = bytearray()
    body += struct.pack("<I", FORMAT_VERSION)
    kind_bytes = model.kind.encode("utf-8")
    body += struct.pack("<I", len(kind_bytes)) + kind_bytes
    body += struct.pack("<IIII", TEXT_DIM, IMAGE_DIM, N_CLASSES, model.d_k)
    names = sorted(model.params)
    body += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        arr = model.params[name]
        body += struct.pack("<I", len(raw)) + raw
        body += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            body += struct.pack("<I", dim)
        body += arr.astype("<f4").tobytes(order="C")
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(bytes(body))
        fh.write(struct.pack("<I", crc))


def load_model(path, expect_kind: str | None = None) -> FusionModel:
    """Load a model file, verifying checksum, kind, and every declared shape."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise TruncatedFileError(f"{path}: only {len(blob)} bytes, no room for magic")
    if blob[:4] != MODEL_MAGIC:
        raise BadMagicError(f"{path}: expected magic {MODEL_MAGIC!r}, found {blob[:4]!r}")
    if len(blob) < 12:
        raise TruncatedFileError(f"{path}: too short for a checksummed body")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    body = blob[4:-4]
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise ChecksumError(f"{path}: crc {actual_crc:#010x} does not match stored {stored_crc:#010x}")
    reader = _Reader(body, path)
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, this reader speaks {FORMAT_VERSION}")
    kind = reader.take(reader.u32()).decode("utf-8", errors="replace")
    if kind not in HEAD_KINDS:
        raise UnknownKindError(f"{path}: unknown head kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"{path}: holds {kind!r}, caller expected {expect_kind!r}")
    text_dim, img_dim, classes, d_k = (reader.u32() for _ in range(4))
    if (text_dim, img_dim, classes) != (TEXT_DIM, IMAGE_DIM, N_CLASSES):
        raise ShapeError(
            f"{path}: descriptor dims {(text_dim, img_dim, classes)} are not "
            f"{(TEXT_DIM, IMAGE_DIM, N_CLASSES)}"
        )
    expected = expected_param_shapes(kind, d_k)
    count = reader.u32()
    if count != len(expected):
        raise ShapeError(f"{path}: {kind} needs {len(expected)} tensors, file declares {count}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.take(reader.u32()).decode("utf-8", errors="replace")
        if name not in expected:
            raise ShapeError(f"{path}: unexpected tensor {name!r} for kind {kind!r}")
        if name in params:
            raise ShapeError(f"{path}: tensor {name!r} appears twice")
        rank = reader.u32()
        if rank > 4:
            raise ShapeError(f"{path}: tensor {name!r} declares rank {rank}")
        shape = tuple(reader.u32() for _ in range(rank))
        if shape != expected[name]:
            raise ShapeError(
                f"{path}: tensor {name!r} has shape {shape}, descriptor requires {expected[name]}"
            )
        size = 1
        for dim in shape:
            size *= dim
        raw = reader.take(4 * size)
        params[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
    if reader.pos != len(body):
        raise TruncatedFileError(f"{path}: {len(body) - reader.pos} unexpected trailing bytes")
    return FusionModel(kind=kind, params=params, d_k=d_k)


# ------------------------------------------------------------------ datasets


@dataclass(frozen=True)
class EmbeddingDataset:
    """Aligned sample ids, text embeddings [n, 128], image embeddings [n, 1792].

    ``labels`` is None (unlabeled pool) or the [n, 18] bool label matrix (see labels_to_matrix).
    """

    ids: tuple[str, ...]
    text: np.ndarray
    image: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise DuplicateIdError("dataset ids are not unique")
        if self.text.shape != (n, TEXT_DIM):
            raise ShapeError(f"text embeddings must be ({n}, {TEXT_DIM}), got {self.text.shape}")
        if self.image.shape != (n, IMAGE_DIM):
            raise ShapeError(f"image embeddings must be ({n}, {IMAGE_DIM}), got {self.image.shape}")
        if self.labels is not None:
            object.__setattr__(self, "labels", labels_to_matrix(self.labels))
            if len(self.labels) != n:
                raise DatasetError(f"{len(self.labels)} labels for {n} samples")
            if not self.labels.any(axis=1).all():
                raise LabelDomainError("dataset labels must be non-empty")

    def __len__(self) -> int:
        return len(self.ids)

    def without_labels(self) -> "EmbeddingDataset":
        return EmbeddingDataset(ids=self.ids, text=self.text, image=self.image)

    def with_labels(self, mapping: Mapping[str, LabelVector]) -> "EmbeddingDataset":
        missing = [i for i in self.ids if i not in mapping]
        if missing:
            raise DatasetError(f"labels missing for {len(missing)} ids, first {missing[0]!r}")
        return EmbeddingDataset(
            ids=self.ids,
            text=self.text,
            image=self.image,
            labels=tuple(mapping[i] for i in self.ids),
        )

    def subset(self, indices: Sequence[int]) -> "EmbeddingDataset":
        idx = list(indices)
        return EmbeddingDataset(
            ids=tuple(self.ids[i] for i in idx),
            text=self.text[idx],
            image=self.image[idx],
            labels=None if self.labels is None else self.labels[idx],
        )

    def merge(self, other: "EmbeddingDataset") -> "EmbeddingDataset":
        overlap = set(self.ids) & set(other.ids)
        if overlap:
            raise DuplicateIdError(f"merge would duplicate {len(overlap)} ids, e.g. {next(iter(overlap))!r}")
        if (self.labels is None) != (other.labels is None):
            raise DatasetError("cannot merge a labeled dataset with an unlabeled one")
        return EmbeddingDataset(
            ids=self.ids + other.ids,
            text=np.concatenate([self.text, other.text]),
            image=np.concatenate([self.image, other.image]),
            labels=None if self.labels is None else np.concatenate([self.labels, other.labels]),
        )

    def label_counts(self) -> np.ndarray:
        if self.labels is None:
            raise DatasetError("dataset has no labels to count")
        return self.labels.sum(axis=0, dtype=np.int64)


def save_dataset(dataset: EmbeddingDataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_embeddings(dataset.text, directory / "text.femb")
    write_embeddings(dataset.image, directory / "image.femb")
    write_ids(dataset.ids, directory / "ids.csv")
    if dataset.labels is not None:
        write_predictions(dataset.ids, dataset.labels, directory / "labels.csv")


def load_dataset(directory, require_labels: bool = False) -> EmbeddingDataset:
    """Load a dataset directory written by :func:`save_dataset`."""
    directory = Path(directory)
    for name in ("text.femb", "image.femb", "ids.csv"):
        if not (directory / name).exists():
            raise DatasetError(f"{directory} is missing {name}")
    text = read_embeddings(directory / "text.femb")
    image = read_embeddings(directory / "image.femb")
    ids = read_ids(directory / "ids.csv")
    if text.shape[0] != len(ids) or image.shape[0] != len(ids):
        raise DatasetError(
            f"{directory}: {len(ids)} ids but {text.shape[0]} text rows "
            f"and {image.shape[0]} image rows"
        )
    if text.shape[1] != TEXT_DIM:
        raise ShapeError(f"{directory}: text width {text.shape[1]}, expected {TEXT_DIM}")
    if image.shape[1] != IMAGE_DIM:
        raise ShapeError(f"{directory}: image width {image.shape[1]}, expected {IMAGE_DIM}")
    labels_path = directory / "labels.csv"
    labels = None
    if labels_path.exists():
        mapping = read_labels(labels_path)
        extra = set(mapping) - set(ids)
        if extra:
            raise DatasetError(f"{directory}: labels for unknown ids, e.g. {next(iter(extra))!r}")
        missing = [i for i in ids if i not in mapping]
        if missing:
            raise DatasetError(f"{directory}: no labels for {len(missing)} ids, first {missing[0]!r}")
        labels = tuple(mapping[i] for i in ids)
    elif require_labels:
        raise DatasetError(f"{directory} has no labels.csv")
    return EmbeddingDataset(ids=tuple(ids), text=text, image=image, labels=labels)


# ----------------------------------------------------------------- synthetic

TEXT_CLASS_SLOTS = tuple(range(9))
IMAGE_CLASS_SLOTS = tuple(range(9, N_CLASSES))
SIGNAL_BLOCK = 8


def signal_columns(slot: int) -> tuple[str, range]:
    """The modality and embedding columns that carry a class slot's signal."""
    if slot in TEXT_CLASS_SLOTS:
        return "text", range(slot * SIGNAL_BLOCK, (slot + 1) * SIGNAL_BLOCK)
    if slot in IMAGE_CLASS_SLOTS:
        base = (slot - 9) * SIGNAL_BLOCK
        return "image", range(base, base + SIGNAL_BLOCK)
    raise LabelDomainError(f"class slot must be in 0..{N_CLASSES - 1}, got {slot}")


def gen_synthetic(
    seed: int, n_train: int, n_test: int, n_val: int, noise: float
) -> tuple[EmbeddingDataset, EmbeddingDataset, EmbeddingDataset]:
    """Build three disjoint splits where each modality sees half the classes.

    Recipe: every sample carries 1..4 distinct classes drawn uniformly from
    the 18 slots.  Each class owns a block of 8 embedding columns; a present
    class adds 1.0 to every column of its block.  Classes in slots 0..8 have
    their blocks in the text embedding (columns 0..71), slots 9..17 in the
    image embedding (columns 0..71); all remaining columns carry no signal.
    Gaussian noise with standard deviation ``noise`` is added to every column
    of both embeddings.  One modality alone carries no information about half
    the label space, so a single-modality head is capped near macro-F1 0.5,
    while the 8-column blocks make every class linearly separable to both
    modalities combined for any noise level well below 1.
    """
    if noise < 0.0:
        raise DatasetError(f"noise must be >= 0, got {noise}")
    if min(n_train, n_test, n_val) < 1:
        raise DatasetError("every split needs at least one sample")
    rng = np.random.default_rng(seed)

    def build(prefix: str, count: int) -> EmbeddingDataset:
        text = noise * rng.standard_normal((count, TEXT_DIM))
        image = noise * rng.standard_normal((count, IMAGE_DIM))
        labels = np.zeros((count, N_CLASSES), dtype=bool)
        for row in range(count):
            k = int(rng.integers(1, 5))
            slots = rng.choice(N_CLASSES, size=k, replace=False)
            labels[row, slots] = True
            for slot in slots:
                modality, cols = signal_columns(int(slot))
                target = text if modality == "text" else image
                target[row, cols.start : cols.stop] += 1.0
        ids = tuple(f"{prefix}_{row:05d}" for row in range(count))
        return EmbeddingDataset(ids=ids, text=text, image=image, labels=labels)

    return build("train", n_train), build("test", n_test), build("val", n_val)
