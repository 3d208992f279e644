"""File formats, dataset containers, and the synthetic benchmark generator.

Embedding file (magic ``FEMB``), little-endian throughout::

    bytes 0..3    magic  b"FEMB"
    bytes 4..7    u32    format version, currently 1
    bytes 8..11   u32    row count n
    bytes 12..15  u32    width d
    bytes 16..    f32    n * d values, row major

Every dataset holds its embeddings as float32, the precision of these
files, whether it was read from files, generated or built in memory: the
readers, writers and constructor share one rule (:func:`errors._float32_payload`),
so a saved dataset reads back bitwise.  A fusion head widens only
the blocks it reads, one batch at a time, and widening float32 to float64
is exact.

Sample ids live beside the embeddings in a sidecar text file, one id per
line, row-aligned with the payload.  An id is not blank and holds no comma
and no character that ``str.splitlines`` breaks on, so every reader here
gets it back unchanged.  A dataset checks its ids by this rule when built.

Model file (magic ``FUS1``), little-endian::

    magic b"FUS1", u32 version
    u32 kind length, kind bytes (utf-8)
    u32 text width, u32 image width, u32 class count, u32 key width
    (always 128, 1792, 18, 128)
    u32 tensor count, then per tensor:
        u32 name length, name bytes, u32 rank, u32 dims..., f32 payload
    u32 crc32 over everything between the magic and this field

A model holds its parameters as float32 too, so :func:`load_model` hands
the payload to :class:`FusionModel` as it is and a round trip is bitwise.

Labels and predictions share one CSV schema: a header ``ImageID,Labels``
and per row a sample id plus space-separated ascending class ids.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DatasetError,
    DomainError,
    FileFormatError,
    LabelDomainError,
    NonFiniteError,
    NumericError,
    ShapeError,
    _check_setting,
    _check_type,
    _float32_payload,
)
from .fusion import (
    CLASS_IDS,
    HEAD_KINDS,
    IMAGE_DIM,
    MODALITY_DIMS,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    expected_param_shapes,
    label_vectors,
    labels_to_matrix,
)

EMBEDDING_MAGIC = b"FEMB"
MODEL_MAGIC = b"FUS1"
FORMAT_VERSION = 1


def _check_magic(head: bytes, magic: bytes, size: int, path) -> None:
    """Raise unless ``head``, the start of a ``size``-byte file, opens with ``magic``."""
    if len(head) < 4:
        raise FileFormatError(f"{path}: only {size} bytes, no room for magic")
    if head[:4] != magic:
        raise FileFormatError(f"{path}: expected magic {magic!r}, found {head[:4]!r}")


def _check_path(path, name: str = "path") -> None:
    """Refuse a path argument ``name`` that is neither a str nor an ``os.PathLike`` with a
    DomainError, before any file is opened: ``open`` would take an int for a file descriptor."""
    _check_type(name, path, (str, os.PathLike), DomainError)


def _check_version(version: int, path) -> None:
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: version {version}, this reader speaks {FORMAT_VERSION}")


# ---------------------------------------------------------------- embeddings


def _write_payload(payload: np.ndarray, path) -> None:
    _check_path(path)
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, *payload.shape))
        payload.tofile(fh)  # straight from the array's buffer, no bytes copy


def write_embeddings(values: np.ndarray, path) -> None:
    """Write an [n, d] array as a version-1 embedding file (float32 payload).

    A value that is not finite in float32 raises :class:`NonFiniteError`, and
    values that are not real numbers :class:`DomainError`; either way no file
    is created, so every file written here reads back.
    """
    if np.ndim(values) != 2:
        raise ShapeError(f"embeddings must be [n, d], got shape {np.shape(values)}")
    _write_payload(_float32_payload(values, path, NonFiniteError), path)


def read_embeddings(path) -> np.ndarray:
    """Read an embedding file as its [n, d] float32 payload, validating it strictly.

    The values stay float32: a fusion head widens the blocks it reads, which
    is exact.  A NaN or +-inf value raises :class:`NonFiniteError`.
    """
    _check_path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        _check_magic(head, EMBEDDING_MAGIC, size, path)
        if len(head) < 16:
            raise FileFormatError(f"{path}: header needs 16 bytes, found {size}")
        version, n, d = struct.unpack_from("<III", head, 4)
        _check_version(version, path)
        expected = 16 + 4 * n * d
        if size != expected:
            raise FileFormatError(f"{path}: header promises {expected} bytes, found {size}")
        flat = np.fromfile(fh, dtype="<f4", count=n * d)
    return _float32_payload(flat.reshape(n, d), path, NonFiniteError)


def _first_bad_id(ids: Sequence[str]) -> int:
    """Index of the first id the readers cannot read back, ``len(ids)`` when all can.

    The common case is a join, a split and a strip per id, all inside C.
    """
    joined = "\n".join(ids)
    if "," not in joined and joined.splitlines() == list(ids) and "" not in map(str.strip, ids):
        return len(ids)
    return next(r for r, i in enumerate(ids) if "," in i or i.splitlines() != [i] or not i.strip())


def _check_ids(ids: Sequence[str], source) -> None:
    """Raise :class:`DatasetError` unless ``ids`` is a tuple or list of str ids that the
    readers can read back, naming the first id that is not."""
    if not isinstance(ids, (tuple, list)):  # a str would read as one-character ids
        raise DatasetError(f"{source} ids must be a tuple or list of str, got {ids!r}")
    try:
        bad = _first_bad_id(ids)
    except TypeError:  # its join takes only str ids
        bad = next(r for r, sample_id in enumerate(ids) if not isinstance(sample_id, str))
        raise DatasetError(f"{source} id {ids[bad]!r} is of type "
                           f"{type(ids[bad]).__name__}, not str") from None
    if bad < len(ids):
        raise DatasetError(
            f"{source}: sample id {ids[bad]!r} is blank or holds a comma or a line break"
        )


def write_ids(ids: Sequence[str], path) -> None:
    _check_path(path)
    _check_ids(ids, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{sample_id}\n" for sample_id in ids))


def _first_repeat(ids: Sequence[str]) -> int:
    """Index of the first id that appeared before it, ``len(ids)`` when all are unique."""
    if len(set(ids)) == len(ids):
        return len(ids)
    seen: set[str] = set()
    return next(r for r, sample_id in enumerate(ids) if sample_id in seen or seen.add(sample_id))


def _read_utf8(path, error: type[Exception]) -> str:
    """The text of ``path``, newlines normalised; bytes that are not UTF-8 raise ``error``."""
    _check_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_ids(path) -> tuple[str, ...]:
    ids = tuple(line for line in _read_utf8(path, DatasetError).split("\n") if line.strip())
    _check_ids(ids, path)
    repeat = _first_repeat(ids)
    if repeat < len(ids):
        raise DatasetError(f"{path}: id {ids[repeat]!r} appears twice")
    return ids


# -------------------------------------------------------------------- labels

LABELS_HEADER = "ImageID,Labels"


# the slot of each class id, -1 where an id is not a class; ids outside 1..19 clip to an end
_SLOT_OF_ID = np.full(CLASS_IDS[-1] + 2, -1, dtype=np.intp)
_SLOT_OF_ID[list(CLASS_IDS)] = np.arange(N_CLASSES)
_CLASS_ID_STRS = np.array([str(c) for c in CLASS_IDS], dtype=object)


def read_label_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a labels CSV into its ids and their [n, 18] bool label matrix, in file order.

    One pass over the lines splits each row into its id and integer class
    ids; the writers' id rule (here that leaves blank ids, since a row's id
    holds no comma or line break), id uniqueness, emptiness, order and the
    class-id range are then checked as join and array ops.  A malformed file
    raises for its first bad line, naming ``path:lineno``.  Blank lines are
    skipped.
    """
    lines = _read_utf8(path, LabelDomainError).splitlines()
    if not lines or lines[0] != LABELS_HEADER:
        raise LabelDomainError(f"{path}:1: first line must be {LABELS_HEADER!r}")
    ids: list[str] = []
    linenos: list[int] = []
    counts: list[int] = []
    values: list[int] = []
    unparsed = None  # the first line the pass cannot split, raised unless an earlier one is bad
    for lineno, line in enumerate(lines[1:], start=2):
        sample_id, comma, spec = line.partition(",")
        if not comma:
            if not line.strip():
                continue
            unparsed = LabelDomainError(f"{path}:{lineno}: expected 'id,labels', got {line!r}")
            break
        try:
            row = list(map(int, spec.split()))
        except ValueError:
            unparsed = LabelDomainError(f"{path}:{lineno}: non-integer class id in {spec!r}")
            break
        ids.append(sample_id)
        linenos.append(lineno)
        counts.append(len(row))
        values += row

    n = len(ids)
    try:
        cids = np.array(values, dtype=np.int64)
    except OverflowError:  # out of range either way; clamping keeps the order check meaningful
        cids = np.array([min(max(v, -(2**62)), 2**62) for v in values], dtype=np.int64)
    row_of_value = np.repeat(np.arange(n), counts)
    slots = _SLOT_OF_ID[np.clip(cids, 0, len(_SLOT_OF_ID) - 1)]
    empty = np.flatnonzero(np.array(counts) == 0)
    descending = np.flatnonzero((np.diff(cids) <= 0) & (np.diff(row_of_value) == 0)) + 1
    outside = np.flatnonzero(slots < 0)
    # the first bad row of each check, listed in the order the checks apply within one line
    faults = [
        (_first_bad_id(ids), DatasetError, "sample id {id!r} is blank"),
        (_first_repeat(ids), DatasetError, "id {id!r} appears twice"),
        (empty[0] if empty.size else n, LabelDomainError, "empty label set for {id!r}"),
        (row_of_value[descending[0]] if descending.size else n, LabelDomainError,
         "class ids must be strictly ascending"),
        (row_of_value[outside[0]] if outside.size else n, LabelDomainError,
         "class id must be in 1..19 excluding 12, got {value}"),
    ]
    row, error, template = min(faults, key=lambda fault: fault[0])
    if row < n:
        value = values[outside[0]] if outside.size else None
        raise error(f"{path}:{linenos[row]}: " + template.format(id=ids[row], value=value))
    if unparsed is not None:
        raise unparsed
    matrix = np.zeros((n, N_CLASSES), dtype=bool)
    matrix[row_of_value, slots] = True
    return tuple(ids), matrix


def read_labels(path) -> dict[str, LabelVector]:
    """:func:`read_label_matrix` as an id -> :class:`LabelVector` mapping, in file order."""
    ids, matrix = read_label_matrix(path)
    return dict(zip(ids, label_vectors(matrix)))


def rows_in_order(
    ids: Sequence[str], row_ids: Sequence[str], matrix: np.ndarray, source
) -> np.ndarray:
    """The rows of ``matrix`` (one per ``row_ids``) in the order of ``ids``.

    Both id lists are free of repeats and must hold the same ids: raises
    :class:`DatasetError` naming ``source`` when ``ids`` breaks the id rule
    (:func:`_check_ids`), an id has no row or a row has an id outside ``ids``,
    and naming ``row_ids`` when it is not a tuple or list.
    """
    _check_ids(ids, source)
    _check_type("row_ids", row_ids, (tuple, list), DatasetError)
    if tuple(row_ids) == tuple(ids):
        return matrix
    row_of = dict(zip(row_ids, range(len(row_ids))))
    missing = [i for i in ids if i not in row_of]
    if missing:
        raise DatasetError(f"{source}: no rows for {len(missing)} ids, first {missing[0]!r}")
    if len(row_ids) > len(ids):  # every id has its row, so some rows have no id
        known = set(ids)
        extra = [i for i in row_ids if i not in known]
        raise DatasetError(f"{source}: rows for {len(extra)} unknown ids, first {extra[0]!r}")
    return matrix[[row_of[i] for i in ids]]


def write_predictions(ids: Sequence[str], labels, path) -> None:
    """Write aligned ids and label sets (any form labels_to_matrix takes) as CSV."""
    _check_path(path)
    _check_ids(ids, path)
    mask = labels_to_matrix(labels)
    if len(ids) != len(mask):
        raise DatasetError(f"{len(ids)} ids vs {len(mask)} label sets")
    counts = mask.sum(axis=1)
    if not counts.all():
        raise LabelDomainError(f"refusing to write an empty label set for {ids[counts.argmin()]!r}")
    names = _CLASS_ID_STRS[np.nonzero(mask)[1]].tolist()
    ends = np.cumsum(counts).tolist()
    rows = (
        f"{sample_id},{' '.join(names[start:end])}\n"
        for sample_id, start, end in zip(ids, [0] + ends, ends)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELS_HEADER + "\n")
        fh.write("".join(rows))


# -------------------------------------------------------------------- models


# text width, image width, class count and attention key width
_DESCRIPTOR = (TEXT_DIM, IMAGE_DIM, N_CLASSES, TEXT_DIM)


def save_model(model: FusionModel, path) -> None:
    """Write a model file; a parameter that is not finite raises before any write.

    So a value edited in through a held array whose writes were re-enabled is refused.
    """
    _check_type("model", model, FusionModel, DomainError)
    _check_path(path)
    body = bytearray()
    body += struct.pack("<I", FORMAT_VERSION)
    kind_bytes = model.kind.encode("utf-8")
    body += struct.pack("<I", len(kind_bytes)) + kind_bytes
    body += struct.pack("<IIII", *_DESCRIPTOR)
    names = sorted(model.params)
    body += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        arr = model.params[name]
        body += struct.pack("<I", len(raw)) + raw
        body += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            body += struct.pack("<I", dim)
        body += _float32_payload(arr, f"{path}: parameter {name!r}", NumericError).tobytes()
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(bytes(body))
        fh.write(struct.pack("<I", crc))


def load_model(path) -> FusionModel:
    """Load a model file, verifying checksum, kind, and every declared shape."""
    _check_path(path)
    blob = Path(path).read_bytes()
    _check_magic(blob, MODEL_MAGIC, len(blob), path)
    if len(blob) < 12:
        raise FileFormatError(f"{path}: too short for a checksummed body")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    body = blob[4:-4]
    actual_crc = zlib.crc32(body)
    if stored_crc != actual_crc:
        raise FileFormatError(f"{path}: crc {actual_crc:#010x} does not match stored {stored_crc:#010x}")
    stream = io.BytesIO(body)

    def take(count: int) -> bytes:
        piece = stream.read(count)
        if len(piece) < count:
            raise FileFormatError(
                f"{path}: needed {count} bytes at offset {stream.tell() - len(piece)}, "
                f"have {len(piece)}"
            )
        return piece

    def u32() -> int:
        return struct.unpack("<I", take(4))[0]

    _check_version(u32(), path)
    kind = take(u32()).decode("utf-8", errors="replace")
    if kind not in HEAD_KINDS:
        raise FileFormatError(f"{path}: unknown head kind {kind!r}")
    dims = tuple(u32() for _ in range(4))
    if dims != _DESCRIPTOR:
        raise ShapeError(
            f"{path}: descriptor dims (text, image, classes, key width) {dims} are not {_DESCRIPTOR}"
        )
    expected = expected_param_shapes(kind)
    count = u32()
    if count != len(expected):
        raise ShapeError(f"{path}: {kind} needs {len(expected)} tensors, file declares {count}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = take(u32()).decode("utf-8", errors="replace")
        if name not in expected:
            raise ShapeError(f"{path}: unexpected tensor {name!r} for kind {kind!r}")
        if name in params:
            raise ShapeError(f"{path}: tensor {name!r} appears twice")
        rank = u32()
        if rank > 4:
            raise ShapeError(f"{path}: tensor {name!r} declares rank {rank}")
        shape = tuple(u32() for _ in range(rank))
        if shape != expected[name]:
            raise ShapeError(
                f"{path}: tensor {name!r} has shape {shape}, descriptor requires {expected[name]}"
            )
        raw = take(4 * math.prod(shape))
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
    if stream.tell() != len(body):
        raise FileFormatError(f"{path}: {len(body) - stream.tell()} unexpected trailing bytes")
    return FusionModel(kind=kind, params=params)


# ------------------------------------------------------------------ datasets


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class EmbeddingDataset:
    """Aligned sample ids, text embeddings [n, 128], image embeddings [n, 1792].

    ``ids`` is held as a tuple of str; a list is converted, and a str, an id
    that is not a str, or one the id files cannot hold (blank, or holding a
    comma or a line break) raises :class:`DatasetError` naming it.
    Each block is stored as float32, the precision of the embedding files: a
    float32 array is kept as it is and any other is rounded from float64, so
    a dataset holds the bytes :func:`save_dataset` writes.  A value that is
    not finite in float32 raises :class:`NonFiniteError` naming the block,
    row and column.  ``labels`` is None (unlabeled pool) or the [n, 18] bool
    label matrix (see labels_to_matrix).  The blocks and labels are read-only
    views of what was checked; the caller's own arrays stay writable.
    """

    ids: tuple[str, ...]
    text: np.ndarray
    image: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        _check_ids(self.ids, "dataset")
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        repeat = _first_repeat(self.ids)
        if repeat < n:
            raise DatasetError(f"dataset id {self.ids[repeat]!r} appears twice")
        for name, width in MODALITY_DIMS.items():
            block = getattr(self, name)
            if not isinstance(block, np.ndarray):
                raise ShapeError(f"{name} embeddings must be a numpy array, got {type(block).__name__}")
            if block.shape != (n, width):
                raise ShapeError(f"{name} embeddings must be ({n}, {width}), got {block.shape}")
            payload = _float32_payload(block, f"{name} embeddings", NonFiniteError)
            object.__setattr__(self, name, _read_only(payload))
        if self.labels is not None:
            object.__setattr__(self, "labels", _read_only(labels_to_matrix(self.labels)))
            if len(self.labels) != n:
                raise DatasetError(f"{len(self.labels)} labels for {n} samples")
            if not self.labels.any(axis=1).all():
                raise LabelDomainError(f"empty label set for {self.ids[self.labels.any(1).argmin()]!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def without_labels(self) -> "EmbeddingDataset":
        return EmbeddingDataset(ids=self.ids, text=self.text, image=self.image)

    def subset(self, indices: Sequence[int]) -> "EmbeddingDataset":
        """The rows at ``indices``, each an integer in ``[0, len(self))``, else DatasetError."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise DatasetError(f"subset indices must be integers in one axis, got {idx.dtype}")
        if idx.size and not 0 <= idx.min() <= idx.max() < len(self):
            raise DatasetError(f"subset indices {idx.min()}..{idx.max()} leave [0, {len(self)})")
        idx = idx.astype(np.intp, copy=False)  # an empty list reads as float64
        return EmbeddingDataset(
            ids=tuple(self.ids[i] for i in idx.tolist()),
            text=self.text[idx],
            image=self.image[idx],
            labels=None if self.labels is None else self.labels[idx],
        )

    def merge(self, other: "EmbeddingDataset") -> "EmbeddingDataset":
        """The rows of ``self`` then ``other``; the first id of ``other`` in ``self`` raises."""
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
    """Write a dataset directory from its float32 blocks, without a copy.

    The ids were checked when the dataset was built.  A value the files cannot
    hold raises before any write, such as one edited in through a block whose
    writes were re-enabled or through the caller's float32 array.
    """
    _check_type("dataset", dataset, EmbeddingDataset, DatasetError)
    _check_path(directory, "directory")
    directory = Path(directory)
    text = _float32_payload(dataset.text, directory / "text.femb", NonFiniteError)
    image = _float32_payload(dataset.image, directory / "image.femb", NonFiniteError)
    directory.mkdir(parents=True, exist_ok=True)
    _write_payload(text, directory / "text.femb")
    _write_payload(image, directory / "image.femb")
    write_ids(dataset.ids, directory / "ids.csv")
    if dataset.labels is not None:
        write_predictions(dataset.ids, dataset.labels, directory / "labels.csv")


def load_inputs(
    directory, modalities: Sequence[str], require_labels: bool = False
) -> tuple[tuple[str, ...], dict[str, np.ndarray], np.ndarray | None]:
    """The ids, the named embedding blocks and the labels of a dataset directory.

    Reads ``ids.csv``, ``labels.csv`` when present, and only the embedding
    files of ``modalities`` (``"text"``, ``"image"``), each a float32 block
    checked against the ids and its width.  The labels are the [n, 18] bool
    matrix in id order, or None.
    """
    _check_path(directory, "directory")
    directory = Path(directory)
    for name in [f"{m}.femb" for m in modalities] + ["ids.csv"]:
        if not (directory / name).exists():
            raise DatasetError(f"{directory} is missing {name}")
    blocks = {m: read_embeddings(directory / f"{m}.femb") for m in modalities}
    ids = read_ids(directory / "ids.csv")
    if any(block.shape[0] != len(ids) for block in blocks.values()):
        rows = " and ".join(f"{block.shape[0]} {m} rows" for m, block in blocks.items())
        raise DatasetError(f"{directory}: {len(ids)} ids but {rows}")
    for m, block in blocks.items():
        if block.shape[1] != MODALITY_DIMS[m]:
            raise ShapeError(f"{directory}: {m} width {block.shape[1]}, expected {MODALITY_DIMS[m]}")
    labels_path = directory / "labels.csv"
    labels = None
    if labels_path.exists():
        labels = rows_in_order(ids, *read_label_matrix(labels_path), directory)
    elif require_labels:
        raise DatasetError(f"{directory} has no labels.csv")
    return ids, blocks, labels


def load_dataset(directory, require_labels: bool = False) -> EmbeddingDataset:
    """Load a dataset directory written by :func:`save_dataset`; its embeddings stay float32."""
    ids, blocks, labels = load_inputs(directory, tuple(MODALITY_DIMS), require_labels)
    return EmbeddingDataset(ids=ids, labels=labels, **blocks)


# ----------------------------------------------------------------- synthetic

SIGNAL_BLOCK = 8
# the columns of each embedding that carry class signal: 9 classes of 8 columns
SIGNAL_COLUMNS = 9 * SIGNAL_BLOCK
# rows per noise draw; chunked draws give the values of one draw of the whole block
SYNTHETIC_CHUNK_ROWS = 256
# the most rows an embedding file's u32 header can count
_MAX_SPLIT_ROWS = 2**32 - 1


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

    Each value is computed in float64 and rounded once to the float32 the
    splits hold, so they equal the files :func:`save_dataset` writes.  The
    noise is drawn :data:`SYNTHETIC_CHUNK_ROWS` rows at a time straight into
    the float32 blocks; only the 72 signal columns of each block wait in
    float64 for the labels, so no float64 copy of a whole split is made.
    A split of more rows than an embedding file's header counts raises
    :class:`DatasetError` before anything is allocated.
    """
    _check_setting("seed", seed, int, 0)
    for name, count in (("n_train", n_train), ("n_test", n_test), ("n_val", n_val)):
        _check_setting(name, count, int)
        if count > _MAX_SPLIT_ROWS:
            raise DatasetError(
                f"{name} is {count}, above the {_MAX_SPLIT_ROWS} rows an embedding file holds"
            )
    _check_setting("noise", noise, float, 0)
    if min(n_train, n_test, n_val) < 1:
        raise DatasetError("every split needs at least one sample")
    rng = np.random.default_rng(seed)

    def noise_block(count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """A [count, width] float32 noise block and its signal columns in float64."""
        block = np.empty((count, width), dtype=np.float32)
        signal = np.empty((count, SIGNAL_COLUMNS))
        chunk = np.empty((min(SYNTHETIC_CHUNK_ROWS, count), width))
        for lo in range(0, count, SYNTHETIC_CHUNK_ROWS):
            draw = rng.standard_normal(out=chunk[: count - lo])
            # too large a noise becomes +-inf, which the dataset refuses by name
            with np.errstate(over="ignore"):
                draw *= noise
                block[lo : lo + len(draw), SIGNAL_COLUMNS:] = draw[:, SIGNAL_COLUMNS:]
            signal[lo : lo + len(draw)] = draw[:, :SIGNAL_COLUMNS]
        return block, signal

    def build(prefix: str, count: int) -> EmbeddingDataset:
        blocks = {name: noise_block(count, width) for name, width in MODALITY_DIMS.items()}
        labels = np.zeros((count, N_CLASSES), dtype=bool)
        for row in range(count):
            k = int(rng.integers(1, 5))
            labels[row, rng.choice(N_CLASSES, size=k, replace=False)] = True
        for (block, signal), present in zip(blocks.values(), (labels[:, :9], labels[:, 9:])):
            # add only where a class is present: absent columns keep their -0.0 at zero noise
            np.add(signal, 1.0, out=signal, where=np.repeat(present, SIGNAL_BLOCK, axis=1))
            with np.errstate(over="ignore"):
                block[:, :SIGNAL_COLUMNS] = signal
        ids = tuple(f"{prefix}_{row:05d}" for row in range(count))
        return EmbeddingDataset(ids=ids, labels=labels,
                                **{name: block for name, (block, _) in blocks.items()})

    return build("train", n_train), build("test", n_test), build("val", n_val)
