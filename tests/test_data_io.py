"""File format and dataset tests, including byte-level golden files."""

import struct
import zlib

import numpy as np
import pytest

from mmfusion.data_io import (
    EMBEDDING_MAGIC,
    MODEL_MAGIC,
    EmbeddingDataset,
    gen_synthetic,
    signal_columns,
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
from mmfusion.errors import (
    BadMagicError,
    ChecksumError,
    DatasetError,
    DuplicateIdError,
    FileFormatError,
    KindMismatchError,
    LabelDomainError,
    NonFiniteError,
    ShapeError,
    TruncatedFileError,
    UnknownKindError,
    VersionMismatchError,
)
from mmfusion.fusion import (
    HEAD_KINDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    expected_param_shapes,
)


def make_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    params = {
        name: rng.standard_normal(shape) * 0.05
        for name, shape in expected_param_shapes(kind).items()
    }
    return FusionModel(kind=kind, params=params)


# ------------------------------------------------------------- embedding file


class TestEmbeddingFormat:
    def test_golden_bytes_2x3(self, tmp_path):
        # 16-byte header + 6 float32 values: the file is exactly 40 bytes.
        path = tmp_path / "e.femb"
        write_embeddings(np.arange(6, dtype=np.float64).reshape(2, 3), path)
        blob = path.read_bytes()
        assert len(blob) == 40
        assert blob[:16] == b"FEMB\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"
        expected_payload = struct.pack("<6f", 0, 1, 2, 3, 4, 5)
        assert blob[16:] == expected_payload

    def test_round_trip_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(7)
        original = rng.standard_normal((11, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "e.femb"
        write_embeddings(original, path)
        back = read_embeddings(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, original)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.femb"
        path.write_bytes(b"JUNK" + b"\x00" * 36)
        with pytest.raises(BadMagicError):
            read_embeddings(path)

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "e.femb"
        path.write_bytes(EMBEDDING_MAGIC + struct.pack("<III", 2, 1, 1) + b"\x00" * 4)
        with pytest.raises(VersionMismatchError):
            read_embeddings(path)

    def test_truncation_every_prefix(self, tmp_path):
        path = tmp_path / "e.femb"
        write_embeddings(np.zeros((2, 3)), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            short = tmp_path / "short.femb"
            short.write_bytes(blob[:cut])
            with pytest.raises((TruncatedFileError, BadMagicError)):
                read_embeddings(short)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "e.femb"
        write_embeddings(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedFileError):
            read_embeddings(path)

    def test_requires_matrix(self, tmp_path):
        with pytest.raises(ShapeError):
            write_embeddings(np.zeros(5), tmp_path / "e.femb")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad, tmp_path):
        values = np.zeros((3, 4))
        values[2, 1] = bad
        path = tmp_path / "e.femb"
        write_embeddings(values, path)
        with pytest.raises(NonFiniteError, match="row 2, column 1"):
            read_embeddings(path)


class TestIdsSidecar:
    def test_round_trip(self, tmp_path):
        ids = ("a_0", "b_1", "c_2")
        write_ids(ids, tmp_path / "ids.csv")
        assert read_ids(tmp_path / "ids.csv") == ids

    def test_duplicate_rejected(self, tmp_path):
        (tmp_path / "ids.csv").write_text("x\ny\nx\n")
        with pytest.raises(DuplicateIdError):
            read_ids(tmp_path / "ids.csv")


# ---------------------------------------------------------------- labels CSV


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        ids = ("img_a", "img_b")
        labels = (LabelVector.from_ids([1, 13]), LabelVector.from_ids([19]))
        path = tmp_path / "labels.csv"
        write_predictions(ids, labels, path)
        text = path.read_text()
        assert text.splitlines()[0] == "ImageID,Labels"
        assert "img_a,1 13" in text
        back = read_labels(path)
        assert back == {"img_a": labels[0], "img_b": labels[1]}

    def test_header_required(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,labels\nimg_a,1\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_descending_ids_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,3 1\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_repeated_class_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,3 3\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_reserved_class_id_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,11 12\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,20\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_empty_label_list_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,\n")
        with pytest.raises(LabelDomainError):
            read_labels(path)

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nimg_a,1\nimg_a,2\n")
        with pytest.raises(DuplicateIdError):
            read_labels(path)

    def test_write_refuses_empty_vector(self, tmp_path):
        empty = LabelVector(tuple([False] * N_CLASSES))
        with pytest.raises(LabelDomainError):
            write_predictions(("img_a",), (empty,), tmp_path / "labels.csv")


# ----------------------------------------------------------------- model file


class TestModelFormat:
    @pytest.mark.parametrize("kind", sorted(HEAD_KINDS))
    def test_round_trip_bitwise(self, kind, tmp_path):
        model = make_model(kind)
        path = tmp_path / "m.fus1"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == kind
        assert set(back.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name], model.params[name])

    def test_round_trip_predictions_bitwise(self, tmp_path):
        from mmfusion.fusion import predict_logits

        model = make_model("cross_attn_fcnn", seed=3)
        rng = np.random.default_rng(4)
        text = rng.standard_normal((6, TEXT_DIM))
        image = rng.standard_normal((6, IMAGE_DIM))
        before = predict_logits(model, text, image)
        path = tmp_path / "m.fus1"
        save_model(model, path)
        after = predict_logits(load_model(path), text, image)
        np.testing.assert_array_equal(before, after)

    def test_expect_kind_mismatch(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        with pytest.raises(KindMismatchError):
            load_model(path, expect_kind="vision_linear")
        assert load_model(path, expect_kind="text_linear").kind == "text_linear"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_single_byte_corruption_sweep(self, tmp_path):
        """Flipping any sampled byte must raise a typed format error."""
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = path.read_bytes()
        positions = list(range(min(64, len(blob)))) + list(range(64, len(blob), 97))
        corrupt = tmp_path / "c.fus1"
        for pos in positions:
            damaged = bytearray(blob)
            damaged[pos] ^= 0xFF
            corrupt.write_bytes(bytes(damaged))
            with pytest.raises(FileFormatError):
                load_model(corrupt)

    def test_truncation_sweep(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = path.read_bytes()
        corrupt = tmp_path / "c.fus1"
        for cut in [0, 3, 4, 8, 11, len(blob) // 2, len(blob) - 5, len(blob) - 1]:
            corrupt.write_bytes(blob[:cut])
            with pytest.raises(FileFormatError):
                load_model(corrupt)

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        body = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = bytearray(path.read_bytes())
        # kind starts after magic + version + length field
        offset = 4 + 4 + 4
        assert bytes(blob[offset : offset + 11]) == b"text_linear"
        blob[offset : offset + 11] = b"txet_linear"
        body = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        path.write_bytes(bytes(blob))
        with pytest.raises(UnknownKindError):
            load_model(path)

    def test_checksum_detects_payload_flip(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_magic_literal(self, tmp_path):
        path = tmp_path / "m.fus1"
        save_model(make_model("text_linear"), path)
        assert path.read_bytes()[:4] == MODEL_MAGIC == b"FUS1"


# ------------------------------------------------------------------- datasets


def tiny_dataset(n=4, seed=0, labeled=True, prefix="s"):
    rng = np.random.default_rng(seed)
    labels = None
    if labeled:
        labels = tuple(LabelVector.from_ids([1 + (i % 5), 13 + (i % 3)]) for i in range(n))
    return EmbeddingDataset(
        ids=tuple(f"{prefix}_{i}" for i in range(n)),
        text=rng.standard_normal((n, TEXT_DIM)),
        image=rng.standard_normal((n, IMAGE_DIM)),
        labels=labels,
    )


class TestEmbeddingDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            EmbeddingDataset(
                ids=("a", "a"),
                text=np.zeros((2, TEXT_DIM)),
                image=np.zeros((2, IMAGE_DIM)),
            )

    def test_width_enforced(self):
        with pytest.raises(ShapeError):
            EmbeddingDataset(ids=("a",), text=np.zeros((1, 64)), image=np.zeros((1, IMAGE_DIM)))

    def test_label_alignment_enforced(self):
        with pytest.raises(DatasetError):
            EmbeddingDataset(
                ids=("a", "b"),
                text=np.zeros((2, TEXT_DIM)),
                image=np.zeros((2, IMAGE_DIM)),
                labels=(LabelVector.from_ids([1]),),
            )

    def test_label_matrix_is_the_stored_form(self):
        ds = tiny_dataset(3)
        assert ds.labels.shape == (3, N_CLASSES) and ds.labels.dtype == bool
        assert ds.labels[0].tolist() == list(LabelVector.from_ids([1, 13]).bits)
        same = EmbeddingDataset(ids=ds.ids, text=ds.text, image=ds.image, labels=ds.labels * 1)
        np.testing.assert_array_equal(same.labels, ds.labels)

    def test_empty_label_row_rejected(self):
        labels = np.zeros((2, N_CLASSES), dtype=bool)
        labels[0, 3] = True
        with pytest.raises(LabelDomainError):
            EmbeddingDataset(
                ids=("a", "b"),
                text=np.zeros((2, TEXT_DIM)),
                image=np.zeros((2, IMAGE_DIM)),
                labels=labels,
            )

    @pytest.mark.parametrize("width", [N_CLASSES - 1, N_CLASSES + 1])
    def test_label_matrix_width_enforced(self, width):
        with pytest.raises(ShapeError):
            EmbeddingDataset(
                ids=("a", "b"),
                text=np.zeros((2, TEXT_DIM)),
                image=np.zeros((2, IMAGE_DIM)),
                labels=np.ones((2, width), dtype=bool),
            )

    def test_subset_and_merge(self):
        ds = tiny_dataset(6)
        front = ds.subset(range(3))
        back = ds.subset(range(3, 6))
        merged = front.merge(back)
        assert merged.ids == ds.ids
        np.testing.assert_array_equal(merged.text, ds.text)
        np.testing.assert_array_equal(merged.image, ds.image)
        np.testing.assert_array_equal(merged.labels, ds.labels)

    def test_merge_rejects_overlap(self):
        ds = tiny_dataset(4)
        with pytest.raises(DuplicateIdError):
            ds.merge(ds.subset([0]))

    def test_merge_rejects_mixed_labeling(self):
        a = tiny_dataset(2, prefix="a")
        b = tiny_dataset(2, prefix="b", labeled=False)
        with pytest.raises(DatasetError):
            a.merge(b)

    def test_with_labels_requires_cover(self):
        ds = tiny_dataset(3, labeled=False)
        with pytest.raises(DatasetError):
            ds.with_labels({"s_0": LabelVector.from_ids([1])})

    def test_label_counts(self):
        ds = EmbeddingDataset(
            ids=("a", "b"),
            text=np.zeros((2, TEXT_DIM)),
            image=np.zeros((2, IMAGE_DIM)),
            labels=(LabelVector.from_ids([1, 2]), LabelVector.from_ids([2, 19])),
        )
        counts = ds.label_counts()
        assert counts[0] == 1 and counts[1] == 2 and counts[17] == 1
        assert counts.sum() == 4


class TestDatasetDirectory:
    def test_round_trip_labeled(self, tmp_path):
        ds = tiny_dataset(5, seed=9)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.ids == ds.ids
        np.testing.assert_array_equal(back.labels, ds.labels)
        # float32 storage: values equal after one quantization, then stable
        save_dataset(back, tmp_path / "d2")
        again = load_dataset(tmp_path / "d2")
        np.testing.assert_array_equal(again.text, back.text)
        np.testing.assert_array_equal(again.image, back.image)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = tiny_dataset(3, labeled=False)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.labels is None
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "d", require_labels=True)

    def test_missing_file_reported(self, tmp_path):
        ds = tiny_dataset(3)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "image.femb").unlink()
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "d")

    def test_row_count_mismatch_reported(self, tmp_path):
        ds = tiny_dataset(3)
        save_dataset(ds, tmp_path / "d")
        write_ids(("a", "b"), tmp_path / "d" / "ids.csv")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "d")


# ------------------------------------------------------------------ synthetic


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(seed=5, n_train=12, n_test=6, n_val=6, noise=0.2)
        b = gen_synthetic(seed=5, n_train=12, n_test=6, n_val=6, noise=0.2)
        for left, right in zip(a, b):
            assert left.ids == right.ids
            np.testing.assert_array_equal(left.text, right.text)
            np.testing.assert_array_equal(left.image, right.image)
            np.testing.assert_array_equal(left.labels, right.labels)

    def test_seed_changes_data(self):
        a, _, _ = gen_synthetic(seed=1, n_train=8, n_test=1, n_val=1, noise=0.2)
        b, _, _ = gen_synthetic(seed=2, n_train=8, n_test=1, n_val=1, noise=0.2)
        assert not np.array_equal(a.text, b.text)

    def test_split_sizes_and_disjoint_ids(self):
        train, test, val = gen_synthetic(seed=0, n_train=10, n_test=4, n_val=3, noise=0.1)
        assert (len(train), len(test), len(val)) == (10, 4, 3)
        all_ids = set(train.ids) | set(test.ids) | set(val.ids)
        assert len(all_ids) == 17

    def test_noise_free_signal_recipe(self):
        """With noise off, each class block is exactly its label indicator."""
        train, _, _ = gen_synthetic(seed=3, n_train=40, n_test=1, n_val=1, noise=0.0)
        for row, mask in enumerate(train.labels):
            for slot in range(18):
                modality, cols = signal_columns(slot)
                block = (train.text if modality == "text" else train.image)[row, cols.start:cols.stop]
                np.testing.assert_array_equal(block, float(mask[slot]) * np.ones(8))
            assert not train.text[row, 72:].any()
            assert not train.image[row, 72:].any()

    def test_label_cardinality_bounds(self):
        train, _, _ = gen_synthetic(seed=11, n_train=60, n_test=1, n_val=1, noise=0.5)
        assert train.labels.shape == (60, N_CLASSES) and train.labels.dtype == bool
        assert set(train.labels.sum(axis=1).tolist()) <= {1, 2, 3, 4}

    def test_negative_noise_rejected(self):
        with pytest.raises(DatasetError):
            gen_synthetic(seed=0, n_train=1, n_test=1, n_val=1, noise=-0.1)
