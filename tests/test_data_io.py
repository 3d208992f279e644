"""File format and dataset tests, including byte-level golden files."""

import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfusion.data_io import (
    EMBEDDING_MAGIC,
    MODEL_MAGIC,
    EmbeddingDataset,
    gen_synthetic,
    load_dataset,
    load_inputs,
    load_model,
    read_embeddings,
    read_ids,
    read_label_matrix,
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
    DomainError,
    DuplicateIdError,
    FileFormatError,
    KindMismatchError,
    LabelDomainError,
    NonFiniteError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    UnknownKindError,
    VersionMismatchError,
)
from mmfusion.fusion import (
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


def label_vector(class_ids) -> LabelVector:
    return LabelVector.from_mask(np.isin(CLASS_IDS, class_ids))


def make_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    params = {
        name: rng.standard_normal(shape) * 0.05
        for name, shape in expected_param_shapes(kind).items()
    }
    return FusionModel(kind=kind, params=params)


# ------------------------------------------------------------- embedding file


def write_raw_embeddings(values, path):
    """An embedding file built byte by byte, for payloads write_embeddings refuses."""
    arr = np.asarray(values, dtype="<f4")
    path.write_bytes(EMBEDDING_MAGIC + struct.pack("<III", 1, *arr.shape) + arr.tobytes())


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
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, original)

    def test_float32_values_written_as_their_widening(self, tmp_path):
        values = np.random.default_rng(8).standard_normal((6, 4)).astype(np.float32)
        write_embeddings(values, tmp_path / "a.femb")
        write_embeddings(values.astype(np.float64), tmp_path / "b.femb")
        assert (tmp_path / "a.femb").read_bytes() == (tmp_path / "b.femb").read_bytes()
        values[2, 1] = np.inf
        with pytest.raises(NonFiniteError, match="row 2, column 1"):
            write_embeddings(values, tmp_path / "c.femb")
        assert not (tmp_path / "c.femb").exists()

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

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.nan, np.inf])
    def test_writer_refuses_values_not_finite_in_float32(self, bad, tmp_path):
        path = tmp_path / "e.femb"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="row 0, column 0"):
                write_embeddings(np.array([[bad, 0.0]]), path)
        assert not path.exists()

    @pytest.mark.parametrize("values, dtype", [
        (np.array([[1 + 5j, 0.0]]), "complex128"),
        (np.array([["1.5", "2"]]), "<U3"),
        (np.array([[1.5, None]]), "object"),
    ], ids=["complex", "str", "object"])
    def test_writer_refuses_values_that_are_not_real(self, values, dtype, tmp_path):
        path = tmp_path / "e.femb"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"e.femb: values must be real numbers, got dtype {dtype}$"):
                write_embeddings(values, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad, tmp_path):
        values = np.zeros((3, 4))
        values[2, 1] = bad
        path = tmp_path / "e.femb"
        write_raw_embeddings(values, path)
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

    # a comma splits a labels CSV row; the others break or drop an ids.csv line
    @pytest.mark.parametrize(
        "bad",
        ["a,7", "a\nb", "a\rb", "a\u2028b", "x\x0b", "", "  "],
        ids=["comma", "newline", "return", "line-separator", "vertical-tab", "empty", "spaces"],
    )
    @pytest.mark.parametrize("writer", ["write_ids", "write_predictions"])
    def test_writers_refuse_ids_that_do_not_read_back(self, writer, bad, tmp_path):
        ids = ("first", bad, "last")
        path = tmp_path / "out.csv"
        with pytest.raises(DatasetError) as info:
            if writer == "write_ids":
                write_ids(ids, path)
            else:
                write_predictions(ids, np.ones((3, N_CLASSES), dtype=bool), path)
        assert repr(bad) in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["a,7", "a\x0bb", "a\x85b"], ids=["comma", "vertical-tab", "nel"])
    def test_read_refuses_ids_a_labels_csv_cannot_hold(self, bad, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text(f"x\n{bad}\ny\n", encoding="utf-8")
        with pytest.raises(DatasetError) as info:
            read_ids(path)
        assert repr(bad) in str(info.value) and str(path) in str(info.value)

    def test_read_refuses_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_bytes(b"x\ny\xff\n")
        with pytest.raises(DatasetError, match="not UTF-8") as info:
            read_ids(path)
        assert str(path) in str(info.value)


# ---------------------------------------------------------------- labels CSV

# sample ids: any non-blank text without the CSV's comma or a character str.splitlines breaks on
ID_TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    min_size=1,
    max_size=6,
).filter(str.strip)


def reference_prediction_bytes(ids, matrix) -> bytes:
    """The labels CSV of a bool matrix, written one row and one slot at a time."""
    lines = ["ImageID,Labels"]
    for sample_id, row in zip(ids, matrix):
        lines.append(f"{sample_id}," + " ".join(str(c) for c, on in zip(CLASS_IDS, row) if on))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        ids = ("img_a", "img_b")
        labels = (label_vector([1, 13]), label_vector([19]))
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

    def test_read_labels_wraps_the_matrix_parser(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\nb,2 19\na,1\n")
        ids, matrix = read_label_matrix(path)
        assert ids == ("b", "a")
        assert matrix.dtype == bool and matrix.shape == (2, N_CLASSES)
        back = read_labels(path)
        assert list(back) == ["b", "a"]
        assert back["b"] == label_vector([2, 19])
        assert back["a"] == label_vector([1])
        assert [v.bits for v in back.values()] == [tuple(row) for row in matrix.tolist()]

    @pytest.mark.parametrize("reader", [read_label_matrix, read_labels])
    def test_bytes_that_are_not_utf8_rejected(self, reader, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"ImageID,Labels\na\xff,1\n")
        with pytest.raises(LabelDomainError, match="not UTF-8") as info:
            reader(path)
        assert str(path) in str(info.value)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ImageID,Labels\n")
        ids, matrix = read_label_matrix(path)
        assert ids == () and matrix.shape == (0, N_CLASSES)

    def test_blank_lines_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"ImageID,Labels\r\na,1 3\r\n\r\n   \r\nb,19\r\n\r\n")
        ids, matrix = read_label_matrix(path)
        assert ids == ("a", "b")
        np.testing.assert_array_equal(matrix, labels_to_matrix(
            [label_vector([1, 3]), label_vector([19])]))

    @pytest.mark.parametrize(
        "body, lineno, error, message",
        [
            ("id,labels\na,1\n", 1, LabelDomainError, "first line"),
            ("ImageID,Labels\na,1\nb 2\n", 3, LabelDomainError, "expected 'id,labels'"),
            ("ImageID,Labels\na,1.5\n", 2, LabelDomainError, "non-integer"),
            ("ImageID,Labels\na,1\n\nb,2 x\n", 4, LabelDomainError, "non-integer"),
            ("ImageID,Labels\na,99999999999999999999\n", 2, LabelDomainError,
             "got 99999999999999999999"),
            ("ImageID,Labels\na,1 -99999999999999999999\n", 2, LabelDomainError, "ascending"),
            ("ImageID,Labels\na,0\n", 2, LabelDomainError, "got 0"),
            ("ImageID,Labels\na,1\nb,12\n", 3, LabelDomainError, "got 12"),
            ("ImageID,Labels\na,1\nb,20\n", 3, LabelDomainError, "got 20"),
            ("ImageID,Labels\na,3 1\n", 2, LabelDomainError, "ascending"),
            ("ImageID,Labels\na,3 3\n", 2, LabelDomainError, "ascending"),
            ("ImageID,Labels\na,1\nb,\n", 3, LabelDomainError, "empty label set for 'b'"),
            ("ImageID,Labels\na,1\nb,2\na,3\n", 4, DuplicateIdError, "'a' appears twice"),
            # several faults: the first bad line wins, whichever check finds it
            ("ImageID,Labels\na,20\nb,x\n", 2, LabelDomainError, "got 20"),
            ("ImageID,Labels\na,x\nb,20\n", 2, LabelDomainError, "non-integer"),
            ("ImageID,Labels\na,1\nb,5 4\nc,\nb,1\n", 3, LabelDomainError, "ascending"),
            ("ImageID,Labels\na,1\nb,2 20\nc\n", 3, LabelDomainError, "got 20"),
            # within one line, the checks keep their order: repeat, empty, order, range
            ("ImageID,Labels\na,1\na,\n", 3, DuplicateIdError, "appears twice"),
            ("ImageID,Labels\na,20 3\n", 2, LabelDomainError, "ascending"),
            # blank ids, which no writer produces, come first of all
            ("ImageID,Labels\n ,1\n,2\n", 2, DatasetError, "sample id ' ' is blank"),
            ("ImageID,Labels\na,1\n,2\n", 3, DatasetError, "sample id '' is blank"),
            ("ImageID,Labels\na,1\n\t,\n", 3, DatasetError, r"sample id '\\t' is blank"),
        ],
    )
    def test_errors_name_path_and_line(self, body, lineno, error, message, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(body)
        with pytest.raises(error, match=message) as info:
            read_label_matrix(path)
        assert str(info.value).startswith(f"{path}:{lineno}: ")
        with pytest.raises(error):
            read_labels(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), codes=st.lists(st.integers(1, 2**N_CLASSES - 1), max_size=40))
    def test_round_trip_any_matrix(self, tmp_path_factory, data, codes):
        matrix = (np.array(codes, dtype=np.int64)[:, None] >> np.arange(N_CLASSES)) & 1 == 1
        ids = data.draw(st.lists(ID_TEXT, min_size=len(codes), max_size=len(codes), unique=True))
        path = tmp_path_factory.mktemp("rt") / "labels.csv"
        write_predictions(ids, matrix, path)
        back_ids, back = read_label_matrix(path)
        assert back_ids == tuple(ids)
        np.testing.assert_array_equal(back, matrix)

    def test_writer_golden_bytes(self, tmp_path):
        matrix = np.zeros((5, N_CLASSES), dtype=bool)
        matrix[0] = True  # all 18 classes
        matrix[1, N_CLASSES - 1] = True  # class 19 alone
        matrix[2, [0, 10, 11]] = True  # 1, 11 and 13 around the reserved 12
        matrix[3, 5] = True
        matrix[4, [3, 16]] = True
        ids = ("all", "only 19", " spaced id ", "x", "ünï")
        path = tmp_path / "labels.csv"
        write_predictions(ids, matrix, path)
        expected = reference_prediction_bytes(ids, matrix)
        assert path.read_bytes() == expected
        assert expected.splitlines()[1:4] == [
            b"all,1 2 3 4 5 6 7 8 9 10 11 13 14 15 16 17 18 19",
            b"only 19,19",
            b" spaced id ,1 11 13",
        ]


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

    @pytest.mark.parametrize("value", [pytest.param(np.nan, id="nan-finite")])
    def test_save_refuses_a_value_edited_in_before_any_write(self, value, tmp_path):
        # the model refuses the edit; with writes re-enabled on that one array, a value
        # load_model would refuse reaches save_model
        model = make_model("vision_linear")
        with pytest.raises(ValueError, match="read-only"):
            model.params["w"][0, 3] = value
        model.params["w"].flags.writeable = True
        model.params["w"][0, 3] = value
        path = tmp_path / "m.fus1"
        with pytest.raises(NumericError, match=rf"parameter 'w' value {value} at \(0, 3\) is not finite"):
            save_model(model, path)
        assert not path.exists()

    def test_held_and_loaded_params_are_the_file_float32(self, tmp_path):
        model = make_model("cross_attn_fcnn", seed=5)
        path = tmp_path / "m.fus1"
        save_model(model, path)
        back = load_model(path)
        for params in (model.params, back.params):
            assert all(arr.dtype == np.float32 and not arr.flags.writeable
                       for arr in params.values())
        assert all(back.params[name].tobytes() == arr.tobytes()
                   for name, arr in model.params.items())
        # 86,290 values at 4 bytes each, half the bytes of float64 copies
        assert sum(arr.nbytes for arr in back.params.values()) == 4 * 86_290

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

    def test_key_width_other_than_128_rejected(self, tmp_path):
        def cross_attn_file(key_width):
            """A zero cross-attention model file whose queries and keys are key_width wide."""
            shapes = {"b": (18,), "ln_bias": (128,), "ln_gain": (128,), "w": (18, 2048),
                      "wk": (128, key_width), "wq": (128, key_width), "wv": (128, 128)}
            body = struct.pack("<II", 1, 15) + b"cross_attn_fcnn"
            body += struct.pack("<IIIII", 128, 1792, 18, key_width, len(shapes))
            for name, shape in shapes.items():
                body += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", len(shape))
                body += struct.pack(f"<{len(shape)}I", *shape) + np.zeros(shape, "<f4").tobytes()
            return MODEL_MAGIC + body + struct.pack("<I", zlib.crc32(body))

        shapes = expected_param_shapes("cross_attn_fcnn")
        zeros = {name: np.zeros(shape) for name, shape in shapes.items()}
        save_model(FusionModel(kind="cross_attn_fcnn", params=zeros), tmp_path / "saved.fus1")
        assert (tmp_path / "saved.fus1").read_bytes() == cross_attn_file(128)
        path = tmp_path / "narrow.fus1"
        path.write_bytes(cross_attn_file(64))
        with pytest.raises(ShapeError, match="key width") as info:
            load_model(path)
        assert str(path) in str(info.value)


# ------------------------------------------------------------------- datasets


def tiny_dataset(n=4, seed=0, labeled=True, prefix="s"):
    rng = np.random.default_rng(seed)
    labels = None
    if labeled:
        labels = tuple(label_vector([1 + (i % 5), 13 + (i % 3)]) for i in range(n))
    return EmbeddingDataset(
        ids=tuple(f"{prefix}_{i}" for i in range(n)),
        text=rng.standard_normal((n, TEXT_DIM)),
        image=rng.standard_normal((n, IMAGE_DIM)),
        labels=labels,
    )


class TestEmbeddingDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError, match="'a' appears twice"):
            EmbeddingDataset(
                ids=("a", "b", "a"),
                text=np.zeros((3, TEXT_DIM)),
                image=np.zeros((3, IMAGE_DIM)),
            )

    def test_width_enforced(self):
        with pytest.raises(ShapeError):
            EmbeddingDataset(ids=("a",), text=np.zeros((1, 64)), image=np.zeros((1, IMAGE_DIM)))

    @pytest.mark.parametrize("ids, message", [
        # a str is a sequence of one-character ids only by accident
        ("ab", "dataset ids must be a tuple or list of str, got 'ab'"),
        (("a", 7), "dataset id 7 is of type int, not str"),
    ], ids=["str", "int_id"])
    def test_ids_that_are_no_strs_rejected(self, ids, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            EmbeddingDataset(ids=ids, text=np.zeros((2, TEXT_DIM)), image=np.zeros((2, IMAGE_DIM)))

    def test_list_ids_held_as_a_tuple(self):
        ds = EmbeddingDataset(ids=["a", "b"], text=np.zeros((2, TEXT_DIM)),
                              image=np.zeros((2, IMAGE_DIM)))
        assert ds.ids == ("a", "b")
        assert ds.merge(tiny_dataset(2, labeled=False)).ids == ("a", "b", "s_0", "s_1")

    @pytest.mark.parametrize("name", ["text", "image"])
    def test_complex_block_rejected_without_a_warning(self, name):
        blocks = {"text": np.zeros((1, TEXT_DIM)), "image": np.zeros((1, IMAGE_DIM))}
        blocks[name] = blocks[name] + 5j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} embeddings: .* got dtype complex128$"):
                EmbeddingDataset(ids=("a",), **blocks)

    @pytest.mark.parametrize("name", ["text", "image"])
    def test_block_that_is_no_array_rejected(self, name):
        blocks = {"text": np.zeros((1, TEXT_DIM)), "image": np.zeros((1, IMAGE_DIM))}
        blocks[name] = blocks[name].tolist()  # the right shape, but a list
        with pytest.raises(ShapeError, match=f"^{name} embeddings must be a numpy array, got list"):
            EmbeddingDataset(ids=("a",), **blocks)

    def test_label_alignment_enforced(self):
        with pytest.raises(DatasetError):
            EmbeddingDataset(
                ids=("a", "b"),
                text=np.zeros((2, TEXT_DIM)),
                image=np.zeros((2, IMAGE_DIM)),
                labels=(label_vector([1]),),
            )

    def test_label_matrix_is_the_stored_form(self):
        ds = tiny_dataset(3)
        assert ds.labels.shape == (3, N_CLASSES) and ds.labels.dtype == bool
        assert ds.labels[0].tolist() == list(label_vector([1, 13]).bits)
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

    def test_merge_names_the_same_id_under_any_hash_seed(self):
        code = (
            "from mmfusion.data_io import gen_synthetic\n"
            "train, _, _ = gen_synthetic(seed=0, n_train=40, n_test=1, n_val=1, noise=0.3)\n"
            "try:\n"
            "    train.merge(train)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        messages = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            ).stdout
            for hash_seed in ("1", "2", "3")
        }
        assert messages == {"DuplicateIdError dataset id 'train_00000' appears twice\n"}

    def test_merge_rejects_mixed_labeling(self):
        a = tiny_dataset(2, prefix="a")
        b = tiny_dataset(2, prefix="b", labeled=False)
        with pytest.raises(DatasetError):
            a.merge(b)

    @pytest.mark.parametrize("name", ["text", "image"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_block_not_finite_in_float32_rejected(self, name, bad):
        blocks = {"text": np.zeros((3, TEXT_DIM)), "image": np.zeros((3, IMAGE_DIM))}
        blocks[name][2, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{name} embeddings: value .* at row 2, column 7"):
                EmbeddingDataset(ids=("a", "b", "c"), **blocks)

    def test_blocks_are_held_as_float32(self):
        text = np.zeros((2, TEXT_DIM), dtype=np.float32)
        image = np.full((2, IMAGE_DIM), 0.1)
        ds = EmbeddingDataset(ids=("a", "b"), text=text, image=image)
        # a float32 block is kept without a copy, as a read-only view
        assert np.shares_memory(ds.text, text) and not ds.text.flags.writeable
        assert ds.image.dtype == np.float32
        assert ds.image.tobytes() == image.astype(np.float32).tobytes()

    @pytest.mark.parametrize("name", ["text", "image", "labels"])
    def test_held_arrays_refuse_writes(self, name):
        given = {"text": np.zeros((2, TEXT_DIM), dtype=np.float32),
                 "image": np.zeros((2, IMAGE_DIM), dtype=np.float32),
                 "labels": np.ones((2, N_CLASSES), dtype=bool)}
        ds = EmbeddingDataset(ids=("a", "b"), **given)
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0, 0] = 0
        # the caller's own array stays writable, and the dataset views it
        given[name][0, 0] = 0
        assert getattr(ds, name)[0, 0] == 0

    def test_label_counts(self):
        ds = EmbeddingDataset(
            ids=("a", "b"),
            text=np.zeros((2, TEXT_DIM)),
            image=np.zeros((2, IMAGE_DIM)),
            labels=(label_vector([1, 2]), label_vector([2, 19])),
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

    def test_loaded_dataset_stays_float32_and_saves_the_same_bytes(self, tmp_path):
        save_dataset(tiny_dataset(5, seed=3), tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.text.dtype == back.image.dtype == np.float32
        save_dataset(back, tmp_path / "d2")
        for name in ("text.femb", "image.femb", "ids.csv", "labels.csv"):
            assert (tmp_path / "d2" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()

    def test_save_writes_from_the_arrays_without_a_copy(self, tmp_path):
        ds = tiny_dataset(1000, seed=2)
        ds = EmbeddingDataset(ids=ds.ids, text=ds.text.astype(np.float32),
                              image=ds.image.astype(np.float32), labels=ds.labels)
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / "d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.image.nbytes / 8

    def test_load_inputs_reads_only_the_named_blocks(self, tmp_path):
        ds = tiny_dataset(4, seed=6)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "image.femb").unlink()
        ids, blocks, labels = load_inputs(tmp_path / "d", ("text",))
        assert ids == ds.ids and list(blocks) == ["text"]
        np.testing.assert_array_equal(blocks["text"], ds.text.astype(np.float32))
        np.testing.assert_array_equal(labels, ds.labels)
        with pytest.raises(DatasetError, match="missing image.femb"):
            load_inputs(tmp_path / "d", ("image",))

    def test_labels_follow_the_ids_file_not_the_csv_order(self, tmp_path):
        ds = tiny_dataset(6, seed=4)
        save_dataset(ds, tmp_path / "d")
        order = [3, 0, 5, 1, 4, 2]
        write_predictions([ds.ids[i] for i in order], ds.labels[order], tmp_path / "d" / "labels.csv")
        back = load_dataset(tmp_path / "d")
        assert back.ids == ds.ids
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_labels_must_match_the_ids(self, tmp_path):
        ds = tiny_dataset(3)
        save_dataset(ds, tmp_path / "d")
        labels = tmp_path / "d" / "labels.csv"
        write_predictions(ds.ids[:2], ds.labels[:2], labels)
        with pytest.raises(DatasetError, match="no rows for 1 ids, first 's_2'"):
            load_dataset(tmp_path / "d")
        write_predictions(ds.ids + ("extra",), np.vstack([ds.labels, ds.labels[:1]]), labels)
        with pytest.raises(DatasetError, match="rows for 1 unknown ids, first 'extra'"):
            load_dataset(tmp_path / "d")

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

    def test_bad_id_leaves_no_file(self, tmp_path):
        ds = tiny_dataset(3)
        bad = EmbeddingDataset(ids=("s_0", "a,7", "s_2"), text=ds.text, image=ds.image,
                               labels=ds.labels)
        with pytest.raises(DatasetError, match="'a,7'"):
            save_dataset(bad, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_value_beyond_float32_leaves_no_file(self, tmp_path):
        ds = tiny_dataset(3)
        image = ds.image.astype(np.float64)
        image[1, 5] = 1e39
        # the dataset refuses it when built, so there is nothing to save
        with pytest.raises(NonFiniteError, match=r"^image embeddings: value 1e\+39 at row 1, column 5"):
            EmbeddingDataset(ids=ds.ids, text=ds.text, image=image, labels=ds.labels)
        # the dataset refuses an edit into its held block
        with pytest.raises(ValueError, match="read-only"):
            ds.image[2, 7] = np.inf
        # a value edited in through the caller's own float32 array is refused before any write
        image = ds.image.copy()
        ds = EmbeddingDataset(ids=ds.ids, text=ds.text, image=image, labels=ds.labels)
        image[2, 7] = np.inf
        with pytest.raises(NonFiniteError, match="image.femb: value inf at row 2, column 7"):
            save_dataset(ds, tmp_path / "d")
        assert not (tmp_path / "d").exists()

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
        """With noise off, each class block is exactly its label indicator.

        Slots 0..8 own text columns 8s..8s+7 and slots 9..17 image columns
        8(s-9)..8(s-9)+7; every other column carries no signal.
        """
        train, _, _ = gen_synthetic(seed=3, n_train=40, n_test=1, n_val=1, noise=0.0)
        for row, mask in enumerate(train.labels):
            for slot in range(18):
                start = 8 * (slot % 9)
                block = (train.text if slot < 9 else train.image)[row, start:start + 8]
                np.testing.assert_array_equal(block, float(mask[slot]) * np.ones(8))
            assert not train.text[row, 72:].any()
            assert not train.image[row, 72:].any()

    def test_label_cardinality_bounds(self):
        train, _, _ = gen_synthetic(seed=11, n_train=60, n_test=1, n_val=1, noise=0.5)
        assert train.labels.shape == (60, N_CLASSES) and train.labels.dtype == bool
        assert set(train.labels.sum(axis=1).tolist()) <= {1, 2, 3, 4}

    def test_blocks_are_float32(self):
        for split in gen_synthetic(seed=2, n_train=5, n_test=3, n_val=2, noise=0.3):
            assert split.text.dtype == split.image.dtype == np.float32

    def test_save_and_load_is_bitwise(self, tmp_path):
        splits = gen_synthetic(seed=4, n_train=30, n_test=20, n_val=10, noise=0.3)
        for name, split in zip(("train", "test", "val"), splits):
            save_dataset(split, tmp_path / name)
            back = load_dataset(tmp_path / name)
            assert back.ids == split.ids
            assert back.text.tobytes() == split.text.tobytes()
            assert back.image.tobytes() == split.image.tobytes()
            np.testing.assert_array_equal(back.labels, split.labels)

    @pytest.mark.parametrize("noise", [0.3, 0.0])
    def test_values_are_the_float64_recipe_rounded_once(self, noise):
        # the recipe in float64 with one draw per block, rounded to float32 at the end;
        # 600 rows cross the chunk boundaries of the draws
        count = 600
        rng = np.random.default_rng(9)
        text = noise * rng.standard_normal((count, TEXT_DIM))
        image = noise * rng.standard_normal((count, IMAGE_DIM))
        labels = np.zeros((count, N_CLASSES), dtype=bool)
        for row in range(count):
            labels[row, rng.choice(N_CLASSES, size=int(rng.integers(1, 5)), replace=False)] = True
        for block, present in ((text, labels[:, :9]), (image, labels[:, 9:])):
            np.add(block[:, :72], 1.0, out=block[:, :72], where=np.repeat(present, 8, axis=1))
        train, _, _ = gen_synthetic(seed=9, n_train=count, n_test=1, n_val=1, noise=noise)
        np.testing.assert_array_equal(train.labels, labels)
        assert train.text.tobytes() == text.astype(np.float32).tobytes()
        assert train.image.tobytes() == image.astype(np.float32).tobytes()

    def test_peak_memory_stays_near_the_float32_output(self):
        tracemalloc.start()
        try:
            splits = gen_synthetic(0, 4000, 1, 1, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        float32_bytes = sum(4 * len(split) * (TEXT_DIM + IMAGE_DIM) for split in splits)
        assert peak < 1.5 * float32_bytes

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_negative_noise_rejected(self, noise):
        with pytest.raises(DomainError, match=str(noise)):
            gen_synthetic(seed=0, n_train=1, n_test=1, n_val=1, noise=noise)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="-1"):
            gen_synthetic(seed=-1, n_train=1, n_test=1, n_val=1, noise=0.1)

    # one row past a u32 header, and a count far beyond it; both fail before any allocation
    @pytest.mark.parametrize("count", [2**32, 10**21])
    @pytest.mark.parametrize("name", ["n_train", "n_test", "n_val"])
    def test_split_beyond_an_embedding_header_rejected(self, name, count):
        sizes = {"n_train": 1, "n_test": 1, "n_val": 1, name: count}
        with pytest.raises(DatasetError, match=f"^{name} is {count}, above the 4294967295 rows"):
            gen_synthetic(seed=0, noise=0.1, **sizes)
