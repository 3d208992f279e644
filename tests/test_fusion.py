"""Label vocabulary, head forwards, logit fusion, and label assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfusion.attention import AttentionParams, cross_attention
from mmfusion.errors import DomainError, LabelDomainError, NumericError, ShapeError
from mmfusion.fusion import (
    CLASS_IDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    assign_label_matrix,
    assign_labels,
    assign_labels_batch,
    class_index,
    expected_param_shapes,
    fuse_logits,
    head_forward_batch,
    index_to_class,
    labels_to_matrix,
    logits_to_probs,
    predict_logits,
)
from mmfusion.tensor import Tensor, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def make_model(kind: str, rng: np.random.Generator) -> FusionModel:
    params = {
        name: rng.standard_normal(shape) * 0.2
        for name, shape in expected_param_shapes(kind).items()
    }
    return FusionModel(kind=kind, params=params)


def make_batch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.standard_normal((n, TEXT_DIM)), rng.standard_normal((n, IMAGE_DIM))


class TestLabelVocabulary:
    def test_index_map_split(self):
        assert class_index(1) == 0
        assert class_index(11) == 10
        assert class_index(13) == 11
        assert class_index(19) == 17

    def test_round_trip(self):
        for cid in CLASS_IDS:
            assert index_to_class(class_index(cid)) == cid

    def test_reserved_and_out_of_range_rejected(self):
        for bad in (0, 12, 20, -3):
            with pytest.raises(LabelDomainError):
                class_index(bad)

    def test_from_ids(self):
        lv = LabelVector.from_ids([1, 3, 19])
        assert lv.ids() == (1, 3, 19)
        assert [i for i, b in enumerate(lv.bits) if b] == [0, 2, 17]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(LabelDomainError):
            LabelVector.from_ids([5, 5])

    def test_hashable_and_order_free(self):
        assert LabelVector.from_ids([3, 1]) == LabelVector.from_ids([1, 3])
        assert len({LabelVector.from_ids([1]), LabelVector.from_ids([1])}) == 1

    def test_empty_constructible_but_flagged(self):
        lv = LabelVector.from_mask(np.zeros(18))
        assert lv.is_empty and len(lv) == 0


class TestHeadForward:
    def test_zero_weights_yield_bias(self, rng):
        for kind in ("vision_linear", "text_linear", "concat_fcnn", "cross_attn_fcnn"):
            shapes = expected_param_shapes(kind)
            params = {name: np.zeros(shape) for name, shape in shapes.items()}
            params["b"] = np.full(N_CLASSES, 2.5)
            if "ln_gain" in params:
                params["ln_gain"] = np.ones(TEXT_DIM)
            model = FusionModel(kind=kind, params=params)
            for n in (1, 4):
                out = predict_logits(model, *make_batch(rng, n))
                np.testing.assert_allclose(out, np.full((n, N_CLASSES), 2.5), atol=1e-12)

    def test_concat_head_equals_manual_linear(self, rng):
        model = make_model("concat_fcnn", rng)
        for n in (1, 4):
            text, image = make_batch(rng, n)
            expected = np.concatenate([text, image], axis=1) @ model.params["w"].T + model.params["b"]
            np.testing.assert_allclose(predict_logits(model, text, image), expected, atol=1e-12)

    def test_single_modality_heads_ignore_the_other(self, rng):
        text_model = make_model("text_linear", rng)
        for n in (1, 4):
            text, image = make_batch(rng, n)
            a = predict_logits(text_model, text, image)
            b = predict_logits(text_model, text, rng.standard_normal((n, IMAGE_DIM)))
            np.testing.assert_array_equal(a, b)

    def test_cross_attn_head_matches_attention_module(self, rng):
        # the image row reads as 14 consecutive tokens of width 128, and the
        # final layer sees [attended; text; image] in that order
        model = make_model("cross_attn_fcnn", rng)
        p = model.params
        params = AttentionParams(
            wq=p["wq"], wk=p["wk"], wv=p["wv"], ln_gain=p["ln_gain"], ln_bias=p["ln_bias"]
        )
        for n in (1, 4):
            text, image = make_batch(rng, n)
            batched = predict_logits(model, text, image)
            for i in range(n):
                attended = cross_attention(
                    Tensor(text[i : i + 1]), Tensor(image[i].reshape(14, TEXT_DIM)), params
                ).data.reshape(TEXT_DIM)
                expected = p["w"] @ np.concatenate([attended, text[i], image[i]]) + p["b"]
                np.testing.assert_allclose(batched[i], expected, atol=1e-10)

    def test_batched_matches_per_sample(self, rng):
        model = make_model("cross_attn_fcnn", rng)
        text, image = make_batch(rng, 4)
        batched = predict_logits(model, text, image)
        for i in range(4):
            single = predict_logits(model, text[i : i + 1], image[i : i + 1])
            np.testing.assert_allclose(batched[i], single[0], atol=1e-10)

    def test_deterministic(self, rng):
        model = make_model("cross_attn_fcnn", rng)
        for n in (1, 4):
            text, image = make_batch(rng, n)
            np.testing.assert_array_equal(
                predict_logits(model, text, image), predict_logits(model, text, image)
            )

    def test_wrong_width_rejected(self, rng):
        model = make_model("concat_fcnn", rng)
        text, image = make_batch(rng, 2)
        for bad_text, bad_image in (
            (text[:, :64], image),
            (text, image[:, :100]),
            (text, image[:1]),
        ):
            with pytest.raises(ShapeError):
                head_forward_batch(model.kind, model.params, bad_text, bad_image)

    def test_cross_attn_final_width(self):
        assert expected_param_shapes("cross_attn_fcnn")["w"] == (18, 2048)

    def test_missing_parameter_rejected(self, rng):
        with pytest.raises(ShapeError):
            FusionModel(kind="text_linear", params={"w": np.zeros((18, TEXT_DIM))})

    def test_float32_overflow_rejected(self):
        params = {"w": np.zeros((N_CLASSES, TEXT_DIM)), "b": np.zeros(N_CLASSES)}
        params["w"][2, 5] = 1e39  # finite in float64, past the float32 maximum
        with pytest.raises(NumericError):
            FusionModel(kind="text_linear", params=params)

    def test_gradients_flow_small_probe(self, rng):
        # full coordinate sweeps are exercised in the acceptance suite
        base = {
            name: rng.standard_normal(shape) * 0.2
            for name, shape in expected_param_shapes("cross_attn_fcnn").items()
        }
        text = rng.standard_normal((2, TEXT_DIM))
        image = rng.standard_normal((2, IMAGE_DIM))

        def f(theta):
            params = {k: (theta if k == "wq" else Tensor(v)) for k, v in base.items()}
            return head_forward_batch("cross_attn_fcnn", params, text, image).sum()

        sample = list(np.random.default_rng(0).choice(128 * 128, size=24, replace=False))
        assert grad_check(f, base["wq"], h=1e-5, coords=sample) < 1e-4


class TestFuseLogits:
    def test_mean_of_two(self):
        a = np.zeros(N_CLASSES)
        b = np.full(N_CLASSES, 2.0)
        np.testing.assert_array_equal(fuse_logits([a, b]).data, np.ones(N_CLASSES))

    def test_duplicate_input_is_identity(self, rng):
        x = rng.standard_normal(N_CLASSES)
        np.testing.assert_array_equal(fuse_logits([x, x]).data, x)

    def test_matches_sum_oracle(self, rng):
        xs = [rng.standard_normal(N_CLASSES) for _ in range(3)]
        expected = (xs[0] + xs[1] + xs[2]) / 3.0
        np.testing.assert_allclose(fuse_logits(xs).data, expected, atol=1e-15)

    def test_permutation_invariant(self, rng):
        xs = [rng.standard_normal(N_CLASSES) for _ in range(2)]
        np.testing.assert_allclose(
            fuse_logits(xs).data, fuse_logits(xs[::-1]).data, atol=1e-15
        )

    def test_shift_equivariance(self, rng):
        a, b = rng.standard_normal((2, N_CLASSES))
        c = 0.75
        np.testing.assert_allclose(
            fuse_logits([a + c, b + c]).data, fuse_logits([a, b]).data + c, atol=1e-12
        )

    def test_single_member_rejected(self, rng):
        with pytest.raises(DomainError):
            fuse_logits([rng.standard_normal(N_CLASSES)])

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            fuse_logits([np.zeros(N_CLASSES), np.zeros(N_CLASSES - 1)])


class TestLogitsToProbs:
    def test_zero_logits_sigmoid(self):
        np.testing.assert_array_equal(
            logits_to_probs(np.zeros(N_CLASSES)).data, np.full(N_CLASSES, 0.5)
        )

    def test_zero_logits_softmax(self):
        out = logits_to_probs(np.zeros(N_CLASSES), mode="softmax").data
        np.testing.assert_allclose(out, np.full(N_CLASSES, 1.0 / N_CLASSES), atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        out = logits_to_probs(rng.standard_normal((5, N_CLASSES)) * 10, mode="softmax").data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            logits_to_probs(np.zeros(N_CLASSES), mode="argmax")


class TestAssignLabels:
    def test_threshold_split(self):
        probs = np.full(N_CLASSES, 0.2)
        probs[0], probs[2] = 0.9, 0.6
        assert assign_labels(probs).ids() == (1, 3)

    def test_fallback_to_argmax(self):
        probs = np.full(N_CLASSES, 0.3)
        probs[5] = 0.31
        lv = assign_labels(probs)
        assert [i for i, b in enumerate(lv.bits) if b] == [5]

    def test_all_equal_ties_to_lowest_slot(self):
        lv = assign_labels(np.full(N_CLASSES, 0.25))
        assert [i for i, b in enumerate(lv.bits) if b] == [0]

    def test_out_of_range_probs_rejected(self):
        bad = np.full(N_CLASSES, 0.5)
        bad[3] = 1.5
        with pytest.raises(DomainError):
            assign_labels(bad)

    def test_bad_threshold_rejected(self):
        with pytest.raises(DomainError):
            assign_labels(np.full(N_CLASSES, 0.5), threshold=1.5)

    @given(st.lists(st.floats(0.0, 1.0), min_size=N_CLASSES, max_size=N_CLASSES))
    @settings(max_examples=150)
    def test_never_empty_and_fallback_contains_argmax(self, values):
        probs = np.array(values)
        lv = assign_labels(probs)
        assert not lv.is_empty
        if not (probs > 0.5).any():
            assert lv.bits[int(probs.argmax())]

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=N_CLASSES, max_size=N_CLASSES),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=150)
    def test_monotone_in_threshold_above_fallback(self, values, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        probs = np.array(values)
        set_lo = set(assign_labels(probs, lo).ids())
        set_hi = set(assign_labels(probs, hi).ids())
        if (probs > hi).any():
            assert set_hi <= set_lo

    def test_batch_helper(self, rng):
        probs = rng.uniform(0.0, 1.0, size=(10, N_CLASSES))
        out = assign_labels_batch(probs)
        assert len(out) == 10 and all(not lv.is_empty for lv in out)

    @pytest.mark.parametrize("threshold", [0.45, 0.5, 0.65])
    def test_matrix_matches_per_row_assignment(self, threshold):
        # criterion-5 style: a quarter of the rows can only take the fallback
        rng = np.random.default_rng(5005)
        probs = rng.random((2000, N_CLASSES))
        probs[:500] *= 0.4
        probs[:40] = 0.3  # all-equal rows tie to slot 0
        probs[40:80, [4, 9]] = 0.42  # two-way ties at the maximum resolve to slot 4
        mask = assign_label_matrix(probs, threshold)
        assert mask.dtype == bool and mask.shape == probs.shape
        reference = np.zeros_like(mask)  # the rule row by row, ties to the first maximum
        for i, row in enumerate(probs):
            reference[i] = row > threshold
            if not reference[i].any():
                reference[i, np.flatnonzero(row == row.max())[0]] = True
        np.testing.assert_array_equal(mask, reference)
        per_row = [assign_labels(row, threshold) for row in probs]
        assert [lv.bits for lv in per_row] == [tuple(row) for row in mask.tolist()]
        assert assign_labels_batch(probs, threshold) == per_row
        fallback = ~(probs > threshold).any(axis=1)
        assert fallback[:500].all()
        assert (mask[fallback].sum(axis=1) == 1).all()
        assert mask[:40, 0].all() and mask[40:80, 4].all() and not mask[40:80, 9].any()

    def test_empty_block(self):
        mask = assign_label_matrix(np.zeros((0, N_CLASSES)))
        assert mask.shape == (0, N_CLASSES) and mask.dtype == bool
        assert assign_labels_batch(np.zeros((0, N_CLASSES))) == []

    def test_whole_block_validated(self, rng):
        probs = rng.uniform(0.0, 1.0, size=(300, N_CLASSES))
        probs[250, 7] = np.nan
        with pytest.raises(DomainError):
            assign_label_matrix(probs)
        with pytest.raises(ShapeError):
            assign_label_matrix(np.full(N_CLASSES, 0.5))
        with pytest.raises(ShapeError):
            assign_labels_batch(np.full((3, N_CLASSES - 1), 0.5))


class TestLabelsToMatrix:
    def test_inputs_agree(self):
        lvs = [LabelVector.from_ids([1, 19]), LabelVector.from_ids([13])]
        mask = labels_to_matrix(lvs)
        assert mask.dtype == bool and mask.shape == (2, N_CLASSES)
        assert labels_to_matrix(mask) is mask
        np.testing.assert_array_equal(labels_to_matrix(list(mask)), mask)
        np.testing.assert_array_equal(labels_to_matrix(mask.astype(np.float64)), mask)
        np.testing.assert_array_equal(labels_to_matrix(mask.astype(np.int8)), mask)
        assert [LabelVector.from_mask(row) for row in mask] == lvs
        assert labels_to_matrix([]).shape == (0, N_CLASSES)

    @pytest.mark.parametrize("width", [N_CLASSES - 1, N_CLASSES + 1])
    def test_wrong_width_rejected(self, width):
        with pytest.raises(ShapeError):
            labels_to_matrix(np.ones((2, width), dtype=bool))
        with pytest.raises(ShapeError):
            labels_to_matrix([np.ones(width, dtype=bool)] * 2)

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_values_other_than_zero_one_rejected(self, value):
        block = np.zeros((2, N_CLASSES))
        block[1, 3] = value
        with pytest.raises(LabelDomainError):
            labels_to_matrix(block)
