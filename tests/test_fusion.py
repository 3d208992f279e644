"""Label vocabulary, head forwards, logit fusion, and label assignment."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmfusion.attention import AttentionParams, cross_attention
from mmfusion.data_io import EmbeddingDataset, write_predictions
from mmfusion.errors import DomainError, LabelDomainError, NumericError, ShapeError
from mmfusion.fusion import (
    CLASS_IDS,
    FUSION_SETS,
    HEAD_INPUTS,
    HEAD_KINDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    assign_label_matrix,
    assign_labels,
    assign_labels_batch,
    expected_param_shapes,
    forward_macs,
    fuse_logits,
    head_forward_batch,
    init_head_params,
    label_vectors,
    labels_to_matrix,
    logits_to_probs,
    predict_fused_logits,
    predict_logits,
)
from mmfusion.metrics import confusion_counts
import mmfusion.tensor as tensor_mod
from mmfusion.tensor import Tensor, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def label_vector(class_ids) -> LabelVector:
    return LabelVector.from_mask(np.isin(CLASS_IDS, class_ids))


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
        assert [CLASS_IDS.index(cid) for cid in (1, 11, 13, 19)] == [0, 10, 11, 17]

    def test_round_trip(self):
        for cid in CLASS_IDS:
            assert label_vector([cid]).ids() == (cid,)

    def test_ids_name_the_set_slots(self):
        lv = LabelVector.from_mask(np.isin(np.arange(N_CLASSES), [0, 2, 17]))
        assert lv.ids() == (1, 3, 19)

    def test_hashable_and_order_free(self):
        assert label_vector([3, 1]) == label_vector([1, 3])
        assert len({label_vector([1]), label_vector([1])}) == 1

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
            with pytest.raises(ShapeError):
                predict_logits(model, bad_text, bad_image)
        text, image = make_batch(rng, 600)
        with pytest.raises(ShapeError, match="600 text vs 599 image"):  # before any block runs
            predict_logits(model, text, image[:599])

    def test_cross_attn_final_width(self):
        assert expected_param_shapes("cross_attn_fcnn")["w"] == (18, 2048)

    def test_missing_parameter_rejected(self, rng):
        with pytest.raises(ShapeError):
            FusionModel(kind="text_linear", params={"w": np.zeros((18, TEXT_DIM))})

    def test_float32_overflow_rejected(self):
        params = {"w": np.zeros((N_CLASSES, TEXT_DIM)), "b": np.zeros(N_CLASSES)}
        params["w"][2, 5] = 1e39  # finite in float64, past the float32 maximum
        with pytest.raises(NumericError, match=r"^parameter 'w': value 1e\+39 at row 2, column 5 "):
            FusionModel(kind="text_linear", params=params)
        params["w"][2, 5], params["b"][4] = 0.0, -np.inf  # a vector's value reports row 0
        with pytest.raises(NumericError, match="^parameter 'b': value -inf at row 0, column 4 "):
            FusionModel(kind="text_linear", params=params)

    @pytest.mark.parametrize("bad, dtype", [
        (np.full((N_CLASSES, TEXT_DIM), "0.5"), "<U3"),  # would parse as 0.5
        (np.zeros((N_CLASSES, TEXT_DIM)) + 1j, "complex128"),  # would drop the 1j
    ], ids=["str", "complex"])
    def test_parameter_that_is_not_real_rejected_without_a_warning(self, bad, dtype):
        params = {"w": bad, "b": np.zeros(N_CLASSES)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=f"^parameter 'w': values must be real numbers, got dtype {dtype}$"):
                FusionModel(kind="text_linear", params=params)

    def test_checked_model_is_read_only(self, rng):
        model = make_model("cross_attn_fcnn", rng)
        text, image = make_batch(rng, 3)
        before = predict_logits(model, text, image)
        with pytest.raises(ValueError, match="read-only"):
            model.params["w"][0, 0] = np.nan
        with pytest.raises(TypeError):
            model.params["w"] = np.zeros((N_CLASSES, 2048))
        with pytest.raises(AttributeError):
            model.kind = "text_linear"
        np.testing.assert_array_equal(predict_logits(model, text, image), before)

    def test_caller_arrays_stay_writable(self, rng):
        params = {name: rng.standard_normal(shape)
                  for name, shape in expected_param_shapes("text_linear").items()}
        FusionModel(kind="text_linear", params=params)
        params["w"][0, 0] = 1.0

    def test_overflowing_inputs_raise_numeric_error(self, rng):
        model = make_model("cross_attn_fcnn", rng)
        text, image = make_batch(rng, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflow"):
                predict_logits(model, text * 1e200, image * 1e200)

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
        assert grad_check(f, base["wq"], coords=sample) < 1e-4

    @pytest.mark.parametrize("kind", ["vision_linear", "text_linear", "concat_fcnn"])
    def test_final_weight_gradient_keeps_the_weight_layout(self, kind, rng):
        leaves = {name: Tensor(rng.standard_normal(shape) * 0.2, requires_grad=True)
                  for name, shape in expected_param_shapes(kind).items()}
        text, image = make_batch(rng, 64)
        g = rng.standard_normal((64, N_CLASSES))
        (head_forward_batch(kind, leaves, text, image) * Tensor(g)).sum().backward()
        blocks = {"text": text, "image": image}
        x = np.concatenate([blocks[name] for name in HEAD_INPUTS[kind]], axis=1)
        assert leaves["w"].grad.flags.c_contiguous
        np.testing.assert_allclose(leaves["w"].grad, (x.T @ g).T, rtol=1e-12)


class TestForwardMacs:
    def test_counts_are_pinned(self):
        assert {kind: forward_macs(kind) for kind in HEAD_KINDS} == {
            "vision_linear": 32_256,
            "text_linear": 2_304,
            "concat_fcnn": 34_560,
            "cross_attn_fcnn": 515_584,
        }

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_count_matches_the_counted_matmuls(self, kind, rng, monkeypatch):
        counted = []
        plain = tensor_mod.matmul

        def counting(a, b):
            out = plain(a, b)
            counted.append(out.data.size * a.shape[-1])  # one dot product per output element
            return out

        monkeypatch.setattr(tensor_mod, "matmul", counting)
        rows = 3
        head_forward_batch(kind, init_head_params(kind, 0), *make_batch(rng, rows))
        assert sum(counted) == rows * forward_macs(kind)

    def test_unknown_kind_refused(self):
        with pytest.raises(DomainError, match="unknown head kind"):
            forward_macs("linear")


class TestFinalLayer:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_matches_plain_numpy_bit_for_bit(self, kind, rng):
        base = {name: rng.standard_normal(shape) * 0.2
                for name, shape in expected_param_shapes(kind).items()}
        leaves = {name: Tensor(value, requires_grad=True) for name, value in base.items()}
        n = 64
        text, image = make_batch(rng, n)
        g = rng.standard_normal((n, N_CLASSES))
        logits = head_forward_batch(kind, leaves, text, image)
        (logits * Tensor(g)).sum().backward()

        # the same products and sums in the same order, one block of w's columns at a time
        blocks = {"text": text, "image": image}
        attn = {}
        if "wq" in base:
            attn = {name: Tensor(base[name], requires_grad=True)
                    for name in ("wq", "wk", "wv", "ln_gain", "ln_bias")}
            attended = cross_attention(text.reshape(n, 1, TEXT_DIM),
                                       image.reshape(n, IMAGE_DIM // TEXT_DIM, TEXT_DIM),
                                       AttentionParams(**attn)).reshape(n, TEXT_DIM)
            blocks["attended"] = attended.data
        w, cols, start, want = base["w"], {}, 0, None
        for name in (("attended",) if attn else ()) + HEAD_INPUTS[kind]:
            cols[name] = slice(start, start + blocks[name].shape[1])
            start = cols[name].stop
            part = blocks[name] @ w[:, cols[name]].T
            want = part if want is None else want + part
        assert logits.data.tobytes() == (want + base["b"]).tobytes()
        dw = np.concatenate([g.T @ blocks[name] for name in cols], axis=1)
        assert leaves["w"].grad.tobytes() == dw.tobytes()
        assert leaves["b"].grad.tobytes() == g.sum(axis=0).tobytes()
        if attn:
            # the attended block's gradient is g @ w[:, cols], carried into attention as is
            (attended * Tensor(g @ w[:, cols["attended"]])).sum().backward()
            for name, leaf in attn.items():
                assert leaves[name].grad.tobytes() == leaf.grad.tobytes()

    @pytest.mark.parametrize("name, shape", [("w", (N_CLASSES, TEXT_DIM + IMAGE_DIM + 1)),
                                             ("w", (N_CLASSES - 1, TEXT_DIM + IMAGE_DIM)),
                                             ("b", (1,))])
    def test_misshaped_final_layer_rejected(self, name, shape, rng):
        params = {**make_model("concat_fcnn", rng).params, name: np.zeros(shape)}
        with pytest.raises(ShapeError, match=r"final layer needs w \(18, 1920\) and b \(18,\)"):
            head_forward_batch("concat_fcnn", params, *make_batch(rng, 2))

    @pytest.mark.parametrize("kind, mib", [("concat_fcnn", 0.5), ("vision_linear", 0.3)])
    def test_backward_makes_no_padded_weight_gradient(self, kind, mib, rng):
        # a zero-padded [18, 1920] gradient per block would put concat_fcnn past 1 MiB
        leaves = {name: Tensor(rng.standard_normal(shape) * 0.2, requires_grad=True)
                  for name, shape in expected_param_shapes(kind).items()}
        text, image = make_batch(rng, 64)
        loss = (head_forward_batch(kind, leaves, text, image)
                * Tensor(rng.standard_normal((64, N_CLASSES)))).sum()
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


class TestPredictBlocks:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 513])
    def test_blocks_match_one_batch(self, kind, n, rng):
        # a tolerance, not bitwise: whether a row-split GEMM is exact depends on the BLAS kernel
        model = make_model(kind, rng)
        text, image = make_batch(rng, n)
        out = predict_logits(model, text, image)
        whole = head_forward_batch(kind, model.params, text, image).data
        assert out.shape == (n, N_CLASSES) and out.dtype == np.float64
        np.testing.assert_allclose(out, whole, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["concat_fcnn", "cross_attn_fcnn"])
    def test_transient_memory_bounded(self, kind, rng):
        model = make_model(kind, rng)
        text, image = make_batch(rng, 4096)
        tracemalloc.start()
        try:
            predict_logits(model, text, image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPrecisionAndInputs:
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 4096])
    def test_float32_blocks_predict_as_their_widening(self, kind, n, rng):
        # widening float32 to float64 is exact, so the head sees the same values
        model = make_model(kind, rng)
        text, image = (block.astype(np.float32) for block in make_batch(rng, n))
        narrow = predict_logits(model, text, image)
        wide = predict_logits(model, text.astype(np.float64), image.astype(np.float64))
        assert narrow.dtype == np.float64
        assert narrow.tobytes() == wide.tobytes()

    @pytest.mark.parametrize("kind", ["vision_linear", "concat_fcnn"])
    def test_float32_pool_widens_one_block_at_a_time(self, kind, rng):
        # widening the whole 4096 x 1792 image block at once would take 56 MiB
        model = make_model(kind, rng)
        text, image = (block.astype(np.float32) for block in make_batch(rng, 4096))
        tracemalloc.start()
        try:
            predict_logits(model, text, image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_non_finite_logits_name_their_row(self, rng):
        text, image = make_batch(rng, 2)
        text = text.astype(np.float32)
        text[1] = np.nan
        model = make_model("text_linear", rng)
        with pytest.raises(NumericError, match="^logits of row 1 are not finite$"):
            predict_logits(model, text, None)
        folded = [make_model(kind, rng) for kind in FUSION_SETS["fm2"]]
        with pytest.raises(NumericError, match="^logits of row 1 are not finite$"):
            predict_fused_logits(folded, text, image)

    @pytest.mark.parametrize("kind", ["vision_linear", "text_linear"])
    def test_unread_block_may_be_none(self, kind, rng):
        model = make_model(kind, rng)
        text, image = make_batch(rng, 3)
        given = {"text": text, "image": image}
        only = {name: given[name] if name in HEAD_INPUTS[kind] else None for name in given}
        assert (predict_logits(model, only["text"], only["image"]).tobytes()
                == predict_logits(model, text, image).tobytes())
        assert (head_forward_batch(kind, model.params, only["text"], only["image"]).data.tobytes()
                == head_forward_batch(kind, model.params, text, image).data.tobytes())

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_read_block_missing_or_rows_differ_rejected(self, kind, rng):
        model = make_model(kind, rng)
        text, image = make_batch(rng, 3)
        bad = [(text, image[:2]), (text[:2], image), (None, None)]
        bad += [(None, image)] if "text" in HEAD_INPUTS[kind] else []
        bad += [(text, None)] if "image" in HEAD_INPUTS[kind] else []
        for bad_text, bad_image in bad:
            with pytest.raises(ShapeError):
                head_forward_batch(kind, model.params, bad_text, bad_image)
            with pytest.raises(ShapeError):
                predict_logits(model, bad_text, bad_image)


class TestFuseLogits:
    def test_mean_of_two(self):
        a = np.zeros(N_CLASSES)
        b = np.full(N_CLASSES, 2.0)
        np.testing.assert_array_equal(fuse_logits([a, b]), np.ones(N_CLASSES))

    def test_duplicate_input_is_identity(self, rng):
        x = rng.standard_normal(N_CLASSES)
        np.testing.assert_array_equal(fuse_logits([x, x]), x)

    def test_matches_sum_oracle(self, rng):
        xs = [rng.standard_normal(N_CLASSES) for _ in range(3)]
        expected = (xs[0] + xs[1] + xs[2]) / 3.0
        np.testing.assert_allclose(fuse_logits(xs), expected, atol=1e-15)

    def test_permutation_invariant(self, rng):
        xs = [rng.standard_normal(N_CLASSES) for _ in range(2)]
        np.testing.assert_allclose(fuse_logits(xs), fuse_logits(xs[::-1]), atol=1e-15)

    def test_shift_equivariance(self, rng):
        a, b = rng.standard_normal((2, N_CLASSES))
        c = 0.75
        np.testing.assert_allclose(
            fuse_logits([a + c, b + c]), fuse_logits([a, b]) + c, atol=1e-12
        )

    def test_single_member_rejected(self, rng):
        with pytest.raises(DomainError):
            fuse_logits([rng.standard_normal(N_CLASSES)])

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            fuse_logits([np.zeros(N_CLASSES), np.zeros(N_CLASSES - 1)])

    def test_float64_array_out_and_float32_in_widens_exactly(self, rng):
        xs = [rng.standard_normal((5, N_CLASSES)).astype(np.float32) for _ in range(3)]
        got = fuse_logits(xs)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == fuse_logits([x.astype(np.float64) for x in xs]).tobytes()


class TestLogitsToProbs:
    def test_zero_logits_sigmoid(self):
        np.testing.assert_array_equal(logits_to_probs(np.zeros(N_CLASSES)), np.full(N_CLASSES, 0.5))

    def test_float64_array_out_and_float32_in_widens_exactly(self, rng):
        z = (rng.standard_normal((5, N_CLASSES)) * 8).astype(np.float32)
        got = logits_to_probs(z)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == logits_to_probs(z.astype(np.float64)).tobytes()


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


@st.composite
def repeating_masks(draw):
    """[n, 18] bool masks whose rows repeat, drawn from a small set of rows."""
    rows = draw(st.lists(st.lists(st.booleans(), min_size=N_CLASSES, max_size=N_CLASSES),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(rows), max_size=40))
    return np.array(picks, dtype=bool).reshape(-1, N_CLASSES)


class TestLabelVectors:
    @given(repeating_masks())
    @example(np.zeros((0, N_CLASSES), dtype=bool))
    @example(np.tile(np.arange(N_CLASSES) % 7 == 2, (50, 1)))  # all equal
    @example((np.arange(1, 301)[:, None] >> np.arange(N_CLASSES)) & 1 == 1)  # all distinct
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_build_and_shares_equal_rows(self, mask):
        out = label_vectors(mask)
        assert out == [LabelVector(tuple(row)) for row in mask.tolist()]
        first = {}
        for row, lv in zip(mask.tolist(), out):
            assert first.setdefault(tuple(row), lv) is lv
        assert len({id(lv) for lv in out}) == len(first)


class TestLabelsToMatrix:
    def test_inputs_agree(self):
        lvs = [label_vector([1, 19]), label_vector([13])]
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

    @pytest.mark.parametrize("call", [
        pytest.param(labels_to_matrix, id="labels_to_matrix"),
        pytest.param(lambda labels: LabelVector.from_mask(labels[0]), id="from_mask"),
    ])
    def test_complex_labels_rejected_naming_the_dtype(self, call):
        with pytest.raises(LabelDomainError, match=r"0/1 values, got dtype complex128$"):
            call(np.ones((1, N_CLASSES), complex))

    # one mask each: the error both readers raise, None where both accept it
    @pytest.mark.parametrize("mask, error", [
        pytest.param([True, False] * 9, None, id="bool"),
        pytest.param([0, 1] * 9, None, id="int-0/1"),
        pytest.param(np.tile([1.0, 0.0], 9), None, id="float-0/1"),
        pytest.param(["0"] * N_CLASSES, LabelDomainError, id="strings"),
        pytest.param([np.nan] * N_CLASSES, LabelDomainError, id="nan"),
        pytest.param([0.5] * N_CLASSES, LabelDomainError, id="half"),
        pytest.param([-2] * N_CLASSES, LabelDomainError, id="minus-two"),
        pytest.param([1] * (N_CLASSES - 1), ShapeError, id="short"),
        pytest.param(np.ones((1, N_CLASSES)), ShapeError, id="two-dimensional"),
        pytest.param([1] * (N_CLASSES - 1) + [[1, 0]], ShapeError, id="ragged"),
    ])
    def test_from_mask_follows_the_matrix_rule(self, mask, error):
        if error is None:
            expected = np.asarray(mask).astype(bool)
            np.testing.assert_array_equal(labels_to_matrix([mask]), expected[None])
            assert LabelVector.from_mask(mask).bits == tuple(expected.tolist())
            return
        with pytest.raises(error) as matrix_error:
            labels_to_matrix([mask])
        with pytest.raises(error) as mask_error:
            LabelVector.from_mask(mask)
        assert matrix_error.type is mask_error.type is error

    @pytest.mark.parametrize("call", [
        pytest.param(labels_to_matrix, id="labels_to_matrix"),
        pytest.param(lambda labels: confusion_counts(labels, labels), id="confusion_counts"),
        pytest.param(lambda labels: write_predictions(["a", "b"], labels, "p.csv"),
                     id="write_predictions"),
        pytest.param(lambda labels: EmbeddingDataset(("a", "b"), np.zeros((2, TEXT_DIM)),
                                                     np.zeros((2, IMAGE_DIM)), labels),
                     id="EmbeddingDataset"),
    ])
    def test_ragged_rows_are_a_shape_error(self, call, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ShapeError, match=r"^labels must be \[n, 18\], got ragged rows$"):
            call([[1] * N_CLASSES, [1] * (N_CLASSES - 1)])
        assert list(tmp_path.iterdir()) == []
