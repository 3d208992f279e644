"""Weighting, loss, optimizer, and training-loop tests."""

import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmfusion.data_io import EmbeddingDataset, gen_synthetic
from mmfusion.errors import DatasetError, DomainError, NumericError, ShapeError
import mmfusion.tensor as tensor_mod
from mmfusion.fusion import (
    FUSION_SETS,
    HEAD_KINDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    assign_label_matrix,
    expected_param_shapes,
    forward_macs,
    fuse_logits,
    head_forward_batch,
    logits_to_probs,
    predict_fused_logits,
    predict_logits,
)
from mmfusion.tensor import Tensor, grad_check
from mmfusion.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adam_step,
    bce_loss_node,
    class_weights,
    evaluate_model,
    fused_predictions,
    fused_probs,
    fused_val_f1,
    init_adam_state,
    init_head_params,
    pseudo_label_loop,
    train_head,
    uniform_weights,
    weighted_bce_loss,
)

LN2 = math.log(2.0)


# ------------------------------------------------------------- class weights


class TestClassWeights:
    def test_count_equal_total_gives_one(self):
        counts = np.full(N_CLASSES, 81)
        cw = class_weights(counts, total=81)
        np.testing.assert_allclose(cw.values, 1.0, rtol=1e-14)

    def test_square_root_case(self):
        counts = np.full(N_CLASSES, 100)
        cw = class_weights(counts, total=10000)
        assert abs(cw.values[0] - 1.25) < 1e-12

    def test_fourth_root_case(self):
        counts = np.full(N_CLASSES, 10)
        cw = class_weights(counts, total=10000)
        assert abs(cw.values[0] - 2.125) < 1e-12

    def test_base_invariance(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 400, size=N_CLASSES)
        total = 5000
        cw = class_weights(counts, total=total)
        clamped = np.maximum(counts, 2).astype(float)
        ratio10 = np.log10(clamped) / math.log10(total)
        alt = 0.5 * (ratio10 + 1.0 / ratio10)
        np.testing.assert_allclose(cw.values, alt, atol=1e-12)

    def test_strictly_decreasing(self):
        total = 256
        grid = list(range(2, total + 1, 2))
        values = []
        for n in grid:
            counts = np.full(N_CLASSES, n)
            values.append(class_weights(counts, total=total).values[0])
        diffs = np.diff(values)
        assert (diffs < 0).all()
        assert values[-1] == pytest.approx(1.0, abs=1e-14)

    def test_small_counts_clamped(self):
        for low in (0, 1, 2):
            counts = np.full(N_CLASSES, low)
            cw = class_weights(counts, total=1000)
            assert cw.values[0] == class_weights(np.full(N_CLASSES, 2), total=1000).values[0]

    def test_total_defaults_to_sum(self):
        counts = np.full(N_CLASSES, 10)
        np.testing.assert_array_equal(class_weights(counts).values,
                                      class_weights(counts, total=180).values)

    def test_small_total_rejected(self):
        with pytest.raises(DomainError):
            class_weights(np.full(N_CLASSES, 1), total=2)

    def test_fractional_counts_rejected(self):
        # an int64 cast would weight the counts 7, which no caller passed
        with pytest.raises(DomainError, match="integer dtype, got float64"):
            class_weights(np.full(N_CLASSES, 7.9))

    def test_negative_count_rejected(self):
        counts = np.full(N_CLASSES, 5)
        counts[3] = -1
        with pytest.raises(DomainError):
            class_weights(counts, total=100)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 900, size=N_CLASSES)
            cw = class_weights(counts, total=int(counts.sum()) + 3)
            assert (cw.values >= 1.0 - 1e-12).all()


# ---------------------------------------------------------------------- loss


class TestWeightedBce:
    def test_zero_logit_positive_target(self):
        z = np.zeros((1, N_CLASSES))
        y = np.ones((1, N_CLASSES))
        loss, grad = weighted_bce_loss(z, y, uniform_weights())
        assert loss == pytest.approx(N_CLASSES * LN2, rel=1e-14)
        np.testing.assert_allclose(grad, -0.5, rtol=1e-14)

    def test_linear_in_weight(self):
        z = np.zeros((1, N_CLASSES))
        y = np.ones((1, N_CLASSES))
        loss, grad = weighted_bce_loss(z, y, 2.0 * uniform_weights())
        assert loss == pytest.approx(2.0 * N_CLASSES * LN2, rel=1e-14)
        np.testing.assert_allclose(grad, -1.0, rtol=1e-14)

    def test_bool_targets_give_the_bytes_of_their_float_copy(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((9, N_CLASSES)) * 4.0
        y = rng.random((9, N_CLASSES)) < 0.3
        w = 1.0 + rng.random(N_CLASSES)
        loss, grad = weighted_bce_loss(z, y, w)
        float_loss, float_grad = weighted_bce_loss(z, y.astype(np.float64), w)
        assert loss == float_loss
        assert grad.tobytes() == float_grad.tobytes()

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((7, N_CLASSES)) * 3.0
        y = (rng.random((7, N_CLASSES)) < 0.3).astype(float)
        w = 1.0 + rng.random(N_CLASSES)
        loss, grad = weighted_bce_loss(z, y, w)
        s = 1.0 / (1.0 + np.exp(-z))
        naive = -(w * (y * np.log(s) + (1 - y) * np.log(1 - s))).sum() / 7
        assert loss == pytest.approx(naive, rel=1e-12)
        np.testing.assert_allclose(grad, w * (s - y) / 7, atol=1e-12)

    def test_unweighted_equals_plain_bce(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, N_CLASSES))
        y = (rng.random((4, N_CLASSES)) < 0.5).astype(float)
        loss, _ = weighted_bce_loss(z, y, uniform_weights())
        s = 1.0 / (1.0 + np.exp(-z))
        plain = -(y * np.log(s) + (1 - y) * np.log(1 - s)).sum() / 4
        assert loss == pytest.approx(plain, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            z = rng.standard_normal((3, N_CLASSES)) * 10
            y = (rng.random((3, N_CLASSES)) < 0.5).astype(float)
            loss, _ = weighted_bce_loss(z, y, uniform_weights())
            assert loss >= 0.0

    def test_extreme_logits_stay_finite(self):
        z = np.full((1, N_CLASSES), 1000.0)
        y = np.zeros((1, N_CLASSES))
        loss, grad = weighted_bce_loss(z, y, uniform_weights())
        assert math.isfinite(loss) and loss == pytest.approx(1000.0 * N_CLASSES, rel=1e-12)
        assert np.isfinite(grad).all()
        loss_hit, _ = weighted_bce_loss(z, np.ones((1, N_CLASSES)), uniform_weights())
        assert 0.0 <= loss_hit < 1e-12

    def test_non_finite_logits_rejected(self):
        z = np.zeros((1, N_CLASSES))
        z[0, 4] = np.inf
        with pytest.raises(NumericError):
            weighted_bce_loss(z, np.zeros((1, N_CLASSES)), uniform_weights())

    def test_bad_targets_rejected(self):
        z = np.zeros((1, N_CLASSES))
        with pytest.raises(DomainError):
            weighted_bce_loss(z, np.full((1, N_CLASSES), 0.5), uniform_weights())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weighted_bce_loss(np.zeros((2, N_CLASSES)), np.zeros((3, N_CLASSES)), uniform_weights())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_weight_vector_must_be_finite_and_non_negative(self, value):
        # a ClassWeights is >= 1 by construction; a plain vector passes this rule
        w = uniform_weights()
        w[5] = value
        with pytest.raises(DomainError, match=r"^weights must be finite and >= 0, got "):
            bce_loss_node(np.zeros((2, N_CLASSES)), np.zeros((2, N_CLASSES)), w)
        w[5] = 0.0
        assert bce_loss_node(np.zeros((2, N_CLASSES)), np.zeros((2, N_CLASSES)), w).data > 0.0

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(11)
        y = (rng.random((4, N_CLASSES)) < 0.4).astype(float)
        w = 1.0 + rng.random(N_CLASSES)
        z0 = rng.standard_normal((4, N_CLASSES))
        err = grad_check(lambda z: bce_loss_node(z, y, w), z0)
        assert err < 1e-6

    def test_node_backward_matches_returned_grad(self):
        rng = np.random.default_rng(12)
        z0 = rng.standard_normal((3, N_CLASSES))
        y = (rng.random((3, N_CLASSES)) < 0.5).astype(float)
        w = uniform_weights()
        leaf = Tensor(z0, requires_grad=True)
        node = bce_loss_node(leaf, y, w)
        node.backward()
        _, grad = weighted_bce_loss(z0, y, w)
        np.testing.assert_array_equal(leaf.grad, grad)


# -------------------------------------------------------------------- config


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 5e-4
        assert cfg.batch_size == 64
        assert cfg.fusion_set == ("vision_linear", "text_linear")

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_invalid_values_rejected(self):
        for kwargs in (
            dict(lr=-1e-3),
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(patience=-1),
            dict(seed=-1),
            dict(fusion_set=("vision_linear",)),
            dict(fusion_set=("vision_linear", "vision_linear")),
            dict(fusion_set=("vision_linear", "bogus")),
        ):
            with pytest.raises(DomainError):
                TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(class_weighting="no"),
        dict(class_weighting=1),
        dict(max_epochs=2.5),
        dict(batch_size=64.0),
        dict(seed=1.5),
        dict(patience=True),
        dict(lr="0.1"),
        dict(lr=True),
        dict(fusion_set=None),
        dict(fusion_set=5),
        dict(fusion_set="fm1"),
        dict(lr=math.nan),
        dict(batch_size=True),
        dict(batch_size="64"),
        dict(max_epochs=True),
        dict(max_epochs="2"),
        dict(patience="5"),
        dict(seed=True),
        dict(seed="0"),
    ])
    def test_wrong_types_rejected_naming_the_field(self, kwargs):
        (name,) = kwargs
        with pytest.raises(DomainError, match=f"^{name} must be"):
            TrainConfig(**kwargs)

    def test_numpy_integers_and_int_lr_accepted(self):
        cfg = TrainConfig(lr=1, batch_size=np.int64(16), max_epochs=np.int32(2), seed=np.uint8(3))
        assert (cfg.lr, cfg.batch_size, cfg.max_epochs, cfg.seed) == (1, 16, 2, 3)

    def test_from_file_with_comments(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# training setup\n"
            "lr = 0.01\n"
            "batch_size=32   # small batches\n"
            "class_weighting = false\n"
            "fusion_set = vision_linear, text_linear, concat_fcnn\n"
        )
        cfg = TrainConfig.from_file(path)
        assert cfg.lr == 0.01
        assert cfg.batch_size == 32
        assert cfg.class_weighting is False
        assert cfg.fusion_set == ("vision_linear", "text_linear", "concat_fcnn")

    def test_unknown_fusion_set_name_is_named(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("fusion_set = fm9\n")
        for make in (lambda: TrainConfig().with_overrides({"fusion_set": "fm9"}),
                     lambda: TrainConfig.from_file(path)):
            with pytest.raises(DomainError, match="'fm9'") as err:
                make()
            assert all(name in str(err.value) for name in (*HEAD_KINDS, *FUSION_SETS))

    def test_named_fusion_sets_resolve(self):
        for name, kinds in FUSION_SETS.items():
            assert TrainConfig.parse_value("fusion_set", name) == kinds
        cfg = TrainConfig().with_overrides({"fusion_set": "fm3"})
        assert cfg.fusion_set == FUSION_SETS["fm3"]

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = 0.01\nseed = 3\n")
        cfg = TrainConfig.from_file(path, overrides={"lr": "0.5"})
        assert cfg.lr == 0.5
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        # Adam's betas and eps are module constants, not settings
        for line in ("learning_rate = 0.01", "beta1 = 0.9"):
            path.write_text(line + "\n")
            with pytest.raises(DomainError, match="unknown config key"):
                TrainConfig.from_file(path)

    def test_non_utf8_file_is_domain_error(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"lr = 0.01\n\xff\n")
        with pytest.raises(DomainError, match="not UTF-8") as info:
            TrainConfig.from_file(path)
        assert str(path) in str(info.value)

    def test_readme_config_block_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```\n# train.cfg\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "train.cfg"
        path.write_text(block)
        assert TrainConfig.from_file(path) != TrainConfig()

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = 0.01\nlr = 0.02\n")
        with pytest.raises(DomainError):
            TrainConfig.from_file(path)

    @pytest.mark.parametrize(
        "key, raw, noun",
        [("lr", "abc", "a number"), ("lr", "", "a number"),
         ("batch_size", "1.5", "an integer"), ("seed", "x", "an integer")],
    )
    def test_non_numeric_value_is_domain_error(self, key, raw, noun, tmp_path):
        message = f"{key} must be {noun}, got {raw!r}"
        with pytest.raises(DomainError, match=message):
            TrainConfig().with_overrides({key: raw})
        path = tmp_path / "train.cfg"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(DomainError, match=message):
            TrainConfig.from_file(path)


# ---------------------------------------------------------------------- adam


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        state = init_adam_state(params)
        cfg = TrainConfig()
        out, state = adam_step(params, {"w": np.zeros((2, 3)), "b": np.zeros(3)}, state, cfg)
        for _ in range(5):
            out, state = adam_step(out, {"w": np.zeros((2, 3)), "b": None}, state, cfg)
        np.testing.assert_array_equal(out["w"], params["w"])
        np.testing.assert_array_equal(out["b"], params["b"])

    def test_first_step_closed_form(self):
        cfg = TrainConfig(lr=5e-4)
        params = {"w": np.zeros(4)}
        out, state = adam_step(params, {"w": np.ones(4)}, init_adam_state(params), cfg)
        expected = -cfg.lr * 1.0 / (1.0 + ADAM_EPS)
        np.testing.assert_allclose(out["w"], expected, rtol=1e-15)
        assert state.step == 1

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal((3, 3)) for _ in range(10)]
        cfg = TrainConfig(lr=1e-2)

        def run():
            p = {"w": np.zeros((3, 3))}
            s = init_adam_state(p)
            for g in grads:
                p, s = adam_step(p, {"w": g}, s, cfg)
            return p["w"]

        np.testing.assert_array_equal(run(), run())

    def test_inputs_not_mutated(self):
        params = {"w": np.ones(3)}
        state = init_adam_state(params)
        adam_step(params, {"w": np.ones(3)}, state, TrainConfig())
        np.testing.assert_array_equal(params["w"], np.ones(3))
        np.testing.assert_array_equal(state.m["w"], np.zeros(3))
        assert state.step == 0

    def test_trajectory_has_the_bits_of_the_plain_expression(self):
        rng = np.random.default_rng(4)
        cfg = TrainConfig(lr=1e-2)
        p = rng.standard_normal((3, 5))
        params, state = {"w": p}, init_adam_state({"w": p})
        m = v = np.zeros_like(p)
        for t in range(1, 31):
            g = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-4, 5)
            params, state = adam_step(params, {"w": g}, state, cfg)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            p = p - cfg.lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
            assert params["w"].tobytes() == p.tobytes()
            assert state.m["w"].tobytes() == m.tobytes() and state.v["w"].tobytes() == v.tobytes()

    def test_traced_peak_stays_near_four_parameter_sized_arrays(self):
        # the new m, v and value, one scratch array, and the bool masks of the finiteness check
        rng = np.random.default_rng(5)
        params = {"w": rng.standard_normal((N_CLASSES, 1920))}
        grads = {"w": rng.standard_normal((N_CLASSES, 1920))}
        params, state = adam_step(params, grads, init_adam_state(params), TrainConfig())
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            adam_step(params, grads, state, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * params["w"].nbytes

    def test_shape_mismatch_rejected(self):
        params = {"w": np.ones(3)}
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.ones(4)}, init_adam_state(params), TrainConfig())

    @pytest.mark.parametrize("grad", [1e200, np.inf, np.nan])
    def test_non_finite_moment_raises(self, grad):
        params = {"w": np.ones(3)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'w'"):
                adam_step(params, {"w": np.full(3, grad)}, init_adam_state(params), TrainConfig())


# ----------------------------------------------------------------- the loop


def small_splits(seed=21, n_train=160, n_test=40, n_val=60, noise=0.1):
    return gen_synthetic(seed=seed, n_train=n_train, n_test=n_test, n_val=n_val, noise=noise)


class TestTrainHead:
    def test_cross_attention_backward_peak_memory(self):
        # one 64-row step: a [64, 14, 128] float64 gradient of the keys or values is 0.875 MiB,
        # and the materialised chain peaked at 2.78 MiB against 1.47 without them
        train, _, _ = small_splits(n_train=64, n_val=8)
        kind = "cross_attn_fcnn"
        rng = np.random.default_rng(23)
        leaves = {name: Tensor(rng.standard_normal(shape) * 0.05, requires_grad=True)
                  for name, shape in expected_param_shapes(kind).items()}
        logits = head_forward_batch(kind, leaves, train.text, train.image)
        loss = bce_loss_node(logits, train.labels, class_weights(train.label_counts()))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(leaf.grad is not None for leaf in leaves.values())
        assert peak <= 2 * 2**20

    def test_class_weighting_refuses_too_few_positive_labels(self, monkeypatch):
        # one row holding two labels: the weights' total would be 2, a setting never passed
        train, _, val = small_splits(n_train=4, n_val=8)
        labels = np.zeros((1, N_CLASSES), dtype=bool)
        labels[0, :2] = True
        one_row = EmbeddingDataset(ids=train.ids[:1], text=train.text[:1],
                                   image=train.image[:1], labels=labels)
        started = []
        monkeypatch.setattr("mmfusion.training.init_head_params",
                            lambda *args: started.append(args))
        with pytest.raises(DatasetError, match="^training split holds 2 positive labels, "
                                               "class weighting needs at least 3$"):
            train_head(one_row, val, "text_linear", TrainConfig(max_epochs=1))
        assert started == []
        monkeypatch.undo()
        unweighted = TrainConfig(max_epochs=1, class_weighting=False)
        assert train_head(one_row, val, "text_linear", unweighted).best_epoch == 1

    def test_zero_lr_is_a_no_op(self):
        train, _, val = small_splits(n_train=48, n_val=24)
        cfg = TrainConfig(lr=0.0, max_epochs=4, patience=10, batch_size=16)
        result = train_head(train, val, "text_linear", cfg)
        init = init_head_params("text_linear", cfg.seed)
        for name, arr in init.items():
            np.testing.assert_array_equal(result.model.params[name], arr)
        losses = [r.train_loss for r in result.history]
        assert len(set(losses)) == 1

    def test_same_seed_bitwise_identical(self):
        train, _, val = small_splits(n_train=64, n_val=32)
        cfg = TrainConfig(lr=5e-3, max_epochs=3, batch_size=16)
        a = train_head(train, val, "text_linear", cfg)
        b = train_head(train, val, "text_linear", cfg)
        assert a.history == b.history
        for name in a.model.params:
            np.testing.assert_array_equal(a.model.params[name], b.model.params[name])

    def test_returned_model_matches_best_history_row(self):
        train, _, val = small_splits()
        cfg = TrainConfig(lr=5e-3, max_epochs=8, patience=3, batch_size=32)
        result = train_head(train, val, "concat_fcnn", cfg)
        best_in_history = max(r.val_f1 for r in result.history)
        assert evaluate_model(result.model, val) == best_in_history
        assert result.history[result.best_epoch - 1].val_f1 == best_in_history

    def test_history_epochs_monotone(self):
        train, _, val = small_splits(n_train=48, n_val=24)
        cfg = TrainConfig(lr=5e-3, max_epochs=5, batch_size=16)
        result = train_head(train, val, "vision_linear", cfg)
        epochs = [r.epoch for r in result.history]
        assert epochs == sorted(epochs) == list(range(1, len(epochs) + 1))

    def test_separable_data_reaches_high_train_f1(self):
        train, _, val = gen_synthetic(seed=13, n_train=240, n_test=1, n_val=60, noise=0.02)
        cfg = TrainConfig(lr=2e-2, max_epochs=50, patience=8, batch_size=32)
        result = train_head(train, val, "concat_fcnn", cfg)
        assert evaluate_model(result.model, train) >= 0.99

    def test_missing_or_empty_val_refused_before_training(self, monkeypatch):
        train, _, val = small_splits(n_train=48, n_val=24)
        started = []
        monkeypatch.setattr("mmfusion.training.init_head_params",
                            lambda *args: started.append(args))
        with pytest.raises(DatasetError, match="val must be of type EmbeddingDataset"):
            train_head(train, None, "text_linear", TrainConfig())
        with pytest.raises(DatasetError, match="^validation split has no rows$"):
            train_head(train, val.subset([]), "text_linear", TrainConfig())
        assert started == []

    def test_early_stopping_caps_history(self):
        train, _, val = small_splits(n_train=48, n_val=24)
        cfg = TrainConfig(lr=0.0, max_epochs=30, patience=2, batch_size=16)
        result = train_head(train, val, "text_linear", cfg)
        # flat validation curve: best stays at epoch 1, stop at epoch patience+2
        assert len(result.history) == cfg.patience + 2

    def test_unlabeled_train_rejected(self):
        train, _, val = small_splits(n_train=24, n_val=12)
        with pytest.raises(DatasetError):
            train_head(train.without_labels(), val, "text_linear", TrainConfig())

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_overflowing_inputs_raise_numeric_error(self, kind):
        # the inputs fit float32; with a huge lr the training arithmetic overflows, which is
        # told apart from the float32 quantize of a snapshot by its message
        train, _, val = small_splits(n_train=64, n_val=32)
        scaled = [
            EmbeddingDataset(ids=d.ids, text=d.text.astype(np.float64) * 1e30,
                             image=d.image.astype(np.float64) * 1e30, labels=d.labels)
            for d in (train, val)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^(non-finite result|Adam step)"):
                train_head(*scaled, kind, TrainConfig(lr=1e300, max_epochs=2, batch_size=16))

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_float32_data_trains_as_its_widening(self, kind):
        # every dataset holds float32, so the batch arrays are compared head-on
        train, _, _ = small_splits(n_train=16, n_val=1)
        narrow = (train.text, train.image)
        assert narrow[0].dtype == narrow[1].dtype == np.float32
        wide = tuple(block.astype(np.float64) for block in narrow)
        runs = []
        for text, image in (narrow, wide):
            leaves = {name: Tensor(arr, requires_grad=True)
                      for name, arr in init_head_params(kind, 3).items()}
            logits = head_forward_batch(kind, leaves, text, image)
            bce_loss_node(logits, train.labels, uniform_weights()).backward()
            runs.append([logits.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves.values()])
        assert runs[0] == runs[1]

    def test_empty_train_rejected(self):
        train, _, val = small_splits(n_train=24, n_val=12)
        with pytest.raises(DatasetError):
            train_head(train.subset([]), val, "text_linear", TrainConfig())


class TestPseudoLabelLoop:
    CFG = TrainConfig(lr=1e-2, max_epochs=10, patience=3, batch_size=32)

    def test_zero_rounds_returns_round_zero_state(self):
        train, test, val = small_splits(n_train=96, n_test=32, n_val=48)
        result = pseudo_label_loop(train, test.without_labels(), val, self.CFG, max_rounds=0)
        assert result.best_round == 0
        assert result.pseudo_labels == {}
        assert len(result.history) == 1
        assert set(result.models) == set(self.CFG.fusion_set)

    def test_best_never_below_round_zero(self):
        train, test, val = small_splits(n_train=96, n_test=48, n_val=48, noise=0.3)
        result = pseudo_label_loop(train, test.without_labels(), val, self.CFG, max_rounds=2)
        assert result.best_val_f1 >= result.history[0].val_f1
        assert len(result.history) <= 3

    def test_pseudo_labels_cover_pool_when_accepted(self):
        train, test, val = small_splits(n_train=96, n_test=32, n_val=48, noise=0.3)
        result = pseudo_label_loop(train, test.without_labels(), val, self.CFG, max_rounds=2)
        if result.best_round > 0:
            assert set(result.pseudo_labels) == set(test.ids)
            assert all(not lv.is_empty for lv in result.pseudo_labels.values())
        else:
            assert result.pseudo_labels == {}

    def test_train_and_pool_are_merged_once(self, monkeypatch):
        # every round's training split reads the one block of train rows then pool rows
        train, test, val = small_splits(seed=23, n_train=96, n_test=48, n_val=48, noise=0.3)
        splits = []
        monkeypatch.setattr("mmfusion.training.train_head",
                            lambda *args: splits.append(args[0]) or train_head(*args))
        cfg = TrainConfig(lr=1e-2, max_epochs=2, patience=3, batch_size=32)
        result = pseudo_label_loop(train, test.without_labels(), val, cfg, max_rounds=2)
        assert len(result.history) == 3  # round 2 trained on round 1's merged rows
        first, *later = [split for split in splits if split is not train]
        assert len(later) == 2 * len(cfg.fusion_set) - 1
        assert first.ids == train.ids + test.ids
        for name in ("text", "image"):
            np.testing.assert_array_equal(getattr(first, name),
                                          np.concatenate([getattr(train, name), getattr(test, name)]))
            assert all(np.shares_memory(getattr(first, name), getattr(split, name)) for split in later)

    def test_bad_stopping_settings_rejected(self, monkeypatch):
        train, test, val = small_splits(n_train=48, n_test=24, n_val=24)
        trained = []
        monkeypatch.setattr("mmfusion.training.train_head",
                            lambda *args: trained.append(args) or train_head(*args))
        for name, value in (("eps", -1e-4), ("eps", math.nan), ("max_rounds", -1),
                            ("max_rounds", 2.5), ("eps", "0.1"), ("max_rounds", True),
                            ("eps", True), ("max_rounds", "2")):
            with pytest.raises(DomainError, match=f"{name} must .* got {re.escape(repr(value))}"):
                pseudo_label_loop(train, test.without_labels(), val, self.CFG, **{name: value})
        assert trained == []

    def test_overlapping_ids_rejected(self):
        train, test, val = small_splits(n_train=48, n_test=24, n_val=24)
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, train.without_labels(), val, self.CFG)
        mixed = test.subset(range(12)).merge(val.subset(range(12)))
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, mixed.without_labels(), val, self.CFG)

    def test_empty_pool_rejected_before_training(self, monkeypatch):
        train, test, val = small_splits(n_train=48, n_test=12, n_val=24)
        trained = []
        monkeypatch.setattr("mmfusion.training.train_head",
                            lambda *args: trained.append(args) or train_head(*args))
        with pytest.raises(DatasetError, match="unlabeled pool has no rows"):
            pseudo_label_loop(train, test.subset([]).without_labels(), val, self.CFG)
        assert trained == []

    def test_empty_val_rejected_before_training(self, monkeypatch):
        # the loop leaves this check to its first train_head call, which makes it first
        train, test, val = small_splits(n_train=48, n_test=12, n_val=24)
        started = []
        monkeypatch.setattr("mmfusion.training.init_head_params",
                            lambda *args: started.append(args))
        with pytest.raises(DatasetError, match="validation split has no rows"):
            pseudo_label_loop(train, test.without_labels(), val.subset([]), self.CFG)
        assert started == []

    def test_fused_eval_requires_labels(self):
        train, test, val = small_splits(n_train=48, n_test=12, n_val=24)
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, test.without_labels(), val.without_labels(), self.CFG)
        result = train_head(train, val, "text_linear", TrainConfig(lr=5e-3, max_epochs=2))
        with pytest.raises(DatasetError):
            fused_val_f1({"a": result.model, "b": result.model}, val.without_labels())


# each call that hands an entry point an argument of the wrong type or an index it cannot
# take, with the typed error it must raise; the calls get a train split, a val split and a model
WRONG_ARGUMENTS = [
    pytest.param(lambda tr, va, m: train_head(tr, None, "text_linear", TrainConfig()),
                 DatasetError, id="train_head-val-None"),
    pytest.param(lambda tr, va, m: train_head(tr, va, "text_linear", {"lr": 1e-2}),
                 DomainError, id="train_head-config-dict"),
    pytest.param(lambda tr, va, m: train_head(None, va, "text_linear", TrainConfig()),
                 DatasetError, id="train_head-train-None"),
    pytest.param(lambda tr, va, m: train_head(tr, "val", "text_linear", TrainConfig()),
                 DatasetError, id="train_head-val-str"),
    pytest.param(lambda tr, va, m: pseudo_label_loop(tr, va.without_labels(), va, None),
                 DomainError, id="pseudo_label_loop-config-None"),
    pytest.param(lambda tr, va, m: evaluate_model(m, None), DatasetError,
                 id="evaluate_model-data-None"),
    pytest.param(lambda tr, va, m: evaluate_model(None, va), DomainError,
                 id="evaluate_model-model-None"),
    pytest.param(lambda tr, va, m: fused_val_f1([m], va), DomainError,
                 id="fused_val_f1-models-list"),
    pytest.param(lambda tr, va, m: fused_probs({"text_linear": m}, None), DatasetError,
                 id="fused_probs-data-None"),
    pytest.param(lambda tr, va, m: fused_predictions({"text_linear": m}, None), DatasetError,
                 id="fused_predictions-data-None"),
    pytest.param(lambda tr, va, m: predict_fused_logits(None, va.text, va.image), DomainError,
                 id="predict_fused_logits-models-None"),
    pytest.param(lambda tr, va, m: predict_fused_logits("ab", va.text, va.image), DomainError,
                 id="predict_fused_logits-models-str"),
    pytest.param(lambda tr, va, m: va.subset(range(4)).subset([7]), DatasetError,
                 id="subset-index-out-of-range"),
    pytest.param(lambda tr, va, m: va.subset(range(4)).subset([1.0]), DatasetError,
                 id="subset-index-float"),
    pytest.param(lambda tr, va, m: va.subset(range(4)).subset(np.ones(4, dtype=bool)),
                 DatasetError, id="subset-numpy-bool-mask"),
    pytest.param(lambda tr, va, m: va.subset(range(4)).subset([True, False, True, False]),
                 DatasetError, id="subset-list-bool-mask"),
]


@pytest.mark.parametrize("call, error", WRONG_ARGUMENTS)
def test_wrong_argument_is_a_typed_refusal_before_any_work(call, error, monkeypatch, tmp_path):
    train, _, val = small_splits(n_train=24, n_test=1, n_val=12)
    model = FusionModel(kind="text_linear", params=init_head_params("text_linear", 0))
    started = []
    for name in ("init_head_params", "predict_logits", "predict_fused_logits"):
        monkeypatch.setattr(f"mmfusion.training.{name}",
                            lambda *args, name=name: started.append(name))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as caught:  # a warning would fail the test: filterwarnings="error"
        call(train, val, model)
    assert caught.type is error
    assert started == [] and list(tmp_path.iterdir()) == []


# ---------------------------------------------------------- fused inference


def random_model(kind: str, rng: np.random.Generator) -> FusionModel:
    params = {name: rng.standard_normal(shape) * 0.05
              for name, shape in expected_param_shapes(kind).items()}
    return FusionModel(kind=kind, params=params)


def random_pool(rng: np.random.Generator, n: int, labeled: bool = False) -> EmbeddingDataset:
    labels = None
    if labeled:
        labels = rng.random((n, N_CLASSES)) < 0.2
        labels[np.arange(n), rng.integers(0, N_CLASSES, n)] = True
    return EmbeddingDataset(
        ids=tuple(f"s{i}" for i in range(n)),
        text=rng.standard_normal((n, TEXT_DIM)).astype(np.float32),
        image=rng.standard_normal((n, IMAGE_DIM)).astype(np.float32),
        labels=labels,
    )


def fold_models(name: str, rng: np.random.Generator) -> dict[str, FusionModel]:
    return {kind: random_model(kind, rng) for kind in FUSION_SETS[name]}


class TestFusedProbs:
    @pytest.mark.parametrize("case", FUSION_SETS)
    def test_folded_heads_match_mean_of_per_head_logits(self, case):
        rng = np.random.default_rng(31)
        models = fold_models(case, rng)
        pool = random_pool(rng, 600)
        mean = fuse_logits([predict_logits(m, pool.text, pool.image) for m in models.values()])
        want = logits_to_probs(mean)
        got = fused_probs(models, pool)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(assign_label_matrix(got), assign_label_matrix(want))

    @pytest.mark.parametrize("kinds", [
        ("cross_attn_fcnn", "cross_attn_fcnn", "text_linear"),
        ("vision_linear", "vision_linear"),
    ], ids=["two_cross", "two_vision"])
    def test_repeated_head_kind_rejected(self, kinds):
        rng = np.random.default_rng(32)
        models = {f"{kind}_{i}": random_model(kind, rng) for i, kind in enumerate(kinds)}
        with pytest.raises(DomainError, match="repeats a head kind"):
            fused_probs(models, random_pool(rng, 4))

    def test_single_model_rejected(self):
        rng = np.random.default_rng(33)
        with pytest.raises(DomainError):
            fused_probs({"text_linear": random_model("text_linear", rng)}, random_pool(rng, 4))

    @pytest.mark.parametrize("name, limit_mib", [("fm1", 24), ("fm2", 24), ("fm3", 32)])
    def test_float32_pool_peak_memory(self, name, limit_mib):
        rng = np.random.default_rng(34)
        models = fold_models(name, rng)
        pool = random_pool(rng, 4096)
        tracemalloc.start()
        try:
            fused_probs(models, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("name, fold_kind", [
        ("fm1", "concat_fcnn"), ("fm2", "concat_fcnn"), ("fm3", "cross_attn_fcnn"),
    ])
    def test_one_pass_per_fusion_set(self, name, fold_kind, monkeypatch):
        # one pass of the folded head, whose kind reads every block of the set; the mean
        # of per-head passes would cost the sum of the heads' forward_macs
        counted = []
        plain = tensor_mod.matmul

        def counting(a, b):
            out = plain(a, b)
            counted.append(out.data.size * a.shape[-1])  # one dot product per output element
            return out

        monkeypatch.setattr(tensor_mod, "matmul", counting)
        rng = np.random.default_rng(35)
        rows = 5
        fused_probs(fold_models(name, rng), random_pool(rng, rows))
        assert sum(counted) == rows * forward_macs(fold_kind)
