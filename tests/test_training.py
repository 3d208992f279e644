"""Weighting, loss, optimizer, and training-loop tests."""

import math
import warnings

import numpy as np
import pytest

from mmfusion.data_io import EmbeddingDataset, gen_synthetic
from mmfusion.errors import DatasetError, DomainError, NumericError, ShapeError
from mmfusion.fusion import FUSION_SETS, HEAD_KINDS, N_CLASSES, TEXT_DIM, IMAGE_DIM, LabelVector
from mmfusion.tensor import Tensor, grad_check
from mmfusion.training import (
    AdamState,
    TrainConfig,
    adam_step,
    bce_loss_node,
    class_weights,
    evaluate_model,
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
        assert class_weights(counts).total == 180

    def test_small_total_rejected(self):
        with pytest.raises(DomainError):
            class_weights(np.full(N_CLASSES, 1), total=2)

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
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.eps == 1e-8
        assert cfg.fusion_set == ("vision_linear", "text_linear")

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_invalid_values_rejected(self):
        for kwargs in (
            dict(lr=-1e-3),
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(patience=-1),
            dict(beta1=1.0),
            dict(beta2=-0.1),
            dict(eps=0.0),
            dict(fusion_set=("vision_linear",)),
            dict(fusion_set=("vision_linear", "vision_linear")),
            dict(fusion_set=("vision_linear", "bogus")),
        ):
            with pytest.raises(DomainError):
                TrainConfig(**kwargs)

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
        path.write_text("learning_rate = 0.01\n")
        with pytest.raises(DomainError):
            TrainConfig.from_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = 0.01\nlr = 0.02\n")
        with pytest.raises(DomainError):
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
        expected = -cfg.lr * 1.0 / (1.0 + cfg.eps)
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

    def test_no_validation_set_trains_to_the_end(self):
        train, _, _ = small_splits(n_train=48)
        cfg = TrainConfig(lr=5e-3, max_epochs=4, patience=0, batch_size=16)
        for val in (None, train.subset([])):
            result = train_head(train, val, "text_linear", cfg)
            assert len(result.history) == cfg.max_epochs
            assert all(math.isnan(r.val_f1) for r in result.history)
            assert result.best_epoch == cfg.max_epochs

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
        train, _, val = small_splits(n_train=64, n_val=32)
        scaled = [
            EmbeddingDataset(ids=d.ids, text=d.text * 1e200, image=d.image * 1e200, labels=d.labels)
            for d in (train, val)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                train_head(*scaled, kind, TrainConfig(lr=1e-2, max_epochs=2))

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

    def test_overlapping_ids_rejected(self):
        train, test, val = small_splits(n_train=48, n_test=24, n_val=24)
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, train.without_labels(), val, self.CFG)
        mixed = test.subset(range(12)).merge(val.subset(range(12)))
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, mixed.without_labels(), val, self.CFG)

    def test_fused_eval_requires_labels(self):
        train, test, val = small_splits(n_train=48, n_test=12, n_val=24)
        with pytest.raises(DatasetError):
            pseudo_label_loop(train, test.without_labels(), val.without_labels(), self.CFG)
        result = train_head(train, val, "text_linear", TrainConfig(lr=5e-3, max_epochs=2))
        with pytest.raises(DatasetError):
            fused_val_f1({"a": result.model, "b": result.model}, val.without_labels())
