"""Confusion counts, mean accuracy, and macro F1 against brute-force oracles."""

import numpy as np
import pytest

from mmfusion.errors import DatasetError, LabelDomainError
from mmfusion.fusion import CLASS_IDS, N_CLASSES, LabelVector
from mmfusion.metrics import confusion_counts, f1_per_class, macro_f1, mean_accuracy


@pytest.fixture
def rng():
    return np.random.default_rng(512)


def label_vector(class_ids) -> LabelVector:
    return LabelVector.from_mask(np.isin(CLASS_IDS, class_ids))


def random_label(rng) -> LabelVector:
    mask = np.zeros(N_CLASSES, dtype=bool)
    picks = rng.choice(N_CLASSES, size=int(rng.integers(1, 5)), replace=False)
    mask[picks] = True
    return LabelVector.from_mask(mask)


def oracle_counts(preds, truths):
    """Per-sample scalar loops, no vectorisation."""
    tp = [0] * N_CLASSES
    fp = [0] * N_CLASSES
    tn = [0] * N_CLASSES
    fn = [0] * N_CLASSES
    for p, t in zip(preds, truths):
        for c in range(N_CLASSES):
            if p.bits[c] and t.bits[c]:
                tp[c] += 1
            elif p.bits[c] and not t.bits[c]:
                fp[c] += 1
            elif not p.bits[c] and t.bits[c]:
                fn[c] += 1
            else:
                tn[c] += 1
    return tp, fp, tn, fn


def oracle_macro_f1(preds, truths) -> float:
    tp, fp, tn, fn = oracle_counts(preds, truths)
    total = 0.0
    for c in range(N_CLASSES):
        if tp[c] + fp[c] == 0 or tp[c] + fn[c] == 0:
            continue
        precision = tp[c] / (tp[c] + fp[c])
        recall = tp[c] / (tp[c] + fn[c])
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return total / N_CLASSES


class TestConfusionCounts:
    def test_perfect_prediction(self):
        labels = [label_vector([1, 5]), label_vector([19])]
        counts = confusion_counts(labels, labels)
        assert counts.fp.sum() == counts.fn.sum() == 0
        assert counts.tp.sum() == 3
        assert counts.n_samples == 2

    def test_single_sample_split(self):
        pred = [label_vector([1, 2])]
        true = [label_vector([2, 3])]
        counts = confusion_counts(pred, true)
        assert counts.tp[1] == 1
        assert counts.fp[0] == 1
        assert counts.fn[2] == 1
        assert counts.tn[3] == 1

    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 40))
            preds = [random_label(rng) for _ in range(n)]
            truths = [random_label(rng) for _ in range(n)]
            counts = confusion_counts(preds, truths)
            tp, fp, tn, fn = oracle_counts(preds, truths)
            assert counts.tp.tolist() == tp
            assert counts.fp.tolist() == fp
            assert counts.tn.tolist() == tn
            assert counts.fn.tolist() == fn

    def test_empty_prediction_rejected(self):
        empty = LabelVector.from_mask(np.zeros(N_CLASSES))
        with pytest.raises(LabelDomainError, match="prediction 0 has no labels set"):
            confusion_counts([empty], [label_vector([1])])

    def test_length_mismatch_rejected(self):
        one = label_vector([1])
        with pytest.raises(DatasetError):
            confusion_counts([one], [one, one])

    def test_zero_samples_rejected(self):
        with pytest.raises(DatasetError):
            confusion_counts([], [])


class TestScores:
    def test_mean_accuracy_perfect(self):
        labels = [label_vector([2]), label_vector([7, 9])]
        assert mean_accuracy(confusion_counts(labels, labels)) == 1.0

    def test_macro_f1_perfect(self):
        labels = [label_vector([2]), label_vector([7, 9])]
        counts = confusion_counts(labels, labels)
        # only 3 of 18 classes ever appear; the rest contribute zero F1
        assert abs(macro_f1(counts) - 3.0 / 18.0) < 1e-15

    def test_disjoint_predictions_score_zero_f1(self):
        pred = [label_vector([1])]
        true = [label_vector([2])]
        assert macro_f1(confusion_counts(pred, true)) == 0.0

    def test_degenerate_classes_score_zero_not_nan(self):
        pred = [label_vector([1])]
        true = [label_vector([1])]
        scores = f1_per_class(confusion_counts(pred, true))
        assert scores[0] == 1.0
        assert np.all(scores[1:] == 0.0)
        assert np.all(np.isfinite(scores))

    def test_matches_oracles_on_random_sets(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 60))
            preds = [random_label(rng) for _ in range(n)]
            truths = [random_label(rng) for _ in range(n)]
            counts = confusion_counts(preds, truths)
            assert abs(macro_f1(counts) - oracle_macro_f1(preds, truths)) < 1e-15
            tp, fp, tn, fn = oracle_counts(preds, truths)
            expected_acc = sum((tp[c] + tn[c]) / n for c in range(N_CLASSES)) / N_CLASSES
            assert abs(mean_accuracy(counts) - expected_acc) < 1e-15

    def test_swap_symmetry_of_counts(self, rng):
        preds = [random_label(rng) for _ in range(25)]
        truths = [random_label(rng) for _ in range(25)]
        a = confusion_counts(preds, truths)
        b = confusion_counts(truths, preds)
        np.testing.assert_array_equal(a.tp, b.tp)
        np.testing.assert_array_equal(a.tn, b.tn)
        np.testing.assert_array_equal(a.fp, b.fn)

    def test_sample_permutation_invariance(self, rng):
        preds = [random_label(rng) for _ in range(30)]
        truths = [random_label(rng) for _ in range(30)]
        perm = rng.permutation(30)
        a = confusion_counts(preds, truths)
        b = confusion_counts([preds[i] for i in perm], [truths[i] for i in perm])
        assert macro_f1(a) == macro_f1(b)
        assert mean_accuracy(a) == mean_accuracy(b)

    def test_scores_bounded(self, rng):
        preds = [random_label(rng) for _ in range(40)]
        truths = [random_label(rng) for _ in range(40)]
        counts = confusion_counts(preds, truths)
        assert 0.0 <= macro_f1(counts) <= 1.0
        assert 0.0 <= mean_accuracy(counts) <= 1.0
