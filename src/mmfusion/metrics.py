"""Multi-label evaluation: per-class confusion counts, mean accuracy, macro F1.

Counts always cover all 18 classes.  A class nobody predicted and nobody has
contributes an F1 of 0 to the macro average rather than being dropped, so the
denominator is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, EmptyPredictionError, ShapeError
from .fusion import N_CLASSES, labels_to_matrix


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class true/false positive/negative tallies over one evaluation set."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            arr = getattr(self, name)
            if arr.shape != (N_CLASSES,):
                raise ShapeError(f"{name} must have shape ({N_CLASSES},), got {arr.shape}")
        totals = self.tp + self.fp + self.tn + self.fn
        if len(set(totals.tolist())) > 1:
            raise ShapeError(f"per-class totals disagree: {totals.tolist()}")

    @property
    def n_samples(self) -> int:
        return int(self.tp[0] + self.fp[0] + self.tn[0] + self.fn[0])


def confusion_counts(predictions, truths) -> ConfusionCounts:
    """Tally per-class confusion entries; every prediction must be non-empty."""
    pred = labels_to_matrix(predictions)
    true = labels_to_matrix(truths)
    if len(pred) != len(true):
        raise DatasetError(f"prediction and truth counts differ: {len(pred)} vs {len(true)}")
    if len(pred) == 0:
        raise DatasetError("cannot evaluate an empty set")
    if not pred.any(axis=1).all():
        raise EmptyPredictionError(f"prediction {pred.any(axis=1).argmin()} has no labels set")
    return ConfusionCounts(
        tp=(pred & true).sum(axis=0, dtype=np.int64),
        fp=(pred & ~true).sum(axis=0, dtype=np.int64),
        tn=(~pred & ~true).sum(axis=0, dtype=np.int64),
        fn=(~pred & true).sum(axis=0, dtype=np.int64),
    )


def mean_accuracy(counts: ConfusionCounts) -> float:
    """Mean over classes of (TP + TN) / total."""
    total = counts.n_samples
    if total == 0:
        raise DatasetError("cannot compute accuracy over zero samples")
    per_class = (counts.tp + counts.tn) / total
    return float(per_class.mean())


def f1_per_class(counts: ConfusionCounts) -> np.ndarray:
    """Per-class F1; a class with no predicted and no true positives scores 0."""
    tp = counts.tp
    precision = np.divide(tp, tp + counts.fp, out=np.zeros(N_CLASSES), where=tp + counts.fp > 0)
    recall = np.divide(tp, tp + counts.fn, out=np.zeros(N_CLASSES), where=tp + counts.fn > 0)
    total = precision + recall
    return np.divide(2.0 * precision * recall, total, out=np.zeros(N_CLASSES), where=total > 0.0)


def macro_f1(counts: ConfusionCounts) -> float:
    """Unweighted mean of the 18 per-class F1 scores."""
    return float(f1_per_class(counts).mean())


def scores(predictions, truths) -> dict[str, float]:
    """``macro_f1`` and ``mean_accuracy`` of ``predictions`` against ``truths``, from one tally."""
    counts = confusion_counts(predictions, truths)
    return {"macro_f1": macro_f1(counts), "mean_accuracy": mean_accuracy(counts)}
