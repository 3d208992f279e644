"""``train_head`` and ``pseudo_label_loop`` rebuilt from public calls, one span per call.

The replays follow the library loops step for step, so given the same data
and config they must end on bitwise the same parameters; ``same_models``
checks that.  If they ever drift apart, the per-layer numbers describe a
different computation and the traced run reports them as invalid.
"""

from __future__ import annotations

import math

import numpy as np

from mmfusion import EmbeddingDataset, FusionModel, Tensor
from mmfusion.fusion import (
    assign_labels_batch,
    fuse_logits,
    head_forward_batch,
    labels_to_matrix,
    logits_to_probs,
    predict_logits,
)
from mmfusion.metrics import confusion_counts, macro_f1
from mmfusion.training import (
    adam_step,
    bce_loss_node,
    class_weights,
    init_adam_state,
    init_head_params,
    uniform_weights,
)


def assign(tr, logits, rows: int):
    """Sigmoid probabilities, then thresholded label sets: one span."""
    return tr.call("fusion.assign_labels",
                   lambda: assign_labels_batch(logits_to_probs(logits).data), rows=rows)


def score(tr, preds, truths) -> float:
    return tr.call("metrics.confusion_f1",
                   lambda: macro_f1(confusion_counts(preds, list(truths))), rows=len(preds))


def evaluate_model(tr, model: FusionModel, data: EmbeddingDataset) -> float:
    """``training.evaluate_model`` split into logits, label assignment and scoring."""
    n = len(data)
    with tr.span("training.evaluate_model", rows=n):
        logits = tr.call("fusion.predict_logits", predict_logits, model, data.text, data.image,
                         rows=n, kind=model.kind)
        return score(tr, assign(tr, logits, n), data.labels)


def fused_predictions(tr, models, data: EmbeddingDataset):
    n = len(data)
    with tr.span("training.fused_predictions", rows=n):
        logit_sets = [
            tr.call("fusion.predict_logits", predict_logits, m, data.text, data.image,
                    rows=n, kind=m.kind)
            for m in models.values()
        ]
        fused = tr.call("fusion.fuse_logits", fuse_logits, logit_sets, rows=n)
        return assign(tr, fused.data, n)


def train_head(tr, train: EmbeddingDataset, val: EmbeddingDataset, kind: str, config) -> FusionModel:
    """The best-validation model of ``training.train_head`` (validation data required)."""
    with tr.span("training.train_head", kind=kind, rows=len(train)):
        targets = labels_to_matrix(train.labels)
        if config.class_weighting:
            counts = tr.call("data_io.label_counts", train.label_counts, rows=len(train))
            weights = tr.call("training.class_weights", class_weights, counts)
        else:
            weights = uniform_weights()
        params = tr.call("training.init_head_params", init_head_params, kind, config.seed)
        state = init_adam_state(params)
        rng = np.random.default_rng(config.seed)
        n = len(train)
        best_model, best_f1, best_epoch = None, -math.inf, 0
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
                logits = tr.call("fusion.head_forward_batch", head_forward_batch, kind, leaves,
                                 train.text[idx], train.image[idx], rows=len(idx), kind=kind)
                loss = tr.call("training.bce_loss_node", bce_loss_node, logits, targets[idx], weights)
                tr.call("tensor.backward", loss.backward)
                grads = {name: leaf.grad for name, leaf in leaves.items()}
                params, state = tr.call("training.adam_step", adam_step, params, grads, state, config)
            snapshot = FusionModel(kind=kind, params={k: np.array(v) for k, v in params.items()})
            val_f1 = evaluate_model(tr, snapshot, val)
            if val_f1 > best_f1:
                best_model, best_f1, best_epoch = snapshot, val_f1, epoch
            if epoch - best_epoch > config.patience:
                break
        return best_model


def _train_fusion_heads(tr, train, val, config):
    models = {kind: train_head(tr, train, val, kind, config) for kind in config.fusion_set}
    return models, score(tr, fused_predictions(tr, models, val), val.labels)


def pseudo_label_loop(tr, train, pool, val, config, max_rounds: int, eps: float):
    """The best round's models of ``training.pseudo_label_loop``."""
    with tr.span("training.pseudo_label_loop", rows=len(train) + len(pool)):
        best_models, best_f1 = _train_fusion_heads(tr, train, val, config)
        pool = pool.without_labels()
        for _ in range(max_rounds):
            pseudo = fused_predictions(tr, best_models, pool)
            unlabeled = EmbeddingDataset(ids=pool.ids, text=pool.text, image=pool.image,
                                         labels=tuple(pseudo))
            merged = tr.call("data_io.merge", train.merge, unlabeled,
                             rows=len(train) + len(pool))
            models, f1 = _train_fusion_heads(tr, merged, val, config)
            if not f1 > best_f1 + eps:
                break
            best_models, best_f1 = models, f1
        return best_models


def same_models(a, b) -> bool:
    """Bitwise equality of two ``{kind: FusionModel}`` maps."""
    return a.keys() == b.keys() and all(
        a[k].params.keys() == b[k].params.keys()
        and all(a[k].params[n].tobytes() == b[k].params[n].tobytes() for n in a[k].params)
        for k in a
    )
