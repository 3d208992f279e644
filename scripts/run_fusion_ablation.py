#!/usr/bin/env python3
"""Train every head on one synthetic benchmark and compare fusion sets.

Prints a table of single-head validation F1 followed by the fused score of
each named fusion set, so the single-modality ceiling and the bimodal gain
are visible side by side.
"""

import argparse
import time

from mmfusion.data_io import gen_synthetic
from mmfusion.errors import DatasetError, DomainError
from mmfusion.fusion import FUSION_SETS, HEAD_KINDS
from mmfusion.training import TrainConfig, evaluate_model, fused_val_f1, train_head


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-val", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.3)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--max-epochs", type=int, default=30)
    ap.add_argument("--patience", type=int, default=6)
    args = ap.parse_args()

    # both check every value before any work, so a refusal is a usage error
    try:
        config = TrainConfig(
            lr=args.lr, max_epochs=args.max_epochs, patience=args.patience,
            seed=args.seed,
        )
        # the generator insists on a non-empty test split; this run never reads it
        train, _, val = gen_synthetic(
            seed=args.seed, n_train=args.n_train, n_test=1, n_val=args.n_val,
            noise=args.noise,
        )
    except (DatasetError, DomainError) as exc:
        ap.error(str(exc))

    models = {}
    print(f"training {len(HEAD_KINDS)} heads on {len(train)} samples")
    for kind in HEAD_KINDS:
        t0 = time.monotonic()
        result = train_head(train, val, kind, config)
        models[kind] = result.model
        val_f1 = result.history[result.best_epoch - 1].val_f1
        train_f1 = evaluate_model(result.model, train)
        print(
            f"  {kind:<16} val F1 {val_f1:.4f}  train F1 {train_f1:.4f}  "
            f"({len(result.history)} epochs, {time.monotonic() - t0:.1f}s)"
        )

    print("\nfusion sets (mean-fused logits, validation F1):")
    for name, kinds in FUSION_SETS.items():
        fused = fused_val_f1({k: models[k] for k in kinds}, val)
        print(f"  {name}: {fused:.4f}  [{', '.join(kinds)}]")


if __name__ == "__main__":
    main()
