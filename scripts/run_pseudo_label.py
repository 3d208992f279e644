#!/usr/bin/env python3
"""Self-training demo: withhold labels from part of the training split and
let the pseudo-label loop try to win them back."""

import argparse

from mmfusion.data_io import gen_synthetic
from mmfusion.errors import DatasetError, DomainError
from mmfusion.fusion import check_fusion_set
from mmfusion.training import TrainConfig, check_stopping, pseudo_label_loop


def fusion_set(raw: str) -> tuple[str, ...]:
    """A named fusion set or comma-separated head kinds, checked before any work."""
    try:
        return check_fusion_set(TrainConfig.parse_value("fusion_set", raw))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-val", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.3)
    ap.add_argument("--withheld", type=float, default=0.5,
                    help="fraction of the training split stripped of labels")
    ap.add_argument("--max-rounds", type=int, default=5)
    ap.add_argument("--eps", type=float, default=1e-4)
    ap.add_argument("--fusion-set", type=fusion_set, default="fm1",
                    help="comma-separated head kinds or a named set (fm1/fm2/fm3)")
    args = ap.parse_args()
    # the generator makes n_train rows; the labeled part and the pool both need some
    cut = int(args.n_train * (1.0 - args.withheld)) if 0.0 < args.withheld < 1.0 else 0
    if not 0 < cut < args.n_train:
        ap.error(f"--withheld {args.withheld} must lie strictly between 0 and 1 and leave rows "
                 f"both labeled and withheld out of {args.n_train} training rows")

    # each checks every value before any work, so a refusal is a usage error
    try:
        config = TrainConfig(
            lr=1e-2, max_epochs=25, patience=5, seed=args.seed,
            fusion_set=args.fusion_set,
        )
        check_stopping(args.max_rounds, args.eps)
        train, _, val = gen_synthetic(
            seed=args.seed, n_train=args.n_train, n_test=1, n_val=args.n_val,
            noise=args.noise,
        )
    except (DatasetError, DomainError) as exc:
        ap.error(str(exc))
    labeled = train.subset(range(cut))
    pool = train.subset(range(cut, len(train))).without_labels()
    print(f"{len(labeled)} labeled / {len(pool)} withheld / {len(val)} validation")

    result = pseudo_label_loop(
        labeled, pool, val, config, max_rounds=args.max_rounds, eps=args.eps,
    )

    for record in result.history:
        marker = " <- best" if record.round == result.best_round else ""
        print(f"round {record.round}: fused val F1 {record.val_f1:.4f}{marker}")
    print(f"\nbest round {result.best_round}, F1 {result.best_val_f1:.4f}, "
          f"{len(result.pseudo_labels)} pseudo-labels retained")


if __name__ == "__main__":
    main()
