"""Acceptance suite: nine product-level criteria, one test each.

Each test prints a single summary line straight to the terminal when it
passes; a failing criterion shows up as an ordinary pytest failure.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mmfusion.attention import AttentionParams, cross_attention, self_attention
from mmfusion.data_io import (
    gen_synthetic,
    load_model,
    read_embeddings,
    save_model,
    write_embeddings,
)
from mmfusion.errors import FileFormatError
from mmfusion.fusion import (
    HEAD_KINDS,
    N_CLASSES,
    FusionModel,
    LabelVector,
    assign_labels,
    expected_param_shapes,
    head_forward_batch,
    predict_logits,
)
from mmfusion.metrics import confusion_counts, macro_f1, mean_accuracy
from mmfusion.tensor import ACTIVATION_KINDS, Tensor, activation, grad_check, layer_norm
from mmfusion.training import (
    TrainConfig,
    bce_loss_node,
    class_weights,
    evaluate_model,
    fused_val_f1,
    pseudo_label_loop,
    train_head,
)
from mmfusion.vision_blocks import (
    ConvSpec,
    conv2d_forward,
    cost_depthwise_separable,
    cost_standard,
    depthwise_separable_forward,
    separable_ratio,
)


def announce(capsys, number, name, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def benchmark_splits():
    return gen_synthetic(seed=42, n_train=2000, n_test=500, n_val=500, noise=0.3)


# ---------------------------------------------------------------- criterion 1

_KINKS = {"sigmoid": (), "relu": (0.0,), "relu6": (0.0, 6.0), "hswish": (-3.0, 3.0)}


def _nudge(x, kinks, margin=1e-3):
    """Push coordinates off activation kinks so central differences stay clean."""
    x = np.array(x)
    for k in kinks:
        near = np.abs(x - k) < margin
        x[near] = k + np.where(x[near] >= k, margin, -margin)
    return x


def test_criterion_1_gradient_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0

    def check(f, x, coords=None):
        nonlocal worst
        err = grad_check(f, x, coords=coords)
        worst = max(worst, err)
        assert err < 1e-4, f"gradient error {err:.3e}"

    for kind in ACTIVATION_KINDS:
        for _ in range(20):
            x = _nudge(rng.standard_normal(12) * 2.5, _KINKS[kind])
            probe = Tensor(rng.standard_normal(12))
            check(lambda t, k=kind, p=probe: (activation(k, t) * p).sum(), x)

    for point in range(20):
        gain = Tensor(0.5 + rng.random(8))
        bias = Tensor(rng.standard_normal(8))
        probe = Tensor(rng.standard_normal((3, 8)))
        x = rng.standard_normal((3, 8))
        leaf = point % 3
        if leaf == 0:
            check(lambda t, g=gain, b=bias, p=probe: (layer_norm(t, g, b) * p).sum(), x)
        elif leaf == 1:
            xs = Tensor(x)
            check(lambda g, t=xs, b=bias, p=probe: (layer_norm(t, g, b) * p).sum(), gain.data)
        else:
            xs = Tensor(x)
            check(lambda b, t=xs, g=gain, p=probe: (layer_norm(t, g, b) * p).sum(), bias.data)

    for point in range(20):
        x = rng.standard_normal((4, 6))
        mats = {name: rng.standard_normal((6, 6)) * 0.5 for name in ("wq", "wk", "wv")}
        probe = Tensor(rng.standard_normal((4, 6)))
        leaf_name = ("x", "wq", "wk", "wv")[point % 4]

        def f_self(t):
            tensors = {n: Tensor(m) for n, m in mats.items()}
            seq = Tensor(x)
            if leaf_name == "x":
                seq = t
            else:
                tensors[leaf_name] = t
            params = AttentionParams(**tensors)
            return (self_attention(seq, params) * probe).sum()

        check(f_self, x if leaf_name == "x" else mats[leaf_name])

    for point in range(20):
        xq = rng.standard_normal((3, 5))
        ykv = rng.standard_normal((4, 5))
        mats = {
            "wq": rng.standard_normal((5, 6)) * 0.5,
            "wk": rng.standard_normal((5, 6)) * 0.5,
            "wv": rng.standard_normal((5, 5)) * 0.5,
            "ln_gain": 0.5 + rng.random(5),
            "ln_bias": rng.standard_normal(5),
        }
        probe = Tensor(rng.standard_normal((3, 5)))
        leaf_name = ("xq", "ykv", "wq", "wk", "wv", "ln_gain", "ln_bias")[point % 7]

        def f_cross(t):
            tensors = {n: Tensor(m) for n, m in mats.items()}
            q, kv = Tensor(xq), Tensor(ykv)
            if leaf_name == "xq":
                q = t
            elif leaf_name == "ykv":
                kv = t
            else:
                tensors[leaf_name] = t
            params = AttentionParams(**tensors)
            return (cross_attention(q, kv, params) * probe).sum()

        check(f_cross, mats.get(leaf_name, xq if leaf_name == "xq" else ykv))

    for kind in HEAD_KINDS:
        shapes = expected_param_shapes(kind)
        names = sorted(shapes)
        for point in range(20):
            text = rng.standard_normal((2, 128))
            image = rng.standard_normal((2, 1792))
            params = {n: rng.standard_normal(shapes[n]) * 0.1 for n in names}
            probe = Tensor(rng.standard_normal((2, N_CLASSES)))
            leaf_name = names[point % len(names)]
            size = int(np.prod(shapes[leaf_name], dtype=np.int64))
            coords = None
            if size > 96:
                coords = rng.choice(size, size=96, replace=False)

            def f_head(t):
                leaves = {n: Tensor(arr) for n, arr in params.items()}
                leaves[leaf_name] = t
                return (head_forward_batch(kind, leaves, text, image) * probe).sum()

            check(f_head, params[leaf_name], coords=coords)

    for _ in range(20):
        z = rng.standard_normal((3, N_CLASSES)) * 2.0
        y = (rng.random((3, N_CLASSES)) < 0.4).astype(float)
        w = 1.0 + rng.random(N_CLASSES)
        check(lambda t, yy=y, ww=w: bce_loss_node(t, yy, ww), z)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    announce(capsys, 1, "gradient suite", f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_cost_model(capsys):
    rng = np.random.default_rng(2002)
    checked = 0
    for _ in range(100):
        dk = int(rng.choice([1, 2, 3, 5]))
        g = int(rng.choice([1, 2, 4]))
        m = g * int(rng.integers(1, 4))
        n = g * int(rng.integers(1, 4))
        df = int(rng.integers(2, 7))

        std_spec = ConvSpec(dk=dk, m=m, n=n, df=df, mode="standard")
        x = rng.standard_normal((df, df, m))
        kernels = rng.standard_normal((dk, dk, m, n))
        _, macs = conv2d_forward(x, kernels, std_spec)
        assert macs == cost_standard(std_spec)

        dw_k = rng.standard_normal((dk, dk, 1, m))
        pw_k = rng.standard_normal((1, 1, m, n))
        _, sep_macs = depthwise_separable_forward(x, dw_k, pw_k, std_spec)
        dw_cost, pw_cost, total = cost_depthwise_separable(std_spec)
        assert sep_macs == total == dw_cost + pw_cost

        ratio = separable_ratio(std_spec)
        assert abs(ratio - (1.0 / n + 1.0 / dk**2)) < 1e-12

        if g > 1:
            grp_spec = ConvSpec(dk=dk, m=m, n=n, df=df, groups=g, mode="grouped")
            grp_k = rng.standard_normal((dk, dk, m // g, n))
            _, grp_macs = conv2d_forward(x, grp_k, grp_spec)
            from mmfusion.vision_blocks import cost_grouped

            assert grp_macs == cost_grouped(grp_spec)
        checked += 1
    announce(capsys, 2, "conv cost model", f"{checked} random specs, exact MAC parity")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_fusion_ordering(capsys, benchmark_splits):
    start = time.monotonic()
    train, _, val = benchmark_splits
    cfg = TrainConfig(lr=1e-2, batch_size=64, max_epochs=30, patience=6)

    heads = {}
    for kind in HEAD_KINDS:
        heads[kind] = train_head(train, val, kind, cfg).model

    vision_f1 = evaluate_model(heads["vision_linear"], val)
    text_f1 = evaluate_model(heads["text_linear"], val)
    fused_f1 = fused_val_f1(
        {k: heads[k] for k in ("vision_linear", "text_linear")}, val
    )
    assert fused_f1 >= vision_f1 + 0.05, f"fused {fused_f1:.4f} vs vision {vision_f1:.4f}"
    assert fused_f1 >= text_f1 + 0.05, f"fused {fused_f1:.4f} vs text {text_f1:.4f}"

    cross_train = evaluate_model(heads["cross_attn_fcnn"], train)
    concat_train = evaluate_model(heads["concat_fcnn"], train)
    assert cross_train >= concat_train - 0.01, (
        f"cross {cross_train:.4f} vs concat {concat_train:.4f}"
    )

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"fusion experiment took {elapsed:.1f}s"
    announce(
        capsys, 3, "fusion ordering",
        f"fused {fused_f1:.3f} vs singles {vision_f1:.3f}/{text_f1:.3f}, "
        f"cross {cross_train:.3f} vs concat {concat_train:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_pseudo_label_loop(capsys, benchmark_splits):
    start = time.monotonic()
    train, _, val = benchmark_splits
    half = len(train) // 2
    labeled = train.subset(range(half))
    withheld = train.subset(range(half, len(train))).without_labels()

    cfg = TrainConfig(lr=1e-2, batch_size=64, max_epochs=25, patience=5)
    result = pseudo_label_loop(labeled, withheld, val, cfg, max_rounds=5, eps=1e-4)

    assert len(result.history) <= 6
    assert result.best_val_f1 >= result.history[0].val_f1
    assert result.best_round <= 5
    if result.best_round > 0:
        assert set(result.pseudo_labels) == set(withheld.ids)

    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"pseudo-label loop took {elapsed:.1f}s"
    announce(
        capsys, 4, "pseudo-label loop",
        f"best round {result.best_round} f1 {result.best_val_f1:.3f} "
        f"(round 0: {result.history[0].val_f1:.3f}), "
        f"{len(result.history)} rounds, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_label_assignment(capsys):
    rng = np.random.default_rng(5005)
    n = 10_000
    probs = rng.random((n, N_CLASSES))
    probs[: n // 4] *= 0.4  # force the fallback branch on a quarter of the rows
    low, high = 0.45, 0.65
    fallbacks = 0
    for row in probs:
        picked_low = assign_labels(row, threshold=low)
        picked_high = assign_labels(row, threshold=high)
        assert not picked_low.is_empty and not picked_high.is_empty
        for threshold, picked in ((low, picked_low), (high, picked_high)):
            if not (row > threshold).any():
                fallbacks += 1
                winners = np.flatnonzero(row == row.max())
                assert picked.bits[winners[0]] and len(picked) == 1
        if (row > low).any() and (row > high).any():
            assert set(picked_high.ids()) <= set(picked_low.ids())
    announce(
        capsys, 5, "label assignment",
        f"{n} random vectors, {fallbacks} fallback hits, never empty, monotone",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_class_weights(capsys):
    total = 10_000

    def weight_of(count):
        return class_weights(np.full(N_CLASSES, count), total=total).values[0]

    assert weight_of(total) == 1.0
    assert abs(weight_of(100) - 1.25) < 1e-12
    assert abs(weight_of(10) - 2.125) < 1e-12

    grid = np.arange(2, total + 1, 2)
    ratio = np.log(grid) / np.log(total)
    sweep = 0.5 * (ratio + 1.0 / ratio)
    assert (np.diff(sweep) < 0).all()
    spot = [weight_of(int(v)) for v in grid[:: len(grid) // 50]]
    assert (np.diff(spot) < 0).all()

    rng = np.random.default_rng(6006)
    counts = rng.integers(0, 4000, size=N_CLASSES)
    natural = class_weights(counts, total=total).values
    clamped = np.maximum(counts, 2).astype(float)
    ratio10 = np.log10(clamped) / np.log10(total)
    base10 = 0.5 * (ratio10 + 1.0 / ratio10)
    assert np.abs(natural - base10).max() < 1e-12

    announce(
        capsys, 6, "class weights",
        "w(T)=1 exact, analytic cases within 1e-12, monotone, base-invariant",
    )


# ---------------------------------------------------------------- criterion 7


def _oracle_scores(preds, truths):
    """Per-sample scalar loop, the slowest possible correct implementation."""
    tp = [0] * N_CLASSES
    fp = [0] * N_CLASSES
    tn = [0] * N_CLASSES
    fn = [0] * N_CLASSES
    for p, t in zip(preds, truths):
        for c in range(N_CLASSES):
            if p.bits[c] and t.bits[c]:
                tp[c] += 1
            elif p.bits[c]:
                fp[c] += 1
            elif t.bits[c]:
                fn[c] += 1
            else:
                tn[c] += 1
    f1s = []
    accs = []
    for c in range(N_CLASSES):
        prec = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        rec = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        accs.append((tp[c] + tn[c]) / len(preds))
    return (tp, fp, tn, fn), sum(f1s) / N_CLASSES, sum(accs) / N_CLASSES


def test_criterion_7_metrics_oracle(capsys):
    rng = np.random.default_rng(7007)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        preds, truths = [], []
        for _ in range(n):
            p_mask = rng.random(N_CLASSES) < 0.25
            if not p_mask.any():
                p_mask[int(rng.integers(N_CLASSES))] = True
            t_mask = rng.random(N_CLASSES) < 0.25
            preds.append(LabelVector.from_mask(p_mask))
            truths.append(LabelVector.from_mask(t_mask))
        counts = confusion_counts(preds, truths)
        (tp, fp, tn, fn), oracle_f1, oracle_acc = _oracle_scores(preds, truths)
        assert counts.tp.tolist() == tp
        assert counts.fp.tolist() == fp
        assert counts.tn.tolist() == tn
        assert counts.fn.tolist() == fn
        assert abs(macro_f1(counts) - oracle_f1) < 1e-15
        assert abs(mean_accuracy(counts) - oracle_acc) < 1e-15
    announce(capsys, 7, "metrics oracle", "50 random sets, exact counts, scores to 1e-15")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_serialization(capsys, tmp_path):
    rng = np.random.default_rng(8008)

    emb = rng.standard_normal((2, 3)).astype(np.float32).astype(np.float64)
    emb_path = tmp_path / "e.femb"
    write_embeddings(emb, emb_path)
    np.testing.assert_array_equal(read_embeddings(emb_path), emb)
    emb_blob = emb_path.read_bytes()
    assert len(emb_blob) == 40
    scratch = tmp_path / "scratch.femb"
    for pos in range(len(emb_blob)):
        damaged = bytearray(emb_blob)
        damaged[pos] ^= 0xFF
        scratch.write_bytes(bytes(damaged))
        try:
            reread = read_embeddings(scratch)
        except FileFormatError:
            continue
        # flips inside the float payload are not detectable by the header;
        # they must still parse to the declared shape, never crash
        assert pos >= 16 and reread.shape == emb.shape
    for cut in range(len(emb_blob)):
        scratch.write_bytes(emb_blob[:cut])
        with pytest.raises(FileFormatError):
            read_embeddings(scratch)

    params = {
        name: rng.standard_normal(shape) * 0.1
        for name, shape in expected_param_shapes("cross_attn_fcnn").items()
    }
    model = FusionModel(kind="cross_attn_fcnn", params=params)
    text = rng.standard_normal((5, 128))
    image = rng.standard_normal((5, 1792))
    before = predict_logits(model, text, image)
    model_path = tmp_path / "m.fus1"
    save_model(model, model_path)
    loaded = load_model(model_path)
    for name in params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    np.testing.assert_array_equal(predict_logits(loaded, text, image), before)

    small = FusionModel(
        kind="text_linear",
        params={
            name: rng.standard_normal(shape) * 0.1
            for name, shape in expected_param_shapes("text_linear").items()
        },
    )
    small_path = tmp_path / "s.fus1"
    save_model(small, small_path)
    blob = small_path.read_bytes()
    corrupt = tmp_path / "c.fus1"
    for pos in range(len(blob)):
        damaged = bytearray(blob)
        damaged[pos] ^= 0xFF
        corrupt.write_bytes(bytes(damaged))
        with pytest.raises(FileFormatError):
            load_model(corrupt)

    announce(
        capsys, 8, "serialization",
        f"round trips bitwise, {len(blob)}-byte model sweep all typed errors",
    )


# ---------------------------------------------------------------- criterion 9


def _run_pipeline(root):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "mmfusion", *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    cli("gen-synthetic", "--seed", 5, "--n-train", 300, "--n-test", 80,
        "--n-val", 80, "--noise", 0.3, "--out", root / "data")
    for kind in ("text_linear", "vision_linear"):
        cli("train-head", "--train", root / "data" / "train",
            "--val", root / "data" / "val", "--kind", kind,
            "--lr", 0.01, "--max-epochs", 8, "--out", root / kind)
        cli("predict", "--model", root / kind / "model.fus1",
            "--data", root / "data" / "test", "--out", root / f"pred_{kind}")
    cli("fuse-logits",
        "--logits", root / "pred_text_linear" / "logits.femb",
        root / "pred_vision_linear" / "logits.femb",
        "--ids", root / "pred_text_linear" / "ids.csv",
        "--labels", root / "data" / "test" / "labels.csv",
        "--out", root / "fused")
    cli("evaluate", "--pred", root / "fused" / "predictions.csv",
        "--truth", root / "data" / "test" / "labels.csv", "--out", root / "eval")


def _stable_summary(path):
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith("wall_ms="))


def test_criterion_9_pipeline_determinism(capsys, tmp_path):
    runs = (tmp_path / "run_a", tmp_path / "run_b")
    for root in runs:
        root.mkdir()
        _run_pipeline(root)

    compared = 0
    byte_identical = [
        "data/train/text.femb", "data/train/labels.csv",
        "text_linear/model.fus1", "text_linear/history.csv",
        "vision_linear/model.fus1", "vision_linear/history.csv",
        "pred_text_linear/predictions.csv", "pred_text_linear/logits.femb",
        "pred_vision_linear/predictions.csv", "pred_vision_linear/logits.femb",
        "fused/predictions.csv", "fused/logits.femb",
    ]
    for rel in byte_identical:
        a = (runs[0] / rel).read_bytes()
        b = (runs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared += 1
    for rel in ("data", "text_linear", "vision_linear",
                "pred_text_linear", "pred_vision_linear", "fused", "eval"):
        a = _stable_summary(runs[0] / rel / "summary.txt")
        b = _stable_summary(runs[1] / rel / "summary.txt")
        assert a == b, f"{rel}/summary.txt differs beyond wall_ms"
        compared += 1

    announce(
        capsys, 9, "pipeline determinism",
        f"{compared} artifacts byte-identical across two runs (wall_ms excluded)",
    )
