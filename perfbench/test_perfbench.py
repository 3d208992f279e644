"""Checks of the benchmark's own parts: the MAC table and the traced replays.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

import mmfusion.tensor as tensor_mod
from mmfusion import TrainConfig, gen_synthetic, pseudo_label_loop, train_head
from mmfusion.fusion import HEAD_KINDS, head_forward_batch
from mmfusion.training import init_head_params

import replay
from macs import MAC_TABLE
from tracer import Tracer


def test_mac_table_is_pinned():
    assert MAC_TABLE == {
        "vision_linear": 32_256,
        "text_linear": 2_304,
        "concat_fcnn": 34_560,
        "cross_attn_fcnn": 515_584,
    }


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_mac_table_matches_counted_matmuls(kind, monkeypatch):
    counted = []
    plain = tensor_mod.matmul

    def counting(a, b):
        out = plain(a, b)
        counted.append(out.data.size * a.shape[-1])  # every output element is one dot product
        return out

    monkeypatch.setattr(tensor_mod, "matmul", counting)
    rows = 3
    rng = np.random.default_rng(0)
    head_forward_batch(kind, init_head_params(kind, 0), rng.standard_normal((rows, 128)),
                       rng.standard_normal((rows, 1792)))
    assert sum(counted) == rows * MAC_TABLE[kind]


@pytest.fixture(scope="module")
def splits():
    return gen_synthetic(seed=7, n_train=150, n_test=120, n_val=60, noise=0.3)


def test_train_head_replay_is_bitwise(splits):
    train, _, val = splits
    cfg = TrainConfig(lr=1e-2, max_epochs=3, patience=1, seed=3)
    for kind in HEAD_KINDS:
        tr = Tracer()
        got = replay.train_head(tr, train, val, kind, cfg)
        want = train_head(train, val, kind, cfg).model
        assert replay.same_models({kind: got}, {kind: want})
        steps = len(tr.spans("training.adam_step"))
        assert steps == len(tr.spans("tensor.backward")) and steps >= 3 * 2


def test_pseudo_label_loop_replay_is_bitwise(splits):
    train, pool, val = splits
    cfg = TrainConfig(lr=1e-2, max_epochs=2, patience=2, seed=1,
                      fusion_set=("vision_linear", "text_linear", "concat_fcnn"))
    tr = Tracer()
    got = replay.pseudo_label_loop(tr, train, pool, val, cfg, 2, 1e-4)
    want = pseudo_label_loop(train, pool.without_labels(), val, cfg, max_rounds=2, eps=1e-4)
    assert replay.same_models(got, want.models)
    assert tr.spans("data_io.merge")


def test_spans_nest_under_their_caller():
    tr = Tracer()
    with tr.span("outer"):
        tr.call("inner", sum, [1, 2], rows=2)
    (outer,), (inner,) = tr.spans("outer"), tr.spans("inner")
    assert outer.parent is None and inner.parent == outer.id
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert inner.attrs == {"rows": 2}


def test_escaped_exception_fails_one_operation_once():
    from workloads import Ops

    ops = Ops()
    with pytest.raises(ValueError) as inside:
        with ops.op("call"):
            raise ValueError("inside")
    ops.uncaught(inside.value)  # already counted by ``op``
    ops.uncaught(KeyError("outside"))
    assert ops.attempted == 2
    assert ops.failures == ["call: ValueError('inside')", "iteration: KeyError('outside')"]
