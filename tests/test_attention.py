"""Self/cross attention forwards and gradients."""

import math

import numpy as np
import pytest

from mmfusion.attention import (
    AttentionParams,
    _attend,
    cross_attention,
    self_attention,
)
from mmfusion.errors import ShapeError
from mmfusion.tensor import Tensor, grad_check, layer_norm


@pytest.fixture
def rng():
    return np.random.default_rng(404)


def softmax_1d(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def attention_weights(xq, ykv, params):
    """The softmax matrix A that query rows ``xq`` put on key rows ``ykv``."""
    return _attend(Tensor(xq), Tensor(ykv), params)[1].data


def self_attention_oracle(x, wq, wk, wv):
    q, k, v = x @ wq, x @ wk, x @ wv
    scores = q @ k.T / math.sqrt(wq.shape[1])
    weights = np.stack([softmax_1d(row) for row in scores])
    return weights @ v, weights


class TestSelfAttention:
    def test_single_token_identity(self):
        params = AttentionParams(wq=np.eye(1), wk=np.eye(1), wv=np.eye(1))
        out = self_attention(Tensor(np.array([[1.0]])), params)
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-15)

    def test_identical_rows_attend_uniformly(self, rng):
        row = rng.standard_normal(4)
        x = np.tile(row, (3, 1))
        params = AttentionParams(
            wq=rng.standard_normal((4, 2)),
            wk=rng.standard_normal((4, 2)),
            wv=rng.standard_normal((4, 4)),
        )
        weights = attention_weights(x, x, params)
        np.testing.assert_allclose(weights, np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_matches_stepwise_oracle(self, rng):
        x = rng.standard_normal((3, 4))
        wq = rng.standard_normal((4, 3))
        wk = rng.standard_normal((4, 3))
        wv = rng.standard_normal((4, 5))
        params = AttentionParams(wq=wq, wk=wk, wv=wv)
        out = self_attention(Tensor(x), params)
        expected_out, expected_w = self_attention_oracle(x, wq, wk, wv)
        np.testing.assert_allclose(out.data, expected_out, atol=1e-12)
        np.testing.assert_allclose(attention_weights(x, x, params), expected_w, atol=1e-12)

    def test_weight_rows_are_distributions(self, rng):
        x = rng.standard_normal((6, 4)) * 3.0
        params = AttentionParams(
            wq=rng.standard_normal((4, 2)),
            wk=rng.standard_normal((4, 2)),
            wv=rng.standard_normal((4, 4)),
        )
        weights = attention_weights(x, x, params)
        assert np.all(weights > 0.0) and np.all(weights < 1.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_positive_query_scaling_keeps_argmax(self, rng):
        x = rng.standard_normal((5, 4))
        wq = rng.standard_normal((4, 3))
        wk = rng.standard_normal((4, 3))
        scores = (x @ wq) @ (x @ wk).T
        scaled = (x @ (wq * 4.5)) @ (x @ wk).T
        np.testing.assert_array_equal(scores.argmax(axis=1), scaled.argmax(axis=1))

    def test_width_mismatch_rejected(self, rng):
        params = AttentionParams(
            wq=np.zeros((5, 2)), wk=np.zeros((5, 2)), wv=np.zeros((5, 5))
        )
        with pytest.raises(ShapeError):
            self_attention(Tensor(np.zeros((2, 4))), params)

    def test_gradients_flow_to_every_projection(self, rng):
        x = rng.standard_normal((3, 4))
        shapes = {"wq": (4, 3), "wk": (4, 3), "wv": (4, 4)}
        base = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        probe = Tensor(np.arange(1.0, 13.0).reshape(3, 4))
        for name in shapes:
            def f(theta, vary=name):
                arrays = {k: (theta if k == vary else Tensor(v)) for k, v in base.items()}
                out = self_attention(Tensor(x), AttentionParams(**arrays))
                return (out * probe).sum()

            assert grad_check(f, base[name]) < 1e-4


class TestCrossAttention:
    def _identity_params(self, d):
        return AttentionParams(
            wq=np.eye(d), wk=np.eye(d), wv=np.eye(d), ln_gain=np.ones(d), ln_bias=np.zeros(d)
        )

    def test_hand_worked_two_key_case(self):
        xq = np.array([[1.0, 0.0]])
        ykv = np.array([[1.0, 0.0], [1.0, 0.0]])
        params = self._identity_params(2)
        out = cross_attention(Tensor(xq), Tensor(ykv), params)
        np.testing.assert_allclose(attention_weights(xq, ykv, params), [[0.5, 0.5]], atol=1e-15)
        # mixed row [1, 0] plus the query gives [2, 0]; normalising gives +-1/sqrt(1+eps)
        unit = 1.0 / math.sqrt(1.0 + 1e-5)  # layer_norm's eps
        np.testing.assert_allclose(out.data, [[unit, -unit]], atol=1e-12)

    def test_zero_values_reduce_to_normalised_query(self, rng):
        xq = rng.standard_normal((3, 4))
        params = AttentionParams(
            wq=rng.standard_normal((4, 2)),
            wk=rng.standard_normal((5, 2)),
            wv=np.zeros((5, 4)),
            ln_gain=np.ones(4),
            ln_bias=np.zeros(4),
        )
        out = cross_attention(Tensor(xq), Tensor(rng.standard_normal((6, 5))), params)
        expected = layer_norm(Tensor(xq), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_key_row_swap_is_bitwise_invariant(self, rng):
        # two key rows: both the softmax denominator and the value mix are
        # two-term sums, and float addition of two terms commutes exactly
        xq = rng.standard_normal((2, 3))
        ykv = rng.standard_normal((2, 4))
        params = AttentionParams(
            wq=rng.standard_normal((3, 2)),
            wk=rng.standard_normal((4, 2)),
            wv=rng.standard_normal((4, 3)),
            ln_gain=rng.standard_normal(3),
            ln_bias=rng.standard_normal(3),
        )
        out_a = cross_attention(Tensor(xq), Tensor(ykv), params)
        out_b = cross_attention(Tensor(xq), Tensor(ykv[::-1]), params)
        np.testing.assert_array_equal(out_a.data, out_b.data)
        w_a = attention_weights(xq, ykv, params)
        w_b = attention_weights(xq, ykv[::-1], params)
        np.testing.assert_array_equal(w_a, w_b[:, ::-1])

    def test_key_permutation_invariance_to_tolerance(self, rng):
        xq = rng.standard_normal((3, 4))
        ykv = rng.standard_normal((8, 5))
        params = AttentionParams(
            wq=rng.standard_normal((4, 3)),
            wk=rng.standard_normal((5, 3)),
            wv=rng.standard_normal((5, 4)),
            ln_gain=rng.standard_normal(4),
            ln_bias=rng.standard_normal(4),
        )
        perm = rng.permutation(8)
        out_a = cross_attention(Tensor(xq), Tensor(ykv), params)
        out_b = cross_attention(Tensor(xq), Tensor(ykv[perm]), params)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_value_width_must_match_query_width(self, rng):
        params = AttentionParams(
            wq=np.zeros((4, 2)),
            wk=np.zeros((5, 2)),
            wv=np.zeros((5, 3)),
            ln_gain=np.ones(3),
            ln_bias=np.zeros(3),
        )
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((6, 5))), params)

    def test_gradients_flow_to_every_parameter(self, rng):
        xq = rng.standard_normal((2, 4))
        ykv = rng.standard_normal((3, 5))
        shapes = {
            "wq": (4, 3),
            "wk": (5, 3),
            "wv": (5, 4),
            "ln_gain": (4,),
            "ln_bias": (4,),
        }
        base = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        probe = Tensor(np.arange(1.0, 9.0).reshape(2, 4))
        for name in shapes:
            def f(theta, vary=name):
                arrays = {k: (theta if k == vary else Tensor(v)) for k, v in base.items()}
                out = cross_attention(Tensor(xq), Tensor(ykv), AttentionParams(**arrays))
                return (out * probe).sum()

            assert grad_check(f, base[name]) < 1e-4

    def test_batch_axis_matches_per_sample_calls(self, rng):
        n, t = 3, 4
        xq = rng.standard_normal((n, 2, 4))
        ykv = rng.standard_normal((n, t, 5))
        probe = rng.standard_normal((n, 2, 4))
        base = {
            "wq": rng.standard_normal((4, 3)),
            "wk": rng.standard_normal((5, 3)),
            "wv": rng.standard_normal((5, 4)),
            "ln_gain": rng.standard_normal(4),
            "ln_bias": rng.standard_normal(4),
        }

        def run(q, kv, p):
            leaves = {k: Tensor(v, requires_grad=True) for k, v in base.items()}
            out = cross_attention(Tensor(q), Tensor(kv), AttentionParams(**leaves))
            (out * Tensor(p)).sum().backward()
            weights = attention_weights(q, kv, AttentionParams(**base))
            return out.data, weights, {k: v.grad for k, v in leaves.items()}

        out, weights, grads = run(xq, ykv, probe)
        assert out.shape == (n, 2, 4) and weights.shape == (n, 2, t)
        summed = {k: np.zeros_like(v) for k, v in base.items()}
        for i in range(n):
            out_i, weights_i, grads_i = run(xq[i], ykv[i], probe[i])
            np.testing.assert_array_equal(out[i], out_i)
            np.testing.assert_array_equal(weights[i], weights_i)
            for k in summed:
                summed[k] += grads_i[k]
        for k in summed:
            assert np.abs(grads[k] - summed[k]).max() <= 1e-12 * np.abs(summed[k]).max(), k

    def test_batch_axes_must_match(self):
        params = self._identity_params(2)
        for xq, ykv in (
            (np.zeros((3, 1, 2)), np.zeros((2, 4, 2))),
            (np.zeros((3, 1, 2)), np.zeros((4, 2))),
            (np.zeros((1, 2)), np.zeros((3, 4, 2))),
        ):
            with pytest.raises(ShapeError):
                cross_attention(Tensor(xq), Tensor(ykv), params)


def _np_softmax(s):
    # the operations of tensor.softmax_rows, so the bits can be compared
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_project(x, w):
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _np_weight_grad(x, g):
    # the gradient of w in _np_project(x, w), summed over every row
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def reference_attention(xq, ykv, p, probe, residual):
    """Forward and gradients of ``sum(probe * out)`` through the materialised chain.

    ``out`` is ``A V`` (``residual=False``, self-attention) or
    ``layer_norm(A V + xq)``; K and V, and their gradients, are built as
    [.., t_kv, d] arrays: ``dK = Gᵀ Q``, ``dWk = Yᵀ dK``, ``dV = Aᵀ G'``,
    ``dWv = Yᵀ dV``.
    """
    def swap(m):
        return np.swapaxes(m, -1, -2)

    scale = 1.0 / math.sqrt(p["wq"].shape[1])
    q, k, v = _np_project(xq, p["wq"]), _np_project(ykv, p["wk"]), _np_project(ykv, p["wv"])
    a = _np_softmax((q @ swap(k)) * scale)
    attended = a @ v
    grads = {}
    if residual:
        r = attended + xq
        mu, var = r.mean(axis=-1, keepdims=True), r.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)  # layer_norm's eps
        xhat = (r - mu) * inv
        lead = tuple(range(r.ndim - 1))
        grads["ln_gain"] = (probe * xhat).sum(axis=lead)
        grads["ln_bias"] = probe.sum(axis=lead)
        dxhat = probe * p["ln_gain"]
        d_att = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                 - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    else:
        d_att = probe
    d_a = d_att @ swap(v)
    d_scores = (d_a - (d_a * a).sum(axis=-1, keepdims=True)) * a * scale
    d_q, d_k, d_v = d_scores @ k, swap(d_scores) @ q, swap(a) @ d_att
    grads["wq"] = _np_weight_grad(xq, d_q)
    grads["wk"] = _np_weight_grad(ykv, d_k)
    grads["wv"] = _np_weight_grad(ykv, d_v)
    grads["xq"] = d_q @ p["wq"].T + (d_att if residual else 0.0)
    grads["ykv"] = d_k @ p["wk"].T + d_v @ p["wv"].T
    return attended, grads


def assert_gradients_match(got, want):
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        assert np.abs(got[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


class TestReassociatedBackward:
    """The key and value weights get their gradients without dK or dV; the forward keeps its bits."""

    @pytest.mark.parametrize("t_q", [1, 3])
    @pytest.mark.parametrize("batch", [(), (4,)], ids=["unbatched", "batched"])
    def test_cross_attention_matches_the_materialised_chain(self, t_q, batch, rng):
        d_x, d_y, d_k, t_kv = 6, 5, 3, 7
        base = {
            "wq": rng.standard_normal((d_x, d_k)),
            "wk": rng.standard_normal((d_y, d_k)),
            "wv": rng.standard_normal((d_y, d_x)),
            "ln_gain": rng.standard_normal(d_x),
            "ln_bias": rng.standard_normal(d_x),
        }
        xq = rng.standard_normal(batch + (t_q, d_x))
        ykv = rng.standard_normal(batch + (t_kv, d_y))
        probe = rng.standard_normal(batch + (t_q, d_x))
        leaves = {k: Tensor(v, requires_grad=True) for k, v in base.items()}
        tq, tkv = Tensor(xq, requires_grad=True), Tensor(ykv, requires_grad=True)
        params = AttentionParams(**leaves)
        (cross_attention(tq, tkv, params) * Tensor(probe)).sum().backward()

        attended, want = reference_attention(xq, ykv, base, probe, residual=True)
        np.testing.assert_array_equal(_attend(Tensor(xq), Tensor(ykv), params)[0].data, attended)
        got = {k: leaf.grad for k, leaf in leaves.items()}
        assert_gradients_match({**got, "xq": tq.grad, "ykv": tkv.grad}, want)

    @pytest.mark.parametrize("t", [1, 3])
    def test_self_attention_matches_the_materialised_chain(self, t, rng):
        # x is both the query and the key/value source, so its gradient sums three paths
        d_x, d_k, d_v = 5, 3, 4
        base = {
            "wq": rng.standard_normal((d_x, d_k)),
            "wk": rng.standard_normal((d_x, d_k)),
            "wv": rng.standard_normal((d_x, d_v)),
        }
        x = rng.standard_normal((t, d_x))
        probe = rng.standard_normal((t, d_v))
        leaves = {k: Tensor(v, requires_grad=True) for k, v in base.items()}
        tx = Tensor(x, requires_grad=True)
        out = self_attention(tx, AttentionParams(**leaves))
        (out * Tensor(probe)).sum().backward()

        attended, want = reference_attention(x, x, base, probe, residual=False)
        np.testing.assert_array_equal(out.data, attended)
        got = {k: leaf.grad for k, leaf in leaves.items()}
        want["x"] = want.pop("xq") + want.pop("ykv")
        assert_gradients_match({**got, "x": tx.grad}, want)
