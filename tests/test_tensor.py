"""Tensor core: arithmetic, activations, normalisation, gradient checking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfusion.errors import DomainError, NumericError, ShapeError
from mmfusion.tensor import (
    ACTIVATION_KINDS,
    Tensor,
    _node,
    activation,
    add,
    grad_check,
    layer_norm,
    matmul,
    mul,
    softmax_rows,
)
from mmfusion.training import bce_loss_node, uniform_weights


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product, no vectorisation."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((4, 4))
        out = matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a)

    def test_column_selector(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        pick_second = np.array([[0.0], [1.0]])
        out = matmul(Tensor(a), Tensor(pick_second))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=0, atol=1e-12)

    def test_batched_matches_per_slice(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        for s in range(5):
            np.testing.assert_allclose(out[s], matmul_oracle(a[s], b), atol=1e-12)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestActivations:
    def test_hswish_saturation(self):
        x = Tensor(np.array([0.0, 6.0, -4.0, 1.0]))
        out = activation("hswish", x).data
        np.testing.assert_allclose(out, [0.0, 6.0, 0.0, 4.0 / 6.0], atol=0)

    def test_hswish_identity_above_three(self, rng):
        x = rng.uniform(3.0, 50.0, size=32)
        np.testing.assert_allclose(activation("hswish", Tensor(x)).data, x, rtol=1e-15)

    def test_sigmoid_midpoint_and_extremes(self):
        out = activation("sigmoid", Tensor(np.array([0.0, 800.0, -800.0]))).data
        assert out[0] == 0.5
        assert 0.0 < out[2] < 1e-300 or out[2] == 0.0
        assert out[1] == 1.0 or (1.0 - out[1]) < 1e-300
        assert np.all(np.isfinite(out))

    def test_sigmoid_matches_the_masked_two_branch_form(self):
        # reference: each sign's branch computed on its own elements only
        d = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                             800.0, -800.0], np.linspace(-40.0, 40.0, 801)])
        expected = np.empty_like(d)
        pos = d >= 0.0
        expected[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert activation("sigmoid", Tensor(d)).data.tobytes() == expected.tobytes()

    def test_relu6_clips(self):
        out = activation("relu6", Tensor(np.array([7.0, -1.0, 3.0]))).data
        np.testing.assert_array_equal(out, [6.0, 0.0, 3.0])

    def test_relu_basic(self):
        out = activation("relu", Tensor(np.array([-2.0, 0.0, 2.0]))).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            activation("gelu", Tensor(np.zeros(3)))

    @pytest.mark.parametrize("kind", [["relu"], np.array(["relu"])], ids=["list", "ndarray"])
    def test_kind_that_is_not_a_str_is_unknown(self, kind):
        # a list is unhashable, and an array would compare element-wise with each key
        with pytest.raises(DomainError, match="^unknown activation"):
            activation(kind, Tensor(np.zeros(3)))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_finite_in_finite_out(self, values):
        x = Tensor(np.array(values))
        for kind in ACTIVATION_KINDS:
            assert np.all(np.isfinite(activation(kind, x).data))

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-1.0, 1.0).filter(lambda d: d != 0.0),
    )
    def test_hswish_lipschitz(self, x, delta):
        # slope peaks at 1.5 just below x = 3, comfortably under 2.5
        a = float(activation("hswish", Tensor(np.array([x]))).data[0])
        b = float(activation("hswish", Tensor(np.array([x + delta]))).data[0])
        assert abs(b - a) <= 2.5 * abs(delta) + 1e-12


class TestSoftmaxRows:
    def test_uniform_rows(self):
        out = softmax_rows(Tensor(np.array([[0.0, 0.0], [1000.0, 1000.0]]))).data
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_log_three_row(self):
        out = softmax_rows(Tensor(np.array([[0.0, math.log(3.0)]]))).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((5, 7))
        base = softmax_rows(Tensor(m)).data
        shifted = softmax_rows(Tensor(m + 3.0)).data
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(Tensor(np.zeros(4)))

    @given(
        st.lists(
            st.lists(st.floats(-700.0, 700.0), min_size=2, max_size=6),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60)
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(Tensor(np.array(rows))).data
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestLayerNorm:
    def test_two_point_row(self):
        out = layer_norm(Tensor(np.array([2.0, 0.0])), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # unit variance, shrunk by the eps that layer_norm adds under the root
        unit = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [unit, -unit], atol=1e-15)

    def test_constant_input_collapses_to_bias(self):
        bias = np.array([3.0, 4.0, 5.0])
        out = layer_norm(Tensor(np.full(3, 7.0)), Tensor(np.ones(3)), Tensor(bias))
        np.testing.assert_allclose(out.data, bias, atol=1e-9)

    def test_matches_manual_oracle(self, rng):
        x = rng.standard_normal(8)
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        eps = 1e-5
        mu = sum(x) / 8.0
        var = sum((v - mu) ** 2 for v in x) / 8.0
        expected = gain * ((x - mu) / math.sqrt(var + eps)) + bias
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.array([1.0])), Tensor(np.ones(1)), Tensor(np.zeros(1)))


class TestAutodiffPlumbing:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = (x * 2.0 + x * 5.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_second_pass_through_a_shared_intermediate_counts_once(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 3.0
        y.sum().backward()
        (y * 1.0).sum().backward()
        # the leaf adds both passes; the intermediate keeps no gradient between them
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))
        assert y.grad is None

    @pytest.mark.parametrize("op", [add, mul, matmul])
    def test_broadcast_operand_needing_a_gradient_raises(self, op):
        shared = Tensor(np.ones((3, 3)), requires_grad=True)
        stacked = Tensor(np.ones((2, 3, 3)))
        out = op(stacked, shared).sum()
        with pytest.raises(ShapeError, match=r"shape \(2, 3, 3\).*shape \(3, 3\)"):
            out.backward()
        assert shared.grad is None

    def test_broadcast_constant_stays_out_of_the_check(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x * 0.5 + Tensor(np.ones(3))).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 0.5))

    @pytest.mark.parametrize("shape", [(4,), ((2, 3),)], ids=["wrong-size", "one-tuple"])
    def test_reshape_takes_a_fitting_shape_as_its_arguments(self, shape):
        with pytest.raises(ShapeError, match=r"cannot reshape \(6,\)"):
            Tensor(np.ones(6)).reshape(*shape)

    def test_custom_pull_of_the_wrong_shape_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        node = _node(np.ones(()), (x, lambda g: np.ones(3)))
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
            node.backward()


# every op, as (input shapes, the op over one tensor per shape)
OPS = {
    "add": ([(2, 3), (2, 3)], lambda a, b: a + b),
    "mul": ([(2, 3), (2, 3)], lambda a, b: a * b),
    "matmul": ([(2, 3), (3, 4)], lambda a, b: a @ b),
    "reshape": ([(2, 3)], lambda a: a.reshape(3, 2)),
    "sum": ([(2, 3)], lambda a: a.sum()),
    **{kind: ([(2, 3)], lambda a, kind=kind: activation(kind, a)) for kind in ACTIVATION_KINDS},
    "softmax_rows": ([(2, 3)], softmax_rows),
    "layer_norm": ([(2, 3), (3,), (3,)], layer_norm),
    "bce_loss_node": (
        [(2, 18)],
        lambda z: bce_loss_node(z, np.eye(2, 18), uniform_weights()),
    ),
}


class TestConstantsStayOutOfTheGraph:
    @pytest.mark.parametrize("name", OPS)
    def test_all_constant_inputs_give_a_constant(self, name, rng):
        shapes, op = OPS[name]
        out = op(*(Tensor(rng.standard_normal(shape)) for shape in shapes))
        assert not out.requires_grad

    @pytest.mark.parametrize(
        "name, leaf", [(name, i) for name, (shapes, _) in OPS.items() for i in range(len(shapes))]
    )
    def test_backward_fills_only_the_leaf(self, name, leaf, rng):
        shapes, op = OPS[name]
        inputs = [
            Tensor(rng.standard_normal(shape), requires_grad=i == leaf)
            for i, shape in enumerate(shapes)
        ]
        out = op(*inputs)
        assert out.requires_grad
        out.sum().backward()
        for i, t in enumerate(inputs):
            if i == leaf:
                assert t.grad is not None and t.grad.shape == t.shape
            else:
                assert t.grad is None


class TestGradCheck:
    def test_sum_of_sigmoid_is_tight(self, rng):
        x = rng.standard_normal(10)
        err = grad_check(lambda t: activation("sigmoid", t).sum(), x)
        assert err < 1e-6

    def test_linear_function_is_exact(self, rng):
        w = rng.standard_normal(10)
        err = grad_check(lambda t: (t * Tensor(w)).sum(), rng.standard_normal(10))
        assert err < 1e-10

    def test_every_op_small_points(self, rng):
        checks = [
            lambda t: activation("relu", t).sum(),
            lambda t: activation("relu6", t).sum(),
            lambda t: activation("hswish", t).sum(),
            lambda t: activation("sigmoid", t).sum(),
            # weight the entries: the plain sum of a softmax row is constant 1
            lambda t: (softmax_rows(t.reshape(2, 5)) * Tensor(np.arange(10.0).reshape(2, 5))).sum(),
            lambda t: layer_norm(
                t.reshape(2, 5), Tensor(np.arange(1.0, 6.0)), Tensor(np.zeros(5))
            ).sum(),
            lambda t: (t.reshape(2, 5) @ Tensor(np.linspace(0.5, 2.0, 15).reshape(5, 3))).sum(),
        ]
        for f in checks:
            for _ in range(3):
                err = grad_check(f, rng.standard_normal(10) * 2.0)
                assert err < 1e-4

    def test_non_finite_point_raises(self):
        with pytest.raises(NumericError):
            grad_check(lambda t: (t * math.inf).sum(), np.array([1.0]))

    def test_coordinate_subset(self, rng):
        x = rng.standard_normal(40)
        err = grad_check(lambda t: activation("hswish", t).sum(), x, coords=[0, 7, 39])
        assert err < 1e-6
