"""Dense float64 tensors with reverse-mode gradients and a finite-difference checker.

Every tensor wraps a float64 ndarray.  Ops never mutate their inputs; when an
input was created with ``requires_grad=True`` (or depends on one that was),
the op records a closure that maps the output gradient back onto that input.
Calling :meth:`Tensor.backward` on a scalar result adds the gradient into
``.grad`` of every reachable gradient-requiring leaf; a computed tensor's
``.grad`` stays None.

Every op builds its result through :func:`_node`, and so do the layers whose
backward is cheaper as one piece: ``attention._read_tokens`` and ``fusion._final_layer``.
Every gradient has its tensor's shape, or :meth:`Tensor.backward` raises
:class:`ShapeError` naming both, so ``+``, ``*`` and ``@`` broadcast only
operands needing no gradient, such as the constant in ``scores * scale``.

All arithmetic runs in float64: a tensor widens what it wraps through
:func:`errors._float64`, such as a dataset's float32 embedding block or a
model's float32 parameters, which is exact.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericError, ShapeError, _float64

Array = np.ndarray

# added to the variance inside layer_norm's square root
LAYER_NORM_EPS = 1e-5


def as_tensor(value) -> "Tensor":
    """Wrap ``value`` in a Tensor; pass existing tensors through untouched."""
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_links")

    # numpy defers to us in mixed expressions: an ndarray on the left of an
    # operator raises TypeError instead of building an object array
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _links: Sequence = ()):
        self.data: Array = _float64(data, "tensor data")
        self.grad: Array | None = None
        self._links = tuple(_links)
        self.requires_grad = bool(requires_grad) or bool(self._links)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def backward(self) -> None:
        """Backpropagate from a scalar, accumulating into ``.grad`` of the leaves.

        Only leaves, the tensors without links, keep ``.grad``, adding each
        pass to what earlier passes left.  A computed tensor's gradient lives
        for one pass, so a second pass through it counts the first one once.
        A pulled gradient whose shape is not its parent's raises ShapeError.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._links:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # this pass's gradient of each node; only a leaf keeps its own, in .grad
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._links:
                node.grad = g if node.grad is None else node.grad + g
            for parent, pull in node._links:
                piece = pull(g)
                if piece.shape != parent.data.shape:
                    raise ShapeError(f"gradient of shape {piece.shape} pulled into a tensor "
                                     f"of shape {parent.data.shape}")
                grads[id(parent)] = grads[id(parent)] + piece if id(parent) in grads else piece

    # arithmetic sugar

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    # shape ops

    def reshape(self, *shape: int) -> "Tensor":
        """The values in ``shape``, given as ints; one that does not fit, or a tuple, is a ShapeError."""
        src = self.data.shape
        try:
            data = self.data.reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"cannot reshape {src} to {shape}") from exc
        return _node(data, (self, lambda g: g.reshape(src)))

    def sum(self) -> "Tensor":
        """Sum of every element, as a scalar tensor."""
        src = self.data.shape
        return _node(self.data.sum(), (self, lambda g: np.broadcast_to(g, src)))


def _node(data, *links: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """An op's result: ``data``, linked to each ``(parent, pull)`` whose parent needs a gradient."""
    return Tensor(data, _links=[link for link in links if link[0].requires_grad])


def _binary(a, b, forward, pull_a, pull_b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = forward(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from exc
    return _node(data, (a, lambda g: pull_a(g, b.data)), (b, lambda g: pull_b(g, a.data)))


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, y: g, lambda g, x: g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, y: g * y, lambda g, x: g * x)


def matmul(a, b) -> Tensor:
    """Matrix product; rank >= 2 on both sides, leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    return _binary(a, b, np.matmul,
                   lambda g, y: g @ np.swapaxes(y, -1, -2),
                   lambda g, x: np.swapaxes(x, -1, -2) @ g)


def _sigmoid_values(d: Array) -> Array:
    # exp of minus the magnitude never overflows: 1/(1+e^-d) at d >= 0, e^d/(1+e^d) below;
    # np.minimum returns d itself where d is NaN, so a NaN keeps its sign
    ex = np.exp(np.minimum(d, -d))
    den = 1.0 + ex
    return np.where(d >= 0.0, 1.0 / den, ex / den)


# each element-wise nonlinearity: its value at the input d, and its slope at d given the value y
_ACTIVATIONS = {
    "sigmoid": (_sigmoid_values, lambda d, y: y * (1.0 - y)),
    "relu": (lambda d: np.maximum(d, 0.0), lambda d, y: (d > 0.0).astype(np.float64)),
    "relu6": (lambda d: np.clip(d, 0.0, 6.0),
              lambda d, y: ((d > 0.0) & (d < 6.0)).astype(np.float64)),
    # x * relu6(x + 3) / 6: zero below -3, identity above +3
    "hswish": (lambda d: d * np.clip(d + 3.0, 0.0, 6.0) / 6.0,
               lambda d, y: np.clip(d + 3.0, 0.0, 6.0) / 6.0
               + d * ((d > -3.0) & (d < 3.0)).astype(np.float64) / 6.0),
}

ACTIVATION_KINDS = tuple(_ACTIVATIONS)


def activation(kind: str, x) -> Tensor:
    """Apply the element-wise nonlinearity named ``kind``, one of :data:`ACTIVATION_KINDS`;
    its backward scales the gradient by the kind's slope."""
    if not isinstance(kind, str) or kind not in _ACTIVATIONS:
        raise DomainError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")
    value, slope = _ACTIVATIONS[kind]
    x = as_tensor(x)
    y = value(x.data)
    return _node(y, (x, lambda g: g * slope(x.data, y)))


def softmax_rows(m) -> Tensor:
    """Row-wise softmax along the last axis, stabilised by the row max."""
    t = as_tensor(m)
    if t.ndim < 2:
        raise ShapeError(f"softmax_rows needs rank >= 2, got {t.shape}")
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _node(s, (t, lambda g: (g - (g * s).sum(axis=-1, keepdims=True)) * s))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalise the last axis to zero mean and unit population variance, then scale and shift.

    The variance is taken with ``LAYER_NORM_EPS`` added, so a constant row maps to ``bias``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1] if x.ndim else 0
    if d < 2:
        raise ShapeError(f"layer_norm needs a last axis of size >= 2, got shape {x.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = gain.data * xhat + bias.data

    def pull_x(g: Array) -> Array:
        dxhat = g * gain.data
        return (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv

    lead = tuple(range(out.ndim - 1))
    return _node(
        out,
        (x, pull_x),
        (gain, lambda g: (g * xhat).sum(axis=lead)),
        (bias, lambda g: g.sum(axis=lead)),
    )


def grad_check(f, x, coords: Sequence[int] | None = None) -> float:
    """Compare the analytic gradient of scalar ``f`` at array ``x`` against central differences.

    ``f`` takes a Tensor and must return a scalar Tensor.  Each coordinate
    is probed at a step of 1e-5 either side.  Returns the max over checked
    coordinates of ``|a - n| / max(1e-8, |a| + |n|)``.  ``coords`` limits
    the sweep to a subset of flat indices; by default every coordinate is
    probed.
    """
    x0 = _float64(x, "grad_check point")
    leaf = Tensor(x0, requires_grad=True)
    out = f(leaf)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("grad_check needs f to return a scalar tensor")
    center = float(out.data)
    if not np.isfinite(center):
        raise NumericError(f"f(x) is not finite at the evaluation point: {center}")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x0)

    def probe(values: Array) -> float:
        result = f(Tensor(values))
        value = float(result.data)
        if not np.isfinite(value):
            raise NumericError("f(x) is not finite at a perturbed point")
        return value

    h = 1e-5
    flat = x0.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    worst = 0.0
    for i in indices:
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        fp = probe(bumped.reshape(x0.shape))
        bumped[i] = flat[i] - h
        fm = probe(bumped.reshape(x0.shape))
        numeric = (fp - fm) / (2.0 * h)
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if err > worst:
            worst = err
    return worst
