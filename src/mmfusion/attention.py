"""Scaled dot-product attention over embedding rows.

Self-attention projects one sequence into queries, keys, and values.
Cross-attention lets one sequence (the queries) read another (the key/value
source); its output adds the query back in and layer-normalises each row, so
the value width must equal the query width.  It also takes a leading batch
axis, so a whole batch of samples attends in one call.

Both run on :class:`mmfusion.tensor.Tensor`, so gradients flow to every
projection matrix when the inputs require them, and both return only their
output; the attention weights come from their shared core, :func:`_attend`.

The key and value sides each run as one node, :func:`_read_tokens`, whose
forward computes ``K = Y Wk``, ``V = Y Wv`` and the products with them as
written, and whose backward is re-associated.  With ``Y`` the key/value
rows, ``Q`` the queries, ``A`` the attention weights, ``G`` the gradient of
the scores ``Q Kᵀ`` and ``G'`` that of the output ``A V``, the weights get
``dWk = (G Y)ᵀ Q`` and ``dWv = (A Y)ᵀ G'``, each one GEMM over every query
row, and ``Y`` gets ``Gᵀ (Q Wkᵀ) + Aᵀ (G' Wvᵀ)`` only when it needs a
gradient.  So no [.., t_kv, d] gradient of ``K`` or ``V`` is built: with one
query row per sample and 14 tokens, the projections' backward costs 36,352
MAC per sample instead of 462,336.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _node, as_tensor, layer_norm, softmax_rows


@dataclass
class AttentionParams:
    """Projection matrices and output-norm parameters.

    wq maps query rows (width d_x) to d_k, wk maps key/value rows (width d_y)
    to d_k, and wv maps key/value rows to d_v.  ln_gain and ln_bias are only
    consumed by cross-attention, which requires d_v == d_x.
    """

    wq: object
    wk: object
    wv: object
    ln_gain: object = None
    ln_bias: object = None

    def __post_init__(self):
        self.wq = as_tensor(self.wq)
        self.wk = as_tensor(self.wk)
        self.wv = as_tensor(self.wv)
        if self.ln_gain is not None:
            self.ln_gain = as_tensor(self.ln_gain)
        if self.ln_bias is not None:
            self.ln_bias = as_tensor(self.ln_bias)
        for name in ("wq", "wk", "wv"):
            t = getattr(self, name)
            if t.ndim != 2:
                raise ShapeError(f"{name} must be a matrix, got shape {t.shape}")
        if self.wq.shape[1] != self.wk.shape[1]:
            raise ShapeError(
                f"wq and wk must share the key width, got {self.wq.shape} and {self.wk.shape}"
            )

    @property
    def d_k(self) -> int:
        return self.wq.shape[1]

    @property
    def d_v(self) -> int:
        return self.wv.shape[1]


def _project(x: Tensor, w: Tensor) -> Tensor:
    # fold the leading axes into GEMM rows, so the weight gradient is one product
    lead = x.shape[:-1]
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(lead + (w.shape[1],))


def _attend(xq: Tensor, ykv: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """``(A V, A)`` with ``A = softmax(Q K^T / sqrt(d_k))``, Q from ``xq``, K and V from ``ykv``."""
    d_x, d_y = xq.shape[-1], ykv.shape[-1]
    if params.wq.shape[0] != d_x:
        raise ShapeError(f"wq {params.wq.shape} does not accept query width {d_x}")
    if params.wk.shape[0] != d_y:
        raise ShapeError(f"wk {params.wk.shape} does not accept key width {d_y}")
    if params.wv.shape[0] != d_y:
        raise ShapeError(f"wv {params.wv.shape} does not accept rows of width {d_y}")
    q = _project(xq, params.wq)
    scores = _read_tokens(q, ykv, params.wk, keys=True)
    weights = softmax_rows(scores * (1.0 / math.sqrt(params.d_k)))
    return _read_tokens(weights, ykv, params.wv, keys=False), weights


def _read_tokens(a: Tensor, ykv: Tensor, w: Tensor, keys: bool) -> Tensor:
    """``a @ Pᵀ`` for the keys, ``a @ P`` for the values, with ``P = ykv @ w``, as one node.

    The forward runs those products as written.  The backward is
    re-associated, so the [.., t_kv, d] gradient of ``P`` is never built:
    ``P``'s gradient is ``Lᵀ R``, with ``L`` the output gradient and
    ``R = a`` for the keys, ``L = a`` and ``R`` the output gradient for the
    values, so ``w`` gets ``(L ykv)ᵀ R`` as one GEMM over every query row
    and ``ykv`` gets ``Lᵀ (R wᵀ)``.  ``a``'s gradient is matmul's own.
    """
    p = _project(Tensor(ykv.data), Tensor(w.data))
    out = a @ (p.transpose_last() if keys else p)

    def factors(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (g, a.data) if keys else (a.data, g)

    def pull_w(g: np.ndarray) -> np.ndarray:
        left, right = factors(g)
        read = left @ ykv.data
        return read.reshape(-1, read.shape[-1]).T @ right.reshape(-1, right.shape[-1])

    def pull_y(g: np.ndarray) -> np.ndarray:
        left, right = factors(g)
        return np.swapaxes(left, -1, -2) @ (right @ w.data.T)

    return _node(out.data, (out, lambda g: g), (w, pull_w), (ykv, pull_y))


def self_attention(x, params: AttentionParams) -> Tensor:
    """Attend a sequence to itself: softmax(Q K^T / sqrt(d_k)) V, no residual."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"expected [n, d] input rows, got shape {x.shape}")
    return _attend(x, x, params)[0]


def cross_attention(xq, ykv, params: AttentionParams) -> Tensor:
    """Let query rows read the key/value sequence, then add-and-normalise.

    Row i of the result is ``layer_norm((A V)_i + xq_i)`` with
    ``A = softmax(Q K^T / sqrt(d_k))``; keys and values both come from ``ykv``.
    ``xq`` is [t_q, d_x] and ``ykv`` [t_kv, d_y], or both carry a leading
    batch axis, [n, t_q, d_x] and [n, t_kv, d_y], and each sample attends
    only to its own key/value rows.
    """
    xq = as_tensor(xq)
    ykv = as_tensor(ykv)
    if xq.ndim not in (2, 3) or ykv.ndim != xq.ndim or xq.shape[:-2] != ykv.shape[:-2]:
        raise ShapeError(
            "expected [t, d] or [n, t, d] sources with equal batch axes, "
            f"got {xq.shape} and {ykv.shape}"
        )
    if params.d_v != xq.shape[-1]:
        raise ShapeError(
            f"value width {params.d_v} must equal query width {xq.shape[-1]} for the residual add"
        )
    if params.ln_gain is None or params.ln_bias is None:
        raise ShapeError("cross_attention needs ln_gain and ln_bias")
    attended, _ = _attend(xq, ykv, params)
    return layer_norm(attended + xq, params.ln_gain, params.ln_bias)
