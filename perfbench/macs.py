"""Analytic forward multiply-accumulate counts of the fusion heads.

Derived from ``expected_param_shapes``: every matrix product in
``head_forward_batch`` costs rows x inner x outer MACs.  Bias adds, the
softmax, the residual add and the layer norm are not products and are not
counted, the same convention the conv cost model of ``vision_blocks`` uses.
"""

from __future__ import annotations

from mmfusion.fusion import HEAD_KINDS, IMAGE_DIM, TEXT_DIM, expected_param_shapes

TOKEN_COUNT = IMAGE_DIM // TEXT_DIM


def forward_macs_per_sample(kind: str) -> int:
    shapes = expected_param_shapes(kind)
    n_out, width = shapes["w"]
    macs = n_out * width  # final linear layer
    if kind == "cross_attn_fcnn":
        d_in, d_q = shapes["wq"]
        _, d_v = shapes["wv"]
        macs += d_in * d_q  # query from the text vector
        macs += TOKEN_COUNT * d_in * (shapes["wk"][1] + d_v)  # keys and values per token
        macs += TOKEN_COUNT * (d_q + d_v)  # q . k scores, then weights @ v
    return macs


MAC_TABLE = {kind: forward_macs_per_sample(kind) for kind in HEAD_KINDS}
