"""Every scalar setting goes through one rule, ``errors._check_setting``.

For each guarded setting below, a bool and a string are refused with a
``DomainError`` that names the setting, and so is a NaN for a real setting
and a fraction for an integer one; a valid value passes.  ``TrainConfig``'s
fields, the stopping settings of ``pseudo_label_loop`` and ``ScalingSpec``'s
fields take the same inputs in their own tests in ``test_training.py`` and
``test_vision_blocks.py``.  A real setting of each of three entry points
refuses an integer too large for a float.

Every array the package widens to float64 goes through one rule too,
``errors._float64``: each entry point below refuses a complex, a numeric-string
and a ``None`` array with a ``DomainError`` naming the array and its dtype, and
emits no warning on the way.

An argument of the wrong type, such as None for a mapping, a model or a list,
is refused with the typed error its entry point gives for that argument,
naming it, and with no warning, not a bare ``AttributeError``, ``KeyError``
or ``TypeError`` from somewhere inside.
"""

import math
import re
import warnings

import numpy as np
import pytest

from mmfusion.data_io import gen_synthetic, rows_in_order
from mmfusion.errors import DatasetError, DomainError, ShapeError
from mmfusion.fusion import (
    N_CLASSES,
    FusionModel,
    assign_label_matrix,
    assign_labels,
    fuse_logits,
    head_forward_batch,
    init_head_params,
    logits_to_probs,
    predict_fused_logits,
    predict_logits,
)
from mmfusion.tensor import Tensor, grad_check
from mmfusion.training import (
    TrainConfig,
    adam_step,
    class_weights,
    fused_probs,
    init_adam_state,
    uniform_weights,
    weighted_bce_loss,
)
from mmfusion.vision_blocks import CONV_MODES, ConvSpec, ScalingSpec, conv2d_forward


def synthetic(**setting):
    return gen_synthetic(**{"seed": 0, "n_train": 1, "n_test": 1, "n_val": 1, "noise": 0.3, **setting})


def conv(**setting):
    return ConvSpec(**{"dk": 3, "m": 2, "n": 2, "df": 4, **setting})


# setting name as its errors print it: (a call taking the value, a valid value, whether it is real)
SETTINGS = {
    "seed": (lambda v: synthetic(seed=v), 3, False),
    "n_train": (lambda v: synthetic(n_train=v), 2, False),
    "n_test": (lambda v: synthetic(n_test=v), 2, False),
    "n_val": (lambda v: synthetic(n_val=v), 2, False),
    "noise": (lambda v: synthetic(noise=v), 0.1, True),
    "ConvSpec.dk": (lambda v: conv(dk=v), 1, False),
    "ConvSpec.m": (lambda v: conv(m=v), 4, False),
    "ConvSpec.n": (lambda v: conv(n=v), 4, False),
    "ConvSpec.df": (lambda v: conv(df=v), 1, False),
    "ConvSpec.groups": (lambda v: conv(groups=v), 1, False),
    "threshold": (lambda v: assign_labels(np.full(N_CLASSES, 0.5), threshold=v), 0.25, True),
    "total": (lambda v: class_weights(np.full(N_CLASSES, 5), total=v), 100, False),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_setting_refuses_bad_values_naming_itself(name):
    call, valid, real = SETTINGS[name]
    noun = "a number" if real else "an integer"
    bad = [(True, noun), ("1", noun), (math.nan, "finite") if real else (3.9, noun)]
    for value, rule in bad:
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be {rule}, got "):
            call(value)
    call(valid)


# an integer too large for a float, which math.isfinite cannot take
BEYOND_FLOAT = {
    "lr": lambda v: TrainConfig(lr=v),
    "ScalingSpec.phi": lambda v: ScalingSpec(phi=v),
    "noise": lambda v: gen_synthetic(1, 5, 5, 5, v),
}


@pytest.mark.parametrize("name", BEYOND_FLOAT)
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
def test_real_setting_refuses_an_integer_beyond_the_float_range(name, value):
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must lie in the float range, got "):
        BEYOND_FLOAT[name](value)


LOGITS = np.zeros((2, N_CLASSES))
TARGETS = np.zeros((2, N_CLASSES), dtype=bool)
PARAMS = {"w": np.zeros((2, 3))}
TEXT_HEAD = FusionModel("text_linear", init_head_params("text_linear", 0))
CONV = ConvSpec(dk=3, m=2, n=2, df=4)

# entry point: (the shape of the array it widens, the name its error gives, a call taking it)
WIDENED = {
    "Tensor": ((2, 3), "tensor data", Tensor),
    "grad_check": ((3,), "grad_check point", lambda v: grad_check(lambda t: t.sum(), v)),
    "fuse_logits": (LOGITS.shape, "logit set 1", lambda v: fuse_logits([LOGITS, v])),
    "logits_to_probs": (LOGITS.shape, "logits", logits_to_probs),
    "assign_label_matrix": (LOGITS.shape, "probs", assign_label_matrix),
    "bce_logits": (LOGITS.shape, "logits",
                   lambda v: weighted_bce_loss(v, TARGETS, uniform_weights())),
    "bce_targets": (LOGITS.shape, "targets",
                    lambda v: weighted_bce_loss(LOGITS, v, uniform_weights())),
    "bce_weights": ((N_CLASSES,), "weights", lambda v: weighted_bce_loss(LOGITS, TARGETS, v)),
    "adam_step": ((2, 3), "gradient for 'w'", lambda v: adam_step(
        PARAMS, {"w": v}, init_adam_state(PARAMS), TrainConfig())),
    "conv_input": ((4, 4, 2), "conv input",
                   lambda v: conv2d_forward(v, np.zeros((3, 3, 2, 2)), CONV)),
    "conv_kernels": ((3, 3, 2, 2), "conv kernels",
                     lambda v: conv2d_forward(np.zeros((4, 4, 2)), v, CONV)),
    "predict_logits": ((2, 128), "text batch", lambda v: predict_logits(TEXT_HEAD, v, None)),
}

NOT_REAL = {
    "complex": lambda shape: np.full(shape, 0.5 + 1j),
    "numeric-string": lambda shape: np.full(shape, "0.5"),
    "none": lambda shape: np.full(shape, None).tolist(),
}


@pytest.mark.parametrize("name", WIDENED)
@pytest.mark.parametrize("bad", NOT_REAL)
def test_array_that_is_not_real_refused_naming_itself(name, bad):
    shape, source, call = WIDENED[name]
    values = NOT_REAL[bad](shape)
    dtype = np.asarray(values).dtype
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(source)}: values must be real "
                                              f"numbers, got dtype {re.escape(str(dtype))}$"):
            call(values)


TEXT = np.zeros((2, 128))
STATE = init_adam_state(PARAMS)

WRONG_ARGUMENTS = [
    pytest.param(lambda: adam_step(PARAMS, None, STATE, TrainConfig()), DomainError,
                 "grads must be of type Mapping, got NoneType", id="adam_step-grads"),
    pytest.param(lambda: adam_step(PARAMS, PARAMS, None, TrainConfig()), DomainError,
                 "state must be of type AdamState, got NoneType", id="adam_step-state"),
    pytest.param(lambda: adam_step(PARAMS, PARAMS, STATE, None), DomainError,
                 "config must be of type TrainConfig, got NoneType", id="adam_step-config"),
    pytest.param(lambda: head_forward_batch("text_linear", {}, TEXT, None), ShapeError,
                 "text_linear needs parameters ['b', 'w'], got []",
                 id="head_forward_batch-missing-params"),
    pytest.param(lambda: head_forward_batch("text_linear", {**TEXT_HEAD.params, "x": 0}, TEXT,
                                            None), ShapeError,
                 "text_linear needs parameters ['b', 'w'], got ['b', 'w', 'x']",
                 id="head_forward_batch-extra-param"),
    pytest.param(lambda: head_forward_batch("text_linear", None, TEXT, None), DomainError,
                 "params must be of type Mapping, got NoneType", id="head_forward_batch-None"),
    pytest.param(lambda: predict_logits(None, TEXT, None), DomainError,
                 "model must be of type FusionModel, got NoneType", id="predict_logits-None"),
    pytest.param(lambda: FusionModel("text_linear", None), DomainError,
                 "params must be of type Mapping, got NoneType", id="FusionModel-None"),
    pytest.param(lambda: fuse_logits(None), DomainError,
                 "logit_sets must be of type list or tuple, got NoneType", id="fuse_logits-None"),
    pytest.param(lambda: fuse_logits(3), DomainError,
                 "logit_sets must be of type list or tuple, got int", id="fuse_logits-int"),
    pytest.param(lambda: rows_in_order(None, ("a",), np.zeros((1, 2)), "truth.csv"),
                 DatasetError, "truth.csv ids must be a tuple or list of str, got None",
                 id="rows_in_order-None"),
    pytest.param(lambda: rows_in_order(("a",), None, np.zeros((1, 2)), "truth.csv"),
                 DatasetError, "row_ids must be of type tuple or list, got NoneType",
                 id="rows_in_order-row_ids-None"),
    pytest.param(lambda: rows_in_order(("a", "b"), ("a", "b"), np.zeros((1, 2)), "s"),
                 DatasetError, "s: 1 rows for 2 row ids", id="rows_in_order-rows-short-in-order"),
    pytest.param(lambda: rows_in_order(("a", "b"), ("b", "a"), np.zeros((1, 2)), "s"),
                 DatasetError, "s: 1 rows for 2 row ids", id="rows_in_order-rows-short-reordered"),
    pytest.param(lambda: fused_probs({"text_linear": TEXT_HEAD}, None), DatasetError,
                 "data must be of type EmbeddingDataset, got NoneType", id="fused_probs-data-None"),
    pytest.param(lambda: predict_fused_logits("ab", TEXT, None), DomainError,
                 "models must be of type list or tuple, got str",
                 id="predict_fused_logits-models-str"),
    pytest.param(lambda: predict_fused_logits([TEXT_HEAD, None], TEXT, None), DomainError,
                 "models[1] must be of type FusionModel, got NoneType",
                 id="predict_fused_logits-models-holding-None"),
    pytest.param(lambda: ConvSpec(3, 4, 4, 8, mode=np.zeros((2, 2))), DomainError,
                 f"ConvSpec.mode must be one of {CONV_MODES}, got {np.zeros((2, 2))!r}",
                 id="ConvSpec-mode-ndarray"),
]


@pytest.mark.parametrize("call, error, message", WRONG_ARGUMENTS)
def test_wrong_argument_type_is_a_typed_error(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as caught:
            call()
    assert caught.type is error
    assert str(caught.value) == message
