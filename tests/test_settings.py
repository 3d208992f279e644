"""Every scalar setting goes through one rule, ``errors._check_setting``.

For each guarded setting below, a bool and a string are refused with a
``DomainError`` that names the setting, and so is a NaN for a real setting
and a fraction for an integer one; a valid value passes.  ``TrainConfig``'s
fields, the stopping settings of ``pseudo_label_loop`` and ``ScalingSpec``'s
fields take the same inputs in their own tests in ``test_training.py`` and
``test_vision_blocks.py``.  A real setting of each of three entry points
refuses an integer too large for a float.
"""

import math
import re

import numpy as np
import pytest

from mmfusion.data_io import gen_synthetic
from mmfusion.errors import DomainError
from mmfusion.fusion import N_CLASSES, assign_labels
from mmfusion.training import TrainConfig, class_weights
from mmfusion.vision_blocks import ConvSpec, ScalingSpec


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
