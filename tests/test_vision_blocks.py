"""Cost models, MAC-counted convolution forwards, compound scaling."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfusion.errors import DomainError, NumericError, ShapeError
from mmfusion.vision_blocks import (
    ConvSpec,
    ScalingSpec,
    compound_scale,
    conv2d_forward,
    cost_depthwise_separable,
    cost_grouped,
    cost_standard,
    depthwise_separable_forward,
    separable_ratio,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def conv_oracle(x, kernels, dk, df, m, n):
    """Scalar-loop dense convolution, stride 1, same zero padding."""
    before = (dk - 1) // 2
    after = dk - 1 - before
    padded = np.pad(x, ((before, after), (before, after), (0, 0)))
    out = np.zeros((df, df, n))
    for i in range(df):
        for j in range(df):
            for k in range(n):
                acc = 0.0
                for a in range(dk):
                    for b in range(dk):
                        for c in range(m):
                            acc += padded[i + a, j + b, c] * kernels[a, b, c, k]
                out[i, j, k] = acc
    return out


class TestCostModels:
    def test_standard_reference_point(self):
        spec = ConvSpec(dk=3, m=16, n=32, df=8)
        assert cost_standard(spec) == 294912

    def test_standard_all_ones(self):
        assert cost_standard(ConvSpec(1, 1, 1, 1)) == 1

    def test_separable_reference_point(self):
        spec = ConvSpec(dk=3, m=16, n=32, df=8)
        assert cost_depthwise_separable(spec) == (9216, 32768, 41984)

    def test_ratio_identity(self, rng):
        for _ in range(25):
            dk = int(rng.choice([1, 2, 3, 5, 7]))
            spec = ConvSpec(
                dk=dk,
                m=int(rng.integers(1, 40)),
                n=int(rng.integers(1, 40)),
                df=int(rng.integers(1, 12)),
            )
            expected = 1.0 / spec.n + 1.0 / (spec.dk * spec.dk)
            assert abs(separable_ratio(spec) - expected) < 1e-12

    def test_unit_kernel_degenerate_case(self):
        # dk=1, n=1: depthwise and pointwise passes cost the same, total twice that
        spec = ConvSpec(dk=1, m=5, n=1, df=4)
        dw, pw, total = cost_depthwise_separable(spec)
        assert dw == pw == 16 * 5
        assert total == 2 * dw

    def test_grouped_divides_dense(self):
        spec = ConvSpec(dk=3, m=8, n=12, df=5, groups=4, mode="grouped")
        assert cost_grouped(spec) == 9 * 8 * 12 * 25 // 4

    def test_overflow_rejected(self):
        spec = ConvSpec(dk=2**16, m=2**16, n=2**16, df=2**16)
        with pytest.raises(OverflowError):
            cost_standard(spec)

    def test_wrong_mode_rejected(self):
        spec = ConvSpec(dk=3, m=4, n=4, df=2, groups=4, mode="depthwise")
        with pytest.raises(DomainError):
            cost_standard(spec)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(DomainError):
            ConvSpec(dk=0, m=1, n=1, df=1)


class TestConv2dForward:
    def test_pointwise_channel_sum(self, rng):
        spec = ConvSpec(dk=1, m=2, n=1, df=3, mode="pointwise")
        x = rng.standard_normal((3, 3, 2))
        out, macs = conv2d_forward(x, np.ones((1, 1, 2, 1)), spec)
        np.testing.assert_allclose(out[:, :, 0], x.sum(axis=-1), atol=1e-12)
        assert macs == 3 * 3 * 2

    def test_matches_scalar_oracle(self, rng):
        spec = ConvSpec(dk=3, m=3, n=4, df=5)
        kernels = rng.standard_normal((3, 3, 3, 4))
        x = rng.standard_normal((5, 5, 3))
        out, macs = conv2d_forward(x, kernels, spec)
        np.testing.assert_allclose(out, conv_oracle(x, kernels, 3, 5, 3, 4), atol=1e-12)
        assert macs == cost_standard(spec)

    def test_even_kernel_same_padding(self, rng):
        spec = ConvSpec(dk=2, m=2, n=3, df=4)
        kernels = rng.standard_normal((2, 2, 2, 3))
        x = rng.standard_normal((4, 4, 2))
        out, macs = conv2d_forward(x, kernels, spec)
        np.testing.assert_allclose(out, conv_oracle(x, kernels, 2, 4, 2, 3), atol=1e-12)
        assert out.shape == (4, 4, 3)
        assert macs == cost_standard(spec)

    def test_grouped_equals_independent_halves(self, rng):
        spec = ConvSpec(dk=3, m=4, n=6, df=4, groups=2, mode="grouped")
        kernels = rng.standard_normal((3, 3, 2, 6))
        x = rng.standard_normal((4, 4, 4))
        out, macs = conv2d_forward(x, kernels, spec)
        lo, _ = conv2d_forward(x[:, :, :2], kernels[:, :, :, :3], ConvSpec(3, 2, 3, 4))
        hi, _ = conv2d_forward(x[:, :, 2:], kernels[:, :, :, 3:], ConvSpec(3, 2, 3, 4))
        np.testing.assert_allclose(out, np.concatenate([lo, hi], axis=-1), atol=1e-12)
        assert macs == cost_grouped(spec)

    def test_depthwise_macs_match_formula(self, rng):
        spec = ConvSpec(dk=3, m=6, n=6, df=5, groups=6, mode="depthwise")
        kernels = rng.standard_normal((3, 3, 1, 6))
        _, macs = conv2d_forward(rng.standard_normal((5, 5, 6)), kernels, spec)
        dw, _, _ = cost_depthwise_separable(ConvSpec(dk=3, m=6, n=6, df=5))
        assert macs == dw

    def test_separable_composition_macs(self, rng):
        spec = ConvSpec(dk=3, m=4, n=7, df=6)
        out, macs = depthwise_separable_forward(
            rng.standard_normal((6, 6, 4)),
            rng.standard_normal((3, 3, 1, 4)),
            rng.standard_normal((1, 1, 4, 7)),
            spec,
        )
        assert out.shape == (6, 6, 7)
        assert macs == cost_depthwise_separable(spec)[2]

    def test_bad_kernel_shape(self, rng):
        spec = ConvSpec(dk=3, m=2, n=2, df=3)
        with pytest.raises(ShapeError):
            conv2d_forward(rng.standard_normal((3, 3, 2)), np.zeros((3, 3, 2, 3)), spec)


class TestCompoundScale:
    def test_zero_exponent_returns_bases(self):
        spec = ScalingSpec(d0=3.0, w0=5.0, r0=7.0, alpha=1.2, beta=1.1, gamma=1.15, phi=0.0)
        result = compound_scale(spec)
        assert (result.depth, result.width, result.resolution) == (3.0, 5.0, 7.0)
        assert result.flops_factor == 1.0

    def test_depth_doubles(self):
        spec = ScalingSpec(d0=10.0, w0=1.0, r0=1.0, alpha=2.0, beta=1.0, gamma=1.0, phi=1.0)
        assert compound_scale(spec).depth == 20.0

    def test_flops_factor_reference_point(self):
        spec = ScalingSpec(d0=1.0, w0=1.0, r0=1.0, alpha=1.2, beta=1.1, gamma=1.15, phi=2.0)
        expected = (1.2 * 1.1**2 * 1.15**2) ** 2
        result = compound_scale(spec)
        assert abs(result.flops_factor - expected) < 1e-12 * expected
        assert abs(result.flops_factor - 3.68744) < 1e-4

    def test_constraint_residual(self):
        spec = ScalingSpec(
            d0=1.0, w0=1.0, r0=1.0, alpha=1.2, beta=1.1, gamma=1.15, phi=1.0, budget=2.0
        )
        expected = 1.2 * 1.1**2 * 1.15**2 - 2.0
        assert abs(compound_scale(spec).constraint_residual - expected) < 1e-12

    @given(st.floats(0.0, 4.0), st.floats(1.0, 1.5), st.floats(1.0, 1.5), st.floats(1.0, 1.5))
    @settings(max_examples=40)
    def test_flops_identity_property(self, phi, alpha, beta, gamma):
        spec = ScalingSpec(d0=1.0, w0=1.0, r0=1.0, alpha=alpha, beta=beta, gamma=gamma, phi=phi)
        result = compound_scale(spec)
        expected = (alpha * beta**2 * gamma**2) ** phi
        assert abs(result.flops_factor - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize("fields_, quantity", [
        (dict(phi=3000.0), "flops_factor"),
        (dict(phi=1e308), "depth"),
        (dict(phi=1.0, d0=1e308, alpha=10.0), "depth"),
        (dict(phi=0.0, beta=1e200), "alpha * beta**2 * gamma**2"),
        (dict(phi=0.0, alpha=1e308, beta=1.0, gamma=1.0, budget=-1e308), "constraint_residual"),
    ])
    def test_overflow_names_the_quantity_and_phi(self, fields_, quantity):
        message = f"compound scaling: {quantity} overflows the float range at phi={fields_['phi']!r}"
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            compound_scale(ScalingSpec(**fields_))

    def test_rates_below_one_rejected(self):
        with pytest.raises(DomainError):
            ScalingSpec(d0=1.0, w0=1.0, r0=1.0, alpha=0.9, beta=1.0, gamma=1.0, phi=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "1"])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScalingSpec)])
    def test_non_finite_field_rejected(self, name, value):
        rule = "finite" if isinstance(value, float) else "a number"  # a bool is no number
        with pytest.raises(DomainError, match=rf"ScalingSpec\.{name} must be {rule}"):
            ScalingSpec(**{"phi": 1.0, name: value})


class TestRandomSpecMacParity:
    def test_instrumented_counts_equal_formulas(self, rng):
        for _ in range(30):
            dk = int(rng.choice([1, 2, 3, 5]))
            df = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            spec = ConvSpec(dk=dk, m=m, n=n, df=df)
            kernels = rng.standard_normal((dk, dk, m, n))
            _, macs = conv2d_forward(rng.standard_normal((df, df, m)), kernels, spec)
            assert macs == cost_standard(spec)
