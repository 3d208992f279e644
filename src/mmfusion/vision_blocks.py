"""Convolution cost model, MAC-counted conv forwards, and compound scaling.

Everything here is plain float64 numpy: the convolutions are analysed and
sanity-checked, not trained, so no gradient bookkeeping is attached.
Convolutions use stride 1 and zero padding that preserves the spatial side,
with the feature map laid out as ``[H, W, channels]``.

``conv2d_forward`` runs one ``einsum`` over the windows of the padded input and
counts the multiplies it performs, so the closed-form multiply-accumulate (MAC)
costs can be checked against an actual execution rather than against themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ShapeError, _check_setting, _float64

CONV_MODES = ("standard", "depthwise", "pointwise", "grouped")

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: kernel side, channel counts, spatial side, grouping.

    ``groups`` partitions the channels: 1 is a dense (standard) convolution,
    ``m`` with ``n == m`` is depthwise.  ``pointwise`` is the 1x1 special case.
    """

    dk: int
    m: int
    n: int
    df: int
    groups: int = 1
    mode: str = "standard"

    def __post_init__(self):
        for name in ("dk", "m", "n", "df", "groups"):
            _check_setting(f"ConvSpec.{name}", getattr(self, name), int, 1)
        if not isinstance(self.mode, str) or self.mode not in CONV_MODES:
            raise DomainError(f"ConvSpec.mode must be one of {CONV_MODES}, got {self.mode!r}")
        if self.m % self.groups or self.n % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide both m={self.m} and n={self.n}"
            )
        if self.mode == "standard" and self.groups != 1:
            raise DomainError("standard convolutions use groups=1")
        if self.mode == "pointwise" and (self.dk != 1 or self.groups != 1):
            raise DomainError("pointwise means dk=1 and groups=1")
        if self.mode == "depthwise" and not (self.groups == self.m == self.n):
            raise DomainError("depthwise means groups == m == n")


def _checked(count: int, what: str) -> int:
    if count > _U64_MAX:
        raise NumericError(f"{what} MAC count {count} exceeds the unsigned 64-bit range")
    return count


def _dense_macs(spec: ConvSpec) -> int:
    """The MACs of ``spec``'s layer run as one dense convolution, whatever its grouping."""
    return spec.dk * spec.dk * spec.m * spec.n * spec.df * spec.df


def cost_standard(spec: ConvSpec) -> int:
    """MACs of a dense convolution: dk^2 * m * n * df^2."""
    if spec.mode != "standard":
        raise DomainError(f"cost_standard needs mode='standard', got {spec.mode!r}")
    return _checked(_dense_macs(spec), "standard")


def cost_depthwise_separable(spec: ConvSpec) -> tuple[int, int, int]:
    """MACs of the depthwise + pointwise factorisation of ``spec``.

    Returns ``(depthwise, pointwise, total)`` where the depthwise pass costs
    df^2 * m * dk^2 and the 1x1 pointwise pass costs df^2 * m * n.
    """
    dw = spec.df * spec.df * spec.m * spec.dk * spec.dk
    pw = spec.df * spec.df * spec.m * spec.n
    return _checked(dw, "depthwise"), _checked(pw, "pointwise"), _checked(dw + pw, "separable")


def separable_ratio(spec: ConvSpec) -> float:
    """Separable total over dense cost; algebraically 1/n + 1/dk^2."""
    _, _, total = cost_depthwise_separable(spec)
    return total / _dense_macs(spec)


def cost_grouped(spec: ConvSpec) -> int:
    """MACs of a grouped convolution: the dense cost divided by ``groups``."""
    return _checked(_dense_macs(spec) // spec.groups, "grouped")


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, spec: ConvSpec) -> tuple[np.ndarray, int]:
    """Slide ``kernels`` over ``x`` with stride 1 and same-size zero padding.

    ``x`` is ``[df, df, m]``; ``kernels`` is ``[dk, dk, m/groups, n]`` where
    output channel ``k`` reads the input channels of group ``k // (n/groups)``.
    Returns the ``[df, df, n]`` output and the exact number of scalar
    multiplies performed (zero-padded positions included).
    """
    x = _float64(x, "conv input")
    kernels = _float64(kernels, "conv kernels")
    g = spec.groups
    cin_g = spec.m // g
    cout_g = spec.n // g
    if x.shape != (spec.df, spec.df, spec.m):
        raise ShapeError(f"input shape {x.shape} does not match spec {(spec.df, spec.df, spec.m)}")
    if kernels.shape != (spec.dk, spec.dk, cin_g, spec.n):
        raise ShapeError(
            f"kernel shape {kernels.shape} does not match spec "
            f"{(spec.dk, spec.dk, cin_g, spec.n)}"
        )
    before = (spec.dk - 1) // 2
    after = spec.dk - 1 - before
    padded = np.pad(x, ((before, after), (before, after), (0, 0)))
    # [df, df, m, dk, dk] windows, the channel axis split into its groups
    windows = np.lib.stride_tricks.sliding_window_view(padded, (spec.dk, spec.dk), axis=(0, 1))
    patches = windows.reshape(spec.df, spec.df, g, cin_g, spec.dk, spec.dk)
    per_group = kernels.reshape(spec.dk, spec.dk, cin_g, g, cout_g)
    out = np.einsum("ijgcab,abcgo->ijgo", patches, per_group)
    return out.reshape(spec.df, spec.df, spec.n), patches.size * cout_g


def depthwise_separable_forward(
    x: np.ndarray, dw_kernels: np.ndarray, pw_kernels: np.ndarray, spec: ConvSpec
) -> tuple[np.ndarray, int]:
    """Depthwise pass followed by a 1x1 pointwise pass; returns output and total MACs."""
    dw_spec = ConvSpec(spec.dk, spec.m, spec.m, spec.df, groups=spec.m, mode="depthwise")
    mid, dw_macs = conv2d_forward(x, dw_kernels, dw_spec)
    pw_spec = ConvSpec(1, spec.m, spec.n, spec.df, mode="pointwise")
    out, pw_macs = conv2d_forward(mid, pw_kernels, pw_spec)
    return out, dw_macs + pw_macs


# the least value of each ScalingSpec field that has one
_SCALING_LEAST = {"phi": 0, "alpha": 1, "beta": 1, "gamma": 1}


@dataclass(frozen=True)
class ScalingSpec:
    """A shared exponent plus base depth/width/resolution, per-axis rates and a FLOPs budget.

    Each default is also that of the ``flops`` flag named after its field.
    """

    phi: float
    d0: float = 1.0
    w0: float = 1.0
    r0: float = 1.0
    alpha: float = 1.2
    beta: float = 1.1
    gamma: float = 1.15
    budget: float = 2.0

    def __post_init__(self):
        for field in fields(self):
            least = _SCALING_LEAST.get(field.name)
            _check_setting(f"ScalingSpec.{field.name}", getattr(self, field.name), float, least)
        for name in ("d0", "w0", "r0"):  # > 0, which no least value expresses
            if getattr(self, name) <= 0.0:
                raise DomainError(f"ScalingSpec.{name} must be positive")


class CompoundScaling(NamedTuple):
    depth: float
    width: float
    resolution: float
    flops_factor: float
    constraint_residual: float


def compound_scale(spec: ScalingSpec) -> CompoundScaling:
    """Scale depth, width, and resolution together by one exponent.

    Depth grows as alpha^phi, width as beta^phi, resolution as gamma^phi; the
    FLOPs multiplier is (alpha * beta^2 * gamma^2)^phi, and the residual says
    how far the rates stray from the configured FLOPs budget per unit phi.
    A quantity beyond the float range raises :class:`NumericError` naming it.
    """
    phi = spec.phi

    def scaled(quantity: str, compute) -> float:
        try:
            value = compute()
        except OverflowError:  # a float power raises where a float product turns to inf
            value = math.inf
        if not math.isfinite(value):
            raise NumericError(f"compound scaling: {quantity} overflows the float range at phi={phi!r}")
        return value

    combined = scaled("alpha * beta**2 * gamma**2", lambda: spec.alpha * spec.beta**2 * spec.gamma**2)
    return CompoundScaling(
        depth=scaled("depth", lambda: spec.d0 * spec.alpha**phi),
        width=scaled("width", lambda: spec.w0 * spec.beta**phi),
        resolution=scaled("resolution", lambda: spec.r0 * spec.gamma**phi),
        flops_factor=scaled("flops_factor", lambda: combined**phi),
        constraint_residual=scaled("constraint_residual", lambda: combined - spec.budget),
    )
