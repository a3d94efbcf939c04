"""Normalization and correlation primitives.

Standardization uses the population (divide-by-count) standard deviation
throughout; under that convention "standardize, then divide the product
by the count" reproduces the explicitly normalized correlation forms
exactly, which is what the oracle equivalence suite certifies.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateFeatureError, DimensionError
from .tensor import Tensor, apply_op

STD_FLOOR = 1e-12

_AXES = {"batch": 0, "feature": 1}


def standardize(z: Tensor, axis: str, allow_degenerate: bool = False) -> Tensor:
    """Shift/scale each slice along `axis` to mean 0 and population std 1.

    A slice with std below 1e-12 is a hard error naming the offending
    index unless `allow_degenerate`, which substitutes std=1 for it.
    """
    if axis not in _AXES:
        raise ContractError(f"standardize: axis must be 'batch' or 'feature', got {axis!r}")
    if z.ndim != 2:
        raise DimensionError(f"standardize: expected a BxD tensor, got shape {list(z.shape)}")
    ax = _AXES[axis]
    if z.shape[ax] < 2:
        raise ContractError(
            f"standardize: reduced axis {axis!r} has length {z.shape[ax]}, need at least 2"
        )
    mu = z.data.mean(axis=ax, keepdims=True)
    centered = z.data - mu
    std = np.sqrt((centered * centered).mean(axis=ax, keepdims=True))
    degenerate = std < STD_FLOOR
    if degenerate.any():
        if not allow_degenerate:
            idx = int(np.argmax(degenerate.reshape(-1)))
            slice_name = "feature" if axis == "batch" else "sample"
            raise DegenerateFeatureError(
                f"standardize: {slice_name} {idx} has standard deviation below {STD_FLOOR:g}"
            )
        std = np.where(degenerate, 1.0, std)
    y = centered / std
    # live = slices whose std actually depends on the input (not substituted)
    live = (~degenerate).astype(np.float64)

    def rule(g):
        g_mean = g.mean(axis=ax, keepdims=True)
        gy_mean = (g * y).mean(axis=ax, keepdims=True)
        return ((g - g_mean - y * gy_mean * live) / std,)

    return apply_op(f"standardize_{axis}", (z,), y, rule)


def cross_correlation(z: Tensor, z2: Tensor, mode: str) -> Tensor:
    """Divide-by-count correlation of two BxD tensors.

    features: C[i,j] = sum_b z[b,i] z2[b,j] / B     (DxD)
    samples:  M[m,n] = sum_a z[m,a] z2[n,a] / D     (BxB)

    Inputs are expected pre-standardized along the reduced direction; the
    result then matches the explicit-denominator normalized forms.
    """
    if z.ndim != 2 or z2.ndim != 2 or z.shape != z2.shape:
        raise DimensionError(
            f"cross_correlation: need two equal BxD tensors, got {list(z.shape)} and {list(z2.shape)}"
        )
    b, d = z.shape
    zd, z2d = z.data, z2.data
    if mode == "features":
        out = zd.T @ z2d
        out /= b

        def rule(g):
            return (z2d @ g.T / b, zd @ g / b)

        return apply_op("cross_correlation_features", (z, z2), out, rule)
    if mode == "samples":
        out = zd @ z2d.T
        out /= d

        def rule(g):
            return (g @ z2d / d, g.T @ zd / d)

        return apply_op("cross_correlation_samples", (z, z2), out, rule)
    raise ContractError(f"cross_correlation: unknown mode {mode!r}")


def row_softmax(m: Tensor, tau: float) -> Tensor:
    """Temperature softmax over each row, computed with max-subtraction."""
    if tau <= 0:
        raise ContractError(f"row_softmax: temperature must be positive, got {tau}")
    if m.ndim != 2:
        raise DimensionError(f"row_softmax: expected a 2-D tensor, got shape {list(m.shape)}")
    scaled = m.data / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    s = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return ((s * (g - dot)) / tau,)

    return apply_op("row_softmax", (m,), s, rule)
