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


def standardize(z: Tensor, axis: str) -> Tensor:
    """Shift/scale each slice along `axis` to mean 0 and population std 1.

    A slice with std below 1e-12 has no spread to scale to 1: it is a hard
    error naming the offending index.
    """
    if axis not in _AXES:
        raise ContractError(f"standardize: axis must be 'batch' or 'feature', got {axis!r}")
    zd = z.data
    if zd.ndim != 2:
        raise DimensionError(f"standardize: expected a BxD tensor, got shape {list(zd.shape)}")
    ax = _AXES[axis]
    n = zd.shape[ax]
    if n < 2:
        raise ContractError(
            f"standardize: reduced axis {axis!r} has length {n}, need at least 2"
        )
    # each mean is ndarray.mean's own arithmetic: the sum, then one division
    # by the count, so the results are its bits
    centered = zd - np.add.reduce(zd, axis=ax, keepdims=True) / n
    std = np.sqrt(np.add.reduce(centered * centered, axis=ax, keepdims=True) / n)
    # (std < STD_FLOOR).any() in one reduction: fmin skips NaN as < does
    if np.fmin.reduce(std, axis=None, initial=np.inf) < STD_FLOOR:
        idx = int(np.argmax((std < STD_FLOOR).reshape(-1)))
        slice_name = "feature" if axis == "batch" else "sample"
        raise DegenerateFeatureError(
            f"standardize: {slice_name} {idx} has standard deviation below {STD_FLOOR:g}"
        )
    y = centered / std

    def rule(g):
        gy = y * (np.add.reduce(g * y, axis=ax, keepdims=True) / n)
        return ((g - np.add.reduce(g, axis=ax, keepdims=True) / n - gy) / std,)

    return apply_op(f"standardize_{axis}", (z,), y, rule)


def cross_correlation(z: Tensor, z2: Tensor, mode: str) -> Tensor:
    """Divide-by-count correlation of two BxD tensors.

    features: C[i,j] = sum_b z[b,i] z2[b,j] / B     (DxD)
    samples:  M[m,n] = sum_a z[m,a] z2[n,a] / D     (BxB)

    Inputs are expected pre-standardized along the reduced direction; the
    result then matches the explicit-denominator normalized forms.
    """
    zd, z2d = z.data, z2.data
    if zd.ndim != 2 or zd.shape != z2d.shape:
        raise DimensionError(
            f"cross_correlation: need two equal BxD tensors, got {list(zd.shape)} and {list(z2d.shape)}"
        )
    b, d = zd.shape
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
    md = m.data
    if md.ndim != 2:
        raise DimensionError(f"row_softmax: expected a 2-D tensor, got shape {list(md.shape)}")
    scaled = md / tau
    scaled = scaled - np.maximum.reduce(scaled, axis=1, keepdims=True)
    e = np.exp(scaled)
    s = e / np.add.reduce(e, axis=1, keepdims=True)

    def rule(g):
        dot = np.add.reduce(g * s, axis=1, keepdims=True)
        return ((s * (g - dot)) / tau,)

    return apply_op("row_softmax", (m,), s, rule)
