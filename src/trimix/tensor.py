"""Dense float64 tensors with a reverse-mode autodiff tape.

The tape is define-by-run and rebuilt every training step: operations
append nodes in execution order, so insertion order is already a
topological order and the backward sweep is a single reverse pass that
touches each node at most once.  A tape is swept once: the sweep drops
each node's rule, and with it the arrays the rule saved, as it passes.

Values are 64-bit throughout; every recorded operation checks its output
for NaN/Inf and fails loudly instead of propagating poison.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
    DetachedValueError,
    DimensionError,
    NumericError,
)

Array = np.ndarray

# backward(upstream) -> one gradient array per op input, in input order
BackwardRule = Callable[[Array], tuple]


_F64 = np.dtype(np.float64)


def as_array(values) -> Array:
    """Coerce to a contiguous row-major float64 array."""
    if type(values) is np.ndarray and values.dtype is _F64 and values.flags.c_contiguous:
        return values
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


class Tensor:
    """Row-major float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, values, tape: Optional["Tape"] = None, node: Optional[int] = None):
        self.data = as_array(values)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.node is not None else ""
        return f"Tensor(shape={list(self.shape)}{tag})"


class TapeNode:
    __slots__ = ("kind", "parents", "shape", "rule")

    def __init__(self, kind: str, parents: tuple, shape: tuple, rule: Optional[BackwardRule]):
        self.kind = kind
        self.parents = parents
        self.shape = shape
        self.rule = rule


class Tape:
    """Append-only operation record; one tape per training step, one thread.

    `swept` is set by `backward`; a swept tape takes no new operations.
    """

    __slots__ = ("nodes", "swept")

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.swept = False

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, kind: str, parents: tuple, shape: tuple, rule: Optional[BackwardRule]) -> int:
        if self.swept:
            raise ContractError(f"operation '{kind}' recorded onto a tape that backward already swept")
        self.nodes.append(TapeNode(kind, parents, shape, rule))
        return len(self.nodes) - 1

    def leaf(self, tensor: Tensor) -> Tensor:
        """Register a differentiable input; the returned tensor shares storage."""
        node = self._append("leaf", (), tensor.data.shape, None)
        return Tensor(tensor.data, tape=self, node=node)


def apply_op(kind: str, inputs: Sequence[Tensor], out_data: Array, rule: BackwardRule,
             check: bool = True) -> Tensor:
    """Record one operation on the tape shared by `inputs`, if any.

    `rule(upstream)` must return one gradient array per input, aligned with
    `inputs`; slots for constant (off-tape) inputs are ignored, so a rule
    may return None there.  Off-tape inputs make this a plain value
    computation with no node appended.
    `check=False` is reserved for ops that only move finite values around.
    """
    # single-pass alarm: NaN/Inf always poison the sum; a non-finite sum of
    # finite values (overflow) is ruled out by the exact recheck
    if check and not math.isfinite(np.add.reduce(out_data, axis=None)) \
            and not np.isfinite(out_data).all():
        raise NumericError(f"operation '{kind}' produced non-finite values")
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ContractError(f"operation '{kind}' mixes tensors from two different tapes")
            tape = t.tape
    if tape is None:
        return Tensor(out_data)
    parents = tuple(t.node for t in inputs)
    node = tape._append(kind, parents, out_data.shape, rule)
    return Tensor(out_data, tape=tape, node=node)


def _require_2d(kind: str, t: Tensor) -> None:
    if t.ndim != 2:
        raise DimensionError(f"{kind}: expected a 2-D tensor, got shape {list(t.shape)}")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {list(a.shape)} and {list(b.shape)} do not match")
    return apply_op("add", (a, b), a.data + b.data, lambda g: (g, g))


def scalar_mul(t: Tensor, s: float) -> Tensor:
    s = float(s)
    return apply_op("scalar_mul", (t,), t.data * s, lambda g: (g * s,))


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0  # subgradient 0 at exactly 0
    return apply_op("relu", (t,), np.maximum(t.data, 0.0), lambda g: (g * mask,), check=False)


def affine(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Fused x @ w + bias: one tape node per layer."""
    _require_2d("affine", x)
    _require_2d("affine", w)
    if x.shape[1] != w.shape[0]:
        raise DimensionError(
            f"affine: inner dimensions disagree for shapes {list(x.shape)} x {list(w.shape)}"
        )
    if bias.ndim != 1 or bias.shape[0] != w.shape[1]:
        raise DimensionError(
            f"affine: bias shape {list(bias.shape)} does not fit weight {list(w.shape)}"
        )
    xd, wd = x.data, w.data
    out = xd @ wd
    out += bias.data
    if x.node is None:  # an off-tape input (the image batch) takes no gradient
        rule = lambda g: (None, xd.T @ g, g.sum(axis=0))
    else:
        rule = lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0))
    return apply_op("affine", (x, w, bias), out, rule)


def backward(loss: Tensor) -> dict[int, Tensor]:
    """Reverse sweep from a scalar loss.

    Returns a map `leaf node id -> gradient tensor` covering every leaf on
    the tape; leaves the loss does not depend on get zero gradients.  The
    sweep releases every node's rule and every non-leaf gradient as it
    goes, so a tape is swept once: sweeping it again raises ContractError.
    """
    if loss.tape is None or loss.node is None:
        raise DetachedValueError("backward needs a loss recorded on a tape")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
    tape = loss.tape
    if tape.swept:
        raise ContractError("backward: this tape was already swept; record the loss again to sweep again")
    tape.swept = True
    nodes = tape.nodes
    grads: list[Optional[Array]] = [None] * len(nodes)
    grads[loss.node] = np.ones_like(loss.data)
    for nid in range(len(nodes) - 1, -1, -1):
        node = nodes[nid]
        rule = node.rule
        if rule is None:  # a leaf: its gradient is the result
            continue
        node.rule = None
        g = grads[nid]
        if g is None:
            continue
        grads[nid] = None
        for pid, pg in zip(node.parents, rule(g)):
            if pid is None:
                continue
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
    out: dict[int, Tensor] = {}
    for nid, node in enumerate(nodes):
        if node.kind != "leaf":
            continue
        g = grads[nid]
        out[nid] = Tensor(np.zeros(node.shape) if g is None else g)
    return out
