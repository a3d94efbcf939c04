"""Dense float64 tensors with a reverse-mode autodiff tape.

The tape is define-by-run and rebuilt every training step: operations
append nodes in execution order, so insertion order is already a
topological order and the backward sweep is a single reverse pass that
touches each node at most once.  A tape is swept once: the sweep drops
each node's rule, and with it the arrays the rule saved, as it passes.

Values are 64-bit throughout; every recorded operation checks its output
for NaN/Inf and fails loudly instead of propagating poison.

An op pays for its math, its shape check, its finiteness check and, on a
tape, one node.  State that only the backward pass reads is built inside
the op's rule, so a value computed off the tape never builds it.
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
        return self.data.item()

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
    computation with no node appended, and the rule is never called, so a
    rule builds whatever only the backward pass needs.
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
    node = tape._append(kind, tuple([t.node for t in inputs]), out_data.shape, rule)
    return Tensor(out_data, tape=tape, node=node)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(f"add: shapes {list(ad.shape)} and {list(bd.shape)} do not match")
    return apply_op("add", (a, b), ad + bd, lambda g: (g, g))


def scalar_mul(t: Tensor, s: float) -> Tensor:
    s = float(s)
    return apply_op("scalar_mul", (t,), t.data * s, lambda g: (g * s,))


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)
    # the mask from the output: out > 0 exactly where the input is, so the
    # subgradient is 0 at 0.0 and -0.0 (and the next affine keeps out alive)
    return apply_op("relu", (t,), out, lambda g: (g * (out > 0),), check=False)


def affine(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Fused x @ w + bias: one tape node per layer."""
    xd, wd, bd = x.data, w.data, bias.data
    if xd.ndim != 2 or wd.ndim != 2:
        bad = wd if xd.ndim == 2 else xd
        raise DimensionError(f"affine: expected a 2-D tensor, got shape {list(bad.shape)}")
    if xd.shape[1] != wd.shape[0]:
        raise DimensionError(
            f"affine: inner dimensions disagree for shapes {list(xd.shape)} x {list(wd.shape)}"
        )
    if bd.ndim != 1 or bd.shape[0] != wd.shape[1]:
        raise DimensionError(
            f"affine: bias shape {list(bd.shape)} does not fit weight {list(wd.shape)}"
        )
    out = xd @ wd
    out += bd
    if x.node is None:  # an off-tape input (the image batch) takes no gradient
        rule = lambda g: (None, xd.T @ g, np.add.reduce(g, axis=0))
    else:
        rule = lambda g: (g @ wd.T, xd.T @ g, np.add.reduce(g, axis=0))
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
    # owned[i]: grads[i] is a sum this sweep allocated, so later
    # contributions add into it; a first contribution is a rule's own
    # array (add's rule hands one upstream array to both its inputs), so
    # the second one makes a fresh sum and leaves it unwritten
    owned = [False] * len(nodes)
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
            acc = grads[pid]
            if acc is None:
                grads[pid] = pg
            elif owned[pid]:
                acc += pg
            else:
                grads[pid] = acc + pg
                owned[pid] = True
    out: dict[int, Tensor] = {}
    for nid, node in enumerate(nodes):
        if node.kind != "leaf":
            continue
        g = grads[nid]
        out[nid] = Tensor(np.zeros(node.shape) if g is None else g)
    return out
