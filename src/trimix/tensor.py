"""Dense float64 tensors with a reverse-mode autodiff tape.

The tape is define-by-run and rebuilt every training step: operations
append nodes in execution order, so insertion order is already a
topological order and the backward sweep is a single reverse pass that
touches each node at most once.  A tape is swept once: the sweep drops
each node's rule, and with it the arrays the rule saved, as it passes.
`backward` returns one plain gradient array per leaf, in the order the
leaves were registered, and sums a node's contributions in place.

Values are 64-bit throughout; every recorded operation checks its output
for NaN/Inf and fails loudly instead of propagating poison.

An op pays for its math, its shape check, its finiteness check and, on a
tape, one node.  State that only the backward pass reads is built inside
the op's rule, so a value computed off the tape never builds it.

Several batches can share one pass through a stack of layers as row
blocks of one tensor: the caller concatenates them and passes their row
bounds to each `affine`.  Each matrix product runs block by block, into
the block's rows of one output: BLAS may round a row differently when
the matrix around it has more rows, so this keeps the bytes of one pass
per batch.  ReLU, the finiteness check and the tape node are paid once
for the stack, and so is the bias add unless a worker computes blocks
(then each block adds its bias right after its product).  Weight and
bias gradients add last block first, the order a sweep adds them when
each batch has its own nodes.  `rows` splits a block back out.

A tape is used by one thread.  A tape made with a worker (an executor
with one thread, owned by the caller) hands it a share of the block
products of a stack whose blocks are large (see `affine`); a bare
`Tape()`, or a stack of small blocks, runs that share of the backward
rule on the calling thread.  The same BLAS calls run on arrays the
calling thread allocated, with the adds in the same order, so no bit
changes at any BLAS thread count.  The worker never sees the tape or a
`Tensor`, and the op waits for it before it returns or raises.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
    DetachedValueError,
    DimensionError,
    NumericError,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

Array = np.ndarray

# backward(upstream) -> one gradient array per op input, in input order.
# The arrays are the sweep's to keep and add into: no two share memory,
# and none shares memory with any node's forward data.  A rule may hand
# its upstream itself to one input (add does, to its first; relu masks it
# in place first).
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
    `worker`, if given, runs the large block products of a stacked
    `affine` on arrays the calling thread allocated; the tape itself is
    still used by the calling thread alone.
    """

    __slots__ = ("nodes", "swept", "worker")

    def __init__(self, worker: Optional[Executor] = None):
        self.nodes: list[TapeNode] = []
        self.swept = False
        self.worker = worker

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
    return apply_op("add", (a, b), ad + bd, lambda g: (g, g.copy()))


def scalar_mul(t: Tensor, s: float) -> Tensor:
    s = float(s)
    return apply_op("scalar_mul", (t,), t.data * s, lambda g: (g * s,))


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)
    # the mask from the output: out > 0 exactly where the input is, so the
    # subgradient is 0 at 0.0 and -0.0 (and the next affine keeps out alive);
    # the upstream is the sweep's own array, so it is masked in place
    return apply_op("relu", (t,), out, lambda g: (np.multiply(g, out > 0, out=g),), check=False)


def rows(t: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of `t`, sharing its storage.

    The rule writes the block's gradient into a -0.0-filled array of the
    full shape: a + (-0.0) == a for every float a, +-0.0 included, so
    the gradients of disjoint blocks of one tensor add up bit for bit.
    """
    td = t.data
    if not 0 <= lo < hi <= td.shape[0]:
        raise DimensionError(f"rows: bounds {lo}:{hi} do not fit shape {list(td.shape)}")
    shape = td.shape

    def rule(g):
        full = np.full(shape, -0.0)
        full[lo:hi] = g
        return (full,)

    return apply_op("rows", (t,), td[lo:hi], rule, check=False)


def _check_affine(xd: Array, wd: Array, bd: Array) -> None:
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


# A stack's block products go to the tape's worker when one block's product
# has at least this many multiply-adds.  At 1 BLAS thread, a three-block
# affine's forward and backward took 10-19% longer with the worker at
# 1.05 M per block and 10-12% less at 2.1 M; 4 M keeps every product of
# the shipped config (at most 2.1 M) on the calling thread.
_WORKER_MACS = 4_000_000


def _matmuls(products: list, bias: Optional[Array] = None) -> None:
    """Each (a, b, out) product; `bias`, if given, is added to each out."""
    for a, b, out in products:
        np.matmul(a, b, out=out)
        if bias is not None:
            out += bias


class on_worker:
    """`with on_worker(worker, *tasks):` runs each task, a call with no
    arguments, on `worker` in order while the caller runs the with-block;
    with no worker (None) the tasks run on the calling thread before the
    block.  The exit waits for every task, also when the block raises, so
    no task writes after the caller is gone; then it raises the first
    task's error, if any."""

    __slots__ = ("pending",)

    def __init__(self, worker: Optional[Executor], *tasks: Callable[[], object]):
        self.pending = []
        if worker is None:
            for task in tasks:
                task()
            return
        try:
            for task in tasks:
                self.pending.append(worker.submit(task))
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, error, trace) -> None:
        for future in self.pending:
            future.exception()  # waits; raises nothing
        if kind is None:
            for future in self.pending:
                future.result()


def _blockwise(blocks: list, bounds: tuple, wd: Array, g: Array, dx: bool,
               worker: Optional[Executor]) -> tuple:
    """The rule of an affine node: each row block's products on their own,
    so the result is the bytes of one node per block.  Weight and bias
    gradients add last block first, ((G_n + G_n-1) + ...) + G_1, with one
    weight-shaped temporary, in two `on_worker` rounds:
    1. the worker computes G_n into `gw` while the caller computes G_n-1
       into `tmp`;
    2. the worker computes the input gradients of blocks n..2 while the
       caller adds `tmp` into `gw`, then each remaining G_i in turn, the
       bias gradient and block 1's input gradient.
    With no worker each round's task runs on the calling thread first."""
    gs = [g[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    gx = np.empty((g.shape[0], wd.shape[0])) if dx else None
    gw, tmp = np.empty(wd.shape), None
    with on_worker(worker, functools.partial(np.matmul, blocks[-1].T, gs[-1], out=gw)):
        if len(gs) > 1:
            tmp = blocks[-2].T @ gs[-2]
    tasks = [functools.partial(_matmuls, [(gs[i], wd.T, gx[bounds[i]:bounds[i + 1]])
                                          for i in range(len(gs) - 1, 0, -1)])] if dx else []
    with on_worker(worker, *tasks):
        if tmp is not None:
            gw += tmp
        for i in range(len(gs) - 3, -1, -1):
            np.matmul(blocks[i].T, gs[i], out=tmp)
            gw += tmp
        gb = np.add.reduce(gs[-1], axis=0)
        for gi in gs[-2::-1]:
            gb += np.add.reduce(gi, axis=0)
        if dx:
            np.matmul(gs[0], wd.T, out=gx[:bounds[1]])
    return gx, gw, gb


def affine(x: Tensor, w: Tensor, bias: Tensor, bounds: Optional[Sequence[int]] = None) -> Tensor:
    """Fused x @ w + bias: one tape node per layer, for a stack of row
    blocks with row bounds (0, ..., rows), or for one block by default.

    If `w` is on a tape with a worker and one block's product has at
    least `_WORKER_MACS` multiply-adds, the worker computes blocks 2..n,
    each with its bias, while the caller computes block 1 and its bias,
    and the rule (`_blockwise`) hands it its share of each round."""
    xd, wd, bd = x.data, w.data, bias.data
    _check_affine(xd, wd, bd)
    n = xd.shape[0]
    if bounds is None:
        bounds = (0, n)
    elif len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n \
            or not all(map(operator.lt, bounds, bounds[1:])):
        raise DimensionError(f"affine: row bounds {list(bounds)} must rise strictly from 0 to {n}")
    worker = None
    if w.tape is not None and w.tape.worker is not None and len(bounds) > 2 \
            and max(map(operator.sub, bounds[1:], bounds)) * wd.size >= _WORKER_MACS:
        worker = w.tape.worker
    blocks = [xd[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    out = np.empty((n, wd.shape[1]))
    if worker is None:
        for lo, hi, xb in zip(bounds, bounds[1:], blocks):
            np.matmul(xb, wd, out=out[lo:hi])
        out += bd
    else:
        # each block's bias is added right after its product, on its thread
        rest = [(xb, wd, out[lo:hi]) for lo, hi, xb in zip(bounds[1:], bounds[2:], blocks[1:])]
        with on_worker(worker, functools.partial(_matmuls, rest, bd)):
            first = np.matmul(blocks[0], wd, out=out[:bounds[1]])
            first += bd
    dx = x.node is not None  # an off-tape input (the image batch) takes no gradient
    return apply_op("affine", (x, w, bias), out, lambda g: _blockwise(blocks, bounds, wd, g, dx, worker))


def backward(loss: Tensor) -> list[Array]:
    """Reverse sweep from a scalar loss: one gradient array per leaf on
    the tape, in registration order, zeros for a leaf the loss does not
    reach.

    Later contributions to a node add into its first in place (see
    `BackwardRule`).  The sweep releases every node's rule and every
    non-leaf gradient as it goes, so a tape is swept once: sweeping it
    again raises ContractError.
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
            if grads[pid] is None:
                grads[pid] = pg
            else:
                grads[pid] += pg
    return [np.zeros(node.shape) if g is None else g
            for node, g in zip(nodes, grads) if node.kind == "leaf"]
