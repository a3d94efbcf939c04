"""Shared helpers for the test suite."""
from __future__ import annotations

import ast
import pathlib
import threading
import time
from concurrent.futures import Future

import numpy as np

from trimix import oracle
from trimix.tensor import Tape, Tensor, apply_op, backward


def op_gradcheck(build, arrays, seed_note="", tol=1e-6):
    """Compare tape gradients of `build(tensors) -> scalar Tensor` against
    central finite differences over `arrays`.

    `build` receives one tape-attached Tensor per input array and must
    return a scalar (single-element) Tensor on the same tape.
    """
    tape = Tape()
    leaves = [tape.leaf(Tensor(a)) for a in arrays]
    out = build(leaves)
    tape_grads = backward(out)

    def value() -> float:
        plain = [Tensor(a) for a in arrays]
        return build(plain).item()

    fd_grads = oracle.finite_diff(value, arrays)
    err = max(oracle.max_relative_error(tg, fg) for tg, fg in zip(tape_grads, fd_grads))
    assert err < tol, f"gradient mismatch {err:.3e} (tolerance {tol:g}) {seed_note}"
    return err


def contract(out: Tensor, seed: int = 0) -> Tensor:
    """Scalar <out, r> for a seeded random cotangent r of out's shape.

    Reduces any op to a scalar for gradient checks.  Unlike a plain sum
    (an all-ones cotangent) it sees every direction of the op's Jacobian:
    the sum of a standardized column, for one, is identically zero.
    """
    r = np.random.default_rng(seed).normal(size=out.shape)
    return apply_op("contract", (out,), np.array([float((out.data * r).sum())]),
                    lambda g: (float(g.reshape(-1)[0]) * r,))


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def imported_names(module) -> set[str]:
    """Every module a source file imports, and every `module.name` it
    imports from one; relative imports resolve into `trimix`."""
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = (("trimix." if node.level else "") + (node.module or "")).rstrip(".")
            imported.add(source)
            imported.update(f"{source}.{alias.name}" for alias in node.names)
    return imported


class FailingWorker:
    """A worker whose tasks run on their own threads: the first `good` run
    as asked, every later one sleeps, sets `raised` and raises MemoryError."""

    def __init__(self, good: int):
        self.good = good
        self.raised = threading.Event()
        self.futures, self.threads = [], []

    def submit(self, fn, *args):
        future, fails = Future(), len(self.futures) >= self.good

        def task():
            if not fails:
                future.set_result(fn(*args))
                return
            time.sleep(0.05)
            self.raised.set()
            future.set_exception(MemoryError("worker out of memory"))

        self.futures.append(future)
        self.threads.append(threading.Thread(target=task))
        self.threads[-1].start()
        return future

    def join(self):
        for t in self.threads:
            t.join(timeout=10)
            assert not t.is_alive()
