"""Adam optimizer, the pretraining loop, and checkpoint persistence.

Every random stream in the loop is derived from (master seed, stream
tag, epoch, batch), so a run resumed from a checkpoint realigns with the
straight-through run without serializing generator internals.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    STREAM_AUGMENT,
    STREAM_LAMBDA,
    STREAM_SHUFFLE,
    Dataset,
    batches,
    two_views,
)
from .errors import ArchMismatchError, ContractError, FormatError, NumericError
from .model import Arch, ModelParams, Tensor, init_params
from .objective import trimix_step_loss
from .streams import as_random, raw_words
from .tensor import Tape, backward, on_worker

if TYPE_CHECKING:
    from concurrent.futures import Executor

CHECKPOINT_MAGIC = b"TMX1"
CHECKPOINT_VERSION = 1

METRICS_COLUMNS = ("step", "epoch", "lambda", "l_bt_inv", "l_bt_rr", "l_vrt", "l_con", "total")

# the arrays stored per parameter, in file order, each as "<kind>:<name>"
_ARRAY_KINDS = ("param", "adam_m", "adam_v")
_ARRAY_DTYPE = np.dtype("<f8")

# Adam's constants; its learning rate and weight decay are config settings
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's state: one first and one second moment per parameter, and the step count."""
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=[np.zeros_like(t.data) for t in params.flat],
                   v=[np.zeros_like(t.data) for t in params.flat])


# values per block: three 256 KiB temporaries per thread.  Serial Adam on
# the `pretrain_wide` arch took the same time at 8,192 and at 32,768 values
# (6.5 and 6.3 ms, then 7.0 and 7.0 ms, medians of 300 alternated calls).
_ADAM_BLOCK = 32768

# With a worker, a model of at least this many values (four blocks) splits
# Adam's update in two halves that run at once; see adam_step.  At 1 BLAS
# thread on 2 cores the split took 0.88-1.00 of the serial time at 51,552
# values (the shipped config, which stays serial), 0.89-1.01 at 72,096,
# 0.80-0.96 at 108,064-176,832 and 0.66-0.67 at 564,480-697,728.
_ADAM_SPLIT_VALUES = 131_072


def _check_adam_inputs(tensors: list, grads: list, state: AdamState) -> None:
    """Everything adam_step relies on, checked before anything is written."""
    if len(grads) != len(tensors):
        raise ContractError(f"adam_step: {len(grads)} gradients for {len(tensors)} parameters")
    if len(state.m) != len(tensors) or len(state.v) != len(tensors):
        raise ContractError(
            f"adam_step: {len(state.m)} first and {len(state.v)} second moments "
            f"for {len(tensors)} parameters"
        )
    for i, (p, g, m, v) in enumerate(zip(tensors, grads, state.m, state.v)):
        shape = p.data.shape
        if g.shape != shape:
            raise ContractError(
                f"adam_step: gradient shape {list(g.shape)} does not match parameter "
                f"{list(shape)} at index {i}"
            )
        for what, a in (("parameter", p.data), ("first moment", m), ("second moment", v)):
            if a.shape != shape or a.dtype != np.float64 \
                    or not (a.flags.c_contiguous and a.flags.writeable):
                raise ContractError(
                    f"adam_step: {what} at index {i} must be a writeable C-contiguous float64 "
                    f"array of shape {list(shape)}"
                )


def _adam_blocks(blocks: list, lr: float, wd: float, bc1: float, bc2: float) -> None:
    """Adam's update of each (p, g, m, v) block of flat views, in place,
    with three block temporaries; g is only read."""
    b1, b2, eps = BETA1, BETA2, EPS
    g_buf, a_buf, b_buf = (np.empty(_ADAM_BLOCK) for _ in range(3))
    for pb, gb, mb, vb in blocks:
        n = pb.size
        a, b = a_buf[:n], b_buf[:n]
        if wd:
            gb = np.add(gb, np.multiply(wd, pb, out=g_buf[:n]), out=g_buf[:n])
        mb *= b1
        mb += np.multiply(1.0 - b1, gb, out=a)
        vb *= b2
        vb += np.multiply(1.0 - b2, np.multiply(gb, gb, out=a), out=a)
        np.divide(mb, bc1, out=a)
        a *= lr
        np.sqrt(np.divide(vb, bc2, out=b), out=b)
        b += eps
        a /= b
        pb -= a


def adam_step(params: ModelParams, grads: list, state: AdamState, lr: float,
              weight_decay: float, worker: Executor | None = None) -> tuple[ModelParams, AdamState]:
    """Classic bias-corrected Adam; weight decay is coupled (g += wd * theta).

    Parameters and moments are updated in place, block by block, with the
    per-element operations in the order of the whole-array formula, so the
    results are the same bits.  The caller's gradients are only read.

    With a `worker` (an executor with one thread) and a model of at least
    `_ADAM_SPLIT_VALUES` values, the blocks are cut at half the values:
    the worker updates the second half while the caller updates the
    first, and the call waits for the worker before it returns or raises.
    Each element sees the same operations, so the bits are the same.
    """
    tensors = params.flat
    _check_adam_inputs(tensors, grads, state)
    state.t += 1
    update = functools.partial(_adam_blocks, lr=lr, wd=weight_decay,
                               bc1=1.0 - BETA1 ** state.t, bc2=1.0 - BETA2 ** state.t)
    blocks = []
    for arrays in zip((t.data for t in tensors), grads, state.m, state.v):
        flat = [a.reshape(-1) for a in arrays]
        blocks += [tuple(a[lo:lo + _ADAM_BLOCK] for a in flat) for lo in range(0, flat[0].size, _ADAM_BLOCK)]
    if worker is None or sum(t.data.size for t in tensors) < _ADAM_SPLIT_VALUES:
        update(blocks)
    else:
        ends = list(itertools.accumulate(b[0].size for b in blocks))
        cut = bisect.bisect_left(ends, ends[-1] / 2) + 1
        with on_worker(worker, functools.partial(update, blocks[cut:])):
            update(blocks[:cut])
    return params, state


@dataclass
class Checkpoint:
    """A run's state after `epoch`; `config_text` records the settings it ran with."""
    params: ModelParams
    adam: AdamState
    epoch: int
    config_text: str = ""


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Magic, version, length-prefixed JSON metadata, then raw little-endian
    float64 arrays.

    The arrays stream one by one into `path + ".tmp"`, which replaces `path`
    only once complete; on any failure the temp file is removed and a
    previous file at `path` is left as it was.
    """
    names = ckpt.params.names()
    groups = ([t.data for t in ckpt.params.flat], ckpt.adam.m, ckpt.adam.v)
    arrays = [(f"{kind}:{n}", a) for kind, group in zip(_ARRAY_KINDS, groups) for n, a in zip(names, group)]
    meta = {
        "epoch": ckpt.epoch,
        "config": ckpt.config_text,
        "arch": ckpt.params.arch.to_dict(),
        "adam": {"t": ckpt.adam.t},
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(meta).encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
            f.write(len(blob).to_bytes(4, "little"))
            f.write(blob)
            for _, a in arrays:
                f.write(memoryview(np.ascontiguousarray(a, dtype=_ARRAY_DTYPE)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_meta(path: str, meta) -> None:
    """The metadata schema the loader reads, checked before any field is read."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise FormatError(f"{path}: metadata {what}")

    require(isinstance(meta, dict), "must be a JSON object")
    require(type(meta.get("epoch")) is int, "needs an integer 'epoch'")
    for key, names in (("arch", ("input_width", "encoder", "projector", "activation")), ("adam", ("t",))):
        require(isinstance(meta.get(key), dict) and set(names) <= meta[key].keys(),
                f"needs an {key!r} object with keys {', '.join(names)}")
    require(isinstance(meta.get("arrays"), list), "needs an 'arrays' list")
    for i, entry in enumerate(meta["arrays"]):
        shape = entry.get("shape") if isinstance(entry, dict) else None
        require(isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape),
                f"array entry {i} needs a string 'name' and a 'shape' of non-negative integers")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated checkpoint header at byte offset {len(raw)}")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(
            f"{path}: bad magic {raw[:4]!r} at byte offset 0 (expected {CHECKPOINT_MAGIC!r})"
        )
    version = int.from_bytes(raw[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} (expected {CHECKPOINT_VERSION})")
    meta_len = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + meta_len:
        raise FormatError(f"{path}: truncated metadata at byte offset {len(raw)}")
    try:
        meta = json.loads(raw[12:12 + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long ints, deep nesting
        raise FormatError(f"{path}: unreadable metadata block ({exc})") from exc
    _check_meta(path, meta)
    offset = 12 + meta_len
    values = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * _ARRAY_DTYPE.itemsize
        if len(raw) - offset < nbytes:
            raise FormatError(
                f"{path}: truncated array {entry['name']!r} at byte offset {offset} "
                f"(need {nbytes} bytes)"
            )
        arr = np.frombuffer(raw, dtype=_ARRAY_DTYPE, count=count, offset=offset).reshape(shape)
        values[entry["name"]] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes after arrays")

    try:
        arch = Arch.from_dict(meta["arch"])
        adam = AdamState(m=[], v=[], t=int(meta["adam"]["t"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad metadata value ({exc})") from exc
    # every shape is checked against the arch before the model is built
    groups = ([], adam.m, adam.v)
    for name, shape in arch.param_shapes():
        for kind, group in zip(_ARRAY_KINDS, groups):
            key = f"{kind}:{name}"
            if key not in values:
                raise FormatError(f"{path}: missing array {key!r}")
            if values[key].shape != shape:
                raise ArchMismatchError(
                    f"{path}: array {key!r} has shape {list(values[key].shape)}, "
                    f"arch expects {list(shape)}"
                )
            group.append(values[key])
    return Checkpoint(
        params=ModelParams(arch, [Tensor(a) for a in groups[0]]),
        adam=adam,
        epoch=meta["epoch"],
        config_text=str(meta.get("config", "")),
    )


def check_resume(resume: Checkpoint, arch: Arch, epochs: int) -> None:
    """A resume checkpoint must hold `arch` and leave epochs to run."""
    if resume.params.arch != arch:
        raise ArchMismatchError(
            f"resume checkpoint arch {resume.params.arch.to_dict()} does not match config arch {arch.to_dict()}"
        )
    if resume.epoch >= epochs:
        raise ContractError(
            f"resume checkpoint is at epoch {resume.epoch} and epochs={epochs}: no epochs left to run"
        )


def metrics_row(step: int, epoch: int, lam: float, bd) -> dict:
    return {
        "step": step,
        "epoch": epoch,
        "lambda": lam,
        "l_bt_inv": bd.l_bt_inv,
        "l_bt_rr": bd.l_bt_rr,
        "l_vrt": bd.l_vrt,
        "l_con": bd.l_con,
        "total": bd.total,
    }


def write_metrics(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in METRICS_COLUMNS:
                v = row[col]
                cells.append(str(v) if isinstance(v, int) else repr(float(v)))
            f.write(",".join(cells) + "\n")


def _epoch_lambdas(cfg, epoch: int, steps: int) -> list[float]:
    """Each step's mixing factor, uniform in [0, 1): batch b's
    derived_rng(seed, STREAM_LAMBDA, epoch, b).random(), computed for the
    whole epoch from the streams' first words."""
    words = raw_words(cfg.seed, (STREAM_LAMBDA, epoch), np.arange(steps)[:, None], 1)
    return as_random(words[:, 0]).tolist()


def pretrain(cfg, dataset: Dataset, out_dir: str | None = None, resume: Checkpoint | None = None):
    """Run the full pretraining loop; returns (checkpoint, metrics rows).

    With `out_dir`, writes `metrics.csv` and `checkpoint.tmx` (plus
    periodic snapshots every `cfg.save_every` epochs).
    """
    policy = cfg.augment_policy()
    arch = cfg.arch_for(dataset.input_width)
    if resume is not None:
        check_resume(resume, arch, cfg.epochs)
        params, adam = resume.params, resume.adam
        start_epoch = resume.epoch + 1
    else:
        params = init_params(arch, seed=cfg.seed)
        adam = AdamState.for_params(params)
        start_epoch = 1

    steps_per_epoch = len(dataset) // cfg.batch_size
    rows: list[dict] = []
    ckpt = Checkpoint(params=params, adam=adam, epoch=start_epoch - 1, config_text=cfg.render())

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    # imported here: concurrent.futures loads logging (about 0.6 MB), which
    # no other command needs.  The worker thread for large stacked products
    # and Adam's second half starts at its first use, and the with-block
    # joins it before returning.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(start_epoch, cfg.epochs + 1):
            lams = _epoch_lambdas(cfg, epoch, steps_per_epoch)
            for b_idx, indices in enumerate(batches(len(dataset), cfg.batch_size, cfg.seed, STREAM_SHUFFLE, epoch)):
                step = (epoch - 1) * steps_per_epoch + b_idx
                views = two_views(dataset.images[indices], policy, cfg.seed, STREAM_AUGMENT, epoch, b_idx,
                                  labels=dataset.labels[indices])
                lam = lams[b_idx]
                tape = Tape(worker)
                attached = params.attach(tape)
                try:
                    bd = trimix_step_loss(views, attached, cfg, lam)
                    grads = backward(bd.loss)
                except NumericError as exc:
                    raise NumericError(f"step {step} (epoch {epoch}): {exc}") from exc
                adam_step(params, grads, adam, cfg.lr, cfg.weight_decay, worker=worker)
                del grads  # not held through the next step's forward and backward
                rows.append(metrics_row(step, epoch, lam, bd))
            ckpt.epoch = epoch
            if out_dir is not None and cfg.save_every > 0 and epoch % cfg.save_every == 0:
                save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch{epoch:04d}.tmx"), ckpt)

    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.tmx"), ckpt)
        write_metrics(os.path.join(out_dir, "metrics.csv"), rows)
    return ckpt, rows
