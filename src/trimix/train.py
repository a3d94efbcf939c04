"""Adam optimizer, the pretraining loop, and checkpoint persistence.

Every random stream in the loop is derived from (master seed, stream
tag, epoch, batch), so a run resumed from a checkpoint realigns with the
straight-through run without serializing generator internals.
"""
from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import (
    STREAM_AUGMENT,
    STREAM_LAMBDA,
    STREAM_SHUFFLE,
    AugmentPolicy,
    Dataset,
    batches,
    derived_rng,
    two_views,
)
from .errors import ArchMismatchError, ContractError, FormatError, NumericError
from .model import Arch, ModelParams, Tensor, init_params
from .objective import trimix_step_loss
from .tensor import Tape, backward

CHECKPOINT_MAGIC = b"TMX1"
CHECKPOINT_VERSION = 1

METRICS_COLUMNS = ("step", "epoch", "lambda", "l_bt_inv", "l_bt_rr", "l_vrt", "l_con", "total")

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass
class AdamState:
    lr: float
    weight_decay: float
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams, lr: float, weight_decay: float) -> "AdamState":
        tensors = params.tensors()
        return cls(
            lr=lr,
            weight_decay=weight_decay,
            m=[np.zeros_like(t.data) for t in tensors],
            v=[np.zeros_like(t.data) for t in tensors],
        )


def adam_step(params: ModelParams, grads: list, state: AdamState) -> tuple[ModelParams, AdamState]:
    """Classic bias-corrected Adam; weight decay is coupled (g += wd * theta)."""
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise ContractError(f"adam_step: {len(grads)} gradients for {len(tensors)} parameters")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i, (p, g) in enumerate(zip(tensors, grads)):
        if g.shape != p.data.shape:
            raise ContractError(
                f"adam_step: gradient shape {list(g.shape)} does not match parameter "
                f"{list(p.data.shape)} at index {i}"
            )
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


@dataclass
class Checkpoint:
    arch: Arch
    params: ModelParams
    adam: AdamState
    epoch: int
    seed: int
    config_text: str = ""
    dtype: str = "f64"


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Magic, version, length-prefixed JSON metadata, then raw little-endian arrays."""
    if ckpt.dtype not in _DTYPES:
        raise ContractError(f"checkpoint dtype must be one of {sorted(_DTYPES)}, got {ckpt.dtype!r}")
    dt = _DTYPES[ckpt.dtype]
    names = ckpt.params.names()
    tensors = ckpt.params.tensors()
    arrays = [(f"param:{n}", t.data) for n, t in zip(names, tensors)]
    arrays += [(f"adam_m:{n}", a) for n, a in zip(names, ckpt.adam.m)]
    arrays += [(f"adam_v:{n}", a) for n, a in zip(names, ckpt.adam.v)]
    meta = {
        "dtype": ckpt.dtype,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "config": ckpt.config_text,
        "arch": ckpt.arch.to_dict(),
        "adam": {
            "t": ckpt.adam.t,
            "lr": ckpt.adam.lr,
            "weight_decay": ckpt.adam.weight_decay,
            "beta1": ckpt.adam.beta1,
            "beta2": ckpt.adam.beta2,
            "eps": ckpt.adam.eps,
        },
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(meta).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
    buf.write(len(blob).to_bytes(4, "little"))
    buf.write(blob)
    for _, a in arrays:
        buf.write(np.ascontiguousarray(a, dtype=dt).tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(buf.getvalue())
    os.replace(tmp, path)


def _check_meta(path: str, meta) -> None:
    """The metadata schema, checked before any field is read."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise FormatError(f"{path}: metadata {what}")

    require(isinstance(meta, dict), "must be a JSON object")
    for key in ("epoch", "seed"):
        require(type(meta.get(key)) is int, f"needs an integer {key!r}")
    for key, names in (("arch", ("input_width", "encoder", "projector", "activation")),
                       ("adam", ("t", "lr", "weight_decay", "beta1", "beta2", "eps"))):
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
    dtype = meta.get("dtype", "f64")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise FormatError(f"{path}: unknown array dtype {dtype!r}")
    dt = _DTYPES[dtype]
    offset = 12 + meta_len
    values = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * dt.itemsize
        if len(raw) - offset < nbytes:
            raise FormatError(
                f"{path}: truncated array {entry['name']!r} at byte offset {offset} "
                f"(need {nbytes} bytes)"
            )
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(shape)
        values[entry["name"]] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes after arrays")

    try:
        arch = Arch.from_dict(meta["arch"])
        a = meta["adam"]
        adam = AdamState(
            lr=float(a["lr"]),
            weight_decay=float(a["weight_decay"]),
            t=int(a["t"]),
            beta1=float(a["beta1"]),
            beta2=float(a["beta2"]),
            eps=float(a["eps"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad metadata value ({exc})") from exc
    # every shape is checked against the arch before anything is built from it
    layers = {"encoder": [], "projector": []}
    for stack, dims in (("encoder", arch.encoder_dims()), ("projector", arch.projector_dims())):
        for i, (din, dout) in enumerate(dims):
            pair = []
            for part, shape in (("weight", (din, dout)), ("bias", (dout,))):
                name = f"{stack}.{i}.{part}"
                for key in (f"param:{name}", f"adam_m:{name}", f"adam_v:{name}"):
                    if key not in values:
                        raise FormatError(f"{path}: missing array {key!r}")
                    if values[key].shape != shape:
                        raise ArchMismatchError(
                            f"{path}: array {key!r} has shape {list(values[key].shape)}, "
                            f"arch expects {list(shape)}"
                        )
                pair.append(Tensor(values[f"param:{name}"]))
                adam.m.append(values[f"adam_m:{name}"])
                adam.v.append(values[f"adam_v:{name}"])
            layers[stack].append(tuple(pair))
    params = ModelParams(arch, layers["encoder"], layers["projector"])
    return Checkpoint(
        arch=arch,
        params=params,
        adam=adam,
        epoch=meta["epoch"],
        seed=meta["seed"],
        config_text=str(meta.get("config", "")),
        dtype=dtype,
    )


def metrics_row(step: int, epoch: int, bd) -> dict:
    return {
        "step": step,
        "epoch": epoch,
        "lambda": bd.lam,
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


def pretrain(cfg, dataset: Dataset, out_dir: str | None = None, resume: Checkpoint | None = None):
    """Run the full pretraining loop; returns (checkpoint, metrics rows).

    With `out_dir`, writes `metrics.csv` and `checkpoint.tmx` (plus
    periodic snapshots every `cfg.save_every` epochs).
    """
    policy = AugmentPolicy(
        pad=cfg.aug_pad,
        hflip_p=cfg.aug_hflip,
        brightness=cfg.aug_brightness,
        contrast=cfg.aug_contrast,
        grayscale_p=cfg.aug_grayscale,
    )
    arch = cfg.arch_for(dataset.input_width)
    if resume is not None:
        if resume.arch != arch:
            raise ArchMismatchError(
                f"resume checkpoint arch {resume.arch.to_dict()} does not match config arch {arch.to_dict()}"
            )
        params, adam = resume.params, resume.adam
        start_epoch = resume.epoch + 1
    else:
        params = init_params(arch, seed=cfg.seed)
        adam = AdamState.for_params(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        start_epoch = 1

    steps_per_epoch = len(dataset) // cfg.batch_size
    rows: list[dict] = []
    ckpt = Checkpoint(
        arch=arch, params=params, adam=adam, epoch=start_epoch - 1,
        seed=cfg.seed, config_text=cfg.render(), dtype=cfg.checkpoint_dtype,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    for epoch in range(start_epoch, cfg.epochs + 1):
        for b_idx, indices in enumerate(batches(len(dataset), cfg.batch_size, cfg.seed, STREAM_SHUFFLE, epoch)):
            step = (epoch - 1) * steps_per_epoch + b_idx
            views = two_views(dataset.images[indices], policy, cfg.seed, STREAM_AUGMENT, epoch, b_idx,
                              labels=dataset.labels[indices])
            tape = Tape()
            attached = params.attach(tape)
            lam_rng = derived_rng(cfg.seed, STREAM_LAMBDA, epoch, b_idx)
            try:
                bd = trimix_step_loss(views, attached, cfg, lam_rng)
                grad_map = backward(bd.loss)
            except NumericError as exc:
                raise NumericError(f"step {step} (epoch {epoch}): {exc}") from exc
            grads = [grad_map[t.node].data for t in attached.tensors()]
            adam_step(params, grads, adam)
            rows.append(metrics_row(step, epoch, bd))
        ckpt.epoch = epoch
        if out_dir is not None and cfg.save_every > 0 and epoch % cfg.save_every == 0:
            save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch{epoch:04d}.tmx"), ckpt)

    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.tmx"), ckpt)
        write_metrics(os.path.join(out_dir, "metrics.csv"), rows)
    return ckpt, rows
