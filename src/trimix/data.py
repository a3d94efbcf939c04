"""Dataset ingestion, two-view augmentation, and even-sized batching.

All randomness flows from per-sample seed sequences derived from the
master seed and a structural key (stream, epoch, batch, index, view), so
results never depend on execution order or worker count.
"""
from __future__ import annotations

import csv as csv_module
import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BatchParityError, ContractError, FormatError
from .tensor import Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# stream tags for seed derivation (kept stable across versions)
STREAM_AUGMENT = 1
STREAM_LAMBDA = 2
STREAM_SHUFFLE = 3
STREAM_SYNTH = 4


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...) independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class Dataset:
    images: np.ndarray  # [N, C, H, W], values in [0, 1]
    labels: np.ndarray  # [N] int class ids >= 0

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ContractError(f"dataset images must be NxCxHxW, got shape {list(self.images.shape)}")
        if len(self.labels) != self.images.shape[0]:
            raise ContractError(
                f"dataset has {self.images.shape[0]} images but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def input_width(self) -> int:
        c, h, w = self.images.shape[1:]
        return c * h * w


@dataclass
class ViewPair:
    """Two independently augmented views of one batch; labels ride along
    for the evaluators only and never reach the objective."""

    x: Tensor
    x_prime: Tensor
    labels: np.ndarray | None = None


@dataclass
class AugmentPolicy:
    pad: int = 2
    hflip_p: float = 0.5
    brightness: float = 0.4
    contrast: float = 0.4
    grayscale_p: float = 0.1

    def __post_init__(self):
        for name in ("hflip_p", "grayscale_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"augment policy: {name} must be in [0, 1], got {p}")
        if self.pad < 0:
            raise ContractError(f"augment policy: pad must be >= 0, got {self.pad}")

    @classmethod
    def identity(cls) -> "AugmentPolicy":
        return cls(pad=0, hflip_p=0.0, brightness=0.0, contrast=0.0, grayscale_p=0.0)


@dataclass
class SyntheticSpec:
    """Gaussian blobs at class-dependent positions on a GxG canvas.

    `background` draws a per-image constant offset in [0, background]: a
    nuisance that dominates raw-pixel similarity but that the augmentation
    family teaches an encoder to discard.
    """

    n: int = 600
    classes: int = 3
    size: int = 16
    seed: int = 0
    noise: float = 0.25
    background: float = 1.1
    amp_low: float = 0.85
    amp_high: float = 1.0
    center_jitter: float = 0.8

    def __post_init__(self):
        if self.n < 1 or self.classes < 1 or self.size < 4:
            raise ContractError("synthetic spec: need n >= 1, classes >= 1, size >= 4")


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if len(buf) < offset + 4:
        raise FormatError(f"{path}: truncated header at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Decode big-endian IDX image/label files (MNIST layout)."""
    with open(images_path, "rb") as f:
        ibuf = f.read()
    magic = _read_be_u32(ibuf, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: bad magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{IDX_IMAGES_MAGIC:08x})"
        )
    n = _read_be_u32(ibuf, 4, images_path)
    h = _read_be_u32(ibuf, 8, images_path)
    w = _read_be_u32(ibuf, 12, images_path)
    need = n * h * w
    if len(ibuf) - 16 < need:
        raise FormatError(
            f"{images_path}: truncated pixel data at byte offset {len(ibuf)} "
            f"(need {16 + need} bytes total)"
        )
    pixels = np.frombuffer(ibuf, dtype=np.uint8, count=need, offset=16)
    images = pixels.astype(np.float64).reshape(n, 1, h, w) / 255.0

    with open(labels_path, "rb") as f:
        lbuf = f.read()
    magic = _read_be_u32(lbuf, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: bad magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{IDX_LABELS_MAGIC:08x})"
        )
    n_labels = _read_be_u32(lbuf, 4, labels_path)
    if n_labels != n:
        raise FormatError(f"{labels_path}: {n_labels} labels for {n} images")
    if len(lbuf) - 8 < n_labels:
        raise FormatError(
            f"{labels_path}: truncated label data at byte offset {len(lbuf)} "
            f"(need {8 + n_labels} bytes total)"
        )
    labels = np.frombuffer(lbuf, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)
    return Dataset(images=images, labels=labels)


def read_text(path: str) -> str:
    """The file's contents decoded as UTF-8, or a FormatError at the first bad byte."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte 0x{raw[exc.start]:02x} at byte offset {exc.start} is not valid UTF-8"
        ) from exc


def load_csv(path: str) -> Dataset:
    """Rows of `label, pixel0..pixelP-1` with byte-valued pixels 0-255."""
    rows = []
    reader = csv_module.reader(io.StringIO(read_text(path), newline=""))
    try:
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                values = [int(v) for v in row]
            except ValueError as exc:
                raise FormatError(f"{path}: row {line_no}: non-integer cell ({exc})") from exc
            rows.append((line_no, values))
    except csv_module.Error as exc:
        raise FormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0][1])
    if width < 2:
        raise FormatError(f"{path}: row 1: need a label plus at least one pixel")
    pixel_count = width - 1
    labels = np.empty(len(rows), dtype=np.int64)
    flat = np.empty((len(rows), pixel_count), dtype=np.float64)
    for i, (line_no, values) in enumerate(rows):
        if len(values) != width:
            raise FormatError(f"{path}: row {line_no}: expected {width} cells, got {len(values)}")
        if not 0 <= values[0] < 2**63:  # an int64 class id
            raise FormatError(f"{path}: row {line_no}: label {values[0]} out of range")
        pix = values[1:]
        if min(pix) < 0 or max(pix) > 255:
            raise FormatError(f"{path}: row {line_no}: pixel byte outside 0-255")
        labels[i] = values[0]
        flat[i] = pix
    side = int(round(np.sqrt(pixel_count)))
    if side * side == pixel_count:
        c, h, w = 1, side, side
    else:
        side = int(round(np.sqrt(pixel_count / 3)))
        if pixel_count % 3 == 0 and side * side * 3 == pixel_count:
            c, h, w = 3, side, side
        else:
            raise FormatError(f"{path}: {pixel_count} pixels per row is not a square image")
    images = flat.reshape(len(rows), c, h, w) / 255.0
    return Dataset(images=images, labels=labels)


def synthetic_blobs(spec: SyntheticSpec) -> Dataset:
    """Render class-positioned gaussian bumps with per-sample seeded noise."""
    g = spec.size
    sigma = g / 7.0
    # class centers stacked on the vertical midline: each class maps to
    # itself under the horizontal flips the augmentation policy applies
    rows = g * (np.arange(spec.classes) + 1.0) / (spec.classes + 1.0)
    centers = np.stack([rows, np.full(spec.classes, (g - 1) / 2.0)], axis=1)
    yy, xx = np.mgrid[0:g, 0:g].astype(np.float64)

    images = np.empty((spec.n, 1, g, g), dtype=np.float64)
    labels = np.arange(spec.n, dtype=np.int64) % spec.classes
    for i in range(spec.n):
        rng = derived_rng(spec.seed, STREAM_SYNTH, i)
        k = labels[i]
        center = centers[k] + rng.normal(0.0, spec.center_jitter, size=2)
        amp = rng.uniform(spec.amp_low, spec.amp_high)
        offset = rng.uniform(0.0, spec.background)
        d2 = (yy - center[0]) ** 2 + (xx - center[1]) ** 2
        img = offset + amp * np.exp(-d2 / (2.0 * sigma * sigma))
        img = img + rng.normal(0.0, spec.noise, size=(g, g))
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images=images, labels=labels)


def _augment_one(img: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    """One transform draw applied to one CxHxW image; output stays in [0, 1]."""
    c, h, w = img.shape
    out = img
    if policy.pad > 0:
        p = policy.pad
        padded = np.pad(out, ((0, 0), (p, p), (p, p)), mode="reflect")
        oy = int(rng.integers(0, 2 * p + 1))
        ox = int(rng.integers(0, 2 * p + 1))
        out = padded[:, oy:oy + h, ox:ox + w]
    if policy.hflip_p > 0 and rng.random() < policy.hflip_p:
        out = out[:, :, ::-1]
    if policy.brightness > 0:
        out = out * (1.0 + rng.uniform(-policy.brightness, policy.brightness))
    if policy.contrast > 0:
        f = 1.0 + rng.uniform(-policy.contrast, policy.contrast)
        m = out.mean()
        out = (out - m) * f + m
    if policy.grayscale_p > 0 and rng.random() < policy.grayscale_p:
        out = np.repeat(out.mean(axis=0, keepdims=True), c, axis=0)
    return np.clip(out, 0.0, 1.0)


def two_views(
    batch_images: np.ndarray,
    policy: AugmentPolicy,
    seed: int,
    *key: int,
    labels: np.ndarray | None = None,
) -> ViewPair:
    """Two independent transform draws per image; image i of view v draws
    from derived_rng(seed, *key, i, v)."""
    if batch_images.shape[0] % 2 != 0:
        raise BatchParityError(f"two_views: batch size {batch_images.shape[0]} is odd")
    views = []
    for view in (0, 1):
        stack = np.empty_like(batch_images)
        for i in range(batch_images.shape[0]):
            stack[i] = _augment_one(batch_images[i], policy, derived_rng(seed, *key, i, view))
        views.append(Tensor(stack))
    return ViewPair(x=views[0], x_prime=views[1], labels=labels)


def batches(n: int, batch_size: int, seed: int, *key: int) -> list[np.ndarray]:
    """Shuffle range(n) with derived_rng(seed, *key) into even-sized index
    slices; the final partial batch is dropped."""
    if batch_size % 2 != 0:
        raise BatchParityError(f"batches: batch size {batch_size} is odd, need an even batch")
    if not 2 <= batch_size <= n:
        raise ContractError(f"batches: batch size {batch_size} outside [2, dataset size {n}]")
    perm = derived_rng(seed, *key).permutation(n)
    return [perm[start:start + batch_size] for start in range(0, n - batch_size + 1, batch_size)]
