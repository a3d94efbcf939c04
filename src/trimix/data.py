"""Dataset ingestion, two-view augmentation, and even-sized batching.

All randomness flows from `derived_rng(seed, *key)` streams, keyed by the
master seed and a structural key (stream, epoch, batch, index, view), so
results never depend on execution order or worker count.  `two_views`
computes its per-image streams batch-wide (`streams.raw_words`), with the
values those generators would draw, and `synthetic_blobs` seeds one reused
generator with each image's starting state (`streams.initial_states`).
"""
from __future__ import annotations

import csv as csv_module
import io
import struct
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BatchParityError, ContractError, FormatError
from .streams import MASK32, as_random, derived_rng, initial_states, raw_words

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# stream tags for seed derivation (kept stable across versions)
STREAM_AUGMENT = 1
STREAM_LAMBDA = 2
STREAM_SHUFFLE = 3
STREAM_SYNTH = 4

# images per whole-array pass of `synthetic_blobs`: bounds its temporaries
SYNTH_CHUNK = 256


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
    """Two independently augmented views of one batch.

    Nothing reads `labels`.  The field and `two_views(labels=)` stay only
    because the benchmark's `gradcheck_small` setup (perfbench/workloads.py)
    passes `labels=`; they go with the next change to the benchmark
    (ROADMAP, open item 1)."""

    x: np.ndarray  # [B, C, H, W]
    x_prime: np.ndarray
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
        for name in ("noise", "background", "center_jitter"):
            if not getattr(self, name) >= 0:
                raise ContractError(f"synthetic spec: {name} must be >= 0, got {getattr(self, name)}")
        if not self.amp_low <= self.amp_high:
            raise ContractError(
                f"synthetic spec: amp_low {self.amp_low} must not exceed amp_high {self.amp_high}")


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
    """Render class-positioned gaussian bumps with per-sample seeded noise.

    Image i draws from derived_rng(spec.seed, STREAM_SYNTH, i), in this
    order: the center's jitter `normal(0, center_jitter, 2)`, the amplitude
    `uniform(amp_low, amp_high)`, the offset `uniform(0, background)` and
    the pixel noise `normal(0, noise, (g, g))`; `oracle.naive_synthetic_blobs`
    spells that out image by image.  Here one reused PCG64 takes each
    image's starting state (`streams.initial_states`) and draws the
    standard values, which are scaled, shifted and rendered in whole-array
    passes over chunks of SYNTH_CHUNK images.
    """
    g = spec.size
    sigma = g / 7.0
    # class centers stacked on the vertical midline: each class maps to
    # itself under the horizontal flips the augmentation policy applies
    rows = g * (np.arange(spec.classes) + 1.0) / (spec.classes + 1.0)
    centers = np.stack([rows, np.full(spec.classes, (g - 1) / 2.0)], axis=1)
    grid = np.arange(g, dtype=np.float64)

    images = np.empty((spec.n, 1, g, g), dtype=np.float64)
    labels = np.arange(spec.n, dtype=np.int64) % spec.classes
    bitgen = np.random.PCG64(0)  # each image sets its own state
    gen = np.random.Generator(bitgen)
    for start in range(0, spec.n, SYNTH_CHUNK):
        stop = min(start + SYNTH_CHUNK, spec.n)
        jitter, uniforms = np.empty((stop - start, 2)), np.empty((stop - start, 2))
        out = images[start:stop, 0]
        states = initial_states(spec.seed, (STREAM_SYNTH,), np.arange(start, stop)[:, None])
        for j, state in enumerate(states):
            bitgen.state = state
            gen.standard_normal(out=jitter[j])
            gen.random(out=uniforms[j])
            gen.standard_normal(out=out[j])  # the noise, drawn in place
        # normal(0, s) is 0 + s*z and uniform(a, b) is a + (b - a)*u.  The
        # 0 + only turns a -0.0 into 0.0, and every such term is then added
        # to a center or an image that is never -0.0, so it changes no bit
        center = centers[labels[start:stop]] + spec.center_jitter * jitter
        amp = spec.amp_low + (spec.amp_high - spec.amp_low) * uniforms[:, 0]
        offset = spec.background * uniforms[:, 1]
        out *= spec.noise
        # the squared distance is a row term plus a column term
        d2 = (grid - center[:, 0, None])[:, :, None] ** 2 + (grid - center[:, 1, None])[:, None, :] ** 2
        d2 /= -(2.0 * sigma * sigma)  # -d2 / (2 sigma^2): the same bits
        np.exp(d2, out=d2)
        d2 *= amp[:, None, None]
        d2 += offset[:, None, None]
        out += d2
        np.clip(out, 0.0, 1.0, out=out)
    return Dataset(images=images, labels=labels)


def _draws(policy: AugmentPolicy, rng: np.random.Generator) -> tuple:
    """One image's transform parameters (oy, ox, flip, brightness factor,
    contrast factor, grayscale), drawn in pipeline order; a transform the
    policy turns off draws nothing."""
    oy = ox = 0
    if policy.pad > 0:
        oy = int(rng.integers(0, 2 * policy.pad + 1))
        ox = int(rng.integers(0, 2 * policy.pad + 1))
    flip = policy.hflip_p > 0 and rng.random() < policy.hflip_p
    bright = 1.0 + rng.uniform(-policy.brightness, policy.brightness) if policy.brightness > 0 else 1.0
    con = 1.0 + rng.uniform(-policy.contrast, policy.contrast) if policy.contrast > 0 else 1.0
    gray = policy.grayscale_p > 0 and rng.random() < policy.grayscale_p
    return oy, ox, flip, bright, con, gray


def _stack_draws(policy: AugmentPolicy, seed: int, key: tuple, n: int) -> tuple:
    """`_draws` of derived_rng(seed, *key, i, v) for every row v*n + i of
    the two-view stack, as arrays, computed from the streams' raw words the
    way numpy's Generator consumes them:

    - both crop offsets share the first word, low half then high half,
      each Lemire's `(half * (2p+1)) >> 32`;
    - `random()` takes a fresh word (`streams.as_random`), and
      `uniform(a, b)` is `a + (b - a) * random()`.

    A bounded draw that Lemire's method rejects (probability 2**-32 per
    draw) makes numpy draw again: that row builds its generator.
    """
    k = 2 * n
    rows = np.stack([np.tile(np.arange(n), 2), np.repeat([0, 1], n)], axis=1)
    drawn = (policy.pad, policy.hflip_p, policy.brightness, policy.contrast, policy.grayscale_p)
    count = sum(p > 0 for p in drawn)
    words = iter(raw_words(seed, key, rows, count).T if count else ())

    def uniform(a):  # Generator.uniform(-a, a)
        return -a + (a - -a) * as_random(next(words))

    oy, ox, reject = np.zeros(k, np.int64), np.zeros(k, np.int64), np.zeros(k, bool)
    if policy.pad > 0:
        span = 2 * policy.pad + 1
        threshold = (MASK32 - 2 * policy.pad) % span
        first = next(words)
        m_y, m_x = (first & MASK32) * span, (first >> 32) * span
        oy[:], ox[:] = m_y >> 32, m_x >> 32
        reject = ((m_y & MASK32) < threshold) | ((m_x & MASK32) < threshold)
    flip = as_random(next(words)) < policy.hflip_p if policy.hflip_p > 0 else np.zeros(k, bool)
    bright = 1.0 + uniform(policy.brightness) if policy.brightness > 0 else np.ones(k)
    con = 1.0 + uniform(policy.contrast) if policy.contrast > 0 else np.ones(k)
    gray = as_random(next(words)) < policy.grayscale_p if policy.grayscale_p > 0 else np.zeros(k, bool)
    for r in np.flatnonzero(reject):
        oy[r], ox[r], flip[r], bright[r], con[r], gray[r] = _draws(
            policy, derived_rng(seed, *key, *rows[r].tolist()))
    return oy, ox, flip, bright, con, gray


def two_views(
    batch_images: np.ndarray,
    policy: AugmentPolicy,
    seed: int,
    *key: int,
    labels: np.ndarray | None = None,
) -> ViewPair:
    """Two independent transform draws per image; image i of view v draws
    what derived_rng(seed, *key, i, v) would.

    Each image is reflect-padded and cropped, flipped, scaled in
    brightness and contrast, made grayscale and clipped to [0, 1], as
    `oracle.naive_two_views` spells out image by image.  Here both views
    are one stack, whose row v*n + i is image i of view v, and each
    transform is one operation on the whole stack.  The batch is never
    written.
    """
    n, c, h, w = batch_images.shape
    if n % 2 != 0:
        raise BatchParityError(f"two_views: batch size {n} is odd")
    oy, ox, flip, bright, con, gray = _stack_draws(policy, seed, key, n)
    src = np.tile(np.arange(n), 2)
    p = policy.pad
    if n * c * (h + 2 * p) * (w + 2 * p) * batch_images.itemsize > sys.maxsize:
        # numpy raises ValueError for an array larger than its index type
        # (Py_ssize_t) can address; refuse it as any too-large allocation is
        raise MemoryError(f"two_views: a pad of {p} makes the padded batch too large to allocate")
    padded = np.pad(batch_images, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect") if p else batch_images
    # the gather copies, so the flip can write in place
    out = sliding_window_view(padded, (h, w), axis=(2, 3))[src, :, oy, ox]
    out[flip] = out[flip, ..., ::-1]
    if policy.brightness > 0:
        out *= bright[:, None, None, None]
    if policy.contrast > 0:
        if policy.brightness > 0:
            m = out.reshape(2 * n, c * h * w).mean(axis=1)
        else:
            # the definition averages the crop view itself here, and numpy
            # sums a strided view larger than its buffer (8192 values) in
            # chunks, unlike a contiguous copy: average that same view
            m = np.array([padded[s, :, y:y + h, x:x + w][..., ::-1 if f else 1].mean()
                          for s, y, x, f in zip(src, oy, ox, flip)])
        m = m[:, None, None, None]
        out -= m
        out *= con[:, None, None, None]
        out += m
    if gray.any():
        out[gray] = out[gray].mean(axis=1, keepdims=True)
    np.clip(out, 0.0, 1.0, out=out)
    return ViewPair(x=out[:n], x_prime=out[n:], labels=labels)


def check_batch_size(n: int, batch_size: int) -> None:
    """An even batch size in [2, n], the batch sizes `batches` takes."""
    if batch_size % 2 != 0:
        raise BatchParityError(f"batches: batch size {batch_size} is odd, need an even batch")
    if not 2 <= batch_size <= n:
        raise ContractError(f"batches: batch size {batch_size} outside [2, dataset size {n}]")


def batches(n: int, batch_size: int, seed: int, *key: int) -> list[np.ndarray]:
    """Shuffle range(n) with derived_rng(seed, *key) into even-sized index
    slices; the final partial batch is dropped."""
    check_batch_size(n, batch_size)
    perm = derived_rng(seed, *key).permutation(n)
    return [perm[start:start + batch_size] for start in range(0, n - batch_size + 1, batch_size)]
