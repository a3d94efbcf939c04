"""Evaluation protocols on frozen or fine-tuned representations.

All protocols read the encoder output Y; the projector exists to serve
the pretraining loss and is discarded here.

Each protocol holds one copy of its data: KNN ranks its one whole
similarity matrix in row chunks, and fine-tuning gathers each SGD batch
from the training set.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches, derived_rng
from .errors import ArchMismatchError, ContractError, DegenerateFeatureError, DimensionError
from .model import ModelParams, encode
from .tensor import Tape, Tensor, affine, apply_op, backward
from .train import Checkpoint

FEATURE_CHUNK = 256  # rows per encoder pass when extracting features
# similarities knn_predict ranks at once: its rank temporaries stay near
# 256 KiB each, whatever the size of the test bank
_KNN_CHUNK = 32768


@dataclass
class FeatureBank:
    features: np.ndarray  # [N, D_y], rows L2-normalized unless built raw
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class EvalReport:
    protocol: str
    top1: float
    n: int
    config_digest: str

    def csv_row(self) -> str:
        return f"{self.protocol},{self.top1!r},{self.n},{self.config_digest}"

    def describe(self) -> str:
        return f"{self.protocol}: top-1 {self.top1:.4f} on {self.n} samples (config {self.config_digest})"


@dataclass
class ProbeConfig:
    epochs: int = 100
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-6
    batch_size: int = 64
    seed: int = 0


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the batch, as a tape operation."""
    if logits.ndim != 2:
        raise DimensionError(f"cross-entropy: logits must be BxK, got shape {list(logits.shape)}")
    b, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise DimensionError(f"cross-entropy: {b} rows but {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"cross-entropy: label outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - lse
    out = np.array([-log_p[np.arange(b), labels].mean()])
    p = np.exp(log_p)
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0

    def rule(g):
        return (float(g.reshape(-1)[0]) * (p - onehot) / b,)

    return apply_op("softmax_cross_entropy", (logits,), out, rule)


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    bad = norms.reshape(-1) < 1e-12
    if bad.any():
        raise DegenerateFeatureError(
            f"feature row {int(np.argmax(bad))} has near-zero norm; cannot L2-normalize"
        )
    return features / norms


def _check_input_width(checkpoint: Checkpoint, dataset: Dataset) -> None:
    width = checkpoint.params.arch.input_width
    if width != dataset.input_width:
        raise ArchMismatchError(
            f"checkpoint expects input width {width}, dataset provides {dataset.input_width}"
        )


def extract_features(checkpoint: Checkpoint, dataset: Dataset, l2_normalize: bool = True) -> FeatureBank:
    """Frozen encoder forward over the dataset in order, no augmentation."""
    _check_input_width(checkpoint, dataset)
    n = len(dataset)
    feats = np.empty((n, checkpoint.params.arch.representation_width))
    for start in range(0, n, FEATURE_CHUNK):
        stop = min(start + FEATURE_CHUNK, n)
        x = Tensor(dataset.images[start:stop].reshape(stop - start, -1))
        feats[start:stop] = encode(x, checkpoint.params).data
    if l2_normalize:
        feats = l2_normalize_rows(feats)
    return FeatureBank(features=feats, labels=dataset.labels.copy())


def _knn_vote(sims: np.ndarray, labels: np.ndarray, k: int, n_classes: int) -> np.ndarray:
    """knn_predict's vote for each row of `sims`; each class's weight is
    summed in rank order."""
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    at = (np.arange(len(sims))[:, None], labels[order])
    votes = np.zeros((len(sims), n_classes))
    weight = np.zeros((len(sims), n_classes))
    np.add.at(votes, at, 1.0)
    np.add.at(weight, at, np.take_along_axis(sims, order, axis=1))
    tied = votes == votes.max(axis=1, keepdims=True)
    # the largest weight among the most-voted classes; argmax keeps the
    # smallest class id among equal weights
    return np.where(tied, weight, -np.inf).argmax(axis=1)


def knn_predict(train_bank: FeatureBank, test_bank: FeatureBank, k: int) -> np.ndarray:
    """Cosine-similarity majority vote among the top-k training neighbors.

    Vote ties break by summed similarity, then by smaller class id;
    equal-similarity neighbors rank by training index (stable sort).

    The similarity matrix is one `test @ train.T` product, kept whole: a
    product split by rows may round differently.  Its rows are ranked and
    voted on in chunks of about `_KNN_CHUNK` similarities, so the call
    holds that one matrix and one chunk's temporaries.
    """
    if len(train_bank) == 0 or len(test_bank) == 0:
        raise ContractError("knn: empty feature bank")
    if not 1 <= k <= len(train_bank):
        raise ContractError(f"knn: k={k} outside [1, {len(train_bank)}]")
    train = l2_normalize_rows(train_bank.features)
    test = l2_normalize_rows(test_bank.features)
    sims = test @ train.T
    n_classes = int(train_bank.labels.max()) + 1
    preds = np.empty(len(test_bank), dtype=np.int64)
    rows = max(1, _KNN_CHUNK // len(train_bank))
    for lo in range(0, len(test_bank), rows):
        preds[lo:lo + rows] = _knn_vote(sims[lo:lo + rows], train_bank.labels, k, n_classes)
    return preds


def knn_eval(train_bank: FeatureBank, test_bank: FeatureBank, k: int, digest: str = "") -> EvalReport:
    preds = knn_predict(train_bank, test_bank, k)
    top1 = float((preds == test_bank.labels).mean())
    return EvalReport("knn", top1, len(test_bank), digest)


def _sgd_fit(arrays: list, n: int, batch: int, key: tuple, loss_of, cfg: ProbeConfig) -> None:
    """Minibatch SGD with momentum and coupled weight decay on `arrays`, in
    place; `loss_of(idx, leaves)` gets one tape leaf per array, in order.
    Epoch e shuffles the n samples with derived_rng(cfg.seed, *key, e)."""
    velocity = [np.zeros_like(a) for a in arrays]
    for epoch in range(1, cfg.epochs + 1):
        for idx in batches(n, batch, cfg.seed, *key, epoch):
            tape = Tape()
            leaves = [tape.leaf(Tensor(a)) for a in arrays]
            grads = backward(loss_of(idx, leaves))
            for w, g, v in zip(arrays, grads, velocity):
                g += cfg.weight_decay * w
                v *= cfg.momentum
                v += g
                w -= cfg.lr * v


def linear_probe(
    train_bank: FeatureBank, test_bank: FeatureBank, probe_cfg: ProbeConfig, digest: str = ""
) -> EvalReport:
    """Single affine + softmax classifier on frozen features."""
    feats = train_bank.features
    if np.ptp(feats, axis=0).max() < 1e-12:
        raise DegenerateFeatureError("linear probe: feature bank is constant across samples")
    n, d = feats.shape
    k = int(max(train_bank.labels.max(), test_bank.labels.max())) + 1
    w = np.zeros((d, k))
    b = np.zeros(k)

    def loss_of(idx, leaves):
        logits = affine(Tensor(feats[idx]), *leaves)
        return softmax_cross_entropy(logits, train_bank.labels[idx])

    _sgd_fit([w, b], n, min(probe_cfg.batch_size, n - n % 2), (), loss_of, probe_cfg)
    logits = test_bank.features @ w + b
    pred = logits.argmax(axis=1)
    top1 = float((pred == test_bank.labels).mean())
    return EvalReport("probe", top1, len(test_bank), digest)


def stratified_subset(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Per-class round(fraction * count) indices, seeded, sorted for determinism."""
    if not 0.0 < fraction <= 1.0:
        raise ContractError(f"fraction must lie in (0, 1], got {fraction}")
    rng = derived_rng(seed, 0xF)
    chosen = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        take = int(round(fraction * len(members)))
        if take > 0:
            chosen.append(rng.permutation(members)[:take])
    if not chosen:
        raise ContractError(f"fraction {fraction} selects no samples")
    return np.sort(np.concatenate(chosen))


def finetune_semi(
    checkpoint: Checkpoint,
    train_ds: Dataset,
    test_ds: Dataset,
    fraction: float,
    probe_cfg: ProbeConfig,
    digest: str = "",
) -> EvalReport:
    """Unfreeze the encoder, attach a classifier head to Y, fine-tune on a
    class-stratified label fraction, and report test top-1.

    Each SGD batch is gathered from `train_ds` through the subset's
    indices, so no copy of the labelled images is held."""
    _check_input_width(checkpoint, train_ds)
    subset = stratified_subset(train_ds.labels, fraction, probe_cfg.seed)
    n = len(subset)
    if n < 2:
        raise ContractError(f"fraction {fraction} keeps {n} samples, fewer than one batch of 2")
    params = checkpoint.params.copy()
    k = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    head_w = np.zeros((params.arch.representation_width, k))
    head_b = np.zeros(k)
    encoder = [t.data for t in params.flat[:params.encoder_end]]
    projector = params.flat[params.encoder_end:]  # off the tape: encode never reads it

    def loss_of(idx, leaves):
        *enc, w, b = leaves
        rows = subset[idx]
        y = encode(Tensor(train_ds.images[rows].reshape(len(idx), -1)), ModelParams(params.arch, enc + projector))
        return softmax_cross_entropy(affine(y, w, b), train_ds.labels[rows])

    _sgd_fit(encoder + [head_w, head_b], n, min(probe_cfg.batch_size, n - n % 2), (0xFE,), loss_of, probe_cfg)
    x = Tensor(test_ds.images.reshape(len(test_ds), -1))
    y = encode(x, params).data
    pred = (y @ head_w + head_b).argmax(axis=1)
    top1 = float((pred == test_ds.labels).mean())
    return EvalReport(f"finetune@{fraction:g}", top1, len(test_ds), digest)
