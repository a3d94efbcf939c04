"""The three workloads, built only from trimix's public functions.

Each workload makes its inputs from the seed, sets up (dataset build or
IDX load, plus parameter init), and then repeats one user-facing chain of
calls.  `rep` returns the chain's timings, the digest of every output
that must not change between repetitions or under tracing, and the
correctness checks it made.  See README.md for why each workload exists.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import re
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import trimix
import trimix.cli
import trimix.data
import trimix.eval
import trimix.model
import trimix.oracle
import trimix.train
from trimix.config import TriMixConfig

clock = time.perf_counter

GRADCHECK_TOLERANCE = 1e-4  # criterion 1's, held here so the check cannot drift with the code
REFERENCE_SEED = 7


@dataclass
class Rep:
    wall_s: float  # the whole chain
    main_s: float  # its train.pretrain or cli.gradcheck call
    samples: int  # view pairs through trimix_step_loss during main_s
    digest: str  # outputs that must repeat bit for bit
    info: dict = field(default_factory=dict)  # name -> (value, unit), not bounded
    checks: list = field(default_factory=list)  # (name, ok, detail)
    steps: int = 0
    steps_failed: int = 0
    reports: int = 0  # eval reports and gradcheck runs
    peak_rss_mb: float = 0.0


def _sha(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _loss_checks(rows: list) -> tuple[int, int]:
    bad = sum(1 for r in rows if not math.isfinite(r["total"]))
    return len(rows), bad


def _epoch_means(rows: list) -> dict[int, float]:
    by_epoch: dict[int, list] = {}
    for r in rows:
        by_epoch.setdefault(r["epoch"], []).append(r["total"])
    return {e: float(np.mean(v)) for e, v in by_epoch.items()}


def _pretrain(cfg: TriMixConfig, train_ds, out_dir: str) -> tuple[float, list]:
    t0 = clock()
    _, rows = trimix.train.pretrain(cfg, train_ds, out_dir=out_dir)
    return clock() - t0, rows


def _reference(root: str) -> dict | None:
    """Seed-7 numbers committed in reference/reference_results.txt."""
    try:
        with open(os.path.join(root, "reference", "reference_results.txt")) as f:
            text = f.read()
        return {
            "digest": re.search(r"default config digest: (\w+)", text).group(1),
            "knn": re.search(r"knn\(k=\d+\) trained\s*: ([\d.]+)", text).group(1),
            "loss": re.search(r"-> epoch \d+ ([\d.]+)", text).group(1),
        }
    except (OSError, AttributeError):  # missing file, or a line not found
        return None


class PretrainDefault:
    """The shipped default config end to end, then knn/probe/finetune."""

    name = "pretrain_default"
    main = "pretrain"
    reference = "small_ops"  # spans.reference kind that sets its step time
    batch = 64

    def __init__(self, seed: int, work_dir: str, root: str):
        self.cfg = TriMixConfig(seed=seed, batch_size=self.batch).validate()
        self.out = os.path.join(work_dir, "run")
        self.root = root

    def setup(self):
        cfg = self.cfg
        train_ds = trimix.data.synthetic_blobs(cfg.synthetic_spec("train"))
        test_ds = trimix.data.synthetic_blobs(cfg.synthetic_spec("test"))
        trimix.model.init_params(cfg.arch_for(train_ds.input_width), seed=cfg.seed)
        self.train_ds, self.test_ds = train_ds, test_ds

    def config_digest(self) -> str:
        return trimix.eval.config_digest(self.cfg.render())

    def rep(self) -> Rep:
        cfg = self.cfg
        t0 = clock()
        main_s, rows = _pretrain(cfg, self.train_ds, self.out)
        t1 = clock()
        ev = trimix.eval
        ckpt = trimix.train.load_checkpoint(os.path.join(self.out, "checkpoint.tmx"))
        digest = self.config_digest()
        train_bank = ev.extract_features(ckpt, self.train_ds)
        test_bank = ev.extract_features(ckpt, self.test_ds)
        knn = ev.knn_eval(train_bank, test_bank, cfg.knn_k, digest)
        probe_cfg = ev.ProbeConfig(
            epochs=cfg.probe_epochs, lr=cfg.probe_lr, momentum=cfg.probe_momentum,
            weight_decay=cfg.probe_weight_decay, batch_size=cfg.probe_batch, seed=cfg.seed,
        )
        probe = ev.linear_probe(train_bank, test_bank, probe_cfg, digest)
        ft = ev.finetune_semi(ckpt, self.train_ds, self.test_ds, cfg.finetune_fraction, probe_cfg, digest)
        t2 = clock()

        steps, bad = _loss_checks(rows)
        means = _epoch_means(rows)
        first, last = min(means), max(means)
        rep = Rep(
            wall_s=t2 - t0,
            main_s=main_s,
            samples=len(rows) * cfg.batch_size,
            digest=_sha(os.path.join(self.out, "metrics.csv"), os.path.join(self.out, "checkpoint.tmx"))
            + f"|{knn.top1!r},{probe.top1!r},{ft.top1!r}",
            info={
                "eval_s": (t2 - t1, "s"),
                "knn_top1": (knn.top1, "fraction"),
                "probe_top1": (probe.top1, "fraction"),
                "finetune_top1": (ft.top1, "fraction"),
                "epoch_loss_last": (means[last], "loss"),
            },
            steps=steps,
            steps_failed=bad,
            reports=3,
        )
        rep.checks.append((
            "loss_decreases", means[last] < means[first],
            f"epoch {first} {means[first]:.4f} -> epoch {last} {means[last]:.4f}",
        ))
        if cfg.seed == REFERENCE_SEED:
            ref = _reference(self.root)
            got = {"digest": digest, "knn": f"{knn.top1:.4f}", "loss": f"{means[last]:.4f}"}
            rep.checks.append(("reference_results", got == ref, f"got {got}, reference {ref}"))
        return rep


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str) -> None:
    """MNIST-layout IDX files from [0, 1] float images and int labels."""
    n, _, h, w = images.shape
    pixels = np.rint(images.reshape(n, h, w) * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", trimix.data.IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", trimix.data.IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


class PretrainWide:
    """B=256 on 28x28 IDX inputs, wide MLP, identity augmentation."""

    name = "pretrain_wide"
    main = "pretrain"
    reference = "gemm"  # spans.reference kind that sets its step time
    batch = 256
    n_train = 1024
    epochs = 3

    def __init__(self, seed: int, work_dir: str, root: str):
        images = os.path.join(work_dir, "train-images.idx")
        labels = os.path.join(work_dir, "train-labels.idx")
        spec = trimix.data.SyntheticSpec(n=self.n_train, classes=3, size=28, seed=seed)
        blobs = trimix.data.synthetic_blobs(spec)
        write_idx(blobs.images, blobs.labels, images, labels)
        self.cfg = TriMixConfig(
            seed=seed, dataset="idx", idx_train_images=images, idx_train_labels=labels,
            batch_size=self.batch, epochs=self.epochs,
            encoder_widths=(512, 256), projector_widths=(256, 256, 128),
            aug_pad=0, aug_hflip=0.0, aug_brightness=0.0, aug_contrast=0.0, aug_grayscale=0.0,
        ).validate()
        self.out = os.path.join(work_dir, "run")

    def setup(self):
        cfg = self.cfg
        self.train_ds = trimix.data.load_idx(cfg.idx_train_images, cfg.idx_train_labels)
        trimix.model.init_params(cfg.arch_for(self.train_ds.input_width), seed=cfg.seed)

    def config_digest(self) -> str:
        # the IDX paths depend on the checkout; the digest covers the rest
        cfg = dataclasses.replace(self.cfg, idx_train_images="", idx_train_labels="")
        return trimix.eval.config_digest(cfg.render())

    def rep(self) -> Rep:
        cfg = self.cfg
        main_s, rows = _pretrain(cfg, self.train_ds, self.out)
        steps, bad = _loss_checks(rows)
        means = _epoch_means(rows)
        return Rep(
            wall_s=main_s,
            main_s=main_s,
            samples=len(rows) * cfg.batch_size,
            digest=_sha(os.path.join(self.out, "metrics.csv"), os.path.join(self.out, "checkpoint.tmx")),
            info={"epoch_loss_last": (means[max(means)], "loss")},
            steps=steps,
            steps_failed=bad,
        )


class GradcheckSmall:
    """cli.gradcheck at B=8, 16x16, on a reduced arch (4,464 parameters)."""

    name = "gradcheck_small"
    main = "gradcheck"
    reference = "small_ops"  # spans.reference kind that sets its step time
    batch = 8
    side = 16

    def __init__(self, seed: int, work_dir: str, root: str):
        self.cfg = TriMixConfig(seed=seed, encoder_widths=(16, 8), projector_widths=(8, 8, 8)).validate()

    def setup(self):
        # the calls cli.gradcheck makes before its finite-difference sweep
        cfg = self.cfg
        spec = trimix.data.SyntheticSpec(n=self.batch, classes=2, size=self.side, seed=cfg.seed)
        ds = trimix.data.synthetic_blobs(spec)
        trimix.data.two_views(ds.images, trimix.data.AugmentPolicy(), cfg.seed, labels=ds.labels)
        trimix.model.init_params(cfg.arch_for(self.side * self.side), seed=cfg.seed)

    def config_digest(self) -> str:
        return trimix.eval.config_digest(self.cfg.render())

    def rep(self) -> Rep:
        cfg = dataclasses.replace(self.cfg)  # gradcheck fixes lambda on its config
        t0 = clock()
        err = trimix.cli.gradcheck(cfg, batch=self.batch, side=self.side)
        wall = clock() - t0
        evals = 2 * cfg.arch_for(self.side * self.side).param_count()
        rep = Rep(
            wall_s=wall,
            main_s=wall,
            samples=evals * self.batch,
            digest=repr(err),
            info={"gradcheck_max_rel_err": (err, "ratio"), "loss_evals": (evals, "count")},
            reports=1,
        )
        rep.checks.append((
            "gradcheck_tolerance", err < GRADCHECK_TOLERANCE,
            f"max relative error {err:.3e} (tolerance {GRADCHECK_TOLERANCE:g})",
        ))
        return rep


WORKLOADS = {w.name: w for w in (PretrainDefault, PretrainWide, GradcheckSmall)}
