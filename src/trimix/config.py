"""Run configuration: every hyperparameter and toggle, plus the flat
key=value text format used for config files and resolved snapshots."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .data import AugmentPolicy, SyntheticSpec
from .errors import BatchParityError, ContractError, FormatError
from .model import Arch

PLACEMENTS = ("ZZ", "YY", "ZY")


@dataclass
class TriMixConfig:
    # objective
    alpha: float = 5e-3
    beta: float = 1000.0
    gamma: float = 200.0
    tau: float = 2.0
    enable_feature_norm: bool = True
    normalize_on: bool = True
    placement: str = "ZZ"
    # model
    encoder_widths: tuple = (128, 64)
    projector_widths: tuple = (64, 64, 32)
    activation: str = "relu"
    # training
    seed: int = 7
    batch_size: int = 64
    epochs: int = 50
    lr: float = 1e-3
    weight_decay: float = 1e-6
    save_every: int = 25
    # data
    dataset: str = "synthetic"  # synthetic | idx
    synthetic_classes: int = 3
    synthetic_train: int = 600
    synthetic_test: int = 300
    synthetic_size: int = 16
    synthetic_noise: float = 0.25
    synthetic_background: float = 1.1
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    # augmentation
    aug_pad: int = 2
    aug_hflip: float = 0.5
    aug_brightness: float = 0.4
    aug_contrast: float = 0.4
    aug_grayscale: float = 0.1
    # evaluation
    knn_k: int = 20
    probe_epochs: int = 100
    probe_lr: float = 1e-3
    probe_momentum: float = 0.9
    probe_weight_decay: float = 1e-6
    probe_batch: int = 64
    finetune_fraction: float = 1.0

    def validate(self) -> "TriMixConfig":
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ContractError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for names, ok, rule in (
            (("seed",), lambda v: v >= 0, "must be non-negative"),
            (("epochs", "probe_epochs", "knn_k"), lambda v: v >= 1, "must be at least 1"),
            (("lr", "probe_lr", "tau"), lambda v: v > 0, "must be positive"),
            (("alpha", "beta", "gamma"), lambda v: v >= 0, "is a loss weight and must be non-negative"),
        ):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ContractError(f"{name} {rule}, got {getattr(self, name)}")
        for name in ("batch_size", "probe_batch"):
            size = getattr(self, name)
            if size % 2 != 0:
                raise BatchParityError(f"{name} {size} is odd; batches must be even-sized")
            if size < 2:
                raise ContractError(f"{name} must be at least 2, got {size}")
        if not 0.0 < self.finetune_fraction <= 1.0:
            raise ContractError(f"finetune_fraction must lie in (0, 1], got {self.finetune_fraction}")
        if self.placement not in PLACEMENTS:
            raise ContractError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.dataset not in ("synthetic", "idx"):
            raise ContractError(f"dataset must be synthetic or idx (external data is IDX files), got {self.dataset!r}")
        if self.save_every < 0:
            raise ContractError(f"save_every must be >= 0 (0 = no snapshots), got {self.save_every}")
        # the objects a run builds from these settings check their own rules
        self.augment_policy()
        self.arch_for(1)
        if self.dataset == "synthetic":
            self.synthetic_spec("train")
            self.synthetic_spec("test")
        return self

    def arch_for(self, input_width: int) -> Arch:
        return Arch(
            input_width=input_width,
            encoder=tuple(self.encoder_widths),
            projector=tuple(self.projector_widths),
            activation=self.activation,
        )

    def augment_policy(self) -> AugmentPolicy:
        return AugmentPolicy(
            pad=self.aug_pad,
            hflip_p=self.aug_hflip,
            brightness=self.aug_brightness,
            contrast=self.aug_contrast,
            grayscale_p=self.aug_grayscale,
        )

    def synthetic_spec(self, split: str) -> SyntheticSpec:
        n = self.synthetic_train if split == "train" else self.synthetic_test
        # distinct derived seeds keep train/test disjoint draws
        seed_offset = 0 if split == "train" else 1
        return SyntheticSpec(
            n=n,
            classes=self.synthetic_classes,
            size=self.synthetic_size,
            seed=self.seed * 2 + seed_offset,
            noise=self.synthetic_noise,
            background=self.synthetic_background,
        )

    def render(self) -> str:
        """Stable key=value snapshot; parsing it back reproduces the config."""
        lines = ["# resolved run configuration (key=value per line)"]
        for f in fields(self):
            lines.append(f"{f.name}={_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in fields(TriMixConfig)}

# keys of earlier versions, each with what replaced it
REMOVED_KEYS = {"out_dir": "--out sets the output directory", "enable_vrt": "beta=0 switches the term off",
                "enable_con": "gamma=0 switches the term off",
                "allow_degenerate": "a standardized slice with no spread is always an error",
                "checkpoint_dtype": "checkpoints store float64 arrays only",
                "csv_train": "write IDX files and set dataset=idx", "csv_test": "write IDX files and set dataset=idx",
                "lambda_policy": "lambda is drawn uniformly each step",
                "lambda_fixed": "lambda is drawn uniformly each step"}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    if f.type == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ContractError(f"config key {name!r}: expected a boolean, got {raw!r}")
    try:
        if f.type == "int":
            return int(raw)
        if f.type == "float":
            return float(raw)
        if f.type == "tuple":
            return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ContractError(f"config key {name!r}: {exc}") from exc
    return raw


def apply_setting(cfg: TriMixConfig, name: str, raw: str) -> None:
    """Apply one key=value override."""
    name = name.strip()
    if name not in _FIELDS:
        if name in REMOVED_KEYS:
            raise ContractError(f"config key {name!r} was removed: {REMOVED_KEYS[name]}")
        raise ContractError(f"unknown config key {name!r}")
    setattr(cfg, name, _parse_value(name, raw))


def parse_config(text: str) -> TriMixConfig:
    cfg = TriMixConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"config line {line_no}: expected key=value, got {stripped!r}")
        name, raw = stripped.split("=", 1)
        apply_setting(cfg, name, raw)
    return cfg


def load_config(path: str) -> TriMixConfig:
    if not os.path.exists(path):
        raise FormatError(f"config file not found: {path}")
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte 0x{raw[exc.start]:02x} at byte offset {exc.start} is not valid UTF-8"
        ) from exc
    return parse_config(text)
