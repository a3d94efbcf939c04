"""Run configuration: every hyperparameter and toggle, plus the flat
key=value text format used for config files and resolved snapshots."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .data import SyntheticSpec, read_text
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
    lambda_policy: str = "uniform"  # "uniform" | "fixed"
    lambda_fixed: float = 0.5
    enable_vrt: bool = True
    enable_con: bool = True
    enable_feature_norm: bool = True
    normalize_on: bool = True
    allow_degenerate: bool = False
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
    checkpoint_dtype: str = "f64"
    # data
    dataset: str = "synthetic"  # synthetic | idx | csv
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
    csv_train: str = ""
    csv_test: str = ""
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
    # output
    out_dir: str = "runs/trimix"

    def validate(self) -> "TriMixConfig":
        for f in fields(self):
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name)):
                raise ContractError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be at least 1, got {self.epochs}")
        if self.lr <= 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if self.beta < 0 or self.gamma < 0:
            raise ContractError("beta and gamma must be non-negative")
        if self.tau <= 0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        for name in ("batch_size", "probe_batch"):
            size = getattr(self, name)
            if size % 2 != 0:
                raise BatchParityError(f"{name} {size} is odd; batches must be even-sized")
            if size < 2:
                raise ContractError(f"{name} must be at least 2, got {size}")
        if self.probe_epochs < 1:
            raise ContractError(f"probe_epochs must be at least 1, got {self.probe_epochs}")
        if self.probe_lr <= 0:
            raise ContractError(f"probe_lr must be positive, got {self.probe_lr}")
        if self.knn_k < 1:
            raise ContractError(f"knn_k must be at least 1, got {self.knn_k}")
        if not 0.0 < self.finetune_fraction <= 1.0:
            raise ContractError(f"finetune_fraction must lie in (0, 1], got {self.finetune_fraction}")
        if self.placement not in PLACEMENTS:
            raise ContractError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.lambda_policy not in ("uniform", "fixed"):
            raise ContractError(f"lambda_policy must be 'uniform' or 'fixed(v)', got {self.lambda_policy!r}")
        if not 0.0 <= self.lambda_fixed <= 1.0:
            raise ContractError(f"fixed lambda must lie in [0, 1], got {self.lambda_fixed}")
        if self.dataset not in ("synthetic", "idx", "csv"):
            raise ContractError(f"dataset must be synthetic, idx, or csv, got {self.dataset!r}")
        if self.checkpoint_dtype not in ("f32", "f64"):
            raise ContractError(f"checkpoint_dtype must be f32 or f64, got {self.checkpoint_dtype!r}")
        return self

    def arch_for(self, input_width: int) -> Arch:
        return Arch(
            input_width=input_width,
            encoder=tuple(self.encoder_widths),
            projector=tuple(self.projector_widths),
            activation=self.activation,
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
    if f.type in ("bool", bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ContractError(f"config key {name!r}: expected a boolean, got {raw!r}")
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        if f.type in ("tuple", tuple):
            return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ContractError(f"config key {name!r}: {exc}") from exc
    return raw


def apply_setting(cfg: TriMixConfig, name: str, raw: str) -> None:
    """Apply one key=value override, with lambda_policy sugar."""
    name = name.strip()
    if name == "lambda_policy":
        raw = raw.strip()
        if raw.startswith("fixed(") and raw.endswith(")"):
            try:
                cfg.lambda_fixed = float(raw[6:-1])
            except ValueError as exc:
                raise ContractError(f"lambda_policy: bad fixed value in {raw!r}") from exc
            cfg.lambda_policy = "fixed"
            return
        cfg.lambda_policy = raw
        return
    if name not in _FIELDS:
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
    return parse_config(read_text(path))
