"""Flat key=value config format and validation rules."""
import re
from dataclasses import fields
from pathlib import Path

import pytest

from trimix.config import REMOVED_KEYS, TriMixConfig, load_config, parse_config
from trimix.errors import BatchParityError, ContractError, FormatError


def test_defaults_validate():
    cfg = TriMixConfig().validate()
    assert cfg.alpha == 5e-3 and cfg.beta == 1000.0 and cfg.gamma == 200.0
    assert cfg.tau == 2.0 and cfg.batch_size == 64 and cfg.knn_k == 20


def test_render_parse_round_trip():
    cfg = TriMixConfig(beta=12.5, placement="ZY", encoder_widths=(32, 16), seed=99)
    clone = parse_config(cfg.render())
    assert clone == cfg


def test_comments_and_blanks_ignored():
    cfg = parse_config("# comment\n\nseed=5\n  epochs=3  \n")
    assert cfg.seed == 5 and cfg.epochs == 3


def test_unknown_key_rejected():
    with pytest.raises(ContractError, match="unknown config key"):
        parse_config("no_such_option=1\n")


def test_bad_boolean_rejected():
    with pytest.raises(ContractError, match="boolean"):
        parse_config("enable_feature_norm=maybe\n")


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_negative_loss_weight_rejected(name):
    with pytest.raises(ContractError, match=rf"^{name} is a loss weight and must be non-negative, got -1.0$"):
        parse_config(f"{name}=-1\n").validate()
    parse_config(f"{name}=0\n").validate()  # zero leaves the term out


def test_missing_equals_rejected():
    with pytest.raises(FormatError, match="key=value"):
        parse_config("seed 5\n")


def test_odd_batch_rejected():
    with pytest.raises(BatchParityError, match="even"):
        TriMixConfig(batch_size=63).validate()


def test_invalid_choices_rejected():
    with pytest.raises(ContractError):
        TriMixConfig(placement="XY").validate()
    with pytest.raises(ContractError):
        TriMixConfig(tau=0.0).validate()
    with pytest.raises(ContractError):
        TriMixConfig(beta=-1.0).validate()


def test_widths_parse_from_text():
    cfg = parse_config("encoder_widths=32,16\nprojector_widths=16,16,8\n")
    assert cfg.encoder_widths == (32, 16)
    assert cfg.projector_widths == (16, 16, 8)


def test_load_config_missing_file():
    with pytest.raises(FormatError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_synthetic_specs_differ_between_splits():
    cfg = TriMixConfig()
    train = cfg.synthetic_spec("train")
    test = cfg.synthetic_spec("test")
    assert train.n == 600 and test.n == 300
    assert train.seed != test.seed


@pytest.mark.parametrize("setting, match", [
    ("tau=nan", "tau must be finite"),
    ("lr=nan", "lr must be finite"),
    ("alpha=inf", "alpha must be finite"),
    ("beta=-inf", "beta must be finite"),
    ("probe_lr=nan", "probe_lr must be finite"),
    ("synthetic_noise=inf", "synthetic_noise must be finite"),
    ("epochs=0", "epochs must be at least 1"),
    ("epochs=-3", "epochs must be at least 1"),
    ("lr=0", "lr must be positive"),
    ("lr=-0.001", "lr must be positive"),
    ("seed=-1", "seed must be non-negative"),
    ("batch_size=0", "batch_size must be at least 2"),
    ("batch_size=-2", "batch_size must be at least 2"),
    ("probe_batch=0", "probe_batch must be at least 2"),
    ("probe_batch=-2", "probe_batch must be at least 2"),
    ("probe_batch=7", "probe_batch 7 is odd"),
    ("probe_epochs=0", "probe_epochs must be at least 1"),
    ("probe_lr=-1", "probe_lr must be positive"),
    ("probe_lr=0", "probe_lr must be positive"),
    ("knn_k=0", "knn_k must be at least 1"),
    ("finetune_fraction=0", r"finetune_fraction must lie in \(0, 1\]"),
    ("finetune_fraction=1.5", r"finetune_fraction must lie in \(0, 1\]"),
    ("save_every=-1", r"save_every must be >= 0 \(0 = no snapshots\)"),
    ("aug_hflip=2", "hflip_p must be in"),
    ("aug_grayscale=-0.5", "grayscale_p must be in"),
    ("aug_pad=-1", "pad must be >= 0"),
    ("encoder_widths=", "at least one layer"),
    ("projector_widths=8,0", "widths must be >= 1"),
    ("activation=tanh", "activation must be one of"),
    ("synthetic_size=3", "synthetic spec"),
    ("synthetic_test=0", "synthetic spec"),
])
def test_unusable_values_rejected_up_front(setting, match):
    cfg = parse_config(setting + "\n")
    with pytest.raises(ContractError, match=match):
        cfg.validate()


def test_synthetic_settings_unchecked_for_file_datasets():
    parse_config("dataset=idx\nsynthetic_size=3\n").validate()


def test_augment_policy_carries_the_aug_settings():
    cfg = parse_config("aug_pad=3\naug_hflip=0.25\naug_brightness=0.1\naug_contrast=0.2\naug_grayscale=1\n")
    policy = cfg.augment_policy()
    assert (policy.pad, policy.hflip_p, policy.brightness, policy.contrast, policy.grayscale_p) == (
        3, 0.25, 0.1, 0.2, 1.0)


def test_non_utf8_config_names_file_and_offset(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed=5\nepochs=\xff\n")
    with pytest.raises(FormatError, match=r"bad\.cfg: byte 0xff at byte offset 14"):
        load_config(str(path))


def readme_configuration_section() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def test_readme_configuration_table_names_only_current_keys():
    """Every backticked key in the first column of the README's configuration
    table is a current key."""
    current = {f.name for f in fields(TriMixConfig)}
    rows = [line.split("|")[1] for line in readme_configuration_section().splitlines() if line.startswith("| `")]
    keys = {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)}
    assert len(keys) >= 20
    assert keys <= current, sorted(keys - current)
    assert not REMOVED_KEYS.keys() & current


def test_readme_configuration_names_every_removed_key():
    named = set(re.findall(r"`([^`]+)`", readme_configuration_section()))
    assert REMOVED_KEYS.keys() <= named, sorted(REMOVED_KEYS.keys() - named)
