"""Command-line behavior: exit codes, artifacts, reproducibility."""
import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import trimix
from trimix import data
from trimix.cli import build_parser, run
from trimix.config import TriMixConfig, load_config
from trimix.train import load_checkpoint, pretrain

FAST_OVERRIDES = [
    "--set", "encoder_widths=12,8",
    "--set", "projector_widths=8,8,6",
    "--set", "batch_size=8",
    "--set", "synthetic_train=48",
    "--set", "synthetic_test=24",
    "--set", "synthetic_size=8",
    "--set", "epochs=1",
    "--set", "save_every=0",
    "--set", "probe_epochs=3",
    "--set", "probe_batch=8",
]


def pretrain_once(tmp_path, name="run", extra=()):
    out = str(tmp_path / name)
    code = run(["pretrain", *FAST_OVERRIDES, *extra, "--out", out])
    assert code == 0
    return out


class TestPretrainCommand:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        out = pretrain_once(tmp_path)
        assert os.path.exists(f"{out}/checkpoint.tmx")
        assert os.path.exists(f"{out}/metrics.csv")
        assert os.path.exists(f"{out}/resolved_config_pretrain.txt")
        assert "pretrained 1 epochs" in capsys.readouterr().out

    def test_snapshot_reproduces_outputs_bit_exactly(self, tmp_path):
        out_a = pretrain_once(tmp_path, "a")
        out_b = str(tmp_path / "b")
        code = run(["pretrain", "--config", f"{out_a}/resolved_config_pretrain.txt", "--out", out_b])
        assert code == 0
        assert open(f"{out_a}/metrics.csv").read() == open(f"{out_b}/metrics.csv").read()
        # the embedded config leaves out where the run was written
        assert open(f"{out_a}/checkpoint.tmx", "rb").read() == open(f"{out_b}/checkpoint.tmx", "rb").read()

    def test_out_defaults_to_runs_trimix(self):
        assert build_parser().parse_args(["pretrain"]).out == "runs/trimix"

    def test_odd_batch_exits_one_and_names_rule(self, tmp_path, capsys):
        code = run(["pretrain", "--set", "batch_size=63", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = run(["pretrain", "--set", "bogus=1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["set", "config"])
    @pytest.mark.parametrize("key, replacement", [
        ("out_dir", "--out"), ("enable_vrt", "beta=0"), ("enable_con", "gamma=0"),
        ("allow_degenerate", "no spread is always an error"), ("checkpoint_dtype", "float64 arrays only"),
        ("csv_train", "write IDX files"), ("csv_test", "write IDX files"),
        ("lambda_policy", "lambda is drawn uniformly each step"),
        ("lambda_fixed", "lambda is drawn uniformly each step"),
    ])
    def test_removed_key_exits_one_naming_its_replacement(self, tmp_path, capsys, key, replacement, via):
        setting = f"{key}={'runs/old' if key == 'out_dir' else 'false'}"
        if via == "set":
            source = ["--set", setting]
        else:
            (tmp_path / "old.cfg").write_text(f"seed=7\n{setting}\n")
            source = ["--config", str(tmp_path / "old.cfg")]
        out = tmp_path / "x"
        code = run(["pretrain", *FAST_OVERRIDES, *source, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"{key!r} was removed" in err[0] and replacement in err[0], err
        assert not out.exists()

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = run(["pretrain", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_resume_flag(self, tmp_path):
        out = pretrain_once(tmp_path, "first")
        out2 = str(tmp_path / "second")
        code = run([
            "pretrain", *FAST_OVERRIDES[:-4], "--set", "epochs=2", "--set", "probe_epochs=3",
            "--set", "probe_batch=8",
            "--resume", f"{out}/checkpoint.tmx", "--out", out2,
        ])
        assert code == 0
        lines = open(f"{out2}/metrics.csv").read().splitlines()
        assert lines[1].split(",")[1] == "2"  # resumed run starts at epoch 2

    @pytest.mark.parametrize("case, reason", [("missing", "missing.tmx"), ("arch", "does not match")])
    def test_failed_resume_leaves_no_output(self, tmp_path, capsys, case, reason):
        if case == "missing":
            ckpt, extra = str(tmp_path / "missing.tmx"), []
        else:
            ckpt = f"{pretrain_once(tmp_path, 'first')}/checkpoint.tmx"
            extra = ["--set", "encoder_widths=12,6"]
            capsys.readouterr()
        out = tmp_path / "second"
        code = run(["pretrain", *FAST_OVERRIDES, *extra, "--resume", ckpt, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("resume_from, reason", [
        ("checkpoint_epoch0002.tmx", "metrics.csv already exists"),
        ("checkpoint.tmx", "at epoch 4 and epochs=4"),
    ])
    def test_resume_that_would_lose_metrics_is_rejected(self, tmp_path, capsys, resume_from, reason):
        out = pretrain_once(tmp_path, "D", ["--set", "epochs=4", "--set", "save_every=2"])
        before = {name: open(f"{out}/{name}", "rb").read() for name in sorted(os.listdir(out))}
        capsys.readouterr()
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "epochs=4", "--set", "save_every=2",
                    "--resume", f"{out}/{resume_from}", "--out", out])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0], err
        if resume_from == "checkpoint_epoch0002.tmx":
            assert f"{out}/metrics.csv" in err[0]
        assert {name: open(f"{out}/{name}", "rb").read() for name in sorted(os.listdir(out))} == before
        assert len(before["metrics.csv"].splitlines()) == 1 + 4 * 6

    def test_resume_with_no_epochs_left_writes_no_fresh_out(self, tmp_path, capsys):
        ckpt = f"{pretrain_once(tmp_path, 'first')}/checkpoint.tmx"
        capsys.readouterr()
        out = tmp_path / "second"
        code = run(["pretrain", *FAST_OVERRIDES, "--resume", ckpt, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "at epoch 1 and epochs=1: no epochs left" in err[0], err
        assert not out.exists()

    def test_fresh_run_removes_an_earlier_runs_snapshots(self, tmp_path):
        out = pretrain_once(tmp_path, "D", ["--set", "epochs=4", "--set", "save_every=2"])
        assert {"checkpoint_epoch0002.tmx", "checkpoint_epoch0004.tmx"} <= set(os.listdir(out))
        for name in ("notes.txt", "checkpoint_epoch2.tmx"):  # not names pretrain writes
            open(f"{out}/{name}", "w").close()
        pretrain_once(tmp_path, "D", ["--set", "epochs=1", "--set", "save_every=0", "--set", "seed=3"])
        assert sorted(os.listdir(out)) == ["checkpoint.tmx", "checkpoint_epoch2.tmx", "metrics.csv",
                                           "notes.txt", "resolved_config_pretrain.txt"]
        assert len(open(f"{out}/metrics.csv").read().splitlines()) == 1 + 6

    def test_failed_fresh_run_leaves_its_snapshot_beside_no_earlier_output(self, tmp_path, capsys):
        out = pretrain_once(tmp_path, "D")
        capsys.readouterr()
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "lr=1e300", "--out", out])
        assert code == 2
        assert os.listdir(out) == ["resolved_config_pretrain.txt"]
        assert "lr=1e+300" in open(f"{out}/resolved_config_pretrain.txt").read().splitlines()

    def test_summary_counts_the_epochs_the_command_ran(self, tmp_path, capsys):
        first = pretrain_once(tmp_path, "first")
        assert capsys.readouterr().out.startswith(f"pretrained 1 epochs, 6 steps logged to {first}/metrics.csv\n")
        second = str(tmp_path / "second")
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "epochs=3",
                    "--resume", f"{first}/checkpoint.tmx", "--out", second])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"pretrained 2 epochs, 12 steps logged to {second}/metrics.csv\n")

    def test_resume_trains_at_the_configs_lr_and_weight_decay(self, tmp_path, monkeypatch):
        ckpt = f"{pretrain_once(tmp_path, 'first')}/checkpoint.tmx"
        seen = []
        step = trimix.train.adam_step

        def recording(params, grads, state, lr, weight_decay, worker=None):
            seen.append((lr, weight_decay))
            return step(params, grads, state, lr, weight_decay, worker=worker)

        monkeypatch.setattr(trimix.train, "adam_step", recording)
        same, changed = str(tmp_path / "same"), str(tmp_path / "changed")
        for out, settings in ((same, []), (changed, ["--set", "lr=0.5", "--set", "weight_decay=0.1"])):
            code = run(["pretrain", *FAST_OVERRIDES, "--set", "epochs=2", *settings, "--resume", ckpt, "--out", out])
            assert code == 0
        assert seen == [(1e-3, 1e-6)] * 6 + [(0.5, 0.1)] * 6
        rows_same, rows_changed = (open(f"{out}/metrics.csv").read().splitlines() for out in (same, changed))
        # the first step logs its loss before its update; every later step differs
        assert rows_same[:2] == rows_changed[:2]
        assert all(a != b for a, b in zip(rows_same[2:], rows_changed[2:]))
        snapshot = open(f"{changed}/resolved_config_pretrain.txt").read()
        assert {"lr=0.5", "weight_decay=0.1"} <= set(snapshot.splitlines())
        assert load_checkpoint(f"{changed}/checkpoint.tmx").config_text == snapshot

    @pytest.mark.parametrize("setting, reason", [
        ("synthetic_noise=-0.1", "noise must be >= 0"),
        ("synthetic_background=-1", "background must be >= 0"),
    ])
    def test_negative_synthetic_setting_exits_one_and_writes_nothing(self, tmp_path, capsys, setting, reason):
        out = tmp_path / "D"
        code = run(["pretrain", "--out", str(out), "--set", "epochs=1", "--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0], err
        assert not out.exists()

    def test_batch_larger_than_the_training_split_leaves_no_snapshot(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run(["pretrain", "--set", "batch_size=1000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "batch size 1000" in err[0], err
        assert not out.exists()


def write_idx(tmp_path, n=16, side=4):
    """A random IDX image/label pair of n side x side images."""
    imgs, lbls = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, side, side))
        f.write(np.random.default_rng(0).integers(0, 256, size=n * side * side, dtype=np.uint8).tobytes())
    with open(lbls, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(bytes(i % 3 for i in range(n)))
    return imgs, lbls


class TestDatasetSplits:
    """pretrain reads only the training split; a path a command needs and
    the config leaves unset is a one-line error naming its key."""

    def test_pretrain_on_train_only_idx_files(self, tmp_path, capsys):
        imgs, lbls = write_idx(tmp_path)
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "dataset=idx",
                    "--set", f"idx_train_images={imgs}", "--set", f"idx_train_labels={lbls}",
                    "--out", str(tmp_path / "run")])
        assert code == 0, capsys.readouterr().err
        assert os.path.exists(tmp_path / "run" / "checkpoint.tmx")

    def test_knn_without_idx_test_images_names_the_key(self, tmp_path, capsys):
        imgs, lbls = write_idx(tmp_path)
        idx = ["--set", "dataset=idx", "--set", f"idx_train_images={imgs}",
               "--set", f"idx_train_labels={lbls}", "--set", f"idx_test_labels={lbls}"]
        assert run(["pretrain", *FAST_OVERRIDES, *idx, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / "knn"
        code = run(["knn", *FAST_OVERRIDES, *idx, "--checkpoint", str(tmp_path / "run" / "checkpoint.tmx"),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "idx_test_images" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["train", "test"])
    @pytest.mark.parametrize("command", ["knn", "probe", "finetune"])
    def test_an_empty_idx_split_names_its_images_key(self, tmp_path, capsys, command, empty):
        imgs, lbls = write_idx(tmp_path)
        (tmp_path / "empty").mkdir()
        splits = {"train": (imgs, lbls), "test": (imgs, lbls)}
        splits[empty] = write_idx(tmp_path / "empty", n=0)
        idx = ["--set", "dataset=idx"]
        for split, (images, labels) in splits.items():
            idx += ["--set", f"idx_{split}_images={images}", "--set", f"idx_{split}_labels={labels}"]
        full = ["--set", "dataset=idx", "--set", f"idx_train_images={imgs}", "--set", f"idx_train_labels={lbls}"]
        assert run(["pretrain", *FAST_OVERRIDES, *full, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / command
        code = run([command, *FAST_OVERRIDES, *idx, "--checkpoint", str(tmp_path / "run" / "checkpoint.tmx"),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"idx_{empty}_images" in err, err
        assert not out.exists()

    def test_export_reads_only_its_split(self, tmp_path, capsys):
        imgs, lbls = write_idx(tmp_path)
        idx = ["--set", "dataset=idx", "--set", f"idx_train_images={imgs}", "--set", f"idx_train_labels={lbls}"]
        assert run(["pretrain", *FAST_OVERRIDES, *idx, "--out", str(tmp_path / "run")]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.tmx")
        capsys.readouterr()
        code = run(["export-embeddings", *FAST_OVERRIDES, *idx, "--checkpoint", ckpt, "--split", "train",
                    "--out", str(tmp_path / "train")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "train" / "embeddings_train.csv").exists()
        capsys.readouterr()
        out = tmp_path / "test"
        code = run(["export-embeddings", *FAST_OVERRIDES, *idx, "--checkpoint", ckpt, "--split", "test",
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "idx_test_images" in err, err
        assert not out.exists()
        # the evaluation protocols read both splits
        for command in ("knn", "probe", "finetune"):
            code = run([command, *FAST_OVERRIDES, *idx, "--checkpoint", ckpt, "--out", str(out)])
            assert code == 1
            assert "idx_test_images" in capsys.readouterr().err

    def test_pretrain_dataset_csv_names_idx(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "dataset=csv", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "IDX" in err, err
        assert not out.exists()

    def test_pretrain_idx_without_train_images_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "dataset=idx", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "idx_train_images" in err, err
        assert not out.exists()

    def test_synthetic_pretrain_builds_only_the_training_split(self, tmp_path, monkeypatch):
        specs, build = [], data.synthetic_blobs
        monkeypatch.setattr(data, "synthetic_blobs", lambda spec: specs.append(spec) or build(spec))
        out = pretrain_once(tmp_path)
        cfg = load_config(f"{out}/resolved_config_pretrain.txt")
        assert specs == [cfg.synthetic_spec("train")]
        # the same bytes as the library loop on the training split alone
        lib = str(tmp_path / "lib")
        pretrain(cfg, build(cfg.synthetic_spec("train")), out_dir=lib)
        for name in ("metrics.csv", "checkpoint.tmx"):
            assert open(f"{out}/{name}", "rb").read() == open(f"{lib}/{name}", "rb").read(), name


class TestEvalCommands:
    def test_knn_probe_finetune_export(self, tmp_path, capsys):
        out = pretrain_once(tmp_path)
        ckpt = f"{out}/checkpoint.tmx"
        for sub in ("knn", "probe"):
            code = run([sub, *FAST_OVERRIDES, "--checkpoint", ckpt, "--out", out])
            assert code == 0, sub
            assert "top-1" in capsys.readouterr().out
        code = run(["finetune", *FAST_OVERRIDES, "--set", "finetune_fraction=1.0",
                    "--checkpoint", ckpt, "--out", out])
        assert code == 0
        capsys.readouterr()
        code = run(["export-embeddings", *FAST_OVERRIDES, "--checkpoint", ckpt,
                    "--out", out, "--split", "test"])
        assert code == 0
        rows = open(f"{out}/embeddings_test.csv").read().splitlines()
        assert rows[0].startswith("label,y0,")
        assert len(rows) == 1 + 24
        reports = open(f"{out}/reports.csv").read().splitlines()
        assert reports[0] == "protocol,top1,n,config_digest"
        assert len(reports) == 4  # knn, probe, finetune

    def test_out_does_not_change_the_printed_digest(self, tmp_path, capsys):
        outs = [pretrain_once(tmp_path, name) for name in ("a", "b")]
        capsys.readouterr()
        digests = set()
        for out in outs:
            assert run(["knn", *FAST_OVERRIDES, "--checkpoint", f"{out}/checkpoint.tmx", "--out", out]) == 0
            digests.add(re.search(r"\(config (\w+)\)", capsys.readouterr().out).group(1))
        assert len(digests) == 1

    @pytest.mark.parametrize("command, extra, reason", [
        ("knn", [], "input width 256"),
        ("probe", [], "input width 256"),
        ("export-embeddings", [], "input width 256"),
        ("finetune", ["--set", "synthetic_size=16", "--set", "finetune_fraction=0.001"], "selects no samples"),
    ])
    def test_failed_evaluation_leaves_no_snapshot(self, tmp_path, capsys, command, extra, reason):
        # a 16x16 checkpoint; FAST_OVERRIDES evaluates on 8x8 images
        ckpt = f"{pretrain_once(tmp_path, extra=['--set', 'synthetic_size=16'])}/checkpoint.tmx"
        capsys.readouterr()
        out = tmp_path / "eval"
        code = run([command, *FAST_OVERRIDES, *extra, "--checkpoint", ckpt, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0], err
        assert not out.exists()

    def test_corrupt_checkpoint_exits_one(self, tmp_path, capsys):
        out = pretrain_once(tmp_path)
        bad = str(tmp_path / "bad.tmx")
        raw = bytearray(open(f"{out}/checkpoint.tmx", "rb").read())
        raw[:4] = b"ZZZZ"
        open(bad, "wb").write(bytes(raw))
        code = run(["knn", *FAST_OVERRIDES, "--checkpoint", bad, "--out", out])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "list", "no_arrays", "negative_shape", "shape_not_ints", "arch_missing_key", "adam_not_object",
        "no_epoch", "huge_input_width",
    ])
    def test_malformed_checkpoint_metadata_exits_one(self, tmp_path, capsys, case):
        out = pretrain_once(tmp_path)
        raw = open(f"{out}/checkpoint.tmx", "rb").read()
        meta_len = int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:12 + meta_len])
        if case == "list":
            meta = [meta]
        elif case == "no_arrays":
            del meta["arrays"]
        elif case == "negative_shape":
            meta["arrays"][0]["shape"] = [-1]
        elif case == "shape_not_ints":
            meta["arrays"][0]["shape"] = ["12", 8]
        elif case == "arch_missing_key":
            del meta["arch"]["encoder"]
        elif case == "adam_not_object":
            meta["adam"] = 3
        elif case == "no_epoch":
            del meta["epoch"]
        elif case == "huge_input_width":
            meta["arch"]["input_width"] = 2**50
        blob = json.dumps(meta).encode("utf-8")
        bad = str(tmp_path / "bad.tmx")
        open(bad, "wb").write(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + meta_len:])
        capsys.readouterr()
        code = run(["knn", *FAST_OVERRIDES, "--checkpoint", bad, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if case == "huge_input_width":
            assert "arch expects" in err
        else:
            assert "metadata" in err or "array entry 0" in err

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--set", "batch_size=0"],
        ["probe", "--set", "probe_batch=0", "--checkpoint", "unread.tmx"],
    ])
    def test_unusable_batch_exits_one_before_any_work(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        code = run([*argv, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must be at least 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "aug_hflip=2", "aug_pad=-1", "encoder_widths=", "activation=tanh", "save_every=-1",
    ])
    def test_unusable_run_setting_exits_one_before_the_snapshot(self, tmp_path, capsys, setting):
        out = tmp_path / "x"
        code = run(["pretrain", "--set", setting, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_corrupt_idx_exits_one(self, tmp_path, capsys):
        out = pretrain_once(tmp_path)
        imgs = str(tmp_path / "bad_imgs.idx")
        lbls = str(tmp_path / "bad_lbls.idx")
        with open(imgs, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))  # label magic in image file
            f.write(bytes(4))
        with open(lbls, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 1))
            f.write(bytes(1))
        code = run([
            "pretrain", *FAST_OVERRIDES, "--set", "dataset=idx",
            "--set", f"idx_train_images={imgs}", "--set", f"idx_train_labels={lbls}",
            "--set", f"idx_test_images={imgs}", "--set", f"idx_test_labels={lbls}",
            "--out", str(tmp_path / "idxrun"),
        ])
        assert code == 1
        assert "magic" in capsys.readouterr().err


def in_the_earlier_layout(raw: bytes, dtype: str) -> bytes:
    """The checkpoint `raw` in the layout of earlier versions: its metadata
    also holds the array dtype, the seed and Adam's settings (the defaults
    here), and its arrays are stored at `dtype`, "f64" or "f32"."""
    meta_len = int.from_bytes(raw[8:12], "little")
    meta = json.loads(raw[12:12 + meta_len])
    defaults = TriMixConfig()
    earlier = {
        "dtype": dtype, "epoch": meta["epoch"], "seed": defaults.seed, "config": meta["config"],
        "arch": meta["arch"],
        "adam": {**meta["adam"], "lr": defaults.lr, "weight_decay": defaults.weight_decay,
                 "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "arrays": meta["arrays"],
    }
    arrays = np.frombuffer(raw, "<f8", offset=12 + meta_len).astype("<f4" if dtype == "f32" else "<f8")
    blob = json.dumps(earlier).encode("utf-8")
    return raw[:8] + len(blob).to_bytes(4, "little") + blob + arrays.tobytes()


class TestEarlierCheckpointLayout:
    def test_f64_file_resumes_to_the_same_bytes(self, tmp_path):
        ckpt = f"{pretrain_once(tmp_path, 'first')}/checkpoint.tmx"
        earlier = str(tmp_path / "earlier.tmx")
        open(earlier, "wb").write(in_the_earlier_layout(open(ckpt, "rb").read(), "f64"))
        outputs = []
        for name, source in (("from_current", ckpt), ("from_earlier", earlier)):
            out = str(tmp_path / name)
            code = run(["pretrain", *FAST_OVERRIDES, "--set", "epochs=2", "--resume", source, "--out", out])
            assert code == 0
            outputs.append([open(f"{out}/{f}", "rb").read() for f in ("metrics.csv", "checkpoint.tmx")])
        assert outputs[0] == outputs[1]

    def test_f32_file_is_one_error_line(self, tmp_path, capsys):
        out = pretrain_once(tmp_path)
        bad = str(tmp_path / "f32.tmx")
        open(bad, "wb").write(in_the_earlier_layout(open(f"{out}/checkpoint.tmx", "rb").read(), "f32"))
        capsys.readouterr()
        code = run(["knn", *FAST_OVERRIDES, "--checkpoint", bad, "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "truncated array" in err[0], err
        assert not (tmp_path / "eval").exists()


class TestVerificationCommands:
    def test_gradcheck_small_arch_passes(self, capsys):
        code = run(["gradcheck", *FAST_OVERRIDES])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_gradcheck_holds_the_tape_to_the_training_forward(self, monkeypatch):
        import trimix.cli
        from trimix.config import TriMixConfig

        original = trimix.cli.trimix_step_loss

        def drifted(views, params, cfg, lam):
            # off-tape evaluations gain a term the tape's backward never sees
            bd = original(views, params, cfg, lam)
            w = params.flat[0]
            if w.tape is None:
                bd.total += 0.5 * float((w.data ** 2).sum())
            return bd

        monkeypatch.setattr(trimix.cli, "trimix_step_loss", drifted)
        cfg = TriMixConfig(encoder_widths=(12, 8), projector_widths=(8, 8, 6)).validate()
        assert trimix.cli.gradcheck(cfg, batch=8, side=8) > 1e-4

    def test_gradcheck_leaves_the_callers_config_unchanged(self):
        import trimix.cli
        from trimix.config import TriMixConfig

        cfg = TriMixConfig(encoder_widths=(12, 8), projector_widths=(8, 8, 6)).validate()
        before = dataclasses.replace(cfg)
        trimix.cli.gradcheck(cfg, batch=8, side=8)
        assert cfg == before

    def test_verify_oracle_passes(self, capsys):
        code = run(["verify-oracle", *FAST_OVERRIDES])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6

    @pytest.mark.parametrize("command", ["gradcheck", "verify-oracle"])
    def test_verification_commands_take_no_out(self, command, tmp_path, capsys):
        # they only print, so an output directory would go unused
        with pytest.raises(SystemExit) as exc:
            run([command, "--out", str(tmp_path / "unused")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "unused").exists()


def test_numeric_failures_exit_two(tmp_path, capsys, monkeypatch):
    import trimix.train
    from trimix.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("l_vrt: operation 'row_softmax' produced non-finite values")

    monkeypatch.setattr(trimix.train, "trimix_step_loss", explode)
    code = run(["pretrain", *FAST_OVERRIDES, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "l_vrt" in err and "step 0" in err

def test_diverging_run_prints_only_its_error_line(tmp_path, capsys):
    # the overflow that numpy would warn about is reported by the
    # finiteness checks alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["pretrain", *FAST_OVERRIDES, "--set", "lr=1e300", "--out", str(tmp_path / "x")])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0], err


def test_unallocatable_dataset_is_one_error_line(tmp_path, capsys):
    # 10^11 16x16 images: numpy refuses the 186 TiB array before touching memory
    code = run(["pretrain", "--set", "synthetic_train=100000000000", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "allocate" in err[0], err
    assert not (tmp_path / "x").exists()


def test_pretrain_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Three default-config epochs under 1 and 2 BLAS threads: metrics and
    checkpoint bytes agree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trimix.__file__)))
    out = str(tmp_path / "run")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "trimix.cli", "pretrain", "--set", "epochs=3", "--out", out],
            env=env, check=True, capture_output=True,
        )
        outputs.append([open(f"{out}/{name}", "rb").read() for name in ("metrics.csv", "checkpoint.tmx")])
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]


# a pretrain through the CLI whose executor counts its submits; "serial"
# raises the worker's size thresholds above every product and every model
_COUNTED_PRETRAIN = r"""
import concurrent.futures
import sys

import trimix.cli
import trimix.tensor
import trimix.train


class Recording(concurrent.futures.ThreadPoolExecutor):
    submits = 0

    def submit(self, *args, **kwargs):
        Recording.submits += 1
        return super().submit(*args, **kwargs)


concurrent.futures.ThreadPoolExecutor = Recording  # the executor train.pretrain opens
if sys.argv[1] == "serial":
    trimix.tensor._WORKER_MACS = float("inf")
    trimix.train._ADAM_SPLIT_VALUES = float("inf")
code = trimix.cli.run(["pretrain", *sys.argv[2:]])
print(Recording.submits)
sys.exit(code)
"""

WIDE_OVERRIDES = [
    "--set", "synthetic_size=28", "--set", "synthetic_train=512", "--set", "batch_size=256",
    "--set", "encoder_widths=512,256", "--set", "projector_widths=256,256,128",
    "--set", "aug_pad=0", "--set", "epochs=1", "--set", "save_every=0",
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_thread_changes_no_byte_of_a_wide_run(tmp_path, threads):
    """A 1-epoch pretrain at the benchmark's wide shape writes the same
    metrics and checkpoint bytes with its large products on the worker
    thread and with every product on the calling thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trimix.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
    outputs, submits = [], []
    for mode in ("worker", "serial"):
        out = str(tmp_path / mode)
        done = subprocess.run([sys.executable, "-c", _COUNTED_PRETRAIN, mode, *WIDE_OVERRIDES, "--out", out],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        submits.append(int(done.stdout.splitlines()[-1]))
        outputs.append([open(f"{out}/{name}", "rb").read() for name in ("metrics.csv", "checkpoint.tmx")])
    assert submits[0] > 0 and submits[1] == 0, submits
    assert outputs[0] == outputs[1]
