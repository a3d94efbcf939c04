"""Command-line behavior: exit codes, artifacts, reproducibility."""
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys

import pytest

import trimix
from trimix.cli import run

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
        ckpt_a = open(f"{out_a}/checkpoint.tmx", "rb").read()
        ckpt_b = open(f"{out_b}/checkpoint.tmx", "rb").read()
        # metadata differs only in the out_dir line of the embedded config
        assert len(ckpt_a) == len(ckpt_b)

    def test_odd_batch_exits_one_and_names_rule(self, tmp_path, capsys):
        code = run(["pretrain", "--set", "batch_size=63", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = run(["pretrain", "--set", "bogus=1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = run(["pretrain", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_env_seed_override_is_logged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRIMIX_SEED", "4242")
        out = pretrain_once(tmp_path, "env")
        assert "TRIMIX_SEED=4242" in capsys.readouterr().out
        assert "seed=4242" in open(f"{out}/resolved_config_pretrain.txt").read()

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


class TestVerificationCommands:
    def test_gradcheck_small_arch_passes(self, tmp_path, capsys):
        code = run(["gradcheck", *FAST_OVERRIDES, "--out", str(tmp_path / "g")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_gradcheck_holds_the_tape_to_the_training_forward(self, monkeypatch):
        import trimix.cli
        from trimix.config import TriMixConfig

        original = trimix.cli.trimix_step_loss

        def drifted(views, params, cfg, rng):
            # off-tape evaluations gain a term the tape's backward never sees
            bd = original(views, params, cfg, rng)
            w = params.encoder_layers[0][0]
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

    def test_verify_oracle_passes(self, tmp_path, capsys):
        code = run(["verify-oracle", *FAST_OVERRIDES, "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6


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

def test_pretrain_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Three default-config epochs under 1 and 2 BLAS threads, same --out
    path (the checkpoint embeds it): metrics and checkpoint bytes agree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trimix.__file__)))
    out = str(tmp_path / "run")
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "TRIMIX_SEED"}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "trimix.cli", "pretrain", "--set", "epochs=3", "--out", out],
            env=env, check=True, capture_output=True,
        )
        outputs.append([open(f"{out}/{name}", "rb").read() for name in ("metrics.csv", "checkpoint.tmx")])
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]
