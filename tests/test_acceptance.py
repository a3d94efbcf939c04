"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria 1 and 5-7 carry runtime budgets and are measured.
"""
import hashlib
import pathlib
import re
import struct
import time

import numpy as np
import pytest
from conftest import rng_for

from trimix.cli import gradcheck, oracle_equivalence_reports, run
from trimix.config import TriMixConfig
from trimix.data import ViewPair, synthetic_blobs
from trimix.errors import BatchParityError, FormatError
from trimix.eval import config_digest, extract_features, knn_eval
from trimix.model import forward, init_params
from trimix.objective import ground_truth_matrix, loss_bt, trimix_step_loss
from trimix.stats import cross_correlation, row_softmax, standardize
from trimix.tensor import Tape, Tensor, add, backward, scalar_mul
from trimix.train import AdamState, Checkpoint, load_checkpoint, pretrain, save_checkpoint, write_metrics


def announce(num: int, name: str, detail: str) -> None:
    print(f"\n[acceptance] criterion {num} {name}: PASS ({detail})")


def small_cfg(**overrides) -> TriMixConfig:
    base = dict(encoder_widths=(16, 8), projector_widths=(8, 8), batch_size=8)
    base.update(overrides)
    return TriMixConfig(**base).validate()


def random_views(b=8, width=16, seed=0) -> ViewPair:
    rng = rng_for(seed)
    return ViewPair(
        x=rng.uniform(0, 1, size=(b, width)),
        x_prime=rng.uniform(0, 1, size=(b, width)),
    )


def test_criterion_1_gradient_fidelity():
    """Tape vs central finite differences on the default arch, B=8, 16x16."""
    start = time.time()
    err = gradcheck(TriMixConfig().validate(), batch=8, side=16)
    elapsed = time.time() - start
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    announce(1, "gradient-fidelity", f"max rel err {err:.2e}, {elapsed:.1f}s < 60s")


def test_criterion_2_oracle_equivalence():
    """100 seeded cases each for C, M, L_inv, L_rr, L_vrt, L_con at 1e-10."""
    reports = oracle_equivalence_reports(cases=100, seed=0)
    assert len(reports) == 6
    for report in reports:
        assert report.passed, report.describe()
    worst = max(r.max_abs_diff for r in reports)
    announce(2, "oracle-equivalence", f"6 x 100 cases, worst |diff| {worst:.2e} < 1e-10")


def test_criterion_3_analytic_endpoints():
    cfg = small_cfg()
    params = init_params(cfg.arch_for(16), seed=3)
    views = random_views(seed=3)
    trace = {}
    trimix_step_loss(views, params, cfg, 1.0, trace=trace)
    assert np.array_equal(trace["x_vrt"], views.x.reshape(8, -1))
    assert np.array_equal(trace["z_tilde"], trace["base_std"])
    assert np.array_equal(trace["gt"], np.eye(8))

    trace = {}
    trimix_step_loss(views, params, cfg, 0.0, trace=trace)
    assert np.array_equal(trace["x_vrt"], views.x.reshape(8, -1)[::-1])
    announce(3, "analytic-endpoints", "lambda=1 and lambda=0 identities hold bit-exactly")


def test_criterion_4_linearity_invariant():
    cfg = small_cfg(activation="identity", normalize_on=False)
    params = init_params(cfg.arch_for(16), seed=4)
    worst = 0.0
    for case in range(20):
        bd = trimix_step_loss(random_views(seed=case), params, cfg, rng_for(40, case).random())
        worst = max(worst, bd.l_con)
        assert bd.l_con < 1e-9
    announce(4, "linearity-invariant", f"20 mixing factors, max consistency loss {worst:.2e} < 1e-9")


def test_criterion_5_structural_invariants():
    start = time.time()
    trials = 0

    # 400 trials: softmax rows are distributions
    for case in range(400):
        rng = rng_for(50, case)
        b = int(rng.integers(2, 12))
        s = row_softmax(Tensor(rng.normal(size=(b, b)) * 4.0), float(rng.uniform(0.1, 4.0))).data
        assert (s >= 0).all() and np.abs(s.sum(axis=1) - 1.0).max() < 1e-9
        trials += 1

    # 300 trials: correlation entries bounded on normalized inputs
    for case in range(300):
        rng = rng_for(51, case)
        b, d = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        mode = "features" if case % 2 == 0 else "samples"
        axis = "batch" if mode == "features" else "feature"
        z = standardize(Tensor(rng.normal(size=(b, d))), axis)
        z2 = standardize(Tensor(rng.normal(size=(b, d))), axis)
        c = cross_correlation(z, z2, mode).data
        assert np.abs(c).max() <= 1.0 + 1e-9
        trials += 1

    # 200 trials: ground-truth rows sum to 1
    for case in range(200):
        rng = rng_for(52, case)
        b = 2 * int(rng.integers(1, 33))
        gt = ground_truth_matrix(b, float(rng.random())).data
        assert np.abs(gt.sum(axis=1) - 1.0).max() < 1e-12
        trials += 1

    # 60 trials: breakdown recombination identity on live steps
    cfg = small_cfg()
    params = init_params(cfg.arch_for(16), seed=5)
    for case in range(60):
        bd = trimix_step_loss(random_views(seed=case), params, cfg, rng_for(53, case).random())
        recon = (bd.l_bt_inv + cfg.alpha * bd.l_bt_rr) + cfg.beta * bd.l_vrt + cfg.gamma * bd.l_con
        assert abs(recon - bd.total) < 1e-12
        trials += 1

    # 40 trials: beta=gamma=0 gradients equal the pure redundancy-reduction graph
    bt_cfg = small_cfg(beta=0.0, gamma=0.0)
    for case in range(40):
        views = random_views(seed=1000 + case)
        params = init_params(bt_cfg.arch_for(16), seed=case)

        tape = Tape()
        att = params.attach(tape)
        bd = trimix_step_loss(views, att, bt_cfg, rng_for(54, case).random())
        grads_trimix = backward(bd.loss)

        tape_b = Tape()
        att_b = params.attach(tape_b)
        x = Tensor(views.x.reshape(8, -1))
        xp = Tensor(views.x_prime.reshape(8, -1))
        zs = standardize(forward(x, att_b).z, "batch")
        zs_p = standardize(forward(xp, att_b).z, "batch")
        l_inv, l_rr = loss_bt(cross_correlation(zs, zs_p, "features"))
        grads_bt = backward(add(l_inv, scalar_mul(l_rr, bt_cfg.alpha)))
        assert len(grads_trimix) == len(grads_bt) == len(params.tensors())
        for g, g_bt in zip(grads_trimix, grads_bt):
            assert np.abs(g - g_bt).max() <= 1e-12
        trials += 1

    elapsed = time.time() - start
    assert trials == 1000
    assert elapsed < 300.0, f"structural suite took {elapsed:.1f}s"
    announce(5, "structural-invariants", f"{trials} randomized trials in {elapsed:.1f}s < 5min")


def _knn_accuracy(checkpoint, train_ds, test_ds, k):
    train_bank = extract_features(checkpoint, train_ds)
    test_bank = extract_features(checkpoint, test_ds)
    return knn_eval(train_bank, test_bank, k).top1


def _desk_run(cfg):
    train_ds = synthetic_blobs(cfg.synthetic_spec("train"))
    test_ds = synthetic_blobs(cfg.synthetic_spec("test"))
    ckpt, rows = pretrain(cfg, train_ds)
    return train_ds, test_ds, ckpt, rows


@pytest.fixture(scope="module")
def default_run():
    """The shipped default config's run (seed 7), shared by criteria 6 and
    7, with the wall time it took."""
    start = time.time()
    cfg = TriMixConfig().validate()
    return (cfg, *_desk_run(cfg), time.time() - start)


def _untrained(cfg, train_ds):
    arch = cfg.arch_for(train_ds.input_width)
    init_only = init_params(arch, seed=cfg.seed)
    return Checkpoint(params=init_only, adam=AdamState.for_params(init_only), epoch=0)


def _epoch_mean_loss(rows, epoch):
    return np.mean([r["total"] for r in rows if r["epoch"] == epoch])


def test_reference_results_reproduce(default_run):
    """The default run's numbers in reference/reference_results.txt, at the
    precision printed there."""
    cfg, train_ds, test_ds, ckpt, rows, _ = default_run
    text = (pathlib.Path(__file__).resolve().parents[1] / "reference" / "reference_results.txt").read_text()

    def printed(pattern):
        return re.search(pattern, text).group(1)

    assert config_digest(cfg.render()) == printed(r"default config digest: (\w+)")
    assert f"{_knn_accuracy(ckpt, train_ds, test_ds, cfg.knn_k):.4f}" == printed(r"knn\(k=20\) trained\s*: ([\d.]+)")
    untrained = _untrained(cfg, train_ds)
    assert f"{_knn_accuracy(untrained, train_ds, test_ds, cfg.knn_k):.4f}" == printed(r"init-only\s*: ([\d.]+)")
    assert f"{_epoch_mean_loss(rows, 1):.4f}" == printed(r"epoch 1 ([\d.]+) ->")
    assert f"{_epoch_mean_loss(rows, cfg.epochs):.4f}" == printed(rf"-> epoch {cfg.epochs} ([\d.]+)")


# sha256 of the default run's metrics.csv bytes, final parameters and Adam
# moments; the bytes depend on numpy and the BLAS build (numpy 2.4.6 with
# OpenBLAS 0.3.31 here), so a new library may need a new pin
DEFAULT_RUN_SHA256 = "f50d0df7ac455bfb7e0f4e404d72943ef46ab57e5cbc9175027ed68e83ada68f"


def test_default_run_bytes_are_pinned(default_run, tmp_path):
    _, _, _, ckpt, rows, _ = default_run
    write_metrics(str(tmp_path / "metrics.csv"), rows)
    h = hashlib.sha256((tmp_path / "metrics.csv").read_bytes())
    for a in [t.data for t in ckpt.params.tensors()] + ckpt.adam.m + ckpt.adam.v:
        h.update(a.tobytes())
    assert h.hexdigest() == DEFAULT_RUN_SHA256


def test_criterion_6_desk_scale_learning_signal(default_run):
    cfg, train_ds, test_ds, ckpt, rows, run_s = default_run
    start = time.time()
    # 50 epochs, B=64, K=3 blobs 600/300 at 16x16
    assert cfg.epochs == 50 and cfg.synthetic_train == 600 and cfg.synthetic_test == 300

    trained_acc = _knn_accuracy(ckpt, train_ds, test_ds, cfg.knn_k)
    untrained_acc = _knn_accuracy(_untrained(cfg, train_ds), train_ds, test_ds, cfg.knn_k)
    first, last = _epoch_mean_loss(rows, 1), _epoch_mean_loss(rows, cfg.epochs)
    elapsed = run_s + time.time() - start

    assert trained_acc >= 0.90, f"trained KNN {trained_acc:.3f}"
    assert trained_acc - untrained_acc >= 0.15, f"gap {trained_acc - untrained_acc:.3f}"
    assert last < first, f"epoch-mean loss {first:.2f} -> {last:.2f}"
    assert elapsed < 600.0, f"desk run took {elapsed:.1f}s"
    announce(6, "desk-scale-learning", (
        f"knn {trained_acc:.3f} >= 0.90, gap {trained_acc - untrained_acc:+.3f} >= 0.15, "
        f"loss {first:.1f}->{last:.1f}, {elapsed:.0f}s < 10min"
    ))


def test_criterion_7_ablation_direction_soft(default_run):
    """Logged, not gating: full objective vs redundancy-reduction only."""
    wins = 0
    outcomes = []
    for seed in (7, 8, 9):
        full_cfg = TriMixConfig(seed=seed).validate()
        bt_cfg = TriMixConfig(seed=seed, beta=0.0, gamma=0.0).validate()
        if full_cfg == default_run[0]:
            train_ds, test_ds, full_ckpt = default_run[1:4]
        else:
            train_ds, test_ds, full_ckpt, _ = _desk_run(full_cfg)
        _, _, bt_ckpt, _ = _desk_run(bt_cfg)
        full_acc = _knn_accuracy(full_ckpt, train_ds, test_ds, full_cfg.knn_k)
        bt_acc = _knn_accuracy(bt_ckpt, train_ds, test_ds, bt_cfg.knn_k)
        assert 0.0 <= bt_acc <= 1.0 and 0.0 <= full_acc <= 1.0
        wins += full_acc >= bt_acc
        outcomes.append(f"seed {seed}: full {full_acc:.3f} vs bt {bt_acc:.3f}")
    detail = "; ".join(outcomes) + f"; majority full>=bt in {wins}/3 seeds [soft, logged]"
    print(f"\n[acceptance] criterion 7 ablation-direction: {detail}")


def test_criterion_8_determinism_and_persistence(tmp_path):
    # identical seeds -> bit-identical metrics CSVs
    cfg = small_cfg(epochs=2, synthetic_train=48, synthetic_test=16,
                    synthetic_size=8, save_every=0, seed=33)
    ds = synthetic_blobs(cfg.synthetic_spec("train"))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    pretrain(cfg, ds, out_dir=out_a)
    pretrain(cfg, ds, out_dir=out_b)
    assert open(f"{out_a}/metrics.csv").read() == open(f"{out_b}/metrics.csv").read()

    # straight 10 epochs vs 5 + save/load + 5, bit for bit
    cfg10 = small_cfg(epochs=10, synthetic_train=48, synthetic_test=16,
                      synthetic_size=8, save_every=0, seed=33)
    straight, straight_rows = pretrain(cfg10, ds)
    cfg5 = small_cfg(epochs=5, synthetic_train=48, synthetic_test=16,
                     synthetic_size=8, save_every=0, seed=33)
    half, _ = pretrain(cfg5, ds)
    half_path = str(tmp_path / "half.tmx")
    save_checkpoint(half_path, half)
    resumed, resumed_rows = pretrain(cfg10, ds, resume=load_checkpoint(half_path))
    for ours, theirs in ((resumed.params.tensors(), straight.params.tensors()),
                         (resumed.adam.m, straight.adam.m), (resumed.adam.v, straight.adam.v)):
        for a, b in zip(ours, theirs):
            assert getattr(a, "data", a).tobytes() == getattr(b, "data", b).tobytes()
    assert resumed_rows and resumed_rows == straight_rows[len(straight_rows) // 2:]
    announce(8, "determinism-persistence",
             "bit-identical metrics, resume == straight bit for bit (params, moments, logged rows)")


def test_criterion_9_format_robustness(tmp_path, capsys):
    # corrupted IDX magic: FormatError and CLI exit 1
    imgs = str(tmp_path / "imgs.idx")
    lbls = str(tmp_path / "lbls.idx")
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        f.write(bytes(4))
    with open(lbls, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 1))
        f.write(bytes(1))
    from trimix.data import load_idx
    with pytest.raises(FormatError, match="magic"):
        load_idx(imgs, lbls)
    code = run(["pretrain", "--set", "dataset=idx",
                "--set", f"idx_train_images={imgs}", "--set", f"idx_train_labels={lbls}",
                "--set", f"idx_test_images={imgs}", "--set", f"idx_test_labels={lbls}",
                "--out", str(tmp_path / "x")])
    assert code == 1

    # truncated checkpoint: FormatError and CLI exit 1
    cfg = small_cfg(epochs=1, synthetic_train=16, synthetic_test=16,
                    synthetic_size=8, save_every=0)
    ds = synthetic_blobs(cfg.synthetic_spec("train"))
    ckpt, _ = pretrain(cfg, ds)
    path = str(tmp_path / "trunc.tmx")
    save_checkpoint(path, ckpt)
    open(path, "wb").write(open(path, "rb").read()[:-9])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    code = run(["knn", "--checkpoint", path, "--out", str(tmp_path / "y")])
    assert code == 1

    # odd batch size: BatchParityError and CLI exit 1
    with pytest.raises(BatchParityError, match="even"):
        TriMixConfig(batch_size=63).validate()
    code = run(["pretrain", "--set", "batch_size=63", "--out", str(tmp_path / "z")])
    assert code == 1
    err = capsys.readouterr().err
    assert "even" in err
    announce(9, "format-robustness",
             "bad IDX magic, truncated checkpoint, odd batch all rejected with exit 1")
