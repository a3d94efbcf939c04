"""Feature extraction, KNN, linear probe, and semi-supervised fine-tuning."""
import hashlib

import numpy as np
import pytest
from conftest import rng_for

from trimix import eval as evaluation
from trimix import oracle
from trimix.config import TriMixConfig
from trimix.data import SyntheticSpec, synthetic_blobs
from trimix.errors import ArchMismatchError, ContractError, DegenerateFeatureError
from trimix.eval import (
    FeatureBank,
    ProbeConfig,
    extract_features,
    finetune_semi,
    knn_eval,
    knn_predict,
    linear_probe,
    softmax_cross_entropy,
    stratified_subset,
)
from trimix.model import forward, init_params
from trimix.tensor import Tape, Tensor, backward
from trimix.train import AdamState, Checkpoint


def make_checkpoint(input_width=64, seed=0) -> Checkpoint:
    cfg = TriMixConfig(encoder_widths=(24, 12), projector_widths=(12, 8)).validate()
    arch = cfg.arch_for(input_width)
    params = init_params(arch, seed=seed)
    return Checkpoint(params=params, adam=AdamState.for_params(params), epoch=0)


def params_digest(ckpt: Checkpoint) -> str:
    h = hashlib.sha256()
    for t in ckpt.params.flat:
        h.update(t.data.tobytes())
    return h.hexdigest()


class TestExtractFeatures:
    def test_zero_weight_encoder_degenerates(self):
        ckpt = make_checkpoint()
        for t in ckpt.params.flat[:ckpt.params.encoder_end]:
            t.data[...] = 0.0
        ds = synthetic_blobs(SyntheticSpec(n=12, classes=2, size=8, seed=0))
        with pytest.raises(DegenerateFeatureError, match="norm"):
            extract_features(ckpt, ds)

    def test_repeatable(self):
        ckpt = make_checkpoint(seed=1)
        ds = synthetic_blobs(SyntheticSpec(n=20, classes=2, size=8, seed=1))
        a = extract_features(ckpt, ds)
        b = extract_features(ckpt, ds)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rows_match_single_sample_forward(self):
        ckpt = make_checkpoint(seed=2)
        ds = synthetic_blobs(SyntheticSpec(n=10, classes=2, size=8, seed=2))
        bank = extract_features(ckpt, ds, l2_normalize=False)
        whole = forward(Tensor(ds.images.reshape(10, -1)), ckpt.params).y.data
        np.testing.assert_array_equal(bank.features, whole)
        for i in (0, 4, 9):
            x = Tensor(ds.images[i:i + 1].reshape(1, -1))
            single = forward(x, ckpt.params).y.data[0]
            # single-row matmul may take a different BLAS kernel; values agree
            np.testing.assert_allclose(bank.features[i], single, rtol=0, atol=1e-12)

    def test_rows_unit_norm_by_default(self):
        ckpt = make_checkpoint(seed=3)
        ds = synthetic_blobs(SyntheticSpec(n=10, classes=2, size=8, seed=3))
        bank = extract_features(ckpt, ds)
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-12)

    def test_projector_is_never_run(self):
        ckpt = make_checkpoint(seed=3)
        ds = synthetic_blobs(SyntheticSpec(n=10, classes=2, size=8, seed=3))
        clean = extract_features(ckpt, ds)
        for w in ckpt.params.flat[ckpt.params.encoder_end::2]:
            w.data[...] = np.nan
        assert np.array_equal(extract_features(ckpt, ds).features, clean.features)

    def test_arch_mismatch(self):
        ckpt = make_checkpoint(input_width=64)
        ds = synthetic_blobs(SyntheticSpec(n=10, classes=2, size=10, seed=4))
        with pytest.raises(ArchMismatchError):
            extract_features(ckpt, ds)


class TestKnn:
    def test_exact_duplicate_wins_at_k1(self):
        rng = rng_for(50)
        train = FeatureBank(rng.normal(size=(12, 6)), np.arange(12) % 3)
        test = FeatureBank(train.features[[7]].copy(), np.array([1]))
        assert knn_predict(train, test, k=1)[0] == train.labels[7]

    def test_full_bank_tie_broken_by_similarity(self):
        # two classes, equal counts: count vote always ties at k = N
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        train = FeatureBank(feats, np.array([0, 0, 1, 1]))
        test = FeatureBank(np.array([[1.0, 0.05], [0.05, 1.0]]), np.array([0, 1]))
        preds = knn_predict(train, test, k=4)
        np.testing.assert_array_equal(preds, [0, 1])

    def test_matches_full_sort_oracle(self):
        rng = rng_for(51)
        train_feats = rng.normal(size=(40, 9))
        train_labels = rng.integers(0, 4, size=40)
        test_feats = rng.normal(size=(25, 9))
        train = FeatureBank(train_feats, train_labels)
        test = FeatureBank(test_feats, np.zeros(25, dtype=int))
        fast = knn_predict(train, test, k=5)
        slow = oracle.naive_knn_predict(train_feats, train_labels, test_feats, k=5)
        np.testing.assert_array_equal(fast, slow)

    def test_invariant_to_positive_rescaling(self):
        rng = rng_for(52)
        train_feats = rng.normal(size=(30, 7))
        labels = rng.integers(0, 3, size=30)
        test_feats = rng.normal(size=(18, 7))
        test_labels = rng.integers(0, 3, size=18)
        base = knn_eval(FeatureBank(train_feats, labels),
                        FeatureBank(test_feats, test_labels), k=7)
        scaled = knn_eval(FeatureBank(train_feats * 41.7, labels),
                          FeatureBank(test_feats * 41.7, test_labels), k=7)
        assert base == scaled

    def test_contract_errors(self):
        bank = FeatureBank(np.ones((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ContractError):
            knn_predict(bank, bank, k=0)
        with pytest.raises(ContractError):
            knn_predict(bank, bank, k=4)


class TestCrossEntropy:
    def test_uniform_softmax_gradient(self):
        b, k = 6, 4
        labels = np.arange(b) % k
        tape = Tape()
        logits = tape.leaf(Tensor(np.zeros((b, k))))
        loss = softmax_cross_entropy(logits, labels)
        assert abs(loss.item() - np.log(k)) < 1e-12
        (grad,) = backward(loss)
        onehot = np.zeros((b, k))
        onehot[np.arange(b), labels] = 1.0
        np.testing.assert_allclose(grad, (np.full((b, k), 1.0 / k) - onehot) / b, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        for case in range(50):
            rng = rng_for(53, case)
            b, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            logits = rng.normal(size=(b, k))
            labels = rng.integers(0, k, size=b)
            tape = Tape()
            leaf = tape.leaf(Tensor(logits))
            (grad,) = backward(softmax_cross_entropy(leaf, labels))
            fd = oracle.finite_diff(
                lambda: softmax_cross_entropy(Tensor(logits), labels).item(), [logits]
            )
            assert oracle.max_relative_error(grad, fd[0]) < 1e-6


def separable_banks(n=120, d=8, seed=60):
    rng = rng_for(seed)
    labels = np.arange(n) % 2
    feats = rng.normal(size=(n, d)) * 0.2
    feats[:, 0] += np.where(labels == 0, -2.0, 2.0)
    half = n // 2
    return (FeatureBank(feats[:half], labels[:half]),
            FeatureBank(feats[half:], labels[half:]))


class TestLinearProbe:
    def test_separable_classes_reach_full_accuracy(self):
        train, test = separable_banks()
        report = linear_probe(train, test, ProbeConfig(epochs=40, batch_size=20, seed=0))
        assert report.top1 == 1.0
        assert report.protocol == "probe"

    def test_shuffled_labels_sit_at_chance(self):
        rng = rng_for(61)
        k = 4
        train = FeatureBank(rng.normal(size=(1000, 10)), rng.integers(0, k, size=1000))
        test = FeatureBank(rng.normal(size=(1000, 10)), rng.integers(0, k, size=1000))
        report = linear_probe(train, test, ProbeConfig(epochs=5, batch_size=100, seed=1))
        assert abs(report.top1 - 1.0 / k) < 0.1
        assert report.n == 1000

    def test_constant_bank_rejected(self):
        bank = FeatureBank(np.full((40, 6), 0.73), np.zeros(40, dtype=int))
        with pytest.raises(DegenerateFeatureError, match="constant"):
            linear_probe(bank, bank, ProbeConfig(epochs=1))

    def test_probe_leaves_checkpoint_untouched(self):
        ckpt = make_checkpoint(seed=5)
        ds = synthetic_blobs(SyntheticSpec(n=40, classes=2, size=8, seed=5))
        before = params_digest(ckpt)
        bank = extract_features(ckpt, ds)
        linear_probe(bank, bank, ProbeConfig(epochs=3, batch_size=20))
        assert params_digest(ckpt) == before


class TestFinetune:
    def test_stratified_counts_exact(self):
        labels = np.repeat(np.arange(4), 100)
        idx = stratified_subset(labels, 0.1, seed=0)
        assert len(idx) == 40
        assert [int((labels[idx] == k).sum()) for k in range(4)] == [10, 10, 10, 10]

    def test_bad_fraction_rejected(self):
        with pytest.raises(ContractError):
            stratified_subset(np.zeros(10, dtype=int), 0.0, seed=0)

    def test_subset_below_one_batch_rejected(self):
        ckpt = make_checkpoint(seed=6)
        ds = synthetic_blobs(SyntheticSpec(n=40, classes=1, size=8, seed=6))
        with pytest.raises(ContractError, match="keeps 1 samples, fewer than one batch of 2"):
            finetune_semi(ckpt, ds, ds, 0.03, ProbeConfig(epochs=1, batch_size=32))

    def test_batch_shrinks_to_a_small_subset(self, monkeypatch):
        # the defaults: 600 training images in 3 classes, batches of 64
        cfg = TriMixConfig()
        train, test = (synthetic_blobs(cfg.synthetic_spec(split)) for split in ("train", "test"))
        fits = []
        fit = evaluation._sgd_fit

        def recording(arrays, n, batch, *rest):
            fits.append((n, batch))
            return fit(arrays, n, batch, *rest)

        monkeypatch.setattr(evaluation, "_sgd_fit", recording)
        probe_cfg = ProbeConfig(epochs=2, batch_size=cfg.probe_batch, seed=cfg.seed)
        for fraction in (0.1, 0.5):
            finetune_semi(make_checkpoint(input_width=256), train, test, fraction, probe_cfg)
        assert fits == [(60, 60), (300, 64)]

    def test_full_fraction_learns_blobs(self):
        ckpt = make_checkpoint(seed=7)
        spec = dict(classes=3, size=8, noise=0.05, center_jitter=0.4, background=0.0)
        train = synthetic_blobs(SyntheticSpec(n=120, seed=7, **spec))
        test = synthetic_blobs(SyntheticSpec(n=60, seed=8, **spec))
        report = finetune_semi(ckpt, train, test, 1.0,
                               ProbeConfig(epochs=30, batch_size=24, lr=5e-3, seed=2))
        assert report.top1 > 0.9
        assert report.protocol == "finetune@1"

    def test_projector_is_never_run(self):
        spec = dict(classes=2, size=8, noise=0.05, center_jitter=0.4, background=0.0)
        train = synthetic_blobs(SyntheticSpec(n=40, seed=11, **spec))
        test = synthetic_blobs(SyntheticSpec(n=20, seed=12, **spec))
        cfg = ProbeConfig(epochs=3, batch_size=8, lr=5e-3, seed=4)
        clean = finetune_semi(make_checkpoint(seed=9), train, test, 1.0, cfg)
        poisoned = make_checkpoint(seed=9)
        for w in poisoned.params.flat[poisoned.params.encoder_end::2]:
            w.data[...] = np.nan
        assert finetune_semi(poisoned, train, test, 1.0, cfg) == clean

    def test_larger_fraction_no_worse_in_reference_setup(self):
        spec = dict(classes=4, size=8, noise=0.05, center_jitter=0.4, background=0.0)
        train = synthetic_blobs(SyntheticSpec(n=400, seed=9, **spec))
        test = synthetic_blobs(SyntheticSpec(n=120, seed=10, **spec))
        cfg = ProbeConfig(epochs=15, batch_size=4, lr=5e-3, seed=3)
        small = finetune_semi(make_checkpoint(seed=8), train, test, 0.01, cfg)
        large = finetune_semi(make_checkpoint(seed=8), train, test, 0.1, cfg)
        assert large.top1 >= small.top1
