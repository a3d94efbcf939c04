"""Ingestion formats, augmentation pipeline, and batching."""
import hashlib
import itertools
import struct

import numpy as np
import pytest
from conftest import imported_names, rng_for

from trimix import data, streams
from trimix.config import TriMixConfig
from trimix.data import (
    AugmentPolicy,
    SyntheticSpec,
    batches,
    derived_rng,
    load_idx,
    synthetic_blobs,
    two_views,
)
from trimix.errors import BatchParityError, ContractError, FormatError
from trimix.oracle import naive_synthetic_blobs, naive_two_views
from trimix.streams import raw_words


def write_idx_pair(tmp_path, images, labels, prefix="a"):
    """Build IDX files byte by byte: big-endian headers, u8 payload."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    img_path = tmp_path / f"{prefix}_imgs.idx"
    lbl_path = tmp_path / f"{prefix}_lbls.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(bytes(int(v) for v in labels))
    return str(img_path), str(lbl_path)


class TestIdx:
    def test_two_image_fixture_decodes(self, tmp_path):
        pix = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [10, 20]]], dtype=np.uint8
        )
        img_path, lbl_path = write_idx_pair(tmp_path, pix, [3, 1])
        ds = load_idx(img_path, lbl_path)
        assert ds.images.shape == (2, 1, 2, 2)
        np.testing.assert_allclose(ds.images[0, 0], pix[0] / 255.0)
        np.testing.assert_allclose(ds.images[1, 0], pix[1] / 255.0)
        assert list(ds.labels) == [3, 1]

    def test_label_magic_as_images_rejected(self, tmp_path):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(lbl_path, lbl_path)

    def test_truncated_pixels_rejected(self, tmp_path):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        raw = open(img_path, "rb").read()
        with open(img_path, "wb") as f:
            f.write(raw[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(img_path, lbl_path)

    def test_count_mismatch_rejected(self, tmp_path):
        img_path, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], prefix="a")
        _, lbl_path = write_idx_pair(
            tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 0], prefix="b"
        )
        with pytest.raises(FormatError, match="labels"):
            load_idx(img_path, lbl_path)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n=300, classes=3, size=16, seed=7)
        a = synthetic_blobs(spec)
        b = synthetic_blobs(spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_pixels_in_range_and_balanced(self):
        ds = synthetic_blobs(SyntheticSpec(n=90, classes=3, size=12, seed=1))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert [int((ds.labels == k).sum()) for k in range(3)] == [30, 30, 30]

    def test_classes_are_spatially_distinct(self):
        ds = synthetic_blobs(SyntheticSpec(n=150, classes=3, size=16, seed=2, noise=0.0))
        means = [ds.images[ds.labels == k].mean(axis=0)[0] for k in range(3)]
        peaks = [np.unravel_index(np.argmax(m), m.shape) for m in means]
        assert len(set(peaks)) == 3

    @pytest.mark.parametrize("setting, value", [
        ("noise", -0.1), ("background", -1.0), ("center_jitter", -0.5), ("noise", float("nan")),
    ])
    def test_negative_scale_rejected(self, setting, value):
        with pytest.raises(ContractError, match=f"{setting} must be >= 0"):
            SyntheticSpec(**{setting: value})

    def test_reversed_amplitude_range_rejected(self):
        with pytest.raises(ContractError, match="amp_low 1.0 must not exceed amp_high 0.5"):
            SyntheticSpec(amp_low=1.0, amp_high=0.5)


class TestSyntheticPinned:
    """The batch-wide build against the image-by-image oracle, and the
    default splits against their recorded bytes."""

    SPECS = (
        SyntheticSpec(n=1),
        SyntheticSpec(n=7, classes=3, size=6, seed=5),
        SyntheticSpec(n=4, classes=9, size=4, seed=2**32),
        SyntheticSpec(n=257, classes=4, size=28, seed=2**40 + 3),
        SyntheticSpec(n=300, classes=2, size=12, seed=0, noise=0.0),
        SyntheticSpec(n=513, classes=5, size=9, seed=11, background=0.0),
        SyntheticSpec(n=33, classes=1, size=5, seed=3, noise=0.0, background=0.0, center_jitter=0.0),
    )
    DEFAULT_SHA256 = {
        "train": "22fd3df76b5b63481dc2858dd62eb24c1dfe7744b6451981ff035770fb3a91ac",
        "test": "c8aac858d4e0b886bfcd6c03581b8107355d56476a583556ab9c7e54f6902008",
    }

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"n{s.n}-g{s.size}-seed{s.seed}")
    def test_equals_the_oracle_byte_for_byte(self, spec):
        ds = synthetic_blobs(spec)
        images, labels = naive_synthetic_blobs(spec, data.STREAM_SYNTH)
        assert ds.images.tobytes() == images.tobytes()
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_default_splits_keep_their_bytes_and_layout(self, split):
        spec = TriMixConfig().validate().synthetic_spec(split)
        ds = synthetic_blobs(spec)
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == self.DEFAULT_SHA256[split]
        assert ds.images.shape == (spec.n, 1, 16, 16)
        # canonical strides: batches gathered from a stride-0 channel axis pad slower
        assert ds.images.strides == (2048, 2048, 128, 8)
        assert ds.images.dtype == np.float64
        assert ds.images.tobytes() == naive_synthetic_blobs(spec, data.STREAM_SYNTH)[0].tobytes()

    def test_builds_no_generator_for_32_bit_keys(self, monkeypatch):
        made = []

        def counting(seed, *key):
            made.append(key)
            return derived_rng(seed, *key)

        monkeypatch.setattr(data, "derived_rng", counting)
        monkeypatch.setattr(streams, "derived_rng", counting)
        synthetic_blobs(SyntheticSpec(n=600, seed=2**40 + 3))
        assert made == []


class TestTwoViews:
    def test_identity_policy_returns_input(self):
        imgs = rng_for(40).uniform(0, 1, size=(4, 1, 6, 6))
        policy = AugmentPolicy(pad=0, hflip_p=0.0, brightness=0.0, contrast=0.0, grayscale_p=0.0)
        vp = two_views(imgs, policy, 123)
        assert np.array_equal(vp.x, imgs)
        assert np.array_equal(vp.x_prime, imgs)

    def test_forced_hflip_reverses_columns(self):
        img = np.array([[[[0.1, 0.9], [0.3, 0.7]]]])
        imgs = np.concatenate([img, img])
        policy = AugmentPolicy(pad=0, hflip_p=1.0, brightness=0.0, contrast=0.0, grayscale_p=0.0)
        vp = two_views(imgs, policy, 0)
        np.testing.assert_array_equal(vp.x[0, 0], [[0.9, 0.1], [0.7, 0.3]])

    def test_seed_determinism(self):
        imgs = rng_for(41).uniform(0, 1, size=(6, 1, 8, 8))
        a = two_views(imgs, AugmentPolicy(), 99)
        b = two_views(imgs, AugmentPolicy(), 99)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.x_prime, b.x_prime)
        c = two_views(imgs, AugmentPolicy(), 100)
        assert not np.array_equal(a.x, c.x)

    def test_views_are_independent_draws(self):
        imgs = rng_for(42).uniform(0, 1, size=(4, 1, 8, 8))
        vp = two_views(imgs, AugmentPolicy(), 7)
        assert not np.array_equal(vp.x, vp.x_prime)

    def test_odd_batch_rejected(self):
        with pytest.raises(BatchParityError):
            two_views(np.zeros((3, 1, 4, 4)), AugmentPolicy(), 0)

    def test_pixels_stay_in_range_under_random_policies(self):
        for case in range(25):
            rng = rng_for(43, case)
            policy = AugmentPolicy(
                pad=int(rng.integers(0, 4)),
                hflip_p=float(rng.random()),
                brightness=float(rng.uniform(0, 1.5)),
                contrast=float(rng.uniform(0, 1.5)),
                grayscale_p=float(rng.random()),
            )
            imgs = rng.uniform(0, 1, size=(4, 3, 6, 6))
            vp = two_views(imgs, policy, case)
            for view in (vp.x, vp.x_prime):
                assert view.min() >= 0.0 and view.max() <= 1.0
                assert view.shape == imgs.shape

    def test_forced_grayscale_equalizes_channels(self):
        imgs = rng_for(45).uniform(0, 1, size=(2, 3, 4, 4))
        policy = AugmentPolicy(pad=0, hflip_p=0.0, brightness=0.0, contrast=0.0, grayscale_p=1.0)
        vp = two_views(imgs, policy, 3)
        out = vp.x
        np.testing.assert_array_equal(out[:, 0], out[:, 1])
        np.testing.assert_array_equal(out[:, 0], out[:, 2])
        np.testing.assert_allclose(out[:, 0], imgs.mean(axis=1), atol=1e-15)

    def test_no_cross_image_information(self):
        rng = rng_for(44)
        imgs = rng.uniform(0, 1, size=(6, 1, 8, 8))
        other = imgs.copy()
        other[3] = rng.uniform(0, 1, size=(1, 8, 8))
        a = two_views(imgs, AugmentPolicy(), 5)
        b = two_views(other, AugmentPolicy(), 5)
        unchanged = [i for i in range(6) if i != 3]
        assert np.array_equal(a.x[unchanged], b.x[unchanged])
        assert not np.array_equal(a.x[3], b.x[3])

    def test_probability_bounds_validated(self):
        with pytest.raises(ContractError):
            AugmentPolicy(hflip_p=1.5)


# every on/off combination of each transform, with pads up to and beyond
# the image side
POLICY_GRID = [
    AugmentPolicy(pad=pad, hflip_p=flip, brightness=bright, contrast=con, grayscale_p=gray)
    for pad, flip, bright, con, gray in itertools.product(
        (0, 1, 2, 3, 16), (0.0, 0.5, 1.0), (0.0, 0.4), (0.0, 0.4), (0.0, 0.1, 1.0))
]


class TestTwoViewsAgainstOracle:
    """The batched views against the image-by-image definition, byte for byte."""

    @pytest.mark.parametrize("shape", [(1, 16, 16), (3, 8, 8), (1, 15, 15), (3, 7, 9), (1, 28, 28)])
    def test_same_bytes_as_per_image_oracle(self, shape):
        for case, policy in enumerate(POLICY_GRID):
            imgs = rng_for(46, case, *shape).uniform(-0.1, 1.2, size=(4, *shape))
            vp = two_views(imgs, policy, case, 5, case)
            x, x_prime = naive_two_views(imgs, policy, case, 5, case)
            assert vp.x.tobytes() == x.tobytes(), policy
            assert vp.x_prime.tobytes() == x_prime.tobytes(), policy

    def test_same_bytes_above_numpy_buffer_size(self):
        # 3x64x64 = 12,288 values per image: numpy sums a crop view that
        # large in chunks, which the contrast mean must follow
        imgs = rng_for(47).uniform(-0.1, 1.2, size=(4, 3, 64, 64))
        for case, policy in enumerate(p for p in POLICY_GRID if p.contrast and p.pad < 16):
            vp = two_views(imgs, policy, case, 6)
            x, x_prime = naive_two_views(imgs, policy, case, 6)
            assert vp.x.tobytes() == x.tobytes(), policy
            assert vp.x_prime.tobytes() == x_prime.tobytes(), policy

    def test_input_never_written(self):
        imgs = rng_for(48).uniform(-0.1, 1.2, size=(4, 3, 7, 9))
        before = imgs.copy()
        for case, policy in enumerate(POLICY_GRID):
            vp = two_views(imgs, policy, case)
            assert imgs.tobytes() == before.tobytes(), policy
            assert not np.shares_memory(vp.x, imgs) and not np.shares_memory(vp.x_prime, imgs)

    @staticmethod
    def reject_row(monkeypatch, row):
        """Zero the low half of `row`'s first stream word: its first crop
        offset then leaves remainder 0, which Lemire's method rejects
        whenever pad > 0, so numpy would draw again."""
        def words(seed, prefix, rows, n):
            out = raw_words(seed, prefix, rows, n)
            out[row, 0] &= np.uint64(0xFFFFFFFF00000000)
            return out

        monkeypatch.setattr(data, "raw_words", words)

    def test_rejected_draw_falls_back_to_the_generator(self, monkeypatch):
        imgs = rng_for(50).uniform(-0.1, 1.2, size=(4, 3, 7, 9))
        for case, policy in enumerate(p for p in POLICY_GRID if p.pad):
            self.reject_row(monkeypatch, case % 8)
            vp = two_views(imgs, policy, case, 5)
            x, x_prime = naive_two_views(imgs, policy, case, 5)
            assert vp.x.tobytes() == x.tobytes(), policy
            assert vp.x_prime.tobytes() == x_prime.tobytes(), policy

    def test_generator_built_only_for_a_rejected_row(self, monkeypatch):
        made = []

        def counting(seed, *key):
            made.append(key)
            return derived_rng(seed, *key)

        monkeypatch.setattr(data, "derived_rng", counting)
        imgs = rng_for(49).uniform(0, 1, size=(6, 1, 8, 8))
        two_views(imgs, AugmentPolicy(pad=0, hflip_p=0.0, brightness=0.0, contrast=0.0, grayscale_p=0.0),
                  3, 1, 2)
        two_views(imgs, AugmentPolicy(), 3, 1, 2)
        assert made == []
        self.reject_row(monkeypatch, 6 + 4)  # image 4 of view 1
        two_views(imgs, AugmentPolicy(), 3, 1, 2)
        assert made == [(1, 2, 4, 1)]


class TestBatches:
    def test_drop_last_arithmetic(self):
        out = batches(10, 4, seed=0)
        assert len(out) == 2
        flat = np.concatenate(out)
        assert len(flat) == 8 and len(set(flat.tolist())) == 8

    def test_same_seed_same_order(self):
        assert [b.tolist() for b in batches(20, 4, 5)] == [b.tolist() for b in batches(20, 4, 5)]

    def test_each_epoch_is_a_permutation(self):
        for epoch_seed in (1, 2):
            flat = np.concatenate(batches(12, 4, epoch_seed))
            assert sorted(flat.tolist()) == list(range(12))
        assert [b.tolist() for b in batches(12, 4, 1)] != [b.tolist() for b in batches(12, 4, 2)]

    def test_odd_batch_rejected(self):
        with pytest.raises(BatchParityError, match="even"):
            batches(10, 3, 0)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ContractError):
            batches(4, 6, 0)

    @pytest.mark.parametrize("size", [0, -2])
    def test_batch_below_two_rejected(self, size):
        with pytest.raises(ContractError, match="outside"):
            batches(10, size, 0)


def test_data_imports_nothing_from_the_tensor_module():
    """Views are plain arrays; the objective puts them on a tape."""
    imported = imported_names(data)
    assert not {n for n in imported if n == "trimix.tensor" or n.startswith("trimix.tensor.")}, sorted(imported)
