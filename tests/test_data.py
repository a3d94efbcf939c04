"""Ingestion formats, augmentation pipeline, and batching."""
import struct

import numpy as np
import pytest
from conftest import rng_for

from trimix.data import (
    AugmentPolicy,
    SyntheticSpec,
    batches,
    load_csv,
    load_idx,
    synthetic_blobs,
    two_views,
)
from trimix.errors import BatchParityError, ContractError, FormatError


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


class TestCsv:
    def test_square_rows_decode(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0,64,128,255\n0,10,20,30,40\n")
        ds = load_csv(str(path))
        assert ds.images.shape == (2, 1, 2, 2)
        np.testing.assert_allclose(ds.images[0, 0], [[0, 64], [128, 255]] / np.float64(255))
        assert list(ds.labels) == [1, 0]

    def test_pixel_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,0,0\n1,0,300,0,0\n")
        with pytest.raises(FormatError, match="row 2"):
            load_csv(str(path))

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-1,0,0,0,0\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(str(path))

    def test_label_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{2**63},0,0,0,0\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(str(path))

    def test_non_square_pixel_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3,4,5\n")
        with pytest.raises(FormatError, match="square"):
            load_csv(str(path))

    def test_non_utf8_byte_names_file_and_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,1,2,3,4\n1,5,\xff,7,8\n")
        with pytest.raises(FormatError, match=r"bad\.csv: byte 0xff at byte offset 14"):
            load_csv(str(path))


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


class TestTwoViews:
    def test_identity_policy_returns_input(self):
        imgs = rng_for(40).uniform(0, 1, size=(4, 1, 6, 6))
        vp = two_views(imgs, AugmentPolicy.identity(), 123)
        assert np.array_equal(vp.x.data, imgs)
        assert np.array_equal(vp.x_prime.data, imgs)

    def test_forced_hflip_reverses_columns(self):
        img = np.array([[[[0.1, 0.9], [0.3, 0.7]]]])
        imgs = np.concatenate([img, img])
        policy = AugmentPolicy(pad=0, hflip_p=1.0, brightness=0.0, contrast=0.0, grayscale_p=0.0)
        vp = two_views(imgs, policy, 0)
        np.testing.assert_array_equal(vp.x.data[0, 0], [[0.9, 0.1], [0.7, 0.3]])

    def test_seed_determinism(self):
        imgs = rng_for(41).uniform(0, 1, size=(6, 1, 8, 8))
        a = two_views(imgs, AugmentPolicy(), 99)
        b = two_views(imgs, AugmentPolicy(), 99)
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(a.x_prime.data, b.x_prime.data)
        c = two_views(imgs, AugmentPolicy(), 100)
        assert not np.array_equal(a.x.data, c.x.data)

    def test_views_are_independent_draws(self):
        imgs = rng_for(42).uniform(0, 1, size=(4, 1, 8, 8))
        vp = two_views(imgs, AugmentPolicy(), 7)
        assert not np.array_equal(vp.x.data, vp.x_prime.data)

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
            for view in (vp.x.data, vp.x_prime.data):
                assert view.min() >= 0.0 and view.max() <= 1.0
                assert view.shape == imgs.shape

    def test_forced_grayscale_equalizes_channels(self):
        imgs = rng_for(45).uniform(0, 1, size=(2, 3, 4, 4))
        policy = AugmentPolicy(pad=0, hflip_p=0.0, brightness=0.0, contrast=0.0, grayscale_p=1.0)
        vp = two_views(imgs, policy, 3)
        out = vp.x.data
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
        assert np.array_equal(a.x.data[unchanged], b.x.data[unchanged])
        assert not np.array_equal(a.x.data[3], b.x.data[3])

    def test_probability_bounds_validated(self):
        with pytest.raises(ContractError):
            AugmentPolicy(hflip_p=1.5)


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
