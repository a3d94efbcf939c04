"""Seeded fuzzing of every input format: a malformed checkpoint, IDX
pair or config ends in a TriMixError, never in another exception.

Only the loaders (and `validate`) run; nothing trains.  Hypothesis is
derandomized with no example database, so every run draws the same cases.
"""
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimix.config import load_config
from trimix.data import load_idx
from trimix.errors import TriMixError
from trimix.model import Arch, init_params
from trimix.train import AdamState, Checkpoint, load_checkpoint, save_checkpoint

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# every metadata field of the fixture checkpoint (18 arrays: 6 params, Adam m and v)
META_PATHS = (
    [(k,) for k in ("epoch", "config", "arch", "adam", "arrays")]
    + [("arch", k) for k in ("input_width", "encoder", "projector", "activation")]
    + [("adam", "t")]
    + [("arrays", i, k) for i in (0, 7, 17) for k in ("name", "shape")]
)
DELETE = object()


def accepted_or_rejected(load, *args):
    """True if `load` returned, False if it raised a TriMixError; any other
    exception propagates and fails the test."""
    try:
        load(*args)
    except TriMixError:
        return False
    return True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    arch = Arch(input_width=4, encoder=(3,), projector=(2, 2))
    params = init_params(arch, seed=1)
    ckpt = Checkpoint(params=params, adam=AdamState.for_params(params), epoch=2, config_text="seed=1\n")
    path = str(workdir / "valid.tmx")
    save_checkpoint(path, ckpt)
    return open(path, "rb").read()


def split_checkpoint(raw):
    meta_len = int.from_bytes(raw[8:12], "little")
    return raw[:8], json.loads(raw[12:12 + meta_len]), raw[12 + meta_len:]


def load_bytes(workdir, name, raw, load):
    path = workdir / name
    path.write_bytes(raw)
    return accepted_or_rejected(load, str(path))


class TestCheckpoint:
    def test_every_truncation_rejected(self, workdir, checkpoint_bytes):
        assert load_bytes(workdir, "ok.tmx", checkpoint_bytes, load_checkpoint)
        for cut in range(len(checkpoint_bytes)):
            assert not load_bytes(workdir, "cut.tmx", checkpoint_bytes[:cut], load_checkpoint), cut

    def test_every_bit_flip_in_header_and_metadata(self, workdir, checkpoint_bytes):
        meta_end = 12 + int.from_bytes(checkpoint_bytes[8:12], "little")
        for bit in range(8 * meta_end):
            raw = bytearray(checkpoint_bytes)
            raw[bit // 8] ^= 1 << (bit % 8)
            load_bytes(workdir, "flip.tmx", bytes(raw), load_checkpoint)

    @FUZZ
    @given(path=st.sampled_from(META_PATHS), value=st.just(DELETE) | JSON_VALUES)
    @example(path=("arch", "input_width"), value=2**50)  # must not size an allocation
    @example(path=("arch", "encoder"), value=[2**40])
    @example(path=("arch", "input_width"), value=float("inf"))
    def test_schema_mutations(self, workdir, checkpoint_bytes, path, value):
        head, meta, arrays = split_checkpoint(checkpoint_bytes)
        *parents, key = path
        target = meta
        for p in parents:
            target = target[p]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        blob = json.dumps(meta).encode("utf-8")
        raw = head + len(blob).to_bytes(4, "little") + blob + arrays
        load_bytes(workdir, "schema.tmx", raw, load_checkpoint)

    @FUZZ
    @given(block=st.binary(max_size=64))
    @example(block=b"1" * 5000)  # more digits than Python parses into an int
    @example(block=b"[" * 100000)  # nesting deeper than the JSON parser recurses
    def test_arbitrary_metadata_block(self, workdir, checkpoint_bytes, block):
        raw = checkpoint_bytes[:8] + len(block).to_bytes(4, "little") + block
        assert not load_bytes(workdir, "block.tmx", raw, load_checkpoint)


def idx_pair(n=2, h=2, w=2):
    images = struct.pack(">IIII", 0x00000803, n, h, w) + bytes(range(n * h * w))
    labels = struct.pack(">II", 0x00000801, n) + bytes(i % 3 for i in range(n))
    return images, labels


def load_idx_bytes(workdir, images, labels):
    (workdir / "img.idx").write_bytes(images)
    (workdir / "lbl.idx").write_bytes(labels)
    return accepted_or_rejected(load_idx, str(workdir / "img.idx"), str(workdir / "lbl.idx"))


U32 = st.integers(0, 2**32 - 1) | st.integers(0, 4)
MAGIC = st.sampled_from([0x00000803, 0x00000801]) | st.integers(0, 2**32 - 1)


class TestIdx:
    def test_every_bit_flip_in_headers(self, workdir):
        images, labels = idx_pair()
        assert load_idx_bytes(workdir, images, labels)
        for which in (0, 1):
            size = 16 if which == 0 else 8
            for bit in range(8 * size):
                pair = [bytearray(images), bytearray(labels)]
                pair[which][bit // 8] ^= 1 << (bit % 8)
                load_idx_bytes(workdir, bytes(pair[0]), bytes(pair[1]))

    @FUZZ
    @given(img_head=st.tuples(MAGIC, U32, U32, U32), lbl_head=st.tuples(MAGIC, U32),
           img_body=st.binary(max_size=40), lbl_body=st.binary(max_size=8))
    def test_random_headers(self, workdir, img_head, lbl_head, img_body, lbl_body):
        images = struct.pack(">IIII", *img_head) + img_body
        labels = struct.pack(">II", *lbl_head) + lbl_body
        load_idx_bytes(workdir, images, labels)

    @FUZZ
    @given(images=st.binary(max_size=20), labels=st.binary(max_size=12))
    def test_short_files(self, workdir, images, labels):
        load_idx_bytes(workdir, images, labels)


CONFIG_KEYS = ["seed", "epochs", "lr", "batch_size", "probe_batch", "probe_epochs", "probe_lr", "knn_k",
               "finetune_fraction", "tau", "beta", "lambda_policy", "placement", "enable_vrt",
               "encoder_widths", "dataset", "checkpoint_dtype", "nonexistent"]
CONFIG_VALUES = st.sampled_from(["0", "-1", "2", "7", "1e999", "nan", "0.5", "true", "maybe", "fixed(0.3)",
                                 "fixed(x)", "ZY", "", "1,2", "1" * 5000]) | st.text(max_size=8)


# settings that validate checks by building the run's policy, arch and synthetic specs
RUN_KEYS = ["aug_pad", "aug_hflip", "aug_brightness", "aug_contrast", "aug_grayscale", "encoder_widths",
            "projector_widths", "activation", "save_every", "synthetic_size", "synthetic_train",
            "synthetic_classes", "dataset"]


class TestConfig:
    @FUZZ
    @given(lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES), max_size=4),
           junk=st.text(max_size=12))
    def test_key_value_text(self, workdir, lines, junk):
        text = "".join(f"{k}={v}\n" for k, v in lines) + junk
        load_bytes(workdir, "run.cfg", text.encode("utf-8", "surrogatepass"),
                   lambda path: load_config(path).validate())

    @FUZZ
    @given(raw=st.binary(max_size=60))
    def test_bytes(self, workdir, raw):
        load_bytes(workdir, "run.cfg", raw, lambda path: load_config(path).validate())

    @FUZZ
    @given(lines=st.lists(st.tuples(st.sampled_from(RUN_KEYS), CONFIG_VALUES), max_size=4))
    def test_run_settings(self, workdir, lines):
        text = "".join(f"{k}={v}\n" for k, v in lines)
        load_bytes(workdir, "run.cfg", text.encode("utf-8", "surrogatepass"),
                   lambda path: load_config(path).validate())
