"""Optimizer, training loop determinism, and checkpoint persistence."""
import json
import math
import os
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import FailingWorker

from trimix import train
from trimix.config import TriMixConfig
from trimix.data import AugmentPolicy, derived_rng, synthetic_blobs, two_views
from trimix.errors import ArchMismatchError, ContractError, FormatError
from trimix.model import Arch, ModelParams, init_params
from trimix.oracle import reference_adam
from trimix.streams import raw_words
from trimix.train import (
    AdamState,
    Checkpoint,
    adam_step,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    write_metrics,
)


def scalar_params(theta: float) -> ModelParams:
    arch = Arch(input_width=1, encoder=(1,), projector=(1,))
    params = init_params(arch, seed=0)
    for t in params.flat:
        t.data[...] = theta
    return params


def tiny_cfg(**overrides) -> TriMixConfig:
    base = dict(
        encoder_widths=(10, 6),
        projector_widths=(6, 6, 4),
        batch_size=8,
        epochs=2,
        synthetic_train=48,
        synthetic_test=16,
        synthetic_size=8,
        save_every=0,
        seed=21,
    )
    base.update(overrides)
    return TriMixConfig(**base).validate()


# the `pretrain_wide` benchmark arch: 784->512->256, then 256->256->128
WIDE_ARCH = Arch(input_width=784, encoder=(512, 256), projector=(256, 256, 128))
SMALL_ARCH = Arch(input_width=12, encoder=(6, 4), projector=(4, 4, 2))
# its first weight holds more than half of its 204 values
TALL_ARCH = Arch(input_width=20, encoder=(6, 4), projector=(4, 4, 2))


class TestAdam:
    def test_zero_gradients_fix_parameters(self):
        params = scalar_params(1.25)
        state = AdamState.for_params(params)
        before = [t.data.copy() for t in params.flat]
        adam_step(params, [np.zeros_like(t.data) for t in params.flat], state, 0.1, 0.0)
        for t, orig in zip(params.flat, before):
            assert np.array_equal(t.data, orig)

    def test_first_step_closed_form(self):
        params = scalar_params(0.0)
        state = AdamState.for_params(params)
        g = 0.37
        grads = [np.full_like(t.data, g) for t in params.flat]
        adam_step(params, grads, state, 1e-3, 0.0)
        expected = -1e-3 * g / (abs(g) + train.EPS)
        for t in params.flat:
            assert np.abs(t.data - expected).max() < 1e-6

    def test_quadratic_trajectory_matches_scalar_oracle(self):
        params = scalar_params(1.0)
        state = AdamState.for_params(params)
        weight = params.flat[0]
        seen = []
        for _ in range(10):
            grads = [np.zeros_like(t.data) for t in params.flat]
            grads[0][...] = 2.0 * weight.data  # d/dtheta theta^2
            adam_step(params, grads, state, 0.1, 0.0)
            seen.append(float(weight.data[0, 0]))
        expected = reference_adam(lambda t: 2.0 * t, 1.0, lr=0.1, steps=10)
        np.testing.assert_allclose(seen, expected, atol=1e-12, rtol=0)

    def test_second_moment_stays_non_negative(self):
        params = scalar_params(0.5)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(0)
        for _ in range(25):
            grads = [rng.normal(size=t.data.shape) for t in params.flat]
            adam_step(params, grads, state, 0.01, 1e-6)
            assert all((v >= 0).all() for v in state.v)
        assert state.t == 25

    def test_gradient_count_mismatch_rejected(self):
        params = scalar_params(0.5)
        state = AdamState.for_params(params)
        with pytest.raises(ContractError, match="gradients"):
            adam_step(params, [np.zeros((1, 1))], state, 0.01, 0.0)

    def test_rejected_step_writes_nothing(self):
        params = init_params(SMALL_ARCH, seed=2)
        state = AdamState.for_params(params)
        rng = np.random.default_rng(3)
        adam_step(params, [rng.normal(size=t.data.shape) for t in params.flat], state, 0.01, 1e-4)
        before = ([t.data.copy() for t in params.flat],
                  [a.copy() for a in state.m], [a.copy() for a in state.v])
        grads = [rng.normal(size=t.data.shape) for t in params.flat]
        grads[-1] = np.zeros(grads[-1].size + 1)
        with pytest.raises(ContractError, match=f"index {len(grads) - 1}"):
            adam_step(params, grads, state, 0.01, 1e-4)
        assert state.t == 1
        after = ([t.data for t in params.flat], state.m, state.v)
        for old, new in zip(before, after):
            assert all(np.array_equal(a, b) for a, b in zip(old, new))

    @pytest.mark.parametrize("what", ["parameter", "first moment", "second moment"])
    def test_arrays_a_flat_view_cannot_update_are_rejected(self, what):
        params = init_params(SMALL_ARCH, seed=2)
        state = AdamState.for_params(params)
        grads = [np.ones_like(t.data) for t in params.flat]
        if what == "parameter":
            w = params.flat[0]
            w.data = np.asfortranarray(w.data)
        else:
            moments = state.m if what == "first moment" else state.v
            moments[1].flags.writeable = False
        with pytest.raises(ContractError, match=what):
            adam_step(params, grads, state, 0.01, 0.0)
        assert state.t == 0
        assert all((t.data == t0.data).all() for t, t0 in
                   zip(params.flat, init_params(SMALL_ARCH, seed=2).flat))

    @pytest.mark.parametrize("weight_decay", [1e-3, 0.0])
    def test_blocked_update_equals_whole_array_formula(self, weight_decay):
        """Five steps on a parameter of 2.5 blocks match the whole-array
        formula bit for bit, and the caller's gradients are left as given."""
        size = train._ADAM_BLOCK * 5 // 2
        arch = Arch(input_width=size // 4, encoder=(4,), projector=(3,))
        params = init_params(arch, seed=5)
        state = AdamState.for_params(params)
        ref_p = [t.data.copy() for t in params.flat]
        ref_m = [np.zeros_like(p) for p in ref_p]
        ref_v = [np.zeros_like(p) for p in ref_p]
        b1, b2, eps = train.BETA1, train.BETA2, train.EPS
        rng = np.random.default_rng(6)
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in ref_p]
            given = [g.copy() for g in grads]
            adam_step(params, grads, state, 3e-3, weight_decay)
            assert all(g.tobytes() == g0.tobytes() for g, g0 in zip(grads, given))
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(given):
                if weight_decay:
                    g = g + weight_decay * ref_p[i]
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
                ref_p[i] -= 3e-3 * (ref_m[i] / bc1) / (np.sqrt(ref_v[i] / bc2) + eps)
            for got, want in zip((params.flat, state.m, state.v), (ref_p, ref_m, ref_v)):
                for a, b in zip(got, want):
                    a = getattr(a, "data", a)
                    assert a.tobytes() == b.tobytes()
        assert params.flat[0].data.size == size

    def test_traced_peak_stays_under_a_megabyte(self):
        params = init_params(WIDE_ARCH, seed=1)
        state = AdamState.for_params(params)
        grads = [np.full_like(t.data, 0.5) for t in params.flat]
        tracemalloc.start()
        try:
            adam_step(params, grads, state, 1e-3, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"adam_step traced peak {peak / 1e6:.2f} MB"


class _CountingWorker(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


def _random_state(arch: Arch, seed: int) -> tuple:
    params = init_params(arch, seed=seed)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(seed)
    for a in state.m + state.v:
        a[...] = rng.random(a.shape)
    return params, state


def _arrays(params: ModelParams, state: AdamState) -> list:
    return [t.data for t in params.flat] + state.m + state.v


class TestAdamSplit:
    """With a worker, a large model's update is cut at half its values
    and the halves run at once; every byte equals the serial update."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("arch, block", [
        # the benchmark arch: the cut falls 360,448 values into its first
        # weight, which holds 58% of the model
        (WIDE_ARCH, None),
        (SMALL_ARCH, 7),  # 156 values: the cut falls at 78, the end of the second tensor
        (TALL_ARCH, 7),  # 204 values: the cut falls 105 values into the 120-value first weight
        (TALL_ARCH, 8),  # the cut falls at 104, a block boundary inside the first weight
        (Arch(input_width=3, encoder=(5, 4), projector=(4, 6)), 5),  # 94 values, none above half
    ])
    def test_split_update_equals_the_serial_update(self, monkeypatch, arch, block, weight_decay):
        monkeypatch.setattr(train, "_ADAM_SPLIT_VALUES", 0)
        if block is not None:
            monkeypatch.setattr(train, "_ADAM_BLOCK", block)
        serial, split = _random_state(arch, 4), _random_state(arch, 4)
        rng = np.random.default_rng(8)
        with _CountingWorker() as worker:
            for _ in range(5):
                grads = [rng.normal(size=t.data.shape) for t in serial[0].flat]
                given = [g.copy() for g in grads]
                adam_step(serial[0], grads, serial[1], 3e-3, weight_decay)
                adam_step(split[0], grads, split[1], 3e-3, weight_decay, worker=worker)
                assert all(g.tobytes() == g0.tobytes() for g, g0 in zip(grads, given))
                for a, b in zip(_arrays(*serial), _arrays(*split)):
                    assert a.tobytes() == b.tobytes()
        assert worker.submits == 5
        assert split[1].t == 5

    def test_the_shipped_config_stays_serial(self):
        params, state = _random_state(TriMixConfig().validate().arch_for(256), 4)
        assert params.arch.param_count() == 51_552 < train._ADAM_SPLIT_VALUES
        with _CountingWorker() as worker:
            adam_step(params, [np.ones_like(t.data) for t in params.flat], state, 1e-3, 0.0, worker=worker)
        assert worker.submits == 0

    def test_a_worker_error_is_raised_after_the_callers_half(self, monkeypatch):
        """The caller updates its half, waits for the failing worker, then
        raises its error; the worker's half is left as it was."""
        monkeypatch.setattr(train, "_ADAM_SPLIT_VALUES", 0)
        monkeypatch.setattr(train, "_ADAM_BLOCK", 7)
        params, state = _random_state(TALL_ARCH, 4)
        want, want_state = _random_state(TALL_ARCH, 4)
        grads = [np.random.default_rng(9).normal(size=t.data.shape) for t in params.flat]
        before = [a.copy() for a in _arrays(params, state)]
        adam_step(want, grads, want_state, 3e-3, 1e-3)
        worker = FailingWorker(good=0)
        try:
            with pytest.raises(MemoryError, match="worker out of memory"):
                adam_step(params, grads, state, 3e-3, 1e-3, worker=worker)
            assert worker.raised.is_set()
            assert len(worker.futures) == 1 and worker.futures[0].done()
        finally:
            worker.join()
        # the caller's half is the first 105 values of the 120-value first weight
        for got, old, new in zip(_arrays(params, state), before, _arrays(want, want_state)):
            got, old, new = got.reshape(-1), old.reshape(-1), new.reshape(-1)
            head = 105 if got.size == 120 else 0
            assert got[:head].tobytes() == new[:head].tobytes()
            assert got[head:].tobytes() == old[head:].tobytes()

    def test_a_bad_gradient_with_a_worker_writes_nothing(self):
        params, state = _random_state(WIDE_ARCH, 4)
        before = [a.copy() for a in _arrays(params, state)]
        grads = [np.ones_like(t.data) for t in params.flat]
        grads[3] = np.ones(grads[3].size + 1)
        with _CountingWorker() as worker:
            with pytest.raises(ContractError, match="index 3"):
                adam_step(params, grads, state, 1e-3, 1e-6, worker=worker)
        assert worker.submits == 0 and state.t == 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(_arrays(params, state), before))

    def test_split_traced_peak_stays_under_two_threads_of_temporaries(self):
        """Each thread holds three block temporaries (768 KiB); measured
        peak 1.60 MB on the benchmark arch."""
        params = init_params(WIDE_ARCH, seed=1)
        state = AdamState.for_params(params)
        grads = [np.full_like(t.data, 0.5) for t in params.flat]
        with _CountingWorker() as worker:
            worker.submit(int).result()  # the thread starts outside the trace
            tracemalloc.start()
            try:
                adam_step(params, grads, state, 1e-3, 1e-6, worker=worker)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert worker.submits == 2
        assert peak < 1_700_000, f"split adam_step traced peak {peak / 1e6:.2f} MB"


class TestCheckpoint:
    def _checkpoint(self, seed=3, arch=SMALL_ARCH) -> Checkpoint:
        params = init_params(arch, seed=seed)
        adam = AdamState.for_params(params)
        adam.t = 17
        adam.m = [np.random.default_rng(1).normal(size=a.shape) for a in adam.m]
        return Checkpoint(params=params, adam=adam, epoch=5, config_text="seed=3\n")

    def test_round_trip_f64_bit_exact(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        ckpt = self._checkpoint()
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.params.flat, loaded.params.flat):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(ckpt.adam.m, loaded.adam.m):
            assert np.array_equal(a, b)
        assert loaded.epoch == 5 and loaded.adam.t == 17
        assert loaded.config_text == "seed=3\n"

    def test_corrupt_magic_names_offset_zero(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match="offset 0"):
            load_checkpoint(path)

    def test_truncated_arrays_rejected(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-11])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_streamed_save_traced_peak_stays_under_one_array(self, tmp_path):
        ckpt = self._checkpoint(arch=WIDE_ARCH)
        largest = max(t.data.nbytes for t in ckpt.params.flat)
        tracemalloc.start()
        try:
            save_checkpoint(str(tmp_path / "c.tmx"), ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest, f"save_checkpoint traced peak {peak / 1e6:.2f} MB"

    def test_load_traced_peak_stays_under_the_file_and_one_array(self, tmp_path):
        # the loaded arrays are the file less its header and metadata: a
        # 16.7 MB file loads at a 16.8 MB peak, well inside the margin of
        # its largest array (3.2 MB).  Reading the whole file, then copying
        # each array out of it, held about twice the file.
        path = str(tmp_path / "c.tmx")
        ckpt = self._checkpoint(arch=WIDE_ARCH)
        save_checkpoint(path, ckpt)
        bound = os.path.getsize(path) + max(t.data.nbytes for t in ckpt.params.flat)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"load_checkpoint traced peak {peak / 1e6:.2f} MB"

    @staticmethod
    def _with_first_shape(path: str, shape: list, keep_data: bool = True) -> None:
        """Rewrite the first array's shape in the metadata; without
        `keep_data` its bytes are dropped from the file too."""
        raw = open(path, "rb").read()
        end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:end])
        first = math.prod(meta["arrays"][0]["shape"]) * 8
        meta["arrays"][0]["shape"] = shape
        blob = json.dumps(meta).encode("utf-8")
        data = raw[end:] if keep_data else raw[end + first:]
        open(path, "wb").write(raw[:8] + len(blob).to_bytes(4, "little") + blob + data)

    def test_huge_array_in_metadata_is_truncated_not_allocated(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        self._with_first_shape(path, [2**40])  # 8 TiB of values
        with pytest.raises(FormatError, match="truncated array 'param:encoder.0.weight'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, keep_data", [
        ([0], True),  # the first array's bytes are left over at the end
        ([0, 5], False),  # every array is read; the arch expects another shape
        ([0, 2**62], False),  # zero values, but more bytes than numpy can address
    ])
    def test_zero_size_shape_in_metadata_rejected(self, tmp_path, shape, keep_data):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        self._with_first_shape(path, shape, keep_data)
        with pytest.raises((FormatError, ArchMismatchError)):
            load_checkpoint(path)

    def test_loaded_arrays_are_owned_writeable_float64(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        loaded = load_checkpoint(path)
        params = [t.data for t in loaded.params.flat]
        for a in params + loaded.adam.m + loaded.adam.v:
            assert a.dtype == np.float64
            assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous
        # a resumed run's first Adam step accepts them
        adam_step(loaded.params, [np.ones_like(p) for p in params], loaded.adam, 1e-3, 0.0)
        assert loaded.adam.t == 18

    def test_failed_save_leaves_no_temp_and_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint(seed=3))
        old = open(path, "rb").read()
        convert = np.ascontiguousarray
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("conversion failed")
            return convert(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", third_fails)
        with pytest.raises(MemoryError):
            save_checkpoint(path, self._checkpoint(seed=4))
        monkeypatch.undo()
        assert len(calls) == 3
        assert os.listdir(tmp_path) == ["c.tmx"]
        assert open(path, "rb").read() == old

    def test_resume_with_wrong_arch_rejected(self, tmp_path):
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, self._checkpoint())
        ckpt = load_checkpoint(path)
        cfg = tiny_cfg()  # different widths than the checkpoint arch
        ds = synthetic_blobs(cfg.synthetic_spec("train"))
        with pytest.raises(ArchMismatchError):
            pretrain(cfg, ds, resume=ckpt)

    def test_resume_with_no_epochs_left_rejected(self, tmp_path):
        cfg = tiny_cfg(epochs=2)
        ds = synthetic_blobs(cfg.synthetic_spec("train"))
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, pretrain(cfg, ds)[0])
        for epochs in (1, 2):
            with pytest.raises(ContractError, match=f"at epoch 2 and epochs={epochs}: no epochs left"):
                pretrain(tiny_cfg(epochs=epochs), ds, out_dir=str(tmp_path / "out"), resume=load_checkpoint(path))
        assert os.listdir(tmp_path) == ["c.tmx"]


class TestPretrain:
    def test_metrics_deterministic_across_runs(self, tmp_path):
        cfg = tiny_cfg()
        ds = synthetic_blobs(cfg.synthetic_spec("train"))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        pretrain(cfg, ds, out_dir=out_a)
        pretrain(cfg, ds, out_dir=out_b)
        csv_a = open(f"{out_a}/metrics.csv").read()
        csv_b = open(f"{out_b}/metrics.csv").read()
        assert csv_a == csv_b
        assert csv_a.splitlines()[0] == "step,epoch,lambda,l_bt_inv,l_bt_rr,l_vrt,l_con,total"

    def test_bt_only_total_equals_bt_term_but_logs_all_columns(self, tmp_path):
        cfg = tiny_cfg(beta=0.0, gamma=0.0, epochs=1)
        ds = synthetic_blobs(cfg.synthetic_spec("train"))
        _, rows = pretrain(cfg, ds)
        for row in rows:
            assert row["total"] == row["l_bt_inv"] + cfg.alpha * row["l_bt_rr"]
            assert row["l_vrt"] > 0.0 and row["l_con"] > 0.0

    def test_resume_matches_straight_run_bit_for_bit(self, tmp_path):
        cfg_straight = tiny_cfg(epochs=10)
        ds = synthetic_blobs(cfg_straight.synthetic_spec("train"))
        straight, rows_straight = pretrain(cfg_straight, ds)

        cfg_half = tiny_cfg(epochs=5)
        half, _ = pretrain(cfg_half, ds)
        path = str(tmp_path / "half.tmx")
        save_checkpoint(path, half)
        resumed, rows_resumed = pretrain(tiny_cfg(epochs=10), ds, resume=load_checkpoint(path))

        assert resumed.epoch == straight.epoch and resumed.adam.t == straight.adam.t
        for ours, theirs in ((resumed.params.flat, straight.params.flat),
                             (resumed.adam.m, straight.adam.m), (resumed.adam.v, straight.adam.v)):
            for a, b in zip(ours, theirs):
                assert getattr(a, "data", a).tobytes() == getattr(b, "data", b).tobytes()
        # the resumed run logs exactly the second half of the straight run's rows
        assert len(rows_resumed) == 5 * (48 // 8)
        assert rows_resumed == rows_straight[len(rows_straight) - len(rows_resumed):]

    def test_checkpoint_written_with_periodic_saves(self, tmp_path):
        cfg = tiny_cfg(epochs=2, save_every=1)
        ds = synthetic_blobs(cfg.synthetic_spec("train"))
        out = str(tmp_path / "run")
        ckpt, rows = pretrain(cfg, ds, out_dir=out)
        assert ckpt.epoch == 2
        assert (tmp_path / "run" / "checkpoint.tmx").exists()
        assert (tmp_path / "run" / "checkpoint_epoch0001.tmx").exists()
        assert len(rows) == 2 * (48 // 8)

    def test_lambda_column_is_drawn_uniformly_per_step(self, monkeypatch):
        made = []

        def counting(seed, prefix, rows, n):
            made.append(prefix)
            return raw_words(seed, prefix, rows, n)

        monkeypatch.setattr(train, "raw_words", counting)
        cfg = tiny_cfg()
        _, rows = pretrain(cfg, synthetic_blobs(cfg.synthetic_spec("train")))
        per_epoch = cfg.synthetic_train // cfg.batch_size
        keys = [(2, r["epoch"], r["step"] - (r["epoch"] - 1) * per_epoch) for r in rows]
        assert [r["lambda"] for r in rows] == [derived_rng(cfg.seed, *k).random() for k in keys]
        # one batch-wide draw per epoch, from the mixing-factor stream
        assert made == [(2, epoch) for epoch in range(1, cfg.epochs + 1)]

    def test_metrics_floats_round_trip(self, tmp_path):
        value = 0.0123456789012345678
        rows = [dict(step=0, epoch=1, **{"lambda": 1 / 3}, l_bt_inv=0.1, l_bt_rr=0.2,
                     l_vrt=value, l_con=0.4, total=0.5)]
        path = str(tmp_path / "m.csv")
        write_metrics(path, rows)
        line = open(path).read().splitlines()[1].split(",")
        assert float(line[2]) == 1 / 3
        assert float(line[5]) == value


def test_step_gradients_are_released_before_the_next_step(monkeypatch):
    """Step k's gradients are gone by the time step k+1's forward starts."""
    refs, alive_at_start = [], []
    orig_backward, orig_loss = train.backward, train.trimix_step_loss

    def spy_backward(loss):
        grads = orig_backward(loss)
        refs.append([weakref.ref(g) for g in grads])
        return grads

    def spy_loss(*args, **kwargs):
        if refs:
            alive_at_start.append(sum(r() is not None for r in refs[-1]))
        return orig_loss(*args, **kwargs)

    monkeypatch.setattr(train, "backward", spy_backward)
    monkeypatch.setattr(train, "trimix_step_loss", spy_loss)
    cfg = tiny_cfg(epochs=1)
    _, rows = pretrain(cfg, synthetic_blobs(cfg.synthetic_spec("train")))
    assert len(rows) == 6 and len(alive_at_start) == 5
    assert alive_at_start == [0] * 5


def test_benchmark_call_sites(monkeypatch):
    """perfbench times a step from `train.two_views` to `train.adam_step`,
    called through those module globals, and passes `labels=`."""
    calls = []

    def recorder(name, orig):
        def wrapped(*args, **kwargs):
            calls.append((name, "labels" in kwargs))
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(train, "two_views", recorder("two_views", train.two_views))
    monkeypatch.setattr(train, "adam_step", recorder("adam_step", train.adam_step))
    cfg = tiny_cfg(epochs=2)
    _, rows = pretrain(cfg, synthetic_blobs(cfg.synthetic_spec("train")))
    assert len(rows) == 12
    assert calls == [("two_views", True), ("adam_step", False)] * len(rows)

    ds = synthetic_blobs(cfg.synthetic_spec("test"))
    imgs, lbls = ds.images[:8], ds.labels[:8]
    assert two_views(imgs, AugmentPolicy(), 7, labels=lbls).labels is lbls
