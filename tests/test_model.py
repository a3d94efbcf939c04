"""Encoder/projector stack: init statistics, forward semantics, purity."""
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import contract, rng_for

import trimix
from trimix import oracle
from trimix.errors import ContractError, DimensionError
from trimix.model import Arch, ModelParams, encode, forward, init_params
from trimix.tensor import Tape, Tensor, backward
from trimix.train import AdamState, Checkpoint, save_checkpoint

# input width, encoder, projector
ARCHS = {
    "default": (256, (128, 64), (64, 64, 32)),  # the shipped config, 16x16 inputs
    "pretrain_wide": (784, (512, 256), (256, 256, 128)),
    "gradcheck_small": (256, (16, 8), (8, 8, 8)),
}


class TestArch:
    def test_param_count_formula(self):
        arch = Arch(input_width=4, encoder=(8, 8), projector=(4,))
        encoder_count = sum(math.prod(shape) for name, shape in arch.param_shapes()
                            if name.startswith("encoder."))
        assert encoder_count == 4 * 8 + 8 + 8 * 8 + 8 == 112
        assert arch.param_count() == 112 + 8 * 4 + 4

    def test_default_shape_chain(self):
        arch = Arch(input_width=256)
        assert arch.param_shapes() == [
            ("encoder.0.weight", (256, 128)), ("encoder.0.bias", (128,)),
            ("encoder.1.weight", (128, 64)), ("encoder.1.bias", (64,)),
            ("projector.0.weight", (64, 64)), ("projector.0.bias", (64,)),
            ("projector.1.weight", (64, 64)), ("projector.1.bias", (64,)),
            ("projector.2.weight", (64, 32)), ("projector.2.bias", (32,)),
        ]
        assert arch.representation_width == 64

    def test_bad_widths_rejected(self):
        with pytest.raises(ContractError):
            Arch(input_width=0)
        with pytest.raises(ContractError):
            Arch(input_width=4, encoder=())
        with pytest.raises(ContractError):
            Arch(input_width=4, activation="tanh")

    def test_round_trip_dict(self):
        arch = Arch(input_width=9, encoder=(5,), projector=(4, 3), activation="identity")
        assert Arch.from_dict(arch.to_dict()) == arch


class TestInit:
    def test_same_seed_bit_identical(self):
        arch = Arch(input_width=12, encoder=(6, 4), projector=(4,))
        a = init_params(arch, seed=99)
        b = init_params(arch, seed=99)
        for ta, tb in zip(a.flat, b.flat):
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        arch = Arch(input_width=12, encoder=(6,), projector=(4,))
        a = init_params(arch, seed=1)
        b = init_params(arch, seed=2)
        assert not np.array_equal(a.flat[0].data, b.flat[0].data)

    def test_biases_zero(self):
        params = init_params(Arch(input_width=8), seed=5)
        for bias in params.flat[1::2]:
            assert np.array_equal(bias.data, np.zeros_like(bias.data))

    def test_weight_spread_matches_uniform_moment(self):
        arch = Arch(input_width=256, encoder=(256,), projector=(4,))
        w = init_params(arch, seed=6).flat[0].data
        s = np.sqrt(6.0 / (256 + 256))
        expected = s / np.sqrt(3.0)
        assert abs(w.std() - expected) / expected < 0.2
        assert np.abs(w).max() <= s


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        arch = Arch(input_width=5, encoder=(4,), projector=(3,))
        params = init_params(arch, seed=0)
        for t in params.flat:
            t.data[...] = 0.0
        out = forward(Tensor(rng_for(30).normal(size=(6, 5))), params)
        assert not out.y.data.any() and not out.z.data.any()

    def test_identity_single_layer(self):
        arch = Arch(input_width=4, encoder=(4,), projector=(4,))
        params = init_params(arch, seed=0)
        for w, b in zip(params.flat[0::2], params.flat[1::2]):
            w.data[...] = np.eye(4)
            b.data[...] = 0.0
        x = rng_for(31).normal(size=(6, 4))
        out = forward(Tensor(x), params)
        np.testing.assert_array_equal(out.y.data, x)
        np.testing.assert_array_equal(out.z.data, x)

    def test_gradient_of_embedding_sum(self):
        arch = Arch(input_width=6, encoder=(5,), projector=(4,))
        params = init_params(arch, seed=7)
        x = rng_for(32).normal(size=(4, 6))
        tape = Tape()
        attached = params.attach(tape)
        grads = backward(contract(forward(Tensor(x), attached).z))
        fd = oracle.finite_diff(
            lambda: contract(forward(Tensor(x), params).z).item(),
            [params.flat[0].data],
        )
        assert oracle.max_relative_error(grads[0], fd[0]) < 1e-5

    def test_no_cross_sample_interaction(self):
        arch = Arch(input_width=7, encoder=(6, 5), projector=(4,))
        params = init_params(arch, seed=8)
        rng = rng_for(33)
        x1, x2 = rng.normal(size=(4, 7)), rng.normal(size=(6, 7))
        both = forward(Tensor(np.concatenate([x1, x2])), params)
        top = forward(Tensor(x1), params)
        bottom = forward(Tensor(x2), params)
        np.testing.assert_array_equal(both.y.data, np.concatenate([top.y.data, bottom.y.data]))
        np.testing.assert_array_equal(both.z.data, np.concatenate([top.z.data, bottom.z.data]))

    def test_deterministic_and_pure(self):
        arch = Arch(input_width=5, encoder=(4,), projector=(3,))
        params = init_params(arch, seed=9)
        x = rng_for(34).normal(size=(4, 5))
        before = [t.data.copy() for t in params.flat]
        a = forward(Tensor(x), params)
        b = forward(Tensor(x), params)
        assert np.array_equal(a.z.data, b.z.data)
        for t, orig in zip(params.flat, before):
            assert np.array_equal(t.data, orig)

    def test_width_mismatch(self):
        params = init_params(Arch(input_width=5, encoder=(4,), projector=(3,)), seed=1)
        with pytest.raises(DimensionError, match="width"):
            forward(Tensor(np.ones((2, 7))), params)

    def test_encode_is_forward_y_without_the_projector(self):
        arch = Arch(input_width=5, encoder=(4, 3), projector=(3, 2))
        params = init_params(arch, seed=10)
        x = Tensor(rng_for(35).normal(size=(6, 5)))
        tape = Tape()
        y = encode(x, params.attach(tape))
        np.testing.assert_array_equal(y.data, forward(x, params).y.data)
        assert [n.kind for n in tape.nodes if n.kind != "leaf"] == ["affine", "relu", "affine"]

    def test_only_the_full_arch_is_a_parameter_set(self):
        arch = Arch(input_width=4, encoder=(3,), projector=(2,))
        params = init_params(arch, seed=11)
        for count in (0, 2, 3, 5):  # 2 is the encoder alone; the arch has 4
            with pytest.raises(ContractError, match=f"^model params: {count} tensors for an arch of 4$"):
                ModelParams(arch, (params.flat * 2)[:count])

    def test_attach_shares_storage(self):
        params = init_params(Arch(input_width=3, encoder=(2,), projector=(2,)), seed=2)
        attached = params.attach(Tape())
        attached.flat[0].data[0, 0] = 123.0
        assert params.flat[0].data[0, 0] == 123.0

    def test_names_align_with_tensors(self):
        params = init_params(Arch(input_width=3, encoder=(2, 2), projector=(2,)), seed=3)
        names = params.names()
        assert len(names) == len(params.flat)
        assert names[0] == "encoder.0.weight"
        assert names[-1] == "projector.0.bias"


class TestParamTable:
    """`Arch.param_shapes()` names, shapes and orders the parameters for
    init, checkpoints and `encode` alike."""

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_table_matches_init(self, name):
        arch = Arch(*ARCHS[name])
        params = init_params(arch, seed=0)
        assert arch.param_shapes() == [(n, t.data.shape) for n, t in zip(params.names(), params.flat)]
        assert len(params.names()) == len(params.flat)
        assert arch.param_count() == sum(t.data.size for t in params.flat)

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_table_matches_checkpoint_index(self, name, tmp_path):
        arch = Arch(*ARCHS[name])
        params = init_params(arch, seed=0)
        path = str(tmp_path / "c.tmx")
        save_checkpoint(path, Checkpoint(params=params, adam=AdamState.for_params(params), epoch=0))
        with open(path, "rb") as f:
            raw = f.read()
        meta = json.loads(raw[12:12 + int.from_bytes(raw[8:12], "little")])
        index = [(e["name"][len("param:"):], tuple(e["shape"]))
                 for e in meta["arrays"] if e["name"].startswith("param:")]
        assert index == arch.param_shapes()

    @pytest.mark.parametrize("name", sorted(ARCHS))
    def test_encoder_prefix_encodes_to_forward_y(self, name):
        arch = Arch(*ARCHS[name])
        params = init_params(arch, seed=1)
        x = Tensor(rng_for(36).uniform(size=(8, arch.input_width)))
        assert encode(x, params).data.tobytes() == forward(x, params).y.data.tobytes()


def test_model_params_copy_is_deep():
    params = init_params(Arch(input_width=3, encoder=(2,), projector=(2,)), seed=4)
    clone = params.copy()
    clone.flat[0].data[0, 0] = -999.0
    assert params.flat[0].data[0, 0] != -999.0
    assert isinstance(clone, ModelParams)


# Runs in a fresh interpreter so the BLAS thread count is set before numpy
# loads.  Prints one line per output that differs; silent when all hold.
_STACKED_PASS = r"""
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from trimix.model import Arch, forward, init_params
from trimix.tensor import Tape, Tensor, add, apply_op, backward, rows

ARCHS = {  # input width, encoder, projector
    "default": (256, (128, 64), (64, 64, 32)),  # the shipped config, 16x16 inputs
    "pretrain_wide": (784, (512, 256), (256, 256, 128)),
    "gradcheck_small": (256, (16, 8), (8, 8, 8)),
    # OpenBLAS 0.3.31 rounds rows of a 512x512 product at B=2 differently
    # inside a 6-row stack
    "narrow_head": (784, (512, 512), (3,)),
}


class Recording(ThreadPoolExecutor):
    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


def contract(t, r):
    return apply_op("contract", (t,), np.array([float((t.data * r).sum())]),
                    lambda g: (float(g[0]) * r,))


submits = {}
with Recording(max_workers=1) as worker:
    for name, (width, enc, proj) in ARCHS.items():
        params = init_params(Arch(width, enc, proj), seed=0)
        for b in (2, 8, 64, 256):
            rng = np.random.default_rng(b)
            xs = [Tensor(rng.uniform(size=(b, width))) for _ in range(3)]
            rs = [rng.normal(size=(b, proj[-1])) for _ in range(3)]
            runs = []
            worker.submits = 0
            for stacked, on in ((False, None), (True, None), (True, worker)):
                tape = Tape(on)
                attached = params.attach(tape)
                if stacked:
                    stack = Tensor(np.concatenate([x.data for x in xs]))
                    z = forward(stack, attached, (0, b, 2 * b, 3 * b)).z
                    zs = [rows(z, lo, lo + b) for lo in range(0, 3 * b, b)]
                else:
                    zs = [forward(x, attached).z for x in xs]
                s0, s1, s2 = (contract(zi, r) for zi, r in zip(zs, rs))
                grads = backward(add(add(s0, s1), s2))
                runs.append([zi.data for zi in zs] + grads)
            submits[f"{name} B={b}"] = worker.submits
            for run, how in zip(runs[1:], ("without a worker", "with a worker")):
                for i, (a, c) in enumerate(zip(runs[0], run)):
                    if a.shape != c.shape or a.tobytes() != c.tobytes():
                        print(f"{name} B={b} {how}: output {i} differs")
print(json.dumps(submits))
"""


class TestStackedPass:
    """One stacked pass of three batches, split by `rows`, gives the bytes
    of one pass per batch: embeddings and every parameter gradient, with
    and without a worker on the tape.  The worker takes only large block
    products: the wide archs' at B=256, never the shipped arch's at
    B <= 64 or the gradcheck arch's."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bit_identical_to_one_pass_per_batch(self, threads):
        src = str(pathlib.Path(trimix.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _STACKED_PASS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        *diffs, last = done.stdout.splitlines()
        assert diffs == [], f"OPENBLAS_NUM_THREADS={threads}:\n{done.stdout}"
        submits = json.loads(last)
        assert submits["pretrain_wide B=256"] > 0 and submits["narrow_head B=256"] > 0, submits
        for b in (2, 8, 64, 256):
            assert submits[f"gradcheck_small B={b}"] == 0, submits
            if b <= 64:
                assert submits[f"default B={b}"] == 0, submits
