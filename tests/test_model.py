"""Encoder/projector stack: init statistics, forward semantics, purity."""
import numpy as np
import pytest
from conftest import contract, rng_for

from trimix import oracle
from trimix.errors import ContractError, DimensionError
from trimix.model import Arch, ModelParams, encode, forward, init_params
from trimix.tensor import Tape, Tensor, backward


class TestArch:
    def test_param_count_formula(self):
        arch = Arch(input_width=4, encoder=(8, 8), projector=(4,))
        encoder_count = sum(din * dout + dout for din, dout in arch.encoder_dims())
        assert encoder_count == 4 * 8 + 8 + 8 * 8 + 8 == 112
        assert arch.param_count() == 112 + 8 * 4 + 4

    def test_default_shape_chain(self):
        arch = Arch(input_width=256)
        assert arch.encoder_dims() == [(256, 128), (128, 64)]
        assert arch.projector_dims() == [(64, 64), (64, 64), (64, 32)]
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
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        arch = Arch(input_width=12, encoder=(6,), projector=(4,))
        a = init_params(arch, seed=1)
        b = init_params(arch, seed=2)
        assert not np.array_equal(a.tensors()[0].data, b.tensors()[0].data)

    def test_biases_zero(self):
        params = init_params(Arch(input_width=8), seed=5)
        for _, bias in params.encoder_layers + params.projector_layers:
            assert np.array_equal(bias.data, np.zeros_like(bias.data))

    def test_weight_spread_matches_uniform_moment(self):
        arch = Arch(input_width=256, encoder=(256,), projector=(4,))
        w = init_params(arch, seed=6).encoder_layers[0][0].data
        s = np.sqrt(6.0 / (256 + 256))
        expected = s / np.sqrt(3.0)
        assert abs(w.std() - expected) / expected < 0.2
        assert np.abs(w).max() <= s


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        arch = Arch(input_width=5, encoder=(4,), projector=(3,))
        params = init_params(arch, seed=0)
        for w, b in params.encoder_layers + params.projector_layers:
            w.data[...] = 0.0
            b.data[...] = 0.0
        out = forward(Tensor(rng_for(30).normal(size=(6, 5))), params)
        assert not out.y.data.any() and not out.z.data.any()

    def test_identity_single_layer(self):
        arch = Arch(input_width=4, encoder=(4,), projector=(4,))
        params = init_params(arch, seed=0)
        for w, b in params.encoder_layers + params.projector_layers:
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
        w0 = attached.encoder_layers[0][0]
        fd = oracle.finite_diff(
            lambda: contract(forward(Tensor(x), params).z).item(),
            [params.encoder_layers[0][0].data],
        )
        assert oracle.max_relative_error(grads[w0.node].data, fd[0]) < 1e-5

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
        before = [t.data.copy() for t in params.tensors()]
        a = forward(Tensor(x), params)
        b = forward(Tensor(x), params)
        assert np.array_equal(a.z.data, b.z.data)
        for t, orig in zip(params.tensors(), before):
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
        encoder_only = ModelParams(arch, params.attach(tape).encoder_layers)
        y = encode(x, encoder_only)
        np.testing.assert_array_equal(y.data, forward(x, params).y.data)
        assert [n.kind for n in tape.nodes if n.kind != "leaf"] == ["affine", "relu", "affine"]

    def test_attach_shares_storage(self):
        params = init_params(Arch(input_width=3, encoder=(2,), projector=(2,)), seed=2)
        attached = params.attach(Tape())
        attached.encoder_layers[0][0].data[0, 0] = 123.0
        assert params.encoder_layers[0][0].data[0, 0] == 123.0

    def test_names_align_with_tensors(self):
        params = init_params(Arch(input_width=3, encoder=(2, 2), projector=(2,)), seed=3)
        names = params.names()
        assert len(names) == len(params.tensors())
        assert names[0] == "encoder.0.weight"
        assert names[-1] == "projector.0.bias"


def test_model_params_copy_is_deep():
    params = init_params(Arch(input_width=3, encoder=(2,), projector=(2,)), seed=4)
    clone = params.copy()
    clone.encoder_layers[0][0].data[0, 0] = -999.0
    assert params.encoder_layers[0][0].data[0, 0] != -999.0
    assert isinstance(clone, ModelParams)
