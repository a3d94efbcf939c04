"""Standardization, correlation matrices, and the row softmax."""
import numpy as np
import pytest
from conftest import contract, op_gradcheck, rng_for

from trimix import oracle
from trimix.errors import ContractError, DegenerateFeatureError, DimensionError
from trimix.stats import STD_FLOOR, cross_correlation, row_softmax, standardize
from trimix.tensor import Tape, Tensor


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(Tensor([[1.0], [3.0]]), "batch")
        np.testing.assert_array_equal(out.data, [[-1.0], [1.0]])

    def test_idempotent(self):
        z = rng_for(0).normal(size=(16, 8))
        once = standardize(Tensor(z), "batch").data
        twice = standardize(Tensor(once), "batch").data
        assert np.abs(twice - once).max() < 1e-12

    def test_constant_column_is_hard_error(self):
        z = rng_for(1).normal(size=(6, 4))
        z[:, 2] = 3.14
        with pytest.raises(DegenerateFeatureError, match="feature 2"):
            standardize(Tensor(z), "batch")

    def test_constant_row_named_on_feature_axis(self):
        z = rng_for(2).normal(size=(4, 6))
        z[1, :] = -1.0
        with pytest.raises(DegenerateFeatureError, match="sample 1"):
            standardize(Tensor(z), "feature")

    def test_short_axis_rejected(self):
        with pytest.raises(ContractError, match="at least 2"):
            standardize(Tensor(np.ones((1, 4))), "batch")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ContractError):
            standardize(Tensor(np.ones((4, 4))), "rows")

    @pytest.mark.parametrize("axis", ["batch", "feature"])
    def test_moments_invariant(self, axis):
        ax = 0 if axis == "batch" else 1
        for case in range(60):
            z = rng_for(10, case).normal(size=(12, 7)) * 3.0 + 1.5
            out = standardize(Tensor(z), axis).data
            assert np.abs(out.mean(axis=ax)).max() < 1e-10
            assert np.abs(out.std(axis=ax) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("axis", ["batch", "feature"])
    def test_gradient_check(self, axis):
        for case in range(50):
            rng = rng_for(11, case)
            z = rng.normal(size=(int(rng.integers(3, 9)), int(rng.integers(3, 9))))
            op_gradcheck(
                lambda ts: contract(standardize(ts[0], axis)),
                [z],
                seed_note=f"standardize/{axis} case {case}",
            )


class TestCrossCorrelation:
    def test_self_correlation_has_unit_diagonal(self):
        z = standardize(Tensor(rng_for(20).normal(size=(10, 6))), "batch")
        c = cross_correlation(z, z, "features")
        assert np.abs(np.diagonal(c.data) - 1.0).max() < 1e-12

    def test_orthogonal_columns_give_zero_off_diagonal(self):
        z = standardize(Tensor([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]), "batch")
        c = cross_correlation(z, z, "features").data
        assert abs(c[0, 1]) < 1e-12 and abs(c[1, 0]) < 1e-12

    def test_matches_explicit_denominator_oracle(self):
        rng = rng_for(21)
        z = standardize(Tensor(rng.normal(size=(8, 16))), "batch").data
        z2 = standardize(Tensor(rng.normal(size=(8, 16))), "batch").data
        fast = cross_correlation(Tensor(z), Tensor(z2), "features").data
        slow = oracle.naive_correlation(z, z2, "features")
        assert np.abs(fast - slow).max() < 1e-10

    def test_samples_mode_matches_oracle_on_row_normalized_inputs(self):
        rng = rng_for(22)
        z = standardize(Tensor(rng.normal(size=(8, 16))), "feature").data
        z2 = standardize(Tensor(rng.normal(size=(8, 16))), "feature").data
        fast = cross_correlation(Tensor(z), Tensor(z2), "samples").data
        slow = oracle.naive_correlation(z, z2, "samples")
        assert np.abs(fast - slow).max() < 1e-10

    def test_entries_bounded_on_normalized_inputs(self):
        for case in range(40):
            rng = rng_for(23, case)
            b, d = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            mode = "features" if case % 2 == 0 else "samples"
            axis = "batch" if mode == "features" else "feature"
            z = standardize(Tensor(rng.normal(size=(b, d))), axis)
            z2 = standardize(Tensor(rng.normal(size=(b, d))), axis)
            c = cross_correlation(z, z2, mode).data
            assert np.abs(c).max() <= 1.0 + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cross_correlation(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 5))), "features")

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            cross_correlation(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 3))), "columns")

    @pytest.mark.parametrize("mode", ["features", "samples"])
    def test_gradient_check(self, mode):
        for case in range(50):
            rng = rng_for(24, case)
            b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            arrays = [rng.normal(size=(b, d)), rng.normal(size=(b, d))]
            op_gradcheck(
                lambda ts: contract(cross_correlation(ts[0], ts[1], mode)),
                arrays,
                seed_note=f"cross_correlation/{mode} case {case}",
            )


class TestRowSoftmax:
    def test_constant_row_is_uniform(self):
        out = row_softmax(Tensor(np.full((3, 5), 2.7)), tau=1.3).data
        np.testing.assert_allclose(out, 1.0 / 5.0, atol=1e-12)

    def test_closed_form_two_entries(self):
        out = row_softmax(Tensor([[2.0, 0.0]]), tau=2.0).data
        e = np.e
        np.testing.assert_allclose(out, [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-12)
        np.testing.assert_allclose(out, [[0.731059, 0.268941]], atol=1e-6)

    def test_small_temperature_sharpens(self):
        out = row_softmax(Tensor([[0.9, 0.1, 0.3]]), tau=0.01).data
        assert out[0, 0] > 0.999

    def test_non_positive_tau_rejected(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ContractError, match="positive"):
                row_softmax(Tensor(np.ones((2, 2))), tau)

    def test_rows_are_distributions(self):
        for case in range(1000):
            rng = rng_for(25, case)
            b = int(rng.integers(2, 10))
            m = rng.normal(size=(b, b)) * 5.0
            out = row_softmax(Tensor(m), tau=float(rng.uniform(0.1, 4.0))).data
            assert (out >= 0).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_gradient_check(self):
        for case in range(50):
            rng = rng_for(26, case)
            b = int(rng.integers(2, 9))
            op_gradcheck(
                lambda ts: contract(row_softmax(ts[0], tau=2.0)),
                [rng.normal(size=(b, b))],
                seed_note=f"row_softmax case {case}",
            )


def _mean_formula_standardize(z, ax):
    """standardize and its gradient written with ndarray.mean: the
    reference the tape op must equal byte for byte."""
    centered = z - z.mean(axis=ax, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=ax, keepdims=True))
    y = centered / std

    def grad(g):
        return (g - g.mean(axis=ax, keepdims=True) - y * (g * y).mean(axis=ax, keepdims=True)) / std

    return y, grad


class TestSoftmaxMassBound:
    """On correlations in [-1, 1], no cell of a row_softmax(m, tau) row can
    hold more than e^(1/tau) / (e^(1/tau) + (B-1) e^(-1/tau)) of its mass;
    the ground truth asks for lambda and 1 - lambda."""

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("b", [8, 64])
    def test_bound_holds_and_is_reached(self, tau, b):
        bound = np.exp(1 / tau) / (np.exp(1 / tau) + (b - 1) * np.exp(-1 / tau))
        rng = rng_for(70, b)
        for _ in range(20):
            z = standardize(Tensor(rng.normal(size=(b, 16)) * rng.uniform(0.1, 10.0)), "feature")
            z2 = standardize(Tensor(rng.normal(size=(b, 16))), "feature")
            m = cross_correlation(z, z2, "samples").data
            assert np.abs(m).max() <= 1.0 + 1e-12
            assert row_softmax(Tensor(m), tau).data.max() <= bound * (1 + 1e-12)
        # +1 on the diagonal, -1 elsewhere: every diagonal cell at the bound
        extreme = row_softmax(Tensor(2.0 * np.eye(b) - 1.0), tau).data
        np.testing.assert_allclose(extreme.diagonal(), bound, rtol=1e-12)
        if tau == 2.0 and b == 64:
            assert 0.040 < bound < 0.042  # the default run's 4.1%


class TestExactness:
    """The tape ops compute ndarray.mean/sum/max's arithmetic: same bytes."""

    @pytest.mark.parametrize("axis", ["batch", "feature"])
    def test_standardize_matches_the_mean_formula(self, axis):
        ax = 0 if axis == "batch" else 1
        shapes = [(int(n), int(m)) for n, m in rng_for(30).integers(2, 40, size=(20, 2))]
        # a reduced slice of more than 8,192 values, on each axis
        shapes += [(8200, 3), (3, 8200)] if axis == "batch" else [(3, 8200), (8200, 3)]
        for case, shape in enumerate(shapes):
            rng = rng_for(31, case)
            z = rng.normal(size=shape) * rng.uniform(0.1, 10.0) + rng.normal()
            if case % 4 == 3:  # one constant slice: an error naming it
                idx = int(rng.integers(0, shape[1 - ax]))
                if ax == 0:
                    z[:, idx] = 2.5
                else:
                    z[idx, :] = 2.5
                name = "feature" if ax == 0 else "sample"
                with pytest.raises(DegenerateFeatureError, match=rf"{name} {idx} has"):
                    standardize(Tensor(z), axis)
                continue
            y_want, grad_want = _mean_formula_standardize(z, ax)
            tape = Tape()
            out = standardize(tape.leaf(Tensor(z)), axis)
            assert out.data.tobytes() == y_want.tobytes(), (axis, shape)
            g = rng.normal(size=shape)
            (grad,) = tape.nodes[out.node].rule(g)
            assert grad.tobytes() == grad_want(g).tobytes(), (axis, shape)

    def test_row_softmax_matches_the_method_formula(self):
        for case in range(20):
            rng = rng_for(32, case)
            b = int(rng.integers(2, 40))
            m, tau = rng.normal(size=(b, b)) * 4.0, float(rng.uniform(0.1, 4.0))
            scaled = m / tau
            scaled = scaled - scaled.max(axis=1, keepdims=True)
            e = np.exp(scaled)
            s = e / e.sum(axis=1, keepdims=True)
            tape = Tape()
            out = row_softmax(tape.leaf(Tensor(m)), tau)
            assert out.data.tobytes() == s.tobytes()
            g = rng.normal(size=(b, b))
            (grad,) = tape.nodes[out.node].rule(g)
            assert grad.tobytes() == ((s * (g - (g * s).sum(axis=1, keepdims=True))) / tau).tobytes()
