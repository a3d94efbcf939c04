"""The naive reference implementations must be right by inspection;
these tests pin their trivial cases.  The batched finite-difference
evaluator of the objective is held to the scalar `finite_diff` over the
tape's own objective."""
import numpy as np
import pytest
from conftest import imported_names, rng_for

from trimix import oracle
from trimix.config import TriMixConfig
from trimix.data import ViewPair
from trimix.errors import ContractError, DegenerateFeatureError, NumericError
from trimix.model import init_params
from trimix.objective import trimix_step_loss
from trimix.oracle import (
    OracleReport,
    directional_diff,
    finite_diff,
    max_relative_error,
    naive_bt_terms,
    naive_correlation,
    naive_knn_predict,
    naive_mean_abs,
    reference_adam,
)


class TestNaiveCorrelation:
    def test_self_correlation_unit_diagonal(self):
        z = np.random.default_rng(0).normal(size=(6, 4))
        c = naive_correlation(z, z, "features")
        np.testing.assert_allclose(np.diagonal(c), 1.0, atol=1e-12)

    def test_hand_case_perfect_correlation(self):
        z = np.array([[1.0, 0.5], [-1.0, 0.5]])
        c = naive_correlation(z, z, "features")
        assert abs(c[0, 0] - 1.0) < 1e-15

    def test_zero_denominator_rejected(self):
        z = np.zeros((3, 2))
        z[:, 1] = 1.0
        with pytest.raises(DegenerateFeatureError, match="denominator"):
            naive_correlation(z, z, "features")

    def test_samples_mode_shape(self):
        z = np.random.default_rng(1).normal(size=(5, 7))
        assert naive_correlation(z, z, "samples").shape == (5, 5)

    def test_samples_are_features_of_the_transposes(self):
        rng = np.random.default_rng(2)
        z, z2 = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
        samples = naive_correlation(z, z2, "samples")
        assert samples.tobytes() == naive_correlation(z.T.copy(), z2.T.copy(), "features").tobytes()
        m, n = 3, 1
        num = sum(z[m, a] * z2[n, a] for a in range(7))
        den = np.sqrt(sum(z[m, a] ** 2 for a in range(7))) * np.sqrt(sum(z2[n, a] ** 2 for a in range(7)))
        assert abs(samples[m, n] - num / den) < 1e-15

    def test_zero_denominator_names_the_pair(self):
        z = np.ones((3, 2))
        z[1] = 0.0
        with pytest.raises(DegenerateFeatureError, match=r"sample pair \(0, 1\)"):
            naive_correlation(z, z, "samples")
        with pytest.raises(DegenerateFeatureError, match=r"feature pair \(0, 1\)"):
            naive_correlation(z.T, z.T, "features")
        with pytest.raises(ContractError, match="unknown mode"):
            naive_correlation(z, z, "rows")


def test_naive_bt_terms_trivial_cases():
    assert naive_bt_terms(np.eye(4)) == (0.0, 0.0)
    assert naive_bt_terms(np.ones((2, 2))) == (0.0, 2.0)


def test_naive_mean_abs():
    assert naive_mean_abs(np.ones((3, 3)), np.ones((3, 3))) == 0.0
    assert abs(naive_mean_abs(np.full((2, 2), 2.0), np.ones((2, 2))) - 1.0) < 1e-15


class TestFiniteDiff:
    def test_quadratic(self):
        theta = np.array([1.0, 2.0])
        grads = finite_diff(lambda: float((theta**2).sum()), [theta])
        np.testing.assert_allclose(grads[0], [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        theta = np.array([[0.3, -0.7]])
        grads = finite_diff(lambda: 42.0, [theta])
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-9)

    def test_restores_parameters(self):
        theta = np.array([1.0, 2.0, 3.0])
        before = theta.copy()
        finite_diff(lambda: float(theta.sum()), [theta])
        np.testing.assert_array_equal(theta, before)

    def test_directional_quadratic_restores_parameters(self):
        theta = np.array([1.0, 2.0])
        before = theta.copy()
        other = np.array([[3.0]])
        slope = directional_diff(
            lambda: float((theta**2).sum() + other[0, 0] ** 2), [theta, other], np.array([0.6, 0.0, 0.8])
        )
        assert abs(slope - (2.0 * 0.6 + 6.0 * 0.8)) < 1e-8
        np.testing.assert_array_equal(theta, before)
        assert other[0, 0] == 3.0


def test_max_relative_error_uses_unit_floor():
    assert max_relative_error(np.array([1e-9]), np.array([0.0])) == 1e-9
    assert abs(max_relative_error(np.array([200.0]), np.array([202.0])) - 2.0 / 202.0) < 1e-15


def test_naive_knn_trivial_vote():
    train = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.9]])
    labels = np.array([0, 1, 1])
    preds = naive_knn_predict(train, labels, np.array([[0.0, 2.0]]), k=3)
    assert preds[0] == 1


def test_reference_adam_first_step_direction():
    out = reference_adam(lambda t: 4.0, theta0=0.0, lr=0.1, steps=1)
    assert abs(out[0] - (-0.1)) < 1e-6  # ~ -lr * sign(g) at step 1


def test_report_pass_fail():
    good = OracleReport("case", 1e-12, 1e-10, seed=7)
    bad = OracleReport("case", 1e-8, 1e-10, seed=7)
    assert good.passed and not bad.passed
    assert "PASS" in good.describe() and "seed 7" in good.describe()
    assert "FAIL" in bad.describe()


def test_oracle_imports_none_of_the_code_it_certifies():
    imported = imported_names(oracle)
    certified = {f"trimix.{name}" for name in ("tensor", "stats", "objective", "model", "data", "streams")}
    assert not imported & certified, sorted(imported & certified)


class TestObjectiveFiniteDiff:
    """The batched evaluator against the scalar finite_diff over the tape's
    objective: 16-wide input, two-layer 8-wide encoder and projector (so
    the ReLU between layers is exercised), B=8, mixing factor LAM."""

    LAM = 0.3

    @staticmethod
    def setup_case(seed=0, **overrides):
        settings = dict(encoder_widths=(8, 8), projector_widths=(8, 8), batch_size=8)
        settings.update(overrides)
        cfg = TriMixConfig(**settings).validate()
        rng = rng_for(seed)
        views = ViewPair(
            x=rng.uniform(0.0, 1.0, size=(8, 16)),
            x_prime=rng.uniform(0.0, 1.0, size=(8, 16)),
        )
        return cfg, views, init_params(cfg.arch_for(16), seed=seed)

    @classmethod
    def batched(cls, cfg, views, params, h=1e-5):
        return oracle.objective_finite_diff(
            views.x, views.x_prime, [t.data for t in params.flat], cfg, cls.LAM, h=h,
        )

    @classmethod
    def step_total(cls, cfg, views, params):
        return trimix_step_loss(views, params, cfg, cls.LAM).total

    @pytest.mark.parametrize("overrides", [
        dict(placement="ZZ"),
        dict(placement="YY"),
        dict(placement="ZY"),
        dict(enable_feature_norm=False),
        dict(normalize_on=False, activation="identity"),
        dict(beta=0.0),
        dict(gamma=0.0),
    ], ids=["ZZ", "YY", "ZY", "no-feature-norm", "no-normalize-identity", "no-vrt", "no-con"])
    def test_matches_scalar_finite_diff(self, overrides):
        cfg, views, params = self.setup_case(seed=3, **overrides)
        value, grads = self.batched(cfg, views, params)
        total = self.step_total(cfg, views, params)
        assert abs(value - total) <= 1e-12 * abs(total)
        scalar = finite_diff(lambda: self.step_total(cfg, views, params),
                             [t.data for t in params.flat])
        assert [g.shape for g in grads] == [g.shape for g in scalar]
        err = max(max_relative_error(a, b) for a, b in zip(grads, scalar))
        assert err <= 1e-6, f"batched vs scalar finite differences differ by {err:.3e}"

    def test_param_list_must_fit_the_config(self):
        cfg, views, params = self.setup_case(seed=6)
        arrays = [t.data for t in params.flat]
        for bad in (arrays[:-2], arrays[:4], arrays + arrays[-2:]):
            with pytest.raises(ContractError, match=f"{len(bad)} arrays do not fit 2 encoder and 2 projector"):
                oracle.objective_finite_diff(views.x, views.x_prime, bad, cfg, self.LAM)

    def test_constant_feature_is_degenerate(self):
        cfg, views, params = self.setup_case(seed=4)
        params.flat[-2].data[:, 3] = 0.0  # embedding feature 3 constant
        with pytest.raises(DegenerateFeatureError, match="feature 3"):
            self.batched(cfg, views, params)

    def test_non_finite_loss_names_its_coordinate(self):
        # unnormalized and linear, a step of 1e200 overflows the loss at
        # every coordinate except those of encoder weight row 0, which
        # multiply an all-zero input column
        cfg, views, params = self.setup_case(seed=5, normalize_on=False, activation="identity")
        views.x[:, 0] = 0.0
        views.x_prime[:, 0] = 0.0
        with pytest.raises(NumericError, match="parameter 0 coordinate 8$"):
            self.batched(cfg, views, params, h=1e200)
