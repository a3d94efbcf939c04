"""Mixing, the ground-truth matrix, the three loss terms, and the full step."""
import numpy as np
import pytest
from conftest import contract, op_gradcheck, rng_for

from trimix import oracle
from trimix.config import TriMixConfig
from trimix.data import ViewPair
from trimix.errors import BatchParityError, ContractError, DimensionError, NumericError
from trimix.model import init_params
from trimix.objective import (
    ground_truth_matrix,
    loss_bt,
    loss_con,
    loss_vrt,
    mixup,
    trimix_step_loss,
)
from trimix.stats import cross_correlation, standardize
from trimix.tensor import Tape, Tensor, add, backward, scalar_mul


def make_views(b=8, width=16, seed=0):
    rng = rng_for(seed)
    return ViewPair(
        x=rng.uniform(0.0, 1.0, size=(b, width)),
        x_prime=rng.uniform(0.0, 1.0, size=(b, width)),
    )


def small_cfg(**overrides):
    base = dict(encoder_widths=(16,), projector_widths=(16,), batch_size=8)
    base.update(overrides)
    return TriMixConfig(**base).validate()


class TestMixup:
    def test_lambda_one_is_bitwise_identity(self):
        x = Tensor(rng_for(0).normal(size=(6, 4)))
        assert np.array_equal(mixup(x, 1.0).data, x.data)

    def test_lambda_zero_is_bitwise_flip(self):
        x = Tensor(rng_for(1).uniform(0, 1, size=(6, 4)))
        assert np.array_equal(mixup(x, 0.0).data, x.data[::-1])

    def test_midpoint_two_rows(self):
        x = Tensor([[2.0], [4.0]])
        np.testing.assert_array_equal(mixup(x, 0.5).data, [[3.0], [3.0]])

    def test_odd_batch_rejected(self):
        with pytest.raises(BatchParityError, match="even"):
            mixup(Tensor(np.ones((3, 2))), 0.5)

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(ContractError):
            mixup(Tensor(np.ones((2, 2))), 1.5)

    def test_flip_complement_symmetry(self):
        # mixup(flip(x), 1-lam) == mixup(x, lam), exactly
        for case in range(30):
            rng = rng_for(2, case)
            x = Tensor(rng.normal(size=(int(rng.integers(1, 7)) * 2, 5)))
            lam = float(rng.random())
            a = mixup(Tensor(x.data[::-1]), 1.0 - lam).data
            b = mixup(x, lam).data
            assert np.array_equal(a, b)

    def test_gradient_check(self):
        for case in range(50):
            rng = rng_for(3, case)
            x = rng.normal(size=(2 * int(rng.integers(1, 5)), int(rng.integers(2, 9))))
            lam = float(rng.uniform(0.05, 0.95))
            op_gradcheck(
                lambda ts: contract(mixup(ts[0], lam)),
                [x],
                seed_note=f"mixup case {case}",
            )


class TestGroundTruthMatrix:
    def test_formula_b4(self):
        gt = ground_truth_matrix(4, 0.7).data
        np.testing.assert_allclose(np.diagonal(gt), 0.7)
        np.testing.assert_allclose(np.diagonal(np.fliplr(gt)), 0.3)
        np.testing.assert_allclose(gt.sum(axis=1), 1.0)
        assert np.count_nonzero(gt) == 8

    def test_lambda_one_is_identity(self):
        for b in (2, 4, 8, 16):
            assert np.array_equal(ground_truth_matrix(b, 1.0).data, np.eye(b))

    def test_b2_half(self):
        np.testing.assert_array_equal(
            ground_truth_matrix(2, 0.5).data, [[0.5, 0.5], [0.5, 0.5]]
        )

    def test_rows_sum_to_one_across_sizes(self):
        for b in range(2, 65, 2):
            for case in range(100):
                lam = float(rng_for(4, b, case).random())
                gt = ground_truth_matrix(b, lam).data
                assert np.abs(gt.sum(axis=1) - 1.0).max() < 1e-12

    def test_same_bytes_as_the_eye_formula(self):
        for b in range(2, 65, 2):
            for lam in (0.0, 1.0, float(rng_for(5, b).random())):
                eye = np.eye(b)
                want = lam * eye + (1.0 - lam) * np.fliplr(eye)
                assert ground_truth_matrix(b, lam).data.tobytes() == want.tobytes(), (b, lam)

    def test_odd_batch_rejected(self):
        with pytest.raises(BatchParityError):
            ground_truth_matrix(5, 0.5)

    def test_tiny_batch_rejected(self):
        with pytest.raises(ContractError):
            ground_truth_matrix(0, 0.5)


class TestLossTerms:
    def test_bt_on_identity_is_zero(self):
        l_inv, l_rr = loss_bt(Tensor(np.eye(6)))
        assert l_inv.item() == 0.0 and l_rr.item() == 0.0

    def test_bt_on_all_ones(self):
        l_inv, l_rr = loss_bt(Tensor(np.ones((2, 2))))
        assert l_inv.item() == 0.0 and l_rr.item() == 2.0

    def test_bt_matches_oracle(self):
        c = rng_for(5).uniform(-1, 1, size=(16, 16))
        l_inv, l_rr = loss_bt(Tensor(c))
        n_inv, n_rr = oracle.naive_bt_terms(c)
        assert abs(l_inv.item() - n_inv) < 1e-12
        assert abs(l_rr.item() - n_rr) < 1e-12

    def test_bt_rejects_non_square(self):
        with pytest.raises(DimensionError):
            loss_bt(Tensor(np.ones((3, 4))))

    def test_vrt_zero_residual(self):
        gt = ground_truth_matrix(4, 0.3)
        assert loss_vrt(Tensor(gt.data.copy()), gt).item() == 0.0

    def test_vrt_uniform_vs_identity_closed_form(self):
        b = 4
        m = Tensor(np.full((b, b), 1.0 / b))
        gt = ground_truth_matrix(b, 1.0)
        assert abs(loss_vrt(m, gt).item() - 0.375) < 1e-15
        assert abs(loss_vrt(m, gt).item() - 2.0 * (b - 1) / b**2) < 1e-15

    def test_vrt_matches_oracle(self):
        rng = rng_for(6)
        logits = rng.normal(size=(8, 8))
        m = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        gt = ground_truth_matrix(8, float(rng.random()))
        assert abs(loss_vrt(Tensor(m), gt).item() - oracle.naive_mean_abs(m, gt.data)) < 1e-12

    def test_vrt_shape_mismatch(self):
        with pytest.raises(DimensionError):
            loss_vrt(Tensor(np.ones((4, 4))), Tensor(np.ones((2, 2))))

    def test_con_identical_and_offset(self):
        z = rng_for(7).normal(size=(6, 5))
        assert loss_con(Tensor(z), Tensor(z.copy())).item() == 0.0
        assert abs(loss_con(Tensor(z + 1.0), Tensor(z)).item() - 1.0) < 1e-12

    def test_con_matches_oracle(self):
        rng = rng_for(8)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        assert abs(loss_con(Tensor(a), Tensor(b)).item() - oracle.naive_mean_abs(a, b)) < 1e-12

    def test_bt_terms_gradient_check(self):
        for case in range(50):
            rng = rng_for(9, case)
            d = int(rng.integers(2, 9))
            c = rng.uniform(-1, 1, size=(d, d))
            op_gradcheck(
                lambda ts: add(loss_bt(ts[0])[0], scalar_mul(loss_bt(ts[0])[1], 0.3)),
                [c],
                seed_note=f"bt terms case {case}",
            )

    def test_mean_abs_diff_gradient_check(self):
        for case in range(50):
            rng = rng_for(10, case)
            shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            a = rng.normal(size=shape)
            b = a + np.where(rng.normal(size=shape) > 0, 0.5, -0.5)  # keep |a-b| off the kink
            op_gradcheck(
                lambda ts: loss_con(ts[0], ts[1]),
                [a, b],
                seed_note=f"mean abs diff case {case}",
            )


class TestMeanAbsDiffExactness:
    def test_value_and_gradient_match_the_mean_formula(self):
        shapes = [(int(n), int(m)) for n, m in rng_for(33).integers(1, 40, size=(20, 2))]
        shapes += [(8200, 2), (3, 3000)]  # more than 8,192 cells
        for case, shape in enumerate(shapes):
            rng = rng_for(34, case)
            a, b = rng.normal(size=shape), rng.normal(size=shape)
            b.reshape(-1)[::5] = a.reshape(-1)[::5]  # ties: subgradient 0
            tape = Tape()
            out = loss_con(tape.leaf(Tensor(a)), tape.leaf(Tensor(b)))
            assert out.data.tobytes() == np.array([np.abs(a - b).mean()]).tobytes(), shape
            da, db = tape.nodes[out.node].rule(np.array([0.7]))
            want = (0.7 / a.size) * np.sign(a - b)
            assert da.tobytes() == want.tobytes() and db.tobytes() == (-want).tobytes()


class TestStepLoss:
    @pytest.mark.parametrize("placement", ["ZZ", "YY", "ZY"])
    @pytest.mark.parametrize("feature_norm", [True, False])
    def test_off_tape_and_taped_totals_are_bit_equal(self, placement, feature_norm):
        cfg = small_cfg(placement=placement, enable_feature_norm=feature_norm,
                        encoder_widths=(16, 12), projector_widths=(12, 10))
        params = init_params(cfg.arch_for(16), seed=13)
        views = make_views(seed=13)
        off = trimix_step_loss(views, params, cfg, 0.35)
        on = trimix_step_loss(views, params.attach(Tape()), cfg, 0.35)
        assert off.loss.tape is None and on.loss.tape is not None
        for term in ("total", "l_bt_inv", "l_bt_rr", "l_vrt", "l_con"):
            assert getattr(off, term) == getattr(on, term), term
        assert off.loss.data.tobytes() == on.loss.data.tobytes()

    def test_breakdown_recombination_identity(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=1)
        bd = trimix_step_loss(make_views(), params, cfg, rng_for(11).random())
        recon = (bd.l_bt_inv + cfg.alpha * bd.l_bt_rr) + cfg.beta * bd.l_vrt + cfg.gamma * bd.l_con
        assert abs(recon - bd.total) < 1e-12

    def test_terms_non_negative_and_vrt_bounded(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=2)
        for case in range(20):
            bd = trimix_step_loss(make_views(seed=case), params, cfg, rng_for(12, case).random())
            assert bd.l_bt_inv >= 0 and bd.l_bt_rr >= 0
            assert 0 <= bd.l_vrt <= 2.0
            assert bd.l_con >= 0

    def test_linear_model_without_normalization_has_zero_con(self):
        cfg = small_cfg(activation="identity", normalize_on=False)
        params = init_params(cfg.arch_for(16), seed=3)
        for case in range(20):
            bd = trimix_step_loss(make_views(seed=case), params, cfg, rng_for(13, case).random())
            assert bd.l_con < 1e-9

    def test_lambda_one_endpoints_are_bitwise(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=4)
        views = make_views(seed=5)
        trace = {}
        trimix_step_loss(views, params, cfg, 1.0, trace=trace)
        assert np.array_equal(trace["x_vrt"], views.x.reshape(8, -1))
        assert np.array_equal(trace["z_tilde"], trace["base_std"])
        assert np.array_equal(trace["gt"], np.eye(8))

    def test_lambda_zero_endpoint(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=4)
        views = make_views(seed=6)
        trace = {}
        trimix_step_loss(views, params, cfg, 0.0, trace=trace)
        assert np.array_equal(trace["x_vrt"], views.x.reshape(8, -1)[::-1])

    def test_bt_only_totals_and_gradients_match_pure_bt_graph(self):
        cfg = small_cfg(beta=0.0, gamma=0.0)
        params = init_params(cfg.arch_for(16), seed=7)
        views = make_views(seed=7)

        tape = Tape()
        attached = params.attach(tape)
        bd = trimix_step_loss(views, attached, cfg, rng_for(16).random())
        assert bd.total == bd.l_bt_inv + cfg.alpha * bd.l_bt_rr
        grads_a = backward(bd.loss)

        from trimix.model import forward

        tape_b = Tape()
        attached_b = params.attach(tape_b)
        x = Tensor(views.x.reshape(8, -1))
        xp = Tensor(views.x_prime.reshape(8, -1))
        zs = standardize(forward(x, attached_b).z, "batch")
        zs_p = standardize(forward(xp, attached_b).z, "batch")
        l_inv, l_rr = loss_bt(cross_correlation(zs, zs_p, "features"))
        total = add(l_inv, scalar_mul(l_rr, cfg.alpha))
        grads_b = backward(total)
        assert len(grads_a) == len(grads_b) == len(params.flat)
        for a, b in zip(grads_a, grads_b):
            assert np.abs(a - b).max() <= 1e-12

    def test_full_gradient_matches_finite_differences(self):
        # two affine layers, embedding width 16, fixed mixing factor
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=8)
        views = make_views(seed=8)
        tape = Tape()
        attached = params.attach(tape)
        bd = trimix_step_loss(views, attached, cfg, 0.3)
        tape_grads = backward(bd.loss)
        fd = oracle.finite_diff(
            lambda: trimix_step_loss(views, params, cfg, 0.3).total,
            [t.data for t in params.flat],
        )
        err = max(oracle.max_relative_error(a, b) for a, b in zip(tape_grads, fd))
        assert err < 1e-4

    def test_placement_variants_run_and_differ(self):
        views = make_views(seed=9)
        totals = {}
        for placement in ("ZZ", "YY", "ZY"):
            cfg = small_cfg(placement=placement)
            params = init_params(cfg.arch_for(16), seed=9)
            totals[placement] = trimix_step_loss(views, params, cfg, 0.4).total
        assert totals["ZZ"] != totals["YY"]
        assert totals["ZZ"] != totals["ZY"]

    @pytest.mark.parametrize("placement, split, std_batch", [("ZZ", 3, 3), ("YY", 5, 4), ("ZY", 5, 5)])
    def test_one_pass_records_each_layer_once(self, placement, split, std_batch):
        # rows splits Z into 3 blocks, and Y into x's and the virtual block
        # where the placement reads Y; YY standardizes x's Y once for both
        # terms, ZY reads five distinct blocks
        cfg = small_cfg(placement=placement, encoder_widths=(16, 12), projector_widths=(12, 10))
        tape = Tape()
        trimix_step_loss(make_views(seed=14), init_params(cfg.arch_for(16), seed=14).attach(tape), cfg, 0.3)
        kinds = [n.kind for n in tape.nodes]
        assert kinds.count("affine") == 4 and kinds.count("relu") == 2
        assert kinds.count("rows") == split
        assert kinds.count("standardize_batch") == std_batch

    @pytest.mark.parametrize("placement", ["YY", "ZY"])
    def test_y_placements_pass_gradcheck(self, placement):
        from trimix.cli import GRADCHECK_TOLERANCE, gradcheck

        cfg = TriMixConfig(encoder_widths=(12, 8), projector_widths=(8, 8, 6), placement=placement).validate()
        assert gradcheck(cfg, batch=8, side=8) < GRADCHECK_TOLERANCE

    def test_feature_norm_toggle_changes_virtual_normalization(self):
        views = make_views(seed=10)
        cfg_on = small_cfg()
        cfg_off = small_cfg(enable_feature_norm=False)
        params = init_params(cfg_on.arch_for(16), seed=10)
        trace_on, trace_off = {}, {}
        trimix_step_loss(views, params, cfg_on, 0.4, trace=trace_on)
        trimix_step_loss(views, params, cfg_off, 0.4, trace=trace_off)
        on, off = trace_on["virt_norm"], trace_off["virt_norm"]
        # with the feature pass, every sample row ends standardized
        assert np.abs(on.std(axis=1) - 1.0).max() < 1e-10
        assert np.abs(on.mean(axis=1)).max() < 1e-10
        # without it, only the batch pass applies
        assert np.abs(off.mean(axis=0)).max() < 1e-10
        assert np.abs(off.std(axis=1) - 1.0).max() > 1e-6

    def test_odd_batch_rejected(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=11)
        views = ViewPair(x=np.ones((3, 16)), x_prime=np.ones((3, 16)))
        with pytest.raises(BatchParityError):
            trimix_step_loss(views, params, cfg, 0.5)

    def test_numeric_failure_names_the_stage(self):
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=12)
        params.flat[0].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="^forward: "):
            trimix_step_loss(make_views(seed=11), params, cfg, 0.5)

    @pytest.mark.parametrize("name, term", [("loss_bt", "l_bt"), ("row_softmax", "l_vrt"),
                                            ("loss_con", "l_con")])
    def test_numeric_failure_in_a_term_names_the_term(self, monkeypatch, name, term):
        import trimix.objective

        def explode(*args, **kwargs):
            raise NumericError(f"operation '{name}' produced non-finite values")

        monkeypatch.setattr(trimix.objective, name, explode)
        cfg = small_cfg()
        params = init_params(cfg.arch_for(16), seed=12)
        with pytest.raises(NumericError, match=f"^{term}: operation '{name}'"):
            trimix_step_loss(make_views(seed=11), params, cfg, 0.5)

    def test_mix_factor_range(self):
        for lam in (-0.1, 1.1):
            with pytest.raises(ContractError, match="mix factor"):
                mixup(Tensor(np.ones((2, 2))), lam)
            with pytest.raises(ContractError, match="mix factor"):
                ground_truth_matrix(2, lam)
