"""Tensor/tape semantics: forward values, backward rules, tape contracts."""
import importlib
import pkgutil
import sys

import numpy as np
import pytest
from conftest import contract, imported_names, op_gradcheck, rng_for

import trimix
from trimix import eval as evaluation
from trimix import objective, stats, tensor
from trimix.config import TriMixConfig
from trimix.data import SyntheticSpec, synthetic_blobs, two_views
from trimix.errors import ContractError, DetachedValueError, DimensionError, NumericError
from trimix.model import init_params
from trimix.tensor import Tape, Tensor, add, affine, apply_op, backward, relu, rows, scalar_mul


class TestAffine:
    def test_identity(self):
        m = Tensor([[2.0, -1.0], [0.5, 3.0]])
        out = affine(Tensor(np.eye(2)), m, Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_case(self):
        out = affine(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]), Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[3.5], [7.5]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\[2, 3\].*\[2, 3\]"):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))

    def test_bias_shape_mismatch(self):
        with pytest.raises(DimensionError, match="bias"):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(3)))

    def test_off_tape_input_gets_no_gradient(self):
        rng = rng_for(5)
        x, w, b, g = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2), rng.normal(size=(4, 2))

        def rule(x_on_tape):
            tape = Tape()
            xt = tape.leaf(Tensor(x)) if x_on_tape else Tensor(x)
            out = affine(xt, tape.leaf(Tensor(w)), tape.leaf(Tensor(b)))
            return tape.nodes[out.node].rule(g)

        off, on = rule(False), rule(True)
        assert off[0] is None
        np.testing.assert_array_equal(on[0], g @ w.T)
        for a, b_ in zip(off[1:], on[1:]):
            assert a.tobytes() == b_.tobytes()


class TestRowBlocks:
    """Off-tape batches stacked as the row blocks of one tensor, whose row
    bounds `affine` takes, split by `rows`."""

    def _blocks(self, seed, sizes=(4, 4, 4), din=3, dout=2):
        rng = rng_for(seed)
        xs = [Tensor(rng.normal(size=(n, din))) for n in sizes]
        return xs, rng.normal(size=(din, dout)), rng.normal(size=dout)

    @staticmethod
    def _stack(xs):
        """The stacked tensor and its row bounds."""
        stack = Tensor(np.concatenate([x.data for x in xs]))
        return stack, tuple(np.cumsum([0] + [x.data.shape[0] for x in xs]).tolist())

    def test_stacked_output_is_the_blocks_outputs(self):
        xs, w, b = self._blocks(20, sizes=(2, 4, 2))
        stack, bounds = self._stack(xs)
        assert bounds == (0, 2, 6, 8)
        out = affine(stack, Tensor(w), Tensor(b), bounds)
        expected = np.concatenate([affine(x, Tensor(w), Tensor(b)).data for x in xs])
        assert out.data.tobytes() == expected.tobytes()

    def test_one_node_whose_gradients_add_last_block_first(self):
        xs, w, b = self._blocks(21)
        g = rng_for(22).normal(size=(12, 2))
        stack, bounds = self._stack(xs)
        tape = Tape()
        out = affine(stack, tape.leaf(Tensor(w)), tape.leaf(Tensor(b)), bounds)
        assert [n.kind for n in tape.nodes] == ["leaf", "leaf", "affine"]
        assert tape.nodes[out.node].parents == (None, 0, 1)
        gx, gw, gb = tape.nodes[out.node].rule(g)
        assert gx is None
        per = [(x.data.T @ g[i:i + 4], np.add.reduce(g[i:i + 4], axis=0)) for x, i in zip(xs, (0, 4, 8))]
        assert gw.tobytes() == ((per[2][0] + per[1][0]) + per[0][0]).tobytes()
        assert gb.tobytes() == ((per[2][1] + per[1][1]) + per[0][1]).tobytes()

    def test_stacked_input_gradient_is_per_block(self):
        xs, w, b = self._blocks(23, dout=3)
        w2 = rng_for(24).normal(size=(3, 2))
        g = rng_for(25).normal(size=(12, 2))
        stack, bounds = self._stack(xs)
        tape = Tape()
        h = affine(stack, Tensor(w), Tensor(b), bounds)
        out = affine(tape.leaf(h), tape.leaf(Tensor(w2)), tape.leaf(Tensor(np.zeros(2))), bounds)
        gx, _, _ = tape.nodes[out.node].rule(g)
        expected = np.concatenate([g[i:i + 4] @ w2.T for i in (0, 4, 8)])
        assert gx.tobytes() == expected.tobytes()

    def test_stack_must_fit(self):
        xs, w, b = self._blocks(26, din=5)
        stack, bounds = self._stack(xs)
        with pytest.raises(DimensionError, match="inner dimensions"):
            affine(stack, Tensor(rng_for(27).normal(size=(3, 2))), Tensor(b), bounds)

    @pytest.mark.parametrize("bounds", [(0, 4, 7), (0, 5, 3, 8), (1, 8), (0, 4, 4, 8), (0,), ()])
    def test_bounds_must_rise_strictly_from_zero_to_the_rows(self, bounds):
        # ends short of the rows, falls, starts past 0, an empty block, no block
        x = Tensor(rng_for(28).normal(size=(8, 3)))
        with pytest.raises(DimensionError, match="^affine: row bounds"):
            affine(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), bounds)

    def test_rows_shares_storage_and_checks_bounds(self):
        t = Tensor(np.arange(12.0).reshape(6, 2))
        r = rows(t, 2, 4)
        assert np.shares_memory(r.data, t.data)
        np.testing.assert_array_equal(r.data, [[4.0, 5.0], [6.0, 7.0]])
        for lo, hi in ((0, 0), (4, 2), (-1, 2), (5, 7)):
            with pytest.raises(DimensionError, match="rows"):
                rows(t, lo, hi)

    def test_split_gradients_reassemble_bit_for_bit(self):
        # signed zeros included: the -0.0 fill adds exactly to every value
        tape = Tape()
        t = tape.leaf(Tensor(np.zeros((6, 2))))
        ups = [np.array([[-0.0, 1.5], [0.0, -2.0]]), np.array([[0.0, -0.0], [3.0, -0.0]]),
               np.array([[1e-300, -1e-300], [-0.0, 0.0]])]
        parts = []
        for i, r in enumerate(ups):
            blk = rows(t, 2 * i, 2 * i + 2)
            # <blk, r>; the unit upstream times r keeps the signs of zeros
            parts.append(apply_op("linear", (blk,), np.array([float((blk.data * r).sum())]),
                                  lambda g, r=r: (float(g[0]) * r,)))
        (grad,) = backward(add(add(parts[0], parts[1]), parts[2]))
        assert grad.tobytes() == np.concatenate(ups).tobytes()


class TestElementwise:
    def test_relu(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_gradient_is_zero_at_both_zeros(self):
        tape = Tape()
        out = relu(tape.leaf(Tensor([[0.0, -0.0, 1e-300, -1e-300, 2.0]])))
        (grad,) = tape.nodes[out.node].rule(np.full((1, 5), 3.0))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 3.0, 0.0, 3.0]])

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))


def _square(x: Tensor) -> Tensor:
    """x @ x for a 1x1 leaf: one node that reads the same leaf twice."""
    return affine(x, x, Tensor(np.zeros(1)))


class TestBackwardContract:
    def test_square_sum_gradient(self):
        tape = Tape()
        x = tape.leaf(Tensor([[3.0]]))
        (grad,) = backward(_square(x))
        np.testing.assert_array_equal(grad, [[6.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones((2, 2))))
        with pytest.raises(ContractError, match="scalar"):
            backward(add(x, x))

    def test_detached_loss_rejected(self):
        with pytest.raises(DetachedValueError):
            backward(Tensor([1.0]))

    def test_unreachable_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(Tensor([[2.0]]))
        unused = tape.leaf(Tensor(np.ones((3, 3))))
        grads = backward(_square(x))
        assert len(grads) == 2
        np.testing.assert_array_equal(grads[1], np.zeros((3, 3)))

    def test_mixed_tapes_rejected(self):
        a = Tape().leaf(Tensor([1.0]))
        b = Tape().leaf(Tensor([1.0]))
        with pytest.raises(ContractError, match="tapes"):
            add(a, b)


class TestTapeInvariants:
    def _build(self, tape):
        x = tape.leaf(Tensor(rng_for(4).normal(size=(4, 4))))
        y = tape.leaf(Tensor(rng_for(5).normal(size=(4, 4))))
        b = tape.leaf(Tensor(rng_for(6).normal(size=4)))
        h = relu(affine(x, y, b))
        loss = contract(add(scalar_mul(h, 0.5), affine(h, y, b)))
        return x, y, loss

    def test_replay_same_node_count_and_gradients(self):
        t1, t2 = Tape(), Tape()
        _, _, l1 = self._build(t1)
        _, _, l2 = self._build(t2)
        assert len(t1) == len(t2)
        g1, g2 = backward(l1), backward(l2)
        assert len(g1) == len(g2) == 3
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_forward_bit_identical_across_runs(self):
        def run():
            rng = rng_for(11)
            a = Tensor(rng.normal(size=(6, 6)))
            b = Tensor(rng.normal(size=(6, 6)))
            return contract(affine(a, b, Tensor(rng.normal(size=6)))).item()

        assert run() == run()

    def test_parents_precede_children(self):
        tape = Tape()
        _, _, loss = self._build(tape)
        assert loss.node == len(tape) - 1
        for nid, node in enumerate(tape.nodes):
            for pid in node.parents:
                assert pid is None or pid < nid

    def test_non_finite_output_raises(self):
        huge = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="scalar_mul"):
            scalar_mul(huge, 1e200)

    def test_nan_raises(self):
        x = Tensor([[np.nan, 1.0]])
        with pytest.raises(NumericError, match="add"):
            add(x, Tensor([[1.0, 1.0]]))


def _sweep_keeping_rules(loss: Tensor) -> list[np.ndarray]:
    """A reference sweep that leaves every rule on the tape and never adds
    in place; leaf gradients in registration order."""
    grads = {loss.node: np.ones_like(loss.data)}
    for nid in range(loss.node, -1, -1):
        node = loss.tape.nodes[nid]
        if nid not in grads or node.rule is None:
            continue
        for pid, pg in zip(node.parents, node.rule(grads[nid])):
            if pid is not None:
                grads[pid] = pg if pid not in grads else grads[pid] + pg
    return [grads.get(nid, np.zeros(node.shape))
            for nid, node in enumerate(loss.tape.nodes) if node.kind == "leaf"]


class TestSweptTape:
    """A tape is swept once; the sweep drops each node's rule as it passes."""

    _build = TestTapeInvariants._build

    def test_second_backward_raises(self):
        _, _, loss = self._build(Tape())
        backward(loss)
        with pytest.raises(ContractError, match="already swept"):
            backward(loss)

    def test_recording_onto_a_swept_tape_raises(self):
        tape = Tape()
        x, _, loss = self._build(tape)
        backward(loss)
        with pytest.raises(ContractError, match="swept"):
            relu(x)
        with pytest.raises(ContractError, match="swept"):
            tape.leaf(Tensor([1.0]))
        relu(Tensor(x.data))  # off-tape values still compute

    def test_every_rule_is_released(self):
        tape = Tape()
        x, _, loss = self._build(tape)
        relu(x)  # recorded after the loss: unreachable, still released
        assert sum(node.rule is not None for node in tape.nodes) > 0
        backward(loss)
        assert all(node.rule is None for node in tape.nodes)

    def test_leaf_gradients_match_the_retaining_sweep_bit_for_bit(self):
        t1, t2 = Tape(), Tape()
        _, _, l1 = self._build(t1)
        _, _, l2 = self._build(t2)
        t2.leaf(Tensor(np.ones((2, 3))))
        t1.leaf(Tensor(np.ones((2, 3))))
        want = _sweep_keeping_rules(l1)
        got = backward(l2)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestGradientAccumulation:
    """backward adds a node's second and later contributions into its
    first in place, and gets the bytes of a sweep that never does."""

    def _build(self, tape):
        rng = rng_for(8)
        p = tape.leaf(Tensor(rng.normal(size=(3, 4))))
        q = tape.leaf(Tensor(rng.normal(size=(3, 4))))
        u, v = scalar_mul(p, 1.5), scalar_mul(q, -0.5)
        # three adds read u and v; each hands its one upstream array to both
        t1, t2, s = add(u, v), add(u, v), add(u, v)
        loss = contract(add(add(s, scalar_mul(t1, 2.0)), scalar_mul(t2, -3.0)))
        return (p, q), (t1, t2, s), loss

    def test_leaf_gradients_match_reference_and_share_no_memory(self):
        t1, t2 = Tape(), Tape()
        _, _, l1 = self._build(t1)
        _, _, l2 = self._build(t2)
        want = _sweep_keeping_rules(l1)
        got = backward(l2)
        assert not np.shares_memory(got[0], got[1])
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_repeated_leaf_in_one_add(self):
        tape = Tape()
        x = tape.leaf(Tensor([[1.0, 2.0]]))
        (grad,) = backward(contract(add(add(x, x), x)))
        r = np.random.default_rng(0).normal(size=(1, 2))
        assert grad.tobytes() == (r + r + r).tobytes()


def _default_step(tape: Tape):
    """Record one default-config objective evaluation (B=8, 16x16) on
    `tape`; returns the attached parameters and the loss."""
    cfg = TriMixConfig()
    ds = synthetic_blobs(SyntheticSpec(n=8, classes=2, size=16, seed=0))
    views = two_views(ds.images, cfg.augment_policy(), 0)
    attached = init_params(cfg.arch_for(256), seed=0).attach(tape)
    return attached, objective.trimix_step_loss(views, attached, cfg, 0.3).loss


class TestGradientList:
    """backward returns one plain array per leaf, in registration order."""

    def test_registration_order_and_zeros_of_each_shape(self):
        rng = rng_for(9)
        tape = Tape()
        a = tape.leaf(Tensor(rng.normal(size=(2, 3))))
        h = scalar_mul(a, 2.0)
        w = tape.leaf(Tensor(rng.normal(size=(3, 4))))  # registered after an op
        unused = tape.leaf(Tensor(np.ones(5)))
        b = tape.leaf(Tensor(rng.normal(size=4)))
        loss = contract(affine(h, w, b))
        tape.leaf(Tensor(np.ones((1, 2))))  # registered after the loss
        grads = backward(loss)
        assert all(type(g) is np.ndarray for g in grads)
        assert [g.shape for g in grads] == [(2, 3), (3, 4), (5,), (4,), (1, 2)]
        r = np.random.default_rng(0).normal(size=(2, 4))  # contract's cotangent
        np.testing.assert_allclose(grads[0], 2.0 * (r @ w.data.T), rtol=1e-12)
        np.testing.assert_allclose(grads[1], h.data.T @ r, rtol=1e-12)
        np.testing.assert_array_equal(grads[2], np.zeros_like(unused.data))
        np.testing.assert_allclose(grads[3], r.sum(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(grads[4], np.zeros((1, 2)))

    def test_default_arch_lines_up_with_the_parameter_names(self):
        tape = Tape()
        attached, loss = _default_step(tape)
        leaf_ids = [nid for nid, node in enumerate(tape.nodes) if node.kind == "leaf"]
        assert [t.node for t in attached.flat] == leaf_ids  # attach registers in flat order
        grads = backward(loss)
        assert len(grads) == len(attached.names()) == 10
        assert [g.shape for g in grads] == [t.shape for t in attached.flat]
        for i, g in enumerate(grads):
            for other in grads[i + 1:] + [t.data for t in attached.flat]:
                assert not np.shares_memory(g, other)


class TestRuleAliasing:
    """The rule contract the in-place sum relies on (`BackwardRule`): no
    two arrays one rule returns share memory, none shares memory with any
    node's forward data, and only `add` hands on its upstream, to one
    input."""

    def _check_rules(self, monkeypatch, record) -> set:
        forward = []
        orig = tensor.apply_op

        def spy(*args, **kwargs):
            out = orig(*args, **kwargs)
            forward.append(out.data)
            return out

        for module in (tensor, stats, objective, evaluation):
            monkeypatch.setattr(module, "apply_op", spy)
        tape = Tape()
        forward += record(tape)
        rng = rng_for(12)
        for node in tape.nodes:
            if node.rule is None:
                continue
            g = rng.normal(size=node.shape)
            out = [a for a in node.rule(g) if a is not None]
            assert sum(np.shares_memory(a, g) for a in out) <= (node.kind == "add"), node.kind
            for i, a in enumerate(out):
                for other in out[i + 1:] + forward:
                    assert not np.shares_memory(a, other), node.kind
        return {node.kind for node in tape.nodes}

    def test_every_rule_of_a_default_step(self, monkeypatch):
        def record(tape):
            attached, _ = _default_step(tape)
            return [t.data for t in attached.flat]

        kinds = self._check_rules(monkeypatch, record)
        assert kinds == {
            "leaf", "affine", "relu", "rows", "mixup", "standardize_batch", "standardize_feature",
            "cross_correlation_features", "cross_correlation_samples", "bt_invariance",
            "bt_redundancy", "row_softmax", "loss_vrt", "loss_con", "scalar_mul", "add",
        }

    def test_softmax_cross_entropy(self, monkeypatch):
        rng = rng_for(13)
        leaves = [rng.normal(size=(5, 3)), rng.normal(size=3)]

        def record(tape):
            w, b = (tape.leaf(Tensor(a)) for a in leaves)
            evaluation.softmax_cross_entropy(affine(Tensor(rng.normal(size=(6, 5))), w, b), np.arange(6) % 3)
            return leaves

        assert self._check_rules(monkeypatch, record) == {"leaf", "affine", "softmax_cross_entropy"}


def _away_from_kinks(a):
    return a + 0.2 * np.sign(a) + np.where(a == 0, 0.2, 0.0)


def _same_shape(arity):
    def make(rng):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        return [_away_from_kinks(rng.normal(size=(rows, cols))) for _ in range(arity)]

    return make


def _affine_shapes(rng):
    rows, cols, out = (int(rng.integers(2, 9)) for _ in range(3))
    return [rng.normal(size=(rows, cols)), rng.normal(size=(cols, out)), rng.normal(size=out)]


GRAD_OPS = {
    "add": (_same_shape(2), lambda ts: contract(add(ts[0], ts[1]))),
    "scalar_mul": (_same_shape(1), lambda ts: contract(scalar_mul(ts[0], 1.7))),
    "relu": (_same_shape(1), lambda ts: contract(relu(ts[0]))),
    "affine": (_affine_shapes, lambda ts: contract(affine(ts[0], ts[1], ts[2]))),
}


@pytest.mark.parametrize("name", sorted(GRAD_OPS))
def test_randomized_gradient_check(name):
    """Every registered op: 50 random instances, shapes <= 8x8, 1e-6."""
    make, build = GRAD_OPS[name]
    for case in range(50):
        arrays = make(rng_for(100, case))
        op_gradcheck(build, arrays, seed_note=f"{name} case {case}")


def test_package_imports_only_the_standard_library_numpy_and_itself():
    """The tape runs on numpy alone: no module of the package imports
    anything else."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "trimix"}
    modules = [trimix] + [importlib.import_module(f"trimix.{info.name}")
                          for info in pkgutil.iter_modules(trimix.__path__)]
    for module in modules:
        outside = {n for n in imported_names(module) if n.split(".")[0] not in allowed}
        assert not outside, (module.__name__, sorted(outside))
