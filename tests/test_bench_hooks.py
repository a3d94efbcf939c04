"""The benchmark's tracing hooks and workloads still fit the program.

`perfbench/spans.py` patches trimix call sites by module and attribute
name and wraps tape rules by kind; a renamed function or tape kind would
silently drop its spans.  `perfbench/workloads.py` calls trimix's public
functions; a changed signature or field would end a benchmark run as
failed.  Both modules are loaded by path and left as they are
(`perfbench/run.py`, which sets BLAS environment variables, is not
imported).
"""
import dataclasses
import importlib
import importlib.util
import pathlib
import sys

import pytest

import trimix
import trimix.cli
import trimix.oracle
from trimix.config import TriMixConfig
from trimix.data import synthetic_blobs
from trimix.train import pretrain

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("perfbench_spans", SPANS_PATH)


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", WORKLOADS_PATH)


def test_every_patched_call_site_resolves(spans):
    sites = spans._wrappers(spans.Recorder(), trimix)
    for module, attr, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    names = {(module.__name__, attr) for module, attr, _ in sites}
    for module_name, attr in spans.UNIT_SITES:
        assert (module_name, attr) in names
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_traced_pretrain_records_every_kind_and_changes_no_byte(spans, tmp_path):
    cfg = TriMixConfig(encoder_widths=(10, 6), projector_widths=(6, 6, 4), batch_size=8, epochs=1,
                       synthetic_train=16, synthetic_size=8, save_every=0, seed=3).validate()
    ds = synthetic_blobs(cfg.synthetic_spec("train"))
    pretrain(cfg, ds, out_dir=str(tmp_path / "plain"))
    rec = spans.Recorder()
    with spans.installed(rec, trimix):
        pretrain(cfg, ds, out_dir=str(tmp_path / "traced"))
    recorded = set(rec.names)
    for kind, module in spans.KIND_MODULE.items():
        assert f"{module}.{kind}" in recorded, kind
        assert f"{module}.{kind}.bwd" in recorded, kind
    assert {spans.STEP, spans.STEP_LOSS, spans.BACKWARD, "train.adam_step"} <= recorded
    for name in ("metrics.csv", "checkpoint.tmx"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes(), name


def test_traced_gradcheck_returns_the_same_error(spans):
    """The gradcheck path, where perfbench wraps `cli.backward` and every
    tape rule, at the gradcheck_small workload's arch."""
    cfg = TriMixConfig(seed=7, encoder_widths=(16, 8), projector_widths=(8, 8, 8)).validate()
    plain = trimix.cli.gradcheck(cfg, batch=8, side=16)
    rec = spans.Recorder()
    with spans.installed(rec, trimix):
        traced = trimix.cli.gradcheck(cfg, batch=8, side=16)
    assert traced == plain < 1e-4
    assert {spans.BACKWARD, "tensor.affine.bwd", "objective.loss_con.bwd"} <= set(rec.names)


@pytest.mark.parametrize("name, seed", [("pretrain_default", 8), ("pretrain_wide", 7), ("gradcheck_small", 7)])
def test_every_workload_runs_one_repetition(workloads, tmp_path, name, seed):
    """The benchmark's calls into trimix (`setup` and one `rep` per
    workload) still work.  pretrain_default runs 1 epoch, at a seed that
    skips its reference check; its loss_decreases check then has no later
    epoch to compare, so only its outcome is left unasserted."""
    work = workloads.WORKLOADS[name](seed, str(tmp_path), str(ROOT))
    if name == "pretrain_default":
        work.cfg = dataclasses.replace(work.cfg, epochs=1, probe_epochs=1).validate()
    work.setup()
    rep = work.rep()
    assert rep.steps_failed == 0
    if name == "pretrain_default":
        assert rep.steps > 0 and rep.reports == 3
        assert [check for check, _, _ in rep.checks] == ["loss_decreases"]
    else:
        assert all(ok for _, ok, _ in rep.checks), rep.checks
    if name == "gradcheck_small":
        assert [check for check, _, _ in rep.checks] == ["gradcheck_tolerance"]
