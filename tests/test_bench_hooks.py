"""The benchmark's tracing hooks still fit the program.

`perfbench/spans.py` patches trimix call sites by module and attribute
name and wraps tape rules by kind; a renamed function or tape kind would
silently drop its spans.  The module is loaded by path and left as it is
(`perfbench/run.py`, which sets BLAS environment variables, is not
imported).
"""
import importlib
import importlib.util
import pathlib

import pytest

import trimix
import trimix.cli
import trimix.oracle
from trimix.config import TriMixConfig
from trimix.data import synthetic_blobs
from trimix.train import pretrain

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
