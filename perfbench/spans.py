"""In-memory span recorder and the wrappers that feed it from outside trimix.

Spans are recorded only here, around the public trimix functions, at the
names their callers bind them to (`trimix.train.backward`, not
`trimix.tensor.backward`, because `train` imported the name).  Every
wrapper calls the original with the same arguments and returns its result
untouched, so tracing changes no computed bit; the benchmark checks that
by comparing output bytes of a traced and an untraced repetition.

Per-kind backward time comes from wrapping each recorded `TapeNode.rule`
just before `backward` runs.  `loss_bt` builds two tape nodes in one
call; its span is split where the first of them is recorded.
"""
from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

# tape-node kind -> module that defines its forward code
KIND_MODULE = {
    "affine": "tensor",
    "relu": "tensor",
    "add": "tensor",
    "scalar_mul": "tensor",
    "standardize_batch": "stats",
    "standardize_feature": "stats",
    "cross_correlation_features": "stats",
    "cross_correlation_samples": "stats",
    "row_softmax": "stats",
    "mixup": "objective",
    "bt_invariance": "objective",
    "bt_redundancy": "objective",
    "loss_vrt": "objective",
    "loss_con": "objective",
}

STEP = "train.step"
STEP_LOSS = "objective.trimix_step_loss"
BACKWARD = "tensor.backward"
PREPARE = "trace.prepare_backward"  # the tracer's own work inside a step
REFERENCE = "bench.reference"
SETUP = "bench.setup"


def reference(kind: str):
    """Fixed benchmark-owned work, timed between units of work to measure
    the host's speed in the same second.  The host's speed changes by up
    to 2x in phases of seconds, and it changes Python-bound and BLAS-bound
    code by different factors, so each workload names the kind that sets
    its own step time:

    - `small_ops`: tiny-matrix numpy calls in a Python loop, the per-op
      overhead of the tape at B=8 and of `two_views`;
    - `gemm`: one 256x512x256 GEMM, like the affine layers at B=256.
    """
    rng = np.random.default_rng(0)
    if kind == "small_ops":
        x, w = rng.random((8, 16)), rng.random((16, 8))

        def small_ops():
            for _ in range(15):
                h = np.maximum(x @ w, 0.0)
                ((h - h.mean(axis=0)) / (h.std(axis=0) + 1.0)).sum()
        return small_ops
    if kind == "gemm":
        a, b = rng.random((256, 512)), rng.random((512, 256))
        return lambda: a @ b
    raise ValueError(f"unknown reference kind {kind!r}")


class Recorder:
    """Spans as parallel arrays: name id, parent span id, start, end (s).

    Span ids are assigned in opening order, so a parent's id is always
    smaller than its children's.  `counts` holds exact per-call numbers
    (tape sizes, checkpoint bytes, computed FLOPs) keyed by metric name.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, list] = {}
        self._fillers: list[list] = []  # [name, fn, every_s, next due time]
        self._filling = False

    def every(self, name: str, fn, every_s: float) -> None:
        """Run `fn` as a top-level span `name` whenever the last open span
        closes and `every_s` has passed since it last ran: between units
        of work, never inside one."""
        self._fillers.append([name, fn, every_s, 0.0])

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(clock())
        return sid

    def close(self, sid: int) -> None:
        """End span `sid`, and any span opened inside it and left open."""
        now = clock()
        while self.stack:
            top = self.stack.pop()
            self.end[top] = now
            if top == sid:
                break
        if self._fillers and not self.stack and not self._filling:
            self._fill(now)

    def _fill(self, now: float) -> None:
        self._filling = True
        try:
            for filler in self._fillers:
                name, fn, every_s, due = filler
                if now >= due:
                    filler[3] = now + every_s
                    sid = self.open(name)
                    try:
                        fn()
                    finally:
                        self.close(sid)
        finally:
            self._filling = False

    def top_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def count(self, key: str, value) -> None:
        self.counts.setdefault(key, []).append(value)

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapped

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        """All spans, compressed: name ids index the `names` table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def affine_cost(tape) -> tuple[int, int]:
    """FLOPs and bytes of every affine node's forward and backward on one
    tape, computed from the recorded shapes (8-byte values; each GEMM reads
    its operands and writes its result once, each bias pass reads and
    writes the output once)."""
    flops = nbytes = 0
    for node in tape.nodes:
        if node.kind != "affine":
            continue
        b, dout = node.shape
        din = tape.nodes[node.parents[1]].shape[0]
        gemm = 2 * b * din * dout
        flops += 3 * gemm + 2 * b * dout  # x@w, g@w.T, x.T@g; bias add, g.sum
        nbytes += 8 * (
            (b * din + din * dout + b * dout) * 3  # three GEMMs
            + (2 * b * dout + dout) * 2  # bias add and bias gradient
        )
    return flops, nbytes


def _wrappers(rec: Recorder, trimix) -> list:
    """(module, attribute, replacement) for every traced call site."""
    train, objective, model, data, ev, cli, oracle = (
        trimix.train, trimix.objective, trimix.model, trimix.data, trimix.eval, trimix.cli, trimix.oracle,
    )

    def backward(orig):
        def wrapped(loss):
            tape = loss.tape
            if tape is not None:
                prep = rec.open(PREPARE)
                rec.count("tensor.nodes_per_step", len(tape.nodes))
                flops, nbytes = affine_cost(tape)
                rec.count("tensor.affine.computed_flops_per_step", flops)
                rec.count("tensor.affine.computed_bytes_per_step", nbytes)
                for node in tape.nodes:
                    if node.rule is not None:
                        name = f"{KIND_MODULE.get(node.kind, 'tensor')}.{node.kind}.bwd"
                        node.rule = rec.span(name, node.rule)
                rec.close(prep)
            sid = rec.open(BACKWARD)
            try:
                return orig(loss)
            finally:
                rec.close(sid)
        return wrapped

    def two_views(orig):
        # the loop body of train.pretrain starts with two_views and ends
        # with adam_step; that interval is one step
        inner = rec.span("data.two_views", orig)

        def wrapped(*args, **kwargs):
            rec.open(STEP)
            return inner(*args, **kwargs)
        return wrapped

    def adam_step(orig):
        inner = rec.span("train.adam_step", orig)

        def wrapped(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                if rec.top_name() == STEP:
                    rec.close(rec.stack[-1])
        return wrapped

    def save_checkpoint(orig):
        inner = rec.span("train.save_checkpoint", orig)

        def wrapped(path, ckpt):
            inner(path, ckpt)
            rec.count("train.save_checkpoint.bytes", os.path.getsize(path))
        return wrapped

    def standardize(orig):
        def wrapped(z, axis, *args, **kwargs):
            sid = rec.open(f"stats.standardize_{axis}")
            try:
                return orig(z, axis, *args, **kwargs)
            finally:
                rec.close(sid)
        return wrapped

    def cross_correlation(orig):
        def wrapped(z, z2, mode):
            sid = rec.open(f"stats.cross_correlation_{mode}")
            try:
                return orig(z, z2, mode)
            finally:
                rec.close(sid)
        return wrapped

    def loss_bt(orig):
        def wrapped(c):
            sid = rec.open("objective.bt_invariance")
            try:
                return orig(c)
            finally:
                rec.close(rec.stack[-1] if rec.top_name() == "objective.bt_redundancy" else sid)
        return wrapped

    def objective_apply_op(orig):
        def wrapped(kind, *args, **kwargs):
            out = orig(kind, *args, **kwargs)
            if kind == "bt_invariance" and rec.top_name() == "objective.bt_invariance":
                rec.close(rec.stack[-1])
                rec.open("objective.bt_redundancy")
            return out
        return wrapped

    def plain(name):
        return lambda orig: rec.span(name, orig)

    return [
        (train, "two_views", two_views),
        (train, "trimix_step_loss", plain(STEP_LOSS)),
        (train, "backward", backward),
        (train, "adam_step", adam_step),
        (train, "save_checkpoint", save_checkpoint),
        (train, "load_checkpoint", plain("train.load_checkpoint")),
        (cli, "trimix_step_loss", plain(STEP_LOSS)),
        (cli, "backward", backward),
        (objective, "forward", plain("model.forward")),
        (objective, "standardize", standardize),
        (objective, "cross_correlation", cross_correlation),
        (objective, "row_softmax", plain("stats.row_softmax")),
        (objective, "mixup", plain("objective.mixup")),
        (objective, "loss_bt", loss_bt),
        (objective, "apply_op", objective_apply_op),
        (objective, "loss_vrt", plain("objective.loss_vrt")),
        (objective, "loss_con", plain("objective.loss_con")),
        (objective, "add", plain("tensor.add")),
        (objective, "scalar_mul", plain("tensor.scalar_mul")),
        (model, "affine", plain("tensor.affine")),
        (model, "relu", plain("tensor.relu")),
        (data, "two_views", plain("data.two_views")),  # cli.gradcheck's call
        (data, "synthetic_blobs", plain("data.synthetic_blobs")),
        (data, "load_idx", plain("data.load_idx")),
        (oracle, "finite_diff", plain("oracle.finite_diff")),
        (ev, "extract_features", plain("eval.extract_features")),
        (ev, "knn_predict", plain("eval.knn_predict")),
        (ev, "linear_probe", plain("eval.linear_probe")),
        (ev, "finetune_semi", plain("eval.finetune_semi")),
    ]


# call sites that mark only the units of work (steps, objective
# evaluations): a near-free trace that times units without their layers
UNIT_SITES = {("trimix.train", "two_views"), ("trimix.train", "adam_step"), ("trimix.cli", "trimix_step_loss")}


@contextmanager
def installed(rec: Recorder, trimix, units_only: bool = False):
    """Patch every traced call site (or only UNIT_SITES) for the block."""
    saved = []
    try:
        for module, attr, make in _wrappers(rec, trimix):
            if units_only and (module.__name__, attr) not in UNIT_SITES:
                continue
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, make(orig))
        yield rec
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


# spans reported by name: inclusive duration p50/p90, self-time p50, calls
NAMED_SPANS = (
    "data.synthetic_blobs",
    "data.load_idx",
    "data.two_views",
    "model.forward",
    STEP_LOSS,
    BACKWARD,
    "train.adam_step",
    STEP,
    "train.save_checkpoint",
    "train.load_checkpoint",
    PREPARE,
    "oracle.finite_diff",
    "eval.extract_features",
    "eval.knn_predict",
    "eval.linear_probe",
    "eval.finetune_semi",
)


def span_ms(rec: Recorder, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Start (s) and duration (ms) of every span called `name`."""
    a = rec.arrays()
    mask = a["name"] == rec._name_ids.get(name, -1)
    return a["start"][mask], (a["end"] - a["start"])[mask] * 1e3


def _units(rec: Recorder) -> tuple[np.ndarray, np.ndarray]:
    """Start and duration of the units of work: train steps, else
    objective evaluations."""
    for unit in (STEP, STEP_LOSS):
        start, ms = span_ms(rec, unit)
        if ms.size:
            return start, ms
    return start, ms


def unit_ms(rec: Recorder) -> np.ndarray:
    return _units(rec)[1]


def window_ratios(rec: Recorder, width_s: float, min_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Per `width_s`-second window, counted from the first unit's start,
    that holds at least `min_samples` units and REFERENCE spans: the
    median unit duration over the median reference duration, and the
    median reference duration (ms)."""
    start, ms = _units(rec)
    ref_start, ref_ms = span_ms(rec, REFERENCE)
    if not ms.size or not ref_ms.size:
        return np.zeros(0), np.zeros(0)
    unit_w = ((start - start[0]) // width_s).astype(np.int64)
    ref_w = ((ref_start - start[0]) // width_s).astype(np.int64)
    ratios, refs = [], []
    for w in np.unique(unit_w):
        u, r = ms[unit_w == w], ref_ms[ref_w == w]
        if u.size >= min_samples and r.size >= min_samples:
            ratios.append(np.median(u) / np.median(r))
            refs.append(np.median(r))
    return np.array(ratios), np.array(refs)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def summarize(rec: Recorder) -> dict:
    """Per-layer metrics from the recorded spans, as {name: (value, unit)}.

    Per-kind `fwd_ms` is the median over objective evaluations of the
    summed self time of that kind's forward spans in one evaluation;
    `bwd_ms` is the same over `backward` calls.  A layer that a workload
    never enters reports 0 with 0 calls.
    """
    a = rec.arrays()
    n = a["name"].size
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    ids = {name: i for i, name in enumerate(rec.names)}
    name = a["name"]

    out: dict[str, tuple] = {}
    for span in NAMED_SPANS:
        mask = name == ids.get(span, -1)
        d_ms = dur[mask] * 1e3
        out[f"{span}.ms_p50"] = (_pct(d_ms, 50), "ms")
        out[f"{span}.ms_p90"] = (_pct(d_ms, 90), "ms")
        out[f"{span}.self_ms_p50"] = (_pct(self_t[mask] * 1e3, 50), "ms")
        out[f"{span}.calls"] = (int(mask.sum()), "count")

    # unit of work for per-kind sums: the enclosing objective evaluation
    # for forward spans, the enclosing backward call for rule spans
    unit_ids = {ids.get(STEP_LOSS, -1), ids.get(BACKWARD, -1)}
    unit = np.full(n, -1, dtype=np.int64)
    name_list = name.tolist()
    parent_list = parent.tolist()
    for i in range(n):
        if name_list[i] in unit_ids:
            unit[i] = i
        elif parent_list[i] >= 0:
            unit[i] = unit[parent_list[i]]
    units = {
        "fwd": np.flatnonzero(name == ids.get(STEP_LOSS, -1)),
        "bwd": np.flatnonzero(name == ids.get(BACKWARD, -1)),
    }
    for kind, module in KIND_MODULE.items():
        for phase, suffix in (("fwd", ""), ("bwd", ".bwd")):
            mask = (name == ids.get(f"{module}.{kind}{suffix}", -1)) & (unit >= 0)
            per_unit = np.bincount(unit[mask], weights=self_t[mask], minlength=n)
            out[f"{module}.{kind}.{phase}_ms"] = (_pct(per_unit[units[phase]] * 1e3, 50), "ms")

    def first(key):
        values = rec.counts.get(key)
        return values[0] if values else 0

    out["tensor.nodes_per_step"] = (first("tensor.nodes_per_step"), "count")
    flops = first("tensor.affine.computed_flops_per_step")
    out["tensor.affine.computed_flops_per_step"] = (flops, "FLOP")
    out["tensor.affine.computed_bytes_per_step"] = (first("tensor.affine.computed_bytes_per_step"), "bytes")
    affine_s = (out["tensor.affine.fwd_ms"][0] + out["tensor.affine.bwd_ms"][0]) / 1e3
    out["tensor.affine.gflops"] = (flops / affine_s / 1e9 if affine_s > 0 else 0.0, "GFLOP/s")
    saves = rec.counts.get("train.save_checkpoint.bytes", [])
    out["train.save_checkpoint.bytes"] = (saves[-1] if saves else 0, "bytes")
    fd = np.flatnonzero(name == ids.get("oracle.finite_diff", -1))
    evals = int(((name == ids.get(STEP_LOSS, -1)) & np.isin(parent, fd)).sum())
    out["oracle.finite_diff.loss_evals"] = (evals, "count")

    steps = name == ids.get(STEP, -1)
    unaccounted = 100.0 * self_t[steps] / dur[steps] if steps.any() else np.zeros(0)
    out["trace.step_unaccounted_pct"] = (_pct(unaccounted, 50), "%")
    out["trace.spans"] = (n, "count")
    return out
