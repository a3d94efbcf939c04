#!/usr/bin/env python3
"""trimix benchmark: one workload per process.

    python3 perfbench/run.py --workload pretrain_default --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; trimix is imported from its `src/`.
With `--trace 0` the run prints the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced repetition.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Human-
readable lines above it name every metric, the correctness checks and the
machine facts; the same record goes to `.perfbench_out/<workload>/`.
"""
from __future__ import annotations

import os
import sys

# one recorded BLAS thread count for every workload, set before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# the host's speed changes in phases of seconds, so the reference kernel
# runs about 20 times and a set-up about once in each 1-second window
WINDOW_S = 1.0
WINDOW_MIN_SAMPLES = 3
REFERENCE_EVERY_S = 0.05
SETUP_EVERY_S = 1.0
SETUP_MIN_REPS = 10
# median step times move by about this much between repetitions on a
# shared 2-core machine, so a smaller tracing overhead is not resolved
STEP_RESOLUTION_PCT = 2.0


def import_trimix():
    """trimix from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import trimix
    except ImportError as exc:
        sys.exit(f"error: cannot import trimix from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(trimix.__file__))) != SRC:
        sys.exit(f"error: trimix imported from {trimix.__file__}, not from {SRC}")
    return trimix


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


class Tally:
    """Operations attempted and failed: steps, eval reports, gradcheck
    runs and correctness checks (aggregated by check name)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": detail})
        entry["passed" if ok else "failed"] += 1
        if not ok or not entry["failed"]:
            entry["detail"] = detail

    def add_rep(self, rep) -> None:
        self.attempted += rep.steps + rep.reports
        self.failed += rep.steps_failed
        if rep.steps:
            self.check("finite_step_losses", rep.steps_failed == 0,
                       f"{rep.steps - rep.steps_failed}/{rep.steps} steps with a finite loss")
        for name, ok, detail in rep.checks:
            self.check(name, ok, detail)

    def lines(self) -> list[str]:
        return [
            f"check {name}: {'FAIL' if c['failed'] else 'PASS'} {c['passed']}/{c['passed'] + c['failed']} ({c['detail']})"
            for name, c in self.checks.items()
        ]


class OutOfTime(Exception):
    """Raised at the start of a unit of work once the run's time is up."""


@contextmanager
def cut_at(deadline: float, trimix):
    """Make the first unit of work (step or objective evaluation) that
    starts after `deadline` raise OutOfTime, cutting its repetition."""
    def guard(orig):
        def wrapped(*args, **kwargs):
            if time.perf_counter() > deadline:
                raise OutOfTime
            return orig(*args, **kwargs)
        return wrapped

    saved = [(module, attr, getattr(module, attr))
             for module, attr in ((trimix.train, "two_views"), (trimix.cli, "trimix_step_loss"))]
    for module, attr, orig in saved:
        setattr(module, attr, guard(orig))
    try:
        yield
    finally:
        for module, attr, orig in saved:
            setattr(module, attr, orig)


def run_reps(workload, seconds: float, tally: Tally, trimix, rec: spans.Recorder) -> list:
    """Repeat the workload's chain for `seconds`.  The first repetition
    always completes and sets the peak RSS; set-ups are timed between the
    units of the later ones.  The repetition in flight at the deadline is
    cut, so its finished units count in the unit times but it makes no
    checks."""
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        try:
            with cut_at(deadline, trimix) if reps else nullcontext():
                rep = workload.rep()
        except OutOfTime:
            break
        except trimix.TriMixError as exc:
            tally.check("repetition_completes", False, f"{type(exc).__name__}: {exc}")
            break
        tally.add_rep(rep)
        reps.append(rep)
        if len(reps) == 1:
            rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rec.every(spans.SETUP, workload.setup, SETUP_EVERY_S)
    if len(reps) > 1:
        same = len({r.digest for r in reps}) == 1
        tally.check("repetitions_bit_identical", same, f"{len(reps)} repetitions")
    return reps


def end_to_end(workload, args, tally, trimix) -> dict:
    workload.setup()
    rec = spans.Recorder()
    rec.every(spans.REFERENCE, spans.reference(workload.reference), REFERENCE_EVERY_S)
    with spans.installed(rec, trimix, units_only=True):
        reps = run_reps(workload, args.seconds, tally, trimix, rec)
    ratios, ref_ms = spans.window_ratios(rec, WINDOW_S, WINDOW_MIN_SAMPLES)
    tally.check("windows_measured", ratios.size > 0,
                f"{ratios.size} windows with {WINDOW_MIN_SAMPLES}+ units and reference spans")
    if not reps or not ratios.size:
        return {}
    setups = list(spans.span_ms(rec, spans.SETUP)[1] / 1e3)
    while len(setups) < SETUP_MIN_REPS:  # a run too short to interleave them
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    steps = spans.unit_ms(rec)
    rec.write(os.path.join(workload_dir(args), f"units-seed{args.seed}.npz"))
    main_s = sum(r.main_s for r in reps)
    metrics = {
        "step_rel": (float(np.median(ratios)), "x"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (reps[0].peak_rss_mb, "MB"),
    }
    extras = {
        "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        "steps": (steps.size, "count"),
        "windows": (ratios.size, "count"),
        "reference_ms": (float(np.median(ref_ms)), "ms"),
        f"{workload.main}_samples_per_s": (sum(r.samples for r in reps) / main_s, "1/s"),
        "setups": (len(setups), "count"),
        "repetitions": (len(reps), "count"),
        f"{workload.main}_s": (main_s / len(reps), "s"),
        "wall_s": (statistics.mean(r.wall_s for r in reps), "s"),
    }
    for key, (_, unit) in reps[0].info.items():
        extras[key] = (statistics.mean(r.info[key][0] for r in reps), unit)
    return {"metrics": metrics, "extras": extras}


def per_layer(workload, args, tally, trimix) -> dict:
    """An untraced, a unit-marked and a fully traced repetition.

    The untraced one is the reference for output bytes and wall time.  The
    unit-marked one times each step (or objective evaluation) with two
    spans and nothing inside, so the median unit time with and without the
    layer spans gives a steady tracing overhead.
    """
    reps = {}
    recs = {"units": spans.Recorder(), "full": spans.Recorder()}
    for mode in ("none", "units", "full"):
        traced = spans.installed(recs[mode], trimix, units_only=mode == "units") if mode in recs else nullcontext()
        try:
            with traced:
                workload.setup()
                reps[mode] = workload.rep()
        except trimix.TriMixError as exc:
            tally.check("repetition_completes", False, f"{type(exc).__name__}: {exc}")
            return {}
        tally.add_rep(reps[mode])
    for mode in ("units", "full"):
        tally.check("trace_changes_no_bit", reps[mode].digest == reps["none"].digest,
                    f"outputs of the {mode}-traced and the untraced repetition")

    rec = recs["full"]
    metrics = spans.summarize(rec)
    overhead = 100.0 * (np.median(spans.unit_ms(rec)) / np.median(spans.unit_ms(recs["units"])) - 1.0)
    metrics["trace.overhead_pct"] = (float(overhead), "%")
    metrics["trace.wall_overhead_pct"] = (100.0 * (reps["full"].wall_s / reps["none"].wall_s - 1.0), "%")
    if metrics[f"{spans.STEP}.calls"][0]:
        unaccounted = metrics["trace.step_unaccounted_pct"][0]
        limit = max(overhead, STEP_RESOLUTION_PCT)
        tally.check("trace_accounts_for_step", 0.0 <= unaccounted <= limit,
                    f"two_views + trimix_step_loss + backward + adam_step leave {unaccounted:.3f}% "
                    f"of train.step unaccounted (limit {limit:.2f}%: trace overhead {overhead:.2f}%, "
                    f"resolution {STEP_RESOLUTION_PCT:g}%)")
    rec.write(os.path.join(workload_dir(args), f"spans-seed{args.seed}.npz"))
    return {"metrics": metrics, "extras": {}}


def workload_dir(args) -> str:
    return os.path.join(ROOT, ".perfbench_out", args.workload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    trimix = import_trimix()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    os.makedirs(workload_dir(args), exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workload_dir(args), ROOT)
    tally = Tally()
    result = (per_layer if args.trace else end_to_end)(workload, args, tally, trimix)
    if not result:
        print("\n".join(tally.lines()))
        print("error: no measurement completed", file=sys.stderr)
        return 1
    extras = result["extras"]
    extras["failure_rate"] = (tally.failed / tally.attempted, "ratio")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_digest": workload.config_digest(),
        "facts": machine_facts(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "checks": tally.checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    with open(os.path.join(workload_dir(args), f"seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} config {record['config_digest']}")
    print("facts " + json.dumps(record["facts"]))
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:44s} {value:>14.6g} {unit}")
    for key, (value, unit) in extras.items():
        print(f"  {key:44s} {value:>14.6g} {unit} (reported, not bounded)")
    print("\n".join(tally.lines()))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
