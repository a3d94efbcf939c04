#!/usr/bin/env python3
"""Collect benchmark records into one file that later runs compare against.

    python3 perfbench/baseline.py perfbench/baseline_seed_commit.json

Reads every `.perfbench_out/<workload>/seed<n>-trace<t>.json` that
`run.py` wrote in this checkout.  Per workload it keeps the seeds, the
config digest, the machine facts, every end-to-end metric of the untraced
runs as median and quartiles (`statistics.quantiles(values, n=4)`), the
reported figures as medians, and the per-layer metrics of the traced runs
as medians.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(values: list) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def collect(records: list, key: str, stat) -> dict:
    names = records[0][key] if records else {}
    return {
        name: {"unit": names[name]["unit"], **stat([r[key][name]["value"] for r in records])}
        for name in names
    }


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    workloads = {}
    for wdir in sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "*"))):
        runs = []
        for path in sorted(glob.glob(os.path.join(wdir, "seed*-trace*.json"))):
            with open(path) as f:
                runs.append(json.load(f))
        if not runs:
            continue
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        workloads[runs[0]["workload"]] = {
            "config_digest": sorted({r["config_digest"] for r in runs}),
            "facts": runs[0]["facts"],
            "seconds": sorted({r["seconds"] for r in runs}),
            "untraced_seeds": sorted(r["seed"] for r in plain),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "all_correct": all(r["failed"] == 0 for r in runs),
            "end_to_end": collect(plain, "metrics", summary),
            "reported": collect(plain, "reported", lambda v: {"median": statistics.median(v)}),
            "per_layer": collect(traced, "metrics", lambda v: {"median": statistics.median(v)}),
        }
    with open(sys.argv[1], "w") as f:
        json.dump(workloads, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
