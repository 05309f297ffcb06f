"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py [--seed 47] [--workload NAME ...]

Run from the repository root. For each workload it makes two traced runs
and one untraced pass, then checks that

  * every count (calls and counters, not times) repeats exactly between the
    two traced runs;
  * every layer has nonzero calls on the workload meant to load it (LOADS);
  * the metrics the runs print are the ones BENCHMARK.json declares, with
    the same units;

and records the tracing overhead, traced pass wall over untraced pass wall.
Prints a JSON report and exits 1 if a check fails. Takes about four minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import layers
import run

# The workload each layer is meant to load.
LOADS = {
    "fans": "construct",
    "matroids": "construct",
    "sheaves": "construct",
    "complexes": "construct",
    "exact": "tpd_cli",
    "intmat": "tpd_cli",
    "duality": "theorem_corpus",
    "io": "tpd_cli",
    "cli": "tpd_cli",
    "pool": "tpd_cli",
}


def counts(trace):
    return {k: v for k, v in trace.items() if layers.unit(k) == "count"}


def layer_calls(trace, layer):
    return sum(v or 0 for k, v in trace.items() if k.startswith(layer + ".") and k.endswith(".calls"))


def declared_metric_problems(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for key, printed in (("end_to_end", run.UNITS), ("per_layer", {k: layers.unit(k) for k in trace})):
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        if wanted != printed:
            problems.append(f"BENCHMARK.json {key} differs from the printed metrics or units")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=47)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    chosen = args.workload or list(run.WORKLOADS)

    root = os.getcwd()
    workdir = os.path.join(root, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    report = {"seed": args.seed, "workloads": {}, "problems": []}
    try:
        for workload in chosen:
            def child(trace):
                deadline = time.monotonic() + run.DEADLINE_S
                return run.spawn_child(workload, args.seed, 0, trace, "run", workdir, deadline)

            first, second, plain = child(1), child(1), child(0)
            a, b = counts(first["trace"]), counts(second["trace"])
            unequal = sorted(k for k in a if a[k] != b[k])
            if unequal:
                report["problems"].append(f"{workload}: counts differ between traced runs: {unequal}")
            for run_result in (first, second, plain):
                for failure in run_result["failures"]:
                    report["problems"].append(f"{workload}: {failure}")
            report["workloads"][workload] = {
                "trace_overhead": first["walls"][0] / plain["walls"][0],
                "untraced_pass_s": plain["walls"][0],
                "traced_pass_s": first["walls"][0],
                "missing": first["missing"],
                "zero_call_functions": sorted(
                    k[: -len(".calls")] for k, v in a.items() if k.endswith(".calls") and v == 0
                ),
                "counts": a,
            }
        for layer, workload in LOADS.items():
            if workload in report["workloads"]:
                calls = layer_calls(report["workloads"][workload]["counts"], layer)
                if calls == 0:
                    report["problems"].append(f"layer {layer} has no calls on {workload}")
        report["problems"] += declared_metric_problems(root, first["trace"])
    except run.BenchError as e:
        report["problems"].append(str(e))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrapped = {f"{layer}.{name}" for layer, _, name in layers.WRAPPED}
    report["never_called"] = sorted(
        key
        for key in wrapped
        if all(w["counts"].get(key + ".calls") == 0 for w in report["workloads"].values())
    )
    print(json.dumps(report, indent=1, sort_keys=True))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
