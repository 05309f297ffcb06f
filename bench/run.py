"""The tropfan benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload tpd_cli|theorem_corpus|construct
        --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs in a child process with
`TROPFAN_THREADS` removed from the environment and `PYTHONHASHSEED` fixed
(bench/child.py); its inputs are made from the seed and every answer is
checked against the golden answers in bench/golden/.

With `--trace 0` the end-to-end metrics are measured with tracing off.
Three times are first taken in seconds:

    wall_s        first op to last op of a pass over all ops, median of passes
    op_p50_s      median over ops of each op's latency, which is the median
                  of its samples (one a pass)
    op_p90_s      nearest-rank 90th percentile over ops of the same

and printed with `probe_s`, the median time of a fixed pure-Python loop
that child.py runs from a timer signal 20 times a second, inside the ops
(about 1% of the run; its time is left out of every latency and wall). The
metrics give the same three in units of the probe: every op latency and
pass wall is divided by the median of the probes that ran during it (or
within PROBE_MARGIN_S of it) before the medians are taken. The speed of a
shared 2-CPU host changes by a fifth or more, within a second and over
minutes; the probes inside an op change with it, so the ratios are
steadier than the seconds from run to run. The metrics are

    setup_s       process start to inputs generated and serialized, median of
                  SETUP_SAMPLES processes (the measuring one and set-up-only ones)
    wall_ref      wall_s in probes
    op_p50_ref    op_p50_s in probes
    op_p90_ref    op_p90_s in probes
    peak_rss_mib  ru_maxrss of the measuring process
    ops_ok_frac   1 - ops_failed_frac, the share of ops that returned the
                  golden answer (ops_failed_frac itself is 0 when all pass)

With `--trace 1` one traced pass, set-up included, gives the per-layer
metrics of bench/layers.py; their counts repeat exactly between runs.

Standard output ends with a human summary, a run record (interpreter, CPU,
commit, `src_loc`, per-op latencies) as one JSON line, and the result as
the last line: {"correct", "attempted", "failed", "metrics"}. Exit code 2
means the benchmark could not run (no program to run, a child crashed or
overran).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpd_cli", "theorem_corpus", "construct")  # the keys of workloads.SETUP
SETUP_SAMPLES = 3
DEADLINE_S = 170  # the whole run, children included, ends within this
# An op shorter than the probe period may run between two probes; its
# reference is then the probes up to this far before and after it.
PROBE_MARGIN_S = 0.1
UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.pop("TROPFAN_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_child(workload, seed, seconds, trace, mode, workdir, deadline):
    """Runs bench/child.py to completion and returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    spawned_at = time.monotonic()
    argv = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--mode", mode,
        "--spawned-at", repr(spawned_at),
        "--workdir", workdir,
    ]
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} {mode} child exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def percentiles(walls, latencies):
    """(median pass wall, op p50, op p90) of one run.

    The op percentiles are taken over each op's median latency over the
    passes, not over all samples pooled, so that a few slowed samples of one
    op cannot move them to an op of another size.
    """
    samples = {}
    for name, s in latencies:
        samples.setdefault(name, []).append(s)
    per_op = [statistics.median(v) for v in samples.values()]
    return statistics.median(walls), statistics.median(per_op), p90(per_op)


def seconds(result):
    wall, op_p50, op_p90 = percentiles(result["walls"], result["latencies"])
    probe_s = statistics.median(s for _, s in result["probes"])
    return {"wall_s": wall, "op_p50_s": op_p50, "op_p90_s": op_p90, "probe_s": probe_s}


def in_probes(result):
    """Op latencies and pass walls, each divided by the median of the probes
    that ran during it or within PROBE_MARGIN_S of it."""
    starts = [t for t, _ in result["probes"]]
    durations = [s for _, s in result["probes"]]
    if not durations:
        raise BenchError("no probe ran during the passes")

    def probe_during(a, b):
        margin = PROBE_MARGIN_S
        while True:
            near = durations[bisect.bisect_left(starts, a - margin) : bisect.bisect_right(starts, b + margin)]
            if near:
                return statistics.median(near)
            margin *= 2

    spans = result["spans"]
    latencies = [(name, s / probe_during(*span)) for (name, s), span in zip(result["latencies"], spans)]
    ops = len(spans) // len(result["walls"])
    walls = [
        wall / probe_during(spans[k * ops][0], spans[(k + 1) * ops - 1][1]) for k, wall in enumerate(result["walls"])
    ]
    return walls, latencies


def end_to_end(setups, result):
    wall, op_p50, op_p90 = percentiles(*in_probes(result))
    attempted = len(result["latencies"])
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": wall,
        "op_p50_ref": op_p50,
        "op_p90_ref": op_p90,
        "peak_rss_mib": result["maxrss_kib"] / 1024,
        "ops_ok_frac": 1 - len(result["failures"]) / attempted,
    }


def run_workload(workload, seed, seconds, trace, root):
    """Returns (metrics, units, child result, setup samples)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(root, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            result = spawn_child(workload, seed, seconds, 1, "run", workdir, deadline)
            return result["trace"], {name: layers.unit(name) for name in result["trace"]}, result, []
        setups = [
            spawn_child(workload, seed, seconds, 0, "setup", workdir, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = spawn_child(workload, seed, seconds, 0, "run", workdir, deadline)
        setups.append(result["setup_s"])
        return end_to_end(setups, result), UNITS, result, setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Run record


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root):
    """HEAD of the checkout's own .git, or None (checkouts without history)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def src_stats(root):
    """(python line count, sha256 of the python sources) under src/."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def run_record(args, root, result, setups):
    src_loc, src_sha256 = src_stats(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "src_loc": src_loc,
        "src_sha256": src_sha256,
        "setup_samples_s": setups,
        "seconds": None if args.trace else seconds(result),
        "pass_walls_s": result["walls"],
        "probes_s": result["probes"],
        "op_spans_s": result["spans"],
        "op_latencies_s": result["latencies"],
        "failures": result["failures"],
    }
    if args.trace:
        record["missing"] = result["missing"]
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tropfan", "__init__.py")):
        print("error: run from the repository root; src/tropfan is missing", file=sys.stderr)
        return 2
    try:
        metrics, units, result, setups = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = len(result["latencies"])
    failed = len(result["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<48} {'null' if value is None else f'{value:.6g}'} {units[name]}")
    print(f"  {'ops_failed_frac':<48} {failed / attempted:.6g} frac ({failed} of {attempted} ops failed)")
    if not args.trace:
        for name, value in seconds(result).items():
            print(f"  {name:<48} {value:.6g} s")
    print(f"  samples: {len(result['walls'])} passes over {attempted // len(result['walls'])} ops")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if args.trace and result["missing"]:
        print(f"  missing (reported as null): {', '.join(result['missing'])}")
    record = run_record(args, root, result, setups)
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
