"""One workload in one process: set up, then run ops and check their answers.

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1
        --mode setup|run --spawned-at T --workdir DIR

Started by run.py from the root of a checkout, with `T` the parent's
`time.monotonic()` just before the start (the clock is shared by all
processes), so set-up time counts interpreter start and imports. `--mode
setup` stops after set-up. `--mode run` then runs passes over all ops: one
pass when tracing, else at least MIN_PASSES passes and more until the next
one, if it took as long as the last, would end after S seconds. While the
passes run untraced, a timer signal runs `probe` every PROBE_EVERY seconds,
in the middle of whatever op is running; the probes' own time is left out
of every op latency and pass wall. The last line of standard output is a
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import signal
import sys
import time

# Every op is timed at least this often, so that its median latency is not
# a single sample.
MIN_PASSES = 2

PROBE_LOOPS = 5_000  # about 0.5 ms
PROBE_EVERY = 0.05  # seconds, so probes take about 1% of the run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    import workloads

    ops = workloads.SETUP[args.workload](args.seed, args.workdir)
    random.Random(args.seed).shuffle(ops)
    workloads.attach_golden(args.workload, ops)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode == "run":
        out.update(run_passes(ops, workloads.check, args.seconds, once=tracer is not None))
        out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["trace"] = tracer.metrics()
            out["missing"] = tracer.missing
    print(json.dumps(out))


def probe():
    """Seconds one run of a fixed pure-Python loop takes.

    The loop calls nothing in the program and creates no object the cyclic
    garbage collector tracks, so its time follows only the host's speed.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s = (s * 31 + i) % 1000003
    return time.perf_counter() - t0


class Prober:
    """Runs `probe` every PROBE_EVERY seconds from a SIGALRM handler while
    entered, and keeps (start, seconds) of each probe in `samples`.

    The probes run inside the ops, so they see the host's speed while each
    op runs; probes run next to an op track its time far worse, because the
    speed of a shared host changes within a fraction of a second.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds_since(self, k, until):
        """Time spent in the probes from the k-th on that started before
        `until`."""
        return sum(s for t, s in self.samples[k:] if t < until)


def run_passes(ops, check, seconds, once):
    walls, latencies, spans, failures = [], [], [], []
    prober = Prober()
    first = time.perf_counter()
    with contextlib.nullcontext() if once else prober:
        while True:
            start, pass_k = time.perf_counter(), len(prober.samples)
            for op in ops:
                k = len(prober.samples)
                t0 = time.perf_counter()
                try:
                    answer = op.run()
                    reason = None
                except Exception as e:  # a failed op is counted, not fatal
                    answer = None
                    reason = f"raised {type(e).__name__}: {e}"
                t1 = time.perf_counter()
                latencies.append([op.name, t1 - t0 - prober.seconds_since(k, t1)])
                spans.append([t0, t1])
                reason = reason or check(op, answer)
                if reason:
                    failures.append(f"{op.name}: {reason}")
            end = time.perf_counter()
            walls.append(end - start - prober.seconds_since(pass_k, end))
            if once or (len(walls) >= MIN_PASSES and end - first + (end - start) > seconds):
                break
    return {"walls": walls, "latencies": latencies, "spans": spans, "failures": failures, "probes": prober.samples}


if __name__ == "__main__":
    main()
