"""Regenerates the golden answers in bench/golden/ from the current program.

    python3 bench/make_golden.py

Run from the repository root. Answers are the program's own at the time of
writing, so regenerate only when a change to verdicts, groups or status
strings is intended, and say so. Each workload's answers are computed on
both golden seeds and must agree, since a seed only relabels the corpus
surfaces; corpus answers must also match the verdict rule in
workloads.corpus_expected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile


def answers(workload, seed):
    import workloads

    workdir = tempfile.mkdtemp(prefix="golden-", dir=os.path.join(os.getcwd(), ".bench_out"))
    try:
        out = {}
        for op in workloads.SETUP[workload](seed, workdir):
            out[op.name] = op.run()
            if op.rule is not None and out[op.name] != op.rule:
                raise SystemExit(f"{workload} seed {seed}: {op.name} breaks the verdict rule")
        return out
    finally:
        shutil.rmtree(workdir)


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.makedirs(os.path.join(os.getcwd(), ".bench_out"), exist_ok=True)
    import workloads

    for workload in workloads.SETUP:
        first, second = (answers(workload, seed) for seed in workloads.GOLDEN_SEEDS)
        if first != second:
            raise SystemExit(f"{workload}: answers depend on the seed")
        with open(workloads.golden_path(workload), "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(first)} ops")


if __name__ == "__main__":
    main()
