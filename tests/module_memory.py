"""Peak memory and time of the multi-tangent modules and of local TPD, one
fresh process per reading.

    python tests/module_memory.py                # each reading once
    python tests/module_memory.py --repeat 3     # three rounds; medians at the end
    python tests/module_memory.py --src DIR      # import tropfan from DIR instead

A reading builds the Bergman fan of U(5,7) (3,151 faces) or of M(K3,3)
(4,207 faces), then either every multi-tangent module, p = 0..dim
(`modules`), or `is_local_tpd` over Z (`local_tpd`, which builds the
modules itself). It prints the seconds of that step and `ru_maxrss` of the
process after it, in MiB. Each reading runs in a new interpreter, so no
reading inherits another's peak. The package is imported from the `src`
next to this directory unless --src names another. This file is a script,
not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
FANS = ("U(5,7)", "M(K3,3)")
STEPS = ("modules", "local_tpd")


def _k33(Matroid):
    """M(K3,3): the spanning trees of the complete bipartite graph on 3 + 3
    vertices, 5 of its 9 edges that join all six vertices without a cycle."""
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    bases = []
    for tree in combinations(range(len(edges)), 5):
        root = list(range(6))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for e in tree:
            a, b = (find(v) for v in edges[e])
            if a == b:
                break
            root[a] = b
        else:
            bases.append(list(tree))
    return Matroid(len(edges), bases)


def _child(fan_name, step):
    from tropfan.duality import is_local_tpd
    from tropfan.matroids import Matroid, bergman_fan

    matroid = Matroid.uniform(5, 7) if fan_name == "U(5,7)" else _k33(Matroid)
    wf = bergman_fan(matroid)
    start = time.perf_counter()
    if step == "modules":
        for p in range(wf.fan.dim + 1):
            wf.fan.multitangent(p)
    elif not is_local_tpd(wf).verdict:
        raise SystemExit(f"{fan_name} is not local TPD")
    seconds = time.perf_counter() - start
    mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"faces": wf.fan.face_count(), "s": round(seconds, 3), "mib": round(mib, 1)}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--src", default=str(HERE.parent / "src"))
    ap.add_argument("--child", nargs=2, metavar=("FAN", "STEP"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    if args.child:
        _child(*args.child)
        return
    readings = {(f, s): [] for f in FANS for s in STEPS}
    for _ in range(args.repeat):
        for fan_name, step in readings:
            cmd = [sys.executable, __file__, "--src", args.src, "--child", fan_name, step]
            out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            readings[fan_name, step].append(out)
            print(f"{fan_name:8} {step:10} {out['faces']} faces  {out['s']:7.3f} s  {out['mib']:6.1f} MiB", flush=True)
    if args.repeat > 1:
        print("medians:")
        for (fan_name, step), outs in readings.items():
            s = statistics.median(o["s"] for o in outs)
            mib = statistics.median(o["mib"] for o in outs)
            print(f"{fan_name:8} {step:10} {s:7.3f} s  {mib:6.1f} MiB")


if __name__ == "__main__":
    main()
