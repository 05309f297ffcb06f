"""The per-layer trace of bench/layers.py still finds every name it wraps.

The benchmark wraps public functions of tropfan by name from outside the
program (`bench/layers.WRAPPED`). A renamed or deleted function, or a matrix
type the counter hooks cannot read, turns its metrics into null and fails a
traced benchmark run. This test runs the tracer on a small fan in a fresh
interpreter, reading bench/ and changing nothing there.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
import layers
import tropfan.duality, tropfan.fixtures, tropfan.io

tracer = layers.Tracer()
tracer.install()
wf = tropfan.io.parse_fan(tropfan.fixtures.text("surface_r3"))
tropfan.duality.is_tpd(wf)
print(json.dumps({"missing": tracer.missing, "metrics": tracer.metrics()}))
"""


def test_traced_run_has_no_missing_metrics():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert [name for name, value in result["metrics"].items() if value is None] == []
    assert result["metrics"]["duality.is_tpd.calls"] == 1
    assert result["metrics"]["exact.homology_of_pair.calls"] > 0
