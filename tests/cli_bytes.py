"""Digest the output of a fixed sweep of CLI invocations.

Each invocation prints one line: its arguments, its exit code and a digest of
its stdout and stderr. The sweep runs the five fixtures and the Bergman fans
of U(3,5) and M(K4) under tpd, local-tpd, star-row, balance, euler, dim1 and
homology (each as text and as --json), plus star-export of face 1, over Z, Q,
Fp:2 and Fp:3 (420 invocations). Derived documents follow:
- over Q only, a copy of each document with its weights times 2/3 and one
  with its weights times 1/3, and `cross` with the weights 1/2, 2/3, 1/2,
  2/3, which is balanced with two denominators (225 invocations);
- over all four rings, an unbalanced copy of each document, its first weight
  raised by 1, so the face that `balance` names is pinned too (420);
- over Z and Fp:3, a copy of each document with its weights times 2, so
  failing caps print `determinant` witnesses at every fan (210);
- over Fp:5 and Fp:7, the seven base documents again: there some nonzero
  x is not its own inverse, as it always is mod 2 and mod 3, so a pivot
  used where its inverse belongs changes the output (210).
That is 1,485 invocations, in-process.

    python tests/cli_bytes.py            # print the digests
    python tests/cli_bytes.py --check    # compare with tests/cli_bytes.txt; exit 1 on a mismatch

The documents are copied into a fresh directory that becomes the working
directory, and are named by bare file names there, because --json echoes the
path it was given. This file is a script, not a pytest module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tropfan import io as tfio  # noqa: E402
from tropfan.cli import run_cli  # noqa: E402
from tropfan.matroids import Matroid, bergman_fan  # noqa: E402

FIXTURES = ["cross", "curve_r3", "surface_r3", "surface_r4", "u34_bergman"]
COMMANDS = ["tpd", "local-tpd", "star-row", "balance", "euler", "dim1", "homology"]
RINGS = ["Z", "Q", "Fp:2", "Fp:3"]
GOLDEN = HERE / "cli_bytes.txt"


def graphic_k4() -> Matroid:
    """The spanning trees of K4: the three-edge sets that touch all four vertices."""
    edges = list(combinations(range(4), 2))
    bases = [list(t) for t in combinations(range(6), 3) if len({v for e in t for v in edges[e]}) == 4]
    return Matroid(len(edges), bases)


def _json_weight(w):
    w = Fraction(w)
    return int(w) if w.denominator == 1 else str(w)


def _write_variant(directory: Path, name: str, base: dict, weights, ring: str) -> str:
    """Write a copy of the document base with other weights and ring."""
    doc = dict(base, weights=[_json_weight(w) for w in weights], ring=ring)
    (directory / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return f"{name}.json"


def write_documents(directory: Path):
    """Write every fan document of the sweep into directory; return pairs
    (name, rings) in sweep order."""
    for name in FIXTURES:
        shutil.copy(HERE.parent / "src" / "tropfan" / "fixtures" / f"{name}.json", directory / f"{name}.json")
    for name, matroid in (("U35", Matroid.uniform(3, 5)), ("MK4", graphic_k4())):
        (directory / f"{name}.json").write_text(tfio.serialize_fan(bergman_fan(matroid)), encoding="utf-8")
    names = FIXTURES + ["U35", "MK4"]
    bases = {name: json.loads((directory / f"{name}.json").read_text(encoding="utf-8")) for name in names}
    documents = [(f"{name}.json", RINGS) for name in names]
    for name in names:
        weights = bases[name]["weights"]
        for num, den in ((2, 3), (1, 3)):
            scaled = [Fraction(w) * num / den for w in weights]
            documents.append((_write_variant(directory, f"{name}_x{num}_{den}", bases[name], scaled, "Q"), ["Q"]))
    mixed = [Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(2, 3)]
    documents.append((_write_variant(directory, "cross_mixed", bases["cross"], mixed, "Q"), ["Q"]))
    for name in names:
        weights = bases[name]["weights"]
        raised = [weights[0] + 1] + weights[1:]
        documents.append((_write_variant(directory, f"{name}_unbalanced", bases[name], raised, bases[name]["ring"]), RINGS))
    for name in names:
        doubled = [2 * Fraction(w) for w in bases[name]["weights"]]
        documents.append((_write_variant(directory, f"{name}_x2", bases[name], doubled, "Z"), ["Z", "Fp:3"]))
    documents += [(f"{name}.json", ["Fp:5", "Fp:7"]) for name in names]
    return documents


def invocations(documents):
    for doc, rings in documents:
        for ring in rings:
            for cmd in COMMANDS:
                for extra in ([], ["--json"]):
                    yield [cmd, "--fan", doc, "--ring", ring] + extra
            yield ["star-export", "--fan", doc, "--ring", ring, "--face", "1"]


def digest_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except Exception as e:  # an uncaught error is output too
            code = f"raised {type(e).__name__}: {e}"
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()[:16]
    return f"{' '.join(argv)} | exit {code} | {digest}"


def sweep():
    directory = Path(tempfile.mkdtemp(prefix="cli_bytes_"))
    cwd = os.getcwd()
    try:
        documents = write_documents(directory)
        os.chdir(directory)
        return [digest_line(argv) for argv in invocations(documents)]
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory)


def main(argv) -> int:
    lines = sweep()
    if "--check" not in argv:
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    mismatched = [f"- {e}\n+ {a}" for e, a in zip(expected, lines) if e != a]
    if len(expected) != len(lines):
        mismatched.append(f"{len(expected)} lines expected, {len(lines)} produced")
    for m in mismatched:
        print(m)
    print(f"{len(lines)} invocations, {len(mismatched)} mismatches")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
