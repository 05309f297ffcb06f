"""Inputs, ops and answers of the three benchmark workloads.

A workload is built in two steps. `SETUP[name](seed, workdir)` generates
every input document and serializes it (Bergman fans, matroid flats and the
random surface corpus are all paid for here); the seed relabels every
corpus surface, while the Bergman fans and the fixtures are used as they
are, and child.py runs the ops in an order drawn from the seed.
It returns a list of `Op`s; running an op parses its document into a fresh
fan, computes, and returns an answer: a JSON-ready dict of exit codes,
verdicts and group or status strings that is compared against the golden
answers.

The library is reached through module attributes (`fans.build_fan`, not a
name imported into this module), so the traced run, which patches those
attributes, sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

import tropfan.cli as cli
import tropfan.complexes as complexes
import tropfan.duality as duality
import tropfan.exact as exact
import tropfan.fans as fans
import tropfan.fixtures
import tropfan.io as tfio
import tropfan.matroids as matroids

FIXTURES = ("cross", "curve_r3", "surface_r3", "surface_r4", "u34_bergman")

# A seed only relabels the corpus surfaces (see `relabeled`), so the answers
# do not depend on it; make_golden.py checks that on these two seeds.
GOLDEN_SEEDS = (47, 48)

# The corpus is the test suite's randomized surface corpus, drawn from this
# seed whatever --seed is; --seed relabels its fans. Drawing the surfaces
# from --seed instead would change the mix of fan sizes, and so the time,
# from seed to seed.
CORPUS_SEED = 47
CORPUS_SIZE = 50
CORPUS_SCALES = (1, -1, 2, -2, 3)


@dataclass
class Op:
    name: str
    run: object  # zero-argument callable returning the answer dict
    expected: dict | None = None  # golden answer
    rule: dict | None = None  # answer the mathematics predicts, corpus only


# ---------------------------------------------------------------------------
# Matroids and documents


def uniform(rank, n):
    return matroids.Matroid.uniform(rank, n)


def graphic_k4():
    """The cycle matroid of K4: its bases are the spanning trees."""
    edges = list(combinations(range(4), 2))
    bases = []
    for tree in combinations(range(len(edges)), 3):
        parent = list(range(4))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for e in tree:
            a, b = root(edges[e][0]), root(edges[e][1])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            bases.append(tree)
    return matroids.Matroid(len(edges), bases)


BERGMAN = {
    "U35": lambda: uniform(3, 5),
    "U36": lambda: uniform(3, 6),
    "MK4": graphic_k4,
    "U38": lambda: uniform(3, 8),
    "U45": lambda: uniform(4, 5),
    "U47": lambda: uniform(4, 7),
    "U48": lambda: uniform(4, 8),
}


def relabeled(doc_text: str, rng: random.Random) -> str:
    """The same weighted fan under a seeded signed permutation of the
    ambient coordinates and a seeded reordering of rays and cones.

    This is a lattice automorphism, so verdicts, groups and face counts do
    not change, and entry sizes stay as they are, so the work stays close to
    constant across seeds. Face ids, stored bases and pivot orders do change.
    """
    doc = json.loads(doc_text)
    n = doc["ambient_rank"]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rays = [[signs[i] * r[perm[i]] for i in range(n)] for r in doc["rays"]]
    order = list(range(len(rays)))
    rng.shuffle(order)  # order[new index] = old index
    new_index = {old: new for new, old in enumerate(order)}
    doc["rays"] = [rays[old] for old in order]
    cones = [(sorted(new_index[i] for i in c), w) for c, w in zip(doc["maximal_cones"], doc["weights"])]
    rng.shuffle(cones)
    doc["maximal_cones"] = [c for c, _ in cones]
    doc["weights"] = [w for _, w in cones]
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def bergman_document(name: str) -> str:
    """The Bergman fan as bergman_fan builds it, not relabeled: a relabeling
    changes the pivot order of the large eliminations, and with it their
    time, from seed to seed."""
    return tfio.serialize_fan(matroids.bergman_fan(BERGMAN[name]()))


def fixture_document(name: str) -> str:
    path = os.path.join(os.path.dirname(tropfan.fixtures.__file__), name + ".json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# tpd_cli: whole commands through the in-process CLI


def cli_answer(command: str, rc: int, report: dict) -> dict:
    results = report["results"]
    if command == "tpd":
        return {"exit": rc, "results": results}
    # Face ids move under relabeling; the multiset of per-face reports does not.
    counts = {}
    for rep in results["faces"].values():
        key = json.dumps(rep, sort_keys=True)
        counts[key] = counts.get(key, 0) + 1
    return {
        "exit": rc,
        "ring": results["ring"],
        "verdict": results["verdict"],
        "face_reports": [[n, json.loads(k)] for k, n in sorted(counts.items())],
    }


def _cli_op(command, doc_path, ring, out_path):
    def run():
        argv = [command, "--fan", doc_path, "--ring", ring, "--json", "-o", out_path]
        rc = cli.run_cli(argv)
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out_path)
        return cli_answer(command, rc, report)

    return run


# `tpd` runs on every document over both rings, except the two large ones.
# U(4,5) runs over F_3 only: over Z it takes about 10 s, so a run could time
# it only twice and its host noise would set wall_s. U(3,8) over Z is the
# large integer elimination instead. `local-tpd` runs on U(3,6) over Z.
#
# The 19 ops are chosen so that the two percentiles fall on steady ranks:
# the median op is the middle one of five ops of about the same size (tpd
# on the three surface fixtures over Z, on U(3,5) and M(K4) over F_3), not
# one at the edge of a gap in op sizes, and the nearest-rank p90 is the
# second largest op, which takes long enough for its host noise to average
# out.
TPD_RINGS = {"U38": ("Z",), "U45": ("Fp:3",)}
LOCAL_TPD = ("U36",)


def setup_tpd_cli(seed: int, workdir: str):
    docs = {name: bergman_document(name) for name in ("U35", "U36", "MK4", "U38", "U45")}
    docs.update({name: fixture_document(name) for name in FIXTURES})
    paths = {}
    for name, text in docs.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    out = os.path.join(workdir, "report.json")
    ops = []
    for name in docs:
        for ring in TPD_RINGS.get(name, ("Z", "Fp:3")):
            ops.append(Op(f"tpd:{name}:{ring}", _cli_op("tpd", paths[name], ring, out)))
    for name in LOCAL_TPD:
        ops.append(Op(f"local-tpd:{name}:Z", _cli_op("local-tpd", paths[name], "Z", out)))
    return ops


# ---------------------------------------------------------------------------
# theorem_corpus: the star theorems over a corpus of random surfaces


def _content(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def _corpus_matroids():
    return [matroids.Matroid(3, [[0, 1, 2]]), uniform(3, 4), uniform(3, 5)]


def stellar_subdivide(wf, cone_index: int):
    """Subdivide one two-dimensional cone at the primitive sum of its rays."""
    fan = wf.fan
    tops = fan.top_faces()
    fid = tops[cone_index % len(tops)]
    i, j = fan.faces[fid].ray_indices
    rays = [list(r) for r in fan.rays]
    s = [a + b for a, b in zip(rays[i], rays[j])]
    c = _content(s)
    s = [x // c for x in s]
    if tuple(s) in {tuple(r) for r in rays}:
        return wf
    rays.append(s)
    k = len(rays) - 1
    cones, weights = [], []
    for t in tops:
        w = wf.weight(t)
        if t == fid:
            cones.extend([[i, k], [k, j]])
            weights.extend([w, w])
        else:
            cones.append(list(fan.faces[t].ray_indices))
            weights.append(w)
    new_fan = fans.build_fan(fan.ambient_rank, rays, cones)
    return fans.WeightedFan(new_fan, wf.ring, {new_fan.face_by_rays(c): w for c, w in zip(cones, weights)})


def corpus_surfaces():
    """Yields (weighted fan over Z, scale, field ring or None), 50 times,
    drawing as the test suite's generator does: base matroid, subdivision
    count, a cone per subdivision, scale, field ring."""
    base = _corpus_matroids()
    rings = [exact.RingTag.Q(), exact.RingTag.Fp(2), exact.RingTag.Fp(3)]
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        wf = matroids.bergman_fan(rng.choice(base))
        for _ in range(rng.randint(0, 2)):
            wf = stellar_subdivide(wf, rng.randrange(100))
        scale = rng.choice(CORPUS_SCALES)
        wf = fans.WeightedFan(wf.fan, exact.RingTag.Z(), {f: w * scale for f, w in wf.weights.items()})
        ring = rng.choice(rings)
        if ring.kind == "Fp" and any(w % ring.p == 0 for w in wf.weights.values()):
            ring = None
        yield wf, scale, ring


def corpus_answer(stars, local) -> dict:
    return {
        "stars": {
            "ring": str(stars.ring),
            "global_vanishing": stars.global_vanishing,
            "proper_stars_tpd": stars.proper_stars_tpd,
            "conclusion": stars.conclusion,
            "status": stars.status,
            "ray_stars_tpd": stars.ray_stars_tpd,
        },
        "local": local.to_dict(),
    }


def corpus_expected(ring: str, scale: int) -> dict:
    """The answer the theory predicts for a corpus surface.

    Every surface is supported on a matroidal fan, so all star homology is
    concentrated in the top degree over every ring, and duality at a star
    holds exactly when the weights are units: over Z when the scale is +-1,
    over a field always (scales divisible by the characteristic are skipped
    when the corpus is drawn). This is checked on every seed, in addition to
    the golden answers.
    """
    unit = scale in (1, -1) if ring == "Z" else True
    over_z = unit if ring == "Z" else None
    return {
        "stars": {
            "ring": ring,
            "global_vanishing": True,
            "proper_stars_tpd": unit,
            "conclusion": unit,
            "status": "holds" if unit else "hypothesis-violated",
            "ray_stars_tpd": unit,
        },
        "local": {
            "ring": ring,
            "all_star_vanishing": True,
            "codim1_stars_tpd": unit,
            "characterization": unit,
            "direct": unit,
            "unit_weights": over_z,
            "codim1_uniquely_balanced": over_z,
        },
    }


def _corpus_op(doc_text):
    def run():
        wf = tfio.parse_fan(doc_text)
        stars = duality.tpd_from_stars_check(wf)
        local = duality.local_tpd_characterization(wf)
        return corpus_answer(stars, local)

    return run


def setup_theorem_corpus(seed: int, workdir: str):
    ops = []
    for i, (wf, scale, field_ring) in enumerate(corpus_surfaces()):
        for ring in (wf.ring, field_ring):
            if ring is None:
                continue
            doc = relabeled(tfio.serialize_fan(wf.with_ring(ring)), random.Random(f"{seed}:surface{i}"))
            ops.append(Op(f"surface{i}:{ring}", _corpus_op(doc), rule=corpus_expected(str(ring), scale)))
    return ops


# ---------------------------------------------------------------------------
# construct: fan, multi-tangent modules and Borel-Moore complexes, no homology


def _construct_op(doc_text):
    def run():
        wf = tfio.parse_fan(doc_text)
        fan = wf.fan
        modules = [fan.multitangent(p) for p in range(fan.dim + 1)]
        z = exact.RingTag.Z()
        chains = []
        for p in range(fan.dim + 1):
            cx = complexes.bm_chain_complex(fan, p, z)
            chains.append([cx.rank(q) for q in cx.degrees])
        return {
            "faces_by_dim": [len(fan.faces_of_dim(k)) for k in range(fan.dim + 1)],
            "module_ranks": [sum(m.rank(f) for f in range(fan.face_count())) for m in modules],
            "chain_ranks": chains,
        }

    return run


def setup_construct(seed: int, workdir: str):
    return [Op(f"construct:{name}", _construct_op(bergman_document(name))) for name in ("U47", "U48")]


SETUP = {
    "tpd_cli": setup_tpd_cli,
    "theorem_corpus": setup_theorem_corpus,
    "construct": setup_construct,
}


# ---------------------------------------------------------------------------
# Golden answers


def golden_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", f"{workload}.json")


def attach_golden(workload: str, ops) -> None:
    """Sets `expected` on every op from the workload's golden answers."""
    with open(golden_path(workload), encoding="utf-8") as fh:
        golden = json.load(fh)
    if sorted(golden) != sorted(op.name for op in ops):
        raise ValueError(f"golden answers for {workload} do not match its ops")
    for op in ops:
        op.expected = golden[op.name]


def check(op: Op, answer: dict) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if answer != op.expected:
        return "differs from the golden answer"
    if op.rule is not None and answer != op.rule:
        return "differs from the answer the theory predicts"
    return None
