"""JSON documents for fans and matroids, with canonical serialization.

All numbers are integers or exact "a/b" rational strings; serialization sorts
keys and is byte-stable, so parse -> serialize -> parse is the identity on
canonical documents. Parse errors carry the offending field (and JSON line
numbers when the text itself is malformed).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .exact import RingTag
from .fans import WeightedFan, build_fan
from .matroids import Matroid


class InputError(ValueError):
    """A malformed document or CLI input; maps to exit code 2."""


def _load_text(path_or_text) -> str:
    s = os.fspath(path_or_text) if isinstance(path_or_text, os.PathLike) else path_or_text
    if isinstance(s, str) and not s.lstrip().startswith("{"):
        try:
            with open(s, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as e:
            raise InputError(f"cannot read {s}: {e}") from None
    return s


def _decode(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer beyond the interpreter's digit limit
        raise InputError(f"malformed JSON: {e}") from None
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _is_int(v) -> bool:
    """JSON integers only: `true` and `false` decode to bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_index_list(v, bound) -> bool:
    return isinstance(v, list) and all(_is_int(i) and 0 <= i < bound for i in v)


def _int_field(doc, key):
    v = doc.get(key)
    if not _is_int(v):
        raise InputError(f"field {key!r} must be an integer")
    return v


def _weight_to_json(w):
    if isinstance(w, Fraction):
        return str(w) if w.denominator != 1 else int(w)
    return int(w)


def parse_fan(path_or_text) -> WeightedFan:
    """Parse a fan document into a validated weighted fan."""
    doc = _decode(_load_text(path_or_text))
    ambient = _int_field(doc, "ambient_rank")
    rays = doc.get("rays")
    if not isinstance(rays, list) or not rays:
        raise InputError("field 'rays' must be a nonempty list of integer vectors")
    for r in rays:
        if not isinstance(r, list) or len(r) != ambient or not all(_is_int(x) for x in r):
            raise InputError(f"ray {r!r} is not an integer vector of length {ambient}")
    cones = doc.get("maximal_cones")
    if not isinstance(cones, list) or not cones:
        raise InputError("field 'maximal_cones' must be a nonempty list of index lists")
    for c in cones:
        if not _is_index_list(c, len(rays)) or len(set(c)) != len(c):
            raise InputError(f"maximal cone {c!r} must list distinct ray indices in range")
    ring_text = doc.get("ring", "Z")
    if not isinstance(ring_text, str):
        raise InputError("field 'ring' must be a string (Z, Q or Fp:<p>)")
    try:
        ring = RingTag.parse(ring_text)
    except ValueError as e:
        raise InputError(f"field 'ring': {e}") from None
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != len(cones):
        raise InputError("field 'weights' must align with 'maximal_cones'")
    explicit = doc.get("faces")
    if explicit is not None:
        if not isinstance(explicit, list):
            raise InputError("field 'faces' must be a list of ray index lists")
        for f in explicit:
            if not _is_index_list(f, len(rays)):
                raise InputError(f"face {f!r} must list ray indices in range")
    try:
        fan = build_fan(ambient, rays, cones, explicit_faces=explicit)
    except ValueError as e:
        raise InputError(str(e)) from None
    weight_map = {}
    for c, w in zip(cones, weights):
        fid = fan.face_by_rays(c)
        if fid in weight_map:
            raise InputError(f"maximal cone {c!r} is listed twice")
        if isinstance(w, bool):
            raise InputError(f"weight {w!r} is not a number")
        if isinstance(w, str) and ring.kind != "Q":
            raise InputError("rational weight strings require ring Q")
        try:
            weight_map[fid] = ring.coerce(w)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"weight {w!r}: {e}") from None
    try:
        return WeightedFan(fan, ring, weight_map)
    except ValueError as e:
        raise InputError(str(e)) from None


def serialize_fan(wf: WeightedFan) -> str:
    """Canonical JSON for a weighted fan (sorted keys, exact numbers)."""
    fan = wf.fan
    cones = [list(fan.faces[fid].ray_indices) for fid in fan.top_faces()]
    weights = [_weight_to_json(wf.weight(fid)) for fid in fan.top_faces()]
    doc = {
        "ambient_rank": fan.ambient_rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": cones,
        "weights": weights,
        "ring": str(wf.ring),
    }
    if fan.explicit_faces is not None:
        doc["faces"] = sorted(fan.explicit_faces)
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def parse_matroid(path_or_text) -> Matroid:
    doc = _decode(_load_text(path_or_text))
    ground = _int_field(doc, "ground_size")
    bases = doc.get("bases")
    if not isinstance(bases, list) or not bases:
        raise InputError("field 'bases' must be a nonempty list of index lists")
    for b in bases:
        if not _is_index_list(b, ground):
            raise InputError(f"basis {b!r} must list ground set elements in range")
    try:
        return Matroid(ground, bases)
    except ValueError as e:
        raise InputError(str(e)) from None


def serialize_matroid(m: Matroid) -> str:
    doc = {"ground_size": m.ground_size, "bases": [sorted(b) for b in m.bases]}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def star_export_document(wf: WeightedFan, gamma: int) -> str:
    """A standalone description of the star of a face, for external tools.

    Member faces are re-indexed from 0 with the base face first (taking the
    vertex slot); each keeps its ray vectors and full lattice basis, and
    covering pairs carry the inherited incidence signs. Top-dimensional
    members keep their weights.
    """
    fan = wf.fan
    members = [gamma] + [f for f in fan.upper_set(gamma) if f != gamma]
    index = {fid: i for i, fid in enumerate(members)}
    faces = []
    for fid in members:
        cone = fan.faces[fid]
        faces.append(
            {
                "dim": cone.dim,
                "rays": [list(fan.rays[r]) for r in cone.ray_indices],
                "lattice_basis": [row[:] for row in cone.lattice_basis.data],
            }
        )
    covering = []
    for (t, s), sign in sorted(fan.covering.items()):
        if t in index and s in index:
            covering.append([index[t], index[s], sign])
    weights = [
        _weight_to_json(wf.weight(fid))
        for fid in members
        if fan.faces[fid].dim == fan.dim
    ]
    doc = {
        "kind": "star-export",
        "ambient_rank": fan.ambient_rank,
        "base_face": {
            "rays": [list(fan.rays[r]) for r in fan.faces[gamma].ray_indices],
            "dim": fan.faces[gamma].dim,
        },
        "faces": faces,
        "covering": covering,
        "weights": weights,
        "ring": str(wf.ring),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
