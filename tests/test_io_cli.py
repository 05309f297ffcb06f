"""Document parsing, canonical serialization, and the CLI surface."""

import contextlib
import io
import json
import os
import random
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import fixtures
from tropfan.cli import run_cli
from tropfan.io import (
    InputError,
    parse_fan,
    parse_matroid,
    serialize_fan,
    serialize_matroid,
    star_export_document,
)
from tropfan.fans import WeightedFan, build_fan
from tropfan.matroids import Matroid, bergman_fan

from helpers import Q, Z, graphic_k4, square_cone_fan, weighted

ALL_FIXTURES = ["cross", "curve_r3", "surface_r4", "surface_r3", "u34_bergman"]


class TestParse:
    def test_round_trip_all_golden_documents(self):
        for name in ALL_FIXTURES:
            text = fixtures.text(name)
            wf = parse_fan(text)
            assert serialize_fan(wf) == text
            again = parse_fan(serialize_fan(wf))
            assert serialize_fan(again) == text

    def test_cross_document(self):
        wf = fixtures.load("cross")
        assert wf.fan.face_count() == 5
        assert wf.ring == Z

    def test_curve_document_is_balanced(self):
        from tropfan.duality import is_balanced

        wf = fixtures.load("curve_r3")
        assert sorted(wf.fan.rays) == sorted(
            [(1, 0, 2), (-1, 0, 0), (0, -1, 0), (0, 1, -2)]
        )
        assert is_balanced(wf)

    def test_malformed_json(self):
        with pytest.raises(InputError, match="line"):
            parse_fan('{"ambient_rank": 2,\n "rays": [[1, 0],]}')

    def test_non_primitive_ray(self):
        doc = {
            "ambient_rank": 1,
            "rays": [[2]],
            "maximal_cones": [[0]],
            "weights": [1],
            "ring": "Z",
        }
        with pytest.raises(InputError, match="primitive"):
            parse_fan(json.dumps(doc))

    def test_zero_weight(self):
        doc = {
            "ambient_rank": 1,
            "rays": [[1], [-1]],
            "maximal_cones": [[0], [1]],
            "weights": [1, 0],
            "ring": "Z",
        }
        with pytest.raises(InputError, match="zero-divisor"):
            parse_fan(json.dumps(doc))

    def test_composite_modulus(self):
        doc = {
            "ambient_rank": 1,
            "rays": [[1], [-1]],
            "maximal_cones": [[0], [1]],
            "weights": [1, 1],
            "ring": "Fp:4",
        }
        with pytest.raises(InputError, match="not prime"):
            parse_fan(json.dumps(doc))

    def test_non_string_ring(self):
        doc = {"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], "weights": [1, 1], "ring": 3}
        with pytest.raises(InputError, match="ring"):
            parse_fan(json.dumps(doc))

    def test_oversized_modulus(self):
        doc = {"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], "weights": [1, 1],
               "ring": f"Fp:{10**25}"}
        with pytest.raises(InputError, match="too large"):
            parse_fan(json.dumps(doc))

    def test_rational_weight_needs_ring_q(self):
        doc = {
            "ambient_rank": 1,
            "rays": [[1], [-1]],
            "maximal_cones": [[0], [1]],
            "weights": ["1/2", 1],
            "ring": "Z",
        }
        with pytest.raises(InputError, match="ring Q"):
            parse_fan(json.dumps(doc))
        doc["ring"] = "Q"
        wf = parse_fan(json.dumps(doc))
        assert serialize_fan(wf).count("1/2") == 1

    def test_weight_count_mismatch(self):
        doc = {
            "ambient_rank": 1,
            "rays": [[1], [-1]],
            "maximal_cones": [[0], [1]],
            "weights": [1],
            "ring": "Z",
        }
        with pytest.raises(InputError, match="align"):
            parse_fan(json.dumps(doc))

    def test_explicit_faces_document(self):
        doc = {
            "ambient_rank": 3,
            "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
            "maximal_cones": [[0, 1, 2, 3]],
            "faces": [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2, 3]],
            "weights": [1],
            "ring": "Z",
        }
        wf = parse_fan(json.dumps(doc))
        assert wf.fan.face_count() == 10
        text = serialize_fan(wf)
        assert json.loads(text)["faces"] is not None
        assert serialize_fan(parse_fan(text)) == text

    def test_matroid_documents(self):
        m = parse_matroid('{"ground_size": 4, "bases": ' + json.dumps(
            [sorted(b) for b in [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]]
        ) + "}")
        assert m.rank == 3
        m2 = parse_matroid(serialize_matroid(m))
        assert m2.bases == m.bases
        u23 = parse_matroid('{"ground_size": 3, "bases": [[0,1],[0,2],[1,2]]}')
        assert u23.rank == 2
        with pytest.raises(InputError):
            parse_matroid('{"ground_size": 3, "bases": []}')

    def test_star_export_shape(self):
        wf = fixtures.load("u34_bergman")
        ray = wf.fan.face_by_rays([0])
        doc = json.loads(star_export_document(wf, ray))
        assert doc["kind"] == "star-export"
        assert doc["faces"][0]["dim"] == 1  # the base face takes the vertex slot
        assert len(doc["faces"]) == 4
        assert len(doc["weights"]) == 3
        for t, s, sign in doc["covering"]:
            assert sign in (1, -1) and t == 0 and s in (1, 2, 3)


def _relabelled(wf, rng):
    """The weighted fan under a signed permutation of the coordinates and a
    reordering of its rays, maximal cones and listed faces, built through
    `build_fan` as a library caller would."""
    fan = wf.fan
    n = fan.ambient_rank
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    order = rng.sample(range(len(fan.rays)), len(fan.rays))
    new_index = {old: new for new, old in enumerate(order)}
    rays = [[signs[i] * fan.rays[old][perm[i]] for i in range(n)] for old in order]

    def relabel(ray_indices):
        return rng.sample([new_index[r] for r in ray_indices], len(ray_indices))

    tops = rng.sample(fan.top_faces(), len(fan.top_faces()))
    cones = [relabel(fan.faces[f].ray_indices) for f in tops]
    faces = None
    if fan.explicit_faces is not None:
        faces = rng.sample([relabel(f) for f in fan.explicit_faces], len(fan.explicit_faces))
    new = build_fan(n, rays, cones, explicit_faces=faces)
    return WeightedFan(new, wf.ring, {new.face_by_rays(c): wf.weight(f) for c, f in zip(cones, tops)})


ROUND_TRIP_FANS = {name: (lambda name=name: fixtures.load(name)) for name in fixtures.NAMES}
ROUND_TRIP_FANS.update({
    "U(3,5)": lambda: bergman_fan(Matroid.uniform(3, 5)),
    "M(K4)": lambda: bergman_fan(graphic_k4()),
    "square_cone": lambda: weighted(square_cone_fan(), [1]),
})


@pytest.mark.parametrize("name", list(ROUND_TRIP_FANS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_serialize_parse_serialize_is_byte_stable(name, seed):
    wf = _relabelled(ROUND_TRIP_FANS[name](), random.Random(seed))
    text = serialize_fan(wf)
    assert serialize_fan(parse_fan(text)) == text


class TestCli:
    def _write(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(fixtures.text(name))
        return str(path)

    def test_tpd_exit_codes(self, tmp_path, capsys):
        good = self._write(tmp_path, "surface_r4")
        assert run_cli(["tpd", "--fan", good]) == 0
        out = capsys.readouterr().out
        assert "rank 1" in out and "rank 4" in out and "rank 5" in out
        bad = self._write(tmp_path, "surface_r3")
        assert run_cli(["tpd", "--fan", bad]) == 1

    def test_balance_witness_and_exit(self, tmp_path, capsys):
        doc = json.loads(fixtures.text("cross"))
        doc["weights"] = [1, 2, 1, 1]
        path = tmp_path / "bad_cross.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["balance", "--fan", str(path)]) == 1
        assert "witness facet" in capsys.readouterr().out
        good = self._write(tmp_path, "cross")
        assert run_cli(["balance", "--fan", good]) == 0

    def test_bergman_local_tpd_pipeline(self, tmp_path):
        matroid = tmp_path / "u34.json"
        matroid.write_text(
            '{"ground_size": 4, "bases": [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}'
        )
        out = tmp_path / "u34_fan.json"
        assert run_cli(["bergman", "--matroid", str(matroid), "-o", str(out)]) == 0
        assert run_cli(["local-tpd", "--fan", str(out), "--ring", "Z"]) == 0

    def test_homology_json_report(self, tmp_path, capsys):
        path = self._write(tmp_path, "cross")
        assert run_cli(["homology", "--fan", path, "--ring", "Z", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "homology"
        assert report["results"]["H_1^BM(F_0)"] == "R^3"
        assert report["results"]["H_0^BM(F_0)"] == "0"

    def test_cohomology_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "cross")
        assert run_cli(["cohomology", "--fan", path, "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "H^0(F^1) = R^2" in out

    def test_euler_command(self, tmp_path):
        path = self._write(tmp_path, "surface_r4")
        assert run_cli(["euler", "--fan", path]) == 0
        path3 = self._write(tmp_path, "surface_r3")
        assert run_cli(["euler", "--fan", path3]) == 1

    def test_dim1_command(self, tmp_path):
        path = self._write(tmp_path, "curve_r3")
        assert run_cli(["dim1", "--fan", path]) == 0
        cross = self._write(tmp_path, "cross")
        assert run_cli(["dim1", "--fan", cross]) == 1

    def test_star_row_command(self, tmp_path):
        path = self._write(tmp_path, "u34_bergman")
        assert run_cli(["star-row", "--fan", path]) == 0

    def test_star_export_command(self, tmp_path):
        path = self._write(tmp_path, "u34_bergman")
        out = tmp_path / "star.json"
        assert run_cli(["star-export", "--fan", path, "--face", "1", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "star-export"

    def test_input_errors_exit_two(self, tmp_path, capsys):
        assert run_cli(["tpd", "--fan", str(tmp_path / "missing.json")]) == 2
        assert run_cli(["tpd", "--no-such-flag"]) == 2
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["tpd", "--fan", str(bad)]) == 2
        path = self._write(tmp_path, "cross")
        assert run_cli(["homology", "--fan", path, "--p", "7"]) == 2
        assert run_cli(["euler", "--fan", path]) == 2  # ring Z document
        capsys.readouterr()

    def test_oversized_ring_flag_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "cross")
        assert run_cli(["homology", "--fan", path, "--ring", f"Fp:{10**25 + 13}"]) == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("ring", ["Fp:4", "R"])
    def test_bergman_bad_ring_exits_two(self, tmp_path, capsys, ring):
        path = tmp_path / "u34.json"
        path.write_text(serialize_matroid(Matroid.uniform(3, 4)))
        assert run_cli(["bergman", "--matroid", str(path), "--ring", ring]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command, doc",
        [
            # The two documents from the report: `true` as a ray index and a weight.
            ("balance", {"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [True]], "weights": [1, 1]}),
            ("balance", {"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], "weights": [True, 1]}),
            ("balance", {"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], "weights": [1, False]}),
            ("balance", {"ambient_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                         "maximal_cones": [[0], [1], [2]], "faces": [[], [0], [True], [2]], "weights": [1, 1, 1]}),
            ("bergman", {"ground_size": 3, "bases": [[0, 1], [0, 2], [True, 2]]}),
        ],
        ids=["cone-index", "weight-true", "weight-false", "face-index", "matroid-basis"],
    )
    def test_json_booleans_exit_two(self, tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        flag = "--matroid" if command == "bergman" else "--fan"
        assert run_cli([command, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "u34_bergman")
        assert run_cli(["local-tpd", "--fan", path, "--threads", "2"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --threads 2" in captured.err and not captured.out

    def test_outputs_are_verdict_stable(self, tmp_path, capsys):
        # Same input twice: identical report bytes (determinism).
        path = self._write(tmp_path, "u34_bergman")
        run_cli(["tpd", "--fan", path, "--json"])
        first = capsys.readouterr().out
        run_cli(["tpd", "--fan", path, "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestCliUnbalancedAndQ:
    @pytest.mark.parametrize("command", ["tpd", "local-tpd", "euler", "dim1"])
    def test_unbalanced_fan_exits_two(self, tmp_path, capsys, command):
        doc = json.loads(fixtures.text("cross"))
        doc["weights"] = [1, 2, 1, 1]
        path = tmp_path / "bad_cross.json"
        path.write_text(json.dumps(doc))
        assert run_cli([command, "--fan", str(path), "--ring", "Q"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: fan is not balanced (fails at face 0)\n"
        assert "Traceback" not in captured.err and not captured.out

    def test_q_outputs_hold_no_fraction_repr(self, tmp_path, capsys):
        for name in ALL_FIXTURES:
            path = tmp_path / f"{name}.json"
            path.write_text(fixtures.text(name))
            for command in ["tpd", "local-tpd", "homology", "star-row"]:
                for extra in ([], ["--json"]):
                    run_cli([command, "--fan", str(path), "--ring", "Q"] + extra)
                    captured = capsys.readouterr()
                    assert "Fraction(" not in captured.out + captured.err, (name, command, extra)

    def test_q_witness_is_the_integer_free_class(self, tmp_path, capsys):
        path = tmp_path / "surface_r3.json"
        path.write_text(fixtures.text("surface_r3"))
        assert run_cli(["tpd", "--fan", str(path), "--ring", "Q", "--json"]) == 1
        entries = json.loads(capsys.readouterr().out)["results"]["entries"]
        witnesses = [e["witness"] for e in entries if not e["ok"]]
        assert witnesses == ["class [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, -1, 0]", "rank mismatch 3 vs 5"]


FAN_COMMANDS = [
    ["balance"],
    ["homology"],
    ["cohomology"],
    ["tpd"],
    ["local-tpd"],
    ["euler", "--ring", "Q"],
    ["dim1"],
    ["star-export", "--face", "0"],
    ["star-row"],
]


class TestCliRejectsUnboundedOrIncompleteInput:
    @pytest.mark.parametrize("command", FAN_COMMANDS, ids=lambda c: c[0])
    def test_face_list_without_intermediate_faces_exits_two(self, tmp_path, capsys, command):
        # The complete fan of the projective plane, listing its 2-cones only.
        doc = {
            "ambient_rank": 2,
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "maximal_cones": [[0, 1], [1, 2], [0, 2]],
            "faces": [[0, 1], [1, 2], [0, 2]],
            "weights": [1, 1, 1],
        }
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(doc))
        assert run_cli([command[0], "--fan", str(path)] + command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: face [] of dimension 0 lies in no face of dimension 1; list every face of the fan\n"
        )
        assert not captured.out

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            # One simplicial cone on 18 unit rays: 2^18 faces.
            ("balance", "--fan", {"ambient_rank": 18, "rays": [[int(i == j) for j in range(18)] for i in range(18)],
                                  "maximal_cones": [list(range(18))], "weights": [1]}),
            # The free matroid on 12 elements: 2^12 flats and 12! maximal chains.
            ("bergman", "--matroid", {"ground_size": 12, "bases": [list(range(12))]}),
        ],
        ids=["cone-18-rays", "free-matroid-12"],
    )
    def test_oversized_documents_exit_two_quickly(self, tmp_path, capsys, command, flag, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli([command, flag, str(path)]) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "more than 5000" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            # Three elements carry the bases; the others are loops. 10^7 keeps
            # code that scans the ground set over the time bound without
            # exhausting memory; test_matroids runs 10^9 with closures disabled.
            ("bergman", "--matroid", '{"ground_size": 10000000, "bases": [[0, 1], [0, 2], [1, 2]]}'),
            # JSON integers beyond the interpreter's 4,300-digit limit.
            ("tpd", "--fan", '{"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], '
                             '"weights": [1, 1%s]}' % ("0" * 4400)),
            ("bergman", "--matroid", '{"ground_size": 1%s, "bases": [[0]]}' % ("0" * 4400)),
            # Q weights outside the integer and "a/b" forms: a 12-byte string
            # denoting a ten-million-digit number, and one that parses but
            # cannot be serialized back.
            ("tpd", "--fan", '{"ambient_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]], '
                             '"weights": ["1e10000000", 1], "ring": "Q"}'),
            ("star-export --face 1", "--fan", '{"ambient_rank": 1, "rays": [[1], [-1]], '
                                              '"maximal_cones": [[0], [1]], "weights": ["1e5000", "1e5000"], '
                                              '"ring": "Q"}'),
            ("tpd", "--fan", "[" * 100000 + "]" * 100000),
        ],
        ids=["huge-ground-set", "long-int-weight", "long-int-ground-size", "exponent-weight",
             "exponent-weight-export", "deep-nesting"],
    )
    def test_hostile_documents_exit_two_quickly(self, tmp_path, capsys, command, flag, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        start = time.perf_counter()
        assert run_cli(command.split() + [flag, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not captured.out


_NONZERO = st.integers(-6, 6).filter(bool)


@st.composite
def _curve_documents(draw):
    name = draw(st.sampled_from(["cross", "curve_r3"]))
    doc = json.loads(fixtures.text(name))
    n = len(doc["weights"])
    if draw(st.booleans()):
        doc["weights"] = [draw(_NONZERO) * w for w in doc["weights"]]  # balanced
    else:
        doc["weights"] = draw(st.lists(_NONZERO, min_size=n, max_size=n))
    return doc


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_curve_documents())
def test_cli_certificates_never_raise(doc):
    # Every command ends in a verdict (0 or 1) or an input error (2); no
    # exception escapes run_cli, whatever the weights.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fan.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for ring in ["Z", "Q", "Fp:3"]:
            for command in ["balance", "tpd", "local-tpd", "euler", "dim1"]:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = run_cli([command, "--fan", path, "--ring", ring])
                assert code in (0, 1, 2), (command, ring, code)
