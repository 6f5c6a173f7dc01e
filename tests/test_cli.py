import dataclasses
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from conftest import CURVES_DIR, load_curve, random_generic_polygon
from curvefold import arrangement, cli, decomposition, folding, transforms, words
from curvefold.arrangement import PlaneCurve, build_arrangement
from curvefold.cli import _svg_num, main, render_svg
from curvefold.decomposition import ORACLE_SET_CAP, _KeyJudge, min_area_sod, sod_oracle
from curvefold.folding import is_self_overlapping
from curvefold.words import face_word


def run(*args):
    return CliRunner().invoke(main, list(args))


def curve_path(name):
    return str(CURVES_DIR / f"{name}.json")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_limacon():
    res = run("analyze", "--input", curve_path("limacon"))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rotation_number"] == 2
    assert doc["vertices"] == 1
    inner = next(f for f in doc["faces"] if f["id"] == 1)
    assert inner == {"id": 1, "area": "9.5", "winding": 2, "depth": 2}
    assert doc["winding_area"] == "98"      # 2*9.5 + 79
    assert doc["depth_area"] == "98"


@pytest.mark.parametrize("command", ["analyze", "selfoverlap"])
def test_huge_coordinates_keep_an_exact_rotation(tmp_path, command):
    big = 10 ** 200
    path = tmp_path / "huge_square.json"
    path.write_text(json.dumps({"points": [[0, 0], [big, 0], [big, big], [0, big]]}))
    res = run(command, "--input", str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["rotation_number"] == 1


def test_analyze_unit_weights_changes_nothing_geometric():
    res = run("analyze", "--input", curve_path("bowtie"), "--weights", "unit")
    doc = json.loads(res.output)
    # areas are still the geometric ones; only letter weights differ
    assert {f["area"] for f in doc["faces"]} == {"12"}
    assert doc["winding_area"] == "2"
    assert doc["depth_area"] == "2"


# ---------------------------------------------------------------------------
# word


def test_word_square():
    res = run("word", "--input", curve_path("square"))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["blank_word"]["word"] == ["1"]
    assert doc["nie_word"]["word"] == ["1"]
    assert doc["cable_order"] == [1]


def test_word_mouse_has_vertex_tokens():
    res = run("word", "--input", curve_path("mouse"))
    doc = json.loads(res.output)
    tokens = doc["combined_word"]
    assert sum(1 for t in tokens if t.startswith("v")) == 6
    letters = [t for t in tokens if not t.startswith("v")]
    assert sorted(letters) == sorted(doc["blank_word"]["word"])


# ---------------------------------------------------------------------------
# norm / selfoverlap / decompose / homotopy


def test_norm_with_oracle():
    res = run("norm", "--input", curve_path("one_ear"), "--oracle")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["norm"] == "380.5"           # f1 + 2*f3 = 3473/14 + 927/7
    assert doc["oracle"] == doc["norm"]
    assert doc["witness"]["area"] == doc["norm"]
    assert doc["witness"]["pairings"] == [[0, 3]]


def test_norm_unit_weights():
    res = run("norm", "--input", curve_path("one_ear"), "--weights", "unit")
    doc = json.loads(res.output)
    assert doc["norm"] == "3"


def test_selfoverlap_true_and_false():
    res = run("selfoverlap", "--input", curve_path("square"), "--oracle")
    doc = json.loads(res.output)
    assert res.exit_code == 0
    assert doc["self_overlapping"] is True
    assert doc["rotation_number"] == 1

    res = run("selfoverlap", "--input", curve_path("bowtie"))
    doc = json.loads(res.output)
    assert doc["self_overlapping"] is False
    assert doc["reason"] == "rotation_number=0"

    res = run("selfoverlap", "--input", curve_path("hook"), "--oracle")
    doc = json.loads(res.output)
    assert doc["self_overlapping"] is False
    assert doc["reason"] == "not_positively_foldable"
    assert doc["oracle"] is False


def test_decompose_with_oracle():
    res = run("decompose", "--input", curve_path("bowtie"), "--oracle")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["vertex_pairs"] == [0]
    assert doc["area"] == "24"
    assert doc["oracle_area"] == "24"
    assert sorted(p["rotation"] for p in doc["pieces"]) == [-1, 1]


@pytest.mark.parametrize("cmd, name, target, wrong", [
    ("norm", "one_ear", "norm_bruteforce", lambda w: Fraction(-1)),
    ("selfoverlap", "hook", "positively_foldable_bruteforce", lambda w: True),
    ("decompose", "bowtie", "sod_oracle",
     lambda cables, word: dataclasses.replace(sod_oracle(cables, word), area=Fraction(-1))),
], ids=["norm", "selfoverlap", "decompose"])
def test_oracle_disagreement_is_an_invariant_violation(monkeypatch, cmd, name, target, wrong):
    # an explicit check, so that it holds under python -O as well
    monkeypatch.setattr(cli, target, wrong)
    res = run(cmd, "--input", curve_path(name), "--oracle")
    assert res.exit_code == 3
    error = json.loads(res.output)["error"]
    assert error["code"] == "invariant_violation"
    assert error["message"].startswith(f"{cmd}: ")


def test_decompose_oracle_catches_a_wrong_judge(monkeypatch):
    # trefoil's sets {0}, {1} and {2} tie in area: a judge that rejects the
    # piece opened at vertex 0 makes the search return {1}, while the oracle
    # smooths and certifies every set on its own and returns {0}
    judge = _KeyJudge.__call__
    monkeypatch.setattr(_KeyJudge, "__call__",
                        lambda self, key: None if key[0] == 0 else judge(self, key))
    res = run("decompose", "--input", curve_path("trefoil"), "--oracle")
    assert res.exit_code == 3
    error = json.loads(res.output)["error"]
    assert error["code"] == "invariant_violation"
    assert error["message"].startswith("decompose: ")


def test_library_invariant_violation_names_its_stage(monkeypatch):
    monkeypatch.setattr(folding, "_positive_witness_ok", lambda word, witness: False)
    res = run("selfoverlap", "--input", curve_path("square"))
    assert res.exit_code == 3
    error = json.loads(res.output)["error"]
    assert error["code"] == "invariant_violation"
    assert error["message"].startswith("folding: ")


def test_out_of_memory_is_a_named_error(monkeypatch):
    def exhausted(word):
        raise MemoryError

    monkeypatch.setattr(cli, "cancellation_norm", exhausted)
    res = run("norm", "--input", curve_path("one_ear"))
    assert res.exit_code == 3
    assert json.loads(res.output)["error"] == {
        "code": "out_of_memory", "message": "norm ran out of memory"}


def test_homotopy_totals():
    res = run("homotopy", "--input", curve_path("one_ear"))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["total_area"] == doc["norm"] == "380.5"
    swept = sum(Fraction(s["contract"]["area"])
                for s in doc["steps"] if "contract" in s)
    assert swept == Fraction("380.5")
    cuts = [s["cut"] for s in doc["steps"] if "cut" in s]
    assert [c["face"] for c in cuts] == [2]


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_missing_file_is_input_error():
    res = run("norm", "--input", "/nonexistent.json")
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["error"]["code"] == "unreadable_input"


def test_invalid_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "invalid_json"


@pytest.mark.parametrize("raw", [b"\xff\xff", b"[" * 100_000],
                         ids=["undecodable-bytes", "nested-too-deep"])
def test_unparseable_json_is_input_error(tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["error"]["code"] == "invalid_json"


def test_degenerate_curve_is_input_error(tmp_path):
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps({"points": [[0, 0], [1, 1]]}))
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "DegenerateCurve"


def test_non_generic_curve_is_input_error(tmp_path):
    bad = tmp_path / "touch.json"
    bad.write_text(json.dumps(
        {"points": [[0, 0], [4, 3], [4, -3], [-4, 3], [-4, -3]]}))
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "NonGenericCurve"


@pytest.mark.parametrize("doc, message", [
    ([[0, 0], [1, 0], [0, 1]], "curve document must be an object with a 'points' field"),
    ({"weights": {}}, "curve document must be an object with a 'points' field"),
    ({"points": {"0": [0, 0]}}, "'points' must be a list"),
    ({"points": [[0, 0], [1, 0, 2], [0, 1]]}, "bad point entry [1, 0, 2]"),
    ({"points": [[0, 0], [True, 0], [0, 1]]}, "not a number: True"),
    ({"points": [[0, 0], [1, None], [0, 1]]}, "cannot parse coordinate None"),
], ids=["array", "no-points", "points-object", "three-numbers", "true", "null"])
def test_malformed_curve_document_is_input_error(tmp_path, doc, message):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["error"] == {"code": "MalformedInput", "message": message}


@pytest.mark.parametrize("cmd", ["analyze", "word", "norm", "selfoverlap", "decompose",
                                 "homotopy", "render"])
@pytest.mark.parametrize("doc", [
    '{"points": [[0, 0], [1e400, 0], [1, 1]]}',
    '{"points": [[0, 0], [1, NaN], [1, 1]]}',
    '{"points": [[0, 0], [1, 0], [1, 1]], "weights": {"1": -Infinity}}',
], ids=["overflow", "nan", "infinite-weight"])
def test_non_finite_numbers_are_input_errors(tmp_path, cmd, doc):
    # Python's JSON reader turns these literals into float inf and nan
    bad = tmp_path / "non_finite.json"
    bad.write_text(doc)
    res = run(cmd, "--input", str(bad))
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["error"]["code"] == "MalformedInput"


@pytest.mark.parametrize("doc", [
    {"points": [[0, 0], ["1e100000000", 0], [0, 1]]},
    {"points": [[0, 0], [1, 0], [0, 1]], "weights": {"1": "1e-100000000"}},
], ids=["coordinate", "weight"])
def test_huge_decimal_exponent_is_input_error(tmp_path, doc):
    # read as written, the exponent alone would make a 10^8-digit integer
    bad = tmp_path / "huge_exponent.json"
    bad.write_text(json.dumps(doc))
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["error"]["code"] == "MalformedInput"


@pytest.mark.parametrize("command", ["analyze", "norm"])
def test_exact_output_has_no_digit_limit(tmp_path, command):
    # the area, 10^4400 / 2, has more digits than str(int) prints by default
    path = tmp_path / "huge_triangle.json"
    path.write_text(json.dumps({"points": [[0, 0], ["1e2200", 0], [0, "1e2200"]]}))
    res = run(command, "--input", str(path))
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    area = doc["faces"][0]["area"] if command == "analyze" else doc["norm"]
    assert area == "5" + "0" * 4399


def test_non_generic_curve_with_a_huge_point_is_input_error(tmp_path):
    # the corner (M, M) lies on the segment from (M2, 0) to (0, M2); the
    # message names it with more digits than str(int) prints by default
    M = "1." + "0" * 98 + "1e4300"
    M2 = "2." + "0" * 98 + "2e4300"
    bad = tmp_path / "huge_touch.json"
    bad.write_text(json.dumps({"points": [[0, 0], [M2, M2], [M2, 0], [M, M], [0, M2]]}))
    res = run("analyze", "--input", str(bad))
    assert res.exit_code == 2, res.output
    error = json.loads(res.output)["error"]
    m = "1" + "0" * 98 + "1" + "0" * 4201          # M, exactly, in 4301 digits
    assert error == {"code": "NonGenericCurve",
                     "message": f"endpoint contact between segments 0 and 2 at ({m}, {m})"}


def test_selfoverlap_non_generic_curve_is_input_error(tmp_path):
    # rotation 0, so the verdict is known before the arrangement is built
    bad = tmp_path / "touch.json"
    bad.write_text(json.dumps(
        {"points": [[0, 0], [4, 3], [4, -3], [-4, 3], [-4, -3]]}))
    res = run("selfoverlap", "--input", str(bad))
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "NonGenericCurve"


@pytest.fixture
def builds(monkeypatch):
    """The curves passed to ``build_arrangement``, through every module
    that binds it."""
    calls = []

    def counted(curve):
        calls.append(curve)
        return build_arrangement(curve)

    for mod in (arrangement, words, folding, transforms, decomposition, cli):
        if getattr(mod, "build_arrangement", None) is build_arrangement:
            monkeypatch.setattr(mod, "build_arrangement", counted)
    return calls


@pytest.mark.parametrize("name", ["bowtie", "hook", "square"])
def test_selfoverlap_builds_the_arrangement_once(builds, name):
    res = run("selfoverlap", "--input", curve_path(name))
    assert res.exit_code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("weights_mode, count", [("area", 1), ("unit", 1)])
@pytest.mark.parametrize("cmd", ["analyze", "word", "norm", "selfoverlap",
                                 "decompose", "homotopy", "render",
                                 "render --decomposition", "decompose --oracle"])
def test_every_command_builds_the_arrangement_once(builds, cmd, weights_mode, count):
    res = run(*cmd.split(), "--input", curve_path("one_ear"), "--weights", weights_mode)
    assert res.exit_code == 0
    assert len(builds) == count


def _decomposition_and_oracle(curve):
    sod = min_area_sod(curve)
    sod_oracle(sod.cables, sod.word)        # reads the decomposition's cables


@pytest.mark.parametrize("fn", [is_self_overlapping, min_area_sod,
                                pytest.param(_decomposition_and_oracle, id="sod_oracle")])
def test_library_builds_the_arrangement_once(builds, fn):
    fn(load_curve("one_ear"))                  # rotation 1: the word is needed
    assert len(builds) == 1


def test_weights_file_mode_requires_weights(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"points": [[0, 0], [4, 0], [0, 4]]}))
    res = run("norm", "--input", str(plain), "--weights", "file")
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "missing_weights"


def test_weights_file_mode_uses_them(tmp_path):
    doc = {"points": [[0, 0], [4, 0], [0, 4]], "weights": {"1": "7/2"}}
    p = tmp_path / "weighted.json"
    p.write_text(json.dumps(doc))
    res = run("norm", "--input", str(p), "--weights", "file")
    assert res.exit_code == 0
    assert json.loads(res.output)["norm"] == "3.5"


def test_oracle_cap_reported(tmp_path, monkeypatch):
    # a 9-gon of rotation 1 whose face word has 20 letters
    curve, _ = random_generic_polygon(random.Random(40), 9)
    path = tmp_path / "long_word.json"
    path.write_text(json.dumps({"points": [[int(x), int(y)] for x, y in curve.points]}))
    for cmd, cap in [("norm", 14), ("selfoverlap", 12)]:
        res = run(cmd, "--input", str(path), "--oracle")
        assert res.exit_code == 2, res.output
        error = json.loads(res.output)["error"]
        assert error == {"code": "oracle_cap", "message": f"word length 20 exceeds cap {cap}"}
    # a 17-gon with 32 crossings and 9 664 unlinked vertex sets: the
    # decomposition oracle counts them before it smooths any
    curve, arr = random_generic_polygon(random.Random(7), 17)
    assert len(arr.vertices) == 32
    path.write_text(json.dumps({"points": [[int(x), int(y)] for x, y in curve.points]}))
    monkeypatch.setattr(decomposition, "smooth_at", lambda *args: pytest.fail("smoothed"))
    res = run("decompose", "--input", str(path), "--oracle")
    assert res.exit_code == 2, res.output
    error = json.loads(res.output)["error"]
    assert error == {"code": "oracle_cap",
                     "message": f"unlinked vertex sets exceed cap {ORACLE_SET_CAP}"}


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("cmd", ["analyze", "word", "norm", "decompose",
                                 "homotopy"])
def test_output_is_deterministic(cmd):
    a = run(cmd, "--input", curve_path("trefoil"))
    b = run(cmd, "--input", curve_path("trefoil"))
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_render_svg_stable_and_wellformed():
    a = run("render", "--input", curve_path("mouse"), "--decomposition")
    b = run("render", "--input", curve_path("mouse"), "--decomposition")
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("<svg ")
    assert a.output.rstrip().endswith("</svg>")
    import re
    assert not re.search(r"\de[+-]?\d", a.output)  # no float exponent notation
    import xml.etree.ElementTree as ET
    ET.fromstring(a.output)


def test_render_json_wraps_svg():
    res = run("render", "--input", curve_path("square"), "--format", "json",
              "--no-cables")
    doc = json.loads(res.output)
    assert doc["svg"].startswith("<svg ")


@pytest.mark.parametrize("corners, twin", [
    (((0, 0), (4, 0), (4, 4), (0, 4)), ("0", "4")),
    (((0.1, 0.1), (2.5, 0.1), (2.5, 2.5), (0.1, 2.5)), ("0.1", "2.5")),
], ids=["int", "float"])
def test_int_and_float_corners_build_and_render_like_their_fractions(corners, twin):
    """Library corners go through ``to_fraction``, as parsed ones do: no
    float reaches the arrangement or the drawing."""
    lo, hi = map(Fraction, twin)
    exact = PlaneCurve(((lo, lo), (hi, lo), (hi, hi), (lo, hi)))
    curve = PlaneCurve(corners)
    cables, word = face_word(curve)
    exact_cables, exact_word = face_word(exact)
    assert cables.arr == exact_cables.arr and word == exact_word
    svg = render_svg(cables.arr, cables=cables)
    assert svg == render_svg(exact_cables.arr, cables=exact_cables)
    assert curve == exact
    assert all(type(q) is Fraction for p in curve.points for q in p)
    assert f'viewBox="{_svg_num(lo - (hi - lo) / 10 - 1)} ' in svg


def test_render_svg_computes_the_bounding_box_once(monkeypatch):
    boxes = []

    def counted(arr):
        boxes.append(arr)
        return bbox(arr)

    bbox = cli._bbox
    monkeypatch.setattr(cli, "_bbox", counted)
    sod = min_area_sod(load_curve("mouse"))
    svg = render_svg(sod.cables.arr, cables=sod.cables, pieces=sod.subcurves)
    assert len(boxes) == 1
    assert svg.count("<text ") == len(sod.cables.arr.faces) - 1 == len(sod.cables.ordering)


def test_svg_points_are_formatted_without_fraction_arithmetic(monkeypatch):
    # every polyline of the 100-gon the bench draws as
    # draw_curve(random.Random("x-100"), 100), flipped about a p/q line
    _, arr = random_generic_polygon(random.Random("x-100"), 100, span=10 ** 6)
    geoms = [arr.curve.points] + [e.geometry for e in arr.edges]
    flip = Fraction(-10 ** 7, 3)
    want = [" ".join(f"{_svg_num(x)},{_svg_num(flip - y)}" for x, y in g) for g in geoms]
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, name=name, original=original:
                            ops.append(name) or original(*args))
    got = [cli._poly_points(g, flip) for g in geoms]
    monkeypatch.undo()
    assert ops == [] and got == want
    assert sum(len(g) for g in geoms) > 4 * len(arr.vertices) > 4000


def test_svg_numbers_have_no_digit_limit():
    assert _svg_num(Fraction(10 ** 5000)) == "1" + "0" * 5000
    assert _svg_num(Fraction(-10 ** 5000 - 1, 4)) == "-25" + "0" * 4998 + ".25"


def test_svg_numbers_exact():
    assert _svg_num(Fraction(1, 3)) == "0.333"
    assert _svg_num(Fraction(-5, 4)) == "-1.25"
    assert _svg_num(Fraction(2)) == "2"
    assert _svg_num(Fraction(1, 2000)) == "0.001"  # round half away from zero


@pytest.mark.parametrize("weights", [{"1": "2", "01": "3"}, {"01": "3", "1": "2"}],
                         ids=["1-then-01", "01-then-1"])
def test_weights_file_mode_refuses_a_face_named_twice(tmp_path, weights):
    # each key reads as face 1: keeping the last would make the norm
    # depend on the order of the keys
    p = tmp_path / "weighted.json"
    p.write_text(json.dumps({"points": [[0, 0], [4, 0], [0, 4]], "weights": weights}))
    res = run("norm", "--input", str(p), "--weights", "file")
    assert res.exit_code == 2, res.output
    assert json.loads(res.output) == {"error": {
        "code": "MalformedInput", "message": "'weights' names face 1 twice"}}


@pytest.mark.parametrize("weights,key", [({"+1": "2"}, "+1"), ({"1": "2", " 1": "3"}, " 1"),
                                         ({"1_0": "2"}, "1_0"), ({"\u0661": "2"}, "\u0661")],
                         ids=["plus-1", "1-then-space-1", "underscore", "arabic-indic-1"])
def test_weights_file_mode_refuses_a_face_id_beyond_ascii_decimals(tmp_path, weights, key):
    # int() reads every one of these keys; a face id is -?[0-9]+ alone
    p = tmp_path / "weighted.json"
    p.write_text(json.dumps({"points": [[0, 0], [4, 0], [0, 4]], "weights": weights}))
    res = run("norm", "--input", str(p), "--weights", "file")
    assert res.exit_code == 2, res.output
    assert json.loads(res.output) == {"error": {
        "code": "MalformedInput", "message": f"bad face id {key!r}"}}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_reports_a_missing_input_file(tmp_path, command):
    # every command is made by cli._command, which reads --input for it
    res = run(command, "--input", str(tmp_path / "missing.json"))
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["error"]["code"] == "unreadable_input"


def test_weights_file_mode_rejects_faces_the_curve_lacks(tmp_path):
    # face 0 is the unbounded face and the triangle has no face 9
    doc = {"points": [[0, 0], [4, 0], [0, 4]], "weights": {"1": "7/2", "9": "5", "0": "3"}}
    p = tmp_path / "weighted.json"
    p.write_text(json.dumps(doc))
    res = run("norm", "--input", str(p), "--weights", "file")
    assert res.exit_code == 2, res.output
    error = json.loads(res.output)["error"]
    assert error["code"] == "MalformedInput" and "[0, 9]" in error["message"]
