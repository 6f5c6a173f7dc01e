import random
from fractions import Fraction

import pytest

from conftest import (CORPUS, CURVES_DIR, RANDOM_POLYGONS, load_curve, pipeline,
                      random_generic_polygon)
from curvefold.arrangement import (UNIT_WEIGHTS, DegenerateCurve, MalformedInput,
                                   NonGenericCurve, PlaneCurve, build_arrangement, face_measures,
                                   fraction_str, int_str, parse_curve, rotation_number,
                                   to_fraction, tree_cotree, turning_of_directions)
from curvefold.words import parse_word

# frozen per-curve facts: rotation, vertex count, {face: (area, winding, depth)}
EXPECTED = {
    "bowtie": (0, 1, {1: ("12", -1, 1), 2: ("12", 1, 1)}),
    "hook": (1, 2, {1: ("9", 2, 2), 2: ("74", 1, 1), 3: ("12", -1, 1)}),
    "limacon": (2, 1, {1: ("9.5", 2, 2), 2: ("79", 1, 1)}),
    "mouse": (0, 3, {1: ("3445/14", 1, 1), 2: ("8", 0, 2),
                     3: ("843/14", 2, 2), 4: ("8", 0, 2)}),
    "one_ear": (1, 2, {1: ("3473/14", 1, 1), 2: ("8", 0, 2),
                       3: ("927/14", 2, 2)}),
    "pentagram": (-2, 5, {1: ("121/35", -1, 1), 2: ("1024/105", -2, 2),
                          3: ("608/105", -1, 1), 4: ("608/105", -1, 1),
                          5: ("121/35", -1, 1), 6: ("4", -1, 1)}),
    "spiral": (3, 2, {1: ("101008/1813", 2, 2), 2: ("155586/1813", 1, 1),
                      3: ("774/37", 3, 3)}),
    "square": (1, 0, {1: ("16", 1, 1)}),
    "trefoil": (2, 3, {1: ("2223/88", 2, 2), 2: ("2385/176", 1, 1),
                       3: ("2385/176", 1, 1), 4: ("9.375", 1, 1)}),
}


def test_corpus_is_covered():
    assert set(CORPUS) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_frozen_invariants(name):
    rot, nv, faces = EXPECTED[name]
    curve, arr, _, _, _ = pipeline(name)
    assert rotation_number(curve) == rot
    assert len(arr.vertices) == nv
    got = {f.id: (fraction_str(f.signed_area), f.winding, f.depth)
           for f in arr.faces[1:]}
    assert got == faces


def test_corpus_rotations_match_readme():
    rows = {}
    for line in (CURVES_DIR / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].endswith(".json`"):
            rows[cells[0].strip("`")[:-len(".json")]] = int(cells[2].replace("\u2212", "-"))
    assert set(rows) == set(CORPUS)
    for name, rot in rows.items():
        assert rotation_number(load_curve(name)) == rot, name


def test_reversing_the_points_negates_the_rotation(corpus_name):
    curve = load_curve(corpus_name)
    assert rotation_number(PlaneCurve(curve.points[::-1])) == -rotation_number(curve)


def test_rotation_is_exact_at_huge_coordinates():
    big = 10 ** 200
    curve = parse_curve({"points": [[0, 0], [big, 0], [big, big], [0, big]]})
    assert rotation_number(curve) == 1
    assert rotation_number(PlaneCurve(curve.points[::-1])) == -1


def test_direction_reversal_has_no_rotation():
    with pytest.raises(NonGenericCurve):
        rotation_number(parse_curve({"points": [[0, 0], [4, 0], [2, 0]]}))
    with pytest.raises(NonGenericCurve):
        turning_of_directions([(Fraction(1), Fraction(0)), (Fraction(-3), Fraction(0))])


def test_euler_formula(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    v, e, f = len(arr.vertices), len(arr.edges), len(arr.faces)
    if v == 0:
        # crossing-free loop: one edge forming a closed cycle, two faces
        assert (e, f) == (1, 2)
    else:
        assert v - e + f == 2
        assert all(len(vert.darts_ccw) == 4 for vert in arr.vertices)
        assert e == 2 * v


def test_build_hashes_no_fraction_and_sums_each_edge_into_two_faces(monkeypatch):
    """Crossings are keyed by segment pair and faces traced over integer
    dart ids; each edge's area enters its left and its right face once."""
    # the 100-gon the bench draws as draw_curve(random.Random("x-100"), 100)
    curve, _ = random_generic_polygon(random.Random("x-100"), 100, span=10 ** 6)
    calls = {"hash": 0, "add": 0}

    def count(name, kind):
        original = getattr(Fraction, name)

        def counted(*args):
            calls[kind] += 1
            return original(*args)
        monkeypatch.setattr(Fraction, name, counted)

    count("__hash__", "hash")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        count(name, "add")
    arr = build_arrangement(curve)
    monkeypatch.undo()
    assert len(arr.vertices) == 1185
    assert calls["hash"] == 0
    assert calls["add"] <= 2 * len(arr.edges), calls


def test_build_and_measures_add_and_order_no_fraction(monkeypatch):
    """Crossings are ordered by integer keys, and the face areas and the two
    area totals are int sums: no ``Fraction`` is added, subtracted or
    compared by order from the corners to the measures."""
    seed, corners = RANDOM_POLYGONS[7]
    curves = [load_curve("mouse"), random_generic_polygon(random.Random(seed), corners)[0]]
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__lt__", "__gt__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, name=name, original=original:
                            ops.append(name) or original(*args))
    measures = []
    for curve in curves:
        arr = build_arrangement(curve)
        measures.append((arr, face_measures(arr)))
    # the counters see a Fraction operation
    assert Fraction(1, 2) < Fraction(1, 3) + 1 and ops == ["__add__", "__lt__"]
    monkeypatch.undo()
    for arr, got in measures:
        assert len(arr.vertices) > 2
        assert got["area_w"] == sum(abs(f.winding) * arr.face_weights[f.id] for f in arr.faces[1:])


def test_traversal_covers_each_edge_once(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    # step t walks edge t forwards: dart 2t
    assert list(arr.traversal) == [2 * e.id for e in arr.edges]
    assert [e.id for e in arr.edges] == list(range(len(arr.edges)))
    # consecutive darts chain head-to-tail; a dart's head is its twin's tail
    n = len(arr.traversal)
    for k in range(n):
        head = arr.dart_tail(arr.traversal[k] ^ 1)
        tail = arr.dart_tail(arr.traversal[(k + 1) % n])
        assert head == tail


def test_face_boundaries_consistent(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    for face in arr.faces:
        for d in face.boundary:
            e = arr.edges[d >> 1]
            assert (e.right_face if d & 1 else e.left_face) == face.id
    # every dart lies on exactly one face boundary
    total = sum(len(f.boundary) for f in arr.faces)
    assert total == 2 * len(arr.edges)


def test_unbounded_face_has_depth_zero_winding_zero(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    outer = arr.faces[0]
    assert outer.depth == 0 and outer.winding == 0 and outer.unbounded
    for f in arr.faces[1:]:
        assert f.depth >= 1 and not f.unbounded
        assert f.signed_area > 0


def test_depth_is_dual_distance(corpus_name):
    """Depth rises by one from each face's cotree parent and by at most one
    across any edge, so it is the distance to the unbounded face in the dual."""
    _, arr, tc, _, _ = pipeline(corpus_name)
    assert arr.faces[0].depth == 0
    for f in arr.faces[1:]:
        assert f.depth == arr.faces[tc.parent_face[f.id]].depth + 1
    for e in arr.edges:
        assert abs(arr.faces[e.left_face].depth - arr.faces[e.right_face].depth) <= 1


def test_winding_changes_by_one_across_edges(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    for e in arr.edges:
        wl = arr.faces[e.left_face].winding
        wr = arr.faces[e.right_face].winding
        assert wl - wr == 1


def test_tree_cotree_partition(corpus_name):
    _, arr, tc, _, _ = pipeline(corpus_name)
    assert tc.cotree <= {e.id for e in arr.edges}
    assert len(tc.cotree) == len(arr.faces) - 1  # spanning tree of the dual
    # the rest, the tree, spans the crossings
    assert len(arr.edges) - len(tc.cotree) == max(len(arr.vertices) - 1, 0)
    for f in arr.faces[1:]:
        path = []
        cur = f.id
        while cur != 0:
            path.append(cur)
            cur = tc.parent_face[cur]
        assert len(path) == f.depth


def crossing_sign(arr, vid):
    """+1 if the second pass crosses the first from right to left."""
    (x1, y1), (x2, y2) = (arr.edges[k].directions[0] for k in arr.vertex_passes[vid])
    c = x1 * y2 - y1 * x2
    assert c != 0, "a transverse crossing cannot have parallel strands"
    return 1 if c > 0 else -1


def test_crossing_signs():
    expected = {"bowtie": [1], "spiral": [-1, -1],
                "pentagram": [1, -1, 1, -1, 1], "mouse": [1, 1, 1]}
    for name, signs in expected.items():
        _, arr, _, _, _ = pipeline(name)
        assert [crossing_sign(arr, v.id) for v in arr.vertices] == signs


def test_vertex_passes(corpus_name):
    _, arr, _, _, _ = pipeline(corpus_name)
    for vid, (a, b) in arr.vertex_passes.items():
        assert a != b
        assert arr.dart_tail(arr.traversal[a]) == vid
        assert arr.dart_tail(arr.traversal[b]) == vid


def test_rejects_too_few_points():
    with pytest.raises(DegenerateCurve):
        PlaneCurve(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def test_rejects_repeated_point():
    with pytest.raises(DegenerateCurve):
        parse_curve({"points": [[0, 0], [0, 0], [1, 1]]})


def test_rejects_endpoint_contact():
    # a crossing that coincides with a polyline vertex is not generic
    with pytest.raises(NonGenericCurve):
        build_arrangement(parse_curve(
            {"points": [[0, 0], [4, 3], [4, -3], [-4, 3], [-4, -3]]}))


def test_rejects_overlapping_segments():
    with pytest.raises(NonGenericCurve):
        build_arrangement(parse_curve(
            {"points": [[0, 0], [10, 0], [5, 5], [5, 0], [5, -5], [2, 0],
                        [1, -5]]}))


@pytest.mark.parametrize("parse", [parse_curve, parse_word])
@pytest.mark.parametrize("doc", [b"\xff\xff", "[" * 100_000, "{not json"],
                         ids=["undecodable-bytes", "nested-too-deep", "bad-syntax"])
def test_unreadable_json_is_malformed_input(parse, doc):
    with pytest.raises(MalformedInput, match="invalid JSON"):
        parse(doc)


@pytest.mark.parametrize("points", [[[0, 0], [4, 0], [0, 4]],
                                    [[0, 0], [2, 0], [0, 2], [2, 2]]],
                         ids=["crossing-free", "bowtie"])
def test_weights_may_name_only_bounded_faces(points):
    with pytest.raises(MalformedInput, match=r"\[0, 9\]"):
        build_arrangement(parse_curve({"points": points,
                                       "weights": {"1": "7/2", "9": "5", "0": "3"}}))
    arr = build_arrangement(parse_curve({"points": points, "weights": {"1": "7/2"}}))
    assert arr.face_weights[1] == Fraction(7, 2)


def test_unit_weights_weigh_every_bounded_face_one(corpus_name):
    curve = load_curve(corpus_name)
    arr = build_arrangement(PlaneCurve(curve.points, UNIT_WEIGHTS))
    assert arr.face_weights == {f.id: 1 for f in arr.faces[1:]}


@pytest.mark.parametrize("parse, doc", [
    (parse_curve, {"points": [[0, 0], [4, 0], [0, 4]], "weights": {"1": "1/0"}}),
    (parse_word, {"word": ["1", "-1"], "weights": {"1": "1/0"}}),
], ids=["curve", "word"])
def test_bad_weight_is_named_with_its_face(parse, doc):
    with pytest.raises(MalformedInput, match=r"^bad weight '1/0' for face 1$"):
        parse(doc)


def test_rational_parsing_and_printing():
    assert to_fraction("1/3") == Fraction(1, 3)
    assert to_fraction("2.5") == Fraction(5, 2)
    assert to_fraction(7) == Fraction(7)
    assert fraction_str(Fraction(5, 2)) == "2.5"
    assert fraction_str(Fraction(-5, 4)) == "-1.25"
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert fraction_str(Fraction(4)) == "4"


def test_printing_has_no_digit_limit():
    # str(int) refuses more than 4300 digits by default; int_str prints
    # in chunks of 600
    for k in (599, 600, 601, 1200, 5000):
        assert int_str(10 ** k) == "1" + "0" * k
        assert int_str(10 ** k + 1) == "1" + "0" * (k - 1) + "1"
        assert int_str(-(10 ** k - 1) // 9 * 7) == "-" + "7" * k
    assert fraction_str(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert fraction_str(Fraction(-1, 10 ** 5000)) == "-0." + "0" * 4999 + "1"


def test_exact_rational_coordinates_work():
    curve = parse_curve({"points": [["1/3", "0"], ["10/3", "1/7"],
                                    ["2", "5/2"]]})
    arr = build_arrangement(curve)
    assert arr.faces[1].signed_area > 0
