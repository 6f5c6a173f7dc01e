import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from blank_cuts import (InvalidPairing, NotAStack, blank_cut, cut_along_folding, is_good,
                        stack_decompose)
from conftest import (CORPUS, RANDOM_POLYGONS, cyclic_equal, face_counts, load_curve, pipeline,
                      random_generic_polygon)
from curvefold import arrangement, decomposition, words
from curvefold.arrangement import rotation_number, tree_cotree
from curvefold.decomposition import (InvalidDecomposition, LinkedVertices,
                                     SelfOverlappingDecomposition, Subcurve, _unlinked_keys,
                                     certify_subcurve, curve_subcurve, homotopy_trace,
                                     min_area_sod, smooth_at, sod_oracle, sod_to_folding)
from curvefold.folding import (Folding, Pairing, cancellation_norm, chords_cross,
                               complete_to_maximal)
from curvefold.words import CyclicWord, build_cable_system, face_word


def full_piece(name):
    _, arr, _, cables, _ = pipeline(name)
    return curve_subcurve(arr, cables)


def entry_passes(sc):
    """Each crossing of the piece -> the entry indices of its two passes."""
    chords = {}
    for v in sc.crossings():
        hits = [i for i, e in enumerate(sc.entries) if e.tail_vertex == v]
        chords[v] = (hits[0], hits[1])
    return chords


# ---------------------------------------------------------------------------
# the whole curve as a subcurve


def test_full_subcurve_matches_word(corpus_name):
    _, arr, _, cables, word = pipeline(corpus_name)
    sc = curve_subcurve(arr, cables)
    assert sc.word().letters == word.letters
    assert sc.positions() == tuple(range(len(word)))
    for f in arr.faces[1:]:
        assert face_counts(sc.word(), f.id) == (f.winding, f.depth)
    assert sc.crossings() == sorted(v.id for v in arr.vertices)
    # each crossing's chord is the pair of passes the arrangement records
    assert entry_passes(sc) == arr.vertex_passes


def test_full_subcurve_rotation(corpus_name):
    curve, _, _, _, _ = pipeline(corpus_name)
    assert full_piece(corpus_name).rotation == rotation_number(curve)


@pytest.mark.parametrize("seed,corners", RANDOM_POLYGONS)
def test_full_subcurve_rotation_on_random_polygons(seed, corners):
    # the pieces split segments at crossings, so parallel steps occur
    curve, arr = random_generic_polygon(random.Random(seed), corners)
    cables = build_cable_system(arr, tree_cotree(arr))
    sc = curve_subcurve(arr, cables)
    assert sc.rotation == rotation_number(curve)
    assert entry_passes(sc) == arr.vertex_passes


# ---------------------------------------------------------------------------
# smoothing at crossings


def test_vertices_linked():
    assert chords_cross((0, 4), (2, 6))
    assert not chords_cross((0, 4), (5, 6))
    assert not chords_cross((1, 6), (2, 4))  # nested


def test_smooth_bowtie_splits_into_loops():
    sc = full_piece("bowtie")
    pieces = smooth_at(sc, [0])
    assert len(pieces) == 2
    assert sorted(p.rotation for p in pieces) == [-1, 1]
    # letters are partitioned between the pieces
    letters = sorted(l for p in pieces for l in p.letters())
    assert letters == sorted(sc.letters())
    for p in pieces:
        assert p.crossings() == []


def test_smooth_linked_vertices_rejected():
    sc = full_piece("pentagram")
    chords = entry_passes(sc)
    linked = [(u, v) for u, v in itertools.combinations(sorted(chords), 2)
              if chords_cross(chords[u], chords[v])]
    assert linked  # the star polygon interleaves its crossings
    with pytest.raises(LinkedVertices):
        smooth_at(sc, linked[0])


def test_smooth_unknown_vertex_rejected():
    with pytest.raises(LinkedVertices):
        smooth_at(full_piece("bowtie"), [99])


def test_smoothing_preserves_letters(corpus_name):
    sc = full_piece(corpus_name)
    for v in sc.crossings():
        pieces = smooth_at(sc, [v])
        assert len(pieces) == 2
        got = sorted(l for p in pieces for l in p.letters())
        assert got == sorted(sc.letters())
        # the smoothed vertex belongs to neither piece's crossing list
        for p in pieces:
            assert v not in p.crossings()


# ---------------------------------------------------------------------------
# goodness and sign-changing crossings


def test_is_good_on_corpus():
    expected = {
        "square": True, "limacon": True, "spiral": True, "trefoil": True,
        "bowtie": True, "pentagram": True, "hook": True,
        "mouse": False, "one_ear": False,
    }
    for name, good in expected.items():
        assert is_good(full_piece(name)) == good, name


def dart_face(arr, d):
    """The face on the left of dart id d: 2e walks edge e forwards, 2e + 1
    backwards."""
    e = arr.edges[d >> 1]
    return e.right_face if d & 1 else e.left_face


def faces_around_vertex(arr, vid):
    """The four incident faces in ccw wedge order."""
    darts = arr.vertices[vid].darts_ccw
    wedges = tuple(dart_face(arr, d) for d in darts)
    for k, d in enumerate(darts):
        nxt = darts[(k + 1) % 4]
        assert dart_face(arr, nxt ^ 1) == wedges[k], "wedge faces disagree"
    return wedges


def sign_changing_vertices(sc):
    """Crossings whose four wedge windings read [+1, 0, -1, 0] cyclically."""
    wind = sc.windings()
    out = []
    for v in sc.crossings():
        ws = [wind.get(f, 0) for f in faces_around_vertex(sc.arr, v)]
        for r in range(4):
            if [ws[(r + t) % 4] for t in range(4)] == [1, 0, -1, 0]:
                out.append(v)
                break
    return out


def test_faces_around_vertex_wedges():
    _, arr, _, _, _ = pipeline("bowtie")
    wedges = faces_around_vertex(arr, 0)
    assert len(wedges) == 4
    assert sorted(wedges) == [0, 0, 1, 2]
    # the two bounded lobes sit in opposite wedges
    assert abs(wedges.index(1) - wedges.index(2)) == 2


def test_sign_changing_vertex_of_bowtie():
    sc = full_piece("bowtie")
    assert sign_changing_vertices(sc) == [0]


def test_no_sign_change_in_positive_stacks():
    for name in ("limacon", "spiral", "trefoil"):
        assert sign_changing_vertices(full_piece(name)) == []


# ---------------------------------------------------------------------------
# cutting along pairings


def test_blank_cut_one_ear():
    sc = full_piece("one_ear")   # word 2' 3 1 2 3
    a, b = blank_cut(sc, Pairing(0, 3))
    la, lb = sorted([a.letters(), b.letters()], key=len)
    assert la == ((3, 1),)
    assert lb == ((3, 1), (1, 1))
    assert a.area_w() + b.area_w() == cancellation_norm(sc.word())[0]


def test_blank_cut_rejects_non_inverse_positions():
    sc = full_piece("one_ear")
    with pytest.raises(InvalidPairing):
        blank_cut(sc, Pairing(1, 4))       # 3 against 3: same sign
    with pytest.raises(InvalidPairing):
        blank_cut(sc, Pairing(2, 2))


def test_cut_along_maximal_folding_gives_good_pieces():
    whole = [full_piece(name) for name in CORPUS]
    for seed, corners in RANDOM_POLYGONS:
        _, arr = random_generic_polygon(random.Random(seed), corners)
        whole.append(curve_subcurve(arr, build_cable_system(arr, tree_cotree(arr))))
    for sc in whole:
        value, witness = cancellation_norm(sc.word())
        maximal = complete_to_maximal(sc.word(), witness)
        pieces = cut_along_folding(sc, maximal)
        assert len(pieces) == len(maximal.pairings) + 1
        for piece in pieces:
            assert is_good(piece)
        kept = sorted(p for piece in pieces for p in piece.positions())
        paired = set(maximal.paired_positions)
        assert kept == [i for i in range(len(sc.word())) if i not in paired]


# ---------------------------------------------------------------------------
# stacks


@pytest.mark.parametrize("name,k", [("square", 1), ("limacon", 2),
                                    ("trefoil", 2), ("spiral", 3)])
def test_stack_decompose(name, k):
    sc = full_piece(name)
    pieces = stack_decompose(sc)
    assert len(pieces) == k
    for p in pieces:
        assert p.rotation == 1
        ok, _ = certify_subcurve(p)
        assert ok
    letters = sorted(l for p in pieces for l in p.letters())
    assert letters == sorted(sc.letters())


@pytest.mark.parametrize("name,reason", [
    ("hook", "both signs"),        # windings of both signs
    ("bowtie", "both signs"),
    ("mouse", "mixed letter signs"),
])
def test_stack_decompose_rejects(name, reason):
    with pytest.raises(NotAStack, match=reason):
        stack_decompose(full_piece(name))


# ---------------------------------------------------------------------------
# minimum-area self-overlapping decomposition


def test_min_area_sod_matches_norm(corpus_name):
    curve, _, _, _, word = pipeline(corpus_name)
    sod = min_area_sod(curve)
    assert sod.area == cancellation_norm(word)[0]
    assert len(sod.subcurves) == len(sod.vertex_pairs) + 1
    for piece in sod.subcurves:
        ok, cert = certify_subcurve(piece)
        assert ok
    total = sum((p.area_w() for p in sod.subcurves), Fraction(0))
    assert total == sod.area


def test_min_area_sod_agrees_with_oracle(corpus_name):
    curve, _, _, _, _ = pipeline(corpus_name)
    sod = min_area_sod(curve)
    # the same vertex set, pieces and area: ties go to the first set on both sides
    assert sod_oracle(sod.cables, sod.word) == sod


def test_min_area_sod_agrees_with_oracle_on_random_polygons():
    checked = 0
    for seed, corners in RANDOM_POLYGONS:
        curve, _ = random_generic_polygon(random.Random(seed), corners)
        sod = min_area_sod(curve)
        assert sod_oracle(sod.cables, sod.word) == sod, seed
        checked += 1
    assert checked == 24


class _Recorder:
    """Counts the smoothings of a search, its calls to ``_piece_keys`` and
    the vertex sets its walk asks it about (its ``first_failing`` calls),
    records every key it judges (with whether that piece certified) and
    every piece it cuts, and counts its calls to the judges of one piece:
    ``certify_subcurve``, the direction walk (``Subcurve.rotation``,
    ``turning_of_directions``) and the per-face area sum
    (``Subcurve.area_w``)."""

    def __init__(self, monkeypatch):
        self.smoothings, self.named, self.walked, self.keys, self.cut = 0, 0, 0, [], []
        self.one_piece = collections.Counter()
        smooth, name, cut = decomposition.smooth_at, decomposition._piece_keys, decomposition._piece
        judge = decomposition._KeyJudge.__call__
        unlinked_keys = decomposition._unlinked_keys

        def counted_walk(passes, first_failing):
            def counted(keys):
                self.walked += 1
                return first_failing(keys)
            return unlinked_keys(passes, counted)

        def counted_smooth(sc, vertices):
            self.smoothings += 1
            return smooth(sc, vertices)

        def counted_name(*args):
            self.named += 1
            return name(*args)

        def recorded_judge(self_, key):
            verdict = judge(self_, key)
            self.keys.append((key, verdict is not None))
            return verdict

        def recorded_cut(*args):
            piece = cut(*args)
            self.cut.append(piece)
            return piece

        def counted(name, fn):
            def call(*args):
                self.one_piece[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(decomposition, "_unlinked_keys", counted_walk)
        monkeypatch.setattr(decomposition, "smooth_at", counted_smooth)
        monkeypatch.setattr(decomposition, "_piece_keys", counted_name)
        monkeypatch.setattr(decomposition._KeyJudge, "__call__", recorded_judge)
        monkeypatch.setattr(decomposition, "_piece", recorded_cut)
        monkeypatch.setattr(decomposition, "certify_subcurve",
                            counted("certify_subcurve", decomposition.certify_subcurve))
        walk = counted("turning_of_directions", arrangement.turning_of_directions)
        for module in (arrangement, decomposition):
            monkeypatch.setattr(module, "turning_of_directions", walk)
        monkeypatch.setattr(Subcurve, "rotation",
                            property(counted("rotation", Subcurve.rotation.fget)))
        monkeypatch.setattr(Subcurve, "area_w", counted("area_w", Subcurve.area_w))

    def clear(self):
        self.walked = 0
        self.keys.clear()
        self.cut.clear()


def _walked_once(cut: int) -> dict[str, int]:
    """The one-piece calls of a search that cut ``cut`` pieces: a direction
    walk per piece, checked against the rotation its verdict holds."""
    return {"rotation": cut, "turning_of_directions": cut}


def test_min_area_sod_certifies_each_piece_once(monkeypatch):
    curves = [pipeline(name)[0] for name in CORPUS]
    curves += [random_generic_polygon(random.Random(seed), corners)[0]
               for seed, corners in RANDOM_POLYGONS]
    calls = _Recorder(monkeypatch)
    results = []
    for curve in curves:
        calls.clear()
        sod = min_area_sod(curve)
        sod_to_folding(curve, sod)
        # each distinct piece is judged once, and a failing verdict is kept
        assert len({key for key, _ in calls.keys}) == len(calls.keys), curve
        # the pieces cut are exactly the answer's, each once
        assert calls.cut == list(sod.subcurves), curve
        results.append((curve, list(calls.cut)))
    # the walk names every set's pieces, and pieces are judged from their
    # names, not by certifying a cut piece; only each cut piece's rotation
    # is walked, once
    cut = sum(len(pieces) for _, pieces in results)
    assert (calls.smoothings, calls.named, calls.one_piece) == (0, 0, _walked_once(cut))
    monkeypatch.undo()
    for curve, cut in results:
        assert all(certify_subcurve(piece)[0] for piece in cut), curve


def test_min_area_sod_skips_vertex_sets_with_a_failing_piece(monkeypatch):
    # the 15-gon with 25 crossings; its optimum smooths 9 of them
    curve, arr = random_generic_polygon(random.Random(7), 15)
    calls = _Recorder(monkeypatch)
    sod = min_area_sod(curve)
    answer = tuple(sorted(sod.vertex_pairs))
    subsets = 1 + next(k for k, keys in enumerate(_unlinked_keys(arr.vertex_passes))
                       if tuple(v for v, _ in keys[1:]) == answer)
    assert (len(arr.vertices), len(answer), subsets) == (25, 9, 3840)
    # pieces are judged from their names, so no vertex set is smoothed
    # whole or named again; each of the 514 distinct pieces is judged
    # once, and only the answer's 10 pieces are cut, and their rotations
    # walked
    judged = len({key for key, _ in calls.keys})
    assert (calls.smoothings, judged, len(calls.keys), len(calls.cut)) == (0, 514, 514, 10)
    assert (calls.named, calls.one_piece) == (0, _walked_once(10))
    # the walk asks about none of the sets below a failing piece that keep
    # it: 1 550 of the 3 840 sets up to the answer
    assert calls.walked == 1550


def test_min_area_sod_walks_no_set_that_keeps_a_failing_piece(monkeypatch):
    # the 19-gon with 36 crossings
    curve, arr = random_generic_polygon(random.Random(7), 19)
    calls = _Recorder(monkeypatch)
    sod = min_area_sod(curve)
    answer = tuple(sorted(sod.vertex_pairs))
    subsets = 1 + next(k for k, keys in enumerate(_unlinked_keys(arr.vertex_passes))
                       if tuple(v for v, _ in keys[1:]) == answer)
    assert (len(arr.vertices), subsets) == (36, 36864)
    # the walk asks about 10 473 of those sets, and 1 798 distinct pieces
    # are judged
    assert (calls.walked, len(calls.keys), len(calls.cut)) == (10473, 1798, 13)


def test_min_area_sod_measures_each_certified_piece_once(monkeypatch):
    curve, _ = random_generic_polygon(random.Random(1), 9)
    calls = _Recorder(monkeypatch)
    sod = min_area_sod(curve)
    # each of the 17 pieces that certify is measured by its prefix sums,
    # with no cut, no direction walk and no per-face area sum; only the
    # answer's pieces are cut, and only their rotations walked
    assert sum(ok for _, ok in calls.keys) == 17
    assert len(calls.cut) == len(sod.subcurves) == 6
    assert calls.one_piece == _walked_once(6)
    monkeypatch.undo()
    # each piece's area is its positive witness's unpaired weight
    areas = [sc.area_w() for sc in sod.subcurves]
    assert [cert["witness"].area for cert in sod.certificates] == areas
    assert sod.area == sum(areas, Fraction(0))


def test_min_area_sod_checks_each_cut_piece_against_the_direction_walk(monkeypatch):
    # a direction walk that disagrees with the judge's turning table is
    # caught when the answer's pieces are cut, under python -O as well
    monkeypatch.setattr(Subcurve, "rotation", property(lambda self: 0))
    with pytest.raises(arrangement.InvariantViolation,
                       match=r"^decomposition: piece .* does not turn as its verdict says"):
        min_area_sod(load_curve("trefoil"))


def test_sod_to_folding_round_trip(corpus_name):
    curve, _, _, _, word = pipeline(corpus_name)
    sod = min_area_sod(curve)
    folding = sod_to_folding(curve, sod)
    assert isinstance(folding, Folding)
    assert folding.area == sod.area
    assert cyclic_equal(folding.word, word)


def test_pieces_read_their_curves_weights(corpus_name):
    # every piece word, and its certificate's witness, is over the curve's
    # face weights, so every area of the decomposition shares one scale
    sod = min_area_sod(pipeline(corpus_name)[0])
    for piece, cert in zip(sod.subcurves, sod.certificates, strict=True):
        assert piece.weights is sod.cables.arr.face_weights
        assert piece.word().scale is sod.word.scale
        assert cert["witness"].word.scale is sod.word.scale


def test_sod_to_folding_rejects_another_curves_decomposition():
    sod = min_area_sod(load_curve("trefoil"))
    with pytest.raises(InvalidDecomposition, match="another curve"):
        sod_to_folding(load_curve("limacon"), sod)


def test_sod_to_folding_reads_the_certificates(monkeypatch):
    curves = [pipeline(name)[0] for name in CORPUS]
    curves += [random_generic_polygon(random.Random(seed), corners)[0]
               for seed, corners in RANDOM_POLYGONS]
    sods = [(curve, min_area_sod(curve)) for curve in curves]
    calls = _Recorder(monkeypatch)
    norms = []
    norm = decomposition.cancellation_norm
    monkeypatch.setattr(decomposition, "cancellation_norm",
                        lambda word: norms.append(word) or norm(word))
    pieces = reversed_pieces = 0
    for curve, sod in sods:
        folding = sod_to_folding(curve, sod)
        assert isinstance(folding, Folding) and folding.word == sod.word
        assert folding.area == sod.area
        assert len(sod.certificates) == len(sod.subcurves)
        pieces += len(sod.certificates)
        reversed_pieces += sum(cert["rotation"] == -1 for cert in sod.certificates)
    assert (norms, calls.keys, calls.cut, calls.one_piece) == ([], [], [], {})
    # a reversed piece's witness folds its inverse word
    assert (reversed_pieces, pieces) == (64, 133)


def test_sod_to_folding_rejects_a_piece_that_does_not_certify():
    curve, _, _, cables, word = pipeline("mouse")
    pieces = tuple(smooth_at(curve_subcurve(cables.arr, cables), [2]))
    verdicts = [certify_subcurve(p) for p in pieces]
    assert [ok for ok, _ in verdicts].count(False) == 1
    area = sum((p.area_w() for p in pieces), Fraction(0))
    sod = SelfOverlappingDecomposition(frozenset({2}), pieces,
                                       tuple(cert for _, cert in verdicts), area, cables, word)
    with pytest.raises(InvalidDecomposition, match="does not bound an immersed disk"):
        sod_to_folding(curve, sod)


def test_sod_to_folding_rejects_another_decompositions_certificates():
    # every single smoothing of the trefoil decomposes it into two pieces
    curve, _, _, cables, word = pipeline("trefoil")
    found = (assemble() for _, assemble in decomposition._decompositions(cables, word))
    singles = [sod for sod in found if len(sod.vertex_pairs) == 1]
    assert len(singles) == 3
    for sod, other in itertools.permutations(singles, 2):
        assert sod_to_folding(curve, sod).area == sod.area
        swapped = dataclasses.replace(sod, certificates=other.certificates)
        with pytest.raises(InvalidDecomposition, match="not of its piece"):
            sod_to_folding(curve, swapped)
    sod = singles[0]
    with pytest.raises(InvalidDecomposition, match="one certificate per piece"):
        sod_to_folding(curve, dataclasses.replace(sod, certificates=sod.certificates[:1]))


def test_trefoil_every_single_smoothing_decomposes():
    curve = load_curve("trefoil")
    sc = full_piece("trefoil")
    for v in sc.crossings():
        for piece in smooth_at(sc, [v]):
            ok, _ = certify_subcurve(piece)
            assert ok


def test_mouse_smoothings_classify_per_vertex():
    sc = full_piece("mouse")
    verdicts = {}
    for v in sc.crossings():
        verdicts[v] = [certify_subcurve(p)[0] for p in smooth_at(sc, [v])]
    assert sorted(verdicts) == [0, 1, 2]
    assert verdicts[0] == [True, True]
    assert verdicts[1] == [True, True]
    assert verdicts[2].count(False) == 1
    # the failing piece winds clockwise around its faces
    bad = [p for p in smooth_at(sc, [2]) if not certify_subcurve(p)[0]]
    assert bad[0].rotation == -1
    # smoothing all three crossings at once repairs it
    pieces = smooth_at(sc, [0, 1, 2])
    assert len(pieces) == 4
    assert all(certify_subcurve(p)[0] for p in pieces)


# ---------------------------------------------------------------------------
# homotopy traces


def test_trace_totals_match_norm(corpus_name):
    _, _, _, _, word = pipeline(corpus_name)
    value, witness = cancellation_norm(word)
    trace = homotopy_trace(witness)
    assert trace.total_area == value
    swept = sum(s.area for s in trace.steps if hasattr(s, "area"))
    assert swept == value


def test_trace_matches_any_folding_area():
    rng = random.Random(6021023)
    for _ in range(100):
        m = rng.randrange(0, 9)
        letters = [(rng.randrange(1, 4), rng.choice([1, -1])) for _ in range(m)]
        weights = {f: Fraction(rng.randrange(1, 5)) for f in range(1, 4)}
        word = CyclicWord(letters, weights)
        pairings = []
        order = list(range(m))
        rng.shuffle(order)
        taken = set()
        for i in order:
            if i in taken:
                continue
            f, s = word[i]
            mates = [j for j in order if j not in taken and j != i
                     and word[j] == (f, -s)]
            rng.shuffle(mates)
            for j in mates:
                cand = Pairing(i, j)
                if not any(chords_cross(cand.positions(), p.positions()) for p in pairings):
                    pairings.append(cand)
                    taken.update({i, j})
                    break
        folding = Folding(word, frozenset(pairings))
        assert homotopy_trace(folding).total_area == folding.area


def test_trace_cut_steps_name_paired_faces():
    _, _, _, _, word = pipeline("mouse")
    _, witness = cancellation_norm(word)
    trace = homotopy_trace(witness)
    cut_faces = sorted(s.face for s in trace.steps if hasattr(s, "face"))
    paired_faces = sorted(word[p.i][0] for p in witness.pairings)
    assert cut_faces == paired_faces


def test_areas_of_a_witness_add_no_fraction(monkeypatch):
    seed, corners = RANDOM_POLYGONS[5]
    curves = [load_curve("mouse"), random_generic_polygon(random.Random(seed), corners)[0]]
    # build the face words before counting
    face_words = [face_word(curve)[1] for curve in curves]
    adds = []
    add, radd = Fraction.__add__, Fraction.__radd__
    monkeypatch.setattr(Fraction, "__add__", lambda a, b: adds.append(b) or add(a, b))
    monkeypatch.setattr(Fraction, "__radd__", lambda a, b: adds.append(b) or radd(a, b))
    for curve, word in zip(curves, face_words):
        value, witness = cancellation_norm(word)
        trace = homotopy_trace(witness)
        assert witness.pairings and witness.area == trace.total_area == value > 0
        assert adds == [], curve
    # the counters see a Fraction addition
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and len(adds) == 1


def test_a_curve_scales_its_weights_once(monkeypatch):
    """The build, the face measures, the traced and the recursive word, the
    norms and the trace all read one scale of the curve's face weights."""
    calls = []
    common_denominator = arrangement.common_denominator

    def counted(qs):
        qs = list(qs)
        calls.append(qs)
        return common_denominator(qs)
    monkeypatch.setattr(arrangement, "common_denominator", counted)
    arr = arrangement.build_arrangement(load_curve("mouse"))
    measures = arrangement.face_measures(arr)
    tc = tree_cotree(arr)
    cables = build_cable_system(arr, tc)
    blank = words.blank_word(arr, cables)
    nie = words.nie_word(arr, tc, words.derive_flattening(cables))
    value, witness = cancellation_norm(blank)
    trace = homotopy_trace(witness)
    assert witness.area == trace.total_area == value == cancellation_norm(nie)[0]
    assert measures.keys() == {"area_w", "area_d"} and arr.face_weights.scale is blank.scale
    # one derivation over the corners, by the build, and one over the weights
    assert len(calls) == 2 and calls.count(list(arr.face_weights.values())) == 1
    for word in (nie, blank.rotate(3), blank.inverse(), blank.with_weights(blank.weights)):
        assert word.weights is arr.face_weights and word.scale is blank.scale
