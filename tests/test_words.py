import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, RANDOM_POLYGONS, cyclic_equal, equal_up_to_relabeling,
                      face_counts, pipeline, random_generic_polygon, recursion_headroom,
                      unit_weights)
from curvefold.arrangement import MalformedInput, PlaneCurve, build_arrangement, tree_cotree
from curvefold.folding import cancellation_norm
from curvefold.words import (CyclicWord, InvalidFlattening, blank_word,
                             build_cable_system, combined_word, derive_flattening,
                             invert_sequence, is_vertex_token, letter_str, nie_word,
                             parse_letter, parse_word, word_to_json)

# frozen face words (exact letters as produced by the canonical cable order)
EXPECTED_WORDS = {
    "bowtie": [(1, -1), (2, 1)],
    "hook": [(1, 1), (2, 1), (1, 1), (3, -1)],
    "limacon": [(1, 1), (2, 1), (1, 1)],
    "mouse": [(2, -1), (3, 1), (4, -1), (1, 1), (2, 1), (3, 1), (4, 1)],
    "one_ear": [(2, -1), (3, 1), (1, 1), (2, 1), (3, 1)],
    "pentagram": [(2, -1), (3, -1), (5, -1), (2, -1), (1, -1), (4, -1), (6, -1)],
    "spiral": [(1, 1), (3, 1), (3, 1), (2, 1), (1, 1), (3, 1)],
    "square": [(1, 1)],
    "trefoil": [(1, 1), (3, 1), (2, 1), (1, 1), (4, 1)],
}


def letters_strategy(max_len=8, faces=3):
    return st.lists(
        st.tuples(st.integers(1, faces), st.sampled_from([1, -1])),
        min_size=0, max_size=max_len)


@pytest.mark.parametrize("name", sorted(EXPECTED_WORDS))
def test_frozen_blank_words(name):
    _, _, _, _, word = pipeline(name)
    assert cyclic_equal(word, CyclicWord(EXPECTED_WORDS[name], word.weights))


def test_blank_equals_nie_on_corpus(corpus_name):
    _, arr, tc, cables, word = pipeline(corpus_name)
    other = nie_word(arr, tc, derive_flattening(cables))
    assert word.letters == other.letters


def test_all_flattenings_same_norm(corpus_name):
    """Every insertion offset of every face changes the word but not its
    norm or per-face signed counts; an offset outside the bundle raises."""
    _, arr, tc, cables, word = pipeline(corpus_name)
    base, _ = cancellation_norm(word)
    for f, eid in tc.parent_edge.items():
        n = len(cables.ports[eid]) - 1  # the bundle f's cable joins
        for pos in range(n + 1):
            w = nie_word(arr, tc, {f: pos})
            assert cancellation_norm(w)[0] == base
            for g in word.weights:
                assert face_counts(w, g)[0] == face_counts(word, g)[0]
        for pos in (-1, n + 1):
            with pytest.raises(InvalidFlattening):
                nie_word(arr, tc, {f: pos})


def test_flattening_rejects_bad_indices():
    _, arr, tc, _, _ = pipeline("mouse")
    with pytest.raises(InvalidFlattening):
        nie_word(arr, tc, {1: 99})


@pytest.mark.parametrize("name", ["mouse", "spiral"])
def test_both_constructions_refuse_an_offset_alike(name):
    _, arr, tc, cables, _ = pipeline(name)
    f, eid = max(tc.parent_edge.items())
    pos = len(cables.ports[eid])
    with pytest.raises(InvalidFlattening) as traced:
        build_cable_system(arr, tc, insertions={f: pos})
    with pytest.raises(InvalidFlattening) as recursive:
        nie_word(arr, tc, {f: pos})
    assert str(traced.value) == str(recursive.value) == (
        f"insertion {pos} for face {f} out of range 0..{pos - 1}")


@pytest.mark.parametrize("insertions", [{99: 3, 0: 1}, {0: 0}, {99: 0}, {"1": 0}])
def test_insertions_name_only_faces_with_a_parent_edge(insertions):
    # a mistyped face id must not leave the default word standing
    _, arr, tc, _, _ = pipeline("mouse")
    with pytest.raises(InvalidFlattening):
        build_cable_system(arr, tc, insertions=insertions)
    with pytest.raises(InvalidFlattening):
        nie_word(arr, tc, insertions)


def test_unsigned_count_equals_depth(corpus_name):
    """Managed cables cross exactly depth-many curve edges."""
    _, arr, _, _, word = pipeline(corpus_name)
    for f in arr.faces[1:]:
        signed, unsigned = face_counts(word, f.id)
        assert signed == f.winding
        assert unsigned == f.depth


def test_cable_lengths_equal_depth(corpus_name):
    _, arr, tc, cables, _ = pipeline(corpus_name)
    for f in arr.faces[1:]:
        assert len(cables.cables[f.id]) == f.depth
        # the cable follows the dual cotree toward the unbounded face
        assert all(e in tc.cotree for e in cables.cables[f.id])
        # and is listed in the ports of every edge it crosses
        assert all(f.id in cables.ports[e] for e in cables.cables[f.id])
    # ports account for every cable crossing
    crossings = sum(len(seq) for seq in cables.ports.values())
    assert crossings == sum(f.depth for f in arr.faces[1:])


def test_combined_word_consistency(corpus_name):
    _, arr, _, cables, word = pipeline(corpus_name)
    cw = combined_word(arr, cables)
    assert cyclic_equal(CyclicWord(cw.face_letters(), arr.face_weights), word)
    seq = [t[1] for t in cw.tokens if is_vertex_token(t)]
    assert len(seq) == 2 * len(arr.vertices)
    for v in range(len(arr.vertices)):
        assert seq.count(v) == 2


def square_spiral(turns: int) -> PlaneCurve:
    """A square spiral winding inwards, closed by one straight segment back
    out: each turn adds one crossing and one level of depth."""
    r = 4 * turns + 10
    pts = []
    for _ in range(turns):
        for x, y in ((r, r), (-r, r), (-r, -r), (r, -r + 1)):
            pts.append((Fraction(x), Fraction(y)))
            r -= 1
    pts.append((Fraction(0), Fraction(1)))
    return PlaneCurve(tuple(pts))


def test_deep_cotree_needs_no_recursion():
    arr = build_arrangement(square_spiral(80))
    assert (len(arr.curve.points), len(arr.vertices)) == (321, 79)
    assert max(f.depth for f in arr.faces) == 80
    tc = tree_cotree(arr)
    with recursion_headroom(60):
        cables = build_cable_system(arr, tc)
        other = nie_word(arr, tc)
    assert blank_word(arr, cables).letters == other.letters


def test_insertion_choices_preserve_norm():
    """Every insertion position of every face's cable, from in front of its
    bundle to past the last child's block, keeps the norm and is the word
    of the flattening it induces."""
    arrangements = [pipeline(name)[1:4] for name in CORPUS]
    for seed, corners in RANDOM_POLYGONS:
        _, arr = random_generic_polygon(random.Random(seed), corners)
        tc = tree_cotree(arr)
        arrangements.append((arr, tc, build_cable_system(arr, tc)))
    tried = 0
    for arr, tc, default in arrangements:
        base, _ = cancellation_norm(blank_word(arr, default))
        for f, eid in tc.parent_edge.items():
            # the bundle f's cable joins holds every other cable of the edge
            for pos in range(len(default.ports[eid])):
                cables = build_cable_system(arr, tc, insertions={f: pos})
                w = blank_word(arr, cables)
                assert cancellation_norm(w)[0] == base
                assert w.letters == nie_word(arr, tc, derive_flattening(cables)).letters
                tried += 1
    assert tried > 400, tried


def test_mouse_word_both_cable_orders():
    """Two distinct canonical cable orders give two frozen words."""
    _, arr, _, _, _ = pipeline("mouse")
    target_a = CyclicWord([(2, 1), (3, 1), (1, 1), (4, 1), (2, 1),
                           (3, -1), (4, -1)])
    target_b = CyclicWord([(3, 1), (2, 1), (1, 1), (4, 1), (3, -1),
                           (2, 1), (4, -1)])
    tc_a = tree_cotree(arr, prefer={3: 3})
    wa = blank_word(arr, build_cable_system(arr, tc_a, insertions={1: 1}))
    assert equal_up_to_relabeling(wa, target_a)
    tc_b = tree_cotree(arr, prefer={3: 1})
    wb = blank_word(arr, build_cable_system(arr, tc_b, insertions={1: 2}))
    assert equal_up_to_relabeling(wb, target_b)


# ---------------------------------------------------------------------------
# word utilities


@given(letters_strategy(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_cyclic_equal_under_rotation(letters, k):
    w = CyclicWord(letters)
    assert cyclic_equal(w, w.rotate(k))


@given(letters_strategy())
@settings(max_examples=200, deadline=None)
def test_inverse_involution(letters):
    w = CyclicWord(letters)
    assert w.inverse().inverse().letters == w.letters
    assert invert_sequence(invert_sequence(tuple(letters))) == tuple(letters)


@given(letters_strategy())
@settings(max_examples=200, deadline=None)
def test_face_counts_add_up(letters):
    w = CyclicWord(letters)
    total = sum(face_counts(w, f)[1] for f in w.weights)
    assert total == len(w)
    for f in w.weights:
        signed, unsigned = face_counts(w, f)
        assert abs(signed) <= unsigned


def test_relabeling_equality():
    a = CyclicWord([(1, 1), (2, -1), (1, 1)])
    b = CyclicWord([(5, 1), (9, -1), (5, 1)])
    assert equal_up_to_relabeling(a, b)
    c = CyclicWord([(5, 1), (9, 1), (5, 1)])
    assert not equal_up_to_relabeling(a, c)


def test_scale_is_the_weights_over_their_least_common_denominator():
    rng = random.Random(2020)
    unused = 0
    for _ in range(300):
        faces = rng.randint(1, 5)
        letters = [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        # the weights may name faces the word does not use, and may leave
        # out faces it does use (those weigh 1)
        weights = {f: Fraction(rng.randint(0, 40), rng.randint(1, 15))
                   for f in range(1, faces + 4) if rng.random() < 0.8}
        w = CyclicWord(letters, weights)
        D, scaled = w.scale
        assert D == math.lcm(*(q.denominator for q in w.weights.values()))
        assert scaled.keys() == w.weights.keys()
        for f, q in w.weights.items():
            assert type(scaled[f]) is int and scaled[f] == q * D
        assert w.scale is w.scale
        # the kept scale is no field: equality and repr are the word's own
        assert w == CyclicWord(letters, weights) and "scale" not in repr(w)
        # faces the word does not use rescale every weight by one factor,
        # so the norm and its witness stay those of the used faces alone
        used = CyclicWord(letters, {f: w.weights[f] for f, _ in letters})
        unused += used.weights.keys() != w.weights.keys()
        value, witness = cancellation_norm(w)
        assert value == witness.area == cancellation_norm(used)[0]
        assert witness.pairings == cancellation_norm(used)[1].pairings
    assert unused > 200


def test_word_json_round_trip(corpus_name):
    _, _, _, _, word = pipeline(corpus_name)
    doc = word_to_json(word)
    back = parse_word(doc)
    assert back.letters == word.letters
    assert back.weights == word.weights


def test_letter_parsing():
    assert parse_letter("3") == (3, 1)
    assert parse_letter("-3") == (3, -1)
    assert letter_str((4, -1)) == "-4"
    with pytest.raises(ValueError):
        parse_letter("0")


@pytest.mark.parametrize("tok", ["+1", " 1", "1 ", "1_0", "\u0661", "-\u0661", "1\n", "", "-"])
def test_ids_and_letters_are_ascii_decimals(tok):
    # int() reads most of these; a face id or letter is -?[0-9]+ alone
    with pytest.raises(MalformedInput):
        parse_word({"word": [tok]})
    with pytest.raises(MalformedInput):
        parse_word({"word": ["1"], "weights": {tok: "2"}})


def test_leading_zeros_still_name_the_face():
    assert parse_word({"word": ["01", "-001"], "weights": {"01": "2"}}).letters == ((1, 1), (1, -1))
    assert parse_word({"word": ["1"], "weights": {"01": "2"}}).weights == {1: 2}


@pytest.mark.parametrize("doc", [
    {"word": ["1", "-1"], "weights": {"one": "2"}},
    {"word": ["1", "-1"], "weights": [["1", "2"]]},
    {"word": ["1", "-1"], "weights": {"1": "-2"}},
    {"word": "12"},
    {"word": [1.5, -1]},
    {"word": ["1", "-1"], "weights": {"1": "2", "01": "3"}},
    {"word": ["1", "-1"], "weights": {"1": "2", " 1": "3"}},
    {"word": ["1", "-1"], "weights": {"0": "1"}},
    {"word": ["1", "-1"], "weights": {"1": "2", "-2": "5"}},
], ids=["face-id-not-an-integer", "weights-not-an-object", "negative-weight",
        "letters-not-a-list", "letter-not-integral", "face-named-twice",
        "face-named-twice-with-a-space", "weight-of-the-unbounded-face",
        "weight-of-a-negative-face-id"])
def test_parse_word_rejects_malformed_documents(doc):
    with pytest.raises(MalformedInput):
        parse_word(doc)


def test_weights_validation():
    with pytest.raises(ValueError):
        CyclicWord([(1, 1)], {1: Fraction(-1)})
    with pytest.raises(ValueError):
        CyclicWord([(1, 1)], {1: -1})
    weights = CyclicWord([(1, 1)], {1: 2}).weights
    assert weights == {1: 2} and isinstance(weights[1], Fraction)
