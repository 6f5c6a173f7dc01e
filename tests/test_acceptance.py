"""End-to-end checks of the package's headline guarantees.

Each test is exact: rational arithmetic throughout, no tolerances.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import CORPUS, equal_up_to_relabeling, face_counts, load_curve, pipeline
from curvefold.arrangement import tree_cotree
from curvefold.decomposition import (certify_subcurve, curve_subcurve,
                                     homotopy_trace, min_area_sod, smooth_at,
                                     sod_oracle)
from curvefold.folding import (Folding, Pairing, cancellation_norm, chords_cross,
                               complete_to_maximal, is_self_overlapping, norm_bruteforce,
                               positively_foldable)
from curvefold.transforms import (dehn_twist, switch_adjacent,
                                  transport_folding_switch,
                                  transport_folding_twist)
from curvefold.words import (CyclicWord, blank_word, build_cable_system, derive_flattening,
                             nie_word)


def W(*tokens, weights=None):
    return CyclicWord([(abs(t), 1 if t > 0 else -1) for t in tokens],
                      weights or {})


def random_word(rng, max_len, faces, max_weight=6):
    m = rng.randrange(0, max_len + 1)
    letters = [(rng.randrange(1, faces + 1), rng.choice([1, -1]))
               for _ in range(m)]
    weights = {f: Fraction(rng.randrange(1, max_weight + 1))
               for f in range(1, faces + 1)}
    return CyclicWord(letters, weights)


# 1. the double-looped curve admits two canonical cable orders whose words
#    are the two expected seven-letter words


def test_two_cable_orders_give_the_two_expected_words():
    start = time.monotonic()
    _, arr, _, _, _ = pipeline("mouse")
    target_a = W(2, 3, 1, 4, 2, -3, -4)
    target_b = W(3, 2, 1, 4, -3, 2, -4)
    tc_a = tree_cotree(arr, prefer={3: 3})
    word_a = blank_word(arr, build_cable_system(arr, tc_a, insertions={1: 1}))
    assert equal_up_to_relabeling(word_a, target_a)
    tc_b = tree_cotree(arr, prefer={3: 1})
    word_b = blank_word(arr, build_cable_system(arr, tc_b, insertions={1: 2}))
    assert equal_up_to_relabeling(word_b, target_b)
    assert time.monotonic() - start < 1.0


# 2. the norm does not depend on the cable order


def test_norm_is_cable_order_independent():
    _, arr, _, _, _ = pipeline("mouse")
    weights = arr.face_weights
    tc_a = tree_cotree(arr, prefer={3: 3})
    word_a = blank_word(arr, build_cable_system(arr, tc_a, insertions={1: 1}))
    tc_b = tree_cotree(arr, prefer={3: 1})
    word_b = blank_word(arr, build_cable_system(arr, tc_b, insertions={1: 2}))
    assert word_a.weights == word_b.weights == weights
    assert cancellation_norm(word_a)[0] == cancellation_norm(word_b)[0]


# 3. minimum contraction area of the one-eared curve, exactly


def test_one_ear_minimum_area_is_two_faces_worth():
    start = time.monotonic()
    _, arr, _, _, word = pipeline("one_ear")
    value, witness = cancellation_norm(word)
    areas = {f.id: f.signed_area for f in arr.faces[1:]}
    assert value == areas[1] + 2 * areas[3]
    assert value == Fraction(761, 2)
    assert witness.area == value
    assert time.monotonic() - start < 1.0


# 4. the cubic dynamic program equals the exhaustive oracle


def test_norm_equals_oracle_on_500_seeded_words():
    start = time.monotonic()
    rng = random.Random(42)
    for _ in range(500):
        w = random_word(rng, max_len=12, faces=5)
        value, witness = cancellation_norm(w)
        assert witness.area == value
        assert value == norm_bruteforce(w, cap=12)
    assert time.monotonic() - start < 60.0


# 5. the twist about two cable ends reproduces the expected 39-letter word
#    and preserves the norm


TWIST_TARGET = W(2, 1, -4, -1, -3, 3, 3, 1, 4, -1,
                 1, -4, -1, -3, 1, 4, -1, 3, 1, 4,
                 2, 1, -4, -1, -3, -3, 3, 1, 4, -1,
                 -4, -1, -3, 1, -4, -1, 3, 1, 4)


def test_twist_reproduces_expected_word_and_norm():
    base = W(2, 3, 1, 4, 2, -3, -4)
    out = dehn_twist(base, 4, 3, [(1, 1)])
    assert out.letters == TWIST_TARGET.letters
    assert cancellation_norm(out)[0] == cancellation_norm(base)[0]
    rng = random.Random(5)
    for _ in range(10):
        weights = {f: Fraction(rng.randrange(1, 12)) for f in range(1, 5)}
        assert cancellation_norm(out.with_weights(weights))[0] == \
            cancellation_norm(base.with_weights(weights))[0]


# 6. switches and twists preserve the norm and positive foldability, and
#    foldings transport across them with exactly equal areas


def test_switch_property_suite_200_cases():
    rng = random.Random(2026)
    for _ in range(200):
        w = random_word(rng, max_len=8, faces=4)
        f, g = rng.sample([1, 2, 3, 4], 2)
        out = switch_adjacent(w, f, g)
        assert cancellation_norm(out)[0] == cancellation_norm(w)[0]
        assert positively_foldable(out)[0] == positively_foldable(w)[0]
        _, witness = cancellation_norm(w)
        folding = complete_to_maximal(w, witness)
        moved = transport_folding_switch(w, out, folding, f, g)
        assert moved.word == out
        assert moved.area == folding.area


def test_twist_property_suite_200_cases():
    rng = random.Random(2027)
    for _ in range(200):
        w = random_word(rng, max_len=6, faces=4)
        i, j = rng.sample([1, 2, 3, 4], 2)
        B = [(rng.randrange(1, 5), rng.choice([1, -1]))
             for _ in range(rng.randrange(0, 3))]
        out = dehn_twist(w, i, j, B)
        assert cancellation_norm(out)[0] == cancellation_norm(w)[0]
        assert positively_foldable(out)[0] == positively_foldable(w)[0]
        _, witness = cancellation_norm(w)
        folding = complete_to_maximal(w, witness)
        moved = transport_folding_twist(w, out, folding, i, j, B)
        assert moved.word == out
        assert moved.area == folding.area


# 7. the norm is sandwiched between the winding area and the depth area


def test_sandwich_bounds_on_corpus(corpus_name):
    _, arr, _, _, word = pipeline(corpus_name)
    weights = arr.face_weights
    area_w = sum(abs(f.winding) * weights[f.id] for f in arr.faces[1:])
    area_d = sum(f.depth * weights[f.id] for f in arr.faces[1:])
    value, _ = cancellation_norm(word)
    assert area_w <= value <= area_d
    for f in arr.faces[1:]:
        signed, unsigned = face_counts(word, f.id)
        assert signed == f.winding
        assert unsigned == f.depth


# 8. minimum-area decompositions achieve the norm, certified piecewise


def test_decomposition_optimality_suite():
    start = time.monotonic()
    for name in CORPUS:
        curve, arr, _, _, word = pipeline(name)
        if len(arr.vertices) > 6:
            continue
        sod = min_area_sod(curve)
        assert sod.area == cancellation_norm(word)[0], name
        for piece in sod.subcurves:
            ok, _ = certify_subcurve(piece)
            assert ok, name
        full = curve_subcurve(arr, build_cable_system(arr, tree_cotree(arr)))
        chords = {}
        for v in sod.vertex_pairs:
            hits = [i for i, e in enumerate(full.entries) if e.tail_vertex == v]
            chords[v] = (hits[0], hits[1])
        for u in sod.vertex_pairs:
            for v in sod.vertex_pairs:
                if u < v:
                    assert not chords_cross(chords[u], chords[v])
        if len(arr.vertices) <= 4:
            assert sod_oracle(sod.cables, sod.word).area == sod.area, name
    assert time.monotonic() - start < 120.0


# 9. homotopy traces sweep exactly the folding's area


def test_trace_total_equals_norm(corpus_name):
    _, _, _, _, word = pipeline(corpus_name)
    value, witness = cancellation_norm(word)
    assert homotopy_trace(witness).total_area == value


def test_trace_total_equals_area_of_arbitrary_foldings():
    rng = random.Random(90)
    checked = 0
    while checked < 100:
        w = random_word(rng, max_len=10, faces=4)
        m = len(w)
        pairings = []
        taken = set()
        for i in rng.sample(range(m), m):
            if i in taken:
                continue
            f, s = w[i]
            for j in rng.sample(range(m), m):
                if j in taken or j == i or w[j] != (f, -s):
                    continue
                cand = Pairing(i, j)
                if not any(chords_cross(cand.positions(), p.positions()) for p in pairings):
                    pairings.append(cand)
                    taken.update({i, j})
                    break
        folding = Folding(w, frozenset(pairings))
        if folding.area == cancellation_norm(w)[0]:
            continue          # only count genuinely non-minimal foldings
        assert homotopy_trace(folding).total_area == folding.area
        checked += 1


# 10. the crossing-count construction and the algebraic recursion agree


def test_word_constructions_agree_on_corpus(corpus_name):
    _, arr, tc, cables, word = pipeline(corpus_name)
    other = nie_word(arr, tc, derive_flattening(cables))
    assert word.letters == other.letters


# 11. detection sanity: embedded loop, figure-eight, and the smoothings of
#     the double-looped curve


def test_detection_sanity():
    ok, cert = is_self_overlapping(load_curve("square"))
    assert ok and cert["rotation_number"] == 1
    ok, cert = is_self_overlapping(load_curve("bowtie"))
    assert not ok and cert["reason"] == "rotation_number=0"


def test_double_loop_smoothings_classify_as_expected():
    _, arr, _, cables, _ = pipeline("mouse")
    full = curve_subcurve(arr, cables)
    # two of the three crossings split the curve into two certified pieces
    verdicts = {v: [certify_subcurve(p)[0] for p in smooth_at(full, [v])]
                for v in full.crossings()}
    both_good = [v for v, r in verdicts.items() if r == [True, True]]
    one_bad = [v for v, r in verdicts.items() if r.count(False) == 1]
    assert len(both_good) == 2
    assert len(one_bad) == 1
    # smoothing all three crossings at once certifies all four pieces
    pieces = smooth_at(full, sorted(verdicts))
    assert len(pieces) == 4
    assert all(certify_subcurve(p)[0] for p in pieces)
