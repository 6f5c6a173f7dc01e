import random
from fractions import Fraction

import pytest

from conftest import cyclic_equal
from curvefold.folding import (cancellation_norm, complete_to_maximal,
                               positively_foldable)
from curvefold.transforms import (NotAdjacent, back_transport_twist, dehn_twist,
                                  merge_face_cables, switch_adjacent,
                                  transport_folding_switch,
                                  transport_folding_twist)
from curvefold.words import CyclicWord


def W(*tokens, weights=None):
    return CyclicWord([(abs(t), 1 if t > 0 else -1) for t in tokens],
                      weights or {})


def random_word(rng, max_len=9, faces=4, max_weight=4):
    m = rng.randrange(1, max_len + 1)
    letters = [(rng.randrange(1, faces + 1), rng.choice([1, -1]))
               for _ in range(m)]
    weights = {f: Fraction(rng.randrange(1, max_weight + 1))
               for f in range(1, faces + 1)}
    return CyclicWord(letters, weights)


# ---------------------------------------------------------------------------
# adjacent-cable switch


def test_switch_simple_block():
    w = W(1, 2, -2, -1)
    assert switch_adjacent(w, 1, 2).letters == ((2, 1), (1, 1), (1, -1), (2, -1))


def test_switch_with_interleaved_letter():
    w = W(1, 2, 3, -2, -1)
    assert switch_adjacent(w, 1, 2).letters == \
        ((2, 1), (1, 1), (3, 1), (1, -1), (2, -1))


def test_switch_normalizes_missing_neighbours():
    # a bare f picks up a cancelling (g, g-bar) pair before the swap
    w = W(1, 3)
    out = switch_adjacent(w, 1, 2)
    assert out.letters == ((2, 1), (1, 1), (2, -1), (3, 1))
    value, _ = cancellation_norm(out)
    assert value == cancellation_norm(w)[0]


def test_switch_self_is_rejected():
    with pytest.raises(NotAdjacent):
        switch_adjacent(W(1, 2), 1, 1)


def test_switch_preserves_norm_seeded():
    rng = random.Random(1001)
    for _ in range(250):
        w = random_word(rng)
        f, g = rng.sample([1, 2, 3, 4], 2)
        out = switch_adjacent(w, f, g)
        assert cancellation_norm(out)[0] == cancellation_norm(w)[0]


def test_switch_preserves_positive_foldability_seeded():
    rng = random.Random(1002)
    for _ in range(200):
        w = random_word(rng, max_len=7)
        f, g = rng.sample([1, 2, 3, 4], 2)
        out = switch_adjacent(w, f, g)
        assert positively_foldable(out)[0] == positively_foldable(w)[0]


def test_transport_switch_equal_area_seeded():
    rng = random.Random(1003)
    for _ in range(250):
        w = random_word(rng)
        f, g = rng.sample([1, 2, 3, 4], 2)
        _, witness = cancellation_norm(w)
        folding = complete_to_maximal(w, witness)
        out = switch_adjacent(w, f, g)
        moved = transport_folding_switch(w, out, folding, f, g)
        assert moved.word == out
        assert moved.area == folding.area


def _sign_flipped(word):
    return CyclicWord([(f, -s) for f, s in word], word.weights)


FLIP_BASE = W(1, 2, -1, -2, 1, -1)
FLIP_SWITCHED = _sign_flipped(switch_adjacent(FLIP_BASE, 1, 2))
FLIP_TWISTED = _sign_flipped(dehn_twist(FLIP_BASE, 1, 2, [(1, 1)]))


@pytest.mark.parametrize("transport, message", [
    (lambda: transport_folding_switch(FLIP_BASE, FLIP_SWITCHED,
                                      cancellation_norm(FLIP_BASE)[1], 1, 2),
     "second word must be the switch of the first"),
    (lambda: transport_folding_twist(FLIP_BASE, FLIP_TWISTED,
                                     cancellation_norm(FLIP_BASE)[1], 1, 2, [(1, 1)]),
     "second word must be the twist of the first"),
    (lambda: back_transport_twist(FLIP_BASE, FLIP_TWISTED,
                                  cancellation_norm(FLIP_TWISTED)[1], 1, 2, [(1, 1)]),
     "second word must be the twist of the first"),
], ids=["switch", "twist", "back_twist"])
def test_transports_reject_a_second_word_that_is_not_the_image(transport, message):
    # caller input, so a ValueError that python -O keeps: the sign-flipped
    # word has the image's faces and length, and a folding of the same area
    with pytest.raises(ValueError, match=message):
        transport()


# ---------------------------------------------------------------------------
# twist about two cable ends


TWIST_BASE = W(2, 3, 1, 4, 2, -3, -4)
TWIST_TARGET = W(2, 1, -4, -1, -3, 3, 3, 1, 4, -1,
                 1, -4, -1, -3, 1, 4, -1, 3, 1, 4,
                 2, 1, -4, -1, -3, -3, 3, 1, 4, -1,
                 -4, -1, -3, 1, -4, -1, 3, 1, 4)


def test_twist_reproduces_frozen_expansion():
    out = dehn_twist(TWIST_BASE, 4, 3, [(1, 1)])
    assert out.letters == TWIST_TARGET.letters


def test_twist_preserves_norm_unit_and_random_weights():
    rng = random.Random(4)
    out = dehn_twist(TWIST_BASE, 4, 3, [(1, 1)])
    assert cancellation_norm(out)[0] == cancellation_norm(TWIST_BASE)[0]
    for _ in range(10):
        weights = {f: Fraction(rng.randrange(1, 9)) for f in range(1, 5)}
        a = cancellation_norm(TWIST_BASE.with_weights(weights))[0]
        b = cancellation_norm(out.with_weights(weights))[0]
        assert a == b


def test_twist_empty_bundle():
    w = W(1, 2)
    out = dehn_twist(w, 1, 2, [])
    # each crossing with cables 1 and 2 picks up four conjugating letters
    assert len(out) == 2 + 2 * 4
    assert cancellation_norm(out)[0] == cancellation_norm(w)[0]


def test_twist_untouched_faces_pass_through():
    w = W(5, 5, -5)
    out = dehn_twist(w, 1, 2, [(3, 1)])
    assert out.letters == w.letters


def test_transport_twist_equal_area_seeded():
    rng = random.Random(1004)
    for _ in range(200):
        w = random_word(rng, max_len=6)
        i, j = rng.sample([1, 2, 3, 4], 2)
        B = [(rng.randrange(1, 5), rng.choice([1, -1]))
             for _ in range(rng.randrange(0, 3))]
        out = dehn_twist(w, i, j, B)
        _, witness = cancellation_norm(w)
        folding = complete_to_maximal(w, witness)
        moved = transport_folding_twist(w, out, folding, i, j, B)
        assert moved.area == folding.area


def test_back_transport_never_increases_area():
    rng = random.Random(1005)
    for _ in range(120):
        w = random_word(rng, max_len=4, faces=3)
        i, j = rng.sample([1, 2, 3], 2)
        B = [(rng.randrange(1, 4), rng.choice([1, -1]))
             for _ in range(rng.randrange(0, 2))]
        out = dehn_twist(w, i, j, B)
        value, witness = cancellation_norm(out)
        folding = complete_to_maximal(out, witness)
        pulled = back_transport_twist(w, out, folding, i, j, B)
        assert pulled.word == w
        assert pulled.area <= folding.area
        assert cancellation_norm(w)[0] <= pulled.area


def test_twist_round_trip_is_norm_identity():
    """Forward transport then back-transport recovers the optimal area."""
    rng = random.Random(1006)
    for _ in range(60):
        w = random_word(rng, max_len=5, faces=3)
        i, j = rng.sample([1, 2, 3], 2)
        out = dehn_twist(w, i, j, [])
        value, witness = cancellation_norm(w)
        moved = transport_folding_twist(w, out, witness, i, j, [])
        pulled = back_transport_twist(w, out, moved, i, j, [])
        assert pulled.area == value


# ---------------------------------------------------------------------------
# merging cables


def test_merge_renames_and_keeps_common_weight():
    w = CyclicWord([(1, 1), (2, 1), (3, -1)],
                   {1: Fraction(2), 2: Fraction(2), 3: Fraction(5)})
    out = merge_face_cables(w, {2: 1})
    assert out.letters == ((1, 1), (1, 1), (3, -1))
    assert out.weights == {1: Fraction(2), 3: Fraction(5)}


def test_merge_preserves_norm_when_weights_match():
    rng = random.Random(1007)
    for _ in range(100):
        base = random_word(rng, max_len=8, faces=3)
        shared = {f: base.weights[1] for f in base.weights}
        w = base.with_weights(shared)
        out = merge_face_cables(w, {2: 1, 3: 1})
        # merging can only enable more cancellation
        assert cancellation_norm(out)[0] <= cancellation_norm(w)[0]


def test_merge_rejects_aliases_of_different_weight():
    w = CyclicWord(((1, 1), (2, -1)), {1: 1, 2: 3})
    with pytest.raises(ValueError, match="aliased faces must share a weight"):
        merge_face_cables(w, {2: 1})
