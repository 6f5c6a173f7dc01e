import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_curve, pipeline, recursion_headroom, unit_weights
from curvefold.folding import (CapExceeded, Folding, Pairing, cancellation_norm,
                               chords_cross, complete_to_maximal,
                               is_self_overlapping, norm_bruteforce,
                               positively_foldable, positively_foldable_bruteforce)
from curvefold.words import CyclicWord


def W(*tokens, weights=None):
    letters = []
    for t in tokens:
        letters.append((abs(t), 1 if t > 0 else -1))
    return CyclicWord(letters, weights or {})


def random_word(rng, max_len=9, faces=3, max_weight=4):
    m = rng.randrange(0, max_len + 1)
    letters = [(rng.randrange(1, faces + 1), rng.choice([1, -1]))
               for _ in range(m)]
    weights = {f: Fraction(rng.randrange(1, max_weight + 1))
               for f in range(1, faces + 1)}
    return CyclicWord(letters, weights)


# ---------------------------------------------------------------------------
# pairings and linking


def test_pairing_requires_inverse_letters():
    w = W(1, 2, -1, 2)
    Folding(w, frozenset({Pairing(0, 2)}))     # 1 against -1: fine
    with pytest.raises(ValueError):
        Folding(w, frozenset({Pairing(1, 3)})) # 2 against 2: same sign
    with pytest.raises(ValueError):
        Folding(w, frozenset({Pairing(0, 1)})) # different faces


def test_linking_is_cyclic_alternation():
    w = W(3, 4, -3, -4)
    p, q = Pairing(0, 2), Pairing(1, 3)
    assert chords_cross(p.positions(), q.positions())
    # W(3, -3, 4, -4): the pairings sit side by side
    assert not chords_cross((0, 1), (2, 3))
    with pytest.raises(ValueError):
        Folding(w, frozenset({p, q}))


def test_folding_positions_disjoint():
    w = W(1, -1, 1, -1)
    with pytest.raises(ValueError):
        Folding(w, frozenset({Pairing(0, 1), Pairing(1, 2)}))


def test_wrap_around_pairings_are_validated():
    w = W(1, 2, -2, -1)
    # i > j: the pairing is read from position 3 forward around the cycle
    folding = Folding(w, frozenset({Pairing(3, 0), Pairing(1, 2)}))
    assert folding.paired_positions == frozenset(range(4))
    with pytest.raises(ValueError, match="linked"):
        Folding(W(1, 2, -1, -2), frozenset({Pairing(2, 0), Pairing(3, 1)}))


def _named_pairings(message):
    return [Pairing(int(i), int(j)) for i, j in re.findall(r"Pairing\(i=(\d+), j=(\d+)\)", message)]


def test_linked_pairings_far_apart_are_rejected_by_name():
    # face 1 at 3 and 43, face 2 at 20 and 58: the pairings interleave
    letters = [7] * 60
    letters[3], letters[43] = 1, -1
    letters[20], letters[58] = 2, -2
    letters[10], letters[11] = 3, -3          # nested pairings beside them
    letters[45], letters[50] = 4, -4
    w = W(*letters)
    pairings = frozenset({Pairing(3, 43), Pairing(58, 20), Pairing(10, 11), Pairing(45, 50)})
    with pytest.raises(ValueError, match="linked") as info:
        Folding(w, pairings)
    named = _named_pairings(str(info.value))
    assert len(named) == 2 and set(named) <= pairings
    assert chords_cross(named[0].positions(), named[1].positions())
    Folding(w, pairings - {Pairing(58, 20)})


def test_position_used_twice_across_pairings():
    w = W(1, -1, 1, 5)
    with pytest.raises(ValueError, match="position 1 used twice"):
        Folding(w, frozenset({Pairing(0, 1), Pairing(2, 1)}))
    # position 0 shared by a wrap-around pairing and a forward one
    with pytest.raises(ValueError, match="used twice"):
        Folding(W(-1, 2, 1, 1), frozenset({Pairing(2, 0), Pairing(0, 3)}))


@pytest.mark.parametrize("i, j", [(-1, 0), (0, 3), (2, 1)])
def test_pairing_positions_must_lie_in_the_word(i, j):
    # each pair is 0 and 1 modulo 2, but the area reads the positions as given
    w = W(1, -1)
    assert Folding(w, frozenset({Pairing(0, 1)})).area == 0
    with pytest.raises(ValueError, match=r"outside 0\.\.1"):
        Folding(w, frozenset({Pairing(i, j)}))


def test_area_counts_unpaired_weight():
    w = W(1, 2, -1, weights={1: Fraction(3), 2: Fraction(5)})
    assert Folding(w, frozenset()).area == Fraction(11)
    assert Folding(w, frozenset({Pairing(0, 2)})).area == Fraction(5)


def test_owner_names_the_pairing_that_holds_each_position():
    rng = random.Random(17)
    for _ in range(200):
        w = random_word(rng, max_len=12)
        _, witness = cancellation_norm(w)
        some = frozenset(p for p in witness.pairings if rng.random() < 0.5)
        for folding in (Folding(w, frozenset()), witness, Folding(w, some),
                        complete_to_maximal(w, witness)):
            assert len(folding.owner) == len(w)
            for x in range(len(w)):
                holding = [p for p in folding.pairings if x in p.positions()]
                assert folding.owner[x] is (holding[0] if holding else None)


# ---------------------------------------------------------------------------
# the norm DP


KNOWN_NORMS = [
    (W(), 0),
    (W(1), 1),
    (W(1, -1), 0),
    (W(1, 2, 1), 3),
    (W(2, 3, 1, 4, 2, -3, -4), 5),      # alternation forbids both pairings
    (W(3, 4, -3, -4), 2),
    (W(1, -1, 1, -1), 0),
    (W(1, 1, -1, -1), 0),
]


@pytest.mark.parametrize("word,value", KNOWN_NORMS)
def test_known_norms_unit_weights(word, value):
    got, witness = cancellation_norm(unit_weights(word))
    assert got == Fraction(value)
    assert witness.area == got


def test_norm_weighted():
    w = W(3, 4, -3, -4, weights={3: Fraction(10), 4: Fraction(1)})
    value, witness = cancellation_norm(w)
    assert value == Fraction(2)          # cancel the heavy face
    assert witness.pairings == frozenset({Pairing(0, 2)})


def test_witness_tie_break_is_deterministic():
    w = unit_weights(W(1, -1, 1, -1))
    _, witness = cancellation_norm(w)
    _, witness2 = cancellation_norm(w)
    assert witness == witness2
    assert Pairing(0, 1) in witness.pairings or Pairing(0, 3) in witness.pairings


def test_norm_against_oracle_seeded():
    rng = random.Random(20240824)
    for _ in range(250):
        w = random_word(rng)
        value, witness = cancellation_norm(w)
        assert witness.area == value
        assert value == norm_bruteforce(w)


def test_oracle_cap():
    w = unit_weights(W(*([1] * 15)))
    with pytest.raises(CapExceeded):
        norm_bruteforce(w)


def _assert_completes(w, folding):
    """``complete_to_maximal`` keeps the folding's pairings, does not grow
    its area, and leaves no pairing to add; returns how many it added."""
    maximal = complete_to_maximal(w, folding)
    assert folding.pairings <= maximal.pairings
    assert maximal.area <= folding.area
    # no further pairing can be added
    used = maximal.paired_positions
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if i in used or j in used:
                continue
            f, s = w[i]
            g, t = w[j]
            if f != g or s != -t:
                continue
            cand = Pairing(i, j) if s > 0 else Pairing(j, i)
            assert any(chords_cross(cand.positions(), p.positions()) for p in maximal.pairings)
    return len(maximal.pairings) - len(folding.pairings)


def test_complete_to_maximal():
    rng = random.Random(7)
    for _ in range(150):
        w = random_word(rng)
        value, witness = cancellation_norm(w)
        assert _assert_completes(w, witness) == 0


def test_complete_to_maximal_adds_pairings():
    rng = random.Random(31)
    added = {"empty": 0, "dropped": 0, "zero-weight": 0}
    for _ in range(150):
        w = random_word(rng)
        _, witness = cancellation_norm(w)
        kept = frozenset(p for p in witness.pairings if rng.random() < 0.5)
        added["empty"] += _assert_completes(w, Folding(w, frozenset()))
        added["dropped"] += _assert_completes(w, Folding(w, kept))
        # a zero-weight face: dropping its pairings keeps the area, and a
        # minimum witness is still maximal (the DP pairs a letter whenever
        # some minimum folding of its interval does)
        zero = w.with_weights({**w.weights, 1: Fraction(0)})
        _, witness = cancellation_norm(zero)
        assert _assert_completes(zero, witness) == 0
        light = Folding(zero, frozenset(p for p in witness.pairings if zero[p.i][0] != 1))
        assert light.area == witness.area
        added["zero-weight"] += _assert_completes(zero, light)
    assert min(added.values()) > 20, added


def test_maximal_completion_preserves_minimal_area():
    """Completing a minimum witness never uncovers more weight."""
    rng = random.Random(99)
    for _ in range(150):
        w = random_word(rng)
        value, witness = cancellation_norm(w)
        assert complete_to_maximal(w, witness).area == value


def test_norm_invariant_under_rotation_and_inverse():
    rng = random.Random(5)
    for _ in range(100):
        w = random_word(rng)
        value, _ = cancellation_norm(w)
        k = rng.randrange(0, len(w) + 1)
        assert cancellation_norm(w.rotate(k))[0] == value
        assert cancellation_norm(w.inverse())[0] == value


@given(st.integers(0, 10), st.integers(1, 3), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_norm_bounded_by_total_weight(m, faces, seed):
    rng = random.Random(seed)
    w = random_word(rng, max_len=m, faces=faces)
    value, _ = cancellation_norm(w)
    total = sum(w.weights[w[i][0]] for i in range(len(w)))
    assert 0 <= value <= total


# ---------------------------------------------------------------------------
# positive foldability and self-overlap detection


def test_positive_foldability_examples():
    ok, witness = positively_foldable(unit_weights(W(1)))
    assert ok and witness.pairings == frozenset()
    ok, _ = positively_foldable(unit_weights(W(1, 2, 1)))
    assert ok
    ok, _ = positively_foldable(unit_weights(W(-1)))
    assert not ok
    ok, _ = positively_foldable(unit_weights(W(1, 1, -1)))  # pairable
    assert ok
    ok, _ = positively_foldable(unit_weights(W(1, 2, 1, -3)))
    assert not ok


def test_positive_foldability_against_oracle():
    rng = random.Random(31337)
    for _ in range(250):
        w = random_word(rng, max_len=8)
        fast, witness = positively_foldable(w)
        assert fast == positively_foldable_bruteforce(w)
        if fast and witness is not None:
            # every pairing encloses only positive or cancelled letters
            assert isinstance(witness, Folding)


def test_positive_folding_of_a_long_positive_word():
    ok, witness = positively_foldable(CyclicWord(((1, 1),) * 1200))
    assert ok and witness.pairings == frozenset()


def test_positive_folding_of_a_dense_word_stays_small():
    """400 random letters over two faces give each letter about 100
    partners; the reachability table holds one int of 401 bits per row."""
    rng = random.Random("dense")
    w = CyclicWord([(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(400)], {})
    tracemalloc.start()
    try:
        positively_foldable(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_deeply_nested_word_needs_no_recursion():
    """f1 ... f300 f300^-1 ... f1^-1 with distinct faces: every pairing
    nests in the previous one, 300 deep."""
    letters = [(f, 1) for f in range(1, 301)] + [(f, -1) for f in range(300, 0, -1)]
    w = CyclicWord(letters, {f: Fraction(f, 7) for f in range(1, 301)})
    nested = frozenset(Pairing(k, 599 - k) for k in range(300))
    with recursion_headroom(100):
        value, witness = cancellation_norm(w)
        ok, positive = positively_foldable(w)
    assert value == 0 and witness.pairings == nested
    assert ok and positive.pairings == nested


def test_self_overlapping_corpus():
    expected = {
        "square": True, "one_ear": True,
        "bowtie": False, "mouse": False, "limacon": False,
        "pentagram": False, "spiral": False, "trefoil": False,
        "hook": False,
    }
    for name, verdict in expected.items():
        got, cert = is_self_overlapping(load_curve(name))
        assert got == verdict, name
        if not verdict:
            assert "reason" in cert


def test_self_overlap_reason_rotation():
    _, cert = is_self_overlapping(load_curve("bowtie"))
    assert cert["reason"] == "rotation_number=0"
    # rotation 1 alone is not enough: a negative letter can be unpairable
    _, cert = is_self_overlapping(load_curve("hook"))
    assert cert["reason"] == "not_positively_foldable"
