"""The norm DP, the homotopy trace and folding validation against the
straightforward versions they replaced.

The library computes the norm by one linear DP over the word read from
position 1, on the word's integer scale over per-position candidate
lists, replays foldings over linked position cycles, summing each step
over the same scale, and validates foldings in one stack pass.  The
oracles below are the direct forms of the same definitions: the interval
DP over every split point in ``Fraction`` arithmetic with a recursive
backtrack, closed over the cycle by conditioning on the fate of position
0, the trace that re-indexes the live positions for every pairing on
every step and adds each step's ``Fraction`` weights letter by letter,
and the ``chords_cross`` check of every two pairings; the
positive-folding search is checked against its recursive form, and its
kernel on int letter codes against the same kernel on letter tuples,
which bisects each letter's partner list and tests each partner's bit
alone: the pairs must be identical on long random and nested words, the
face words of the arrangements below and every judged piece.  The
oracle's cyclic step thus cross-checks the cut: the linear norm of the
rotated word must be the cyclic norm, and position 0's partner must be
the one the cyclic step picks.  Norms, witness
pairings, trace steps and accept/reject verdicts must be identical, on
long seeded words with ``p/q`` weights, on the words of random generic
polygons, whose face areas have large denominators, and on short words
over at most three faces with unit or whole weights, where position 0
often ties, and on dense words over one or two faces, where every letter
has many partners.

The twist and its two transports lay the twisted word out by position
arithmetic; their oracle records every letter's provenance (original
position, or host letter, block and index) and finds each added
letter's inverse twin through a lookup table.  Twisted letters and
transported pairings must be identical.

The arrangement judges segment pairs by the signs of integer cross
products on scaled corners and orders a segment's crossings by integer
keys of their parameters, and a piece's rotation turns over the segment
directions its edges store.  Their oracles are the ``Fraction`` forms:
the finder that divides out both parameters of every pair, sorts by them
and tests each corner against each segment, and the walk over the
pieces' geometry.  The unlinked vertex subsets, built level by level, are
checked against the filter over every combination.  The weights' scale
combines their denominators in a balanced tree of lcms; its oracle grows
the common denominator one fraction at a time, and the face measures
summed over the scale are checked against ``Fraction`` sums.

The arrangement orders the four darts at a crossing by the sign of one
cross product of its two pass directions, and sums each edge's integer
shoelace sum, over the corners scaled by their common denominator, once
into the faces on its two sides.  Their oracles sort the darts by angle
with a comparator and walk every face's boundary dart by dart in
``Fraction`` arithmetic.  The orders must agree up to rotation, the areas
and the crossings found exactly, on the corpus and on random polygons of
5 to 100 corners, integer and ``p/q``.  A crossing-free curve goes
through the same construction as one closed edge; its oracle builds the
edge and its two faces by hand.  The arrangements must be equal field
for field.

``tree_cotree`` walks each face's boundary once and keeps its cotree
children in boundary order.  Its oracle is the walk the cable system
and the recursive word each ran on their own before it: for one face,
from just after its parent edge, every cotree edge but the parent edge.  The children must be identical on the corpus and the random
polygons, with the default cotree and with pinned parent edges, and be
the parent edges of exactly the faces whose cotree parent is the face.

Smoothing names its pieces in one bracket walk over the smoothed
vertices' sorted passes and cuts each piece from its name.  Its oracle
scans the entries for each vertex's two passes, tests every pair
of chords for linking, and gives each entry to the shortest chord that
encloses it.  Pieces, their order and the ``LinkedVertices`` verdicts
must be identical.

The decomposition search judges each distinct piece once from its key,
cuts only the pieces that certify, keeps each with its certificate, and
skips a vertex set that holds a piece already known to fail.  Its oracle
is the library's own ``_smoothed_decompositions``, the path of
``sod_oracle``: it smooths every unlinked vertex set and certifies every
piece.  The decompositions, their order, pieces, certificates and areas
must be identical.  The walk drops the sets below a failing piece that
keep it; its oracle is the unpruned walk, which skips each set holding a
key known to fail.  The keys judged, their order and the decompositions
found must be identical, on the corpus, the random polygons and ten
seeded bench-style curves up to the answer.  The walk's own contract is
checked apart from the judge: with a seeded eighth of the keys it names
made to fail, it must yield the unpruned walk's sets less every set that
holds one of them, in order, and skip asking about a set only when it
holds a key already named.  The judge reads a piece's
rotation as the turning of its vertex's loop less that of each nested
vertex, by the additivity of rotation under smoothing, which the pieces
of every smoothing above must show by the direction walk alone; and it
reads the winding area of a piece that certifies as a prefix-sum
difference on the word's scale.  On every piece of the smoothings above
and of the smoothings at up to three crossings of those ten curves, the
rotation must be the walk over the cut piece's geometry, and the
verdict, certificate (witness included) and area those of
``certify_subcurve`` and ``Subcurve.area_w`` on the cut piece.

The homotopy trace replays a folding on the word alone.  Its geometric
oracle is Blank's induction itself (``blank_cuts``): the whole curve is
cut at each cut step's two letters, one side must hold exactly the
letters the next step contracts and no letter of a pairing still to be
cut, and the other side goes on, until the piece left holds the last
step's letters up to rotation; on the norm witnesses of the corpus, the
random polygons and 40 seeded 5- to 20-gons.
"""

import functools
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

import blank_cuts
from blank_cuts import cut_along_folding, cut_at, stack_decompose
from conftest import (CORPUS, RANDOM_POLYGONS, cyclic_equal, load_curve, pipeline,
                      random_generic_polygon)
from curvefold.arrangement import (Arrangement, DegenerateCurve, Edge, Face,
                                   NonGenericCurve, PlaneCurve, _cross, _integer_segments,
                                   _segment_intersections, build_arrangement, common_denominator,
                                   face_measures, point_str, tree_cotree, turning_of_directions)
from curvefold.decomposition import (ContractStep, CutStep, LinkedVertices, Subcurve,
                                     _decompositions, _KeyJudge, _piece, _piece_keys,
                                     _smoothed_decompositions, _unlinked_keys, certify_subcurve,
                                     curve_subcurve, homotopy_trace, smooth_at)
from curvefold.folding import (Folding, Pairing, _inverse_occurrences, _letter_codes,
                               _positive_linear, cancellation_norm, chords_cross,
                               complete_to_maximal, positively_foldable)
from curvefold.transforms import back_transport_twist, dehn_twist, transport_folding_twist
from curvefold.words import CyclicWord, blank_word, build_cable_system, face_word, invert_sequence


# ---------------------------------------------------------------------------
# oracles


def _norm_table(letters, weights):
    """dp[i][j] = norm of the linear subword letters[i:j], every split tried."""
    m = len(letters)
    dp = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for length in range(1, m + 1):
        for i in range(0, m - length + 1):
            j = i + length
            f, s = letters[j - 1]
            best = dp[i][j - 1] + weights[f]
            for k in range(i, j - 1):
                if letters[k] == (f, -s):
                    cand = dp[i][k] + dp[k + 1][j - 1]
                    if cand < best:
                        best = cand
            dp[i][j] = best
    return dp


def _backtrack(letters, weights, dp, i, j, out):
    while j > i:
        f, s = letters[j - 1]
        chosen = None
        for k in range(i, j - 1):
            if letters[k] == (f, -s) and dp[i][k] + dp[k + 1][j - 1] == dp[i][j]:
                chosen = k
                break
        if chosen is not None:
            out.append((chosen, j - 1))
            _backtrack(letters, weights, dp, chosen + 1, j - 1, out)
            j = chosen
        else:
            assert dp[i][j] == dp[i][j - 1] + weights[f]
            j -= 1


def norm_oracle(word: CyclicWord) -> tuple[Fraction, frozenset[Pairing]]:
    """(norm, witness pairings) by the all-split ``Fraction`` DP."""
    m = len(word)
    if m == 0:
        return Fraction(0), frozenset()
    letters, weights = word.letters, word.weights
    rest = letters[1:]
    dp = _norm_table(rest, weights)
    f0, s0 = letters[0]
    best = dp[0][m - 1] + weights[f0]
    best_k: Optional[int] = None
    for k in range(1, m):
        if letters[k] == (f0, -s0):
            cand = dp[0][k - 1] + dp[k][m - 1]
            if cand < best or (cand == best and best_k is None):
                best, best_k = cand, k
    pairs: list[tuple[int, int]] = []
    if best_k is None:
        _backtrack(rest, weights, dp, 0, m - 1, pairs)
        return best, frozenset(Pairing(a + 1, b + 1) for a, b in pairs)
    _backtrack(rest, weights, dp, 0, best_k - 1, pairs)
    _backtrack(rest, weights, dp, best_k, m - 1, pairs)
    return best, frozenset([Pairing(0, best_k)] + [Pairing(a + 1, b + 1) for a, b in pairs])


def trace_oracle(folding: Folding) -> tuple:
    """Trace steps, re-indexing the live positions for every pairing."""
    word = folding.word
    live = list(range(len(word)))
    remaining = set(folding.pairings)
    paired_pos = {x for p in remaining for x in (p.i, p.j)}
    steps = []

    def free_arc(p):
        idx = {pos: k for k, pos in enumerate(live)}
        a, b = idx[p.i], idx[p.j]
        n = len(live)
        for start, stop in ((a, b), (b, a)):
            arc = [live[(start + t) % n] for t in range(1, (stop - start) % n)]
            if not any(x in paired_pos for x in arc):
                return arc
        return None

    while remaining:
        candidates = []
        for p in remaining:
            arc = free_arc(p)
            if arc is not None:
                candidates.append((len(arc), min(p.i, p.j), p, arc))
        _, _, p, arc = min(candidates, key=lambda c: (c[0], c[1]))
        steps.append(CutStep(face=word[p.i][0], positions=(p.i, p.j)))
        steps.append(ContractStep(letters=tuple(word[x] for x in arc),
                                  area=sum((word.weights[word[x][0]] for x in arc), Fraction(0))))
        gone = set(arc) | {p.i, p.j}
        live = [x for x in live if x not in gone]
        remaining.discard(p)
        paired_pos -= {p.i, p.j}
    steps.append(ContractStep(letters=tuple(word[x] for x in live),
                              area=sum((word.weights[word[x][0]] for x in live), Fraction(0))))
    return tuple(steps)


def positive_oracle(letters) -> Optional[list[tuple[int, int]]]:
    """Pairings of a positive folding by the recursive memoised search."""
    memo = {}

    def solve(i, j):
        if i == j:
            return []
        if (i, j) in memo:
            return memo[(i, j)]
        f, s = letters[i]
        result = solve(i + 1, j) if s > 0 else None
        if result is None:
            for k in range(i + 1, j):
                if letters[k] != (f, -s):
                    continue
                inner = solve(i + 1, k)
                if inner is None:
                    continue
                rest = solve(k + 1, j)
                if rest is not None:
                    result = [(i, k)] + inner + rest
                    break
        memo[(i, j)] = result
        return result

    return solve(0, len(letters))


def positive_linear_oracle(letters) -> Optional[list[tuple[int, int]]]:
    """The positive-folding kernel on letter tuples: the same reachability
    table of ints, with each letter's later partners found by bisecting
    the list of positions holding its inverse, and each tested bit by
    bit."""
    n = len(letters)
    inverses = _inverse_occurrences(letters)
    ok = [0] * n + [1 << n]
    for i in range(n - 1, -1, -1):
        below = ok[i + 1]
        row = 1 << i | (below if letters[i][1] > 0 else 0)
        ks = inverses[i]
        for k in ks[bisect_right(ks, i):]:
            if below >> k & 1:
                row |= ok[k + 1]
        ok[i] = row
    if not ok[0] >> n & 1:
        return None
    pairs = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        while i < j:
            below = ok[i + 1]
            if letters[i][1] > 0 and below >> j & 1:
                i += 1
                continue
            ks = inverses[i]
            k = next(k for k in ks[bisect_right(ks, i):bisect_left(ks, j)]
                     if below >> k & 1 and ok[k + 1] >> j & 1)
            pairs.append((i, k))
            stack.append((k + 1, j))
            i, j = i + 1, k
    return pairs


def folding_valid_oracle(word: CyclicWord, pairings) -> bool:
    """Inverse letters, disjoint positions and no two pairings linked."""
    used = set()
    for p in pairings:
        f, s = word[p.i]
        if p.i == p.j or word[p.j] != (f, -s):
            return False
        if used & {p.i, p.j}:
            return False
        used.update((p.i, p.j))
    return not any(chords_cross(p.positions(), q.positions())
                   for p, q in itertools.combinations(pairings, 2))


@dataclass(frozen=True)
class _Slot:
    """One letter of the twisted word with its provenance."""

    letter: tuple[int, int]
    orig: Optional[int]          # original position, if the letter survives
    host: Optional[int] = None   # original position whose block added it
    block: Optional[str] = None  # "pre" or "suf"
    index: int = -1


def _twist_blocks(i, j, B, letter):
    """Conjugating blocks inserted around one original letter, if any."""
    Bi = tuple(B)
    Bb = invert_sequence(Bi)
    f, _ = letter
    if f == i:
        return ((i, -1), *Bb, (j, -1), *Bi), (*Bb, (j, 1), *Bi, (i, 1))
    if f == j:
        return ((*Bi, (i, -1), *Bb, (j, -1))), ((j, 1), *Bi, (i, 1), *Bb)
    return None


def _twist_slots(word, i, j, B) -> list[_Slot]:
    slots = []
    for k in range(len(word)):
        letter = word[k]
        blocks = _twist_blocks(i, j, B, letter)
        if blocks is None:
            slots.append(_Slot(letter, orig=k))
            continue
        pre, suf = blocks
        for t, l in enumerate(pre):
            slots.append(_Slot(l, orig=None, host=k, block="pre", index=t))
        slots.append(_Slot(letter, orig=k))
        for t, l in enumerate(suf):
            slots.append(_Slot(l, orig=None, host=k, block="suf", index=t))
    return slots


def _mirror(slots) -> dict[int, int]:
    """Entry t of a prefix inverts entry L-1-t of the same letter's suffix."""
    by_key = {(s.host, s.block, s.index): p
              for p, s in enumerate(slots) if s.orig is None}
    length = {}
    for s in slots:
        if s.orig is None:
            length[s.host] = max(length.get(s.host, 0), s.index + 1)
    twin = {}
    for p, s in enumerate(slots):
        if s.orig is None:
            other = "suf" if s.block == "pre" else "pre"
            twin[p] = by_key[(s.host, other, length[s.host] - 1 - s.index)]
    return twin


def twist_oracle(word, i, j, B) -> tuple:
    return tuple(s.letter for s in _twist_slots(word, i, j, B))


def transport_twist_oracle(word, folding, i, j, B) -> frozenset[Pairing]:
    """Survivors move; blocks pair mirror-wise or across a pairing."""
    slots = _twist_slots(word, i, j, B)
    pos_of = {s.orig: p for p, s in enumerate(slots) if s.orig is not None}
    blocks = {}
    for p, s in enumerate(slots):
        if s.orig is None:
            blocks.setdefault((s.host, s.block), []).append(p)
    paired_with = {}
    for p in folding.pairings:
        paired_with[p.i] = p.j
        paired_with[p.j] = p.i
    pairings = {Pairing(min(pos_of[p.i], pos_of[p.j]), max(pos_of[p.i], pos_of[p.j]))
                for p in folding.pairings}

    def pair_blocks(xs, ys):
        for t, x in enumerate(xs):
            y = ys[len(ys) - 1 - t]
            pairings.add(Pairing(min(x, y), max(x, y)))

    done = set()
    for k in range(len(word)):
        if (k, "pre") not in blocks or k in done:
            continue
        mate = paired_with.get(k)
        if mate is None:
            pair_blocks(blocks[(k, "pre")], blocks[(k, "suf")])
            done.add(k)
        else:
            pair_blocks(blocks[(k, "suf")], blocks[(mate, "pre")])
            pair_blocks(blocks[(mate, "suf")], blocks[(k, "pre")])
            done.update((k, mate))
    return frozenset(pairings)


def back_transport_twist_oracle(word, folding_twisted, i, j, B) -> frozenset[Pairing]:
    """Chains of pairing and twin steps from a survivor to a survivor."""
    slots = _twist_slots(word, i, j, B)
    twin = _mirror(slots)
    partner = {}
    for p in folding_twisted.pairings:
        partner[p.i] = p.j
        partner[p.j] = p.i
    pairings, assigned = [], set()
    for p in folding_twisted.pairings:
        sa, sb = slots[p.i], slots[p.j]
        if sa.orig is not None and sb.orig is not None:
            pairings.append(Pairing(min(sa.orig, sb.orig), max(sa.orig, sb.orig)))
            assigned.update((sa.orig, sb.orig))
            continue
        if sa.orig is None and sb.orig is None:
            continue
        start, cur = (sa, p.j) if sa.orig is not None else (sb, p.i)
        if start.orig in assigned:
            continue
        visited, end = set(), None
        while True:
            assert cur not in visited, "the alternating chain must not loop"
            visited.add(cur)
            t = twin[cur]
            if t in visited:
                break
            visited.add(t)
            nxt = partner.get(t)
            if nxt is None:
                break
            if slots[nxt].orig is not None:
                end = slots[nxt].orig
                break
            cur = nxt
        if end is not None and end not in assigned:
            pairings.append(Pairing(min(start.orig, end), max(start.orig, end)))
            assigned.update((start.orig, end))
    return frozenset(pairings)


# ---------------------------------------------------------------------------
# inputs


def nested_letters(rng, length, faces, positive=False):
    """A product of nested conjugates a w a^-1, so that pairings nest deeply;
    with ``positive`` the cores are positive letters and the word folds
    positively."""
    if length == 0:
        return []
    if length == 1:
        return [(rng.randint(1, faces), 1 if positive else rng.choice((1, -1)))]
    if rng.random() < 0.6:
        f, s = rng.randint(1, faces), rng.choice((1, -1))
        return [(f, s)] + nested_letters(rng, length - 2, faces, positive) + [(f, -s)]
    cut = rng.randint(1, length - 1)
    return (nested_letters(rng, cut, faces, positive)
            + nested_letters(rng, length - cut, faces, positive))


@functools.cache
def seeded_long_words():
    rng = random.Random(4404)
    words = []
    # (length, faces, largest denominator); whole weights make ties, which
    # the witness must break as the oracle does
    for length, faces, q in ((100, 6, 1), (100, 6, 12), (150, 12, 12), (210, 20, 12), (300, 30, 12)):
        for nested in (False, True):
            letters = (nested_letters(rng, length, faces) if nested else
                       [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)])
            top = 60 if q > 1 else 3
            weights = {f: Fraction(rng.randint(1, top), rng.randint(1, q))
                       for f in range(1, faces + 1)}
            words.append(CyclicWord(letters, weights))
    return words


@functools.cache
def tie_words():
    """Short words over at most three faces with unit or whole weights, so
    that position 0 often has several partners, or none, that reach the
    minimum."""
    rng = random.Random(4405)
    words = []
    for n in range(400):
        length, faces = rng.randint(1, 16), rng.randint(1, 3)
        letters = (nested_letters(rng, length, faces) if n % 2 else
                   [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)])
        weights = {} if n % 3 == 0 else {f: Fraction(rng.randint(1, 3))
                                         for f in range(1, faces + 1)}
        words.append(CyclicWord(letters, weights))
    return words


@functools.cache
def polygon_words():
    # the small corpus of the winding tests, and three 22-gons whose words
    # run to 60-120 letters
    polygons = [(seed, corners, 10 ** 4) for seed, corners in RANDOM_POLYGONS]
    polygons += [(seed, 22, 10 ** 6) for seed in range(3)]
    words = []
    for seed, corners, span in polygons:
        _, arr = random_generic_polygon(random.Random(seed), corners, span)
        words.append(blank_word(arr, build_cable_system(arr, tree_cotree(arr))))
    return words


def random_pairings(rng, word, tries):
    """Random inverse-letter pairings in both orders, often linked or
    sharing a position, for the validation verdicts."""
    m = len(word)
    out = []
    for _ in range(tries):
        i = rng.randrange(m)
        f, s = word[i]
        mates = [j for j in range(m) if word[j] == (f, -s)]
        if mates:
            out.append(Pairing(i, rng.choice(mates)))
    return frozenset(out)


def greedy_folding(rng, word):
    """A random maximal-ish folding, pairings in both orders."""
    m = len(word)
    pairings, taken = [], set()
    for i in rng.sample(range(m), m):
        if i in taken:
            continue
        f, s = word[i]
        for j in rng.sample(range(m), m):
            if j in taken or j == i or word[j] != (f, -s):
                continue
            cand = Pairing(i, j)
            if not any(chords_cross(cand.positions(), p.positions()) for p in pairings):
                pairings.append(cand)
                taken.update({i, j})
                break
    return Folding(word, frozenset(pairings))


@functools.cache
def dense_words():
    """Random words of 20 to 60 letters over one or two faces, so that each
    letter has many partners and the positive search many splits."""
    rng = random.Random(4406)
    words = []
    for n in range(60):
        length, faces = rng.randint(20, 60), 1 + n % 2
        letters = [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)]
        weights = {} if n % 3 == 0 else {f: Fraction(rng.randint(1, 3))
                                         for f in range(1, faces + 1)}
        words.append(CyclicWord(letters, weights))
    return words


WORDS = {"seeded": seeded_long_words, "polygon": polygon_words, "ties": tie_words,
         "dense": dense_words}


@pytest.mark.parametrize("source", sorted(WORDS))
def test_norm_witness_and_trace_match_the_oracles(source):
    for word in WORDS[source]():
        value, witness = cancellation_norm(word)
        assert (value, witness.pairings) == norm_oracle(word)
        assert homotopy_trace(witness).steps == trace_oracle(witness)


@pytest.mark.parametrize("source", sorted(WORDS))
def test_positive_witness_matches_the_recursive_search(source):
    rng = random.Random(source)
    # positive cores, so that some long words fold positively
    words = WORDS[source]() + [CyclicWord(nested_letters(rng, length, 12, positive=True), {})
                               for length in (40, 120, 250)]
    verdicts = []
    for word in words:
        ok, witness = positively_foldable(word)
        expected = positive_oracle(word.letters)
        assert ok == (expected is not None)
        if ok:
            assert witness.pairings == frozenset(Pairing(a, b) for a, b in expected)
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


def _code_kernel_agrees(letters) -> bool:
    """Does the kernel on letter codes find the oracle's pairs?  Returns
    whether the letters fold positively."""
    pairs = _positive_linear(_letter_codes(letters))
    assert pairs == positive_linear_oracle(letters), letters
    return pairs is not None


def test_code_kernel_matches_the_letter_kernel_on_long_words():
    rng = random.Random(4407)
    verdicts = []
    for length in (120, 150, 180, 210, 240, 270, 300):
        for faces in (4, 12, 30):
            verdicts.append(_code_kernel_agrees(
                [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)]))
            for positive in (False, True):
                verdicts.append(_code_kernel_agrees(
                    nested_letters(rng, length, faces, positive)))
    assert True in verdicts and False in verdicts


def test_code_kernel_matches_the_letter_kernel_on_face_words():
    verdicts = []
    for arr in _oracle_arrangements():
        letters = blank_word(arr, build_cable_system(arr, tree_cotree(arr))).letters
        verdicts.append(_code_kernel_agrees(letters))
        verdicts.append(_code_kernel_agrees(invert_sequence(letters)))
    assert len(verdicts) == 2 * 310 and True in verdicts and False in verdicts


@pytest.mark.parametrize("source", sorted(WORDS))
def test_trace_of_arbitrary_foldings_matches_the_oracle(source):
    rng = random.Random(source)
    for word in WORDS[source]():
        folding = greedy_folding(rng, word)
        trace = homotopy_trace(folding)
        assert trace.steps == trace_oracle(folding)
        assert trace.total_area == folding.area


@pytest.mark.parametrize("source", sorted(WORDS))
def test_folding_verdicts_match_the_pairwise_check(source):
    rng = random.Random(source)
    verdicts = []
    for word in WORDS[source]():
        candidates = [cancellation_norm(word)[1].pairings, greedy_folding(rng, word).pairings]
        candidates += [random_pairings(rng, word, tries) for tries in (2, 3, 5, 10, 30)]
        for pairings in candidates:
            expected = folding_valid_oracle(word, pairings)
            try:
                Folding(word, pairings)
                got = True
            except ValueError:
                got = False
            assert got == expected, sorted(pairings)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def twist_cases():
    """(word, i, j, bundle) over seeded words: flat and nested, short and
    long, empty and longer bundles, and words without an i or j letter."""
    rng = random.Random(6606)
    cases = []
    for n in range(48):
        faces = rng.randint(2, 6)
        length = rng.randint(1, 30)
        letters = (nested_letters(rng, length, faces) if n % 2 else
                   [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)])
        i, j = rng.sample(range(1, faces + 3), 2)     # faces + 1, + 2 never occur
        B = [(rng.randint(1, faces + 2), rng.choice((1, -1))) for _ in range(n % 4)]
        weights = {f: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for f in range(1, faces + 3)}
        cases.append((CyclicWord(letters, weights), i, j, B))
    return cases


def test_twist_and_its_transports_match_the_provenance_oracle():
    rng = random.Random(6607)
    seen = {"empty bundle": 0, "no i or j letter": 0, "wrapped pair": 0, "chain": 0}
    for word, i, j, B in twist_cases():
        twisted = dehn_twist(word, i, j, B)
        assert twisted.letters == twist_oracle(word, i, j, B)
        seen["empty bundle"] += not B
        seen["no i or j letter"] += all(f not in (i, j) for f, _ in word)

        for folding in (complete_to_maximal(word, cancellation_norm(word)[1]),
                        greedy_folding(rng, word)):
            moved = transport_folding_twist(word, twisted, folding, i, j, B)
            assert moved.pairings == transport_twist_oracle(word, folding, i, j, B)
            seen["wrapped pair"] += any(word[p.i][0] in (i, j) for p in folding.pairings)

        for folding in (complete_to_maximal(twisted, cancellation_norm(twisted)[1]),
                        greedy_folding(rng, twisted)):
            pulled = back_transport_twist(word, twisted, folding, i, j, B)
            assert pulled.pairings == back_transport_twist_oracle(word, folding, i, j, B)
            kept = [s.orig is not None for s in _twist_slots(word, i, j, B)]
            seen["chain"] += any(kept[p.i] != kept[p.j] for p in folding.pairings)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# geometry and the unlinked subsets


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _on_segment(p, a, b) -> bool:
    if _cross(_sub(b, a), _sub(p, a)) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def segment_intersections_oracle(curve: PlaneCurve):
    """Segment index -> its crossing points sorted by parameter, in
    ``Fraction`` arithmetic: both parameters of every non-parallel pair,
    and every corner tested against every segment of a collinear pair."""
    pts = curve.points
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    hits = {i: [] for i in range(n)}
    point_owners = {}
    for i in range(n):
        a, b = segs[i]
        for j in range(i + 1, n):
            c, d = segs[j]
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            r, s = _sub(b, a), _sub(d, c)
            denom = _cross(r, s)
            if denom == 0:
                if _cross(_sub(c, a), r) == 0 and (
                        _on_segment(c, a, b) or _on_segment(d, a, b)
                        or _on_segment(a, c, d) or _on_segment(b, c, d)):
                    shared = b if j == i + 1 else a
                    if not adjacent or _on_segment(d if c == shared else c, a, b) or _on_segment(
                            a if shared == b else b, c, d):
                        raise NonGenericCurve(f"segments {i} and {j} overlap along a line")
                continue
            t = _cross(_sub(c, a), s) / denom
            u = _cross(_sub(c, a), r) / denom
            if t < 0 or t > 1 or u < 0 or u > 1:
                continue
            p = (a[0] + t * r[0], a[1] + t * r[1])
            if adjacent:
                # two lines through the shared corner meet only there
                assert p == (b if j == i + 1 else a)
                continue
            if t in (0, 1) or u in (0, 1):
                raise NonGenericCurve(
                    f"endpoint contact between segments {i} and {j} at {point_str(p)}")
            owners = point_owners.setdefault(p, set())
            owners.update((i, j))
            if len(owners) > 2:
                raise NonGenericCurve(f"three or more segments meet at {point_str(p)}")
            hits[i].append((t, p))
            hits[j].append((u, p))
    for i in range(n):
        hits[i].sort(key=lambda pair: pair[0])
        ts = [t for t, _ in hits[i]]
        assert all(a < b for a, b in zip(ts, ts[1:])), "the triple-point check fires first"
        hits[i] = [p for _, p in hits[i]]
    return hits


def _ccw_cmp(u, v) -> int:
    """Compare two nonzero directions by their angle in [0, 2pi)."""
    hu, hv = (0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1 for w in (u, v))
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    return -1 if c > 0 else 1 if c < 0 else 0


def rotation_system_oracle(arr) -> dict[int, list[int]]:
    """Vertex id -> its outgoing dart ids (2e forwards along edge e, 2e + 1
    backwards) sorted by the angle they leave at."""
    def leaving(d):
        dirs = arr.edges[d >> 1].directions
        return (-dirs[-1][0], -dirs[-1][1]) if d & 1 else dirs[0]

    if not arr.vertices:
        return {}
    incident = {v.id: [] for v in arr.vertices}
    for e in arr.edges:
        incident[e.v_from].append(2 * e.id)
        incident[e.v_to].append(2 * e.id + 1)
    for darts in incident.values():
        assert len(darts) == 4
        darts.sort(key=functools.cmp_to_key(lambda p, q: _ccw_cmp(leaving(p), leaving(q))))
    return incident


def _shoelace2(path) -> Fraction:
    """Twice the signed area the polyline ``path`` sweeps about the origin."""
    return sum((_cross(path[i], path[i + 1]) for i in range(len(path) - 1)), Fraction(0))


def face_area_oracle(arr, face) -> Fraction:
    """Half the shoelace sum along the face's boundary, dart by dart."""
    total = Fraction(0)
    for d in face.boundary:
        g = arr.dart_geometry(d)
        for i in range(len(g) - 1):
            total += _cross(g[i], g[i + 1])
    return total / 2


def boundary_children_oracle(arr, tc, fid: int) -> list[int]:
    """Cotree edges to the children of face fid, in ccw boundary order.

    The walk starts just after the parent edge (or at the cycle's stored
    start for the unbounded face).
    """
    cycle = arr.faces[fid].boundary
    parent_eid = tc.parent_edge.get(fid)
    start = 0
    if parent_eid is not None:
        start = next(i for i, d in enumerate(cycle) if d >> 1 == parent_eid) + 1
    # every cotree edge of the boundary but fid's own parent edge is the
    # parent edge of the face across it
    return [d >> 1 for d in cycle[start:] + cycle[:start]
            if d >> 1 in tc.cotree and d >> 1 != parent_eid]


def simple_loop_oracle(curve: PlaneCurve) -> Arrangement:
    """Crossing-free curve: one closed edge, a bounded and an unbounded face."""
    pts = curve.points
    geom = tuple(pts) + (pts[0],)
    area2 = _shoelace2(geom)
    ccw = area2 > 0
    edge = Edge(id=0, v_from=None, v_to=None, geometry=geom,
                directions=tuple(_integer_segments(pts)[2]))
    forward, backward = 0, 1  # the dart ids of edge 0
    inner = Face(id=1, boundary=(forward if ccw else backward,),
                 signed_area=abs(area2) / 2, unbounded=False,
                 winding=1 if ccw else -1, depth=1, parent=(0, 0))
    outer = Face(id=0, boundary=(backward if ccw else forward,),
                 signed_area=-abs(area2) / 2, unbounded=True, winding=0, depth=0)
    edge.left_face = 1 if ccw else 0
    edge.right_face = 0 if ccw else 1
    return Arrangement(curve=curve, vertices=[], edges=[edge],
                       faces=[outer, inner], vertex_passes={},
                       dual=[[(1, 0)], [(0, 0)]], face_weights={1: abs(area2) / 2})


def rotation_oracle(piece) -> int:
    """The piece's turning number from the directions of its geometry."""
    dirs = []
    for e in piece.entries:
        geom = piece.arr.dart_geometry(piece.arr.traversal[e.dart])
        for i in range(len(geom) - 1):
            d = _sub(geom[i + 1], geom[i])
            if d != (0, 0):
                dirs.append(d)
    return turning_of_directions(dirs)


def unlinked_subsets_oracle(chords, largest=None) -> list[tuple[int, ...]]:
    """Every combination of vertices (of at most ``largest``), smallest
    first, kept when no two of its chords cross."""
    vs = sorted(chords)
    sizes = range(len(vs) + 1 if largest is None else min(largest, len(vs)) + 1)
    return [combo for r in sizes for combo in itertools.combinations(vs, r)
            if not any(chords_cross(chords[u], chords[v])
                       for u, v in itertools.combinations(combo, 2))]


def smooth_oracle(sc, vertices):
    """Smoothing by chord scans, the pairwise link test and the innermost
    enclosing chord of each entry."""
    vs = sorted(set(vertices))
    chords = {}
    for v in vs:
        hits = [i for i, e in enumerate(sc.entries) if e.tail_vertex == v]
        if len(hits) != 2:
            raise LinkedVertices(f"vertex {v} does not cross this piece twice")
        chords[v] = (hits[0], hits[1])
    for u, v in itertools.combinations(vs, 2):
        if chords_cross(chords[u], chords[v]):
            raise LinkedVertices(f"vertices {u} and {v} are linked")
    n = len(sc.entries)

    def owner(i):
        best, length = None, n + 1
        for v, (a, b) in chords.items():
            if a <= i < b and b - a < length:
                best, length = v, b - a
        return best

    groups = {}
    for i in range(n):
        groups.setdefault(owner(i), []).append(i)
    pieces = []
    for key in [None] + vs:
        entries = tuple(sc.entries[i] for i in groups.get(key, []))
        if entries:
            pieces.append(Subcurve(entries=entries, arr=sc.arr))
    return pieces


def _finder_outcome(find, curve):
    try:
        return find(curve)
    except NonGenericCurve as exc:
        return str(exc)


def _finder_hits(curve):
    """``_segment_intersections`` in the oracle's shape: segment index ->
    its crossing points in order, in the curve's coordinates.  The order
    keys must strictly increase."""
    D, corners, dirs = _integer_segments(curve.points)
    found = {}
    for i, h in enumerate(_segment_intersections(D, corners, dirs)):
        keys = [key for key, _, _ in h]
        assert all(type(k) is int for k in keys) and keys == sorted(set(keys)), (i, keys)
        found[i] = [(Fraction(X, q * D), Fraction(Y, q * D)) for _, _, (X, Y, q) in h]
    return found


def test_segment_finder_matches_the_fraction_oracle():
    rng = random.Random(8808)
    seen = {"crossing": 0, "collinear overlap": 0, "adjacent reversal": 0,
            "endpoint contact": 0, "triple point": 0}
    for _ in range(3000):
        # small integer and rational coordinates, so that contacts,
        # overlaps and triple points are common
        q = rng.choice((1, 2, 3))
        pts = tuple((Fraction(rng.randint(-3, 3), q), Fraction(rng.randint(-3, 3), rng.choice((1, q))))
                    for _ in range(rng.randint(3, 7)))
        try:
            curve = PlaneCurve(pts)
        except DegenerateCurve:
            continue
        found = _finder_outcome(_finder_hits, curve)
        assert found == _finder_outcome(segment_intersections_oracle, curve), pts
        if not isinstance(found, str):
            seen["crossing"] += any(found.values())
        elif found.startswith("segments"):
            i, j = (int(w) for w in found.split()[1:4:2])
            adjacent = j == i + 1 or (i == 0 and j == len(pts) - 1)
            seen["adjacent reversal" if adjacent else "collinear overlap"] += 1
        elif found.startswith("endpoint"):
            seen["endpoint contact"] += 1
        else:
            assert found.startswith("three or more segments meet")
            seen["triple point"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("scale", [1, 7])
def test_order_keys_separate_parameters_closer_than_one_over_the_bound(scale):
    """Segment 0 runs along the x-axis from (0, 0) to (1000, 0).  Segments 2
    and 4 cross it at x = 500 - 1/999 and x = 501 - 999/998, which differ
    by 1/(999 * 998), so the two parameters differ by about 1/denom^2:
    closer than 1/B, B = 2 M^2 the bound on a parameter's denominator, so
    keys floor(t B) would tie them.  With the corners divided by 7 they
    scale by D = 7 and the parameters are the same."""
    pts = [(0, 0), (1000, 0), (500, -1), (499, 998), (-498, 997), (501, -1)]
    curve = PlaneCurve(tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in pts))
    D, corners, dirs = _integer_segments(curve.points)
    assert D == scale
    hits = _segment_intersections(D, corners, dirs)
    assert [pair for _, pair, _ in hits[0]] == [(0, 4), (0, 2)]
    (k4, _, _), (k2, _, _) = hits[0]
    assert type(k4) is int and type(k2) is int and k4 < k2
    t4, t2 = (Fraction(501 * 998 - 999, 998 * 1000), Fraction(500 * 999 - 1, 999 * 1000))
    assert t2 - t4 == Fraction(1, 1000 * 999 * 998)
    M = max(max(abs(x), abs(y)) for x, y in dirs)
    B = 2 * M * M
    assert M == 1000 and math.floor(t4 * B) == math.floor(t2 * B)
    assert _finder_hits(curve) == segment_intersections_oracle(curve)
    assert [p[0] for p in _finder_hits(curve)[0]] == [t4 * 1000 / scale, t2 * 1000 / scale]


def _oracle_arrangements():
    """The corpus, the random polygons, 216 seeded polygons of 5 to 40
    corners, 60 of 5 to 34 corners whose coordinates are p/q with q up to
    2 to 13 (so the corners scale by a common denominator D > 1), and the
    100-gon the bench draws as ``draw_curve(random.Random("x-100"), 100)``
    (the same draws)."""
    for name in CORPUS:
        yield pipeline(name)[1]
    for seed, corners in RANDOM_POLYGONS:
        yield random_generic_polygon(random.Random(seed), corners)[1]
    for k in range(216):
        yield random_generic_polygon(random.Random(f"arr-{k}"), 5 + k % 36)[1]
    for k in range(60):
        yield random_generic_polygon(random.Random(f"arr-q-{k}"), 5 + k % 30, q=2 + k % 12)[1]
    yield random_generic_polygon(random.Random("x-100"), 100, span=10 ** 6)[1]


def test_rotation_system_and_face_areas_match_the_angular_sort_and_the_walk():
    arrangements = crossings = faces = scaled = 0
    for arr in _oracle_arrangements():
        scaled += _integer_segments(arr.curve.points)[0] > 1
        assert _finder_hits(arr.curve) == segment_intersections_oracle(arr.curve)
        for v, expected in rotation_system_oracle(arr).items():
            darts = list(arr.vertices[v].darts_ccw)
            k = expected.index(darts[0])
            assert darts == expected[k:] + expected[:k], (arr.curve.points, v)
        for f in arr.faces:
            assert f.signed_area == face_area_oracle(arr, f), (arr.curve.points, f.id)
        arrangements += 1
        crossings += len(arr.vertices)
        faces += len(arr.faces)
    assert arrangements == 9 + 24 + 216 + 60 + 1
    assert scaled == 60, scaled
    assert crossings > 10_000 and faces > 10_000, (crossings, faces)


def common_denominator_oracle(fractions) -> int:
    """The least common denominator grown one fraction at a time."""
    D = 1
    for q in fractions:
        if D % q.denominator:
            D *= Fraction(D, q.denominator).denominator
    return D


def test_weight_scale_and_measures_match_the_incremental_lcm_and_fraction_sums():
    rng = random.Random(8810)
    for _ in range(500):
        qs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** rng.randint(0, 6)))
              for _ in range(rng.randint(0, 40))]
        assert common_denominator(qs) == common_denominator_oracle(qs), qs
    for arr in _oracle_arrangements():
        weights = arr.face_weights
        D, scaled = weights.scale
        assert D == common_denominator_oracle(weights.values())
        assert scaled == {f: q * D for f, q in weights.items()}
        measures = face_measures(arr)
        bounded = arr.faces[1:]
        assert measures["area_w"] == sum((abs(f.winding) * weights[f.id] for f in bounded),
                                         Fraction(0))
        assert measures["area_d"] == sum((f.depth * weights[f.id] for f in bounded), Fraction(0))
        assert list(weights) == [f.id for f in bounded]


def _crossing_free_curves():
    """``square``, and star-shaped polygons: integer corners sorted by angle
    about the origin, each less than half a turn after the one before, some
    with a corner inserted halfway along a side.  Both orientations."""
    rng = random.Random(8809)
    polygons = [load_curve("square").points]
    while len(polygons) < 60:
        dirs = {}
        for _ in range(rng.randint(3, 12)):
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
            if (x, y) != (0, 0):
                g = math.gcd(x, y)
                dirs.setdefault((x // g, y // g), (x, y))
        pts = sorted(dirs.values(), key=functools.cmp_to_key(_ccw_cmp))
        if len(pts) < 3 or any(_cross(p, q) <= 0 for p, q in zip(pts, pts[1:] + pts[:1])):
            continue
        corners = []
        for p, q in zip(pts, pts[1:] + pts[:1]):
            corners.append(p)
            if rng.random() < 0.3:
                corners.append((Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2)))
        polygons.append(tuple((Fraction(x), Fraction(y)) for x, y in corners))
    for pts in polygons:
        yield PlaneCurve(pts)
        yield PlaneCurve(pts[::-1])


def test_crossing_free_loop_matches_the_hand_built_arrangement():
    windings = set()
    collinear = 0
    for curve in _crossing_free_curves():
        arr = build_arrangement(curve)
        assert arr == simple_loop_oracle(curve), curve.points
        windings.add(arr.faces[1].winding)
        dirs = _integer_segments(curve.points)[2]
        collinear += any(_cross(u, w) == 0 for u, w in zip(dirs, dirs[1:]))
    assert windings == {1, -1} and collinear > 10, (windings, collinear)


def test_cotree_children_match_the_boundary_walk():
    arrangements = [pipeline(name)[1] for name in CORPUS]
    arrangements += [random_generic_polygon(random.Random(seed), corners)[1]
                     for seed, corners in RANDOM_POLYGONS]
    pinned = children = 0
    for arr in arrangements:
        default = tree_cotree(arr)
        for prefer in (None, {3: 3}, {3: 1}):
            tc = tree_cotree(arr, prefer=prefer)
            pinned += tc.parent_edge != default.parent_edge
            assert len(tc.children) == len(arr.faces)
            for f in arr.faces:
                assert list(tc.children[f.id]) == boundary_children_oracle(arr, tc, f.id)
                assert sorted(tc.children[f.id]) == sorted(
                    tc.parent_edge[g] for g, p in tc.parent_face.items() if p == f.id)
                children += len(tc.children[f.id])
    assert len(arrangements) == 9 + 24
    # every bounded face is the child of one face, under each cotree
    assert children == 3 * sum(len(arr.faces) - 1 for arr in arrangements)
    assert pinned >= 2, pinned


def _walk(passes, largest=None):
    """(vertex set, its piece keys) of each set ``_unlinked_keys`` walks,
    up to sets of ``largest`` vertices."""
    for keys in _unlinked_keys(passes):
        combo = tuple(v for v, _ in keys[1:])
        if largest is not None and len(combo) > largest:
            return
        yield combo, keys


def _d_arrangements():
    """The curves the bench draws as ``draw_curve(rng, rng.randint(8, 22))``
    with ``rng = random.Random(f"d-{s}")`` for s < 10 (the same draws)."""
    for s in range(10):
        rng = random.Random(f"d-{s}")
        yield random_generic_polygon(rng, rng.randint(8, 22), span=10 ** 6)[1]


def _smoothings():
    """(whole curve, vertices, piece keys) of every unlinked smoothing of
    the corpus, and of the smoothings at one or two crossings of the
    random polygons."""
    systems = [(pipeline(name)[3], None) for name in CORPUS]
    for seed, corners in RANDOM_POLYGONS:
        _, arr = random_generic_polygon(random.Random(seed), corners)
        systems.append((build_cable_system(arr, tree_cotree(arr)), 2))
    for cables, largest in systems:
        full = curve_subcurve(cables.arr, cables)
        for combo, keys in _walk(cables.arr.vertex_passes, largest):
            yield full, combo, keys


def test_rotation_is_additive_under_smoothing():
    sets = 0
    for full, combo, _ in _smoothings():
        pieces = smooth_at(full, combo)
        assert sum(piece.rotation for piece in pieces) == full.rotation, combo
        sets += 1
    assert sets == 1228, sets


def _smoothed_pieces():
    for full, combo, _ in _smoothings():
        yield from smooth_at(full, combo)


def test_piece_rotations_match_the_geometry_walk():
    rotations = set()
    for piece in _smoothed_pieces():
        assert piece.rotation == rotation_oracle(piece)
        rotations.add(piece.rotation)
    assert {-1, 0, 1, 2} <= rotations, rotations


def _judged_pieces():
    """(judge, key, piece cut from the key) of each distinct piece of
    ``_smoothings()``, and of the smoothings at up to three crossings of
    ``_d_arrangements()``."""
    def smoothings():
        yield from _smoothings()
        for arr in _d_arrangements():
            full = curve_subcurve(arr, build_cable_system(arr, tree_cotree(arr)))
            for combo, keys in _walk(arr.vertex_passes, 3):
                yield full, combo, keys

    judges = {}
    for full, _, keys in smoothings():
        if id(full) not in judges:
            judges[id(full)] = (_KeyJudge(full, full.word()), set())
        judge, seen = judges[id(full)]
        for key in keys:
            if key not in seen:
                seen.add(key)
                yield judge, key, _piece(full, judge.passes, key)


def test_key_rotations_match_the_geometry_walk():
    rotations = {}
    for judge, key, piece in _judged_pieces():
        rot = judge.rotation(key)
        assert rot == rotation_oracle(piece), key
        rotations[rot] = rotations.get(rot, 0) + 1
    assert {-1, 0, 1, 2} <= set(rotations) and sum(rotations.values()) == 8054, rotations


def test_key_verdicts_match_the_certification_of_the_cut_piece():
    verdicts = {True: 0, False: 0}
    for judge, key, piece in _judged_pieces():
        ok, _ = certify_subcurve(piece)
        assert (judge(key) is not None) == ok, key
        verdicts[ok] += 1
    assert verdicts == {True: 1166, False: 6888}, verdicts


def test_code_kernel_matches_the_letter_kernel_on_judged_pieces():
    verdicts = {True: 0, False: 0}
    for _, _, piece in _judged_pieces():
        letters = piece.letters()
        verdicts[_code_kernel_agrees(letters)] += 1
        verdicts[_code_kernel_agrees(invert_sequence(letters))] += 1
    assert sum(verdicts.values()) == 2 * 8054 and all(verdicts.values()), verdicts


def test_assembled_pieces_match_the_certification_of_the_cut_piece():
    certified = 0
    for judge, key, piece in _judged_pieces():
        verdict = judge(key)
        if verdict is None:
            continue
        # the witness and its word are compared with the certificate's
        assert judge.assemble(key, verdict) == (piece, certify_subcurve(piece)[1]), key
        assert Fraction(verdict[2], judge.word.scale[0]) == piece.area_w(), key
        certified += 1
    assert certified == 1166, certified


def test_unlinked_subsets_match_the_filter():
    # 300 random chord families, each chord's ends ascending, every set of
    # the corpus curves, and the sets of at most three vertices of the
    # random polygons and of the ``d-{s}`` curves
    families = []
    rng = random.Random(9909)
    for _ in range(300):
        k = rng.randint(0, 9)
        ends = rng.sample(range(2 * k), 2 * k)
        ids = rng.sample(range(100), k)
        chords = {v: tuple(sorted(ends[2 * t:2 * t + 2])) for t, v in enumerate(ids)}
        families.append((chords, None))
    families += [(pipeline(name)[1].vertex_passes, None) for name in CORPUS]
    families += [(random_generic_polygon(random.Random(seed), corners)[1].vertex_passes, 3)
                 for seed, corners in RANDOM_POLYGONS]
    families += [(arr.vertex_passes, 3) for arr in _d_arrangements()]
    sets = 0
    for chords, largest in families:
        walked = list(_walk(chords, largest))
        assert [combo for combo, _ in walked] == unlinked_subsets_oracle(chords, largest)
        for combo, keys in walked:
            assert list(keys) == _piece_keys(chords, combo), (chords, combo)
        sets += len(walked)
    assert sets == 24_977, sets


def _smoothing_outcome(smooth, sc, vertices):
    try:
        return smooth(sc, vertices)
    except LinkedVertices as exc:
        return str(exc)


def test_smoothing_matches_the_chord_oracle():
    count = 0
    for full, combo, _ in _smoothings():
        pieces = smooth_at(full, combo)
        assert pieces == smooth_oracle(full, combo), combo
        assert len(pieces) == len(combo) + 1
        count += 1
    assert count > 1000, count


@pytest.mark.parametrize("name", ["square", "limacon", "trefoil", "spiral"])
def test_stack_decompose_matches_with_the_chord_oracle(monkeypatch, name):
    _, arr, _, cables, _ = pipeline(name)
    full = curve_subcurve(arr, cables)
    pieces = stack_decompose(full)
    monkeypatch.setattr(blank_cuts, "smooth_at", smooth_oracle)
    assert stack_decompose(full) == pieces


def test_smoothing_rejects_as_the_chord_oracle():
    seen = {"linked": 0, "unknown": 0, "once": 0}
    for name in CORPUS:
        _, arr, _, cables, word = pipeline(name)
        full = curve_subcurve(arr, cables)
        cases = [[len(arr.vertices)]]                         # an unknown vertex
        cases += [list(pair) for pair in itertools.combinations(full.crossings(), 2)]
        # pieces of a Blank cut along the norm witness cross some vertices once
        for piece in cut_along_folding(full, cancellation_norm(word)[1]):
            passes = [e.tail_vertex for e in piece.entries if e.tail_vertex is not None]
            for v in sorted(set(passes)):
                got = _smoothing_outcome(smooth_at, piece, [v])
                assert got == _smoothing_outcome(smooth_oracle, piece, [v]), (name, v)
                seen["once"] += passes.count(v) == 1
        for vs in cases:
            got = _smoothing_outcome(smooth_at, full, vs)
            assert got == _smoothing_outcome(smooth_oracle, full, vs), (name, vs)
            if isinstance(got, str):
                seen["linked" if "linked" in got else "unknown"] += 1
    assert all(seen.values()), seen


def _cable_systems():
    """(label, cables, face word) of the corpus curves and the random polygons."""
    for name in CORPUS:
        _, _, _, cables, word = pipeline(name)
        yield name, cables, word
    for seed, corners in RANDOM_POLYGONS:
        curve, _ = random_generic_polygon(random.Random(seed), corners)
        cables, word = face_word(curve)
        yield seed, cables, word


def test_decomposition_search_matches_the_exhaustive_oracle():
    found = 0
    for label, cables, word in _cable_systems():
        got = [assemble() for _, assemble in _decompositions(cables, word)]
        want = list(_smoothed_decompositions(cables, word))
        assert len(got) == len(want), label
        for a, b in zip(got, want):
            assert a.vertex_pairs == b.vertex_pairs, label
            assert (a.subcurves, a.certificates, a.area) == \
                (b.subcurves, b.certificates, b.area), (label, a.vertex_pairs)
        found += len(got)
    assert found > 300, found


def search_oracle(cables, word, judged):
    """(area, vertex set) of every decomposition, in the search's order,
    by the unpruned walk: each unlinked set ``_unlinked_keys`` yields to a
    plain ``for`` is skipped when it holds a key known to fail, and
    otherwise its keys of unknown verdict are judged in order until one
    fails.  Appends each key it judges to ``judged``."""
    judge = _KeyJudge(curve_subcurve(cables.arr, cables), word)
    verdicts = {}
    for keys in _unlinked_keys(cables.arr.vertex_passes):
        if any(verdicts.get(key, True) is None for key in keys):
            continue
        for key in keys:
            if key not in verdicts:
                judged.append(key)
                verdicts[key] = judge(key)
                if verdicts[key] is None:
                    break
        else:
            yield sum(verdicts[key][2] for key in keys), frozenset(v for v, _ in keys[1:])


def _up_to(target, decompositions):
    """The (area, vertex set) pairs up to the first of area ``target``."""
    out = []
    for area, vertices in decompositions:
        out.append((area, vertices))
        if area == target:
            break
    return out


def test_pruned_search_judges_and_yields_as_the_unpruned_walk(monkeypatch):
    # every decomposition of the corpus curves and the random polygons, and
    # those of the ``d-{s}`` curves up to the one ``min_area_sod`` returns
    cases = [(label, cables, word, None) for label, cables, word in _cable_systems()]
    for s, arr in enumerate(_d_arrangements()):
        cables, word = face_word(arr.curve)
        cases.append((f"d-{s}", cables, word, cancellation_norm(word)[0] * word.scale[0]))
    wanted = []
    for _, cables, word, target in cases:
        judged = []
        wanted.append((_up_to(target, search_oracle(cables, word, judged)), judged))
    searched = []
    judge = _KeyJudge.__call__
    monkeypatch.setattr(_KeyJudge, "__call__",
                        lambda self, key: searched.append(key) or judge(self, key))
    found = keys = 0
    for (label, cables, word, target), (want, judged) in zip(cases, wanted):
        searched.clear()
        got = _up_to(target, ((area, assemble().vertex_pairs)
                              for area, assemble in _decompositions(cables, word)))
        assert got == want, label
        assert searched == judged, label
        assert target is None or got[-1][0] == target, label
        found += len(got)
        keys += len(judged)
    assert (found, keys) == (1355, 10803), (found, keys)


def test_walk_yields_the_unpruned_sets_less_those_holding_a_named_key():
    # a seeded eighth of the keys the unpruned walk names, on the corpus,
    # the random polygons and the first 20 000 sets of each ``d-{s}`` curve,
    # is made to fail: ``first_failing`` names the first of them in a set
    limit = 20000
    rng = random.Random(2701)
    arrangements = [pipeline(name)[1] for name in CORPUS]
    arrangements += [random_generic_polygon(random.Random(seed), corners)[1]
                     for seed, corners in RANDOM_POLYGONS]
    arrangements += list(_d_arrangements())
    totals = [0, 0, 0]
    for arr in arrangements:
        passes = arr.vertex_passes
        unpruned = list(itertools.islice(_unlinked_keys(passes), limit))
        named = list(dict.fromkeys(key for keys in unpruned for key in keys))
        failing = set(rng.sample(named, len(named) // 8))
        asked = []

        def first_failing(keys):
            key = next((key for key in keys if key in failing), None)
            asked.append((keys, key))
            return key

        want = [keys for keys in unpruned if failing.isdisjoint(keys)]
        walk = _unlinked_keys(passes, first_failing)
        got = list(walk if len(unpruned) < limit else itertools.islice(walk, len(want)))
        assert got == want, arr.curve
        # each set asked about is the next the unpruned walk yields, except
        # the sets between that hold a key named for a set asked before
        rest, told = iter(unpruned), set()
        for keys, key in asked:
            for skipped in rest:
                if skipped == keys:
                    break
                assert not told.isdisjoint(skipped), (arr.curve, skipped)
            else:
                break  # past the unpruned prefix
            if key is not None:
                told.add(key)
        totals = [t + n for t, n in zip(totals, (len(unpruned), len(asked), len(got)))]
    # sets of the unpruned prefixes, sets asked about, sets yielded
    assert totals == [75043, 48256, 34198], totals


def blank_cut_trace_oracle(full: Subcurve, folding: Folding) -> int:
    """Replay ``homotopy_trace(folding)`` by Blank cuts of the whole curve.

    At each cut step the current piece is cut at the step's two letters:
    one side must hold exactly the letters the next step contracts and no
    letter of a pairing still to be cut, and the other side goes on.  The
    piece left at the end must hold the last step's letters, up to
    rotation.  Returns the number of cuts."""
    steps = homotopy_trace(folding).steps
    uncut = set(folding.pairings)
    piece = full
    for cut, contract in zip(steps[:-1:2], steps[1::2]):
        assert isinstance(cut, CutStep) and isinstance(contract, ContractStep)
        uncut.remove(Pairing(*cut.positions))
        held = {x for p in uncut for x in (p.i, p.j)}
        sides = cut_at(piece, *cut.positions)
        swept = [k for k, side in enumerate(sides)
                 if side.letters() == contract.letters and held.isdisjoint(side.positions())]
        assert swept, (cut, contract)
        piece = sides[1 - swept[0]]
    assert not uncut and isinstance(steps[-1], ContractStep)
    assert cyclic_equal(piece.word(), CyclicWord(steps[-1].letters))
    return len(steps) // 2


def test_trace_matches_the_blank_cuts():
    # the norm witnesses of the corpus and the random polygons, and of 40
    # seeded 5- to 20-gons
    systems = [cables for _, cables, _ in _cable_systems()]
    for k in range(40):
        _, arr = random_generic_polygon(random.Random(f"trace-{k}"), 5 + k % 16)
        systems.append(build_cable_system(arr, tree_cotree(arr)))
    cuts = 0
    for cables in systems:
        full = curve_subcurve(cables.arr, cables)
        cuts += blank_cut_trace_oracle(full, cancellation_norm(full.word())[1])
    assert cuts == 192, cuts
