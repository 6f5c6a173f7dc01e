"""Foldings of cyclic words and the weighted cancellation norm.

A *pairing* matches a letter with an occurrence of its inverse.  A
*folding* is a set of pairings no two of which interleave around the
cycle; its area is the total weight of the letters left unpaired.  The
*cancellation norm* of a word is the minimum folding area; for words
traced from a curve with face areas as weights it equals the minimum
area swept by a null-homotopy of the curve.

The norm is computed by an interval dynamic program over linear
subwords, extended to the cyclic word by conditioning on the fate of
position 0 — O(m^3) overall — and cross-checked in the tests against an
exhaustive enumeration of all foldings (``norm_bruteforce``).

A *positive* folding deletes, for each pairing, one of the two arcs
between the paired letters, innermost pairings first, so that every
deleted arc and the surviving residue consist of positive letters only.
Cutting the cycle anywhere turns unlinked pairings into nested linear
intervals, so such a folding exists exactly when the pairings cover
every negative letter.  A curve is self-overlapping — the boundary of an
immersed disk — exactly when its rotation number is 1 and its word
admits a positive folding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arrangement import Arrangement, PlaneCurve, build_arrangement, rotation_number, tree_cotree
from .words import CyclicWord, Letter, blank_word, build_cable_system


class CapExceeded(Exception):
    """Word too long for exhaustive enumeration."""


@dataclass(frozen=True, order=True)
class Pairing:
    """Positions of a letter and an inverse occurrence, in a cyclic word."""

    i: int
    j: int

    def positions(self) -> tuple[int, int]:
        return (self.i, self.j)


def _check_pairing(word: CyclicWord, p: Pairing) -> None:
    if p.i == p.j:
        raise ValueError("a pairing needs two distinct positions")
    fi, si = word[p.i]
    fj, sj = word[p.j]
    if fi != fj or si != -sj:
        raise ValueError(f"positions {p.i},{p.j} do not hold inverse letters")


def is_linked(p1: Pairing, p2: Pairing, word: CyclicWord) -> bool:
    """Do the two pairings interleave in cyclic order?"""
    m = len(word)
    a, b = p1.i % m, p1.j % m
    inside = 0
    for x in (p2.i % m, p2.j % m):
        # is x strictly inside the arc from a forward to b?
        if a < b:
            inside += 1 if a < x < b else 0
        else:
            inside += 1 if (x > a or x < b) else 0
    return inside == 1


@dataclass(frozen=True)
class Folding:
    """A set of pairwise-unlinked, position-disjoint pairings."""

    word: CyclicWord
    pairings: frozenset[Pairing]

    def __post_init__(self):
        used = set()
        for p in self.pairings:
            _check_pairing(self.word, p)
            for x in p.positions():
                if x in used:
                    raise ValueError(f"position {x} used twice")
                used.add(x)
        for p, q in itertools.combinations(self.pairings, 2):
            if is_linked(p, q, self.word):
                raise ValueError(f"linked pairings {p} and {q}")

    @property
    def paired_positions(self) -> frozenset[int]:
        return frozenset(x for p in self.pairings for x in p.positions())

    @property
    def area(self) -> Fraction:
        used = self.paired_positions
        return sum((self.word.weight(i) for i in range(len(self.word))
                    if i not in used), Fraction(0))


def empty_folding(word: CyclicWord) -> Folding:
    return Folding(word, frozenset())


# ---------------------------------------------------------------------------
# the norm


def _linear_norm_table(letters: Sequence[Letter], weights) -> list[list[Fraction]]:
    """dp[i][j] = norm of the linear subword letters[i:j]."""
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


def _linear_backtrack(letters, weights, dp, i: int, j: int, out: list[tuple[int, int]]):
    """Recover one minimal pairing set for letters[i:j]; prefers pairing the
    last letter with the smallest partner."""
    while j > i:
        f, s = letters[j - 1]
        chosen = None
        for k in range(i, j - 1):
            if letters[k] == (f, -s) and dp[i][k] + dp[k + 1][j - 1] == dp[i][j]:
                chosen = k
                break
        if chosen is not None:
            out.append((chosen, j - 1))
            _linear_backtrack(letters, weights, dp, chosen + 1, j - 1, out)
            j = chosen
        else:
            assert dp[i][j] == dp[i][j - 1] + weights[f]
            j -= 1


def cancellation_norm(word: CyclicWord) -> tuple[Fraction, Folding]:
    """Minimum unpaired weight over all foldings, with a witness.

    Position 0 is either unpaired or paired with some occurrence of its
    inverse; both arcs strictly between are independent linear subwords,
    all covered by one interval DP table on positions 1..m-1.
    """
    m = len(word)
    if m == 0:
        return Fraction(0), empty_folding(word)
    letters = word.letters
    weights = word.weights
    rest = letters[1:]
    dp = _linear_norm_table(rest, weights)
    f0, s0 = letters[0]

    best = dp[0][m - 1] + weights[f0]
    best_k: Optional[int] = None
    for k in range(1, m):
        if letters[k] == (f0, -s0):
            cand = dp[0][k - 1] + dp[k][m - 1]
            if cand < best or (cand == best and best_k is None):
                best = cand
                best_k = k

    pairs: list[tuple[int, int]] = []
    if best_k is None:
        _linear_backtrack(rest, weights, dp, 0, m - 1, pairs)
        pairings = [Pairing(a + 1, b + 1) for a, b in pairs]
    else:
        k = best_k
        left: list[tuple[int, int]] = []
        right: list[tuple[int, int]] = []
        _linear_backtrack(rest, weights, dp, 0, k - 1, left)
        _linear_backtrack(rest, weights, dp, k, m - 1, right)
        pairings = [Pairing(0, k)]
        pairings += [Pairing(a + 1, b + 1) for a, b in left + right]
    witness = Folding(word, frozenset(pairings))
    assert witness.area == best, "witness area must equal the DP value"
    return best, witness


def norm_bruteforce(word: CyclicWord, cap: int = 14) -> Fraction:
    """Exhaustive minimum over all unlinked pairing sets.

    Independent of the DP in every respect; used as the testing oracle.
    """
    m = len(word)
    if m > cap:
        raise CapExceeded(f"word length {m} exceeds cap {cap}")
    letters = word.letters
    weights = word.weights
    best = [sum((weights[f] for f, _ in letters), Fraction(0))]

    def recurse(pos: int, chosen: list[Pairing], taken: set[int], cost: Fraction):
        if pos == m:
            if cost < best[0]:
                best[0] = cost
            return
        if pos in taken:
            recurse(pos + 1, chosen, taken, cost)
            return
        f, s = letters[pos]
        # leave unpaired
        recurse(pos + 1, chosen, taken, cost + weights[f])
        # pair with any later free inverse occurrence
        for q in range(pos + 1, m):
            if q in taken or letters[q] != (f, -s):
                continue
            p = Pairing(pos, q)
            if any(is_linked(p, c, word) for c in chosen):
                continue
            chosen.append(p)
            taken.add(q)
            recurse(pos + 1, chosen, taken, cost)
            taken.remove(q)
            chosen.pop()

    recurse(0, [], set(), Fraction(0))
    return best[0]


def complete_to_maximal(word: CyclicWord, folding: Folding) -> Folding:
    """Extend a folding until no pairing can be added.

    Greedy over candidates ordered by (leftmost position, shorter
    enclosed arc); deterministic, never removes an input pairing, and the
    area can only shrink.
    """
    m = len(word)
    current = set(folding.pairings)
    taken = set(folding.paired_positions)

    def arc_len(i: int, j: int) -> int:
        return min((j - i) % m, (i - j) % m)

    candidates = []
    for i in range(m):
        f, s = word[i]
        for j in range(i + 1, m):
            if word[j] == (f, -s):
                candidates.append(Pairing(i, j))
    candidates.sort(key=lambda p: (min(p.i, p.j), arc_len(p.i, p.j), p.i, p.j))

    changed = True
    while changed:
        changed = False
        for p in candidates:
            if p.i in taken or p.j in taken:
                continue
            if any(is_linked(p, c, word) for c in current):
                continue
            current.add(p)
            taken.update(p.positions())
            changed = True
    result = Folding(word, frozenset(current))
    assert result.area <= folding.area
    return result


# ---------------------------------------------------------------------------
# positive foldings


def _positive_linear(letters: Sequence[Letter]) -> Optional[list[tuple[int, int]]]:
    """Pairings of a positive folding of the linear word, or None.

    A pairing may delete either of the two subwords between its letters,
    and deleted subwords are resolved nested-first, so a folding is
    positive exactly when its unlinked pairings cover every negative
    letter: survivors are then all positive, and reading the circle from
    any cut makes the deleted spans laminar.  (Demanding a letter-wise
    positive arc instead would break the invariance of positive
    foldability under cable switches.)  The DP finds a non-crossing
    matching covering the negative letters.
    """
    memo: dict[tuple[int, int], Optional[list[tuple[int, int]]]] = {}

    def solve(i: int, j: int) -> Optional[list[tuple[int, int]]]:
        # non-crossing full cover of the negatives in letters[i:j]
        if i == j:
            return []
        if (i, j) in memo:
            return memo[(i, j)]
        f, s = letters[i]
        result = None
        if s > 0:
            rest = solve(i + 1, j)
            if rest is not None:
                result = rest
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


def positively_foldable(word: CyclicWord) -> tuple[bool, Optional[Folding]]:
    """Does the cyclic word admit a positive folding?

    Because unlinked pairings never cross a fixed cut of the cycle, a
    single linear scan from position 0 is complete.
    """
    if len(word) == 0:
        return True, empty_folding(word)
    pairs = _positive_linear(word.letters)
    if pairs is None:
        return False, None
    witness = Folding(word, frozenset(Pairing(a, b) for a, b in pairs))
    assert _positive_witness_ok(word, witness)
    return True, witness


def _positive_witness_ok(word: CyclicWord, folding: Folding) -> bool:
    """Is the folding a valid positive witness?

    The folding's pairings are already known to be unlinked and to match
    inverse letters, so cutting the cycle at any point nests their
    deleted spans; the folding is positive exactly when no negative
    letter is left outside the pairings.
    """
    paired = folding.paired_positions
    return all(word[x][1] > 0 for x in range(len(word)) if x not in paired)


def positively_foldable_bruteforce(word: CyclicWord, cap: int = 12) -> bool:
    """Oracle: search all foldings for a valid positive witness."""
    m = len(word)
    if m > cap:
        raise CapExceeded(f"word length {m} exceeds cap {cap}")

    def recurse(pos: int, chosen: list[Pairing], taken: set[int]) -> bool:
        if pos == m:
            return _positive_witness_ok(word, Folding(word, frozenset(chosen)))
        if pos in taken:
            return recurse(pos + 1, chosen, taken)
        if recurse(pos + 1, chosen, taken):
            return True
        f, s = word[pos]
        for q in range(pos + 1, m):
            if q in taken or word[q] != (f, -s):
                continue
            p = Pairing(pos, q)
            if any(is_linked(p, c, word) for c in chosen):
                continue
            chosen.append(p)
            taken.add(q)
            if recurse(pos + 1, chosen, taken):
                chosen.pop()
                taken.remove(q)
                return True
            chosen.pop()
            taken.remove(q)
        return False

    return recurse(0, [], set())


# ---------------------------------------------------------------------------
# self-overlapping detection


def is_self_overlapping(curve: PlaneCurve) -> tuple[bool, dict]:
    """Rotation number 1 plus a positively foldable word.

    The certificate reports which condition failed, or carries the
    positive-folding witness.
    """
    rot = rotation_number(curve)
    if rot != 1:
        return False, {"reason": f"rotation_number={rot}"}
    arr = build_arrangement(curve)
    tc = tree_cotree(arr)
    word = blank_word(arr, build_cable_system(arr, tc))
    ok, witness = positively_foldable(word)
    if not ok:
        return False, {"reason": "not_positively_foldable", "word": word}
    return True, {"rotation_number": rot, "word": word, "witness": witness}
