"""Foldings of cyclic words and the weighted cancellation norm.

A *pairing* matches a letter with an occurrence of its inverse.  A
*folding* is a set of pairings no two of which interleave around the
cycle; its area is the total weight of the letters left unpaired.  The
*cancellation norm* of a word is the minimum folding area; for words
traced from a curve with face areas as weights it equals the minimum
area swept by a null-homotopy of the curve.

The norm is computed by one interval dynamic program over the linear
word read from position 1 — O(m^3) overall — and cross-checked in the
tests against an exhaustive enumeration of all foldings
(``norm_bruteforce``).  Cut anywhere, unlinked pairings nest like
brackets, so the linear norm of the word cut before position 0 is the
cyclic norm; reading from position 1 puts position 0 last, where the
backtrack settles it first.  The table holds Python ints: it sums the
word's integer scale (``CyclicWord.scale``, the weights times their
least common denominator), and only the result is a ``Fraction``, as for
a folding's area; the positions holding each letter's inverse
are listed once, so a cell visits only real split points.  Rows are
filled from the last to the first, and only the rows that are read:
row 0 in full, and the row after each letter that has a later inverse,
up to that inverse's last position.  Backtracking keeps an explicit
stack, so deep nesting needs no recursion.

A folding is validated in one pass: cut at position 0, its pairings
must nest like brackets.

A *positive* folding deletes, for each pairing, one of the two arcs
between the paired letters, innermost pairings first, so that every
deleted arc and the surviving residue consist of positive letters only.
Cutting the cycle anywhere turns unlinked pairings into nested linear
intervals, so such a folding exists exactly when the pairings cover
every negative letter.  The kernel reads the word as int letter codes,
twice the face plus 1 for a negative letter, so a letter's inverse is
its code ^ 1.  Whether letters[i:j] folds positively is one bit of a
reachability table of Python ints, filled from the last row to the
first: bit j of ``ok[i]`` is set when j = i, or when letter i is
positive and bit j of ``ok[i+1]`` is set, or when a partner k of letter
i has bit k set in ``ok[i+1]`` and bit j set in ``ok[k+1]``.  One and
of ``ok[i+1]`` with the bitmask of the positions holding the inverse
code gives those partners, and each costs one or of two n-bit ints; the
table holds n^2 bits.  A curve is self-overlapping — the
boundary of an immersed disk — exactly when its rotation number is 1
and its word admits a positive folding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .arrangement import PlaneCurve, build_arrangement, check, rotation_number
from .words import CyclicWord, Letter, face_word


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
    m = len(word)
    if not (0 <= p.i < m and 0 <= p.j < m):
        raise ValueError(f"pairing {p} names a position outside 0..{m - 1}")
    if p.i == p.j:
        raise ValueError("a pairing needs two distinct positions")
    fi, si = word[p.i]
    fj, sj = word[p.j]
    if fi != fj or si != -sj:
        raise ValueError(f"positions {p.i},{p.j} do not hold inverse letters")


def chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Do two chords between four distinct positions on a cycle interleave?"""
    lo, hi = sorted(a)
    return (lo < b[0] < hi) != (lo < b[1] < hi)


@dataclass(frozen=True)
class Folding:
    """A set of pairwise-unlinked, position-disjoint pairings.

    ``owner[x]`` is the pairing that holds position x, or None; the check
    that the pairings are valid builds it, and every later reader of a
    position's pairing reads it.
    """

    word: CyclicWord
    pairings: frozenset[Pairing]
    owner: tuple[Optional[Pairing], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owner: list[Optional[Pairing]] = [None] * len(self.word)
        for p in self.pairings:
            _check_pairing(self.word, p)
            for x in p.positions():
                if owner[x] is not None:
                    raise ValueError(f"position {x} used twice")
                owner[x] = p
        # Cut at position 0, two pairings interleave on the cycle exactly
        # when their intervals interleave, so the pairings must nest like
        # brackets: each one closes on top of the stack of open ones.
        open_: list[Pairing] = []
        for x, p in enumerate(owner):
            if p is None:
                continue
            if x != max(p.i, p.j):
                open_.append(p)
            elif open_[-1] is not p:
                raise ValueError(f"linked pairings {open_[-1]} and {p}")
            else:
                open_.pop()
        object.__setattr__(self, "owner", tuple(owner))

    @property
    def paired_positions(self) -> frozenset[int]:
        return frozenset(x for x, p in enumerate(self.owner) if p is not None)

    @property
    def area(self) -> Fraction:
        """The unpaired weight: one int sum over the word's scale."""
        D, scaled = self.word.scale
        unpaired = (f for (f, _), p in zip(self.word.letters, self.owner) if p is None)
        return Fraction(sum(scaled[f] for f in unpaired), D)


# ---------------------------------------------------------------------------
# the norm


def _inverse_occurrences(letters: Sequence[Letter]) -> list[list[int]]:
    """inverses[i] = the positions holding the inverse of letters[i],
    ascending; letters with the same inverse share one list."""
    occurrences: dict[Letter, list[int]] = {}
    for k, letter in enumerate(letters):
        occurrences.setdefault(letter, []).append(k)
    return [occurrences.get((f, -s), []) for f, s in letters]


def _linear_norm_rows(w: Sequence[int], inverses: list[list[int]]) -> list[Optional[list[int]]]:
    """rows[i][j] = norm of the linear subword letters[i:j], in integer weights,
    for the rows that are read.

    ``w[j]`` is the scaled weight of letters[j] and ``inverses[k]`` the
    positions holding the inverse of letters[k].  Rows are filled from the
    last to the first.  Row i + 1 is read, by the fill of earlier rows and
    by the backtrack, only at columns up to the last inverse after letter
    i, so it is filled that far and only if letter i has one; row 0 is
    filled in full.  While row i is filled, ``active[j]`` holds each split
    point k >= i of position j with rows[k + 1][j], the one value of row
    k + 1 that the fill of column j reads.
    """
    n = len(w)
    rows: list[Optional[list[int]]] = [None] * (n + 1)
    active: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n, -1, -1):
        if i < n:
            ks, below = inverses[i], rows[i + 1]
            for j in ks[bisect_right(ks, i):]:
                active[j].append((i, below[j]))
        end = n if i == 0 else (inverses[i - 1] or [0])[-1]
        if end < i:
            continue
        row = [0] * (end + 1)
        for j in range(i, end):
            best = row[j] + w[j]
            for k, value in active[j]:
                cand = row[k] + value
                if cand < best:
                    best = cand
            row[j + 1] = best
        rows[i] = row
    return rows


def _linear_backtrack(w: Sequence[int], rows, inverses: list[list[int]], i: int, j: int,
                      out: list[tuple[int, int]]) -> None:
    """Recover one minimal pairing set for letters[i:j]; prefers pairing the
    last letter with the smallest partner.  The enclosed interval is resolved
    before the rest of the outer one, as a recursion would."""
    stack = [(i, j)]
    while stack:
        i, j = stack.pop()
        row = rows[i]
        while j > i:
            last = j - 1
            ks = inverses[last]
            for k in ks[bisect_left(ks, i):bisect_left(ks, last)]:
                if row[k] + rows[k + 1][last] == row[j]:
                    out.append((k, last))
                    stack.append((i, k))
                    i, j = k + 1, last
                    row = rows[i]
                    break
            else:
                check(row[j] == row[last] + w[last], "folding",
                      "backtrack leaves the DP table at row %d, column %d", i, j)
                j = last


def cancellation_norm(word: CyclicWord) -> tuple[Fraction, Folding]:
    """Minimum unpaired weight over all foldings, with a witness.

    The pairings of a folding do not interleave, so cut anywhere they nest
    like brackets and one linear interval DP over the whole word gives the
    cyclic norm.  The word is read from position 1, so that position 0 is
    the last letter and the backtrack settles it first: paired with its
    smallest partner that reaches the minimum, else unpaired.
    """
    m = len(word)
    letters = word.letters[1:] + word.letters[:1]
    D, scaled = word.scale
    w = [scaled[f] for f, _ in letters]
    inverses = _inverse_occurrences(letters)
    rows = _linear_norm_rows(w, inverses)
    pairs: list[tuple[int, int]] = []
    _linear_backtrack(w, rows, inverses, 0, m, pairs)
    value = Fraction(rows[0][m], D)
    witness = Folding(word, frozenset(Pairing(*sorted(((a + 1) % m, (b + 1) % m)))
                                      for a, b in pairs))
    check(witness.area == value, "folding", "witness area must equal the DP value")
    return value, witness


def _unlinked_pairing_sets(word: CyclicWord, cap: int) -> Iterator[frozenset[Pairing]]:
    """Every set of pairwise-unlinked, position-disjoint pairings.

    Exhaustive, for the testing oracles; raises ``CapExceeded`` on the
    call, before the first set, when the word is longer than ``cap``.
    """
    m = len(word)
    if m > cap:
        raise CapExceeded(f"word length {m} exceeds cap {cap}")

    def extend(pos: int, chosen: list[Pairing], taken: set[int]) -> Iterator[frozenset[Pairing]]:
        if pos == m:
            yield frozenset(chosen)
            return
        yield from extend(pos + 1, chosen, taken)           # leave pos unpaired
        if pos in taken:
            return
        f, s = word[pos]
        for q in range(pos + 1, m):
            if q in taken or word[q] != (f, -s):
                continue
            p = Pairing(pos, q)
            if any(chords_cross(p.positions(), c.positions()) for c in chosen):
                continue
            chosen.append(p)
            taken.add(q)
            yield from extend(pos + 1, chosen, taken)
            taken.remove(q)
            chosen.pop()

    return extend(0, [], set())


def norm_bruteforce(word: CyclicWord, cap: int = 14) -> Fraction:
    """Exhaustive minimum over all unlinked pairing sets.

    Independent of the DP in every respect; used as the testing oracle.
    """
    return min(Folding(word, chosen).area for chosen in _unlinked_pairing_sets(word, cap))


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

    # ``taken`` and ``current`` only grow, so a candidate skipped once
    # stays skipped: one pass is maximal
    for p in candidates:
        if p.i in taken or p.j in taken:
            continue
        if any(chords_cross(p.positions(), c.positions()) for c in current):
            continue
        current.add(p)
        taken.update(p.positions())
    result = Folding(word, frozenset(current))
    check(result.area <= folding.area, "folding", "completing a folding must not grow its area")
    return result


# ---------------------------------------------------------------------------
# positive foldings


def _letter_codes(letters: Sequence[Letter]) -> list[int]:
    """One int per letter: twice its face, plus 1 for a negative letter.
    A letter's inverse is then ``code ^ 1``."""
    return [2 * f + (s < 0) for f, s in letters]


def _positive_linear(codes: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Pairings of a positive folding of the linear word, or None.

    The word is given by its letter codes (``_letter_codes``).  A pairing
    may delete either of the two subwords between its letters, and
    deleted subwords are resolved nested-first, so a folding is positive
    exactly when its unlinked pairings cover every negative letter:
    survivors are then all positive, and reading the circle from any cut
    makes the deleted spans laminar.  (Demanding a letter-wise positive
    arc instead would break the invariance of positive foldability under
    cable switches.)

    Bit j of ``ok[i]`` is set when letters[i:j] folds positively: it is
    empty (j = i), or its first letter is positive and letters[i+1:j]
    folds, or the first letter pairs with a partner k such that
    letters[i+1:k] and letters[k+1:j] fold.  So, filled from the last
    row to the first, ``ok[i]`` is ``1 << i``, or'ed with ``ok[i+1]`` when
    letter i is positive and with ``ok[k+1]`` for each partner k > i whose
    bit is set in ``ok[i+1]``: the set bits of ``ok[i+1]`` (all of them
    after i) and'ed with the bitmask of the positions holding the
    inverse of code i.  The backtrack settles each interval's first
    letter: unpaired when it is positive and the rest folds, else paired
    with its smallest partner that splits the interval into two folding
    parts.
    """
    n = len(codes)
    at: dict[int, int] = {}  # code -> the positions holding it, as a bitmask
    for k, c in enumerate(codes):
        at[c] = at.get(c, 0) | 1 << k
    ok = [0] * n + [1 << n]
    for i in range(n - 1, -1, -1):
        c = codes[i]
        below = ok[i + 1]
        row = 1 << i | (0 if c & 1 else below)
        partners = at.get(c ^ 1, 0) & below
        while partners:
            low = partners & -partners
            row |= ok[low.bit_length()]  # ok[k + 1] for low = 1 << k
            partners ^= low
        ok[i] = row
    if not ok[0] >> n & 1:
        return None
    pairs: list[tuple[int, int]] = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        while i < j:
            below = ok[i + 1]
            if not codes[i] & 1 and below >> j & 1:
                i += 1
                continue
            partners = at.get(codes[i] ^ 1, 0) & below & ((1 << j) - 1)
            while partners:
                k = (partners & -partners).bit_length() - 1
                if ok[k + 1] >> j & 1:
                    break
                partners &= partners - 1
            check(partners, "folding",
                  "backtrack leaves the reachability table at row %d, column %d", i, j)
            pairs.append((i, k))
            stack.append((k + 1, j))
            i, j = i + 1, k
    return pairs


def positively_foldable(word: CyclicWord) -> tuple[bool, Optional[Folding]]:
    """Does the cyclic word admit a positive folding?

    Because unlinked pairings never cross a fixed cut of the cycle, a
    single linear scan from position 0 is complete.
    """
    pairs = _positive_linear(_letter_codes(word.letters))
    if pairs is None:
        return False, None
    witness = Folding(word, frozenset(Pairing(a, b) for a, b in pairs))
    check(_positive_witness_ok(word, witness), "folding",
          "a positive witness must pair every negative letter")
    return True, witness


def _positive_witness_ok(word: CyclicWord, folding: Folding) -> bool:
    """Is the folding a valid positive witness?

    The folding's pairings are already known to be unlinked and to match
    inverse letters, so cutting the cycle at any point nests their
    deleted spans; the folding is positive exactly when no negative
    letter is left outside the pairings.
    """
    return all(word[x][1] > 0 for x, p in enumerate(folding.owner) if p is None)


def positively_foldable_bruteforce(word: CyclicWord, cap: int = 12) -> bool:
    """Oracle: search all foldings for a valid positive witness."""
    return any(_positive_witness_ok(word, Folding(word, chosen))
               for chosen in _unlinked_pairing_sets(word, cap))


# ---------------------------------------------------------------------------
# self-overlapping detection


def is_self_overlapping(curve: PlaneCurve) -> tuple[bool, dict]:
    """Rotation number 1 plus a positively foldable word.

    The certificate reports which condition failed, or carries the
    positive-folding witness.  Every curve is validated: one the
    arrangement refuses raises its ``CurveError`` whatever its rotation
    number.
    """
    rot = rotation_number(curve)
    arr = build_arrangement(curve)  # validates the curve; held, so ``face_word`` reuses it
    if rot != 1:
        return False, {"reason": f"rotation_number={rot}"}
    _, word = face_word(curve)
    ok, witness = positively_foldable(word)
    if not ok:
        return False, {"reason": "not_positively_foldable", "word": word}
    return True, {"rotation_number": rot, "word": word, "witness": witness}
