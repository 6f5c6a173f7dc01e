"""Word rewrites that change the cable drawing but not the curve.

Redrawing the cables of a curve changes its word without changing what
the word measures: the cancellation norm and the existence of a positive
folding are drawing-independent.  Two generating moves realize every
redrawing: switching two cables that are adjacent in the rotation order
around the basepoint, and a full twist about a loop enclosing exactly
two cable endpoints.  Both are implemented as explicit substitutions on
the word, together with *transport* maps that carry a folding of the old
word to a folding of the new word with exactly the same area.

The twist wraps each letter of cable i or j in a prefix block and, after
it, the formal inverse of that block, both of one length L.  The added
letters are therefore a reflection about the letter they wrap: the
letter at position p, added around the letter at c, is inverted by the
letter at 2c - p.  The transports pair and follow added letters by this
arithmetic alone.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .arrangement import check
from .folding import Folding, Pairing
from .words import CyclicWord, Letter, invert_sequence


class NotAdjacent(Exception):
    """The switch precondition cannot be established for this pair."""


# ---------------------------------------------------------------------------
# switching two adjacent cables


def _normalize_adjacent(word: CyclicWord, f: int, g: int) -> tuple[tuple[Letter, ...], list[int], list[tuple[int, int]]]:
    """Insert cancelling (g, g-bar) pairs so that every f is followed by a
    g and every f-bar is preceded by a g-bar.

    Models drawing cable g along cable f and back before heading to its
    own face.  Returns the letters, a map from old position to new
    position, and the list of inserted pair positions.
    """
    out: list[Letter] = []
    where: list[int] = []
    inserted: list[tuple[int, int]] = []
    for k in range(len(word)):
        letter = word[k]
        if letter == (f, -1):
            prev = out[-1] if out else None
            if prev != (g, -1):
                out.extend([(g, 1), (g, -1)])
                inserted.append((len(out) - 2, len(out) - 1))
        where.append(len(out))
        out.append(letter)
        if letter == (f, 1):
            nxt = word[(k + 1) % len(word)]
            if nxt != (g, 1):
                out.extend([(g, 1), (g, -1)])
                inserted.append((len(out) - 2, len(out) - 1))
    return tuple(out), where, inserted


def _switch_blocks(letters: Sequence[Letter], f: int, g: int) -> tuple[tuple[Letter, ...], list[int]]:
    """Swap every "f g" block to "g f" and every "g-bar f-bar" to
    "f-bar g-bar"; returns letters and the induced position permutation."""
    n = len(letters)
    perm = list(range(n))
    out = list(letters)
    for k in range(n):
        nxt = (k + 1) % n
        if letters[k] == (f, 1):
            if out[nxt] != (g, 1) or letters[nxt] != (g, 1):
                raise NotAdjacent(f"letter {f} at {k} not followed by {g}")
            out[k], out[nxt] = (g, 1), (f, 1)
            perm[k], perm[nxt] = nxt, k
        if letters[k] == (f, -1):
            prv = (k - 1) % n
            if letters[prv] != (g, -1):
                raise NotAdjacent(f"inverse of {f} at {k} not preceded by inverse of {g}")
            out[prv], out[k] = (f, -1), (g, -1)
            perm[prv], perm[k] = k, prv
    return tuple(out), perm


def switch_adjacent(word: CyclicWord, f: int, g: int) -> CyclicWord:
    """Move cable f across the neighbouring cable g.

    The word is first normalized (cancelling (g, g-bar) pairs inserted at
    every f crossing that lacks a neighbour), then each adjacent block is
    swapped.  Weights are untouched.
    """
    if f == g:
        raise NotAdjacent("a cable cannot switch with itself")
    normalized, _, _ = _normalize_adjacent(word, f, g)
    switched, _ = _switch_blocks(normalized, f, g)
    return CyclicWord(switched, word.weights)


def transport_folding_switch(word: CyclicWord, word_switched: CyclicWord,
                             folding: Folding, f: int, g: int) -> Folding:
    """Carry a folding across ``switch_adjacent`` with equal area.

    Pairings not involving the (f, f-bar) letters ride along the position
    permutation.  Around each paired (f, f-bar) the neighbouring g
    letters are re-paired with each other so no pairing becomes linked;
    the count and faces of paired letters are unchanged.
    """
    if f == g:
        raise NotAdjacent("a cable cannot switch with itself")
    normalized, where, inserted = _normalize_adjacent(word, f, g)
    switched, perm = _switch_blocks(normalized, f, g)
    if CyclicWord(switched, word.weights) != word_switched:
        raise ValueError("second word must be the switch of the first")
    n = len(normalized)

    # lift onto the normalized word: old pairings move, inserted pairs pair up
    partner: dict[int, int] = {}
    for p in folding.pairings:
        a, b = where[p.i], where[p.j]
        partner[a] = b
        partner[b] = a
    for a, b in inserted:
        partner[a] = b
        partner[b] = a

    # re-pair neighbours of every paired (f, f-bar)
    for a, b in list(partner.items()):
        if normalized[a] != (f, 1) or normalized[b] != (f, -1):
            continue
        ga, gb = (a + 1) % n, (b - 1) % n     # the flanking g and g-bar
        pa, pb = partner.get(ga), partner.get(gb)
        if pa == gb:
            continue                          # already paired together
        if pa is not None and pb is not None:
            partner[ga], partner[gb] = gb, ga
            partner[pa], partner[pb] = pb, pa
        elif pa is not None:
            del partner[pa]
            partner[ga], partner[gb] = gb, ga
        elif pb is not None:
            del partner[pb]
            partner[ga], partner[gb] = gb, ga

    pairings = frozenset(Pairing(min(perm[a], perm[partner[a]]),
                                 max(perm[a], perm[partner[a]]))
                         for a in partner)
    result = Folding(word_switched, pairings)
    check(result.area == folding.area, "transforms", "a switch transport must keep the area")
    return result


# ---------------------------------------------------------------------------
# the twist about a loop around two cable ends


def _twist_layout(word: CyclicWord, i: int, j: int,
                  B: Sequence[Letter]) -> tuple[list[Letter], list[int]]:
    """The twisted letters, and for each new position p the position of
    the original letter whose blocks hold p (p itself for an original).

    A letter of cable i or j that lands at c is wrapped in a prefix block
    at c-L .. c-1 and its formal inverse at c+1 .. c+L, L = 2 len(B) + 2,
    so the added letter at p is inverted by its twin at 2 centre[p] - p.
    """
    Bi = tuple(B)
    Bb = invert_sequence(Bi)
    # i last, so that its blocks win when i == j
    prefix = {j: (*Bi, (i, -1), *Bb, (j, -1)), i: ((i, -1), *Bb, (j, -1), *Bi)}
    blocks = {f: (pre, invert_sequence(pre)) for f, pre in prefix.items()}
    letters: list[Letter] = []
    centre: list[int] = []
    for letter in word:
        pre, suf = blocks.get(letter[0], ((), ()))
        centre += [len(letters) + len(pre)] * (len(pre) + 1 + len(suf))
        letters += (*pre, letter, *suf)
    return letters, centre


def dehn_twist(word: CyclicWord, i: int, j: int, B: Sequence[Letter]) -> CyclicWord:
    """Full twist about a loop enclosing the ends of cables i and j.

    Every crossing with cable i or j picks up conjugating blocks built
    from the bundle word B of the cables lying between them; crossings
    with other cables are untouched.
    """
    letters, _ = _twist_layout(word, i, j, B)
    return CyclicWord(letters, word.weights)


def transport_folding_twist(word: CyclicWord, word_twisted: CyclicWord,
                            folding: Folding, i: int, j: int,
                            B: Sequence[Letter]) -> Folding:
    """Carry a folding across ``dehn_twist`` with equal area.

    Original pairings survive at their new positions.  Around every
    surviving letter the added blocks pair off: mirror-wise around an
    unpaired letter, and across the two members of a pairing (prefix of
    one against suffix of the other), which matches because the blocks
    are conjugate mirror images.
    """
    letters, centre = _twist_layout(word, i, j, B)
    if CyclicWord(letters, word.weights) != word_twisted:
        raise ValueError("second word must be the twist of the first")
    pos_of = [p for p, c in enumerate(centre) if c == p]
    L = 2 * len(B) + 2

    pairings = {Pairing(min(pos_of[p.i], pos_of[p.j]), max(pos_of[p.i], pos_of[p.j]))
                for p in folding.pairings}
    for k, c in enumerate(pos_of):
        p = folding.owner[k]
        mate = None if p is None else p.j if p.i == k else p.i
        if word[k][0] not in (i, j) or (mate is not None and mate < k):
            continue                      # no blocks, or paired off with its mate
        if mate is None:
            pairings.update(Pairing(c - 1 - t, c + 1 + t) for t in range(L))
        else:
            d = pos_of[mate]              # c < d: the mate comes later
            pairings.update(Pairing(c + 1 + t, d - 1 - t) for t in range(L))
            pairings.update(Pairing(c - 1 - t, d + 1 + t) for t in range(L))

    result = Folding(word_twisted, frozenset(pairings))
    check(result.area == folding.area, "transforms", "a twist transport must keep the area")
    return result


def back_transport_twist(word: CyclicWord, word_twisted: CyclicWord,
                         folding_twisted: Folding, i: int, j: int,
                         B: Sequence[Letter]) -> Folding:
    """Pull a folding of the twisted word back, never increasing area.

    A pairing between a surviving letter and an added letter is resolved
    by alternately following the folding's pairing map and the mirror
    twin map until the chain ends at another surviving letter (pair the
    two survivors) or at an unpaired added letter (leave the survivor
    unpaired — its weight is covered by that added letter of the same
    face).  Both maps are injective, so the chain terminates; a visit set
    guards against malformed input.
    """
    letters, centre = _twist_layout(word, i, j, B)
    if CyclicWord(letters, word.weights) != word_twisted:
        raise ValueError("second word must be the twist of the first")
    orig = {q: k for k, q in enumerate(q for q, c in enumerate(centre) if c == q)}

    pairings: list[Pairing] = []
    assigned: set[int] = set()
    for p in folding_twisted.pairings:
        a, b = p.i, p.j
        if a in orig and b in orig:
            pairings.append(Pairing(min(orig[a], orig[b]), max(orig[a], orig[b])))
            assigned.update((orig[a], orig[b]))
        elif a not in orig and b not in orig:
            continue
        else:
            start, added = (orig[a], b) if a in orig else (orig[b], a)
            if start in assigned:
                continue
            visited: set[int] = set()
            cur = added
            end: Optional[int] = None
            while True:
                check(cur not in visited, "transforms", "the alternating chain must not loop")
                visited.add(cur)
                t = 2 * centre[cur] - cur
                if t in visited:
                    break
                visited.add(t)
                q = folding_twisted.owner[t]
                if q is None:
                    break                      # unpaired twin: survivor stays unpaired
                nxt = q.j if q.i == t else q.i
                if nxt in orig:
                    end = orig[nxt]
                    break
                cur = nxt
            if end is not None and end not in assigned:
                pairings.append(Pairing(min(start, end), max(start, end)))
                assigned.update((start, end))

    result = Folding(word, frozenset(pairings))
    check(result.area <= folding_twisted.area, "transforms",
          "a back transport must not grow the area")
    return result


# ---------------------------------------------------------------------------
# merging cables that end in the same face


def merge_face_cables(word: CyclicWord, alias: Mapping[int, int]) -> CyclicWord:
    """Rename letters of gathered same-face cables to one canonical face.

    Cables that end in one face and follow the same route may be merged;
    in the word this is a renaming, with the canonical face's weight
    carried by the merged letter.
    """
    letters = tuple((alias.get(f, f), s) for f, s in word)
    weights = {alias.get(f, f): w for f, w in word.weights.items()}
    for f, w in word.weights.items():
        if weights[alias.get(f, f)] != w:
            raise ValueError("aliased faces must share a weight")
    return CyclicWord(letters, weights)
