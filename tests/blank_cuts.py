"""Blank cuts of a curve along the pairings of a folding, for the tests.

Blank's induction contracts a curve one cut at a time: a cut runs along
the cable path between the two crossings of a pairing and splits the
piece into two closed pieces, each keeping the letters on its side.  The
library replays that induction on the word alone (``homotopy_trace``)
and decomposes curves by smoothings only, so this geometric form lives
here, as the oracle the trace is checked against and as the setting of
the paper's lemma that cutting along a maximal folding leaves good
pieces.  A side's truncated darts are marked ``partial``; its last entry
joins its first across the cut, which crosses no cable.
"""

from __future__ import annotations

from conftest import windings
from curvefold.arrangement import check
from curvefold.decomposition import Subcurve, SubcurveEntry, certify_subcurve, smooth_at
from curvefold.folding import Folding, Pairing


class InvalidPairing(Exception):
    """Pairing does not name inverse letters of the word."""


class NotAStack(Exception):
    """Subcurve fails the stack preconditions."""


def blank_cut(sc: Subcurve, p: Pairing) -> tuple[Subcurve, Subcurve]:
    """Cut along the cable path between the two crossings of a pairing.

    ``p`` names positions of the piece's own word.  The paired letters
    are consumed; each side holds the letters strictly between them,
    in order from the letter it starts after.
    """
    word = sc.word()
    m = len(word)
    i, j = p.i % m, p.j % m
    if i == j:
        raise InvalidPairing("a pairing needs two distinct positions")
    fi, si = word[i]
    fj, sj = word[j]
    if fi != fj or si != -sj:
        raise InvalidPairing(f"positions {i},{j} are not inverse letters")

    # locate the two letters inside the entry stream
    flat = [(ei, li) for ei, e in enumerate(sc.entries) for li in range(len(e.letters))]

    def partial(e: SubcurveEntry, lo: int, hi: int, cut: bool) -> SubcurveEntry:
        return SubcurveEntry(dart=e.dart, tail_vertex=None if cut else e.tail_vertex,
                             letters=e.letters[lo:hi], positions=e.positions[lo:hi],
                             partial=True)

    def side(start: tuple[int, int], stop: tuple[int, int]) -> Subcurve:
        """Entries strictly between two letter slots, cyclically."""
        (sa, sl), (sb, bl) = start, stop
        ea = sc.entries[sa]
        if sa == sb and sl < bl:
            # both cut letters sit on one dart; keep the stretch between
            entries = [partial(ea, sl + 1, bl, cut=True)]
        else:
            # tail of the entry holding the first cut letter, the entries
            # strictly between, then the head of the entry holding the second
            entries = [partial(ea, sl + 1, len(ea.letters), cut=True)]
            k = (sa + 1) % len(sc.entries)
            while k != sb:
                entries.append(sc.entries[k])
                k = (k + 1) % len(sc.entries)
            entries.append(partial(sc.entries[sb], 0, bl, cut=False))
        return Subcurve(entries=tuple(entries), arr=sc.arr)

    cut1 = side(flat[i], flat[j])
    cut2 = side(flat[j], flat[i])
    check(len(cut1.letters()) + len(cut2.letters()) == m - 2, "decomposition",
          "a Blank cut must keep every letter but the cut pair")
    return cut1, cut2


def cut_at(piece: Subcurve, i: int, j: int) -> tuple[Subcurve, Subcurve]:
    """``blank_cut`` at the letters of global face-word positions i and j."""
    slots = piece.positions()
    return blank_cut(piece, Pairing(slots.index(i), slots.index(j)))


def cut_along_folding(sc: Subcurve, folding: Folding) -> list[Subcurve]:
    """Cut along every pairing, in ascending ``(i, j)`` order; returns all pieces.

    An outer pairing may be cut before the pairings it encloses.  The
    pairings do not link, so each lies in exactly one piece whenever it is
    cut, and the order changes only the order of the returned list.
    """
    pieces = [sc]
    for p in sorted(folding.pairings, key=lambda p: (p.i, p.j)):
        for idx, piece in enumerate(pieces):
            slots = piece.positions()
            if p.i in slots and p.j in slots:
                pieces[idx:idx + 1] = cut_at(piece, p.i, p.j)
                break
        else:
            raise InvalidPairing(f"pairing {p} spans two pieces")
    return pieces


def is_good(sc: Subcurve) -> bool:
    """All occurrences of each face letter share one sign.

    Equivalent to |winding| == depth on each face once cables are merged,
    since the unsigned count measures depth and the signed count winding.
    """
    signs: dict[int, int] = {}
    for f, s in sc.letters():
        if signs.setdefault(f, s) != s:
            return False
    return True


def stack_decompose(sc: Subcurve) -> list[Subcurve]:
    """Split a k-stack into k immersed-disk boundaries by smoothings.

    Searches for a crossing whose smoothing yields two stacks whose
    rotations add up; recursion bottoms out at |rotation| = 1.
    """
    wind = {f: w for f, w in windings(sc.word()).items() if w != 0}
    if not is_good(sc):
        raise NotAStack("mixed letter signs")
    signs = {1 if w > 0 else -1 for w in wind.values()}
    if len(signs) > 1:
        raise NotAStack("winding numbers of both signs")
    rot = sc.rotation
    if rot == 0 or (signs and (rot > 0) != (next(iter(signs)) > 0)):
        raise NotAStack(f"rotation {rot} inconsistent with windings")
    k = abs(rot)
    if k == 1:
        check(certify_subcurve(sc)[0], "decomposition", "a 1-stack must bound an immersed disk")
        return [sc]
    for v in sc.crossings():
        pieces = smooth_at(sc, [v])
        rots = [p.rotation for p in pieces]
        if 0 in rots:
            continue
        if (rots[0] > 0) != (rot > 0) or (rots[1] > 0) != (rot > 0):
            continue
        if abs(rots[0]) + abs(rots[1]) != k:
            continue
        try:
            return stack_decompose(pieces[0]) + stack_decompose(pieces[1])
        except NotAStack:
            continue
    raise NotAStack(f"no smoothing splits this {k}-stack")
