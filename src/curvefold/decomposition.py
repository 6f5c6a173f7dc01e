"""Vertex decompositions and minimum-area analysis.

A closed curve can be split at a self-crossing into two closed subcurves
by reconnecting the strands the orientation-respecting way.  A *vertex
pairing* smooths a set of pairwise-unlinked crossings at once; it is a
*self-overlapping decomposition* when every resulting piece bounds an
immersed disk (possibly after reversing the piece's orientation — a
clockwise embedded loop counts through its reverse).  The minimum total
winding area over all such decompositions equals the cancellation norm
of the curve's word with face areas as weights, which in turn equals the
minimum area swept by a null-homotopy.

Pieces are represented combinatorially as runs of the curve's edges,
each with the face letters it carries; traversal step t is edge t, so an
entry names its edge by its step.  Smoothing keeps every edge whole, so
a piece's rotation number is the turning of its edges' directions: the
steps inside its runs plus one step where each run meets the next.

The search only chooses a vertex set.  Its walk (``_unlinked_keys``)
names each set's pieces, and ``_KeyJudge`` judges a piece from its name
alone, by tables derived once per curve, as the piece's int winding area
on the word's scale or None.  One function, ``_decompose``, cuts,
certifies and measures every decomposition the module returns: it
smooths the whole curve at a vertex set with ``smooth_at``, certifies
each piece with ``certify_subcurve`` and sums ``Subcurve.area_w``,
sharing nothing with the judge's tables.  ``min_area_sod`` calls it for
the one set its search picks; ``sod_oracle`` calls it for every
unlinked vertex set, apart from the search's judge, on curves of at
most ``ORACLE_SET_CAP`` such sets.  ``homotopy_trace`` replays a folding
as Blank's induction, one cut along an innermost pairing at a time, on
the word alone.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .arrangement import (Arrangement, FaceWeights, PlaneCurve, Vector, check, turn,
                          turning_of_directions)
from .folding import (CapExceeded, Folding, Pairing, _letter_codes, _positive_linear,
                      cancellation_norm, chords_cross, positively_foldable)
from .words import CableSystem, CyclicWord, Letter, face_word


class InvalidDecomposition(Exception):
    """A claimed decomposition has a piece that is not self-overlapping."""


class LinkedVertices(Exception):
    """Vertex set cannot be smoothed simultaneously."""


# ---------------------------------------------------------------------------
# subcurves


@dataclass(frozen=True)
class SubcurveEntry:
    """One step of a subcurve: an edge of the curve, walked forwards, and
    the letters it carries.

    ``positions`` are the global face-word indices of ``letters``.
    """

    dart: int                      # traversal index t, which is the edge id
    tail_vertex: Optional[int]     # crossing the edge leaves, if any
    letters: tuple[Letter, ...]
    positions: tuple[int, ...]
    partial: bool = False          # edge truncated by a cut; smoothing never truncates


@dataclass(frozen=True)
class Subcurve:
    """A closed piece of a curve, tracked through smoothings."""

    entries: tuple[SubcurveEntry, ...]
    arr: Arrangement = field(compare=False, repr=False)

    @property
    def weights(self) -> FaceWeights:
        """The curve's face weights, which every piece of it shares."""
        return self.arr.face_weights

    def letters(self) -> tuple[Letter, ...]:
        return tuple(l for e in self.entries for l in e.letters)

    def positions(self) -> tuple[int, ...]:
        return tuple(p for e in self.entries for p in e.positions)

    def word(self) -> CyclicWord:
        return CyclicWord(self.letters(), self.arr.face_weights)

    def windings(self) -> dict[int, int]:
        """Winding number at each face's puncture: signed letter count."""
        out: dict[int, int] = {}
        for f, s in self.letters():
            out[f] = out.get(f, 0) + s
        return out

    def area_w(self) -> Fraction:
        """Winding area: one int sum over the weights' scale, made a
        ``Fraction`` once."""
        D, scaled = self.weights.scale
        return Fraction(sum(abs(w) * scaled[f] for f, w in self.windings().items()), D)

    def crossings(self) -> list[int]:
        """Vertices both of whose passes belong to this piece."""
        seen: dict[int, int] = {}
        for e in self.entries:
            if e.tail_vertex is not None:
                seen[e.tail_vertex] = seen.get(e.tail_vertex, 0) + 1
        return sorted(v for v, c in seen.items() if c == 2)

    @property
    def rotation(self) -> int:
        """Turning number, exact, over the directions of the piece's edges."""
        edges = self.arr.edges
        return turning_of_directions(
            [w for e in self.entries for w in edges[e.dart].directions])


def curve_subcurve(arr: Arrangement, cables) -> Subcurve:
    """The whole curve as a subcurve, aligned with its combined word."""
    entries: list[SubcurveEntry] = []
    pos = 0
    for e in arr.edges:
        letters = cables.letters.get(e.id, ())
        entries.append(SubcurveEntry(
            dart=e.id, tail_vertex=e.v_from, letters=letters,
            positions=tuple(range(pos, pos + len(letters)))))
        pos += len(letters)
    return Subcurve(entries=tuple(entries), arr=arr)


# ---------------------------------------------------------------------------
# smoothing


# a piece of a smoothing: its opening vertex (None for the outer piece)
# and the smoothed vertices directly nested in it
PieceKey = tuple[Optional[int], tuple[int, ...]]


def _piece_keys(passes: Mapping[int, Sequence[int]], combo: tuple[int, ...]) -> list[PieceKey]:
    """Name each piece of smoothing at ``combo``: the outer piece, then one
    per vertex in the order of ``combo``, by one bracket walk over the
    sorted passes (each vertex's two entry indices, ascending).

    Unlinked chords nest like brackets, so a vertex's second pass must
    close the innermost open piece, or the two vertices are linked."""
    children: dict[Optional[int], list[int]] = {v: [] for v in (None,) + combo}
    open_: list[Optional[int]] = [None]
    for p, v in sorted((p, v) for v in combo for p in passes[v]):
        if open_[-1] == v:
            open_.pop()
        elif p == passes[v][1]:
            raise LinkedVertices("vertices {} and {} are linked".format(
                *sorted((open_[-1], v))))
        else:
            children[open_[-1]].append(v)
            open_.append(v)
    return [(v, tuple(nested)) for v, nested in children.items()]


def _runs(passes: Mapping[int, Sequence[int]], key: PieceKey,
          length: int) -> list[tuple[int, int]]:
    """The entry ranges [a, b) of the piece named ``key``, of a curve of
    ``length`` entries: from its vertex's first pass up to its second
    (all of them for the outer piece), less the run of each vertex
    directly nested in it."""
    v, nested = key
    start, end = (0, length) if v is None else passes[v]
    cuts = (start, *(p for u in nested for p in passes[u]), end)
    return list(zip(cuts[::2], cuts[1::2]))


def _piece(sc: Subcurve, passes: Mapping[int, Sequence[int]], key: PieceKey) -> Subcurve:
    """Cut the piece named ``key`` from ``sc``: the entries of its runs.
    Equal names cut equal pieces."""
    entries = sum((sc.entries[a:b] for a, b in _runs(passes, key, len(sc.entries))), ())
    return Subcurve(entries=entries, arr=sc.arr)


def smooth_at(sc: Subcurve, vertices: Iterable[int]) -> list[Subcurve]:
    """Split a piece at unlinked crossings, respecting orientation.

    The two passes through a smoothed vertex bound a chord of the entry
    sequence; ``_piece_keys`` names the pieces from the chords, or finds
    two vertices linked, and ``_piece`` cuts each piece from its name.
    The two passes of a smoothed vertex land in different pieces, so no
    piece counts it among its crossings.  Returns the outer piece, then
    one piece per vertex in ascending order.
    """
    passes: dict[int, list[int]] = {v: [] for v in sorted(set(vertices))}
    for i, e in enumerate(sc.entries):
        if e.tail_vertex in passes:
            passes[e.tail_vertex].append(i)
    for v, hits in passes.items():
        if len(hits) != 2:
            raise LinkedVertices(f"vertex {v} does not cross this piece twice")
    return [_piece(sc, passes, key) for key in _piece_keys(passes, tuple(passes))]


# ---------------------------------------------------------------------------
# certification


def certify_subcurve(sc: Subcurve) -> tuple[bool, dict]:
    """Is the piece the boundary of an immersed disk, up to orientation?

    Accepts rotation +1 with a positively foldable word, or rotation -1
    with a positively foldable inverse word (the piece read backwards).
    """
    rot = sc.rotation
    if rot not in (1, -1):
        return False, {"reason": f"rotation_number={rot}"}
    word = sc.word()
    ok, witness = positively_foldable(word if rot == 1 else word.inverse())
    if ok:
        return True, {"rotation": rot, "witness": witness}
    return False, {"reason": "not_positively_foldable", "rotation": rot}


class _KeyJudge:
    """Judges each piece of a smoothing of ``full`` (the whole curve as a
    subcurve, ``word`` its word) from its key, as ``certify_subcurve``
    would judge the piece cut from it, by tables derived once per curve.

    * Rotation.  Smoothing at a vertex c cuts c's loop, the entries
      [a_c, b_c) of ``passes[c] = (a_c, b_c)``, out of the piece that holds
      it, and the rotation number is additive over an
      orientation-respecting smoothing: what remains turns by the
      piece's turning less the loop's.  The loop turns by A(c), the
      turning inside its entries plus the closing step from the last
      direction of entry b_c - 1 to the first of entry a_c; A(None) is
      the curve's rotation.  So the piece (v, C) turns by A(v) less A(c)
      for each c in C, every A(c) one difference of a prefix sum of the
      curve's turning steps.
    * Letters.  ``starts[t]`` is the index in ``word.letters`` of entry
      t's first letter, and ``codes`` holds one int per letter of the
      word (``folding._letter_codes``: a letter's inverse is its code ^ 1).
      So a piece's letters are one slice of ``codes`` per run, and for
      rotation -1 those of its inverse are the same codes reversed, each
      ^ 1.
    * Area.  ``sigma`` is the prefix sum of sign times scaled weight over
      the word's letters.  A piece that certifies with rotation s folds
      positively (its inverse when s = -1), so every one of its windings
      has sign s, and its winding area on the word's scale is s times its
      runs' sigma differences.

    No piece is cut to be judged, and the judge keeps no piece: a verdict
    is the piece's area, or None.
    """

    def __init__(self, full: Subcurve, word: CyclicWord):
        arr = full.arr
        self.passes, self.length = arr.vertex_passes, len(full.entries)
        dirs: list[Vector] = []
        first: list[int] = []  # per entry, the index of its first direction
        for e in full.entries:
            first.append(len(dirs))
            dirs.extend(arr.edges[e.dart].directions)
        steps = [turn(u, w) for u, w in zip(dirs, dirs[1:] + dirs[:1])]
        check(None not in steps, "decomposition", "the curve reverses its direction")
        turned = list(accumulate(steps, initial=0))  # the steps before each direction
        self.loop_turning: dict[Optional[int], int] = {None: turned[-1]}
        for v, (a, b) in self.passes.items():
            fa, fb = first[a], first[b]
            closing = turn(dirs[fb - 1], dirs[fa])
            check(closing is not None, "decomposition", "the curve reverses at crossing %d", v)
            self.loop_turning[v] = turned[fb - 1] - turned[fa] + closing
        self.starts = list(accumulate((len(e.letters) for e in full.entries), initial=0))
        self.codes = _letter_codes(word.letters)
        _, scaled = word.scale
        self.sigma = list(accumulate((s * scaled[f] for f, s in word.letters), initial=0))

    def rotation(self, key: PieceKey) -> int:
        v, nested = key
        return self.loop_turning[v] - sum(self.loop_turning[c] for c in nested)

    def __call__(self, key: PieceKey) -> Optional[int]:
        """The winding area, on the word's scale, of the piece named
        ``key`` if it certifies, else None."""
        rot = self.rotation(key)
        if rot not in (1, -1):
            return None
        starts = self.starts
        spans = [(starts[a], starts[b]) for a, b in _runs(self.passes, key, self.length)]
        own: list[int] = []
        for x, y in spans:
            own += self.codes[x:y]
        if rot == -1:
            own = [c ^ 1 for c in reversed(own)]
        if _positive_linear(own) is None:
            return None
        return rot * sum(self.sigma[y] - self.sigma[x] for x, y in spans)


# ---------------------------------------------------------------------------
# minimum-area self-overlapping decomposition


@dataclass(frozen=True)
class SelfOverlappingDecomposition:
    """Pieces of smoothing at ``vertex_pairs``, each kept with the
    ``certify_subcurve`` certificate (in ``subcurves`` order) that shows
    it bounds an immersed disk, and their total winding area.  The
    library builds one only in ``_decompose``."""

    vertex_pairs: frozenset[int]
    subcurves: tuple[Subcurve, ...]
    certificates: tuple[dict, ...] = field(compare=False, repr=False)
    area: Fraction
    # the cable system the pieces were smoothed from (``cables.arr`` is every
    # piece's arrangement) and its whole-curve face word
    cables: CableSystem = field(compare=False, repr=False)
    word: CyclicWord


def _decompose(cables: CableSystem, word: CyclicWord, full: Subcurve,
               vertices: frozenset[int]) -> Optional[SelfOverlappingDecomposition]:
    """The decomposition of ``full`` (the whole curve of ``cables``, whose
    face word is ``word``) by smoothing at ``vertices``: every piece cut
    by ``smooth_at``, certified by ``certify_subcurve`` and measured by
    ``Subcurve.area_w``; None if a piece does not certify."""
    pieces = smooth_at(full, vertices)
    certificates = []
    for piece in pieces:
        ok, certificate = certify_subcurve(piece)
        if not ok:
            return None
        certificates.append(certificate)
    return SelfOverlappingDecomposition(vertices, tuple(pieces), tuple(certificates),
                                        sum(piece.area_w() for piece in pieces), cables, word)


def _unlinked_keys(passes: Mapping[int, tuple[int, int]],
                   first_failing: Callable[[tuple[PieceKey, ...]], Optional[PieceKey]]
                   = lambda keys: None) -> Iterator[tuple[PieceKey, ...]]:
    """The piece keys of every pairwise-unlinked vertex set, smallest set
    first and lexicographic within a size, each in ``_piece_keys`` order,
    except the sets below a failing piece ``first_failing`` names.

    ``passes`` gives each vertex's chord, ends ascending.  A set grows
    only by a vertex v larger than all of it and unlinked from all of it,
    so none is built past the one its caller stops at, and its keys are
    its parent's with two changed.  v's host is the innermost vertex of
    the set whose chord holds v's (the outer piece if there is none):
    v's key takes the host's nested vertices inside v's chord, and the
    host keeps the rest with v among them in pass order.  Each set waits
    with the larger vertices it may still take, as a bitmask.

    The walk calls ``first_failing`` once with the keys of each set, in
    its order, except the sets that keep a piece the call named.  The set
    is yielded when the call returns None; otherwise the call names the
    key (u, C) of a piece of the set that fails, and the set is not
    yielded.  A descendant keeps that piece unchanged unless it takes a
    vertex hosted at u, and only vertices of u's region are: those inside
    u's chord and inside none of C's (hosts only move inwards as a set
    grows).  So a child that takes a vertex hosted elsewhere still holds
    the failing piece: it is grown but not asked about, and so are its
    own children, except those hosted at u.  It is dropped, with all its
    descendants, when no vertex of u's region is left among those it may
    take.  Every set the walk neither yields nor asks about holds a piece
    ``first_failing`` named.  The default names none, so the walk yields
    every unlinked set."""
    vs = sorted(passes)
    first = {v: a for v, (a, _) in passes.items()}
    later = {u: sum(1 << v for v in vs if v > u and not chords_cross(passes[u], passes[v]))
             for u in vs}
    # the smaller vertices whose chords hold v's, innermost first, then the outer piece
    hosts = {v: (*sorted((u for u in vs if u < v and passes[u][0] < a and b < passes[u][1]),
                         key=first.__getitem__, reverse=True), None)
             for v, (a, b) in passes.items()}
    # the larger vertices whose chords lie inside u's (all, for the outer piece)
    inside: dict[Optional[int], int] = dict.fromkeys((None, *vs), 0)
    for v, held in hosts.items():
        for u in held:
            inside[u] |= 1 << v
    # each set with the vertices it may take and, if it keeps a failing
    # piece ``first_failing`` named, that piece's vertex and region (the
    # chords of its nested vertices are disjoint, so a sum of their masks
    # is an or)
    level: list[tuple[tuple[PieceKey, ...], int, Optional[tuple[Optional[int], int]]]] = [
        (((None, ()),), inside[None], None)]
    while level:
        for n, (keys, free, failing) in enumerate(level):
            if failing is None:
                named = first_failing(keys)
                if named is None:
                    yield keys
                else:
                    u, nested = named
                    level[n] = (keys, free, (u, inside[u] & ~sum(inside[c] for c in nested)))
        grown = []
        for keys, free, failing in level:
            if not free:
                continue
            index = {u: i for i, (u, _) in enumerate(keys)}
            rest = free
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                for u in hosts[v]:
                    if u in index:
                        break
                after = free & later[v]
                kept = failing
                if failing is not None:
                    if failing[0] == u:
                        kept = None
                    elif not after & failing[1]:
                        continue  # it and all its descendants keep the failing piece
                h = index[u]
                nested = keys[h][1]
                a, b = passes[v]
                i = bisect_left(nested, a, key=first.__getitem__)
                j = bisect_left(nested, b, lo=i, key=first.__getitem__)
                grown.append((keys[:h] + ((u, nested[:i] + (v,) + nested[j:]),) + keys[h + 1:]
                              + ((v, nested[i:j]),), after, kept))
        level = grown


def _decompositions(full: Subcurve, word: CyclicWord) -> Iterator[tuple[int, frozenset[int]]]:
    """The winding area, an int on the scale of ``word`` (the word of the
    whole curve ``full``), and the vertex set of every self-overlapping
    decomposition by smoothing, in the order of the walk
    (``_unlinked_keys``).

    Pieces repeat across vertex sets, so each distinct piece is judged
    once, by ``_KeyJudge``, and its verdict kept.  Asked about a set, the
    search names the first of its pieces already known to fail, if any,
    or else the first that fails as its pieces of unknown verdict are
    judged in order.  Nothing is cut: a caller passes the vertex set it
    chooses to ``_decompose``."""
    judge = _KeyJudge(full, word)
    areas: dict[PieceKey, Optional[int]] = {}

    def first_failing(keys: tuple[PieceKey, ...]) -> Optional[PieceKey]:
        for key in keys:
            if areas.get(key, 0) is None:
                return key
        for key in keys:
            if key not in areas and areas.setdefault(key, judge(key)) is None:
                return key
        return None

    for keys in _unlinked_keys(full.arr.vertex_passes, first_failing):
        yield sum(areas[key] for key in keys), frozenset(v for v, _ in keys[1:])


def min_area_sod(curve: PlaneCurve) -> SelfOverlappingDecomposition:
    """Smallest-area decomposition into immersed-disk boundaries.

    The cancellation norm of the face word (area weights) is the provable
    optimum.  The search (``_decompositions``) picks the first vertex set
    whose judged area reaches it; ``_decompose`` cuts, certifies and
    measures that set's pieces, and their certified area must be the
    norm.
    """
    cables, word = face_word(curve)
    full = curve_subcurve(cables.arr, cables)
    target, _ = cancellation_norm(word)
    scaled = target * word.scale[0]
    found = next((vertices for area, vertices in _decompositions(full, word)
                  if area == scaled), None)
    check(found is not None, "decomposition", "search must reach the cancellation norm")
    sod = _decompose(cables, word, full, found)
    check(sod is not None, "decomposition",
          "a piece of the chosen vertex set %s does not certify", sorted(found))
    check(sod.area == target, "decomposition",
          "the certified area %s must equal the cancellation norm %s", sod.area, target)
    return sod


def _smoothed_decompositions(cables: CableSystem, word: CyclicWord
                             ) -> Iterator[SelfOverlappingDecomposition]:
    """Every self-overlapping decomposition by smoothing, in the walk's
    order: ``_decompose`` at each unlinked vertex set.  Nothing is judged
    by name."""
    full = curve_subcurve(cables.arr, cables)
    for keys in _unlinked_keys(cables.arr.vertex_passes):
        sod = _decompose(cables, word, full, frozenset(v for v, _ in keys[1:]))
        if sod is not None:
            yield sod


# the most unlinked vertex sets ``sod_oracle`` smooths: above the 3 840 of
# the largest curve the tests cross-check, far below the 36 864 of a
# 19-gon with 36 crossings; counting up to it walks the sets only
ORACLE_SET_CAP = 8192


def sod_oracle(cables: CableSystem, word: CyclicWord) -> SelfOverlappingDecomposition:
    """Exhaustive minimum over all unlinked vertex sets, by smoothing.

    Ignores the cancellation norm and the search's judge: it smooths and
    certifies every unlinked set, so it is the independent cross-check for
    ``min_area_sod`` on small curves.  Before it smooths any, it counts
    the sets by the plain walk and raises ``CapExceeded`` past
    ``ORACLE_SET_CAP`` of them.  Reads the cable system and face word a
    decomposition carries (``sod.cables``, ``sod.word``) and builds
    nothing.  Ties go to the first set in the walk's order, as in
    ``min_area_sod``.
    """
    walk = _unlinked_keys(cables.arr.vertex_passes)
    if sum(1 for _ in islice(walk, ORACLE_SET_CAP + 1)) > ORACLE_SET_CAP:
        raise CapExceeded(f"unlinked vertex sets exceed cap {ORACLE_SET_CAP}")
    best = min(_smoothed_decompositions(cables, word), key=lambda sod: sod.area, default=None)
    check(best is not None, "decomposition", "every curve admits at least one decomposition")
    return best


def sod_to_folding(curve: PlaneCurve, sod: SelfOverlappingDecomposition) -> Folding:
    """A folding of the full word with area equal to the decomposition's.

    Each piece contributes the positive folding its certificate (kept on
    the decomposition) carries, of its word or, for a reversed piece, of
    its inverse word; nothing is certified again.  A positive folding
    pairs every negative letter, so each face keeps exactly |winding|
    unpaired letters and the piece's unpaired weight is its winding area.
    Pairings embed at the pieces' global positions and never link across
    pieces.  The full word is the one the decomposition carries; ``curve``
    only guards against a decomposition of another curve.
    """
    if sod.cables.arr.curve != curve:
        raise InvalidDecomposition("the decomposition is of another curve")
    if len(sod.certificates) != len(sod.subcurves):
        raise InvalidDecomposition("a decomposition needs one certificate per piece")
    pairings: list[Pairing] = []
    for piece, cert in zip(sod.subcurves, sod.certificates):
        witness = cert.get("witness")
        if witness is None:
            raise InvalidDecomposition("a piece does not bound an immersed disk")
        word, backward = piece.word(), cert["rotation"] == -1
        if witness.word != (word.inverse() if backward else word):
            raise InvalidDecomposition("a certificate is not of its piece")
        slots = piece.positions()[::-1] if backward else piece.positions()
        pairings.extend(Pairing(slots[p.i], slots[p.j]) for p in witness.pairings)
    folding = Folding(sod.word, frozenset(pairings))
    check(folding.area == sod.area, "decomposition",
          "the folding's area must equal the decomposition's")
    return folding


# ---------------------------------------------------------------------------
# homotopy trace


@dataclass(frozen=True)
class CutStep:
    face: int
    positions: tuple[int, int]


@dataclass(frozen=True)
class ContractStep:
    letters: tuple[Letter, ...]
    area: Fraction


@dataclass(frozen=True)
class HomotopyTrace:
    steps: tuple[object, ...]
    total_area: Fraction


def homotopy_trace(folding: Folding) -> HomotopyTrace:
    """Replay a folding as an explicit contraction schedule.

    Repeatedly pick a pairing one of whose arcs holds no other pairing,
    cut there, contract the pairing-free side (sweeping each of its faces
    once per letter), and continue on the remainder; the leftover closed
    curve contracts through its depth cycles at the end.  The swept total
    is exactly the folding's unpaired weight.  Each step's area, and the
    total, is an int sum over the word's scale (``CyclicWord.scale``),
    made a ``Fraction`` once.

    The shortest free arc goes first, ties to the pairing with the smaller
    position; when one pairing is left, both its arcs are free and the one
    from ``p.i`` to ``p.j`` is cut.  A free arc holds only unpaired live
    positions, so its length is fixed until it is cut, and a cut frees at
    most one arc: the gap between the paired positions it makes
    neighbours.  So the free arcs wait in a heap, and the live and paired
    positions are two linked cycles: O(m + k log k) for k pairings.
    """
    word = folding.word
    m = len(word)
    D, scaled = word.scale
    # the live positions, as a cycle linked forwards and backwards
    nxt = [(x + 1) % m for x in range(m)]
    prv = [(x - 1) % m for x in range(m)]
    alive = [True] * m
    owner = folding.owner
    # the paired positions, as a cycle, with the live count of each gap
    paired = [x for x in range(m) if owner[x] is not None]
    after = [0] * m
    before = [0] * m
    gap = [0] * m
    free: list[tuple[int, int, int, int]] = []  # (length, smaller position, a, b)

    def link(a: int, b: int, length: int) -> None:
        """Make b the paired position after a, with ``length`` live between."""
        after[a], before[b], gap[a] = b, a, length
        if owner[a] is owner[b]:
            heapq.heappush(free, (length, min(a, b), a, b))

    for a, b in zip(paired, paired[1:] + paired[:1]):
        link(a, b, (b - a - 1) % m)

    steps: list[object] = []

    def contract(xs: Iterable[int]) -> int:
        """Record the contraction of positions xs; their scaled weight."""
        letters = tuple(word[x] for x in xs)
        swept = sum(scaled[f] for f, _ in letters)
        steps.append(ContractStep(letters=letters, area=Fraction(swept, D)))
        return swept

    total = 0
    for left in range(len(folding.pairings), 0, -1):
        check(free, "decomposition", "an unlinked family always has an innermost pairing")
        _, _, a, b = heapq.heappop(free)
        p = owner[a]
        if left == 1:
            a, b = p.i, p.j
        arc = []
        x = nxt[a]
        while x != b:
            arc.append(x)
            x = nxt[x]
        for x in (a, b, *arc):
            alive[x] = False
        nxt[prv[a]], prv[nxt[b]] = nxt[b], prv[a]
        if left > 1:
            link(before[a], after[b], gap[before[a]] + gap[b])
        steps.append(CutStep(face=word[p.i][0], positions=(p.i, p.j)))
        total += contract(arc)

    total += contract(x for x in range(m) if alive[x])
    trace = HomotopyTrace(steps=tuple(steps), total_area=Fraction(total, D))
    check(trace.total_area == folding.area, "decomposition",
          "the trace total must equal the folding area")
    return trace
