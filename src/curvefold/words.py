"""Face words of a curve: cable tracing and cotree recursion.

Two constructions of the same cyclic word over the bounded faces:

* the *traced* word: route a cable from every bounded face to the
  unbounded face along the dual cotree, then walk the curve and record
  every cable crossing with a sign (``blank_word``);
* the *recursive* word: rewrite every cotree edge as a free word over the
  faces using the face-boundary relation, flattening each cyclic
  boundary at a chosen offset (``nie_word``).

The two agree letter-for-letter under the same insertion offsets
(``derive_flattening`` reads them off a cable system); that equality is
exercised in the test-suite for every corpus curve.  Both are built in
one loop over the cotree faces, deepest first, so that every child edge
is done before its parent edge; neither recurses.  Each face's child
edges, in boundary order, are read from the tree/cotree
(``TreeCotree.children``), which walks every face boundary once; so is
the cables' basepoint order.  The curve's edges are its traversal steps
in order, so a word is read off them by edge id.

Cable routing is purely combinatorial here.  Cables through one edge
form a nested non-crossing bundle, and the nesting is forced up to one
choice per face: where the face's own cable joins the bundle leaving it.
That insertion point is the only knob (``insertions``): one offset
drives both constructions.

Sign convention: a crossing is positive exactly when the child face of
the crossed edge lies to the left of the traversal direction, i.e. when
the edge runs counter-clockwise around the face whose cable bundle it
carries.  Equivalently the curve crosses the outbound cables from right
to left.  The signed letters of each cotree edge, in traversal order, are
worked out once with the bundle (``CableSystem.letters``) and read by
every word built from the cables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .arrangement import (Arrangement, FaceWeights, MalformedInput, PlaneCurve, TreeCotree,
                          build_arrangement, check, decimal_int, fraction_str, load_json,
                          parse_weights, tree_cotree)


Letter = tuple[int, int]  # (face id, sign in {+1, -1})


def letter_str(letter: Letter) -> str:
    f, s = letter
    return str(f) if s > 0 else f"-{f}"


def parse_letter(tok) -> Letter:
    """A face letter from an int or an ASCII decimal string: "-3" -> (3, -1)."""
    f = decimal_int(tok)
    if f == 0:
        raise ValueError("face id 0 is the unbounded face; letters use bounded faces")
    return (abs(f), 1 if f > 0 else -1)


@dataclass(frozen=True)
class CyclicWord:
    """A cyclic sequence of signed face letters with nonnegative weights.

    ``weights`` becomes a ``FaceWeights`` that weighs every letter's face;
    a face the given weights leave out weighs 1.  A ``FaceWeights`` that
    already weighs every letter is kept as is, so every word over it (the
    curve's face words, ``rotate``, ``inverse``, the transforms) shares one
    integer scale (``scale``).
    """

    letters: tuple[Letter, ...]
    weights: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        w = self.weights
        if not (isinstance(w, FaceWeights) and w.keys() >= {f for f, _ in letters}):
            w = dict(w)
            for f, _ in letters:
                if f not in w:
                    w[f] = Fraction(1)
            object.__setattr__(self, "weights", FaceWeights(w))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i: int) -> Letter:
        return self.letters[i % len(self.letters)]

    @property
    def scale(self) -> tuple[int, dict[int, int]]:
        """(D, {face: weight * D}), D the least common denominator of the
        weights: the weights' own ``FaceWeights.scale``, derived on first
        use by any word or measure over them and kept.  Every area of the
        word — the norm, a folding's unpaired weight, a contraction step —
        is an int sum over this scale, made a ``Fraction`` of denominator D
        once."""
        return self.weights.scale

    def rotate(self, k: int) -> "CyclicWord":
        n = len(self.letters)
        if n == 0:
            return self
        k %= n
        return CyclicWord(self.letters[k:] + self.letters[:k], self.weights)

    def inverse(self) -> "CyclicWord":
        return CyclicWord(invert_sequence(self.letters), self.weights)

    def with_weights(self, weights: Mapping[int, Fraction]) -> "CyclicWord":
        return CyclicWord(self.letters, weights)

    def __str__(self) -> str:
        return "[" + " ".join(letter_str(l) for l in self.letters) + "]"


def invert_sequence(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Formal inverse of a linear letter sequence."""
    return tuple((f, -s) for (f, s) in reversed(letters))


def word_to_json(word: CyclicWord) -> dict:
    return {
        "word": [letter_str(l) for l in word.letters],
        "weights": {str(f): fraction_str(q) for f, q in sorted(word.weights.items())},
    }


def parse_word(doc) -> CyclicWord:
    """Parse a word document: {"word": ["2","-3",...], "weights": {...}}."""
    doc = load_json(doc)
    if not isinstance(doc, dict) or not isinstance(doc.get("word"), list):
        raise MalformedInput("word document must be an object with a 'word' list")
    try:
        letters = tuple(parse_letter(tok) for tok in doc["word"])
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    weights = {} if doc.get("weights") is None else parse_weights(doc["weights"])
    unbounded = sorted(f for f in weights if f < 1)
    if unbounded:
        raise MalformedInput(f"weights name faces no letter can use: {unbounded}")
    return CyclicWord(letters, weights)


# ---------------------------------------------------------------------------
# cable systems


class InvalidFlattening(Exception):
    pass


@dataclass(frozen=True)
class CableSystem:
    """Managed shortest-path cables, one per bounded face.

    ``ports[e]`` lists the faces whose cables cross edge e, ordered along
    the edge's *outbound* direction (counter-clockwise around the child
    face); ``letters[e]`` holds the signed letters the curve records while
    crossing e, in traversal order: ``ports[e]`` positive when the
    outbound direction is the traversal direction, else reversed and
    negative.  ``cables[f]`` is the primal-edge path from face f to the
    unbounded face, and ``ordering`` is the cyclic cable order around the
    basepoint.
    """

    arr: Arrangement
    tc: TreeCotree
    cables: Mapping[int, tuple[int, ...]]
    ports: Mapping[int, tuple[int, ...]]
    letters: Mapping[int, tuple[Letter, ...]]
    insertions: Mapping[int, int]
    ordering: tuple[int, ...]


def _deepest_first(arr: Arrangement, tc: TreeCotree) -> list[tuple[int, int, tuple[int, ...]]]:
    """(face, parent edge, child edges) per bounded face, children first."""
    faces = sorted(tc.parent_edge, key=lambda f: -arr.faces[f].depth)
    return [(g, tc.parent_edge[g], tc.children[g]) for g in faces]


def _checked_insertions(tc: TreeCotree, insertions: Optional[Mapping[int, int]]) -> dict[int, int]:
    """``insertions`` as a dict; a key that is not a bounded face with a
    parent edge raises ``InvalidFlattening``."""
    insertions = dict(insertions or {})
    stray = insertions.keys() - tc.parent_edge.keys()
    if stray:
        raise InvalidFlattening(
            f"insertions for faces with no parent edge: {sorted(stray, key=repr)}")
    return insertions


def _insertion(insertions: Mapping[int, int], g: int, n: int) -> int:
    """Face g's insertion offset into a bundle of n, checked to be in 0..n."""
    pos = insertions.get(g, 0)
    if not 0 <= pos <= n:
        raise InvalidFlattening(f"insertion {pos} for face {g} out of range 0..{n}")
    return pos


def build_cable_system(arr: Arrangement, tc: TreeCotree,
                       insertions: Optional[Mapping[int, int]] = None) -> CableSystem:
    """Construct the canonical nested cable routing.

    ``insertions[f]`` picks where face f's own cable joins the bundle
    leaving f through its parent edge (0 = in front, in outbound reading
    order).  Every offset in 0..len(bundle) is realizable, and
    ``nie_word`` takes the same offsets.
    """
    insertions = _checked_insertions(tc, insertions)
    ports: dict[int, tuple[int, ...]] = {}
    letters: dict[int, tuple[Letter, ...]] = {}
    for g, eid, children in _deepest_first(arr, tc):
        # outbound reading order: reversed child blocks, own cable inserted
        seq = [f for a in reversed(children) for f in ports[a]]
        seq.insert(_insertion(insertions, g, len(seq)), g)
        ports[eid] = seq = tuple(seq)
        if arr.edges[eid].left_face == g:
            letters[eid] = tuple((f, 1) for f in seq)
        else:
            letters[eid] = tuple((f, -1) for f in reversed(seq))

    cables: dict[int, tuple[int, ...]] = {}
    for f in tc.parent_edge:
        path = []
        g = f
        while g != 0:
            path.append(tc.parent_edge[g])
            g = tc.parent_face[g]
        cables[f] = tuple(path)
        check(len(path) == arr.faces[f].depth, "words",
              "cable of face %d must cross as many edges as its depth", f)

    ordering = tuple(f for eid in tc.children[0] for f in ports[eid])
    return CableSystem(arr=arr, tc=tc, cables=cables, ports=ports, letters=letters,
                       insertions=insertions, ordering=ordering)


def blank_word(arr: Arrangement, cables: CableSystem) -> CyclicWord:
    """Trace the curve and record every cable crossing with its sign.

    A crossing is positive when the curve crosses the cable from right to
    left, which happens exactly when the edge's outbound direction agrees
    with the traversal direction.
    """
    letters = tuple(l for t in range(len(arr.edges)) for l in cables.letters.get(t, ()))
    return CyclicWord(letters, arr.face_weights)


def face_word(curve: PlaneCurve) -> tuple[CableSystem, CyclicWord]:
    """The curve's default cable system and its traced face word.

    Builds the arrangement and its tree/cotree once; the cable system
    carries both (``.arr``, ``.tc``).
    """
    arr = build_arrangement(curve)
    cables = build_cable_system(arr, tree_cotree(arr))
    return cables, blank_word(arr, cables)


# ---------------------------------------------------------------------------
# the recursive construction


def nie_word(arr: Arrangement, tc: TreeCotree,
             insertions: Optional[Mapping[int, int]] = None) -> CyclicWord:
    """Bottom-up rewriting of cotree edges into free words over the faces.

    Face g's edge word, counter-clockwise around g, is its children's
    inverted words from the last child to the first, with g's letter
    spliced in at offset ``insertions[g]`` (default 0): the rewriting
    e_g = w̄_r ... w̄_{j+1} (w̄_j)' ∂g (w̄_j)'' w̄_{j-1} ... w̄_1 with
    offset |w̄_r ... w̄_{j+1} (w̄_j)'|.  Each child word holds one letter
    per cable crossing the child edge, so this is the offset at which
    ``build_cable_system`` inserts g's cable.  The final word concatenates
    the per-edge free words in curve-traversal order.
    """
    insertions = _checked_insertions(tc, insertions)
    oriented: dict[int, tuple[Letter, ...]] = {}  # cotree edge -> word along the traversal
    for g, eid, children in _deepest_first(arr, tc):
        u = [l for a in reversed(children)
             for l in (invert_sequence(oriented[a]) if arr.edges[a].left_face == g
                       else oriented[a])]
        u.insert(_insertion(insertions, g, len(u)), (g, 1))
        oriented[eid] = tuple(u) if arr.edges[eid].left_face == g else invert_sequence(u)

    letters = tuple(l for t in range(len(arr.edges)) for l in oriented.get(t, ()))
    return CyclicWord(letters, arr.face_weights)


def derive_flattening(cables: CableSystem) -> Mapping[int, int]:
    """The insertions that make ``nie_word`` give the cable system's word."""
    return cables.insertions


# ---------------------------------------------------------------------------
# combined words


VertexToken = tuple[str, int, int]  # ("v", vertex id, occurrence 1 or 2)


@dataclass(frozen=True)
class CombinedWord:
    """Cyclic interleaving of vertex tokens and signed face letters."""

    tokens: tuple[object, ...]  # VertexToken or Letter

    def face_letters(self) -> tuple[Letter, ...]:
        return tuple(t for t in self.tokens if not is_vertex_token(t))


def is_vertex_token(tok) -> bool:
    return isinstance(tok, tuple) and len(tok) == 3 and tok[0] == "v"


def combined_word(arr: Arrangement, cables: CableSystem) -> CombinedWord:
    """Interleave the intersection sequence with the cable crossings.

    A vertex token numbers its pass 1 or 2 in traversal order, as
    ``arr.vertex_passes`` lists them.
    """
    tokens: list[object] = []
    for e in arr.edges:
        v = e.v_from
        if v is not None:
            tokens.append(("v", v, 1 if arr.vertex_passes[v][0] == e.id else 2))
        tokens.extend(cables.letters.get(e.id, ()))
    return CombinedWord(tuple(tokens))
