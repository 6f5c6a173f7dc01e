"""Face words of a curve: cable tracing and cotree recursion.

Two constructions of the same cyclic word over the bounded faces:

* the *traced* word: route a cable from every bounded face to the
  unbounded face along the dual cotree, then walk the curve and record
  every cable crossing with a sign (``blank_word``);
* the *recursive* word: rewrite every cotree edge as a free word over the
  faces using the face-boundary relation and a chosen way of flattening
  each cyclic boundary (``nie_word``).

The two agree letter-for-letter once the flattening is derived from the
cable system (``derive_flattening``); that equality is exercised in the
test-suite for every corpus curve.  Both are built in one loop over the
cotree faces, deepest first, so that every child edge is done before its
parent edge; neither recurses.  Each face's child edges, in boundary
order, are read from the tree/cotree (``TreeCotree.children``), which
walks every face boundary once; so are the cables' basepoint order and
the derived flattening.  The curve's edges are its traversal steps in
order, so a word is read off them by edge id.

Cable routing is purely combinatorial here.  Cables through one edge
form a nested non-crossing bundle, and the nesting is forced up to one
choice per face: where the face's own cable joins the bundle leaving it.
That insertion point is the only knob (``insertions``), and it is in
bijection with the flattening choice of the recursive construction.

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
                          build_arrangement, check, fraction_str, load_json, parse_weights,
                          tree_cotree)


Letter = tuple[int, int]  # (face id, sign in {+1, -1})


def letter_str(letter: Letter) -> str:
    f, s = letter
    return str(f) if s > 0 else f"-{f}"


def parse_letter(tok) -> Letter:
    """A face letter from an integer or an integer string: "-3" -> (3, -1)."""
    if isinstance(tok, bool) or not isinstance(tok, (int, str)):
        raise ValueError(f"a letter is an integer or an integer string, not {tok!r}")
    f = int(tok)
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


def build_cable_system(arr: Arrangement, tc: TreeCotree,
                       insertions: Optional[Mapping[int, int]] = None) -> CableSystem:
    """Construct the canonical nested cable routing.

    ``insertions[f]`` picks where face f's own cable joins the bundle
    leaving f through its parent edge (0 = in front, in outbound reading
    order).  Every choice is realizable; the default 0 matches the
    default flattening of the recursive word construction.
    """
    insertions = dict(insertions or {})
    ports: dict[int, tuple[int, ...]] = {}
    letters: dict[int, tuple[Letter, ...]] = {}
    for g, eid, children in _deepest_first(arr, tc):
        # outbound reading order: reversed child blocks, own cable inserted
        blocks = [f for a in reversed(children) for f in ports[a]]
        pos = insertions.get(g, 0)
        if not 0 <= pos <= len(blocks):
            raise InvalidFlattening(
                f"insertion {pos} for face {g} out of range 0..{len(blocks)}")
        seq = tuple(blocks[:pos]) + (g,) + tuple(blocks[pos:])
        ports[eid] = seq
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


@dataclass(frozen=True)
class Flattening:
    """Per internal cotree node: which child word is split, and where.

    ``choices[f] = (j, split)`` with j in 1..r counted as in the rewriting
    e_f = w̄_r ... w̄_{j+1} (w̄_j)' ∂f (w̄_j)'' w̄_{j-1} ... w̄_1; ``split``
    is the length of the prefix (w̄_j)'.
    """

    choices: Mapping[int, tuple[int, int]] = field(default_factory=dict)


def nie_word(arr: Arrangement, tc: TreeCotree,
             flat: Optional[Flattening] = None) -> CyclicWord:
    """Bottom-up rewriting of cotree edges into free words over the faces.

    Leaves become a single signed face letter (positive when the edge runs
    counter-clockwise around its face); internal nodes splice the face
    letter into the inverted child words at the position the flattening
    dictates.  The final word concatenates the per-edge free words in
    curve-traversal order.
    """
    choices = dict(flat.choices) if flat else {}
    oriented: dict[int, tuple[Letter, ...]] = {}  # cotree edge -> word along the traversal
    for g, eid, children in _deepest_first(arr, tc):
        r = len(children)
        if r == 0:
            u: tuple[Letter, ...] = ((g, 1),)
        else:
            j, split = choices.get(g, (r, 0))
            if not 1 <= j <= r:
                raise InvalidFlattening(f"face {g}: child index {j} not in 1..{r}")
            # inverted child words in boundary (ccw around g) orientation;
            # wbar[i] for child i+1
            wbar = [invert_sequence(oriented[a]) if arr.edges[a].left_face == g
                    else oriented[a] for a in children]
            if not 0 <= split <= len(wbar[j - 1]):
                raise InvalidFlattening(
                    f"face {g}: split {split} out of range 0..{len(wbar[j - 1])}")
            u = ()
            for i in range(r, j, -1):
                u += wbar[i - 1]
            u += wbar[j - 1][:split] + ((g, 1),) + wbar[j - 1][split:]
            for i in range(j - 1, 0, -1):
                u += wbar[i - 1]
        oriented[eid] = u if arr.edges[eid].left_face == g else invert_sequence(u)

    letters = tuple(l for t in range(len(arr.edges)) for l in oriented.get(t, ()))
    return CyclicWord(letters, arr.face_weights)


def derive_flattening(cables: CableSystem) -> Flattening:
    """The flattening induced by a cable system's insertion choices.

    The insertion position of face f's cable inside the outbound bundle
    of its parent edge determines which inverted child word is split and
    where.
    """
    choices: dict[int, tuple[int, int]] = {}
    for g in cables.cables:
        children = cables.tc.children[g]
        r = len(children)
        if r == 0:
            continue
        lengths = [len(cables.ports[a]) for a in children]  # child 1..r
        pos = cables.insertions.get(g, 0)
        remaining = pos
        j, split = r, 0
        for idx in range(r, 0, -1):
            if remaining <= lengths[idx - 1]:
                j, split = idx, remaining
                break
            remaining -= lengths[idx - 1]
        choices[g] = (j, split)
    return Flattening(choices=choices)


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
