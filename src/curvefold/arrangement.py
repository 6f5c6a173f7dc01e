"""Exact planar arrangement of a generic closed polyline curve.

A closed curve with only transverse self-crossings induces a 4-regular
plane graph: the crossings are the vertices, the arcs between consecutive
crossings are the edges, and the complement of the curve splits into faces;
a curve without crossings is one closed edge between two faces.
This module builds that graph with exact rational arithmetic and computes
the per-face invariants everything downstream relies on:

* the rotation system: the four darts leaving each crossing in ccw order,
  read off the sign of one cross product of the crossing's two pass
  directions,
* signed area of every face: each edge's shoelace sum counts once for the
  face on its left and, negated, for the face on its right,
* winding number, depth and cotree parent, all from one BFS over the
  dual graph from the unbounded face: the depth is the BFS level, the
  winding rises by one across every edge from its right face to its left
  face, and each face keeps the (face, edge) it was first reached through,
* a tree/cotree pair read off those parents: the cotree duals form a BFS
  spanning tree of the dual graph rooted at the unbounded face.

The input corners are ``fractions.Fraction``.  Each build scales them
once to integers by the least common denominator D of their
coordinates, and every predicate (which segments cross, the ccw order
around a crossing, the turning of the tangent) is the sign of an integer
cross product.  The construction itself runs on Python ints; no
tolerances anywhere:

* a crossing is named by its segment pair (i, j) and located by an
  integer triple (X, Y, q), q > 0, standing for (X / (q D), Y / (q D));
  its parameter t on each of the two segments is kept as the integer
  key floor(t K), with K large enough that distinct parameters get
  distinct keys, which orders the crossings along the segment and finds
  three segments through one point,
* a dart is named by its integer id everywhere, 2e for edge e walked
  forwards and 2e + 1 for it walked backwards, so its twin is id ^ 1; the
  rotation system (``Vertex.darts_ccw``) and the face boundaries hold
  ids, and the faces are traced over them,
* the edges are numbered along the curve: traversal step t walks edge t
  forwards (dart 2t), so a reader indexes ``edges[t]`` directly,
* each edge's shoelace sum is one integer over the scaled corners and its
  two end crossings, q1 q2 D^2 times twice its signed area; it is added
  to its left face's boundary cycle and subtracted from its right face's
  as an unreduced int numerator and denominator.

A ``Fraction`` is made only where a value leaves the construction: once
per crossing for ``Vertex.point``, once per face for ``Face.signed_area``,
and in the message of a ``NonGenericCurve``.  The face weights are a
``FaceWeights`` mapping, which derives its integer scale on first use and
keeps it for ``face_measures`` and for every word over the same weights.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class InvariantViolation(Exception):
    """A library invariant failed at ``stage``: a result cannot be trusted.

    ``stage`` names the module whose check failed (for a cross-check of
    the command line, the command); the message is ``"<stage>: <detail>"``.
    """

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


def check(ok, stage: str, detail: str, *args) -> None:
    """Raise ``InvariantViolation(stage, detail % args)`` unless ``ok``.

    The one path for every invariant of the library; unlike ``assert`` it
    holds under ``python -O``, and ``detail`` is formatted only on failure.
    """
    if not ok:
        raise InvariantViolation(stage, detail % args if args else detail)


class CurveError(Exception):
    """Base class for curve ingestion and construction failures."""


class MalformedInput(CurveError):
    """The input document is not a valid curve description."""


class DegenerateCurve(CurveError):
    """Too few points, or repeated consecutive points."""


class NonGenericCurve(CurveError):
    """Triple point, tangency, overlap, or endpoint lying on a segment."""


Point = tuple[Fraction, Fraction]
Vector = tuple[int, int]  # a direction on the integer-scaled corners


def to_fraction(value) -> Fraction:
    """Convert a JSON scalar (int, decimal string, or float) exactly.  An
    exponent beyond ``sys.get_int_max_str_digits()`` (its default when that
    is unlimited) is refused: "1e100000000" would need 10^8 digits."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedInput(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        # Floats in a hand-written JSON file are almost always short
        # decimals; convert via the decimal literal to keep them exact.
        # Infinities and NaN have no exact value and are refused.
        text = repr(value) if isinstance(value, float) else value
        try:
            exponent = text.upper().partition("E")[2]
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            if exponent and abs(int(exponent)) > limit:
                raise MalformedInput(f"exponent of {value!r} exceeds {limit} in magnitude")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"cannot parse coordinate {value!r}") from exc
    raise MalformedInput(f"cannot parse coordinate {value!r}")


def load_json(doc):
    """The object a JSON str/bytes document holds; any other ``doc`` as is.

    Undecodable bytes, bad syntax and nesting too deep to parse all raise
    ``MalformedInput``.
    """
    if not isinstance(doc, (str, bytes)):
        return doc
    try:
        return json.loads(doc)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


_DECIMAL = re.compile(r"-?[0-9]+")


def decimal_int(tok) -> int:
    """An int as is, or the int an ASCII decimal string ``-?[0-9]+`` spells:
    the one reader of face ids and letters.  What else ``int()`` reads,
    such as "+1", " 1", "1_0" or non-ASCII digits, raises ``ValueError``."""
    if isinstance(tok, str) and _DECIMAL.fullmatch(tok):
        return int(tok)
    if isinstance(tok, int) and not isinstance(tok, bool):
        return tok
    raise ValueError(f"not an int or an ASCII decimal integer: {tok!r}")


def parse_weights(raw) -> dict[int, Fraction]:
    """The ``{"<face-id>": w}`` object of a curve or word document; two
    keys that read as one face id, such as "1" and "01", are refused."""
    if not isinstance(raw, dict):
        raise MalformedInput("'weights' must be an object")
    weights = {}
    for key, val in raw.items():
        try:
            fid = decimal_int(key)
        except ValueError as exc:
            raise MalformedInput(f"bad face id {key!r}") from exc
        if fid in weights:
            raise MalformedInput(f"'weights' names face {fid} twice")
        try:
            w = to_fraction(val)
        except MalformedInput as exc:
            raise MalformedInput(f"bad weight {val!r} for face {fid}") from exc
        if w < 0:
            raise MalformedInput(f"negative weight for face {fid}")
        weights[fid] = w
    return weights


_CHUNK = 10 ** 600


def int_str(n: int) -> str:
    """The decimal digits of ``n`` at any length.  ``str`` refuses more than
    ``sys.get_int_max_str_digits()`` digits, never fewer than 640, so longer
    integers are printed in chunks of 600 digits."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(600))
    return sign + str(n) + "".join(reversed(chunks))


def fraction_str(q: Fraction) -> str:
    """Serialize exactly: plain decimal when finite, else 'p/q'."""
    q = Fraction(q)
    num, d = q.numerator, q.denominator
    # d = 2^a * 5^b  <=>  q has a finite decimal expansion, of max(a, b) digits.
    n, exp = d, 0
    for p in (2, 5):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        exp = max(exp, k)
    if n != 1:
        return f"{int_str(num)}/{int_str(d)}"
    if d == 1:
        return int_str(num)
    digits = int_str(abs(num) * (10 ** exp // d)).rjust(exp + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


def point_str(p: Point) -> str:
    """A point as '(x, y)', each coordinate through ``fraction_str``."""
    return f"({fraction_str(p[0])}, {fraction_str(p[1])})"


# ---------------------------------------------------------------------------
# primitive geometry


def _cross(a: Point | Vector, b: Point | Vector) -> Fraction | int:
    return a[0] * b[1] - a[1] * b[0]


def _half(w: Vector) -> int:
    """0 for a direction angle in [0, pi), 1 for [pi, 2pi)."""
    if w[1] > 0 or (w[1] == 0 and w[0] > 0):
        return 0
    return 1


# ---------------------------------------------------------------------------
# curve ingestion


class _UnitWeights:
    """``PlaneCurve.weights`` that weighs every bounded face 1, whatever its id."""

    def __repr__(self) -> str:
        return "UNIT_WEIGHTS"


UNIT_WEIGHTS = _UnitWeights()


@dataclass(frozen=True)
class PlaneCurve:
    """A closed polyline, traversed in point order, closed implicitly.

    ``weights`` overrides the area of the faces it names, or is
    ``UNIT_WEIGHTS``; None keeps every face's area."""

    points: tuple[Point, ...]
    weights: Optional[Mapping[int, Fraction] | _UnitWeights] = None

    def __post_init__(self):
        # ints and floats become exact Fractions, as parse_curve makes them
        points = tuple((to_fraction(x), to_fraction(y)) for x, y in self.points)
        object.__setattr__(self, "points", points)
        n = len(points)
        if n < 3:
            raise DegenerateCurve(f"need at least 3 points, got {n}")
        for i in range(n):
            if points[i] == points[(i + 1) % n]:
                raise DegenerateCurve(f"repeated consecutive point at index {i}")


def parse_curve(doc) -> PlaneCurve:
    """Parse a curve document: a JSON string/bytes or an already-loaded dict.

    Schema: ``{"points": [[x, y], ...]}`` with coordinates given as exact
    decimal strings, integers, or rational strings like "1/3"; optionally
    ``{"weights": {"<face-id>": w}}`` overriding geometric face areas.
    """
    doc = load_json(doc)
    if not isinstance(doc, dict) or "points" not in doc:
        raise MalformedInput("curve document must be an object with a 'points' field")
    raw = doc["points"]
    if not isinstance(raw, list):
        raise MalformedInput("'points' must be a list")
    pts = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise MalformedInput(f"bad point entry {entry!r}")
        pts.append((to_fraction(entry[0]), to_fraction(entry[1])))
    weights = None if doc.get("weights") is None else parse_weights(doc["weights"])
    return PlaneCurve(points=tuple(pts), weights=weights)


# ---------------------------------------------------------------------------
# arrangement data model


class FaceWeights(Mapping[int, Fraction]):
    """A read-only face id -> weight mapping that keeps its integer scale.

    The weights are nonnegative ``Fraction``s (others are converted;
    a negative one raises ``ValueError``).  ``scale`` is derived from them
    on first use and kept, so every measure and word over one mapping
    shares it.  Equality and repr are those of a plain dict.
    """

    __slots__ = ("_weights", "_scale")

    def __init__(self, weights: Mapping[int, Fraction] = ()):
        w = dict(weights)
        for f, q in w.items():
            if not isinstance(q, Fraction):
                q = w[f] = Fraction(q)
            if q.numerator < 0:
                raise ValueError(f"negative weight for face {f}")
        self._weights = w
        self._scale: Optional[tuple[int, dict[int, int]]] = None

    @property
    def scale(self) -> tuple[int, dict[int, int]]:
        """(D, {face: weight * D}), D the least common denominator of the
        weights, derived on first use and kept."""
        if self._scale is None:
            D = common_denominator(self._weights.values())
            self._scale = D, {f: q.numerator * (D // q.denominator)
                              for f, q in self._weights.items()}
        return self._scale

    def __getitem__(self, f: int) -> Fraction:
        return self._weights[f]

    def __iter__(self) -> Iterator[int]:
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, f) -> bool:
        return f in self._weights

    def keys(self):
        return self._weights.keys()

    def items(self):
        return self._weights.items()

    def values(self):
        return self._weights.values()

    def __repr__(self) -> str:
        return repr(self._weights)


@dataclass
class Edge:
    id: int
    v_from: Optional[int]  # None only for the crossing-free loop
    v_to: Optional[int]
    geometry: tuple[Point, ...]  # oriented along the traversal
    directions: tuple[Vector, ...]  # of the segment under each straight piece
    left_face: int = -1
    right_face: int = -1


@dataclass
class Vertex:
    id: int
    point: Point
    # outgoing dart ids in ccw order, from the first pass's outgoing dart
    darts_ccw: tuple[int, ...] = ()


@dataclass
class Face:
    id: int
    boundary: tuple[int, ...]  # cycle of dart ids with this face on the left
    signed_area: Fraction
    unbounded: bool
    winding: int = 0
    depth: int = -1
    parent: Optional[tuple[int, int]] = None  # (face, edge) it was first reached through


@dataclass
class Arrangement:
    curve: PlaneCurve
    vertices: list[Vertex]
    edges: list[Edge]  # edge t is traversal step t
    faces: list[Face]
    # per vertex: the two traversal indices at which the curve leaves it
    vertex_passes: dict[int, tuple[int, int]] = field(default_factory=dict)
    # per face: (neighbor face, edge id) pairs in ascending edge id order
    dual: list[list[tuple[int, int]]] = field(default_factory=list)
    # per bounded face: 1 under unit weights, else the override weight if
    # given, else the area; resolved once by ``build_arrangement``
    face_weights: FaceWeights = field(default_factory=FaceWeights)

    @property
    def traversal(self) -> range:
        """The curve as a cyclic dart sequence: step t is dart 2t, edge t forwards."""
        return range(0, 2 * len(self.edges), 2)

    def dart_tail(self, d: int) -> Optional[int]:
        e = self.edges[d >> 1]
        return e.v_to if d & 1 else e.v_from

    def dart_geometry(self, d: int) -> tuple[Point, ...]:
        g = self.edges[d >> 1].geometry
        return tuple(reversed(g)) if d & 1 else g


# ---------------------------------------------------------------------------
# intersection finding


def common_denominator(fractions: Iterable[Fraction]) -> int:
    """The least common denominator of ``fractions``; 1 when there are none.

    The distinct denominators are combined by pairwise lcms in a balanced
    tree, so each lcm joins two operands of about the same size, instead of
    one growing product meeting every denominator in turn.
    """
    dens = list({q.denominator for q in fractions})
    while len(dens) > 1:
        odd = dens[-1:] if len(dens) % 2 else []
        # lcm(a, b) = a (b / gcd(a, b)), and b / gcd(a, b) is the reduced
        # denominator of a / b
        dens = [a * Fraction(a, b).denominator for a, b in zip(dens[::2], dens[1::2])] + odd
    return dens[0] if dens else 1


def _integer_segments(points: Sequence[Point]) -> tuple[int, list[Vector], list[Vector]]:
    """(D, corners, directions): the corners times D, the least common
    denominator of their coordinates, and segment i's direction
    corners[i + 1] - corners[i].  Scaling by D > 0 keeps every sign."""
    D = common_denominator(q for p in points for q in p)
    corners = [(x.numerator * (D // x.denominator), y.numerator * (D // y.denominator))
               for x, y in points]
    n = len(corners)
    dirs = [(corners[(i + 1) % n][0] - x, corners[(i + 1) % n][1] - y)
            for i, (x, y) in enumerate(corners)]
    return D, corners, dirs


# a crossing point (X, Y, q), q > 0, stands for (X / (q D), Y / (q D))
Scaled = tuple[int, int, int]
# (order key of the parameter on the segment, (i, j) of the two segments
# i < j, point)
Hit = tuple[int, tuple[int, int], Scaled]


def _point(P: Scaled, D: int) -> Point:
    """The crossing point ``P`` in the curve's coordinates."""
    X, Y, q = P
    return Fraction(X, q * D), Fraction(Y, q * D)


def _segment_intersections(D: int, corners: Sequence[Vector], dirs: Sequence[Vector]
                           ) -> list[list[Hit]]:
    """Per segment index, its crossings sorted by parameter.

    Segment i runs from corners[i] along dirs[i] (``_integer_segments``).
    A pair is judged by the signs of four integer cross products; the two
    parameters' order keys and the scaled point are computed only where
    the segments meet, and both segments' hits share the pair and the
    point.  Three segments through one point give one of them two hits
    at the same parameter.  Raises NonGenericCurve on non-general position.
    """
    n = len(corners)
    hits: list[list[Hit]] = [[] for _ in range(n)]
    # per segment: the order key of every parameter hit so far
    params: list[set[int]] = [set() for _ in range(n)]
    # A parameter t = o / d in (0, 1), d > 0, is keyed floor(t K).  Every
    # d is |r x s| for two directions, at most B = 2 M^2 with M the largest
    # |direction component|.  Two distinct parameters a/b and c/d of one
    # segment differ by at least 1/(b d) >= 1/B^2, so with K = B^2 their
    # scaled values differ by at least 1 and their floors differ in the
    # same order; equal parameters get equal keys.
    M = max(max(abs(x), abs(y)) for x, y in dirs)
    K = (2 * M * M) ** 2

    for i in range(n):
        (ax, ay), (rx, ry) = corners[i], dirs[i]
        for j in range(i + 1, n):
            (cx, cy), (sx, sy) = corners[j], dirs[j]
            # sides of segment j's ends against the line of segment i
            denom = rx * sy - ry * sx
            o1 = rx * (cy - ay) - ry * (cx - ax)
            o2 = o1 + denom
            if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
                continue
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if o1 == 0 and o2 == 0:
                # Collinear.  Segments sharing a corner overlap only by
                # doubling back; others whenever their spans meet.
                dot = rx * sx + ry * sy
                if adjacent:
                    overlap = dot < 0
                else:
                    tc = rx * (cx - ax) + ry * (cy - ay)
                    overlap = min(tc, tc + dot) <= rx * rx + ry * ry and max(tc, tc + dot) >= 0
                if overlap:
                    raise NonGenericCurve(f"segments {i} and {j} overlap along a line")
                continue
            if adjacent:
                continue  # two lines through the shared corner meet only there
            # sides of segment i's ends against the line of segment j
            o3 = sx * (ay - cy) - sy * (ax - cx)
            o4 = o3 - denom
            if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
                continue
            # a + t r with t = o3 / denom, and c + u s with u = -o1 / denom
            sign = 1 if denom > 0 else -1
            q = sign * denom
            P = (sign * (ax * denom + o3 * rx), sign * (ay * denom + o3 * ry), q)
            if not (o1 and o2 and o3 and o4):
                raise NonGenericCurve(
                    f"endpoint contact between segments {i} and {j} at {point_str(_point(P, D))}")
            tk, uk = sign * o3 * K // q, -sign * o1 * K // q
            if tk in params[i] or uk in params[j]:
                raise NonGenericCurve(f"three or more segments meet at {point_str(_point(P, D))}")
            params[i].add(tk)
            params[j].add(uk)
            pair = (i, j)
            hits[i].append((tk, pair, P))
            hits[j].append((uk, pair, P))

    for h in hits:
        h.sort()  # by the keys alone: a segment's keys are distinct
    return hits


# ---------------------------------------------------------------------------
# arrangement construction


def build_arrangement(curve: PlaneCurve) -> Arrangement:
    D, corners, dirs = _integer_segments(curve.points)
    hits = _segment_intersections(D, corners, dirs)
    # Flatten the crossings into traversal order: (segment, pair, point).
    visits = [(i, pair, P) for i, h in enumerate(hits) for _, pair, P in h]
    arr = _crossing_arrangement(curve, D, corners, dirs, visits)
    bounded = arr.faces[1:]
    if curve.weights is UNIT_WEIGHTS:
        arr.face_weights = FaceWeights({f.id: Fraction(1) for f in bounded})
        return arr
    named = curve.weights or {}
    unknown = sorted(set(named) - set(range(1, len(arr.faces))))
    if unknown:
        raise MalformedInput(f"weights name faces the curve does not bound: {unknown}")
    arr.face_weights = FaceWeights({f.id: named.get(f.id, f.signed_area) for f in bounded})
    return arr


def _crossing_arrangement(curve: PlaneCurve, D: int, corners: Sequence[Vector],
                          dirs: Sequence[Vector],
                          visits: Sequence[tuple[int, tuple[int, int], Scaled]]) -> Arrangement:
    pts = curve.points
    n = len(pts)
    m = len(visits)
    # cross(corner s, corner s + 1): the shoelace term of segment s
    spans = [_cross(corners[s], corners[(s + 1) % n]) for s in range(n)]

    # Vertex ids by first encounter along the traversal.  The pass "at"
    # vertex v is the traversal index of the edge leaving v; each segment
    # pair is visited once from each of its segments.
    vid_of: dict[tuple[int, int], int] = {}
    vids = [vid_of.setdefault(pair, len(vid_of)) for _, pair, _ in visits]
    passes: list[list[int]] = [[] for _ in vid_of]
    for k, v in enumerate(vids):
        passes[v].append(k)
    vertices = [Vertex(id=v, point=_point(visits[a][2], D)) for v, (a, _) in enumerate(passes)]

    # Edges: arcs between consecutive crossings, carrying the corner points;
    # a crossing-free curve is one closed edge.  Each edge's signed area
    # about the origin is one integer shoelace sum over the scaled points:
    # q1 q2 D^2 times twice the area, for crossings P1 and P2 at its ends,
    # kept as (sum, q1 q2) over the common 2 D^2.
    edges = [] if m else [Edge(id=0, v_from=None, v_to=None, geometry=(*pts, pts[0]),
                               directions=tuple(dirs))]
    edge_areas = [] if m else [(sum(spans), 1)]
    for k in range(m):
        si, _, (x1, y1, q1) = visits[k]
        sj, _, (x2, y2, q2) = visits[(k + 1) % m]
        # the segments after si up to sj, cyclically; each starts at a corner
        passed = [s % n for s in range(si + 1, si + 1 + (sj - si) % n)]
        if passed:
            (ax, ay), (bx, by) = corners[passed[0]], corners[passed[-1]]
            num = ((x1 * ay - y1 * ax) * q2 + (bx * y2 - by * x2) * q1
                   + sum(spans[s] for s in passed[:-1]) * q1 * q2)
        else:
            num = x1 * y2 - y1 * x2
        edge_areas.append((num, q1 * q2))
        edges.append(Edge(id=k, v_from=vids[k], v_to=vids[(k + 1) % m],
                          geometry=(vertices[vids[k]].point, *(pts[s] for s in passed),
                                    vertices[vids[(k + 1) % m]].point),
                          directions=(dirs[si], *(dirs[s] for s in passed))))

    # Rotation system.  Dart 2e walks edge e forwards and its twin 2e + 1
    # backwards.  A crossing lies inside one segment of each pass, so pass a
    # leaves along u and arrives along u, and pass b along w; the outgoing
    # darts turn ccw as u, w, -u, -w when u x w > 0, else as u, -w, -u, w.
    for v, (a, b) in zip(vertices, passes):
        a_out, a_back = 2 * a, 2 * ((a - 1) % m) + 1
        b_out, b_back = 2 * b, 2 * ((b - 1) % m) + 1
        if _cross(dirs[visits[a][0]], dirs[visits[b][0]]) > 0:
            v.darts_ccw = (a_out, b_out, a_back, b_back)
        else:
            v.darts_ccw = (a_out, b_back, a_back, b_out)

    arr = Arrangement(
        curve=curve,
        vertices=vertices,
        edges=edges,
        faces=[],
        vertex_passes={v: (a, b) for v, (a, b) in enumerate(passes)},
    )

    _trace_faces(arr, edge_areas, 2 * D * D)
    _compute_windings_and_depths(arr)
    _check_invariants(arr)
    return arr


def _trace_faces(arr: Arrangement, edge_areas: Sequence[tuple[int, int]], unit: int) -> None:
    """Faces from the boundary cycles of the darts, over the rotation
    system (``Vertex.darts_ccw``).  Edge e's signed area is
    ``edge_areas[e] = (num, q)`` standing for num / (q unit)."""
    edges = arr.edges
    # next_left[d]: the next dart along the face to the left of d; the
    # crossing-free loop bounds each face alone
    next_left = list(range(2 * len(edges)))
    for v in arr.vertices:
        ccw = v.darts_ccw
        for k in range(4):
            next_left[ccw[k] ^ 1] = ccw[k - 1]
    cycles: list[list[int]] = []
    cycle_of = [-1] * len(next_left)
    for d0 in (*range(0, len(next_left), 2), *range(1, len(next_left), 2)):
        if cycle_of[d0] >= 0:
            continue
        cyc = []
        d = d0
        while cycle_of[d] < 0:
            cycle_of[d] = len(cycles)
            cyc.append(d)
            d = next_left[d]
        cycles.append(cyc)

    # Each edge's area counts for the cycle on its left and, walked
    # backwards, against the cycle on its right.  A cycle's area is
    # nums[c] / (dens[c] unit), left unreduced; dens[c] > 0.
    nums = [0] * len(cycles)
    dens = [1] * len(cycles)
    for e, (num, q) in enumerate(edge_areas):
        c = cycle_of[2 * e]
        nums[c] = nums[c] * q + num * dens[c]
        dens[c] *= q
        c = cycle_of[2 * e + 1]
        nums[c] = nums[c] * q - num * dens[c]
        dens[c] *= q
    negatives = [c for c, num in enumerate(nums) if num < 0]
    check(len(negatives) == 1, "arrangement",
          "exactly one boundary cycle bounds the unbounded face")

    # Face ids by first encounter along the traversal (left, then right:
    # dart ids in order), with the unbounded face pinned at id 0.
    order = dict.fromkeys([negatives[0], *cycle_of])
    check(len(order) == len(cycles), "arrangement", "every boundary cycle must meet the curve")

    fid_of_cycle = [0] * len(cycles)
    faces: list[Face] = []
    for fid, ci in enumerate(order):
        fid_of_cycle[ci] = fid
        faces.append(Face(id=fid, boundary=tuple(cycles[ci]),
                          signed_area=Fraction(nums[ci], dens[ci] * unit),
                          unbounded=(fid == 0)))
    arr.faces = faces
    arr.dual = [[] for _ in faces]
    for e in edges:
        e.left_face = fid_of_cycle[cycle_of[2 * e.id]]
        e.right_face = fid_of_cycle[cycle_of[2 * e.id + 1]]
        arr.dual[e.left_face].append((e.right_face, e.id))
        arr.dual[e.right_face].append((e.left_face, e.id))


def _compute_windings_and_depths(arr: Arrangement) -> None:
    """One BFS over the dual graph from the unbounded face (winding 0).

    The frontier is explored in ascending face id, and each face's
    neighbors in ascending edge id; the first discovery fixes a face's
    depth (its BFS level) and its cotree parent, which is thus the
    smallest-id face of the level above joined to it, through the smallest
    edge id between the two.  Crossing an edge from its right face to its
    left face raises the winding by one, so the BFS tree edges fix every
    winding and the remaining edges check the same relation.
    """
    faces, edges = arr.faces, arr.edges
    faces[0].depth = 0
    frontier = [0]
    while frontier:
        nxt = []
        for fid in frontier:
            here = faces[fid]
            for nb, eid in arr.dual[fid]:
                face = faces[nb]
                if face.depth == -1:
                    face.depth = here.depth + 1
                    face.winding = here.winding + (1 if edges[eid].right_face == fid else -1)
                    face.parent = (fid, eid)
                    nxt.append(nb)
        frontier = sorted(nxt)
    for e in edges:
        check(faces[e.left_face].winding == faces[e.right_face].winding + 1, "arrangement",
              "edge %d: winding must drop by one from left to right", e.id)


def _check_invariants(arr: Arrangement) -> None:
    V = len(arr.vertices)
    E = len(arr.edges)
    F = len(arr.faces)
    if V:  # the crossing-free loop is graph-theoretically special
        check(V - E + F == 2, "arrangement", "Euler relation failed: %d-%d+%d", V, E, F)
    for face in arr.faces:
        check(abs(face.winding) <= face.depth or face.unbounded, "arrangement",
              "face %d: |winding| %d exceeds depth %d", face.id, face.winding, face.depth)
    check(arr.faces[0].depth == 0 and arr.faces[0].winding == 0, "arrangement",
          "the unbounded face must have depth 0 and winding 0")


# ---------------------------------------------------------------------------
# face measures and rotation number


def face_measures(arr: Arrangement) -> dict:
    """The winding area and the depth area of the bounded faces, summed
    as ints over the weights' scale (``FaceWeights.scale``)."""
    D, scaled = arr.face_weights.scale
    area_w = sum(abs(f.winding) * scaled[f.id] for f in arr.faces[1:])
    area_d = sum(f.depth * scaled[f.id] for f in arr.faces[1:])
    return {"area_w": Fraction(area_w, D), "area_d": Fraction(area_d, D)}


def rotation_number(curve: PlaneCurve) -> int:
    """Total turning of the tangent, in full turns, counted exactly."""
    return turning_of_directions(_integer_segments(curve.points)[2])


def turn(u: Vector, v: Vector) -> Optional[int]:
    """What one step from direction u to direction v adds to the rotation
    number: the term ``turning_of_directions`` sums; None for a reversal
    (v opposite to u), which has no turning direction."""
    hu = _half(u)
    if hu == _half(v):
        return 0
    c = _cross(u, v)
    if c == 0:
        return None
    if c > 0 and hu == 1:
        return 1
    if c < 0 and hu == 0:
        return -1
    return 0


def turning_of_directions(dirs: Sequence[Vector]) -> int:
    """Rotation number of a closed direction sequence (one entry per
    straight piece, in traversal order), counted exactly.

    Each step from u to the next direction v turns by less than half a
    turn, towards the side the sign of u x v names.  The count is +1 for
    each left turn that carries the angle past 0 (v before u in [0, 2pi))
    and -1 for each right turn that does.  Such a step always moves
    between the half-planes [0, pi) and [pi, 2pi), so only those steps need
    a cross product: a left turn from the lower half to the upper one
    counts +1, a right turn from the upper half to the lower one -1.  A
    reversal (v opposite to u) has no turning direction and is rejected.
    """
    turns = 0
    n = len(dirs)
    for i in range(n):
        t = turn(dirs[i], dirs[(i + 1) % n])
        if t is None:
            raise NonGenericCurve(f"the curve reverses its direction after piece {i}")
        turns += t
    return turns


# ---------------------------------------------------------------------------
# tree / cotree


@dataclass
class TreeCotree:
    cotree: frozenset[int]    # primal edge ids; duals span the dual graph
    parent_edge: dict[int, int]   # face id -> cotree edge id toward the root
    parent_face: dict[int, int]   # face id -> parent face id
    # per face id: the cotree edges to its children in ccw boundary order,
    # from just after its parent edge (from its boundary's start for face 0)
    children: list[tuple[int, ...]]


def tree_cotree(arr: Arrangement,
                prefer: Optional[Mapping[int, int]] = None) -> TreeCotree:
    """BFS spanning tree of the dual rooted at the unbounded face.

    Reads the parents that the arrangement's dual BFS fixed: the frontier
    explores neighbor faces in ascending face id, and among parallel edges
    between the same two faces the smallest edge id wins.  ``prefer`` may
    pin the parent edge of individual faces to another edge joining them
    to a face one level shallower (useful to reproduce specific
    hand-drawn cable systems).  Each face's boundary is walked once for
    its children.
    """
    parent = {f.id: f.parent for f in arr.faces[1:]}
    for fid, eid in (prefer or {}).items():
        if fid not in parent:
            continue
        for nb, e in arr.dual[fid]:
            if e == eid and arr.faces[nb].depth == arr.faces[fid].depth - 1:
                parent[fid] = (nb, e)
    parent_face = {f: p[0] for f, p in parent.items()}
    parent_edge = {f: p[1] for f, p in parent.items()}
    cotree = frozenset(parent_edge.values())
    children = []
    for f in arr.faces:
        cycle = [d >> 1 for d in f.boundary]
        own = parent_edge.get(f.id)
        if own is not None:
            k = cycle.index(own) + 1
            cycle = cycle[k:] + cycle[:k]
        # every cotree edge of the boundary but the face's own parent edge
        # is the parent edge of the face across it
        children.append(tuple(e for e in cycle if e in cotree and e != own))
    return TreeCotree(cotree=cotree, parent_edge=parent_edge, parent_face=parent_face,
                      children=children)
