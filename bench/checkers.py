"""Independent checkers for the benchmark, sharing no code with curvefold.

Everything here is exact and built from scratch on Python integers (and
``Fraction`` only where a crossing point or a weight is rational), so a
check compares the program against a second computation, never against a
stored copy of an earlier output:

* ``crossings``: all-pairs integer crossing finder that also rejects
  non-generic polygons; the generators use it to draw generic curves and
  curves with a given crossing count;
* ``shoelace2``: twice the signed area of a polygon;
* ``rotation_number``: the exact tangent turning number, counted as the
  signed passes of the edge direction through the positive x axis;
* ``folding_area``: validates a folding (inverse letters, disjoint
  positions, pairwise unlinked) and returns its unpaired weight;
* ``exhaustive_norm``: minimum unpaired weight over every folding of a
  word of at most 12 letters, by plain enumeration of matchings.

Letters are ``(face, sign)`` pairs and weights map a face to a rational.
"""

from __future__ import annotations

from fractions import Fraction


class NotGeneric(Exception):
    """The polygon has a triple point, a touching, an overlap or a repeat."""


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _between(a, b, p) -> bool:
    """Is p, known to be collinear with a and b, on the closed segment ab?"""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def crossings(points) -> list[tuple[int, int, tuple[Fraction, Fraction]]]:
    """Every transverse self-crossing as (segment i, segment j, point), i < j.

    Raises ``NotGeneric`` unless all crossings are transverse, pairwise
    distinct and away from the corners, and consecutive segments meet
    only at their shared corner.
    """
    n = len(points)
    if n < 3:
        raise NotGeneric("fewer than three corners")
    segs = [(points[i], points[(i + 1) % n]) for i in range(n)]
    for a, b in segs:
        if a == b:
            raise NotGeneric("repeated consecutive corner")
    out = []
    seen: set[tuple[Fraction, Fraction]] = set()
    for i in range(n):
        a, b = segs[i]
        for j in range(i + 1, n):
            c, d = segs[j]
            if j == i + 1 or (i == 0 and j == n - 1):
                # consecutive: only a reversal of direction makes them share
                # more than their corner
                p, q, r = (a, b, d) if j == i + 1 else (c, a, b)
                u = (q[0] - p[0], q[1] - p[1])
                v = (r[0] - q[0], r[1] - q[1])
                if u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] < 0:
                    raise NotGeneric(f"segments {i} and {j} fold back")
                continue
            o1, o2 = _orient(a, b, c), _orient(a, b, d)
            o3, o4 = _orient(c, d, a), _orient(c, d, b)
            if ((o1 == 0 and _between(a, b, c)) or (o2 == 0 and _between(a, b, d))
                    or (o3 == 0 and _between(c, d, a)) or (o4 == 0 and _between(c, d, b))):
                raise NotGeneric(f"segments {i} and {j} touch")
            if (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
                t = Fraction(o3, o3 - o4)
                pt = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                if pt in seen:
                    raise NotGeneric(f"three segments meet at {pt}")
                seen.add(pt)
                out.append((i, j, pt))
    if not out and shoelace2(points) == 0:
        raise NotGeneric("simple loop with zero area")
    return out


def shoelace2(points) -> int:
    """Twice the signed area enclosed by the closed polygon."""
    n = len(points)
    return sum(points[i][0] * points[(i + 1) % n][1] - points[(i + 1) % n][0] * points[i][1]
               for i in range(n))


def _upper(v) -> bool:
    """Direction angle in [0, pi)."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _angle_less(u, v) -> bool:
    """angle(u) < angle(v), both measured in [0, 2 pi)."""
    hu, hv = _upper(u), _upper(v)
    if hu != hv:
        return hu
    return u[0] * v[1] - u[1] * v[0] > 0


def rotation_number(points) -> int:
    """Turning number of the closed polygon, exact.

    Each corner turns the edge direction by less than half a turn, towards
    the side the cross product names; count +1 each time a left turn
    wraps the angle past 0 and -1 each time a right turn does.
    """
    n = len(points)
    dirs = [(points[(i + 1) % n][0] - points[i][0], points[(i + 1) % n][1] - points[i][1])
            for i in range(n)]
    turns = 0
    for i in range(n):
        u, v = dirs[i], dirs[(i + 1) % n]
        side = u[0] * v[1] - u[1] * v[0]
        if side > 0 and _angle_less(v, u):
            turns += 1
        elif side < 0 and _angle_less(u, v):
            turns -= 1
    return turns


def _linked(p, q) -> bool:
    a, b = sorted(p)
    return (a < q[0] < b) != (a < q[1] < b)


def folding_area(letters, weights, pairs) -> Fraction:
    """Validate a folding of the cyclic word and return its unpaired weight.

    ``pairs`` is an iterable of position pairs.  Raises ``CheckFailed`` when
    a pair does not hold a letter and its inverse, a position is used
    twice, or two pairs interleave around the cycle.
    """
    m = len(letters)
    pairs = [tuple(p) for p in pairs]
    used: set[int] = set()
    for i, j in pairs:
        check(0 <= i < m and 0 <= j < m and i != j, f"pair {(i, j)} out of range")
        (f, s), (g, t) = letters[i], letters[j]
        check(f == g and s == -t, f"pair {(i, j)} does not hold inverse letters")
        check(i not in used and j not in used, f"pair {(i, j)} reuses a position")
        used.update((i, j))
    ordered = sorted(tuple(sorted(p)) for p in pairs)
    # laminar check: scanning left to right, every pair must close the
    # innermost pair still open
    ends = {}
    for i, j in ordered:
        ends[i] = j
    stack: list[int] = []
    for x in range(m):
        while stack and stack[-1] < x:
            stack.pop()
        if x in ends:
            check(not stack or ends[x] < stack[-1], f"pair at {x} interleaves another")
            stack.append(ends[x])
    return sum((weights[letters[x][0]] for x in range(m) if x not in used), Fraction(0))


def positive_residue(letters, pairs) -> bool:
    """Are all letters left unpaired positive?"""
    used = {x for p in pairs for x in p}
    return all(letters[x][1] > 0 for x in range(len(letters)) if x not in used)


def exhaustive_norm(letters, weights, cap: int = 12) -> Fraction:
    """Minimum unpaired weight over every set of pairwise unlinked pairings.

    Enumerates all partial matchings of letters with later inverse
    letters, discarding a pairing as soon as it interleaves one already
    chosen.  Exponential; only for words of at most ``cap`` letters.
    """
    m = len(letters)
    if m > cap:
        raise ValueError(f"word of {m} letters exceeds the cap {cap}")
    best = [sum((weights[f] for f, _ in letters), Fraction(0))]

    def walk(pos: int, taken: frozenset, chosen: list, cost: Fraction) -> None:
        if pos == m:
            best[0] = min(best[0], cost)
            return
        if pos in taken:
            walk(pos + 1, taken, chosen, cost)
            return
        f, s = letters[pos]
        walk(pos + 1, taken, chosen, cost + weights[f])
        for q in range(pos + 1, m):
            if q in taken or letters[q] != (f, -s):
                continue
            if any(_linked((pos, q), c) for c in chosen):
                continue
            chosen.append((pos, q))
            walk(pos + 1, taken | {q}, chosen, cost)
            chosen.pop()

    walk(0, frozenset(), [], Fraction(0))
    return best[0]


def cyclic_equal(a, b) -> bool:
    """Are the two letter sequences equal up to rotation?"""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    return not a or any(b[k:] + b[:k] == a for k in range(len(b)))


def signed_counts(letters) -> dict[int, tuple[int, int]]:
    """Per face: (signed, unsigned) number of occurrences."""
    out: dict[int, tuple[int, int]] = {}
    for f, s in letters:
        signed, unsigned = out.get(f, (0, 0))
        out[f] = (signed + s, unsigned + 1)
    return out
