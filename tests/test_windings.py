"""Windings, dual adjacency and cotree against independent brute force.

The library sets windings, depths and cotree parents by one BFS over the
dual graph.  The oracles here compute each face's winding from the geometry
alone (an exact point inside the face, and a ray cast from it against every
sub-segment), and run the dual BFS a second time, over a brute edge scan,
to get each face's level and cotree parent.
"""

import random
from fractions import Fraction
from typing import Optional

import pytest

from conftest import CORPUS, RANDOM_POLYGONS, pipeline, random_generic_polygon
from curvefold.arrangement import Arrangement, Face, Point, _cross, tree_cotree


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _dot(a: Point, b: Point) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _all_subsegments(arr: Arrangement) -> list[tuple[Point, Point]]:
    out = []
    for e in arr.edges:
        g = e.geometry
        for i in range(len(g) - 1):
            out.append((g[i], g[i + 1]))
    return out


def _interior_point(arr: Arrangement, face: Face) -> Point:
    """An exact point strictly inside the (bounded) face.

    Take the midpoint m of the first geometric sub-segment of the face's
    first boundary dart, push it into the face along the left normal, and
    stop well before the ray out of m hits anything else.
    """
    d = min(face.boundary)  # smallest edge, forwards first
    g = arr.dart_geometry(d)
    a, b = g[0], g[1]
    m = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    dv = _sub(b, a)
    nrm = (-dv[1], dv[0])  # left normal: points into the face on d's left

    t_min: Optional[Fraction] = None
    for (c, dpt) in _all_subsegments(arr):
        if (c, dpt) == (a, b) or (c, dpt) == (b, a):
            continue
        s = _sub(dpt, c)
        denom = _cross(nrm, s)
        if denom == 0:
            if _cross(_sub(c, m), s) == 0:
                # collinear with the ray: hits at the endpoint parameters
                for q in (c, dpt):
                    dq = _sub(q, m)
                    if _dot(dq, nrm) > 0:
                        t = _dot(dq, nrm) / _dot(nrm, nrm)
                        if t > 0 and (t_min is None or t < t_min):
                            t_min = t
            continue
        # solve m + t*nrm = c + u*s exactly
        u = _cross(_sub(m, c), nrm) / _cross(s, nrm)
        t = _cross(_sub(c, m), s) / _cross(nrm, s)
        if 0 <= u <= 1 and t > 0:
            if t_min is None or t < t_min:
                t_min = t
    assert t_min is not None, "a bounded face must enclose the ray"
    delta = t_min / 2
    return (m[0] + delta * nrm[0], m[1] + delta * nrm[1])


def _winding_at(arr: Arrangement, p: Point) -> int:
    """Winding number of the curve about p by exact signed ray casting."""
    segs = _all_subsegments(arr)
    corners = set()
    for (a, b) in segs:
        corners.add(a)
        corners.add(b)

    def candidates():
        yield (Fraction(1), Fraction(0))
        yield (Fraction(0), Fraction(1))
        for k in range(1, 200):
            yield (Fraction(1), Fraction(1, k))
            yield (Fraction(1), Fraction(-1, k))

    ray = None
    for cand in candidates():
        if all(not (_cross(_sub(q, p), cand) == 0 and _dot(_sub(q, p), cand) > 0)
               for q in corners):
            ray = cand
            break
    assert ray is not None, "no generic ray direction found"

    wind = 0
    for (a, b) in segs:
        d = _sub(b, a)
        denom = _cross(ray, d)
        if denom == 0:
            continue
        # Solve p + t*ray = a + s*d exactly.
        s = _cross(_sub(p, a), ray) / _cross(d, ray)
        t = _cross(_sub(a, p), d) / _cross(ray, d)
        if 0 < s < 1 and t > 0:
            wind += 1 if denom > 0 else -1
    return wind


def _scan_dual_neighbors(arr: Arrangement, fid: int) -> list[tuple[int, int]]:
    out = []
    for e in arr.edges:
        if e.left_face == fid:
            out.append((e.right_face, e.id))
        elif e.right_face == fid:
            out.append((e.left_face, e.id))
    return out


def _bfs_cotree(arr: Arrangement, prefer: dict[int, int]):
    """(level, parent) per face by a dual BFS: the frontier in ascending face
    id, neighbors in ascending (face id, edge id), the first discovery wins,
    and a preferred edge from a face one level up replaces it."""
    level, parent = {0: 0}, {}
    frontier = [0]
    while frontier:
        nxt = []
        for fid in frontier:
            for nb, eid in sorted(_scan_dual_neighbors(arr, fid)):
                if nb not in level:
                    level[nb] = level[fid] + 1
                    parent[nb] = (fid, eid)
                    nxt.append(nb)
                elif prefer.get(nb) == eid and level[nb] == level[fid] + 1:
                    parent[nb] = (fid, eid)
        frontier = sorted(nxt)
    return level, parent


def _check_against_oracles(arr: Arrangement) -> None:
    assert arr.faces[0].winding == 0
    for face in arr.faces[1:]:
        assert face.winding == _winding_at(arr, _interior_point(arr, face)), face.id
    for face in arr.faces:
        assert arr.dual[face.id] == _scan_dual_neighbors(arr, face.id), face.id
    level, _ = _bfs_cotree(arr, {})
    assert {face.id: face.depth for face in arr.faces} == level
    # pin each face to its last edge toward a shallower face, or name its last
    # edge toward a face no shallower, which the cotree must ignore
    shallower, other = {}, {}
    for face in arr.faces[1:]:
        for nb, eid in _scan_dual_neighbors(arr, face.id):
            pins = shallower if level[nb] == level[face.id] - 1 else other
            pins[face.id] = eid
    for pins in ({}, shallower, other):
        _, parent = _bfs_cotree(arr, pins)
        tc = tree_cotree(arr, pins)
        assert tc.parent_face == {f: p[0] for f, p in parent.items()}
        assert tc.parent_edge == {f: p[1] for f, p in parent.items()}


@pytest.mark.parametrize("name", CORPUS)
def test_windings_and_dual_match_oracles_on_corpus(name):
    _, arr, _, _, _ = pipeline(name)
    _check_against_oracles(arr)


@pytest.mark.parametrize("seed,corners", RANDOM_POLYGONS)
def test_windings_and_dual_match_oracles_on_random_polygons(seed, corners):
    _, arr = random_generic_polygon(random.Random(seed), corners)
    _check_against_oracles(arr)
