import contextlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from curvefold import arrangement
from curvefold.arrangement import CurveError, PlaneCurve, build_arrangement, parse_curve
from curvefold.words import face_word

CURVES_DIR = pathlib.Path(__file__).resolve().parent.parent / "curves"

CORPUS = sorted(p.stem for p in CURVES_DIR.glob("*.json"))


def load_curve(name: str):
    with open(CURVES_DIR / f"{name}.json") as fh:
        return parse_curve(json.load(fh))


_cache = {}


def pipeline(name: str):
    """(curve, arrangement, tree-cotree, cables, blank word), cached."""
    if name not in _cache:
        curve = load_curve(name)
        cables, word = face_word(curve)
        _cache[name] = (curve, cables.arr, cables.tc, cables, word)
    return _cache[name]


def random_generic_polygon(rng, corners: int, span: int = 10 ** 4, q: int = 1):
    """(curve, arrangement) of a random polygon, drawn again until it is
    generic (only transverse crossings, no corner on another segment).
    Each coordinate is an integer in [-span, span], divided, when q > 1,
    by its own denominator drawn from 1..q."""
    def coordinate():
        p = rng.randint(-span, span)
        return Fraction(p, rng.randint(1, q)) if q > 1 else Fraction(p)

    while True:
        pts = tuple((coordinate(), coordinate()) for _ in range(corners))
        try:
            curve = PlaneCurve(pts)
            return curve, build_arrangement(curve)
        except CurveError:
            continue


# (seed, corners) of the random polygons the oracle tests run on
RANDOM_POLYGONS = [(seed, 8 + seed % 9) for seed in range(24)]


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Allow only ``frames`` more stack frames than the caller has, and
    restore the interpreter's recursion limit afterwards."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def unit_weights(word):
    return word.with_weights({f: Fraction(1) for f in word.weights})


def cyclic_equal(a, b) -> bool:
    """Are the letters of b a rotation of the letters of a?"""
    return len(a) == len(b) and (len(a) == 0 or any(
        a.rotate(k).letters == b.letters for k in range(len(a))))


def equal_up_to_relabeling(a, b) -> bool:
    """Does some rotation plus face bijection carry a onto b, sign-exact?"""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    for k in range(len(a)):
        fwd: dict = {}
        bwd: dict = {}
        if all(sa == sb and fwd.setdefault(fa, fb) == fb and bwd.setdefault(fb, fa) == fa
               for (fa, sa), (fb, sb) in zip(a.rotate(k).letters, b.letters)):
            return True
    return False


def face_counts(word, f: int) -> tuple[int, int]:
    """(signed, unsigned) occurrence counts of face f in the word."""
    signs = [s for g, s in word.letters if g == f]
    return sum(signs), len(signs)


@pytest.fixture
def builds(monkeypatch):
    """The curves an arrangement is constructed from.  ``build_arrangement``
    returns the live arrangement of a curve it has built, so constructions
    are counted at the private builder, not calls."""
    made = []
    construct = arrangement._build_arrangement

    def counted(curve):
        made.append(curve)
        return construct(curve)

    monkeypatch.setattr(arrangement, "_build_arrangement", counted)
    return made


@pytest.fixture(params=CORPUS)
def corpus_name(request):
    return request.param
