"""Invariances and cross-stage relations on curves no oracle reaches.

``norm_bruteforce`` stops at 14 letters and ``sod_oracle`` at a few
thousand vertex sets, so on seeded polygons of 20-30 corners the norm DP
checks only itself.  The minimum homotopy area is geometric: it cannot
move under a map that keeps areas and the curve's image, and the other
stages must agree with it.

* The area-weight norm is the same under a cyclic shift of the start
  corner, reversal, the mirror x -> -x, the shear (x + 3y, y) and a
  translation, and four times as large under doubling; the unit-weight
  norm is the same under all of them.
* The rotation number is the same under shift and shear, and negated
  under reversal and mirror.
* The ``is_self_overlapping`` verdict is the same under shift, shear and
  reversal after the mirror, which keeps the orientation.
* On curves of at most 12 crossings, ``min_area_sod``'s area and number
  of smoothed vertices are the same under shift, reversal and mirror.
* Winding area <= norm <= total letter weight; the norm is the winding
  area when the curve is self-overlapping; and the chosen vertex set is
  empty exactly when the curve or its reverse is self-overlapping.
"""

import functools
import random

import pytest

from conftest import CORPUS, load_curve, random_generic_polygon, unit_weights, winding_area
from curvefold.arrangement import PlaneCurve, rotation_number
from curvefold.decomposition import min_area_sod
from curvefold.folding import cancellation_norm, is_self_overlapping
from curvefold.words import face_word

MAPS = {
    "shift": lambda points: points[2:] + points[:2],
    "reverse": lambda points: points[::-1],
    "mirror": lambda points: tuple((-x, y) for x, y in points),
    "shear": lambda points: tuple((x + 3 * y, y) for x, y in points),
    "translate": lambda points: tuple((x + 7, y - 3) for x, y in points),
    "double": lambda points: tuple((2 * x, 2 * y) for x, y in points),
    "reverse-mirror": lambda points: tuple((-x, y) for x, y in points[::-1]),
}


def mapped(curve: PlaneCurve, name: str) -> PlaneCurve:
    return PlaneCurve(MAPS[name](curve.points))


@functools.cache
def large_curves() -> tuple[PlaneCurve, ...]:
    """8 seeded polygons of 20 to 30 corners."""
    return tuple(random_generic_polygon(random.Random(f"invariance-{k}"), 20 + 10 * k // 7)[0]
                 for k in range(8))


@functools.cache
def small_curves() -> tuple[PlaneCurve, ...]:
    """The corpus and those of 40 seeded 5- to 12-gons with at most 12
    crossings."""
    curves = [load_curve(name) for name in CORPUS]
    for k in range(40):
        curve, arr = random_generic_polygon(random.Random(f"invariance-small-{k}"), 5 + k % 8)
        if len(arr.vertices) <= 12:
            curves.append(curve)
    return tuple(curves)


def norm(curve: PlaneCurve, unit: bool = False):
    _, word = face_word(curve)
    return cancellation_norm(unit_weights(word) if unit else word)[0]


def test_the_curves_cover_both_verdicts_and_every_rotation_sign():
    large, small = large_curves(), small_curves()
    assert (len(large), len(small)) == (8, 45)
    rotations = [rotation_number(curve) for curve in large + small]
    verdicts = [is_self_overlapping(curve)[0] for curve in large + small]
    assert {-1, 0, 1} <= set(rotations)
    assert (rotations.count(1), verdicts.count(True)) == (13, 3)


def test_the_norm_keeps_under_maps_that_keep_areas():
    for curve in large_curves():
        value, unit = norm(curve), norm(curve, unit=True)
        for name in ("shift", "reverse", "mirror", "shear", "translate", "double"):
            image = mapped(curve, name)
            assert norm(image) == (4 * value if name == "double" else value), name
            assert norm(image, unit=True) == unit, name


def test_the_rotation_number_keeps_under_shift_and_shear_and_flips_under_reflections():
    for curve in large_curves() + small_curves():
        rot = rotation_number(curve)
        for name, sign in (("shift", 1), ("shear", 1), ("reverse", -1), ("mirror", -1)):
            assert rotation_number(mapped(curve, name)) == sign * rot, (name, curve)


def test_the_self_overlap_verdict_keeps_under_maps_that_keep_orientation():
    for curve in large_curves() + small_curves():
        verdict = is_self_overlapping(curve)[0]
        for name in ("shift", "shear", "reverse-mirror"):
            assert is_self_overlapping(mapped(curve, name))[0] == verdict, (name, curve)


def test_the_decomposition_keeps_its_area_and_size():
    for curve in small_curves():
        sod = min_area_sod(curve)
        for name in ("shift", "reverse", "mirror"):
            image = min_area_sod(mapped(curve, name))
            assert (image.area, len(image.vertex_pairs)) == (sod.area, len(sod.vertex_pairs)), (
                name, curve)


@pytest.mark.parametrize("family", ["large", "small"])
def test_the_norm_lies_between_the_winding_area_and_the_letter_weight(family):
    for curve in large_curves() if family == "large" else small_curves():
        _, word = face_word(curve)
        value = cancellation_norm(word)[0]
        wound = winding_area(word)
        assert wound <= value <= sum(word.weights[f] for f, _ in word.letters), curve
        if is_self_overlapping(curve)[0]:
            assert value == wound, curve


def test_the_decomposition_smooths_nothing_exactly_when_the_curve_is_self_overlapping():
    empty = 0
    for curve in small_curves():
        overlapping = (is_self_overlapping(curve)[0]
                       or is_self_overlapping(mapped(curve, "reverse"))[0])
        assert (not min_area_sod(curve).vertex_pairs) == overlapping, curve
        empty += overlapping
    assert empty == 5, empty
