"""Tests of the benchmark's own checkers and generators.

    python3 -m pytest bench
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checkers
import inputs
from workloads import corpus_table

HERE = Path(__file__).resolve().parent
TABLE = corpus_table()


def corpus_points(name):
    doc = json.loads((inputs.CURVES_DIR / f"{name}.json").read_text())
    return [tuple(Fraction(str(c)) for c in p) for p in doc["points"]]


def test_readme_table_lists_the_whole_corpus():
    assert sorted(TABLE) == inputs.CORPUS and len(TABLE) == 9


@pytest.mark.parametrize("name", inputs.CORPUS)
def test_crossings_and_rotation_match_the_hand_written_table(name):
    crossings, rotation = TABLE[name]
    pts = corpus_points(name)
    assert len(checkers.crossings(pts)) == crossings
    assert checkers.rotation_number(pts) == rotation
    assert checkers.rotation_number(pts[::-1]) == -rotation


def test_shoelace_of_known_polygons():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert checkers.shoelace2(square) == 32
    assert checkers.shoelace2(square[::-1]) == -32
    assert checkers.shoelace2([(0, 0), (3, 0), (0, 5)]) == 15
    # the lobes of a figure eight cancel
    assert checkers.shoelace2([(0, 0), (2, 2), (2, 0), (0, 2)]) == 0


@pytest.mark.parametrize("points", [
    [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)],               # repeated corner
    [(0, 0), (4, 0), (2, 0), (2, 3)],                       # folds back on itself
    [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],               # corner on a segment
    [(0, 0), (6, 6), (6, 0), (0, 6), (3, 0), (3, 7)],       # three segments through (3, 3)
    [(0, 0), (4, 0), (4, 2), (1, 0), (0, 3)],               # overlap along a line
])
def test_non_generic_polygons_are_rejected(points):
    with pytest.raises(checkers.NotGeneric):
        checkers.crossings(points)


def test_crossing_points_are_exact():
    found = checkers.crossings([(0, 0), (3, 2), (3, 0), (0, 1)])
    assert found == [(0, 2, (Fraction(1), Fraction(2, 3)))]


def test_rotation_of_a_double_loop_and_a_figure_eight():
    assert checkers.rotation_number([(0, 0), (2, 2), (2, 0), (0, 2)]) == 0
    spiral = corpus_points("spiral")
    assert checkers.rotation_number(spiral) == 3


def test_draw_curve_meets_its_targets():
    rng = random.Random(7)
    for corners, crossings, rot_one in inputs.CURVE_STRATA[:3]:
        pts = inputs.draw_curve(rng, corners, crossings, rot_one)
        assert len(pts) == corners
        assert len(checkers.crossings(pts)) == crossings
        assert (checkers.rotation_number(pts) == 1) == rot_one


def test_rounds_depend_only_on_the_seed():
    assert inputs.word_round(3, 1) == inputs.word_round(3, 1)
    assert inputs.word_round(3, 1) != inputs.word_round(4, 1)


W = {1: Fraction(1), 2: Fraction(3), 3: Fraction(1, 2)}


def test_folding_area_accepts_a_valid_folding():
    letters = [(1, 1), (2, 1), (2, -1), (1, -1), (3, 1)]
    assert checkers.folding_area(letters, W, [(0, 3), (1, 2)]) == Fraction(1, 2)
    assert checkers.folding_area(letters, W, []) == Fraction(17, 2)


@pytest.mark.parametrize("pairs", [
    [(0, 1)],               # not inverse letters
    [(0, 3), (3, 0)],       # a position used twice
    [(0, 2), (1, 3)],       # interleaving pairs
    [(0, 7)],               # out of range
])
def test_folding_area_rejects_invalid_foldings(pairs):
    letters = [(1, 1), (2, 1), (1, -1), (2, -1)]
    with pytest.raises(checkers.CheckFailed):
        checkers.folding_area(letters, W, pairs)


def test_interleaving_is_cyclic():
    letters = [(1, 1), (2, 1), (1, -1), (3, 1), (2, -1)]
    with pytest.raises(checkers.CheckFailed):
        checkers.folding_area(letters, W, [(0, 2), (1, 4)])
    # nesting across the cut at position 0 is fine
    letters = [(2, -1), (1, 1), (1, -1), (2, 1)]
    assert checkers.folding_area(letters, W, [(0, 3), (1, 2)]) == 0


def test_exhaustive_norm_on_hand_examples():
    assert checkers.exhaustive_norm([(1, 1), (1, -1)], W) == 0
    # 1 2 1^-1 2^-1: the two pairings interleave, so only the heavier pairs
    assert checkers.exhaustive_norm([(1, 1), (2, 1), (1, -1), (2, -1)], W) == 2
    assert checkers.exhaustive_norm([(1, 1), (1, 1)], W) == 2
    assert checkers.exhaustive_norm([], W) == 0
    with pytest.raises(ValueError):
        checkers.exhaustive_norm([(1, 1)] * 13, W)


def test_exhaustive_norm_is_invariant_under_rotation_and_inversion():
    rng = random.Random(11)
    for _ in range(40):
        item = inputs.small_words(rng.randrange(10 ** 6), 0, count=1)[0]
        letters = [tuple(l) for l in item["letters"]]
        weights = inputs.to_fraction_weights(item["weights"])
        value = checkers.exhaustive_norm(letters, weights)
        k = rng.randrange(len(letters))
        assert checkers.exhaustive_norm(letters[k:] + letters[:k], weights) == value
        inverse = [(f, -s) for f, s in reversed(letters)]
        assert checkers.exhaustive_norm(inverse, weights) == value


def test_cyclic_equal_and_signed_counts():
    assert checkers.cyclic_equal([(1, 1), (2, -1), (3, 1)], [(3, 1), (1, 1), (2, -1)])
    assert not checkers.cyclic_equal([(1, 1), (2, -1)], [(2, 1), (1, 1)])
    assert checkers.signed_counts([(1, 1), (1, -1), (1, 1), (2, -1)]) == {1: (1, 3), 2: (-1, 1)}


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("correct=True") == 8
