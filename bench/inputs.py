"""Seeded input generators and the per-round make-up of every workload.

A run is a sequence of rounds; round ``r`` of a workload is drawn from
``random.Random(f"{workload}/{seed}/{r}")``, so the same seed gives the same
inputs and every round has the same make-up (the strata below), whatever
the seed.  Sizes are fixed per stratum so that a round costs about the
same on every seed; only the shapes, letters and weights are random.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import checkers

COORD = 10 ** 6

# op_p50_s is the median operation of a run.  Each round puts three
# operations of one middle size between the smaller and the larger ones,
# so that the median is taken over three operations per round instead of
# one; a single middle operation made it swing with the seed (its cost
# varies by 10-20 % from draw to draw).

# curve-pipeline: (corners, crossings, rotation number 1?).  About one random
# polygon in five has rotation 1, the case in which ``is_self_overlapping``
# builds the arrangement a second time; two strata of seven pin it.  The
# rotation number and the crossing count always differ in parity.
CURVE_STRATA = [(12, 12, False), (14, 18, True), (18, 30, False), (18, 30, False),
                (18, 30, False), (20, 38, True), (24, 57, False)]

# decompose: (corners, crossings).  The unlinked-subset search grows
# exponentially with the crossings, so the band stops at 16.
DECOMPOSE_STRATA = [(12, 12), (13, 14), (13, 14), (13, 14), (14, 16)]

# long-words: (length, faces, kind).  "nested" words are products of nested
# conjugates, so pairings nest deeply; "nested+" has positive cores and is
# positively foldable.
WORD_STRATA = [(120, 8, "random"), (210, 20, "random"), (210, 20, "nested"),
               (210, 20, "nested+"), (300, 30, "nested")]

# cli-mix: per round one corpus curve under every command with area weights
# and one generated curve under every command with area and with unit weights.
CLI_COMMANDS = ["analyze", "word", "norm", "selfoverlap", "decompose", "homotopy", "render"]
CLI_GENERATED = (10, 8)          # corners, crossings
CURVES_DIR = Path(__file__).resolve().parent.parent / "curves"
CORPUS = sorted(p.stem for p in CURVES_DIR.glob("*.json"))


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def draw_curve(rng: random.Random, corners: int, crossings: int | None = None,
               rotation_one: bool | None = None) -> list[tuple[int, int]]:
    """A generic integer polygon, redrawn until it has the asked-for
    crossing count and (if given) rotation number 1 or not 1."""
    while True:
        pts = [(rng.randint(-COORD, COORD), rng.randint(-COORD, COORD)) for _ in range(corners)]
        if rotation_one is not None and (checkers.rotation_number(pts) == 1) != rotation_one:
            continue
        try:
            found = checkers.crossings(pts)
        except checkers.NotGeneric:
            continue
        if crossings is None or len(found) == crossings:
            return pts


def curve_json(points) -> str:
    return json.dumps({"points": [list(p) for p in points]})


def random_letters(rng: random.Random, length: int, faces: int) -> list[tuple[int, int]]:
    return [(rng.randint(1, faces), rng.choice((1, -1))) for _ in range(length)]


def nested_letters(rng: random.Random, length: int, faces: int, positive: bool) -> list[tuple[int, int]]:
    """A product of nested conjugates a w a^-1 of total ``length`` letters.

    With ``positive`` every letter outside the conjugating pairs is
    positive, so the word folds positively.
    """
    if length == 0:
        return []
    if length == 1:
        return [(rng.randint(1, faces), 1 if positive else rng.choice((1, -1)))]
    if rng.random() < 0.6:
        a = (rng.randint(1, faces), rng.choice((1, -1)))
        inner = nested_letters(rng, length - 2, faces, positive)
        return [a] + inner + [(a[0], -a[1])]
    cut = rng.randint(1, length - 1)
    return nested_letters(rng, cut, faces, positive) + nested_letters(rng, length - cut, faces, positive)


def random_weights(rng: random.Random, faces: int) -> dict[str, str]:
    return {str(f): f"{rng.randint(1, 60)}/{rng.randint(1, 12)}" for f in range(1, faces + 1)}


def curve_round(seed: int, r: int) -> list[dict]:
    rng = round_rng("curve-pipeline", seed, r)
    out = []
    for corners, crossings, rot_one in CURVE_STRATA:
        pts = draw_curve(rng, corners, crossings, rot_one)
        out.append({"points": pts, "crossings": crossings, "json": curve_json(pts)})
    return out


def decompose_round(seed: int, r: int) -> list[dict]:
    rng = round_rng("decompose", seed, r)
    out = []
    for corners, crossings in DECOMPOSE_STRATA:
        pts = draw_curve(rng, corners, crossings)
        out.append({"points": pts, "crossings": crossings, "json": curve_json(pts)})
    return out


def _word_doc(rng: random.Random, length: int, faces: int, kind: str) -> dict:
    if kind == "random":
        letters = random_letters(rng, length, faces)
    else:
        letters = nested_letters(rng, length, faces, positive=kind == "nested+")
    used = sorted({f for f, _ in letters})
    f, g, h = rng.sample(used, 3)
    return {"letters": letters, "weights": random_weights(rng, faces), "kind": kind,
            "switch": (f, g), "twist": (f, g, [(h, rng.choice((1, -1)))])}


def word_round(seed: int, r: int) -> list[dict]:
    rng = round_rng("long-words", seed, r)
    return [_word_doc(rng, length, faces, kind) for length, faces, kind in WORD_STRATA]


def small_words(seed: int, r: int, count: int = 4) -> list[dict]:
    """The side sample checked against the exhaustive norm."""
    rng = round_rng("long-words/small", seed, r)
    out = []
    for _ in range(count):
        faces = rng.randint(2, 4)
        length = rng.randint(6, 12)
        kind = rng.choice(("random", "nested"))
        letters = (random_letters(rng, length, faces) if kind == "random"
                   else nested_letters(rng, length, faces, positive=False))
        out.append({"letters": letters, "weights": random_weights(rng, faces)})
    return out


def cli_round(seed: int, r: int) -> list[dict]:
    rng = round_rng("cli-mix", seed, r)
    corners, crossings = CLI_GENERATED
    generated = draw_curve(rng, corners, crossings)
    name = CORPUS[r % len(CORPUS)]
    out = [{"command": c, "curve": name, "weights": "area",
            "json": (CURVES_DIR / f"{name}.json").read_text()} for c in CLI_COMMANDS]
    for weights in ("area", "unit"):
        out += [{"command": c, "curve": f"generated-{r}", "weights": weights,
                 "points": generated, "crossings": crossings, "json": curve_json(generated)}
                for c in CLI_COMMANDS]
    return out


ROUNDS = {
    "curve-pipeline": curve_round,
    "long-words": word_round,
    "decompose": decompose_round,
    "cli-mix": cli_round,
}


def to_fraction_weights(weights: dict[str, str]) -> dict[int, Fraction]:
    return {int(f): Fraction(w) for f, w in weights.items()}
