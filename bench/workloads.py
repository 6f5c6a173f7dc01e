"""One operation per workload, and the checks of its outputs.

Operations call curvefold only through module attributes, so the tracer's
wrappers see every call.  Checks run outside the timed region and compare
each output with the independent computations in ``checkers`` or with a
property the method must have.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import checkers
from checkers import check
from inputs import CURVES_DIR, to_fraction_weights
from probe import ROOT, arrangement, cli, decomposition, folding, transforms, words

MODULES = {"arrangement": arrangement, "words": words, "folding": folding,
           "transforms": transforms, "decomposition": decomposition, "cli": cli}


def _pairs(folding_obj) -> list[tuple[int, int]]:
    return [(p.i, p.j) for p in folding_obj.pairings]


def _valid_area(word, folding_obj) -> Fraction:
    return checkers.folding_area(word.letters, word.weights, _pairs(folding_obj))


# ---------------------------------------------------------------------------
# curve-pipeline


def curve_op(text: str, item: dict) -> dict:
    curve = arrangement.parse_curve(text)
    arr = arrangement.build_arrangement(curve)
    measures = arrangement.face_measures(arr)
    rotation = arrangement.rotation_number(curve)
    tc = arrangement.tree_cotree(arr)
    cables = words.build_cable_system(arr, tc)
    blank = words.blank_word(arr, cables)
    nie = words.nie_word(arr, tc, words.derive_flattening(cables))
    combined = words.combined_word(arr, cables)
    norm, witness = folding.cancellation_norm(blank)
    trace = decomposition.homotopy_trace(witness)
    verdict, cert = folding.is_self_overlapping(curve)
    return {"arr": arr, "measures": measures, "rotation": rotation, "blank": blank,
            "nie": nie, "combined": combined, "norm": norm, "witness": witness,
            "trace": trace, "verdict": verdict, "cert": cert}


def curve_check(text: str, item: dict, out: dict) -> None:
    pts = item["points"]
    arr = out["arr"]
    V, F = len(arr.vertices), len(arr.faces)
    check(V == item["crossings"], f"{V} crossings, expected {item['crossings']}")
    check(F == V + 2, f"F={F} but V={V}")
    bounded = arr.faces[1:]
    check(2 * sum(f.winding * f.signed_area for f in bounded) == checkers.shoelace2(pts),
          "sum of winding * area differs from the shoelace area")
    counts = checkers.signed_counts(out["blank"].letters)
    for f in bounded:
        check(counts.get(f.id, (0, 0)) == (f.winding, f.depth),
              f"face {f.id}: letter counts {counts.get(f.id)} vs winding/depth")
    check(checkers.cyclic_equal(out["blank"].letters, out["nie"].letters),
          "blank and nie words differ")
    check(checkers.cyclic_equal(out["blank"].letters, out["combined"].face_letters()),
          "combined word's letters differ from the blank word")
    rotation = checkers.rotation_number(pts)
    check(out["rotation"] == rotation, f"rotation {out['rotation']}, expected {rotation}")
    m = out["measures"]
    check(m["area_w"] <= out["norm"] <= m["area_d"], "norm outside [winding area, depth area]")
    check(_valid_area(out["blank"], out["witness"]) == out["norm"], "witness area differs from norm")
    check(out["trace"].total_area == out["norm"], "trace total differs from norm")
    if out["verdict"]:
        cert = out["cert"]
        check(rotation == 1, "self-overlapping verdict with rotation != 1")
        _valid_area(cert["word"], cert["witness"])
        check(checkers.positive_residue(cert["word"].letters, _pairs(cert["witness"])),
              "positive witness leaves a negative letter")


# ---------------------------------------------------------------------------
# long-words


def word_op(word, item: dict) -> dict:
    norm, witness = folding.cancellation_norm(word)
    positive, pos_witness = folding.positively_foldable(word)
    trace = decomposition.homotopy_trace(witness)
    f, g = item["switch"]
    switched = transforms.switch_adjacent(word, f, g)
    moved = transforms.transport_folding_switch(word, switched, witness, f, g)
    i, j, bundle = item["twist"]
    bundle = [tuple(l) for l in bundle]
    twisted = transforms.dehn_twist(word, i, j, bundle)
    carried = transforms.transport_folding_twist(word, twisted, witness, i, j, bundle)
    back = transforms.back_transport_twist(word, twisted, carried, i, j, bundle)
    switched_norm, _ = folding.cancellation_norm(switched)
    return {"norm": norm, "witness": witness, "positive": positive, "pos_witness": pos_witness,
            "trace": trace, "switched": switched, "moved": moved, "twisted": twisted,
            "carried": carried, "back": back, "switched_norm": switched_norm}


def word_check(word, item: dict, out: dict) -> None:
    norm = out["norm"]
    check(_valid_area(word, out["witness"]) == norm, "witness area differs from norm")
    floor = sum(abs(s) * word.weights[f] for f, (s, _) in checkers.signed_counts(word.letters).items())
    check(norm >= floor, "norm below sum of |signed count| * weight")
    check(out["trace"].total_area == norm, "trace total differs from norm")
    check(out["switched_norm"] == norm, "switch_adjacent changed the norm")
    check(_valid_area(out["switched"], out["moved"]) == norm, "switch transport changed the area")
    check(_valid_area(out["twisted"], out["carried"]) == norm, "twist transport changed the area")
    check(_valid_area(word, out["back"]) <= norm, "back-transport increased the area")
    if item["kind"] == "nested+":
        check(out["positive"], "a word with positive cores was not positively foldable")
    if out["positive"]:
        _valid_area(word, out["pos_witness"])
        check(checkers.positive_residue(word.letters, _pairs(out["pos_witness"])),
              "positive witness leaves a negative letter")


def small_word_check(item: dict) -> None:
    weights = to_fraction_weights(item["weights"])
    letters = tuple(tuple(l) for l in item["letters"])
    value, _ = folding.cancellation_norm(words.CyclicWord(letters, weights))
    check(value == checkers.exhaustive_norm(letters, weights),
          f"norm of {letters} differs from the exhaustive norm")


# ---------------------------------------------------------------------------
# decompose


def decompose_op(curve, item: dict) -> dict:
    sod = decomposition.min_area_sod(curve)
    fold = decomposition.sod_to_folding(curve, sod)
    trace = decomposition.homotopy_trace(fold)
    return {"sod": sod, "folding": fold, "trace": trace}


def _chords(points) -> dict:
    """Crossing point -> its two positions along the traversal."""
    occurrences = []
    n = len(points)
    for i, j, pt in checkers.crossings(points):
        for s in (i, j):
            a, b = points[s], points[(s + 1) % n]
            d = (b[0] - a[0], b[1] - a[1])
            t = ((pt[0] - a[0]) * d[0] + (pt[1] - a[1]) * d[1]) / Fraction(d[0] * d[0] + d[1] * d[1])
            occurrences.append(((s, t), pt))
    occurrences.sort()
    chords: dict = {}
    for k, (_, pt) in enumerate(occurrences):
        chords.setdefault(pt, []).append(k)
    return chords


def _piece_polygon(arr, piece) -> list:
    pts = []
    for e in piece.entries:
        check(e.dart is not None and not e.partial, "smoothing produced a cut piece")
        pts.extend(arr.dart_geometry(arr.traversal[e.dart])[:-1])
    return pts


def decompose_check(curve, item: dict, out: dict) -> None:
    sod, fold = out["sod"], out["folding"]
    norm, _ = folding.cancellation_norm(fold.word)
    check(sod.area == norm, "decomposition area differs from the norm")
    arr = sod.subcurves[0].arr
    chords = _chords(item["points"])
    smoothed = [chords[arr.vertices[v].point] for v in sod.vertex_pairs]
    for a in range(len(smoothed)):
        for b in range(a + 1, len(smoothed)):
            (p, q), (r, s) = smoothed[a], smoothed[b]
            check((p < r < q) == (p < s < q), "smoothed crossings are linked")
    total2 = 0
    for piece in sod.subcurves:
        polygon = _piece_polygon(arr, piece)
        rotation = checkers.rotation_number(polygon)
        check(abs(rotation) == 1, "piece with rotation other than +-1")
        # The piece's letters may hold cancelling pairs of both signs, since
        # the cables are routed for the whole curve; its net letter count per
        # face, the winding of an immersed disk boundary, has one sign.
        counts = checkers.signed_counts(piece.letters())
        check(all(c * rotation >= 0 for c, _ in counts.values()),
              "piece winds around faces with both signs")
        piece2 = 2 * sum(c * piece.weights[f] for f, (c, _) in counts.items())
        check(piece2 == checkers.shoelace2(polygon), "piece's winding area differs from its shoelace area")
        total2 += piece2
    check(total2 == checkers.shoelace2(item["points"]), "pieces' winding areas do not sum to the curve's")
    check(_valid_area(fold.word, fold) == sod.area, "sod_to_folding changed the area")
    check(out["trace"].total_area == sod.area, "trace total differs from the decomposition area")


# ---------------------------------------------------------------------------
# cli-mix


def corpus_table() -> dict[str, tuple[int, int]]:
    """(crossings, rotation) per corpus curve, from the hand-written README."""
    table = {}
    for line in (CURVES_DIR / "README.md").read_text().splitlines():
        m = re.match(r"\|\s*`(\w+)\.json`\s*\|\s*(\d+)\s*\|\s*([−-]?\d+)\s*\|", line)
        if m:
            table[m.group(1)] = (int(m.group(2)), int(m.group(3).replace("−", "-")))
    return table


def cli_args(item: dict, path: str) -> list[str]:
    return [item["command"], "--input", path, "--weights", item["weights"]]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(item: dict, path: str, env: dict) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "curvefold.cli", *cli_args(item, path)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout


def _word_letters(doc) -> tuple:
    return tuple((abs(int(t)), 1 if int(t) > 0 else -1) for t in doc["word"])


def _folding_area(doc) -> Fraction:
    """Validate the printed witness against the printed word and weights."""
    return checkers.folding_area(_word_letters(doc["word"]), to_fraction_weights(doc["word"]["weights"]),
                                 doc["witness"]["pairings"])


class CliChecker:
    """Checks one round of CLI outputs; norm and decompose of a curve are
    compared with each other, so a round's state is kept per curve."""

    def __init__(self):
        self.corpus = corpus_table()
        self.norms: dict = {}

    def __call__(self, item: dict, code: int, stdout: str) -> None:
        check(code == 0, f"{item['command']} on {item['curve']} exited with {code}")
        key = (item["curve"], item["weights"])
        command = item["command"]
        if command == "render":
            check(ET.fromstring(stdout).tag.endswith("svg"), "render did not print an svg element")
            return
        doc = json.loads(stdout)
        points = [tuple(Fraction(str(c)) for c in p) for p in json.loads(item["json"])["points"]]
        if command == "analyze":
            expected = self.corpus.get(item["curve"]) or (item["crossings"], checkers.rotation_number(points))
            check((doc["vertices"], doc["rotation_number"]) == expected,
                  f"analyze of {item['curve']}: {doc['vertices']}, {doc['rotation_number']} vs {expected}")
            check(2 * sum(f["winding"] * Fraction(f["area"]) for f in doc["faces"])
                  == checkers.shoelace2(points), "analyze faces break the shoelace identity")
        elif command == "word":
            blank = _word_letters(doc["blank_word"])
            check(checkers.cyclic_equal(blank, _word_letters(doc["nie_word"])), "blank and nie words differ")
        elif command == "norm":
            check(_folding_area(doc) == Fraction(doc["norm"]) == Fraction(doc["witness"]["area"]),
                  "norm witness area differs from the norm")
            self.norms[key] = Fraction(doc["norm"])
        elif command == "selfoverlap" and doc["self_overlapping"]:
            check(checkers.rotation_number(points) == 1, "self-overlapping with rotation != 1")
            _folding_area(doc)
            check(checkers.positive_residue(_word_letters(doc["word"]), doc["witness"]["pairings"]),
                  "positive witness leaves a negative letter")
        # a failed norm command leaves nothing to compare with
        elif command == "decompose" and key in self.norms:
            check(Fraction(doc["area"]) == self.norms[key], "decompose area differs from the norm")
        elif command == "homotopy":
            check(Fraction(doc["total_area"]) == Fraction(doc["norm"]) == self.norms.get(key, Fraction(doc["norm"])),
                  "homotopy total differs from the norm")


# workload -> (operation, check); both take the prepared object and the item
LIBRARY = {
    "curve-pipeline": (curve_op, curve_check),
    "long-words": (word_op, word_check),
    "decompose": (decompose_op, decompose_check),
}
