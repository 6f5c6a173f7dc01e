"""Property tests of the command-line contract on documents near the
schema's edges: every command exits 0 or 2, and an exit-2 output is the
error object alone.

Curves have at most 8 corners, so each run stays small; the slow inputs
(long words, many crossings) are not this file's concern.
"""

import json
import os
import random
import tempfile
from fractions import Fraction

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from curvefold.arrangement import MalformedInput
from curvefold.cli import main
from curvefold.words import CyclicWord, parse_word

MAX_CORNERS = 8
MAX_DIGITS = 3000       # JSON ints past 4 300 digits are refused as invalid JSON


def _variants(command) -> list[list[str]]:
    """The command's argument lists: none, then each on/off flag alone
    (``--oracle``, ``--decomposition``)."""
    flags = [p.opts[0] for p in command.params if p.is_flag and not p.secondary_opts]
    return [[]] + [[flag] for flag in flags]


RUNS = [[name, *extra, "--weights", mode]
        for name, command in sorted(main.commands.items())
        for extra in _variants(command)
        for mode in ("area", "unit", "file")]


# ---------------------------------------------------------------------------
# numbers


def _written(g: int, scale: tuple[str, int, int]):
    """The grid value ``g`` times 10^exponent / divisor, as the schema
    writes it: a JSON int, a decimal string with an exponent, or a "p/q"
    string."""
    form, exponent, divisor = scale
    value = g * Fraction(10) ** exponent / divisor
    if form == "int" and value.denominator == 1:
        return value.numerator
    if form == "exp" and divisor == 1:
        return f"{g}e{exponent}"
    return f"{value.numerator}/{value.denominator}"


JUNK = st.one_of(
    st.sampled_from(["1/0", "1/-2", "1e99999999", "-1e-99999999", "0x10", "1_000",
                     " 3 ", "nan", "Infinity", "", "--1", "1//2"]),
    st.floats(), st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
    st.booleans(), st.none(),
)


@st.composite
def scales(draw):
    """(form, exponent, divisor) of the corners' coordinates: grid values
    are scaled, so that a few thousand digits still give repeated,
    collinear and touching corners."""
    form = draw(st.sampled_from(["int", "exp", "frac"]))
    exponent = draw(st.sampled_from([0, 1, 40]) | st.integers(-MAX_DIGITS, MAX_DIGITS))
    divisor = 1
    if form == "frac":
        divisor = draw(st.sampled_from([1, 3, 7 ** 300]) | st.integers(1, 10 ** 6))
    return form, exponent, divisor


@st.composite
def corners(draw):
    """Up to MAX_CORNERS corners, scaled and written out: uniform points
    of a wide grid, most of them generic with a few crossings; distinct
    points Hypothesis draws there, often on a common line; or picks with
    repeats from a few points of a small grid, mostly repeated, collinear
    or touching.  At most one coordinate is junk."""
    kind = draw(st.sampled_from(["uniform", "wide", "small"]))
    if kind == "uniform":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        grid = [(rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 4, 10 ** 4))
                for _ in range(MAX_CORNERS - draw(st.integers(0, MAX_CORNERS - 3)))]
    elif kind == "wide":
        wide = st.integers(-10 ** 4, 10 ** 4)
        grid = draw(st.lists(st.tuples(wide, wide), min_size=3, max_size=MAX_CORNERS,
                             unique=True))
    else:
        small = st.integers(-4, 4)
        pool = draw(st.lists(st.tuples(small, small), min_size=1, max_size=MAX_CORNERS))
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=MAX_CORNERS)
        grid = [pool[i] for i in draw(picks)]
    scale = draw(scales())
    points = [[_written(c, scale) for c in corner] for corner in grid]
    for k in draw(st.sets(st.integers(0, 2 * len(points) - 1), max_size=1)):
        points[k // 2][k % 2] = draw(JUNK)
    return points


FACE_IDS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["01", " 1", "1 ", "+2", "1_0", "1.0", "", "one", "9" * 60, "1e1"]),
)
WEIGHT_VALUES = st.one_of(
    st.sampled_from([0, "0", "0/5", 1, "7/2", "2.5e-3", -1, "-1/2", "1/0"]),
    st.integers(0, 10 ** MAX_DIGITS),
    st.builds(lambda n, e: f"{n}e{e}", st.integers(0, 99), st.integers(-MAX_DIGITS, MAX_DIGITS)),
    JUNK,
)
WEIGHTS = st.one_of(
    st.dictionaries(FACE_IDS, WEIGHT_VALUES, max_size=5),
    st.dictionaries(st.integers(1, 6).map(str), st.integers(0, 10 ** 6), max_size=6),
    st.dictionaries(st.integers(1, 3).map(str), st.sampled_from(["0", "1/3", "2.5", 7]),
                    max_size=3),
    JUNK,
)


@st.composite
def curve_documents(draw) -> bytes:
    """The bytes of a curve file: mostly a curve document, now and then
    another JSON value or bytes that are no JSON at all."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(st.binary(max_size=40))
    if shape == 1:
        return json.dumps(draw(JUNK | st.fixed_dictionaries({"points": JUNK}))).encode()
    doc = {"points": draw(corners())}
    if draw(st.booleans()):
        doc["weights"] = draw(WEIGHTS)
    return json.dumps(doc).encode()


# ---------------------------------------------------------------------------
# the properties


def _check(args: list[str], raw: bytes, res) -> None:
    where = f"curvefold {' '.join(args)} on {raw[:300]!r}"
    assert res.exit_code in (0, 2), f"{where}: exit {res.exit_code}, {res.exception!r}"
    if res.exit_code == 2:
        doc = json.loads(res.output)
        assert list(doc) == ["error"] and sorted(doc["error"]) == ["code", "message"], where
        assert all(isinstance(v, str) and v for v in doc["error"].values()), where
    elif args[0] != "render":
        assert "error" not in json.loads(res.output), where


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=curve_documents())
def test_every_command_exits_0_or_2_with_a_named_error(raw):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        for args in RUNS:
            res = runner.invoke(main, [*args, "--input", path])
            _check(args, raw, res)


LETTERS = st.one_of(
    st.integers(-6, 6), st.integers(-6, 6).map(str),
    st.sampled_from(["01", " 2", "+3", "1_0", "1.0", "one", "", "9" * 5000, "-0"]),
    st.integers(-10 ** MAX_DIGITS, 10 ** MAX_DIGITS),
    JUNK,
)


@st.composite
def word_documents(draw):
    """A word document as a dict, a JSON string or bytes."""
    doc = {"word": draw(st.lists(LETTERS, max_size=8) | JUNK)}
    if draw(st.booleans()):
        doc["weights"] = draw(WEIGHTS)
    form = draw(st.sampled_from(["dict", "str", "bytes", "junk"]))
    if form == "junk":
        return draw(JUNK | st.binary(max_size=40))
    if form == "dict":
        return doc
    text = json.dumps(doc)
    return text if form == "str" else text.encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=word_documents())
def test_parse_word_returns_a_word_or_raises_malformed_input(doc):
    try:
        word = parse_word(doc)
    except MalformedInput:
        return
    assert isinstance(word, CyclicWord)
