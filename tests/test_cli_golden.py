"""Default stdout of every command, pinned by SHA-256 digest.

Each case runs one command in-process through click's ``CliRunner`` on
one corpus curve and compares the exit code and the digest of stdout
with ``cli_golden.json``: all seven commands with ``--weights area`` and
``--weights unit``, plus ``render --format json --decomposition`` and
``norm --oracle``.  A refactor that keeps behaviour keeps every digest.

When an output change is intended, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import pathlib

import pytest
from click.testing import CliRunner

from conftest import CORPUS, CURVES_DIR
from curvefold.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

COMMANDS = ("analyze", "word", "norm", "selfoverlap", "decompose", "homotopy", "render")


def cases() -> list[tuple[str, ...]]:
    """(curve name, command and options...) of every pinned run."""
    out = []
    for name in CORPUS:
        for command in COMMANDS:
            for weights in ("area", "unit"):
                out.append((name, command, "--weights", weights))
        out.append((name, "render", "--format", "json", "--decomposition"))
        out.append((name, "norm", "--oracle"))
    return out


def key(case: tuple[str, ...]) -> str:
    return " ".join(case)


def run(case: tuple[str, ...]) -> dict:
    name, command, *options = case
    res = CliRunner().invoke(main, [command, "--input", str(CURVES_DIR / f"{name}.json"), *options])
    return {"exit_code": res.exit_code, "sha256": hashlib.sha256(res.stdout_bytes).hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(key(c) for c in cases())


@pytest.mark.parametrize("case", cases(), ids=key)
def test_stdout_matches_golden_digest(case, golden):
    assert run(case) == golden[key(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(c): run(c) for c in cases()}, indent=1, sort_keys=True) + "\n")
