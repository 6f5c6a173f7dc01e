"""Set-up probe: import curvefold and turn one round of inputs into objects.

``run.py`` starts this file in a fresh interpreter with the first round's
inputs (already generated) as JSON on stdin and times it until the line
``ready`` arrives, which is the set-up a user pays before the first
operation.  The six modules the benchmark drives are its layers; the CLI
module pulls in click.

    python3 bench/probe.py <workload> < round.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from curvefold import arrangement, cli, decomposition, folding, transforms, words  # noqa: E402,F401


def prepare(workload: str, item: dict):
    """The program object one operation starts from.

    curve-pipeline parses its curve inside the operation and cli-mix hands
    a file to the CLI, so both start from the JSON text.
    """
    if workload == "long-words":
        weights = {int(f): Fraction(w) for f, w in item["weights"].items()}
        return words.CyclicWord(tuple(tuple(l) for l in item["letters"]), weights)
    if workload == "decompose":
        return arrangement.parse_curve(item["json"])
    return item["json"]


def main() -> None:
    workload = sys.argv[1]
    for item in json.load(sys.stdin):
        prepare(workload, item)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
