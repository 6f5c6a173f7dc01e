"""One error model: every library invariant raises ``InvariantViolation``.

Invariants go through ``arrangement.check``, never through ``assert``,
which ``python -O`` strips.
"""

import ast
import pathlib

import pytest

from curvefold.arrangement import InvariantViolation, check

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvefold"


def test_no_module_has_an_assert_statement():
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_check_names_the_stage_and_formats_only_on_failure():
    check(True, "folding", "%d letters", "not a number")
    with pytest.raises(InvariantViolation) as info:
        check(False, "folding", "row %d of %d", 3, 7)
    assert (info.value.stage, info.value.detail) == ("folding", "row 3 of 7")
    assert str(info.value) == "folding: row 3 of 7"
