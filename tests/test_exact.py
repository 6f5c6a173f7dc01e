"""No floating point in the library.

The only place a float may appear is input: a JSON float is taken exactly
through its decimal literal, ``Fraction(repr(value))``, in ``to_fraction``.
The one import from ``math`` allowed is ``gcd``, which takes and returns
ints only.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from curvefold.arrangement import to_fraction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvefold"

# the names of ``math`` that take and return ints only
INT_ONLY_MATH = {"gcd"}


def float_risks(tree: ast.AST) -> list[str]:
    """Every import of ``math`` or ``cmath`` beyond ``from math import`` of
    int-only names, and every ``float(`` call, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] in ("math", "cmath")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root == "cmath" or (root == "math" and (
                    node.module != "math" or {a.name for a in node.names} - INT_ONLY_MATH)):
                found.append(f"{node.lineno}: from {node.module} import "
                             + ", ".join(a.name for a in node.names))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"{node.lineno}: calls float(")
    return found


@pytest.mark.parametrize("source, bad", [
    ("import math", True),
    ("import math as m", True),
    ("import os, math.fake", True),
    ("import cmath", True),
    ("from math import sqrt", True),
    ("from math import gcd, sqrt", True),
    ("from math import *", True),
    ("from cmath import phase", True),
    ("from cmath import gcd", True),
    ("x = float(3)", True),
    ("def f():\n    return float('1')", True),
    ("from math import gcd", False),
    ("from math import gcd as g", False),
    ("from fractions import Fraction", False),
    ("import mathematics", False),
])
def test_float_risks_rejects_every_math_import_but_int_only_names(source, bad):
    assert bool(float_risks(ast.parse(source))) == bad, source


def test_no_module_imports_math_or_calls_float():
    float_users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert float_risks(tree) == [], path.name
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(func)):
                    float_users.add((path.name, func.name))
    assert float_users == {("arrangement.py", "to_fraction")}


def test_json_floats_are_read_through_their_decimal_literal():
    assert to_fraction(0.1) == Fraction(1, 10)
    assert to_fraction(-2.75) == Fraction(-11, 4)
