"""No floating point in the library.

The only place a float may appear is input: a JSON float is taken exactly
through its decimal literal, ``Fraction(repr(value))``, in ``to_fraction``.
"""

import ast
import pathlib
from fractions import Fraction

from curvefold.arrangement import to_fraction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvefold"


def test_no_module_imports_math_or_calls_float():
    float_users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] in ("math", "cmath") for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module not in ("math", "cmath"), path.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "float", f"{path.name}:{node.lineno} calls float("
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(func)):
                    float_users.add((path.name, func.name))
    assert float_users == {("arrangement.py", "to_fraction")}


def test_json_floats_are_read_through_their_decimal_literal():
    assert to_fraction(0.1) == Fraction(1, 10)
    assert to_fraction(-2.75) == Fraction(-11, 4)
