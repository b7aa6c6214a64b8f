"""No function takes an argument that its other arguments fix.

An obstruction set Omega carries its alphabet, and through it the letter
count and the weights, so no function in the package takes ``omega``
together with one of them.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncdim").glob("*.py"))
FIXED_BY_OMEGA = {"alphabet", "weights", "n_letters"}


def parameters(node):
    args = node.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}


def omega_and_what_it_fixes(path):
    """The name of every function in ``path`` that takes ``omega`` and a
    parameter of FIXED_BY_OMEGA."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "omega" in parameters(node)
        and parameters(node) & FIXED_BY_OMEGA
    ]


def test_the_guard_sees_a_redundant_parameter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def build(omega, alphabet):\n    pass\n\n"
                    "def count(omega, up_to):\n    pass\n", encoding="utf-8")
    assert omega_and_what_it_fixes(path) == ["build"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_omega_and_what_it_fixes(path):
    assert omega_and_what_it_fixes(path) == []
