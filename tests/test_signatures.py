"""No function takes an argument that its other arguments fix, and no
record writes out the methods that ``Record`` gives it.

An obstruction set Omega carries its alphabet, and through it the letter
count and the weights, so no function in the package takes ``omega``
together with one of them.

``freealg.Record`` gives every record its equality, hash, repr, freezing
and copy, so no other class defines those methods; ``Poly`` keeps its own,
whose equality compares terms.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncdim").glob("*.py"))
FIXED_BY_OMEGA = {"alphabet", "weights", "n_letters"}
RECORD_METHODS = {"__eq__", "__repr__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}


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


def record_methods(path):
    """(class, method) for every method of RECORD_METHODS that a class in
    ``path`` other than Record and Poly defines or assigns; ``__hash__ =
    None``, which makes a record unhashable, is allowed."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name in ("Record", "Poly"):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                unhashable = isinstance(item.value, ast.Constant) and item.value.value is None
                names = [t.id for t in item.targets if isinstance(t, ast.Name)
                         and not (unhashable and t.id == "__hash__")]
            else:
                continue
            found += [(node.name, name) for name in names if name in RECORD_METHODS]
    return found


def test_the_guard_sees_a_record_method(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class Record:\n    def __eq__(self, other):\n        pass\n\n"
                    "class Poly:\n    def __eq__(self, other):\n        pass\n\n"
                    "class Point(Record):\n    __hash__ = None\n\n"
                    "    def __repr__(self):\n        pass\n\n"
                    "class Pair(Record):\n    __eq__ = Record.__eq__\n    __reduce__ = None\n",
                    encoding="utf-8")
    assert record_methods(path) == [("Point", "__repr__"), ("Pair", "__eq__"),
                                    ("Pair", "__reduce__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_record_writes_record_methods(path):
    assert record_methods(path) == []
