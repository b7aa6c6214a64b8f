"""No function takes an argument that its other arguments fix, no record
writes out the methods that ``Record`` gives it, and each stage of the
monomial invariants is called from one place.

An obstruction set Omega carries its alphabet, and through it the letter
count and the weights, so no function in the package takes ``omega``
together with one of them.  A Groebner basis carries each relation's rule,
its swap rules and the letters a homogenizer crosses, so no function takes
``basis`` together with one of them.

``freealg.Record`` gives every record its equality, hash, repr, freezing
and copy, so no other class defines those methods; ``Poly`` keeps its own,
whose equality compares terms.

``chains.Invariants`` computes the growth, chain graph, chain sets and
Hilbert series of the base algebra and of its Rees algebra alike, so it is
the one caller of each of their functions.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncdim").glob("*.py"))
FIXED = {"omega": {"alphabet", "weights", "n_letters"},
         "basis": {"swap", "swaps", "rules", "front", "stuck"}}
RECORD_METHODS = {"__eq__", "__repr__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}
STAGES = ("automaton_growth", "build_chain_graph", "chain_sets", "hilbert_series")


def parameters(node):
    args = node.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}


def takes_what_it_fixes(path, holder):
    """The name of every function in ``path`` that takes ``holder`` and a
    parameter of FIXED[holder]."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and holder in parameters(node)
        and parameters(node) & FIXED[holder]
    ]


def test_the_guard_sees_a_redundant_parameter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def build(omega, alphabet):\n    pass\n\n"
                    "def count(omega, up_to):\n    pass\n", encoding="utf-8")
    assert takes_what_it_fixes(path, "omega") == ["build"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_omega_and_what_it_fixes(path):
    assert takes_what_it_fixes(path, "omega") == []


def test_the_guard_sees_a_parameter_the_basis_fixes(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def triple(basis, swap, i, j):\n    pass\n\n"
                    "def enter(word, t, stuck):\n    pass\n\n"
                    "def reduce(work, basis, *, rules=None):\n    pass\n\n"
                    "def step(basis, k, j):\n    pass\n", encoding="utf-8")
    assert takes_what_it_fixes(path, "basis") == ["triple", "reduce"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_basis_and_what_it_fixes(path):
    assert takes_what_it_fixes(path, "basis") == []


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


def call_sites(paths, names):
    """(file, line, name) of every call in ``paths`` of a function in
    ``names``, by bare name or as an attribute such as ``chains.chain_sets``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((path.name, node.lineno, name))
    return sorted(found)


def test_the_guard_sees_every_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import chains\n\n"
                    "def run(graph, n):\n"
                    "    sets = chains.chain_sets(graph, n)\n"
                    "    return hilbert_series(sets), chain_sets\n", encoding="utf-8")
    assert call_sites([path], STAGES) == [("sample.py", 4, "chain_sets"),
                                          ("sample.py", 5, "hilbert_series")]


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_has_one_call_site(stage):
    sites = call_sites(SOURCES, {stage})
    assert len(sites) == 1, sites
    assert sites[0][0] == "chains.py"
