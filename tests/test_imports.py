"""The package has no runtime dependency: every module it imports is in the
standard library or is ``ncdim`` itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncdim").glob("*.py"))


def absolute_imports(path):
    """The top-level module of every absolute import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "rewrite.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = {m for m in absolute_imports(path)
               if m not in sys.stdlib_module_names and m != "ncdim"}
    assert not outside
