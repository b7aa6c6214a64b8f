"""The package has no runtime dependency: every module it imports is in the
standard library or is ``ncdim`` itself."""

import ast
import subprocess
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


# Modules a cold CLI call need not pay for: ``dataclasses`` loads ``inspect``,
# ``ast``, ``dis`` and ``tokenize``, and ``typing`` and ``pathlib`` serve the
# package nothing that ``collections`` and ``open`` do not.
NOT_FOR_A_COLD_CALL = {"dataclasses", "typing", "pathlib", "inspect"}


def test_no_module_imports_what_a_cold_call_need_not_load():
    found = sorted((path.name, module) for path in SOURCES
                   for module in absolute_imports(path) if module in NOT_FOR_A_COLD_CALL)
    assert found == []


def test_a_cold_import_of_the_cli_loads_every_module_and_none_of_those():
    # -S: no site module, whose path hooks may import some of them themselves;
    # the child prints the ncdim modules it loaded, then every loaded module
    code = (
        f"import sys; sys.path.insert(0, {str(SOURCES[0].parent.parent)!r}); "
        "import ncdim.cli; "
        "print(*sorted(m for m in sys.modules if m.startswith('ncdim.'))); "
        "print(*sorted(sys.modules))"
    )
    ncdim_modules, every_module = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert ncdim_modules.split() == sorted(f"ncdim.{p.stem}" for p in SOURCES
                                           if p.stem != "__init__")
    assert NOT_FOR_A_COLD_CALL.isdisjoint(every_module.split())
