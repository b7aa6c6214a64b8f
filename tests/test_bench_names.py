"""The functions and methods the benchmark's tracer wraps must exist.

``bench/spans.py`` names them by string, so a rename in ``src/`` would only
show when the benchmark runs traced.  The file is loaded, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_spanned_functions_resolve(spans):
    assert spans.SPANNED
    for module_name, attr, *_ in spans.SPANNED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_counted_methods_resolve(spans):
    assert spans.COUNTED
    for module_name, cls_name, attr, _ in spans.COUNTED:
        cls = getattr(importlib.import_module(module_name), cls_name)
        # the tracer replaces the entry in the class dictionary itself
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
