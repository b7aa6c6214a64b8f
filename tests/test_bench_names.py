"""The functions and methods the benchmark's tracer wraps must exist, and
its size functions must fit what they return.

``bench/spans.py`` names them by string, so a rename in ``src/`` would only
show when the benchmark runs traced.  The file is loaded, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ncdim.chains
import ncdim.cli  # the tracer wraps cli.main, so the module must be loaded
import ncdim.pipeline
from presets import down_up

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


def test_span_sizes_fit_the_return_types(spans):
    # a size function that no longer fits what its function returns would
    # only fail inside a traced benchmark run
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = ncdim.pipeline.analyze(down_up())
        for fmt in ("json", "text", "dot-bundle"):
            ncdim.pipeline.render_report(report, fmt)
    finally:
        tracer.uninstall()
    sized = {name for *_, name, size in spans.SPANNED if size is not None}
    recorded = [(name, size) for name, *_, size in tracer.spans if name in sized]
    assert {name for name, _ in recorded} == sized
    assert all(size is not None for _, size in recorded)


def test_analyze_makes_a_counted_normality_query(spans):
    # the benchmark's own tests expect analyze() of one commutation relation
    # to call MonomialSet.is_normal, which the tracer counts
    tracer = spans.Tracer()
    tracer.install()
    try:
        ncdim.pipeline.analyze(ncdim.pipeline.load_presentation_data(
            {"variables": [{"name": "x"}, {"name": "y"}], "relations": ["y*x - x*y"]}))
    finally:
        tracer.uninstall()
    assert tracer.counts["rewrite.is_normal"] > 0


def test_benchmark_reads_a_bool_pbw():
    # the benchmark loads, analyzes and renders JSON in process, then reads
    # `report.pbw is True` on PBW inputs
    report = ncdim.analyze(ncdim.load_presentation_data(
        {"variables": [{"name": "x"}, {"name": "y"}], "relations": ["y*x - x*y"]}))
    assert isinstance(ncdim.render_report(report, "json"), bytes)
    assert report.pbw is True


def test_every_module_binds_the_one_build_chain_graph():
    # the tracer patches build_chain_graph in each of these namespaces, and
    # the benchmark's own tests assert that all four bind it
    modules = [importlib.import_module(name)
               for name in ("ncdim", "ncdim.chains", "ncdim.pipeline", "ncdim.rees")]
    function = ncdim.chains.build_chain_graph
    unbound = [m.__name__ for m in modules
               if m.__dict__.get("build_chain_graph") is not function]
    assert unbound == []
