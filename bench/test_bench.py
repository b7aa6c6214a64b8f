"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import runtime  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Exact per-op counts; timings and the hostile children cut short by their
# budget are left out.
COUNTS = [
    "freealg.parse_calls", "pipeline.report_bytes",
    "rewrite.verify_calls", "rewrite.overlap_lists", "rewrite.overlaps",
    "rewrite.normal_form_calls", "rewrite.is_normal_calls", "rewrite.interreduce_calls",
    "growth.uf_builds", "growth.uf_vertices", "growth.uf_edges",
    "chains.graph_builds", "chains.graph_vertices", "chains.set_calls",
    "chains.chain_words", "chains.graph_builds_per_analyze",
    "growth.uf_builds_per_analyze", "rewrite.overlap_lists_per_analyze",
]


def _deck(workload, seed):
    return [(op.kind, op.label, op.text, op.argv, op.file, op.expect)
            for op in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_generator_repeats_for_a_seed(workload):
    assert _deck(workload, 7) == _deck(workload, 7)
    assert _deck(workload, 7) != _deck(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_deck_composition_does_not_depend_on_seed(workload):
    def shape(seed):
        return sorted((op.kind, op.label.split("(")[0], op.argv[:1])
                      for op in workloads.build(workload, seed))
    assert shape(1) == shape(2)


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_traced_runs_repeat_counts_exactly(workload):
    first, second = (run.run_workload(workload, 3, 0, True, min_decks=2) for _ in range(2))
    a, b = first["result"], second["result"]
    assert a["failed"] / a["attempted"] == b["failed"] / b["attempted"]
    assert a["correct"] and b["correct"]
    if workload != "hostile":
        assert a["failed"] == 0
        for name in COUNTS:
            assert a["metrics"][name] == b["metrics"][name], name


def test_tracer_patches_every_binding_and_restores_them():
    ncdim = runtime.import_ncdim()
    bindings = [ncdim, sys.modules["ncdim.chains"], sys.modules["ncdim.pipeline"],
                sys.modules["ncdim.rees"]]
    original = ncdim.build_chain_graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(m.build_chain_graph is not original for m in bindings)
        assert len({id(m.build_chain_graph) for m in bindings}) == 1
        ncdim.analyze(ncdim.load_presentation_data(
            {"variables": [{"name": "x"}, {"name": "y"}], "relations": ["y*x - x*y"]}))
    finally:
        tracer.uninstall()
    assert all(m.build_chain_graph is original for m in bindings)
    names = [s[0] for s in tracer.spans]
    assert names.count("pipeline.analyze") == 1
    assert names.count("chains.graph_build") >= 1
    assert tracer.counts["rewrite.is_normal"] > 0
    inside = tracer.spans[names.index("pipeline.analyze") + 1:]
    assert inside and all(s[3] >= 0 for s in inside)


def test_layer_time_counts_nested_spans_once_and_self_time_drops_children():
    records = [
        ["pipeline.analyze", 0.0, 10.0, -1, 0, None],
        ["rees.invariants", 1.0, 4.0, 0, 0, None],
        ["pipeline.analyze", 5.0, 6.0, 0, 0, None],
    ]
    metrics = spans.layer_metrics(records, {}, 1)
    assert metrics["pipeline.analyze_s"][0] == 10.0
    # outer: 10 - 3 - 1, inner: 1
    assert metrics["pipeline.analyze_self_s"][0] == 7.0
    assert metrics["rees.self_s"][0] == 3.0


def test_brute_force_counts_match_closed_forms():
    for n in (2, 3, 5):
        counts = oracle.normal_word_counts(workloads.pbw_omega(n), (1,) * n, 6)
        assert counts == [comb(d + n - 1, n - 1) for d in range(len(counts))]
    # x^2 = 0 in one variable: 1, x
    assert oracle.normal_word_counts([(0, 0)], (1,), 5) == [1, 1, 0, 0, 0, 0]


def test_chain_counts_from_the_definition():
    assert oracle.chain_counts([(0, 1)], 2) == [2, 1]  # unbordered: gl.dim 2
    assert oracle.gldim([(0, 0, 0)], 2) == "infinity"  # x^3 overlaps itself
    assert oracle.chain_counts(workloads.pbw_omega(3), 3) == [3, 3, 1]
    assert oracle.chain_shape([(0, 0), (0, 1), (1, 0), (1, 1)], 2) == "branching"


def test_percentile_leaves_ten_ops_above_the_tail():
    for workload in workloads.DECKS:
        deck = len(workloads.build(workload, 1))
        p = run.tail_percentile(workload, deck)
        n = workloads.MIN_DECKS[workload] * deck
        assert (n - 1) * p / 100 <= n - 11
