"""Span recording around ``ncdim``'s public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function in *every* ``ncdim``
module namespace that binds it: ``pipeline``, ``rees``, ``chains`` and the
package root take names with ``from .x import f``, so patching only the
defining module would miss their calls.  :meth:`Tracer.uninstall` puts the
originals back.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name, size of the result or None)
SPANNED = [
    ("ncdim.freealg", "parse_polynomial", "freealg.parse", None),
    ("ncdim.pipeline", "load_presentation", "pipeline.load", None),
    ("ncdim.pipeline", "load_presentation_data", "pipeline.load", None),
    ("ncdim.pipeline", "analyze", "pipeline.analyze", None),
    ("ncdim.pipeline", "render_report", "pipeline.render", len),
    ("ncdim.rewrite", "verify_groebner", "rewrite.verify", None),
    ("ncdim.rewrite", "overlap_ambiguities", "rewrite.overlap_list", len),
    ("ncdim.rewrite", "normal_form", "rewrite.normal_form", None),
    ("ncdim.growth", "build_ufnarovski", "growth.uf_build",
     lambda g: [len(g.vertices), len(g.edges)]),
    ("ncdim.growth", "classify_growth", "growth.classify", None),
    ("ncdim.chains", "build_chain_graph", "chains.graph_build", lambda g: len(g.vertices)),
    ("ncdim.chains", "chain_sets", "chains.sets", lambda s: sum(map(len, s.levels))),
    ("ncdim.chains", "hilbert_series", "chains.hilbert", None),
    ("ncdim.chains", "product_form_decomposition", "chains.product_form", None),
    ("ncdim.rees", "rees_invariants", "rees.invariants", None),
    ("ncdim.rees", "tilde_basis", "rees.tilde_basis", None),
    ("ncdim.cli", "main", "cli.main", None),
]

# Methods called hundreds of thousands of times per op get a counter, not a
# span: (module, class, attribute, counter name).
COUNTED = [
    ("ncdim.rewrite", "MonomialSet", "is_normal", "rewrite.is_normal"),
    ("ncdim.rewrite", "MonomialSet", "interreduce", "rewrite.interreduce"),
]


class Tracer:
    """Spans ``[name, start, end, parent index, op id, size]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op_id, None]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[5] = size(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ncdim" or name.startswith("ncdim."))]
        for module_name, attr, span_name, size in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(span_name, original, size)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, counter in COUNTED:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._counter(counter, raw.__func__))
            else:
                patched = self._counter(counter, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- exporting ---------------------------------------------------------

    def close_open(self) -> None:
        """End every span still open (the op was cut short)."""
        now = time.perf_counter()
        for index in self._stack:
            self.spans[index][2] = now
        self._stack.clear()

    def merge(self, spans, counts, op_id) -> None:
        """Add a child process's spans and counters, re-parented and re-tagged."""
        offset = len(self.spans)
        for name, start, end, parent, _, size in spans:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, op_id, size]
            )
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id, size in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op_id, "size": size}) + "\n")


def layer_metrics(spans, counts, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per op from spans and counters.

    A layer's time is the time of its outermost spans (a span inside one of
    the same name is not counted twice); self time is a span's duration minus
    that of its direct children.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    sizes: dict[str, list] = {}
    for rec in spans:
        name, start, end, parent, _, size = rec
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] = total.get(name, 0.0) + duration
        if size is not None:
            sizes.setdefault(name, []).append(size)
    self_time: dict[str, float] = {}
    for rec, inner in zip(spans, child_time):
        self_time[rec[0]] = self_time.get(rec[0], 0.0) + (rec[2] - rec[1]) - inner

    per_op = 1.0 / ops
    analyses = calls.get("pipeline.analyze", 0)

    def seconds(name):
        return total.get(name, 0.0) * per_op, "s/op"

    def count(value):
        return value * per_op, "count/op"

    def per_analyze(name):
        return (calls.get(name, 0) / analyses if analyses else 0.0), "count/analyze"

    uf = sizes.get("growth.uf_build", [])
    return {
        "freealg.parse_s": seconds("freealg.parse"),
        "freealg.parse_calls": count(calls.get("freealg.parse", 0)),
        "pipeline.load_s": seconds("pipeline.load"),
        "pipeline.analyze_s": seconds("pipeline.analyze"),
        "pipeline.analyze_self_s": (self_time.get("pipeline.analyze", 0.0) * per_op, "s/op"),
        "pipeline.render_s": seconds("pipeline.render"),
        "pipeline.report_bytes": (sum(sizes.get("pipeline.render", [])) * per_op, "bytes/op"),
        "rewrite.verify_s": seconds("rewrite.verify"),
        "rewrite.verify_calls": count(calls.get("rewrite.verify", 0)),
        "rewrite.overlap_lists": count(calls.get("rewrite.overlap_list", 0)),
        "rewrite.overlaps": count(sum(sizes.get("rewrite.overlap_list", []))),
        "rewrite.normal_form_s": seconds("rewrite.normal_form"),
        "rewrite.normal_form_calls": count(calls.get("rewrite.normal_form", 0)),
        "rewrite.is_normal_calls": count(counts.get("rewrite.is_normal", 0)),
        "rewrite.interreduce_calls": count(counts.get("rewrite.interreduce", 0)),
        "growth.uf_build_s": seconds("growth.uf_build"),
        "growth.uf_builds": count(calls.get("growth.uf_build", 0)),
        "growth.uf_vertices": count(sum(v for v, _ in uf)),
        "growth.uf_edges": count(sum(e for _, e in uf)),
        "growth.classify_s": seconds("growth.classify"),
        "chains.graph_build_s": seconds("chains.graph_build"),
        "chains.graph_builds": count(calls.get("chains.graph_build", 0)),
        "chains.graph_vertices": count(sum(sizes.get("chains.graph_build", []))),
        "chains.sets_s": seconds("chains.sets"),
        "chains.set_calls": count(calls.get("chains.sets", 0)),
        "chains.chain_words": count(sum(sizes.get("chains.sets", []))),
        "chains.hilbert_s": seconds("chains.hilbert"),
        "chains.product_form_s": seconds("chains.product_form"),
        "rees.invariants_s": seconds("rees.invariants"),
        "rees.self_s": (self_time.get("rees.invariants", 0.0) * per_op, "s/op"),
        "rees.tilde_basis_s": seconds("rees.tilde_basis"),
        "cli.main_s": seconds("cli.main"),
        "cli.self_s": (self_time.get("cli.main", 0.0) * per_op, "s/op"),
        "chains.graph_builds_per_analyze": per_analyze("chains.graph_build"),
        "growth.uf_builds_per_analyze": per_analyze("growth.uf_build"),
        "rewrite.overlap_lists_per_analyze": per_analyze("rewrite.overlap_list"),
    }
