"""Growth of a monomial algebra from its obstruction set.

The growth graph has the normal words of length ell-1 as vertices (ell = the
longest obstruction; convention ell = 1 when all obstructions are single
letters or the set is empty) and an edge v -> w whenever v extended by one
letter on the right is normal and ends in w.  The algebra grows exponentially
iff two distinct cycles share a vertex; otherwise the Gelfand-Kirillov
dimension is the largest number of cyclic strong components on one path of
the condensation.

The class and degree are decided by :func:`automaton_growth`, which applies
the same rule to the Aho–Corasick automaton of the obstructions.  The
Ufnarovski graph itself is built only to show it or its witness cycles.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from .errors import CrossCheckError
from .freealg import Alphabet, Word
from .render import dot_digraph
from .rewrite import MonomialSet

# An edge is (source word, target word, appended letter); the letter keeps
# parallel edges distinct (they occur only in the ell = 1 convention).
Edge = tuple


@dataclass(frozen=True)
class UfnarovskiGraph:
    alphabet: Alphabet
    ell: int
    vertices: tuple[Word, ...]
    edges: tuple[Edge, ...]

    def out_edges(self) -> dict[Word, list[Edge]]:
        adj: dict[Word, list[Edge]] = defaultdict(list)
        for e in self.edges:
            adj[e[0]].append(e)
        return adj


def build_ufnarovski(omega: MonomialSet, alphabet: Alphabet) -> UfnarovskiGraph:
    ell = max(omega.ell, 1)
    vertices = [
        w for w in product(range(alphabet.n), repeat=ell - 1) if omega.is_normal(w)
    ]
    edges = []
    for v in vertices:
        for a in range(alphabet.n):
            w = v + (a,)
            if omega.is_normal(w):
                edges.append((v, w[1:], a))
    vertices.sort(key=lambda w: (len(w), w))
    edges.sort()
    return UfnarovskiGraph(alphabet, ell, tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class GrowthClass:
    """Either exponential, or polynomial of some degree m >= 0.

    m = 0 means the algebra is finite-dimensional (no cycles at all).  A
    class from :func:`classify_growth` on an exponential graph carries in
    ``witness`` two distinct cycles of the Ufnarovski graph through a common
    vertex, each as a tuple of edges.  A class from :func:`automaton_growth`
    always carries ``witness=None``; a report's witness lives in
    ``AnalysisReport.growth_witness``.
    """

    exponential: bool
    degree: int | None = None
    witness: tuple[tuple[Edge, ...], tuple[Edge, ...]] | None = None

    @property
    def is_polynomial(self) -> bool:
        return not self.exponential


def _tarjan_sccs(vertices, adjacency) -> list[list]:
    """Iterative Tarjan; components are emitted successors-first."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adjacency.get(root, ())))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adjacency.get(w, ()))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _two_cycles_witness(graph: UfnarovskiGraph, component: set):
    """Two distinct cycles through a vertex with >= 2 internal out-edges."""
    out = graph.out_edges()
    pivot = None
    for v in sorted(component, key=lambda w: (len(w), w)):
        internal = sorted(e for e in out[v] if e[1] in component)
        if len(internal) >= 2:
            pivot = v
            first, second = internal[0], internal[1]
            break
    if pivot is None:
        raise CrossCheckError("no branching vertex in an over-full strong component")

    def path_back(start: Word) -> tuple[Edge, ...]:
        if start == pivot:
            return ()
        parents: dict[Word, Edge] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt = []
            for u in frontier:
                for e in out[u]:
                    if e[1] in component and e[1] not in seen:
                        parents[e[1]] = e
                        seen.add(e[1])
                        nxt.append(e[1])
            frontier = nxt
            if pivot in seen:
                break
        path = []
        node = pivot
        while node != start:
            e = parents[node]
            path.append(e)
            node = e[0]
        return tuple(reversed(path))

    cycles = (
        (first,) + path_back(first[1]),
        (second,) + path_back(second[1]),
    )
    _check_witness(graph, cycles)
    return cycles


def _check_witness(graph: UfnarovskiGraph, cycles) -> None:
    edge_set = set(graph.edges)
    for cycle in cycles:
        if not cycle:
            raise CrossCheckError("witness cycle is empty")
        for e in cycle:
            if e not in edge_set:
                raise CrossCheckError("witness uses a non-edge")
        for e, f in zip(cycle, cycle[1:]):
            if e[1] != f[0]:
                raise CrossCheckError("witness cycle is not connected")
        if cycle[-1][1] != cycle[0][0]:
            raise CrossCheckError("witness cycle is not closed")
    if cycles[0] == cycles[1]:
        raise CrossCheckError("witness cycles are not distinct")
    if cycles[0][0][0] != cycles[1][0][0]:
        raise CrossCheckError("witness cycles do not share their base vertex")


def _classify(vertices, edges):
    """(branching component or None, degree) of a digraph.

    ``edges`` are (source, target) pairs; parallel pairs count as separate
    edges.  A strong component is one simple cycle iff every vertex has
    exactly one internal out-edge, i.e. #internal edges == #vertices; the
    first component with more internal edges is returned.  Otherwise the
    degree is the longest condensation path, counting cyclic components.
    """
    adjacency: dict = defaultdict(list)
    for src, dst in edges:
        adjacency[src].append(dst)
    sccs = _tarjan_sccs(vertices, adjacency)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    internal = [0] * len(sccs)
    for src, dst in edges:
        if comp_of[src] == comp_of[dst]:
            internal[comp_of[src]] += 1
    for ci, comp in enumerate(sccs):
        if internal[ci] > len(comp):
            return comp, None
    # components were emitted successors-first so one pass suffices
    best = [0] * len(sccs)
    for ci, comp in enumerate(sccs):
        succ = 0
        for v in comp:
            for dst in adjacency.get(v, ()):
                if comp_of[dst] != ci:
                    succ = max(succ, best[comp_of[dst]])
        best[ci] = (1 if internal[ci] else 0) + succ
    return None, max(best, default=0)


def classify_growth(graph: UfnarovskiGraph) -> GrowthClass:
    """Exponential/polynomial classification of the growth graph, with the
    two-cycle witness in the exponential case."""
    branching, degree = _classify(graph.vertices, [e[:2] for e in graph.edges])
    if branching is not None:
        return GrowthClass(True, None, _two_cycles_witness(graph, set(branching)))
    return GrowthClass(False, degree, None)


def automaton_growth(omega: MonomialSet, alphabet: Alphabet) -> GrowthClass:
    """Class and degree read off the Aho–Corasick automaton of ``omega``.

    Normal words are exactly the letter paths from the root through
    non-terminal states, and every non-terminal state is a proper prefix of
    an obstruction, so it is reached from the root.  This graph counts the
    normal words of each length by paths from the root, the Ufnarovski
    graph by paths from every vertex (lengths >= ell - 1), so the same
    component rule decides both.  The automaton has at most 1 + sum |w|
    states instead of up to n^(ell-1) vertices; it gives no witness (see
    ``AnalysisReport.growth_witness``).
    """
    automaton = omega.automaton
    letters = range(alphabet.n)
    states = [0]
    edges = []
    seen = {0}
    for state in states:
        for a in letters:
            nxt = automaton.step(state, a)
            if automaton.is_terminal(nxt):
                continue
            edges.append((state, nxt))
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    branching, degree = _classify(states, edges)
    if branching is not None:
        return GrowthClass(True)
    return GrowthClass(False, degree)


def count_paths(graph: UfnarovskiGraph, num_edges: int) -> int:
    """Number of directed paths with exactly ``num_edges`` edges."""
    counts = {v: 1 for v in graph.vertices}
    for _ in range(num_edges):
        nxt = dict.fromkeys(graph.vertices, 0)
        for src, dst, _ in graph.edges:
            nxt[src] += counts[dst]
        counts = nxt
    return sum(counts.values())


def emit_dot(graph: UfnarovskiGraph, name: str = "growth") -> str:
    return dot_digraph(name, graph.vertices, [(e[0], e[1]) for e in graph.edges],
                       graph.alphabet)
