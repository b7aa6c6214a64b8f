"""Growth of a monomial algebra from its obstruction set.

The growth graph has the normal words of length ell-1 as vertices (ell = the
longest obstruction; convention ell = 1 when all obstructions are single
letters or the set is empty) and an edge v -> w whenever v extended by one
letter on the right is normal and ends in w.  The algebra grows exponentially
iff two distinct cycles share a vertex; otherwise the Gelfand-Kirillov
dimension is the largest number of cyclic strong components on one path of
the condensation.

The class, the degree and the witness cycles come from
:func:`automaton_growth`, which applies the same rule to the normal steps the
obstruction set holds.  The Ufnarovski graph is built from those steps only
to show it, and only up to :data:`MAX_WINDOWS` candidate vertices.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

from .errors import CrossCheckError, InputError
from .freealg import Word
from .rewrite import MonomialSet

# An edge is (source word, target word, appended letter); the letter keeps
# parallel edges distinct (they occur only in the ell = 1 convention).
Edge = tuple

# Candidate words of length ell-1, n^(ell-1), above which build_ufnarovski
# refuses; it walks only the normal ones.
MAX_WINDOWS = 2 ** 16


class UfnarovskiGraph(namedtuple("UfnarovskiGraph", "omega vertices edges")):
    """The growth graph of ``omega``: its vertices, and its edges as
    (source, target, letter)."""

    __slots__ = ()

    @property
    def pairs(self) -> tuple[tuple[Word, Word], ...]:
        """(source, target) of every edge, parallel edges repeated."""
        return tuple(e[:2] for e in self.edges)


def build_ufnarovski(omega: MonomialSet) -> UfnarovskiGraph:
    ell, n = max(omega.ell, 1), omega.alphabet.n
    windows = n ** (ell - 1)
    if windows > MAX_WINDOWS:
        raise InputError(f"the Ufnarovski graph has {windows} candidate vertices "
                         f"({n}^{ell - 1}), over the limit of {MAX_WINDOWS}")
    out = omega.normal_steps
    # letters ascending keep (len, w) order, and the edges come in (v, w, a) order
    words = [((), 0)]  # (normal word, its automaton state)
    for _ in range(ell - 1):
        words = [(v + (a,), t) for v, s in words for a, t in out[s]]
    edges = [(v, (v + (a,))[1:], a) for v, s in words for a, _ in out[s]]
    return UfnarovskiGraph(omega, tuple(v for v, _ in words), tuple(edges))


class GrowthClass(namedtuple("GrowthClass", "exponential degree witness",
                             defaults=(None, None))):
    """Either exponential, or polynomial of some degree m >= 0.

    m = 0 means the algebra is finite-dimensional (no cycles at all).  An
    exponential class from :func:`automaton_growth` carries in ``witness``
    two cycles of the Ufnarovski graph from a common vertex that leave it by
    different letters, as (window, loop1, loop2): the shared vertex, of
    ell-1 letters, and the letters each cycle appends until it is back
    there; :func:`classify_growth` gives no witness.
    """

    __slots__ = ()

    @property
    def is_polynomial(self) -> bool:
        return not self.exponential


def strong_components(roots, adjacency) -> list[list]:
    """Iterative Tarjan on the part reachable from ``roots`` (``adjacency``
    maps a vertex to its successors); components are emitted successors-first."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0
    for root in roots:
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
    sccs = strong_components(vertices, adjacency)
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
    """Class and degree of the growth graph itself, without a witness: the
    tests' reference for :func:`automaton_growth`."""
    branching, degree = _classify(graph.vertices, graph.pairs)
    return GrowthClass(True) if branching is not None else GrowthClass(False, degree)


def automaton_growth(omega: MonomialSet) -> GrowthClass:
    """Class, degree and witness read off the Aho–Corasick automaton of ``omega``.

    Normal words are exactly the letter paths from the root along
    ``omega.normal_steps``, all of which the root reaches.  This graph
    counts the normal words of each length by paths from the root, the
    Ufnarovski graph by paths from every vertex (lengths >= ell - 1), so the
    same component rule decides both.  The automaton has at most 1 + sum |w|
    states instead of up to n^(ell-1) vertices.
    """
    steps = omega.normal_steps
    branching, degree = _classify([0], [(s, t) for s, out in steps.items() for _, t in out])
    if branching is None:
        return GrowthClass(False, degree)
    witness = _two_cycles(steps, set(branching), max(omega.ell, 1))
    _check_witness(omega, witness)
    return GrowthClass(True, None, witness)


def _two_cycles(steps: dict, component: set, ell: int):
    """A witness (window, loop1, loop2): two cycles of the Ufnarovski graph
    from one window, as the letters they read, read off a branching strong
    component of the automaton, whose normal steps are ``steps``.

    The pivot is the smallest state with two internal out-letters a < b;
    p is a then a shortest path back to the pivot, q likewise from b.  From
    the window W = the last ell-1 letters of p^k (k |p| >= ell-1) the first
    cycle reads p's, the second q and then p's, each until it is back at W.
    Every word read is a factor of the normal word (root path) p^k q p^m.
    """
    internal = {s: [(a, t) for a, t in steps[s] if t in component] for s in component}
    pivot = min((s for s in component if len(internal[s]) >= 2), default=None)
    if pivot is None:
        raise CrossCheckError("no branching state in an over-full strong component")

    def loop(letter: int, start: int) -> tuple[int, ...]:
        parent = {start: None}
        order = [start]
        for s in order:  # breadth first, letters in order
            for c, t in internal[s]:
                if t not in parent:
                    parent[t] = (s, c)
                    order.append(t)
        path = []
        s = pivot
        while parent[s] is not None:
            s, c = parent[s]
            path.append(c)
        return (letter,) + tuple(reversed(path))

    (a, first), (b, second) = internal[pivot][:2]
    p, q = loop(a, first), loop(b, second)
    k = -(-(ell - 1) // len(p))
    window = (p * k)[len(p) * k - (ell - 1):]

    def walk(head: tuple[int, ...]) -> tuple[int, ...]:
        # After head and k more p's the window is W again, so W occurs in
        # text; one character per letter lets str.find do the search.
        letters = head + p * (k + 1)
        text = "".join(map(chr, window + letters))
        return letters[:text.find(text[:ell - 1], max(len(head), 1))]

    return window, walk(()), walk(q)


def _check_witness(omega: MonomialSet, witness) -> None:
    """Certify a witness without the graph, by one normality query per loop.

    A loop's steps are all edges iff window + loop is normal, since every
    obstruction fits in one ell-letter factor of it; the loop is a closed
    walk iff that word ends in the window.  Two closed walks that leave the
    window by different letters make its strong component more than a cycle.
    """
    window, first, second = witness
    ell = max(omega.ell, 1)
    for loop in (first, second):
        word = window + loop
        if len(window) != ell - 1 or not omega.is_normal(word):
            raise CrossCheckError("witness step is not an edge of the growth graph")
        if not loop or word[len(loop):] != window:
            raise CrossCheckError("witness cycle is not a closed walk")
    if first[0] == second[0]:
        raise CrossCheckError("witness cycles leave their base vertex by one letter")
