"""Chain graph, chain sets, global dimension, and Hilbert series.

Chains are built from routes out of the root vertex 1 of the chain graph:
a route 1 -> v1 -> ... -> v_{n+1} concatenates to an n-chain word.  The
global dimension of the monomial algebra is the first level at which the
chain sets vanish, and the Hilbert series denominator is the alternating
sum of the chain-level generating polynomials.  Both need only the number
of routes per level and degree, which a DP over the graph counts; words are
listed for display only, under a budget.  Later stages read Omega (with
its alphabet), every vertex's successors and N off these two records alone.
:class:`Invariants` computes each of them, and the growth, on first read,
for a base algebra and its Rees algebra alike.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from itertools import islice

from .errors import CrossCheckError, InputError
from .freealg import Record, Word
from .growth import GrowthClass, automaton_growth, strong_components
from .render import vertex_names
from .rewrite import GroebnerBasis, MonomialSet

DEFAULT_TRUNCATION = 16
# Largest truncation.  The normal-word counts keep only max(weights) + 1 rows
# of their per-state table, but their time still grows faster than linearly
# with the truncation, and the chain counts grow quadratically with it when
# the chain sets are infinite.
MAX_TRUNCATION = 2 ** 14
# Chain words and levels listed per chain set, for the report.  Branching
# sets double per level; at 4096 words, with their texts, a `report` process
# on them peaks near 18 MB (Python 3.11).
MAX_LISTED_CHAINS = 4096
MAX_LISTED_LEVELS = 64
ROOT: Word = ()


def check_truncation(truncation: int, name: str = "truncation") -> None:
    """Raise InputError unless 0 <= truncation <= MAX_TRUNCATION; ``name``
    is what the message calls the truncation."""
    if truncation < 0:
        raise InputError(f"{name} must be nonnegative")
    if truncation > MAX_TRUNCATION:
        raise InputError(f"{name} must be at most {MAX_TRUNCATION}")


class ChainGraph(Record):
    """Root 1, the live letters, and all proper suffixes of obstructions.

    Edges from the root go exactly to every live letter (letters that are
    themselves obstructions — "dead letters" — are excluded: the algebra
    they present is the monomial algebra on the remaining letters).  For
    non-root u, v there is an edge u -> v iff exactly one obstruction w is
    a suffix of uv and uv minus its last letter is normal.

    Such a w overlaps u: no obstruction divides the vertex v, so w = u[-k:] v
    with 1 <= k <= |u| and k < |w|.  The obstructions form an antichain, so
    two of them cannot both be suffixes of uv (the shorter would divide the
    longer): the match is unique whenever it exists.  The edges of u are
    therefore read in one walk of the obstructions' automaton from the
    state after u, along the letters that keep a match starting inside u
    (:meth:`FactorAutomaton.overlap_tails`); the walk is at most ell deep.
    Each edge is then certified by one normality query on uv minus its last
    letter.

    ``edges`` maps every vertex to its successors, () for a sink, vertices
    and successors in (length, word) order; ``vertices`` is its keys.
    """

    __slots__ = ("omega", "edges", "vertices")
    _compared = ("omega", "edges", "vertices")
    __hash__ = None

    def __init__(self, omega: MonomialSet, edges: dict[Word, tuple[Word, ...]]):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertices", tuple(edges))

    @property
    def pairs(self) -> tuple[tuple[Word, Word], ...]:
        """(source, target) of every edge."""
        return tuple((src, dst) for src, targets in self.edges.items() for dst in targets)


def _by_length(w: Word):
    return (len(w), w)


def build_chain_graph(omega: MonomialSet) -> ChainGraph:
    dead = omega.dead_letters
    live = [i for i in range(omega.alphabet.n) if i not in dead]
    vertices = {ROOT}
    vertices.update((i,) for i in live)
    for w in omega.words:
        for k in range(1, len(w)):
            vertices.add(w[k:])
    ordered = sorted(vertices, key=_by_length)
    edges: dict[Word, tuple[Word, ...]] = {ROOT: tuple((i,) for i in live)}
    for u in ordered[1:]:
        targets = omega.automaton.overlap_tails(u)
        for v in targets:
            if not omega.is_normal(u + v[:-1]):
                raise CrossCheckError("chain graph edge is not normal before its last letter")
        edges[u] = tuple(sorted(targets, key=_by_length))
    return ChainGraph(omega, edges)


class ChainListing(Record):
    """The texts of the chain words of the leading levels of the chain sets
    on ``graph``, each level in (length, word) order, as :func:`word_str`
    prints them; ``levels`` holds the words, in the same order.

    Every listed level is whole, so the words are the routes out of the
    root, level by level, one level per level of texts.  When the vertices
    but the root have one length, the routes come out of each level in
    that order and ``levels`` builds them on its first read; the sorted
    walk of other graphs keeps the words it sorted by.
    """

    # __dict__ holds what the cached property caches
    __slots__ = ("graph", "texts", "__dict__")
    _compared = ("graph", "texts")
    __hash__ = None

    def __init__(self, graph: ChainGraph, texts: tuple[tuple[str, ...], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "texts", texts)

    @cached_property
    def levels(self) -> tuple[tuple[Word, ...], ...]:
        edges = self.graph.edges
        levels: list[tuple[Word, ...]] = []
        routes = [(v, v) for v in edges[ROOT]]  # (tail vertex, chain word)
        for _ in self.texts:
            if levels:
                routes = [(s, word + s) for tail, word in routes for s in edges[tail]]
            levels.append(tuple([word for _, word in routes]))
        return tuple(levels)


class ChainSets(Record):
    """Chain counts per level, and the chain words of the leading levels.

    ``counts[i]`` is the generating polynomial C_i(t) of level i, as
    ascending coefficients by weighted degree with trailing zeros trimmed,
    starting at C_0; C_{-1} = 1 is implicit.  ``finite`` reports whether the
    chain sets vanish at some level (no cycle is reachable from the root).
    ``truncation`` is N, the degree the Hilbert series is expanded to.
    Finite sets are counted exactly, through their last nonempty level.
    Infinite ones are counted in degrees up to N only; a chain of C_i has
    degree at least i + 1, so the levels past N have no chain there.

    ``listing`` holds the texts of the chain words of C_i for its first
    levels, read off ``graph`` on first access only; ``levels`` is their
    words.  The listing stops after MAX_LISTED_LEVELS levels, and before
    the level that would take it over MAX_LISTED_CHAINS chains.
    ``truncated`` reports that it stopped short of a nonempty level of
    finite sets, or short of MAX_LISTED_LEVELS for infinite ones.
    """

    # __dict__ holds what the cached property caches
    __slots__ = ("graph", "finite", "counts", "truncation", "__dict__")
    _compared = ("graph", "finite", "counts", "truncation")
    __hash__ = None

    def __init__(self, graph: ChainGraph, finite: bool,
                 counts: tuple[tuple[int, ...], ...], truncation: int):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "truncation", truncation)

    @cached_property
    def listing(self) -> ChainListing:
        """Each chain word is a route v1 v2 ... vk out of the root, and its
        text the vertex names joined by '*'.

        When every vertex but the root has one length, the routes come out
        of each level already in (length, word) order: the words of a level
        then all have one length, the level before is in that order, and
        each tail's successors are too.  Each level is then built from
        (tail vertex, text) pairs, with no chain word, once its size, the
        sum of its tails' out-degrees, is known to fit.  Otherwise each
        level is built with its words and sorted by them."""
        graph = self.graph
        vertices, edges = graph.vertices, graph.edges
        if len(vertices) > 1 and len(vertices[1]) != len(vertices[-1]):
            return self._sorted_listing()
        name = vertex_names(graph)
        # each vertex's successors with the text each adds to a route
        links = {v: [(s, "*" + name[s]) for s in targets] for v, targets in edges.items()}
        texts: list[tuple[str, ...]] = []
        routes = [(v, name[v]) for v in edges[ROOT]]  # (tail vertex, text)
        room = MAX_LISTED_CHAINS - len(routes)
        while routes and room >= 0 and len(texts) < MAX_LISTED_LEVELS:
            texts.append(tuple([text for _, text in routes]))
            room -= sum([len(links[tail]) for tail, _ in routes])
            if room >= 0:
                routes = [(s, text + link) for tail, text in routes for s, link in links[tail]]
        return ChainListing(graph, tuple(texts))

    def _sorted_listing(self) -> ChainListing:
        """The listing of a graph whose vertices have more than one length:
        the routes of each level carry their words, to be sorted by, and a
        vertex is named on its first use."""
        edges, name = self.graph.edges, vertex_names(self.graph)
        levels: list[tuple[Word, ...]] = []
        texts: list[tuple[str, ...]] = []
        # (len(chain word), chain word, tail vertex, text): sorted as it
        # stands, in (length, word) order
        routes = [(len(v), v, v, name[v]) for v in edges[ROOT]]
        room = MAX_LISTED_CHAINS - len(routes)
        while routes and room >= 0 and len(levels) < MAX_LISTED_LEVELS:
            routes.sort()
            levels.append(tuple([word for _, word, _, _ in routes]))
            texts.append(tuple([text for _, _, _, text in routes]))
            # build the next level lazily, one route past the room left at most
            following = (
                (size + len(s), word + s, s, f"{text}*{name[s]}")
                for size, word, tail, text in routes
                for s in edges[tail]
            )
            routes = list(islice(following, room + 1))
            room -= len(routes)
        listing = ChainListing(self.graph, tuple(texts))
        listing.__dict__["levels"] = tuple(levels)
        return listing

    @property
    def levels(self) -> tuple[tuple[Word, ...], ...]:
        return self.listing.levels

    @property
    def truncated(self) -> bool:
        listed = len(self.listing.texts)
        return listed < (len(self.counts) if self.finite else MAX_LISTED_LEVELS)

    @property
    def gldim(self) -> int | None:
        """Global dimension: the first level at which the chain sets vanish;
        None = infinite."""
        return len(self.counts) if self.finite else None


def _cycle_reachable(graph: ChainGraph) -> bool:
    """Some strong component reachable from the root has an internal edge
    (a self-loop counts)."""
    return any(
        len(comp) > 1 or comp[0] in graph.edges[comp[0]]
        for comp in strong_components([ROOT], graph.edges)
    )


def _count_levels(graph: ChainGraph, truncation: int | None) -> list[tuple[int, ...]]:
    """C_0(t), C_1(t), ... through the last level with a chain of degree at
    most ``truncation`` (None = any degree, for finite chain sets).

    A DP over routes from the root grouped by (tail vertex, weighted
    degree): next[s][d + deg s] += cur[t][d] for every edge t -> s.  Each
    level costs O(E * D) for E edges and D distinct degrees, however many
    chains it has.  Finite sets repeat no vertex on a route, so reaching as
    many levels as vertices means a missed cycle: CrossCheckError, no hang.
    """
    edges = graph.edges
    degree = {v: graph.omega.alphabet.degree(v) for v in graph.vertices}
    current = {
        s: {degree[s]: 1}
        for s in edges[ROOT]
        if truncation is None or degree[s] <= truncation
    }
    counts: list[tuple[int, ...]] = []
    while current:
        poly = [0] * (1 + max(d for by_degree in current.values() for d in by_degree))
        for by_degree in current.values():
            for d, c in by_degree.items():
                poly[d] += c
        counts.append(tuple(poly))
        if truncation is None and len(counts) == len(graph.vertices):
            raise CrossCheckError(
                "chain sets judged finite have as many levels as the chain "
                "graph has vertices"
            )
        following: dict[Word, dict[int, int]] = {}
        for tail, by_degree in current.items():
            for s in edges[tail]:
                row = following.setdefault(s, {})
                for d, c in by_degree.items():
                    e = d + degree[s]
                    if truncation is None or e <= truncation:
                        row[e] = row.get(e, 0) + c
        current = {s: row for s, row in following.items() if row}
    return counts


def chain_sets(graph: ChainGraph, truncation: int = DEFAULT_TRUNCATION) -> ChainSets:
    """Count the chains of every level (to degree ``truncation`` when the
    sets are infinite); the words are listed only when ``levels`` is read."""
    finite = not _cycle_reachable(graph)
    counts = _count_levels(graph, None if finite else truncation)
    return ChainSets(graph, finite, tuple(counts), truncation)


class HilbertSeries(namedtuple("HilbertSeries", "denominator coefficients")):
    """Truncated expansion, with the closed form 1/D(t) when chains are finite.

    ``denominator`` is D as ascending integer coefficients (constant term 1),
    or None when no closed form is available; ``coefficients`` lists the
    dimensions for weighted degrees 0..N.
    """

    __slots__ = ()

    @property
    def closed_form(self) -> bool:
        return self.denominator is not None


def expand_reciprocal(denominator: Iterable[int], up_to: int) -> list[int]:
    """Coefficients of 1/D(t) through degree up_to; D must have constant term 1."""
    den = list(denominator)
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    coeffs = [0] * (up_to + 1)
    coeffs[0] = 1
    for k in range(1, up_to + 1):
        coeffs[k] = -sum(
            den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1)
        )
    return coeffs


def chain_denominator(sets: ChainSets) -> tuple[int, ...]:
    """D(t) = 1 - sum_i (-1)^i C_i(t) from the chain counts: exact when the
    chain sets are finite, modulo t^(truncation + 1) when they are not."""
    den = [0] * max([1] + [len(poly) for poly in sets.counts])
    den[0] = 1
    for i, poly in enumerate(sets.counts):
        sign = -1 if i % 2 == 0 else 1
        for d, c in enumerate(poly):
            den[d] += sign * c
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    return tuple(den)


def hilbert_series(sets: ChainSets) -> HilbertSeries:
    """Hilbert series through degree N = ``sets.truncation`` of the monomial
    algebra on the Omega of the chain graph of ``sets``.

    The coefficients always come from normal-word counting, and 1/D(t) must
    expand to them (CrossCheckError otherwise).  With finite chain sets D(t)
    is exact and becomes the closed form.  Otherwise the counts give D(t)
    only modulo t^(N+1), and the identity is checked through degree N.
    """
    graph, top = sets.graph, sets.truncation
    coeffs = graph.omega.count_normal(top)
    den = chain_denominator(sets)
    if expand_reciprocal(den, top) != coeffs:
        modulo = "" if sets.finite else f" mod t^{top + 1}"
        raise CrossCheckError(
            f"the chain denominator D(t){modulo} does not invert to the "
            "normal-word counts"
        )
    return HilbertSeries(den if sets.finite else None, tuple(coeffs))


class Invariants(Record):
    """Growth, chain graph, chain sets and Hilbert series of the monomial
    algebra on the Omega of a verified basis, the chain sets counted to
    ``truncation``; the base algebra and its Rees algebra alike.

    Each is computed the first time it is read, from the fields it needs,
    and kept: ``growth`` from Omega's automaton alone, with no chain graph;
    ``graph`` from Omega; ``sets`` from ``graph``; ``hilbert`` from
    ``sets``.  Equality and the repr read ``growth``, ``sets`` and
    ``hilbert``, as they compare the algebras.
    """

    # __dict__ holds what the cached properties cache
    __slots__ = ("basis", "truncation", "__dict__")
    _compared = ("growth", "sets", "hilbert")
    __hash__ = None

    def __init__(self, basis: GroebnerBasis, truncation: int = DEFAULT_TRUNCATION):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "truncation", truncation)

    @cached_property
    def growth(self) -> GrowthClass:
        return automaton_growth(self.basis.omega)

    @cached_property
    def graph(self) -> ChainGraph:
        return build_chain_graph(self.basis.omega)

    @cached_property
    def sets(self) -> ChainSets:
        return chain_sets(self.graph, self.truncation)

    @cached_property
    def hilbert(self) -> HilbertSeries:
        return hilbert_series(self.sets)

    @property
    def gldim(self) -> int | None:
        return self.sets.gldim


def product_form_decomposition(denominator: Iterable[int], m: int) -> list[int] | None:
    """Exponents e_1 <= ... <= e_m with D(t) = prod (1 - t^{e_i}), or None.

    Greedy exact division: the smallest e with a nonzero coefficient d_e in
    D - 1 must be the smallest exponent, so d_e < 0 and (1 - t^e) divides D
    exactly.  The exponents are unique when they exist, so a None return is
    a proof of nonexistence.
    """
    den = list(denominator)
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        if den == [1]:
            return []
        raise ValueError("m = 0 requires the trivial denominator 1")
    exponents: list[int] = []
    while len(den) > 1 and len(exponents) < m:
        e = next(k for k, d in enumerate(den) if k and d)
        if den[e] > 0:
            return None
        # quotient by (1 - t^e): q_k = d_k + q_{k-e}; the top e must vanish
        for k in range(e, len(den)):
            den[k] += den[k - e]
        if any(den[len(den) - e :]):
            return None
        del den[len(den) - e :]
        exponents.append(e)
    return exponents if den == [1] and len(exponents) == m else None

