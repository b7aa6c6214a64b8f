"""Rees algebra of the degree filtration: homogenization and invariants.

Each relation f of weighted leading degree p is homogenized to
f~ = sum_i lambda_i T^{p - q_i} w_i  (central homogenizer T of weight 1, the
last letter, on the left), and the commutators X_i T - T X_i are adjoined.
The extended order compares T-stripped words by the base order before
looking at T at all, so homogenizing never moves the leading word: relation
k of G~ keeps LM(g_k) and each commutator has X_i T, G~ is again a Groebner
basis, and the chain graph is the base one plus a sink T that every base
vertex steps to, so C~_i = C_i u C_{i-1}T and C~_i(t) = C_i(t) +
t*C_{i-1}(t).  Each of these is checked at runtime, and a violation raises
CrossCheckError.  G~ is verified overlap by overlap, but only the overlaps
with a commutator are enumerated: the others are overlaps of base leading
words, which G~ keeps, so they are read off the base's verification record.
A base overlap whose two relations and every relation its base reduction
applied are homogeneous, so that their rules in G~ are those of G, is
resolved by that base reduction.  Reducing it under G~ would be the same
computation: the same S-element, over T-free words only, which only base
leading words match and which the extended order ranks as the base order
does, so the same step in the same order to the same zero.  The overlap of
relation k, whose leading word u*X_i ends in a live letter, with X_i T - T X_i
is resolved, with no S-element built, by its one-step identity: with T
moved to the front of each term, its S-element is -T*g~_k, which one step
of relation k takes to zero.  Where a rule breaks it (a dead letter of a
tail word stops T, or a commutator or tail was altered), the overlap is
reduced as any other, so the result is that of reducing every overlap.
:func:`rees_invariants` gives the Rees side in the base's record type, on
G~; :func:`check_transfer` compares two such records, and
:func:`check_associated_graded` checks that setting T = 0 in G~ gives lh(G).
"""

from __future__ import annotations

from .chains import (
    DEFAULT_TRUNCATION,
    ChainGraph,
    ChainSets,
    Invariants,
    build_chain_graph,  # unused here; bench/test_bench.py checks that this module binds it
)
from .errors import CrossCheckError
from .freealg import Alphabet, MonomialOrder, Poly, Record, Word
from .render import word_str
from .rewrite import GroebnerBasis, ensure_verified, verify_groebner


def extend_alphabet(base: Alphabet) -> Alphabet:
    """The base alphabet plus the homogenizer T (weight 1) as its last letter."""
    t_name = "T"
    while t_name in base.names:
        t_name += "_"
    return Alphabet(base.names + (t_name,), base.weights + (1,))


class HomogenizationOrder(Record):
    """Graded order on the extended alphabet keyed on the T-stripped word.

    Words are compared by total weighted degree, then by the base order on
    the words with all T's deleted, and finally by T placement (an earlier T
    is smaller).  Equal-degree words with equal T-stripped parts have the
    same length, so the last tie-break is total; a T-free word ties only
    with itself and is keyed without stripping or placement.  This is
    multiplicative, restricts to the base order on T-free words, puts T
    below every base letter, and — unlike reusing the base kind on the extended alphabet —
    guarantees for any base kind that homogenizing preserves leading words
    and that X_i*T - T*X_i has leading word X_i*T.
    """

    __slots__ = ("base", "alphabet", "homogenizer")
    _compared = ("base", "alphabet")

    def __init__(self, base: MonomialOrder):
        object.__setattr__(self, "base", base)
        # the base alphabet extended by T
        object.__setattr__(self, "alphabet", extend_alphabet(base.alphabet))
        # the letter T, the last of ``alphabet``, which
        # :func:`~ncdim.rewrite._reduce_terms` moves to the front of a word in one step
        object.__setattr__(self, "homogenizer", base.alphabet.n)

    def sort_key(self, word: Word):
        t = self.homogenizer
        if t not in word:
            # equal (degree, base key) means equal stripped words and so
            # equal T counts, so a T-free word needs no placement
            base_key = self.base.sort_key(word)
            return (base_key[0], base_key, ())
        stripped = tuple([i for i in word if i != t])
        placement = tuple([0 if i == t else 1 for i in word])
        base_key = self.base.sort_key(stripped)
        # T has weight 1: the total degree is the stripped one plus the T count
        return (base_key[0] + len(word) - len(stripped), base_key, placement)


def homogenize(f: Poly, order: HomogenizationOrder) -> Poly:
    """Left-pad every term of ``f`` with T up to its largest weighted degree
    p, which the graded base order makes the degree of the leading word.
    Under unit weights a word's degree is its length."""
    base, t = order.base, order.homogenizer
    degrees = list(map(len if base._unit else base.alphabet.degree, f.terms))
    p = max(degrees)
    return Poly({(t,) * (p - q) + w: c for (w, c), q in zip(f.terms.items(), degrees)})


def tilde_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Homogenized basis plus commutators, verified on the extended alphabet."""
    ensure_verified(basis)
    order = HomogenizationOrder(basis.order)
    t, alphabet = order.homogenizer, order.alphabet
    elements = [homogenize(g, order) for g in basis.elements]
    # a letter that is a leading word lies in the ideal: it gets no commutator
    dead = basis.omega.dead_letters
    live = [i for i in range(t) if i not in dead]
    for i in live:
        elements.append(Poly({(i, t): 1, (t, i): -1}))
    tilded = GroebnerBasis(elements, order)
    expected = basis.leading_words + tuple((i, t) for i in live)
    for k, (lw, want) in enumerate(zip(tilded.leading_words, expected)):
        if lw != want:
            raise CrossCheckError(
                f"Rees relation {k + 1} has leading word {word_str(lw, alphabet)}, "
                f"not {word_str(want, alphabet)}"
            )
    result = verify_groebner(tilded, basis)
    if not result.ok:
        amb = result.ambiguity
        raise CrossCheckError(
            "homogenized basis failed verification on the overlap "
            f"{word_str(amb.word, alphabet)}"
        )
    return tilded


def _check_graph_embedding(rees: Invariants, base: ChainGraph) -> None:
    """The Rees chain graph is the base one plus a sink T that every base
    vertex, the root included, steps to: C~_i = C_i u C_{i-1}T on all levels."""
    graph, t_vertex = rees.graph, (rees.basis.order.homogenizer,)
    if set(graph.vertices) != set(base.vertices) | {t_vertex}:
        raise CrossCheckError("the Rees chain vertices are not the base ones plus T")
    if graph.edges[t_vertex]:
        raise CrossCheckError("the T vertex of the Rees chain graph has out-edges")
    for v in base.vertices:
        targets = set(graph.edges[v])
        if t_vertex not in targets:
            raise CrossCheckError(
                f"Rees chain vertex {word_str(v, graph.omega.alphabet)} has no edge to T"
            )
        if targets != set(base.edges[v]) | {t_vertex}:
            raise CrossCheckError(
                f"Rees chain vertex {word_str(v, graph.omega.alphabet)} does not step "
                "to its base successors"
            )


def _check_level_counts(tilde_sets: ChainSets, base_sets: ChainSets) -> None:
    """C~_i(t) = C_i(t) + t*C_{i-1}(t) on every counted level (T has weight
    1), through the degree N both sides were counted to, when infinite."""

    def count(sets: ChainSets, i: int) -> tuple[int, ...]:
        if i == -1:
            return (1,)
        return sets.counts[i] if i < len(sets.counts) else ()

    for i in range(max(len(tilde_sets.counts), len(base_sets.counts) + 1)):
        same, lower = count(base_sets, i), count(base_sets, i - 1)
        expected = [0] * max(len(same), len(lower) + 1)
        for d, c in enumerate(same):
            expected[d] += c
        for d, c in enumerate(lower):
            expected[d + 1] += c
        if not tilde_sets.finite:
            del expected[tilde_sets.truncation + 1 :]
        while expected and expected[-1] == 0:
            expected.pop()
        if tuple(expected) != count(tilde_sets, i):
            raise CrossCheckError(
                f"Rees chain count C~_{i}(t) is not C_{i}(t) + t*C_{i - 1}(t)"
            )


def rees_invariants(basis: GroebnerBasis, truncation: int = DEFAULT_TRUNCATION) -> Invariants:
    """The invariants of the Rees algebra, those of the monomial algebra on
    the Omega~ of the verified G~, each computed on the extended alphabet
    alone when first read; :func:`check_transfer` compares them with the base."""
    return Invariants(tilde_basis(basis), truncation)


def check_associated_graded(rees_basis: GroebnerBasis, lh_basis: tuple[Poly, ...]) -> None:
    """Setting T = 0 in the verified Rees basis G~ gives lh(G): each
    homogenized relation keeps exactly its top-degree terms, and each
    commutator X_i*T - T*X_i vanishes."""
    t = rees_basis.order.homogenizer
    for k, g in enumerate(rees_basis.elements):
        at_zero = Poly({w: c for w, c in g.terms.items() if t not in w})
        if at_zero != (lh_basis[k] if k < len(lh_basis) else Poly()):
            raise CrossCheckError(
                f"setting T = 0 in Rees relation {k + 1} does not give "
                "the leading homogeneous part of G"
            )


def check_transfer(rees: Invariants, monomial: Invariants) -> None:
    """Assert the Rees invariants against the base ones: the base chain
    graph plus a sink T is the Rees one, equal finiteness, global
    dimension + 1, C~_i(t) = C_i(t) + t*C_{i-1}(t) on the counted levels,
    and GK degree + 1 for polynomial growth, exponential growth otherwise.
    Both chain sets must be counted to the same truncation; this is checked.
    Only ``graph``, ``sets`` and ``growth`` are read, so no Hilbert series
    is computed here."""
    if rees.sets.truncation != monomial.sets.truncation:
        raise CrossCheckError(
            f"the Rees chain sets are counted to degree {rees.sets.truncation}, "
            f"the base ones to {monomial.sets.truncation}"
        )
    _check_graph_embedding(rees, monomial.graph)
    if monomial.sets.finite != rees.sets.finite:
        raise CrossCheckError("Rees chain finiteness differs from the base")
    if monomial.sets.finite and rees.gldim != monomial.gldim + 1:
        raise CrossCheckError("Rees global dimension is not base + 1")
    _check_level_counts(rees.sets, monomial.sets)
    if monomial.growth.is_polynomial:
        if rees.growth.exponential or rees.growth.degree != monomial.growth.degree + 1:
            raise CrossCheckError("Rees growth degree is not base + 1")
    elif rees.growth.is_polynomial:
        raise CrossCheckError("Rees growth is polynomial over an exponential base")
