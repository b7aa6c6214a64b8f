"""Rees algebra of the degree filtration: homogenization and invariants.

Each relation f of weighted leading degree p is homogenized to
f~ = sum_i lambda_i T^{p - q_i} w_i  (central homogenizer T of weight 1 on
the left), and the commutators X_i T - T X_i are adjoined.  The extended
order compares T-stripped words by the base order before looking at T at
all, so homogenizing never moves the leading word: the leading words are
exactly LM(G) u {X_i T}, the homogenized set is again a Groebner basis, and
the chain graph is the base one plus a sink T that every base vertex steps
to, so C~_i = C_i u C_{i-1}T and C~_i(t) = C_i(t) + t*C_{i-1}(t) — all of
these are re-verified at runtime and a violation raises CrossCheckError.
:func:`rees_invariants` computes the Rees side only; :func:`check_transfer`
compares it with base invariants computed elsewhere, and
:func:`check_associated_graded` checks that setting T = 0 in G~ gives lh(G).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    DEFAULT_TRUNCATION,
    ChainGraph,
    ChainSets,
    HilbertSeries,
    build_chain_graph,
    chain_sets,
    hilbert_series,
)
from .errors import CrossCheckError
from .freealg import Alphabet, MonomialOrder, Poly, Word, leading_data
from .growth import GrowthClass, automaton_growth
from .render import word_str
from .rewrite import GroebnerBasis, ensure_verified, verify_groebner


@dataclass(frozen=True)
class ExtendedAlphabet:
    """Base alphabet plus the homogenizer T (weight 1, smallest letter)."""

    base: Alphabet
    alphabet: Alphabet
    t_index: int

    @property
    def t_word(self) -> Word:
        return (self.t_index,)


def extend_alphabet(base: Alphabet) -> ExtendedAlphabet:
    t_name = "T"
    while t_name in base.names:
        t_name += "_"
    ext = Alphabet(base.names + (t_name,), base.weights + (1,))
    return ExtendedAlphabet(base, ext, base.n)


@dataclass(frozen=True)
class HomogenizationOrder:
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

    base: MonomialOrder
    ext: ExtendedAlphabet

    @property
    def alphabet(self) -> Alphabet:
        return self.ext.alphabet

    @property
    def kind(self) -> str:
        return self.base.kind

    def sort_key(self, word: Word):
        t = self.ext.t_index
        if t not in word:
            # equal (degree, base key) means equal stripped words and so
            # equal T counts, so a T-free word needs no placement
            base_key = self.base.sort_key(word)
            return (base_key[0], base_key, ())
        stripped = tuple(i for i in word if i != t)
        placement = tuple(0 if i == t else 1 for i in word)
        base_key = self.base.sort_key(stripped)
        # T has weight 1: the total degree is the stripped one plus the T count
        return (base_key[0] + len(word) - len(stripped), base_key, placement)

    def compare(self, u: Word, v: Word) -> int:
        ku, kv = self.sort_key(u), self.sort_key(v)
        return (ku > kv) - (ku < kv)


def homogenize(f: Poly, order: MonomialOrder, ext: ExtendedAlphabet) -> Poly:
    """Left-pad every term with T up to the leading weighted degree."""
    alphabet = order.alphabet
    lw, _ = leading_data(f, order)
    p = alphabet.degree(lw)
    terms = {}
    t = ext.t_index
    for w, c in f.terms.items():
        q = alphabet.degree(w)
        if q > p:
            raise ValueError("term exceeds the leading degree; order is not graded")
        terms[(t,) * (p - q) + w] = c
    return Poly(terms)


def dehomogenize(f: Poly, ext: ExtendedAlphabet) -> Poly:
    """Substitute T = 1: drop every T letter and collect."""
    t = ext.t_index
    acc: dict[Word, object] = {}
    for w, c in f.terms.items():
        base_word = tuple(i for i in w if i != t)
        nc = acc.get(base_word, 0) + c
        if nc:
            acc[base_word] = nc
        else:
            acc.pop(base_word, None)
    return Poly(acc)


@dataclass(frozen=True)
class ReesPresentation:
    """Verified presentation of the Rees algebra on the extended alphabet."""

    ext: ExtendedAlphabet
    basis: GroebnerBasis


def tilde_basis(basis: GroebnerBasis) -> ReesPresentation:
    """Homogenized basis plus commutators, re-verified on the extended alphabet."""
    ensure_verified(basis)
    ext = extend_alphabet(basis.order.alphabet)
    ext_order = HomogenizationOrder(basis.order, ext)
    t = ext.t_index
    elements = [homogenize(g, basis.order, ext) for g in basis.elements]
    # a letter that is a leading word lies in the ideal: it gets no commutator
    live = [i for i in range(ext.base.n) if (i,) not in basis.omega]
    for i in live:
        elements.append(Poly({(i, t): 1, (t, i): -1}))
    tilded = GroebnerBasis(elements, ext_order)
    expected = set(basis.omega.words) | {(i, t) for i in live}
    if set(tilded.omega.words) != expected:
        raise CrossCheckError(
            "homogenized leading words differ from LM(G) plus the commutators"
        )
    result = verify_groebner(tilded)
    if not result.ok:
        amb = result.ambiguity
        raise CrossCheckError(
            "homogenized basis failed verification on the overlap "
            f"{word_str(amb.word, ext.alphabet)}"
        )
    return ReesPresentation(ext, tilded)


@dataclass(frozen=True)
class ReesInvariants:
    presentation: ReesPresentation
    growth: GrowthClass
    hilbert: HilbertSeries
    sets: ChainSets

    @property
    def graph(self) -> ChainGraph:
        return self.sets.graph

    @property
    def gldim(self) -> int | None:
        return self.sets.gldim


def _check_graph_embedding(
    graph: ChainGraph, base: ChainGraph, ext: ExtendedAlphabet
) -> None:
    """The Rees chain graph is the base one plus a sink T that every base
    vertex, the root included, steps to: C~_i = C_i u C_{i-1}T on all levels."""
    t_vertex = ext.t_word
    if set(graph.vertices) != set(base.vertices) | {t_vertex}:
        raise CrossCheckError("the Rees chain vertices are not the base ones plus T")
    if graph.successors(t_vertex):
        raise CrossCheckError("the T vertex of the Rees chain graph has out-edges")
    for v in base.vertices:
        targets, name = set(graph.successors(v)), word_str(v, ext.alphabet)
        if t_vertex not in targets:
            raise CrossCheckError(f"Rees chain vertex {name} has no edge to T")
        if targets != set(base.successors(v)) | {t_vertex}:
            raise CrossCheckError(
                f"Rees chain vertex {name} does not step to its base successors"
            )


def _check_level_counts(tilde_sets: ChainSets, base_sets: ChainSets) -> None:
    """C~_i(t) = C_i(t) + t*C_{i-1}(t) on every counted level (T has weight
    1), through the degree both sides were counted to."""

    def count(sets: ChainSets, i: int) -> tuple[int, ...]:
        if i == -1:
            return (1,)
        return sets.counts[i] if i < len(sets.counts) else ()

    top = tilde_sets.truncation
    for i in range(max(len(tilde_sets.counts), len(base_sets.counts) + 1)):
        same, lower = count(base_sets, i), count(base_sets, i - 1)
        expected = [0] * max(len(same), len(lower) + 1)
        for d, c in enumerate(same):
            expected[d] += c
        for d, c in enumerate(lower):
            expected[d + 1] += c
        if top is not None:
            del expected[top + 1 :]
        while expected and expected[-1] == 0:
            expected.pop()
        if tuple(expected) != count(tilde_sets, i):
            raise CrossCheckError(
                f"Rees chain count C~_{i}(t) is not C_{i}(t) + t*C_{i - 1}(t)"
            )


def rees_invariants(
    basis: GroebnerBasis, truncation: int = DEFAULT_TRUNCATION
) -> ReesInvariants:
    """Growth, global dimension, and Hilbert data of the Rees algebra,
    computed on the extended alphabet alone; :func:`check_transfer` compares
    them with the base."""
    presentation = tilde_basis(basis)
    ext = presentation.ext
    omega = presentation.basis.omega
    growth = automaton_growth(omega, ext.alphabet)
    sets = chain_sets(build_chain_graph(omega, ext.alphabet), truncation)
    hilbert = hilbert_series(sets, omega, ext.alphabet, truncation)
    return ReesInvariants(presentation, growth, hilbert, sets)


def check_associated_graded(
    presentation: ReesPresentation, lh_basis: tuple[Poly, ...]
) -> None:
    """Setting T = 0 in the verified Rees basis G~ gives lh(G): each
    homogenized relation keeps exactly its top-degree terms, and each
    commutator X_i*T - T*X_i vanishes."""
    t = presentation.ext.t_index
    for k, g in enumerate(presentation.basis.elements):
        at_zero = Poly({w: c for w, c in g.terms.items() if t not in w})
        if at_zero != (lh_basis[k] if k < len(lh_basis) else Poly()):
            raise CrossCheckError(
                f"setting T = 0 in Rees relation {k + 1} does not give "
                "the leading homogeneous part of G"
            )


def check_transfer(rees: ReesInvariants, sets: ChainSets, growth: GrowthClass) -> None:
    """Assert the Rees invariants against the base chain sets and growth:
    the base chain graph plus a sink T is the Rees one, equal finiteness,
    global dimension + 1, C~_i(t) = C_i(t) + t*C_{i-1}(t) on the counted
    levels, and GK degree + 1 for polynomial growth, exponential growth
    otherwise.  Both chain sets must be counted to the same truncation."""
    _check_graph_embedding(rees.sets.graph, sets.graph, rees.presentation.ext)
    if sets.finite != rees.sets.finite:
        raise CrossCheckError("Rees chain finiteness differs from the base")
    if sets.finite and rees.gldim != sets.gldim + 1:
        raise CrossCheckError("Rees global dimension is not base + 1")
    _check_level_counts(rees.sets, sets)
    if growth.is_polynomial:
        if rees.growth.exponential or rees.growth.degree != growth.degree + 1:
            raise CrossCheckError("Rees growth degree is not base + 1")
    elif rees.growth.is_polynomial:
        raise CrossCheckError("Rees growth is polynomial over an exponential base")
