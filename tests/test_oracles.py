"""Randomized monomial-set corpus: chain formulas versus direct enumeration.

Every case is an interreduced obstruction set over 2 or 3 weighted letters.
The counting formulas under test (normal-word automaton, chain counts and
denominator, growth-graph path counts, Rees level decomposition) are
compared against a plain brute-force search that knows nothing about any of
them.
"""

import random
from functools import lru_cache
from itertools import product

import pytest

import ncdim.chains
from ncdim import (
    Alphabet,
    GroebnerBasis,
    MonomialOrder,
    MonomialSet,
    Poly,
    ChainGraph,
    GrowthClass,
    InputError,
    UfnarovskiGraph,
    automaton_growth,
    build_ufnarovski,
    extend_alphabet,
    rees_invariants,
)
from ncdim.chains import (
    ROOT,
    _by_length,
    build_chain_graph,
    chain_denominator,
    chain_sets,
    expand_reciprocal,
)
from ncdim.growth import MAX_WINDOWS, _check_witness, _classify, _two_cycles
from presets import commutation
from references import chain_level, contains_factor, count_paths, flat_normal_steps

MAX_LEN = 8
MAX_DEG = 8


def _corpus():
    rng = random.Random(74021)
    cases = []
    while len(cases) < 50:
        n = rng.choice([2, 3])
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        words = [
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), weights)
        cases.append((alphabet, MonomialSet.interreduce(words, alphabet)))
    return cases


CASES = _corpus()


@lru_cache(maxsize=None)
def brute_counts(index):
    """Normal-word counts by length and by weighted degree, by plain search."""
    alphabet, omega = CASES[index]
    by_length = [0] * (MAX_LEN + 1)
    by_degree = [0] * (MAX_DEG + 1)
    by_length[0] = by_degree[0] = 1
    frontier = [()]
    for _ in range(MAX_LEN):
        extended = []
        for w in frontier:
            for a in range(alphabet.n):
                z = w + (a,)
                if any(contains_factor(z, p) for p in omega.words):
                    continue
                extended.append(z)
                by_length[len(z)] += 1
                d = alphabet.degree(z)
                if d <= MAX_DEG:
                    by_degree[d] += 1
        frontier = extended
    return by_length, by_degree


def capped_sets(graph):
    # a small cap keeps never-vanishing chain listings cheap; the listing
    # reads it when first built
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 8)
        sets = chain_sets(graph)
        sets.levels
        return sets


def test_corpus_is_mixed():
    assert {alphabet.n for alphabet, _ in CASES} == {2, 3}
    finite = sum(
        capped_sets(build_chain_graph(omega)).finite
        for alphabet, omega in CASES
    )
    assert 10 <= finite <= 40


@pytest.mark.parametrize("index", range(50))
def test_normal_word_counter_matches_enumeration(index):
    alphabet, omega = CASES[index]
    _, by_degree = brute_counts(index)
    assert omega.count_normal(MAX_DEG) == by_degree


@pytest.mark.parametrize("index", range(50))
def test_chain_denominator_expands_to_normal_word_counts(index):
    # exact D(t) for finite chain sets, D(t) mod t^(MAX_DEG + 1) otherwise
    alphabet, omega = CASES[index]
    sets = chain_sets(build_chain_graph(omega), truncation=MAX_DEG)
    _, by_degree = brute_counts(index)
    assert expand_reciprocal(chain_denominator(sets), MAX_DEG) == by_degree


@pytest.mark.parametrize("index", range(50))
def test_growth_graph_path_counts_match_enumeration(index):
    alphabet, omega = CASES[index]
    graph = build_ufnarovski(omega)
    by_length, _ = brute_counts(index)
    start = max(graph.omega.ell, 1) - 1
    for length in range(start, MAX_LEN + 1):
        assert count_paths(graph, length - start) == by_length[length]


def brute_chain_edges(omega, alphabet):
    """Chain-graph edges from the definition: u -> v iff exactly one
    obstruction is a suffix of uv and uv minus its last letter contains none;
    a sink maps to ()."""
    live = [(i,) for i in range(alphabet.n) if (i,) not in omega]
    suffixes = {w[k:] for w in omega.words for k in range(1, len(w))}
    vertices = sorted(set(live) | suffixes, key=lambda w: (len(w), w))
    edges = {(): tuple(live)}
    for u in vertices:
        targets = []
        for v in vertices:
            z = u + v
            ends = [w for w in omega.words if z[len(z) - len(w):] == w]
            if len(ends) == 1 and not any(
                contains_factor(z[:-1], w) for w in omega.words
            ):
                targets.append(v)
        edges[u] = tuple(targets)
    return edges


def rees_omega(omega, alphabet):
    """The Rees set: Omega plus X_i T for every live letter."""
    ext_alphabet = extend_alphabet(alphabet)
    return ext_alphabet, MonomialSet(
        list(omega.words)
        + [(i, alphabet.n) for i in range(alphabet.n) if (i,) not in omega],
        ext_alphabet,
    )


@pytest.mark.parametrize("index", range(50))
def test_chain_graph_edges_match_definition(index):
    alphabet, omega = CASES[index]
    assert build_chain_graph(omega).edges == brute_chain_edges(
        omega, alphabet
    )
    ext_alphabet, ext_omega = rees_omega(omega, alphabet)
    assert build_chain_graph(ext_omega).edges == brute_chain_edges(
        ext_omega, ext_alphabet
    )


def brute_chain_counts(omega, alphabet, top, levels):
    """Chains per level and weighted degree on at most ``levels`` levels, by
    listing every chain word of degree at most ``top`` (None = any) as a
    route over the edges of the definition."""
    edges = brute_chain_edges(omega, alphabet)
    routes = [(v, v) for v in edges[()]]
    counts = []
    while len(counts) < levels:
        routes = [
            (tail, word) for tail, word in routes
            if top is None or alphabet.degree(word) <= top
        ]
        if not routes:
            return tuple(counts)
        level = [0] * (1 + max(alphabet.degree(word) for _, word in routes))
        for _, word in routes:
            level[alphabet.degree(word)] += 1
        counts.append(tuple(level))
        routes = [(s, word + s) for tail, word in routes for s in edges[tail]]
    return tuple(counts)


@pytest.mark.parametrize("index", range(50))
def test_chain_counts_match_enumeration(index):
    alphabet, omega = CASES[index]
    for letters, words in ((alphabet, omega), rees_omega(omega, alphabet)):
        sets = chain_sets(build_chain_graph(words), truncation=MAX_DEG)
        # one level more than counted shows a finite set that goes deeper
        top = None if sets.finite else MAX_DEG
        levels = len(sets.counts) + 1
        assert sets.counts == brute_chain_counts(words, letters, top, levels)


@pytest.mark.parametrize("index", range(50))
def test_rees_invariants_and_level_decomposition(index, monkeypatch):
    alphabet, omega = CASES[index]
    basis = GroebnerBasis(
        [Poly.monomial(w) for w in omega.words], MonomialOrder(alphabet)
    )
    with monkeypatch.context() as patch:
        patch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 8)
        inv = rees_invariants(basis, truncation=MAX_DEG)
        inv.sets.levels
    t = inv.basis.order.homogenizer
    sets = capped_sets(build_chain_graph(omega))

    # T never starts a chain step, and every base-letter vertex can take one
    assert inv.graph.edges[(t,)] == ()
    for v in inv.graph.vertices:
        if v and v != (t,) and v[-1] != t:
            assert (t,) in inv.graph.edges[v]

    for i, level in enumerate(inv.sets.levels):
        expected = set(chain_level(sets, i)) | {c + (t,) for c in chain_level(sets, i - 1)}
        assert set(level) == expected

    if inv.sets.finite and inv.sets.levels:
        assert all(w[-1] == t for w in inv.sets.levels[-1])


# The routines that the automaton's normal steps and its overlap walk
# replaced, kept verbatim as references; the two automaton methods the
# growth search called, step and is_terminal, are read off the tables.

def reference_count_normal(automaton, weights, up_to):
    """Number of pattern-avoiding words per weighted degree 0..up_to."""
    n_states = len(automaton._goto)
    table = [[0] * n_states for _ in range(up_to + 1)]
    table[0][0] = 1
    goto, out = automaton._goto, automaton._out
    letters = list(enumerate(weights))
    counts = []
    for d in range(up_to + 1):
        row = table[d]
        counts.append(sum(row))
        for state, c in enumerate(row):
            if not c:
                continue
            for a, w in letters:
                nd = d + w
                if nd > up_to:
                    continue
                t = goto[state].get(a, 0)
                if not out[t]:
                    table[nd][t] += c
    return counts


def reference_growth_search(omega, alphabet):
    """The states and steps the growth class was read from."""
    automaton = omega.automaton
    letters = range(alphabet.n)
    states = [0]
    edges = []  # (state, next state, letter)
    seen = {0}
    for state in states:
        for a in letters:
            nxt = automaton._goto[state].get(a, 0)
            if automaton._out[nxt]:
                continue
            edges.append((state, nxt, a))
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    return states, edges


def reference_growth(omega, alphabet):
    states, edges = reference_growth_search(omega, alphabet)
    branching, degree = _classify(states, [e[:2] for e in edges])
    if branching is None:
        return GrowthClass(False, degree)
    steps = {s: [] for s in states}
    for s, t, a in edges:
        steps[s].append((a, t))
    witness = _two_cycles(steps, set(branching), max(omega.ell, 1))
    _check_witness(omega, witness)
    return GrowthClass(True, None, witness)


def reference_ufnarovski(omega):
    alphabet, ell = omega.alphabet, max(omega.ell, 1)
    windows = alphabet.n ** (ell - 1)
    if windows > MAX_WINDOWS:
        raise InputError(f"the Ufnarovski graph has {windows} candidate vertices "
                         f"({alphabet.n}^{ell - 1}), over the limit of {MAX_WINDOWS}")
    # product() yields (len, w) order and the loop appends in (v, w, a) order
    vertices = [
        w for w in product(range(alphabet.n), repeat=ell - 1) if omega.is_normal(w)
    ]
    edges = []
    for v in vertices:
        for a in range(alphabet.n):
            w = v + (a,)
            if omega.is_normal(w):
                edges.append((v, w[1:], a))
    return UfnarovskiGraph(omega, tuple(vertices), tuple(edges))


def reference_chain_graph(omega):
    alphabet = omega.alphabet
    live = [i for i in range(alphabet.n) if (i,) not in omega]
    vertices = {ROOT}
    vertices.update((i,) for i in live)
    for w in omega.words:
        for k in range(1, len(w)):
            vertices.add(w[k:])
    ordered = sorted(vertices, key=_by_length)
    edges = {ROOT: tuple(sorted((i,) for i in live))}
    for u in ordered[1:]:
        targets = [
            w[k:]
            for w in omega.words
            for k in range(1, min(len(u), len(w) - 1) + 1)
            if u[-k:] == w[:k] and omega.is_normal(u + w[k:-1])
        ]
        edges[u] = tuple(sorted(targets, key=_by_length))
    return ChainGraph(omega, edges)


def _outcome(build, omega):
    try:
        return build(omega)
    except InputError as exc:
        return str(exc)


def seeded_sets(count, seed=60917):
    """Interreduced obstruction sets on 1-3 letters of weights 1-3, words of
    1-6 letters, the empty set included."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 3)
        alphabet = Alphabet(
            tuple(f"x{i + 1}" for i in range(n)), tuple(rng.randint(1, 3) for _ in range(n))
        )
        words = [
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(0, 4))
        ]
        cases.append((alphabet, MonomialSet.interreduce(words, alphabet)))
    return cases


CORPORA = {
    "oracle": CASES,
    "rees": [rees_omega(omega, alphabet) for alphabet, omega in CASES],
    "seeded": seeded_sets(300),
}


def test_seeded_sets_are_mixed():
    cases = CORPORA["seeded"]
    assert sum(not omega.words for _, omega in cases) >= 5
    assert sum(omega.ell >= 5 for _, omega in cases) >= 50
    assert {alphabet.weights for alphabet, _ in cases if alphabet.n == 2} >= {(1, 2), (3, 1)}
    growth = [automaton_growth(omega) for _, omega in cases]
    assert 50 <= sum(g.exponential for g in growth) <= 250


def flat_steps(omega):
    """``omega.normal_steps`` as one list of (state, next state, letter)."""
    return [(s, t, a) for s, out in omega.normal_steps.items() for a, t in out]


def _special_sets():
    """PBW Omega and its Rees Omega~, x1^k, the free algebra and dead letters."""
    ab = Alphabet(("x1", "x2"), (1, 1))
    pbw = commutation(4)
    return [pbw.omega, rees_invariants(pbw).basis.omega] + [
        MonomialSet(words, ab)
        for words in ([(0,) * 2], [(0,) * 20], [(0,) * 256], [], [(0,)], [(0,), (1,)])
    ]


def test_normal_steps_flatten_to_the_flat_walk():
    # the witness and the Ufnarovski orders depend on this order
    sets = [omega for cases in CORPORA.values() for _, omega in cases] + _special_sets()
    for omega in sets:
        assert flat_steps(omega) == flat_normal_steps(omega.automaton, omega.alphabet.n)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
class TestAgainstReplacedRoutines:
    """Each reader of the normal steps, and the chain-edge walk, gives what
    the routine it replaced gave."""

    def test_count_normal(self, corpus):
        for alphabet, omega in CORPORA[corpus]:
            expected = reference_count_normal(omega.automaton, alphabet.weights, 14)
            assert omega.count_normal(14) == expected

    def test_growth(self, corpus):
        for alphabet, omega in CORPORA[corpus]:
            _, edges = reference_growth_search(omega, alphabet)
            assert flat_steps(omega) == edges
            assert automaton_growth(omega) == reference_growth(omega, alphabet)

    def test_ufnarovski(self, corpus):
        for alphabet, omega in CORPORA[corpus]:
            assert _outcome(build_ufnarovski, omega) == _outcome(reference_ufnarovski, omega)

    def test_chain_graph(self, corpus):
        for alphabet, omega in CORPORA[corpus]:
            graph = build_chain_graph(omega)
            reference = reference_chain_graph(omega)
            assert graph == reference
            assert list(graph.edges) == list(reference.edges)
