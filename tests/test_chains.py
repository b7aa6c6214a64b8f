import itertools
import json
import re
import math
import random
from pathlib import Path

import pytest

import ncdim.chains
import ncdim.render
from ncdim import (
    Alphabet,
    CrossCheckError,
    GroebnerBasis,
    MonomialOrder,
    MonomialSet,
    Poly,
    analyze,
    build_chain_graph,
    build_ufnarovski,
    chain_sets,
    hilbert_series,
    load_presentation,
    product_form_decomposition,
    render_report,
    tilde_basis,
)
from ncdim.chains import (
    MAX_LISTED_CHAINS,
    ROOT,
    ChainGraph,
    ChainSets,
    chain_denominator,
    expand_reciprocal,
)
from ncdim.cli import main
from ncdim.growth import MAX_WINDOWS
from ncdim.render import dot_digraph, word_str
from ncdim.rewrite import FactorAutomaton
from presets import commutation, heisenberg, power_family, weyl
from references import chain_level, json_report, listed_chain_words, poly_mul
from test_rees import random_antichains

DOWN_UP_FILE = str(Path(__file__).resolve().parent.parent / "presentations" / "down_up.json")
DEAD_LETTER_FILE = Path(__file__).resolve().parent / "golden" / "inputs" / "dead_letter.json"

AB = Alphabet(("x1", "x2"), (1, 1))
AB_W = Alphabet(("x1", "x2"), (1, 3))
ONE = Alphabet(("x",), (1,))

DOWN_UP = MonomialSet(((0, 0, 1), (0, 1, 1)), AB)
SKEW = MonomialSet(((1, 0),), AB)
ALL_SQUARES = MonomialSet(((0, 0), (0, 1), (1, 0), (1, 1)), AB)


def commutation_omega(alphabet):
    n = alphabet.n
    return MonomialSet(tuple((j, i) for j in range(n) for i in range(j)), alphabet)


def sets_of(omega):
    return chain_sets(build_chain_graph(omega))


def series(omega, truncation=16):
    return hilbert_series(chain_sets(build_chain_graph(omega), truncation))


class TestBuildChainGraph:
    def test_down_up_graph(self):
        graph = build_chain_graph(DOWN_UP)
        assert graph.vertices == ((), (0,), (1,), (0, 1), (1, 1))
        assert graph.edges == {
            (): ((0,), (1,)),
            (0,): ((0, 1), (1, 1)),
            (1,): (),
            (0, 1): ((1,),),
            (1, 1): (),
        }
        assert graph.edges[(1,)] == ()

    def test_skew_graph(self):
        graph = build_chain_graph(SKEW)
        assert graph.vertices == ((), (0,), (1,))
        assert graph.edges == {(): ((0,), (1,)), (0,): (), (1,): ((0,),)}

    def test_root_edges_skip_dead_letters(self):
        graph = build_chain_graph(MonomialSet(((0,),), AB))
        assert graph.vertices == ((), (1,))
        assert graph.edges == {(): ((1,),), (1,): ()}

    def test_no_live_letters(self):
        graph = build_chain_graph(MonomialSet(((0,), (1,)), AB))
        assert graph.edges == {(): ()}

    def test_normality_queries_only_on_overlaps(self, monkeypatch):
        # one query per edge; testing every vertex pair would make V^2
        # queries (1681 and 1764), and testing each border of each vertex
        # of x1^800 about 320k queries of about 800 letters each
        calls = 0
        original = MonomialSet.is_normal

        def counted(self, word):
            nonlocal calls
            calls += 1
            return original(self, word)

        monkeypatch.setattr(MonomialSet, "is_normal", counted)
        basis = power_family(40)
        rees = tilde_basis(basis)
        for omega, limit in (
            (basis.omega, 1),
            (rees.omega, 42),
            (MonomialSet(((0,) * 800,), AB), 2 * 800),
        ):
            calls = 0
            build_chain_graph(omega)
            assert calls <= limit


@pytest.fixture
def bogus_edge(monkeypatch):
    """Every vertex gets one more edge, to a word that repeats an obstruction."""
    original = FactorAutomaton.overlap_tails

    def tails(self, word):
        return original(self, word) + [self._words[0] * 2]

    monkeypatch.setattr(FactorAutomaton, "overlap_tails", tails)


class TestEdgeCertificate:
    def test_build_raises(self, bogus_edge):
        with pytest.raises(CrossCheckError, match="chain graph edge is not normal"):
            build_chain_graph(DOWN_UP)

    def test_report_exits_4(self, bogus_edge, capsys):
        assert main(["report", DOWN_UP_FILE]) == 4
        assert "chain graph edge is not normal" in capsys.readouterr().err


class TestPairs:
    def test_pairs_flatten_the_successor_lists(self):
        graph = build_chain_graph(DOWN_UP)
        assert graph.pairs == (
            (ROOT, (0,)), (ROOT, (1,)), ((0,), (0, 1)), ((0,), (1, 1)), ((0, 1), (1,))
        )


class TestChainSets:
    def test_down_up_levels(self):
        sets = chain_sets(build_chain_graph(DOWN_UP))
        assert sets.finite
        assert sets.levels == (
            ((0,), (1,)),
            ((0, 0, 1), (0, 1, 1)),
            ((0, 0, 1, 1),),
        )

    def test_level_zero_is_live_letters_and_level_one_is_omega(self):
        abc = Alphabet(("a", "b", "c"), (1, 1, 1))
        for omega, alphabet in ((DOWN_UP, AB), (SKEW, AB), (commutation_omega(abc), abc)):
            sets = chain_sets(build_chain_graph(omega))
            assert chain_level(sets, 0) == tuple(sorted((i,) for i in range(alphabet.n)))
            assert set(chain_level(sets, 1)) == set(omega.words)

    def test_implicit_root_level(self):
        sets = chain_sets(build_chain_graph(DOWN_UP))
        assert chain_level(sets, -1) == (ROOT,)
        assert chain_level(sets, 99) == ()

    def test_infinite_chains_reported(self, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 5)
        sets = chain_sets(build_chain_graph(MonomialSet(((0, 0),), ONE)))
        assert not sets.finite
        assert len(sets.levels) == 5
        assert sets.levels[3] == ((0, 0, 0, 0),)

    def test_finite_sets_deeper_than_the_cap_are_counted(self, monkeypatch):
        graph = build_chain_graph(commutation_omega(Alphabet(tuple("abcde"), (1,) * 5)))
        with monkeypatch.context() as patch:
            patch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 3)
            capped = chain_sets(graph)
            capped.levels  # the listing reads the cap when it is first built
        assert capped.gldim == 5
        assert capped.truncated
        assert len(capped.levels) == 3
        assert chain_level(capped, 3) is None and chain_level(capped, 5) == ()
        full = chain_sets(graph)
        assert not full.truncated
        assert len(full.levels) == 5
        assert capped.counts == full.counts


def dfs_cycle_reachable(graph):
    """Reference for chain finiteness: a 3-colour DFS from the root that
    reports a cycle as soon as it meets a vertex still on its path."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph.vertices}
    stack = [(ROOT, iter(graph.edges[ROOT]))]
    color[ROOT] = GRAY
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if color[w] == GRAY:
                return True
            if color[w] == WHITE:
                color[w] = GRAY
                stack.append((w, iter(graph.edges[w])))
                advanced = True
                break
        if not advanced:
            color[v] = BLACK
            stack.pop()
    return False


def _random_obstructions(rng):
    n = rng.randint(1, 3)
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), (1,) * n)
    words = [
        tuple(rng.randrange(n) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(1, 5))
    ]
    if rng.random() < 0.3:
        words.append((rng.randrange(n),) * 2)  # a square: a self-loop at its letter
    return alphabet, MonomialSet.interreduce(words, alphabet)


def omega_cases(*bases):
    return [(basis.order.alphabet, basis.omega) for basis in bases]


T_X, X_T = Alphabet(("T", "x"), (1, 1)), Alphabet(("x", "T"), (1, 2))
# (alphabet, Omega) pairs whose chain listing is compared with the reference
LISTING_CASES = {
    "random antichains": lambda: random_antichains(300),
    "down-up, all-squares, x1^k": lambda: [(AB, DOWN_UP), (AB, ALL_SQUARES)] + [
        (AB, MonomialSet(((0,) * k,), AB)) for k in (1, 2, 5, 20)
    ],
    "weighted": lambda: [
        (AB_W, MonomialSet(omega.words, AB_W)) for omega in (SKEW, DOWN_UP, ALL_SQUARES)
    ],
    "dead letter": lambda: omega_cases(load_presentation(DEAD_LETTER_FILE)),
    "pbw": lambda: omega_cases(
        *(commutation(n) for n in (2, 5, 13)), weyl(2), heisenberg(1)
    ),
    "letter named T": lambda: [
        (T_X, MonomialSet(((0, 1), (1, 1)), T_X)),
        (X_T, MonomialSet(ALL_SQUARES.words, X_T)),
    ],
}


def vertex_lengths(omega):
    """The lengths of the chain graph's vertices other than the root."""
    return {len(v) for v in build_chain_graph(omega).vertices[1:]}


def seeded_long_antichains(count, seed=2718):
    """Interreduced obstruction sets of words of 2-5 letters on 2-3
    letters whose chain graphs have vertices of more than one length."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(2, 3)
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), (1,) * n)
        words = [
            tuple(rng.randrange(n) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 4))
        ]
        omega = MonomialSet.interreduce(words, alphabet)
        if len(vertex_lengths(omega)) > 1:
            cases.append((alphabet, omega))
    return cases


# The listing sorts no level of the first cases, and every level of the second.
def one_vertex_length():
    return omega_cases(*(commutation(n) for n in range(1, 7))) + [
        (AB, ALL_SQUARES), (AB, MonomialSet(((0, 0),), AB))
    ]


def mixed_vertex_lengths():
    return [(AB, DOWN_UP)] + [
        (AB, MonomialSet(((0,) * k,), AB)) for k in (3, 5, 9)
    ] + seeded_long_antichains(100)


class TestListingAgainstTheWordOnlyReference:
    """The listing keeps the words of the word-only reference, level by
    level in the same order, and each text is what word_str prints."""

    @staticmethod
    def check(alphabet, omega):
        sets = chain_sets(build_chain_graph(omega))
        listing = sets.listing
        assert listing.levels == listed_chain_words(sets)
        assert sets.levels is listing.levels
        assert len(listing.texts) == len(listing.levels)
        for words, texts in zip(listing.levels, listing.texts):
            assert texts == tuple(word_str(w, alphabet) for w in words)
        return sets

    @pytest.mark.parametrize("case", list(LISTING_CASES))
    def test_cases(self, case):
        for alphabet, omega in LISTING_CASES[case]():
            self.check(alphabet, omega)

    def test_a_smaller_budget(self, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_CHAINS", 64)
        sets = self.check(AB, ALL_SQUARES)
        assert [len(words) for words in sets.levels] == [2, 4, 8, 16, 32]

    @pytest.mark.parametrize("budget", [MAX_LISTED_CHAINS, 40, 7])
    @pytest.mark.parametrize(
        "cases,lengths", [(one_vertex_length, 1), (mixed_vertex_lengths, 2)],
        ids=["one vertex length", "mixed vertex lengths"],
    )
    def test_levels_in_order_with_and_without_the_sort(
        self, cases, lengths, budget, monkeypatch
    ):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_CHAINS", budget)
        cut = 0
        for alphabet, omega in cases():
            assert min(len(vertex_lengths(omega)), 2) == lengths
            sets = self.check(alphabet, omega)
            # the budget stopped the listing before a level it would not fit
            cut += sets.truncated and len(sets.levels) < ncdim.chains.MAX_LISTED_LEVELS
        assert cut or budget == MAX_LISTED_CHAINS

    def test_names_only_the_vertices_of_listed_routes(self, monkeypatch):
        # x1^1024: 1025 chain-graph vertices, but the routes of the 64 listed
        # levels pass through x1, x2 and x1^1023 only
        sets = sets_of(MonomialSet([(0,) * 1024], AB))
        assert len(sets.graph.vertices) == 1025
        named = []
        original = ncdim.render.word_str

        def logged(word, alphabet):
            named.append(word)
            return original(word, alphabet)

        monkeypatch.setattr(ncdim.render, "word_str", logged)
        listing = sets.listing
        assert len(listing.levels) == ncdim.chains.MAX_LISTED_LEVELS
        through, tails = set(), set(sets.graph.edges[ROOT])
        for _ in listing.levels:
            through |= tails
            tails = {s for v in tails for s in sets.graph.edges[v]}
        assert sorted(named) == sorted(through) == [(0,), (0,) * 1023, (1,)]


class TestTextsWithoutChainWords:
    """When every obstruction has at most two letters, the reports print the
    chain texts and no chain word is built until ``levels`` is read."""

    @pytest.mark.parametrize("budget", [MAX_LISTED_CHAINS, 64])
    @pytest.mark.parametrize("case", ["commutation(6)", "all-squares"])
    def test_reports_build_no_chain_word(self, case, budget, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_CHAINS", budget)
        if case == "commutation(6)":
            report = analyze(commutation(6))
        else:
            squares = [Poly.monomial(w) for w in ALL_SQUARES.words]
            report = analyze(GroebnerBasis(squares, MonomialOrder(AB)))
        sets = report.monomial.sets
        assert vertex_lengths(report.basis.omega) == {1}
        assert render_report(report, "json") == json_report(report).encode("ascii")
        render_report(report, "text")
        assert "levels" not in vars(sets.listing)
        assert sets.levels == listed_chain_words(sets)
        assert "levels" in vars(sets.listing)
        if case == "all-squares":  # 2^(i + 1) chains on level i, to the budget
            assert len(sets.levels) == (5 if budget == 64 else 11) and sets.truncated
        else:  # 63 chains
            assert sum(map(len, sets.levels)) == 63 and not sets.truncated

    def test_the_sorted_walk_keeps_its_words(self):
        # down-up and x1^5 have vertices of two lengths
        sets = sets_of(DOWN_UP)
        assert sets.listing.texts == (("x1", "x2"), ("x1*x1*x2", "x1*x2*x2"), ("x1*x1*x2*x2",))
        assert vars(sets.listing)["levels"] == (
            ((0,), (1,)), ((0, 0, 1), (0, 1, 1)), ((0, 0, 1, 1),)
        )
        sets = sets_of(MonomialSet(((0,) * 5,), AB))
        assert "levels" in vars(sets.listing)
        # C_i is x1^(5k) for i = 2k - 1 and x1^(5k + 1) for i = 2k
        assert sets.levels == (((0,), (1,)),) + tuple(
            ((0,) * (5 * ((i + 1) // 2) + (i % 2 == 0)),) for i in range(1, 64)
        )
        assert sets.listing.texts[:3] == (("x1", "x2"), ("x1*" * 4 + "x1",), ("x1*" * 5 + "x1",))
        assert sets.levels == listed_chain_words(sets)


class TestFinitenessAgainstDfs:
    """Chain finiteness read off the strong components equals the verdict of
    the depth-first search it replaced."""

    @staticmethod
    def agree(omega):
        graph = build_chain_graph(omega)
        cyclic = dfs_cycle_reachable(graph)
        assert ncdim.chains._cycle_reachable(graph) == cyclic
        assert chain_sets(graph, truncation=4).finite == (not cyclic)
        return graph

    def test_oracle_cases_and_their_rees_sets(self):
        from test_oracles import CASES, rees_omega

        for alphabet, omega in CASES:
            self.agree(omega)
            _, ext_omega = rees_omega(omega, alphabet)
            self.agree(ext_omega)

    def test_seeded_random_sets(self):
        rng = random.Random(61417)
        finite = self_loops = 0
        for _ in range(300):
            _, omega = _random_obstructions(rng)
            graph = self.agree(omega)
            finite += not dfs_cycle_reachable(graph)
            self_loops += any(v in graph.edges[v] for v in graph.vertices[1:])
        assert 30 <= finite <= 270
        assert self_loops >= 30


class TestChainCounts:
    def test_down_up_counts(self):
        sets = chain_sets(build_chain_graph(DOWN_UP))
        assert sets.counts == ((0, 2), (0, 0, 0, 2), (0, 0, 0, 0, 1))
        # N is kept for the series, though finite sets are counted exactly
        assert sets.truncation == 16

    def test_weighted_counts(self):
        # C_0 = {x1, x2} of degrees 1 and 3, C_1 = {x2*x1} of degree 4
        sets = chain_sets(build_chain_graph(MonomialSet(SKEW.words, AB_W)))
        assert sets.counts == ((0, 1, 0, 1), (0, 0, 0, 0, 1))

    def test_infinite_sets_are_counted_to_the_truncation(self):
        # x^2: C_i = {x^(i+1)}, so degrees 1..6 fill levels 0..5
        graph = build_chain_graph(MonomialSet(((0, 0),), ONE))
        sets = chain_sets(graph, truncation=6)
        assert sets.truncation == 6
        assert sets.counts == tuple((0,) * (i + 1) + (1,) for i in range(6))
        assert len(sets.levels) == 64 and not sets.truncated
        assert chain_sets(graph, truncation=0).counts == ()

    def test_budget_cuts_the_listing_of_branching_sets(self):
        # all-squares: C_i is every word of length i + 1, 2^(i+1) chains
        sets = chain_sets(build_chain_graph(ALL_SQUARES))
        assert not sets.finite and sets.truncated
        assert sets.counts == tuple(
            (0,) * (i + 1) + (2 ** (i + 1),) for i in range(16)
        )
        listed = sum(map(len, sets.levels))
        assert listed <= MAX_LISTED_CHAINS < listed + 2 ** (len(sets.levels) + 1)
        assert [len(level) for level in sets.levels] == [2 ** (i + 1) for i in range(11)]
        assert chain_level(sets, 11) is None

    def test_commutation_20_is_counted_without_listing_it(self, monkeypatch):
        # 2^20 - 1 chains: the DP takes one step per (level, vertex) pair and
        # the listing one per listed chain, never one per chain
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(20)), (1,) * 20)
        graph = build_chain_graph(commutation_omega(alphabet))
        steps = 0

        class Counted(dict):
            def __getitem__(self, v):
                nonlocal steps
                steps += 1
                return super().__getitem__(v)

            def get(self, v, default=None):
                nonlocal steps
                steps += 1
                return super().get(v, default)

        sets = chain_sets(ChainGraph(graph.omega, Counted(graph.edges)))
        assert sets.gldim == 20
        assert sets.counts == tuple(
            (0,) * (i + 1) + (math.comb(20, i + 1),) for i in range(20)
        )
        assert sets.truncated
        assert sum(map(len, sets.levels)) <= MAX_LISTED_CHAINS
        assert steps <= MAX_LISTED_CHAINS + 3 * 21 * len(graph.vertices)


def bounded_reads(graph):
    """``graph`` with an ``edges`` mapping that raises AssertionError once
    more than (|V| + 1)^2 successor lists are read: a level count that has
    run past |V| levels fails instead of looping."""
    bound, reads = (len(graph.vertices) + 1) ** 2, 0

    class Bounded(dict):
        def __getitem__(self, v):
            nonlocal reads
            reads += 1
            assert reads <= bound, f"over {bound} successor reads: the level count loops"
            return super().__getitem__(v)

    return ChainGraph(graph.omega, Bounded(graph.edges))


class TestWrongFinitenessVerdict:
    """Finite chain sets have fewer levels than the chain graph has
    vertices, so a missed cycle stops the count instead of looping."""

    @pytest.fixture(autouse=True)
    def no_cycle_seen(self, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "_cycle_reachable", lambda graph: False)
        count = ncdim.chains.chain_sets
        monkeypatch.setattr(ncdim.chains, "chain_sets",
                            lambda graph, truncation: count(bounded_reads(graph), truncation))

    MESSAGE = "chain sets judged finite have as many levels as the chain graph has vertices"

    def test_chain_sets_raise(self):
        with pytest.raises(CrossCheckError, match=self.MESSAGE):
            chain_sets(bounded_reads(build_chain_graph(ALL_SQUARES)))

    def test_report_exits_4(self, tmp_path, capsys):
        path = write_presentation(tmp_path, ["x1^2", "x1*x2", "x2*x1", "x2^2"])
        assert main(["report", path]) == 4
        assert self.MESSAGE in capsys.readouterr().err


class TestGlobalDimension:
    def test_worked_examples(self):
        assert sets_of(DOWN_UP).gldim == 3
        assert sets_of(SKEW).gldim == 2
        assert sets_of(MonomialSet(((1, 1, 0),), AB)).gldim == 2
        assert sets_of(commutation_omega(Alphabet(tuple("abcd"), (1,) * 4))).gldim == 4

    def test_free_algebra_has_dimension_one(self):
        assert sets_of(MonomialSet.interreduce([], AB)).gldim == 1

    def test_scalars_have_dimension_zero(self):
        assert sets_of(MonomialSet(((0,), (1,)), AB)).gldim == 0

    def test_infinite_dimension(self):
        assert sets_of(MonomialSet(((0, 0),), ONE)).gldim is None


class TestExpandReciprocal:
    def test_geometric(self):
        assert expand_reciprocal((1, -1), 5) == [1, 1, 1, 1, 1, 1]
        assert expand_reciprocal((1, -2), 5) == [1, 2, 4, 8, 16, 32]

    def test_square(self):
        assert expand_reciprocal((1, -2, 1), 6) == [1, 2, 3, 4, 5, 6, 7]

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            expand_reciprocal((2, 1), 3)
        with pytest.raises(ValueError):
            expand_reciprocal((), 3)


class TestHilbertSeries:
    def test_down_up_series(self):
        h = series(DOWN_UP)
        assert h.closed_form
        assert h.denominator == (1, -2, 0, 2, -1)
        assert h.coefficients == (1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72, 81)

    def test_power_family_denominators(self):
        for n in (1, 2, 3):
            omega = MonomialSet(((1,) * n + (0,),), AB)
            h = series(omega)
            assert h.denominator == (1, -2) + (0,) * (n - 1) + (1,)

    def test_weighted_denominator(self):
        h = series(MonomialSet(SKEW.words, AB_W))
        assert h.denominator == (1, -1, 0, -1, 1)
        assert product_form_decomposition(h.denominator, 2) == [1, 3]

    def test_truncation_length(self):
        h = series(DOWN_UP, truncation=5)
        assert len(h.coefficients) == 6

    def test_infinite_chains_fall_back_to_counting(self):
        h = series(MonomialSet(((0, 0),), ONE), truncation=6)
        assert not h.closed_form
        assert h.denominator is None
        assert h.coefficients == (1, 1, 0, 0, 0, 0, 0)

    def test_expansion_matches_normal_word_counts(self):
        cases = [
            DOWN_UP,
            SKEW,
            MonomialSet(SKEW.words, AB_W),
            MonomialSet(((1, 1, 0),), AB),
            commutation_omega(Alphabet(tuple("abc"), (1, 1, 1))),
            MonomialSet(((0,),), AB),
        ]
        for omega in cases:
            h = series(omega, truncation=12)
            assert list(h.coefficients) == omega.count_normal(12)

    def test_dead_letter_series(self):
        h = series(MonomialSet(((0,),), AB))
        assert h.denominator == (1, -1)
        assert set(h.coefficients) == {1}

    def test_corrupt_denominator_is_caught(self, monkeypatch, capsys):
        original = ncdim.chains.chain_denominator

        def off_by_one(sets):
            den = original(sets)
            return (1, den[1] - 1) + den[2:]

        monkeypatch.setattr(ncdim.chains, "chain_denominator", off_by_one)
        with pytest.raises(CrossCheckError, match="does not invert"):
            series(DOWN_UP)
        assert main(["report", DOWN_UP_FILE]) == 4
        assert "does not invert to the normal-word counts" in capsys.readouterr().err


class TestChainDenominator:
    def test_signs_alternate_starting_negative(self):
        # D = 1 - (H_{C_0} - H_{C_1} + H_{C_2}) for the three down-up levels
        sets = chain_sets(build_chain_graph(DOWN_UP))
        assert chain_denominator(sets) == (1, -2, 0, 2, -1)

    def test_trailing_zeros_trimmed(self):
        sets = chain_sets(build_chain_graph(MonomialSet.interreduce([], AB)))
        assert chain_denominator(sets) == (1, -2)

    def test_reads_counts_not_words(self):
        sets = chain_sets(build_chain_graph(DOWN_UP))
        assert chain_denominator(sets) == (1, -2, 0, 2, -1)
        assert "listing" not in vars(sets)

    def test_infinite_sets_give_d_modulo_the_truncation(self):
        # all-squares: D = 1 - 2t + 4t^2 - ... = 1/(1 + 2t) mod t^6
        sets = chain_sets(build_chain_graph(ALL_SQUARES), truncation=5)
        assert chain_denominator(sets) == (1, -2, 4, -8, 16, -32)


def write_presentation(tmp_path, relations):
    path = tmp_path / "presentation.json"
    variables = [{"name": "x1"}, {"name": "x2"}]
    path.write_text(json.dumps({"variables": variables, "relations": relations}))
    return str(path)


class TestTruncatedIdentity:
    """With infinite chain sets, 1/D(t) mod t^(N+1) must still give the
    normal-word counts: a changed chain count stops the run with exit 4."""

    @pytest.mark.parametrize(
        "relations", [["x1^3"], ["x1^2", "x1*x2", "x2*x1", "x2^2"]],
        ids=["x1^3", "all-squares"],
    )
    def test_changed_count_is_caught(self, relations, tmp_path, monkeypatch, capsys):
        path = write_presentation(tmp_path, relations)
        original = ncdim.chains.chain_sets

        def one_more_chain(graph, truncation):
            sets = original(graph, truncation)
            level = sets.counts[1]
            counts = list(sets.counts)
            counts[1] = level[:-1] + (level[-1] + 1,)
            return ChainSets(sets.graph, sets.finite, tuple(counts), sets.truncation)

        monkeypatch.setattr(ncdim.chains, "chain_sets", one_more_chain)
        message = "the chain denominator D(t) mod t^17 does not invert"
        with pytest.raises(CrossCheckError, match=re.escape(message)):
            analyze(load_presentation(path))
        assert main(["report", path]) == 4
        assert message in capsys.readouterr().err


def partitions(total, parts, minimum=1):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def partition_search(den, m):
    """Reference product form: try every partition of deg D into m parts."""
    den = list(den)
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    for exponents in partitions(len(den) - 1, m):
        prod = [1]
        for e in exponents:
            prod = poly_mul(prod, [1] + [0] * (e - 1) + [-1])
        if prod == den:
            return list(exponents)
    return None


class TestProductForm:
    def test_agrees_with_partition_search(self):
        # every product of up to four factors (1 - t^e), e <= 4, each with
        # every single coefficient moved by one, for m around the true count
        outcomes = []
        for k in range(1, 5):
            for exponents in itertools.combinations_with_replacement(range(1, 5), k):
                den = [1]
                for e in exponents:
                    den = poly_mul(den, [1] + [0] * (e - 1) + [-1])
                variants = [den] + [
                    den[:i] + [den[i] + delta] + den[i + 1 :]
                    for i in range(1, len(den))
                    for delta in (-1, 1)
                ]
                for variant in variants:
                    for m in (k - 1, k, k + 1):
                        if m > 0:
                            expected = partition_search(variant, m)
                            assert product_form_decomposition(variant, m) == expected
                            outcomes.append(expected is not None)
        # the 69 unperturbed products are found at m = k
        assert len(outcomes) > 3000 and sum(outcomes) >= 69

    def test_positive_cases(self):
        assert product_form_decomposition((1, -2, 1), 2) == [1, 1]
        assert product_form_decomposition((1, -3, 3, -1), 3) == [1, 1, 1]
        assert product_form_decomposition((1, -2, 0, 2, -1), 3) == [1, 1, 2]
        assert product_form_decomposition((1, 0, -1), 1) == [2]
        assert product_form_decomposition((1, -1, 0, 0), 1) == [1]

    def test_exhaustive_search_proves_nonexistence(self):
        assert product_form_decomposition((1, -2, 0, 1), 2) is None
        assert product_form_decomposition((1, -2, 0, 0, 1), 2) is None
        assert product_form_decomposition((1, -3, 2, 1, -1), 3) is None

    def test_zero_factors(self):
        assert product_form_decomposition((1,), 0) == []
        with pytest.raises(ValueError):
            product_form_decomposition((1, -1), 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            product_form_decomposition((1, -1), -1)
        with pytest.raises(ValueError):
            product_form_decomposition((2, -1), 1)


class TestBuildersEmitLengthWordOrder:
    """Both graph builders give ``vertices`` and ``pairs`` in (length, word)
    order, so the DOT and listing outputs print them as they stand."""

    @staticmethod
    def check(omega):
        def by_length(w):
            return (len(w), w)

        graphs = [build_chain_graph(omega)]
        # x1^20 on two letters has 2^19 windows: its Ufnarovski graph is refused
        if omega.alphabet.n ** (max(omega.ell, 1) - 1) <= MAX_WINDOWS:
            graphs.append(build_ufnarovski(omega))
        for graph in graphs:
            assert list(graph.vertices) == sorted(graph.vertices, key=by_length)
            assert list(graph.pairs) == sorted(
                graph.pairs, key=lambda e: (by_length(e[0]), by_length(e[1]))
            )
        return len(graphs)

    def test_seeded_antichains(self):
        for _, omega in random_antichains(300):
            assert self.check(omega) == 2

    def test_pbw_and_its_rees_set(self):
        for pres in (commutation(5), heisenberg(2)):
            rees = tilde_basis(pres)
            assert self.check(pres.omega) == 2
            assert self.check(rees.omega) == 2

    def test_powers(self):
        assert self.check(MonomialSet(((0, 0),), AB)) == 2
        assert self.check(MonomialSet(((0,) * 20,), AB)) == 1

    def test_free_algebra_with_parallel_loops(self):
        omega = MonomialSet.interreduce([], AB)
        assert build_ufnarovski(omega).pairs == (((), ()), ((), ()))
        assert self.check(omega) == 2

    def test_dead_letter_input(self):
        basis = load_presentation(DEAD_LETTER_FILE)
        assert basis.omega.dead_letters
        assert self.check(basis.omega) == 2


class TestDot:
    def test_chain_graph_dot(self):
        dot = dot_digraph("chains", build_chain_graph(DOWN_UP))
        assert dot.splitlines()[0] == "digraph chains {"
        assert '"1" -> "x1";' in dot
        assert '"x1" -> "x1*x2";' in dot
