import itertools
import random

import pytest

from ncdim import (
    Alphabet,
    MonomialSet,
    automaton_growth,
    build_ufnarovski,
    extend_alphabet,
)
from ncdim.growth import classify_growth
from ncdim.render import dot_digraph
from references import count_paths
from test_acceptance import assert_valid_witness

AB = Alphabet(("x1", "x2"), (1, 1))
AB3 = Alphabet(("x1", "x2", "x3"), (1, 1, 1))
ONE = Alphabet(("x",), (1,))

DOWN_UP = MonomialSet(((0, 0, 1), (0, 1, 1)), AB)
POWER2 = MonomialSet(((1, 1, 0),), AB)


def brute_count_by_length(omega, n_letters, length):
    return sum(
        1
        for word in itertools.product(range(n_letters), repeat=length)
        if omega.is_normal(word)
    )


class TestBuildGraph:
    def test_down_up_graph(self):
        graph = build_ufnarovski(DOWN_UP)
        assert max(graph.omega.ell, 1) == 3
        assert set(graph.vertices) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert set(graph.edges) == {
            ((0, 0), (0, 0), 0),
            ((0, 1), (1, 0), 0),
            ((1, 0), (0, 0), 0),
            ((1, 0), (0, 1), 1),
            ((1, 1), (1, 0), 0),
            ((1, 1), (1, 1), 1),
        }

    def test_power_two_graph(self):
        graph = build_ufnarovski(POWER2)
        assert set(graph.vertices) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert set(graph.edges) == {
            ((0, 0), (0, 0), 0),
            ((0, 0), (0, 1), 1),
            ((0, 1), (1, 0), 0),
            ((0, 1), (1, 1), 1),
            ((1, 0), (0, 0), 0),
            ((1, 0), (0, 1), 1),
            ((1, 1), (1, 1), 1),
        }

    def test_empty_obstructions_one_vertex_with_loops(self):
        omega = MonomialSet.interreduce([], AB)
        graph = build_ufnarovski(omega)
        assert max(graph.omega.ell, 1) == 1
        assert graph.vertices == ((),)
        assert graph.edges == (((), (), 0), ((), (), 1))

    def test_dead_letter_drops_its_loop(self):
        graph = build_ufnarovski(MonomialSet(((0,),), AB))
        assert graph.vertices == ((),)
        assert graph.edges == (((), (), 1),)


def classify_both(omega):
    """The automaton's class, after checking that the graph classifies the
    same and that an exponential witness is made of the graph's edges."""
    graph = build_ufnarovski(omega)
    graph_growth = classify_growth(graph)
    fast = automaton_growth(omega)
    assert (fast.exponential, fast.degree) == (
        graph_growth.exponential, graph_growth.degree
    )
    if fast.exponential:
        assert_valid_witness(graph, fast.witness)
    else:
        assert fast.witness is None
    return fast


class TestClassification:
    def test_down_up_polynomial_of_degree_three(self):
        growth = classify_both(DOWN_UP)
        assert growth.is_polynomial and growth.degree == 3
        assert growth.witness is None

    def test_power_two_exponential(self):
        growth = classify_both(POWER2)
        assert growth.exponential

    def test_free_on_two_letters_exponential_with_loop_witness(self):
        growth = classify_both(MonomialSet.interreduce([], AB))
        assert growth.exponential
        assert growth.witness == ((), (0,), (1,))

    def test_free_on_one_letter_linear(self):
        growth = classify_both(MonomialSet.interreduce([], ONE))
        assert growth.is_polynomial and growth.degree == 1

    def test_nilpotent_is_degree_zero(self):
        growth = classify_both(MonomialSet(((0, 0),), ONE))
        assert growth.is_polynomial and growth.degree == 0

    def test_commutation_degree_equals_letter_count(self):
        omega = MonomialSet(((1, 0), (2, 0), (2, 1)), AB3)
        growth = classify_both(omega)
        assert growth.is_polynomial and growth.degree == 3

    def test_witness_cycles_share_a_vertex_and_differ(self):
        graph = build_ufnarovski(MonomialSet(((0, 0),), AB3))
        growth = classify_both(MonomialSet(((0, 0),), AB3))
        assert growth.exponential
        assert_valid_witness(graph, growth.witness)

    @pytest.mark.parametrize("k", [16, 64, 256])
    def test_witness_check_makes_one_normality_query_per_loop(self, k, monkeypatch):
        calls = []
        is_normal = MonomialSet.is_normal

        def counted(self, word):
            calls.append(len(word))
            return is_normal(self, word)

        monkeypatch.setattr(MonomialSet, "is_normal", counted)
        growth = automaton_growth(MonomialSet(((0,) * k,), AB))
        assert growth.exponential
        assert len(calls) == 2


class TestGkDimension:
    @staticmethod
    def gk_dimension(omega):
        growth = automaton_growth(omega)
        return None if growth.exponential else growth.degree

    def test_examples(self):
        gk_dimension = self.gk_dimension
        assert gk_dimension(DOWN_UP) == 3
        assert gk_dimension(MonomialSet(((1, 0),), AB)) == 2
        assert gk_dimension(MonomialSet(((0, 0),), ONE)) == 0
        assert gk_dimension(MonomialSet(((0, 0),), AB3)) is None
        assert gk_dimension(POWER2) is None


class TestPathCounts:
    def test_paths_count_normal_words_by_length(self):
        for omega in (DOWN_UP, POWER2, MonomialSet(((1, 0), (0, 0, 0)), AB)):
            graph = build_ufnarovski(omega)
            start = max(graph.omega.ell, 1) - 1
            for length in range(start, 9):
                expected = brute_count_by_length(omega, 2, length)
                assert count_paths(graph, length - start) == expected

    def test_zero_edge_paths_count_vertices(self):
        graph = build_ufnarovski(DOWN_UP)
        assert count_paths(graph, 0) == 4


class TestDot:
    def test_deterministic_and_keeps_parallel_edges(self):
        graph = build_ufnarovski(MonomialSet.interreduce([], AB))
        dot = dot_digraph("growth", graph)
        assert dot == dot_digraph("growth", graph)
        assert dot.splitlines()[0] == "digraph growth {"
        assert dot.count('"1" -> "1";') == 2

    def test_letter_names_in_vertices(self):
        dot = dot_digraph("growth", build_ufnarovski(DOWN_UP))
        assert '"x1*x2"' in dot


def _random_case(rng):
    n = rng.randint(1, 3)
    weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(n))
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), weights)
    words = [
        tuple(rng.randrange(n) for _ in range(rng.choice((1, 2, 3, 4, 5, 6, 6))))
        for _ in range(rng.randint(0, 4))
    ]
    return alphabet, MonomialSet.interreduce(words, alphabet)


def _rees_case(omega):
    """Omega plus x_i T for every letter, over the alphabet extended by T."""
    t = omega.alphabet.n
    words = list(omega.words) + [(i, t) for i in range(t)]
    return MonomialSet.interreduce(words, extend_alphabet(omega.alphabet))


DIFFERENTIAL = [_random_case(random.Random(9000 + k)) for k in range(300)]


class TestAutomatonAgainstGraph:
    """The automaton classifier against the Ufnarovski graph it replaces."""

    def test_corpus_covers_the_edge_cases(self):
        assert {a.n for a, _ in DIFFERENTIAL} == {1, 2, 3}
        assert max(omega.ell for _, omega in DIFFERENTIAL) == 6
        assert any(not omega.words for _, omega in DIFFERENTIAL)
        assert any(
            any(len(w) == 1 for w in omega.words) for _, omega in DIFFERENTIAL
        )
        assert any(set(a.weights) != {1} for a, _ in DIFFERENTIAL)
        classes = [automaton_growth(omega) for _, omega in DIFFERENTIAL]
        assert any(g.exponential for g in classes)
        assert {g.degree for g in classes} >= {0, 1, 2}
        rees = [automaton_growth(_rees_case(omega)) for _, omega in DIFFERENTIAL]
        assert {g.degree for g in rees} >= {1, 2, 3}

    @pytest.mark.parametrize("index", range(len(DIFFERENTIAL)))
    def test_base_and_rees_sets_agree(self, index):
        _, omega = DIFFERENTIAL[index]
        classify_both(omega)
        classify_both(_rees_case(omega))

    @pytest.mark.parametrize("alphabet", [ONE, AB, AB3])
    def test_empty_set(self, alphabet):
        growth = classify_both(MonomialSet.interreduce([], alphabet))
        assert growth.exponential == (alphabet.n > 1)

    def test_dead_letters(self):
        assert classify_both(MonomialSet(((0,),), AB)).degree == 1
        assert classify_both(MonomialSet(((0,), (1,)), AB)).degree == 0
        assert classify_both(MonomialSet(((0,), (2, 1)), AB3)).degree == 2

    def test_weights_do_not_change_the_class(self):
        weighted = Alphabet(("x1", "x2"), (1, 3))
        for omega in (DOWN_UP, POWER2, MonomialSet(((1, 0),), AB)):
            assert classify_both(MonomialSet(omega.words, weighted)) == classify_both(omega)
