import itertools
import tracemalloc

import pytest

import ncdim.rewrite
from ncdim import (
    Alphabet,
    GroebnerBasis,
    GroebnerVerificationError,
    InputError,
    MonomialOrder,
    MonomialSet,
    Poly,
    ensure_verified,
    normal_form,
    overlap_ambiguities,
    parse_polynomial,
    tilde_basis,
    verify_groebner,
)
from ncdim.rewrite import FactorAutomaton

from presets import commutation, down_up, heisenberg, ore_case_a, weyl
from references import contains_factor, s_element, setdefault_automaton
from test_rees import random_antichains

AB = Alphabet(("x1", "x2"), (1, 1))


def brute_counts(omega, alphabet, up_to):
    """Count normal words per weighted degree by enumerating all words."""
    counts = [0] * (up_to + 1)
    for length in range(up_to + 1):
        for word in itertools.product(range(alphabet.n), repeat=length):
            d = alphabet.degree(word)
            if d <= up_to and omega.is_normal(word):
                counts[d] += 1
    return counts


class TestFactorSearch:
    def test_contains_factor(self):
        assert contains_factor((0, 1, 0), (1, 0))
        assert not contains_factor((0, 1, 0), (0, 0))
        assert contains_factor((0,), ())
        assert contains_factor((), ())


class TestFactorAutomaton:
    def test_matches_naive_search(self):
        # an antichain, then patterns that nest and repeat
        for patterns in (((0, 0), (1, 0, 1)), ((0, 1), (1, 0, 1, 1), (1,), (0, 1))):
            auto = FactorAutomaton(patterns)
            for length in range(7):
                for word in itertools.product(range(2), repeat=length):
                    naive = not any(contains_factor(word, p) for p in patterns)
                    assert auto.is_normal(word) == naive
                    sliced = [
                        (k, i)
                        for k, p in enumerate(patterns)
                        for i in range(len(word) - len(p) + 1)
                        if word[i : i + len(p)] == p
                    ]
                    assert sorted(auto.matches(word)) == sorted(sliced)

    def test_suffix_terminal_propagation(self):
        # matching (0, 1) must also be caught while scanning for (0, 0, 1)
        auto = FactorAutomaton(((0, 0, 1), (0, 1)))
        assert not auto.is_normal((1, 0, 1, 1))
        assert auto.is_normal((1, 0, 0, 0))

    def test_count_normal_against_enumeration(self):
        omega = MonomialSet(((0, 1, 1),), Alphabet(("a", "b"), (1, 2)))
        counts = omega.count_normal(8)
        assert counts == brute_counts(omega, Alphabet(("a", "b"), (1, 2)), 8)
        with pytest.raises(ValueError):
            omega.count_normal(-1)

    def test_count_normal_keeps_a_ring_of_rows(self):
        # (ab)^20 a over two letters: 42 states and counts of nearly 1000
        # bits, so 1001 rows of them would take megabytes, and two rows do not
        omega = MonomialSet([(0, 1) * 20 + (0,)], AB)
        tracemalloc.start()
        try:
            counts = omega.count_normal(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[:41] == [2 ** d for d in range(41)]
        assert peak < 2 ** 20

    def test_normal_steps(self):
        # states: 0 = root, 1 = "0", 2 = "00" (terminal)
        assert MonomialSet(((0, 0),), AB).normal_steps == {0: [(0, 1), (1, 0)], 1: [(1, 0)]}
        assert MonomialSet(((0,),), Alphabet(("x",), (1,))).normal_steps == {0: []}

    def test_normal_steps_spell_the_normal_words(self):
        omega = MonomialSet(((0, 1, 1), (1, 0, 0, 1), (2, 2)), Alphabet(("a", "b", "c"), (1,) * 3))
        out = omega.normal_steps
        words = [((), 0)]
        for length in range(1, 7):
            words = [(w + (a,), t) for w, s in words for a, t in out.get(s, ())]
            assert [w for w, _ in words] == [
                w for w in itertools.product(range(3), repeat=length) if omega.is_normal(w)
            ]

    def test_table_equals_the_setdefault_construction(self):
        # the merged transitions against one setdefault per letter
        pattern_sets = [omega.words for _, omega in random_antichains(300)]
        rings = [commutation(n) for n in range(2, 9)]
        rings += [weyl(m) for m in (1, 2, 3)] + [heisenberg(m) for m in (1, 2, 3)]
        for ring in rings:
            pattern_sets += [ring.omega.words, tilde_basis(ring).omega.words]
        pattern_sets += [((0,) * k,) for k in (2, 20, 256)]
        pattern_sets.append(((0, 1), (1, 0, 1, 1), (1,), (0, 1)))  # nested and repeated
        for patterns in pattern_sets:
            auto = FactorAutomaton(patterns)
            assert (auto._goto, auto._out) == setdefault_automaton(patterns)

    def test_overlap_tails(self):
        # the tails that complete a pattern starting inside the word
        auto = FactorAutomaton(((0, 0, 1), (0, 1, 1)))
        assert sorted(auto.overlap_tails((0,))) == [(0, 1), (1, 1)]
        assert auto.overlap_tails((0, 1)) == [(1,)]
        assert auto.overlap_tails((1, 1)) == []
        assert FactorAutomaton(((0,) * 5,)).overlap_tails((0, 0)) == [(0, 0, 0)]


class TestMonomialSet:
    def test_antichain_enforced(self):
        with pytest.raises(InputError):
            MonomialSet(((0,), (0, 1)), AB)

    def test_empty_word_rejected(self):
        with pytest.raises(InputError):
            MonomialSet(((),), AB)

    def test_interreduce(self):
        omega = MonomialSet.interreduce([(0, 1), (0, 1, 1), (0, 1), (1, 1)], AB)
        assert set(omega) == {(0, 1), (1, 1)}
        assert MonomialSet.interreduce([(0, 0), (0, 0, 0)], AB).words == ((0, 0),)

    def test_ell_is_longest_member(self):
        assert MonomialSet(((0, 1), (1, 1, 1)), AB).ell == 3
        assert MonomialSet.interreduce([], AB).ell == 0

    def test_membership(self):
        omega = MonomialSet(((0, 1),), AB)
        assert (0, 1) in omega
        assert (1, 0) not in omega
        assert len(omega) == 1

    @pytest.mark.parametrize("words", [[(2,)], [(-1,)], [(0, -1)], [(1, 5)]])
    def test_letter_outside_the_alphabet_rejected(self, words):
        # at 0..1 only: a letter past the end once read as the free algebra
        for build in (MonomialSet, MonomialSet.interreduce):
            with pytest.raises(InputError, match=r"lies outside 0\.\.1"):
                build(words, AB)

    def test_interreduce_rejects_a_letter_in_a_dropped_word(self):
        with pytest.raises(InputError, match="letter 5 lies outside"):
            MonomialSet.interreduce([(0,), (0, 5)], AB)

    def test_equal_words_over_two_alphabets_differ(self):
        assert MonomialSet(((0, 0),), AB) == MonomialSet(((0, 0),), AB)
        assert MonomialSet(((0, 0),), AB) != MonomialSet(((0, 0),), Alphabet(("x1", "x2"), (1, 2)))
        assert MonomialSet(((0, 0),), AB) != MonomialSet(((0, 0),), Alphabet(("a", "b"), (1, 1)))

    def test_is_normal(self):
        omega = MonomialSet(((0, 0),), AB)
        assert omega.is_normal(())
        assert omega.is_normal((0, 1, 0))
        assert not omega.is_normal((1, 0, 0))
        assert omega.is_normal((0, 1))


class TestCountNormalWords:
    def test_nilpotent_single_variable(self):
        one = Alphabet(("x",), (1,))
        omega = MonomialSet(((0, 0),), one)
        assert omega.count_normal(6) == [1, 1, 0, 0, 0, 0, 0]

    def test_skew_commutative_counts(self):
        # avoiding x2*x1 leaves the words x1^a*x2^b: degree n has n+1 of them
        omega = MonomialSet(((1, 0),), AB)
        assert omega.count_normal(6) == [1, 2, 3, 4, 5, 6, 7]

    def test_square_free_counts_are_fibonacci(self):
        omega = MonomialSet(((0, 0),), AB)
        assert omega.count_normal(7) == [1, 2, 3, 5, 8, 13, 21, 34]

    def test_empty_obstruction_set_counts_all_words(self):
        assert MonomialSet.interreduce([], AB).count_normal(5) == [1, 2, 4, 8, 16, 32]
        one = Alphabet(("x",), (1,))
        assert MonomialSet.interreduce([], one).count_normal(4) == [1, 1, 1, 1, 1]

    def test_weighted_counts(self):
        # normal words x1^a*x2^b with d(x2)=3: count of n is #{(a,b): a+3b=n}
        ab = Alphabet(("x1", "x2"), (1, 3))
        omega = MonomialSet(((1, 0),), ab)
        assert omega.count_normal(6) == [1, 1, 1, 2, 2, 2, 3]

    def test_matches_enumeration(self):
        abc = Alphabet(("a", "b", "c"), (1, 1, 2))
        omega = MonomialSet(((0, 1), (2, 2, 0)), abc)
        assert omega.count_normal(7) == brute_counts(omega, abc, 7)


class TestGroebnerBasis:
    def test_relations_made_monic(self):
        f = parse_polynomial("2*x2*x1 - 4*x1*x2", AB)
        basis = GroebnerBasis([f], MonomialOrder(AB))
        assert basis.elements[0] == parse_polynomial("x2*x1 - 2*x1*x2", AB)
        assert basis.leading_words == ((1, 0),)

    def test_zero_relation_rejected(self):
        with pytest.raises(InputError):
            GroebnerBasis([Poly.zero()], MonomialOrder(AB))

    def test_non_polynomial_rejected(self):
        with pytest.raises(InputError):
            GroebnerBasis(["x1"], MonomialOrder(AB))

    @pytest.mark.parametrize(
        "tail,weights,letter",
        [
            ((2,), (1, 1), 2),
            ((0, -1), (1, 1), -1),
            ((2,), (1, 2), 2),  # a letter past the weights
        ],
    )
    def test_letter_outside_the_alphabet_in_a_lower_term_rejected(
        self, tail, weights, letter, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("leading_data ran on a relation with a foreign letter")

        monkeypatch.setattr(ncdim.rewrite, "leading_data", refuse)
        order = MonomialOrder(Alphabet(("x", "y"), weights))
        relation = Poly({(0, 0): 1, tail: 1})
        with pytest.raises(InputError, match=rf"^relation 1: letter {letter} lies outside 0\.\.1$"):
            GroebnerBasis([relation], order)

    def test_lm_divisibility_rejected(self):
        order = MonomialOrder(Alphabet(("x",), (1,)))
        with pytest.raises(InputError):
            GroebnerBasis([Poly.monomial((0, 0)), Poly.monomial((0, 0, 0))], order)

    def test_duplicate_lm_rejected(self):
        f = parse_polynomial("x2*x1 - x1", AB)
        g = parse_polynomial("x2*x1 - x2", AB)
        with pytest.raises(InputError):
            GroebnerBasis([f, g], MonomialOrder(AB))

    def test_reducibility(self):
        basis = ore_case_a()
        assert not basis.omega.is_normal((1, 1, 0))
        assert basis.omega.is_normal((0, 0, 1))
        assert basis.find_reduction((1, 1, 0)) == (0, 1)
        assert basis.find_reduction((0, 1)) is None


class TestNormalForm:
    def test_skew_relation_rewrites(self):
        pres = ore_case_a()
        f = parse_polynomial("x2*x1*x2", pres.order.alphabet)
        expected = parse_polynomial("2*x1*x2^2 + x1^2*x2 + 3*x2^2 + x1*x2", pres.order.alphabet)
        assert normal_form(f, pres) == expected

    def test_two_step_reduction(self):
        pres = ore_case_a()
        f = parse_polynomial("x2^2*x1", pres.order.alphabet)
        expected = parse_polynomial(
            "4*x1*x2^2 + 6*x1^2*x2 + 3*x1^3 + 9*x2^2 + 16*x1*x2 + 7*x1^2 + 12*x2 + 4*x1",
            pres.order.alphabet,
        )
        assert normal_form(f, pres) == expected

    def test_commutation_sorts_letters(self):
        pres = commutation(2)
        f = parse_polynomial("x2*x1*x2", pres.order.alphabet)
        assert normal_form(f, pres) == parse_polynomial("x1*x2^2", pres.order.alphabet)

    def test_fixed_points_are_exactly_normal_words(self):
        pres = down_up()
        omega = MonomialSet(pres.leading_words, pres.order.alphabet)
        for length in range(6):
            for word in itertools.product(range(2), repeat=length):
                fixed = normal_form(Poly.monomial(word), pres) == Poly.monomial(word)
                assert fixed == omega.is_normal(word)

    def test_zero_stays_zero(self):
        assert normal_form(Poly.zero(), down_up()).is_zero


class TestOverlaps:
    def test_down_up_single_overlap(self):
        basis = down_up()
        ambs = overlap_ambiguities(basis)
        assert [(a.left_index, a.right_index, a.overlap, a.word) for a in ambs] == [
            (0, 1, 2, (0, 0, 1, 1))
        ]
        s = s_element(basis, ambs[0])
        expected = parse_polynomial("x2*x1^2*x2 - x1*x2^2*x1", AB)
        assert s == expected
        assert normal_form(s, basis).is_zero

    def test_self_overlap(self):
        order = MonomialOrder(Alphabet(("x",), (1,)))
        basis = GroebnerBasis([parse_polynomial("x^2 - x", Alphabet(("x",), (1,)))], order)
        ambs = overlap_ambiguities(basis)
        assert [(a.left_index, a.right_index, a.overlap, a.word) for a in ambs] == [
            (0, 0, 1, (0, 0, 0))
        ]
        assert verify_groebner(basis).ok

    def test_monomial_overlaps_enumerated_in_order(self):
        order = MonomialOrder(AB)
        basis = GroebnerBasis([Poly.monomial((0, 0)), Poly.monomial((0, 1))], order)
        ambs = overlap_ambiguities(basis)
        assert [(a.left_index, a.right_index, a.overlap, a.word) for a in ambs] == [
            (0, 0, 1, (0, 0, 0)),
            (0, 1, 1, (0, 0, 1)),
        ]

    def test_no_overlap_for_skew_relation(self):
        basis = ore_case_a()
        assert overlap_ambiguities(basis) == []


class TestVerification:
    def test_skew_relation_verifies_with_no_overlaps(self):
        basis = ore_case_a()
        result = verify_groebner(basis)
        assert result.ok and result.checked == 0
        assert basis.verified

    def test_down_up_verifies(self):
        basis = down_up()
        result = verify_groebner(basis)
        assert result.ok and result.checked == 1

    def test_commutation_verifies(self):
        basis = commutation(3)
        result = verify_groebner(basis)
        assert result.ok and result.checked == 1

    def test_failing_pair_reports_witness(self):
        f = parse_polynomial("x1*x2 - x1", AB)
        g = parse_polynomial("x2*x1 - x2", AB)
        basis = GroebnerBasis([f, g], MonomialOrder(AB))
        result = verify_groebner(basis)
        assert not result.ok
        assert result.ambiguity.word == (0, 1, 0)
        assert result.remainder == parse_polynomial("x1^2 - x1", AB)
        assert not basis.verified

    def test_ensure_verified_raises_with_witness(self):
        f = parse_polynomial("x1*x2 - x1", AB)
        g = parse_polynomial("x2*x1 - x2", AB)
        basis = GroebnerBasis([f, g], MonomialOrder(AB))
        with pytest.raises(GroebnerVerificationError) as exc:
            ensure_verified(basis)
        assert exc.value.ambiguity.word == (0, 1, 0)

    def test_ensure_verified_caches(self):
        basis = down_up()
        ensure_verified(basis)
        assert basis.verified
        ensure_verified(basis)

    def test_ensure_verified_returns_the_stored_result(self):
        basis = commutation(3)
        first = ensure_verified(basis)
        assert first.ok and first.checked == 1
        assert ensure_verified(basis) is first is basis.verification


class TestObstructionSet:
    def test_omega_is_the_leading_words(self):
        basis = down_up()
        assert basis.omega == MonomialSet(basis.leading_words, basis.order.alphabet)
        assert not basis.omega.is_normal((0, 0, 1)) and basis.omega.is_normal((1, 0, 0))

    def test_empty_basis_reduces_nothing(self):
        basis = GroebnerBasis([], MonomialOrder(AB))
        assert len(basis.omega) == 0
        assert basis.omega.is_normal((0, 1, 0))

    def test_constant_relation_is_an_input_error(self):
        with pytest.raises(InputError):
            GroebnerBasis([Poly.monomial(())], MonomialOrder(AB))

    @pytest.mark.parametrize("relations, message", [
        (["x1*x2 - x1", "x1*x2 - x2"], "relations are not LM-reduced: leading word "
         "x1*x2 of relation 1 divides leading word x1*x2 of relation 2"),
        (["x2^2", "x1*x2*x2 - x1", "x1*x2"], "relations are not LM-reduced: leading word "
         "x2*x2 of relation 1 divides leading word x1*x2*x2 of relation 2"),
        (["x1", "2"], "relations are not LM-reduced: leading word "
         "1 of relation 2 divides leading word x1 of relation 1"),
        (["3"], "obstruction sets must not contain the identity word"),
    ])
    def test_input_error_texts(self, relations, message):
        polys = [parse_polynomial(s, AB) for s in relations]
        with pytest.raises(InputError) as info:
            GroebnerBasis(polys, MonomialOrder(AB))
        assert str(info.value) == message

    def test_constant_relation_among_others_names_the_least_pair(self):
        relations = [parse_polynomial(s, AB) for s in ("x1*x2", "x1*x2*x1", "1")]
        with pytest.raises(InputError, match="x1\\*x2 of relation 1 divides .* of relation 2"):
            GroebnerBasis(relations, MonomialOrder(AB))
        with pytest.raises(InputError, match="leading word 1 of relation 1 divides"):
            GroebnerBasis(relations[::-1], MonomialOrder(AB))


class TestOneFactorSearch:
    def test_one_automaton_per_basis(self, monkeypatch):
        built = []

        class Counting(FactorAutomaton):
            def __init__(self, patterns):
                built.append(self)
                super().__init__(patterns)

        basis = commutation(4)
        monkeypatch.setattr(ncdim.rewrite, "FactorAutomaton", Counting)
        rebuilt = GroebnerBasis(basis.elements, basis.order)
        assert built == [rebuilt.omega.automaton]
        assert tilde_basis(rebuilt).omega.automaton is built[1]
        assert len(built) == 2

    def test_no_pairwise_scan_on_pbw_bases(self):
        basis = commutation(13)
        assert verify_groebner(basis).ok
        rees = tilde_basis(basis)
        assert rees.verified and len(rees) == 78 + 13
