"""Property-based checks of the algebraic laws the package relies on."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import ncdim.rewrite
from ncdim import (
    Alphabet,
    GroebnerBasis,
    InputError,
    MonomialOrder,
    MonomialSet,
    Poly,
    dehomogenize,
    extend_alphabet,
    homogenize,
    leading_word,
    normal_form,
    verify_groebner,
)
from ncdim.rees import HomogenizationOrder
from ncdim.rewrite import (
    FactorAutomaton,
    contains_factor,
    overlap_ambiguities,
    s_element,
)
from presets import commutation, down_up, ore_case_a

MANY = settings(max_examples=1000, derandomize=True, deadline=None)


@st.composite
def orders(draw):
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(n))
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), weights)
    kind = draw(st.sampled_from(["grlex", "grevlex"]))
    precedence = tuple(draw(st.permutations(range(n))))
    return MonomialOrder(alphabet, kind, precedence)


def words(n, max_len=5, min_len=0):
    letters = st.integers(0, n - 1)
    return st.lists(letters, min_size=min_len, max_size=max_len).map(tuple)


def polys(n, max_terms=4, max_len=5):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    return st.dictionaries(words(n, max_len), coeffs, max_size=max_terms).map(Poly)


def nonzero_polys(n, **kwargs):
    return polys(n, **kwargs).filter(lambda p: p.terms)


# fixed verified bases for the normal-form laws
BASES = {
    "down_up": down_up().basis,
    "ore_a": ore_case_a().basis,
    "commutation3": commutation(3).basis,
}
for _basis in BASES.values():
    assert verify_groebner(_basis).ok


class TestOrderLaws:
    @MANY
    @given(data=st.data())
    def test_total_and_antisymmetric(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        c = order.compare(u, v)
        assert c in (-1, 0, 1)
        assert c == -order.compare(v, u)
        assert (c == 0) == (u == v)

    @MANY
    @given(data=st.data())
    def test_transitive(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v, w = (data.draw(words(n)) for _ in range(3))
        if order.compare(u, v) <= 0 and order.compare(v, w) <= 0:
            assert order.compare(u, w) <= 0

    @MANY
    @given(data=st.data())
    def test_multiplicative(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        left, right = data.draw(words(n, 3)), data.draw(words(n, 3))
        assume(order.compare(u, v) < 0)
        assert order.compare(left + u + right, left + v + right) < 0

    @MANY
    @given(data=st.data())
    def test_degree_decides_first(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        du, dv = order.alphabet.degree(u), order.alphabet.degree(v)
        if du < dv:
            assert order.compare(u, v) < 0
        assert order.compare((), u) <= 0

    @MANY
    @given(data=st.data())
    def test_leading_word_multiplicative(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        f = data.draw(nonzero_polys(n, max_len=4))
        g = data.draw(nonzero_polys(n, max_len=4))
        assert leading_word(f * g, order) == (
            leading_word(f, order) + leading_word(g, order)
        )


class TestNormalFormLaws:
    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_idempotent_and_fully_reduced(self, name, data):
        basis = BASES[name]
        omega = MonomialSet.interreduce(basis.leading_words)
        f = data.draw(polys(basis.order.alphabet.n))
        nf = normal_form(f, basis)
        assert all(omega.is_normal(w) for w in nf.terms)
        assert normal_form(nf, basis) == nf

    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_linear(self, name, data):
        basis = BASES[name]
        n = basis.order.alphabet.n
        f, g = data.draw(polys(n)), data.draw(polys(n))
        scalars = st.fractions(min_value=-5, max_value=5, max_denominator=5)
        a, b = data.draw(scalars), data.draw(scalars)
        assert normal_form(f * a + g * b, basis) == (
            normal_form(f, basis) * a + normal_form(g, basis) * b
        )

    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_constant_on_ideal_cosets(self, name, data):
        # adding u*g*v for a basis element g never changes the normal form
        basis = BASES[name]
        n = basis.order.alphabet.n
        f = data.draw(polys(n))
        g = basis.elements[data.draw(st.integers(0, len(basis.elements) - 1))]
        u, v = data.draw(words(n, 3)), data.draw(words(n, 3))
        shifted = f + Poly.monomial(u) * g * Poly.monomial(v)
        assert normal_form(shifted, basis) == normal_form(f, basis)


class TestHomogenizationLaws:
    @MANY
    @given(data=st.data())
    def test_round_trip_homogeneity_and_leading_word(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        f = data.draw(nonzero_polys(n))
        ext = extend_alphabet(order.alphabet)
        ext_order = HomogenizationOrder(order, ext)
        h = homogenize(f, order, ext)
        assert dehomogenize(h, ext) == f
        degrees = {ext.alphabet.degree(w) for w in h.terms}
        assert len(degrees) == 1
        assert leading_word(h, ext_order) == leading_word(f, order)

    @MANY
    @given(data=st.data())
    def test_extended_order_restricts_to_base(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        ext_order = HomogenizationOrder(order, extend_alphabet(order.alphabet))
        assert ext_order.compare(u, v) == order.compare(u, v)


class TestFactorLaws:
    @MANY
    @given(data=st.data())
    def test_automaton_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3))
        patterns = data.draw(
            st.lists(words(n, 4, min_len=1), min_size=1, max_size=4)
        )
        automaton = FactorAutomaton(patterns)
        w = data.draw(words(n, 8))
        expected = not any(contains_factor(w, p) for p in patterns)
        assert automaton.is_normal(w) == expected

    @MANY
    @given(data=st.data())
    def test_interreduction_preserves_normal_words(self, data):
        n = data.draw(st.integers(1, 3))
        raw = data.draw(st.lists(words(n, 4, min_len=1), min_size=1, max_size=4))
        omega = MonomialSet.interreduce(raw)
        w = data.draw(words(n, 8))
        expected = not any(contains_factor(w, p) for p in raw)
        assert omega.is_normal(w) == expected


def slicing_find_reduction(basis, word):
    """Reference reduction search: try the leading words longest first, ties
    to the lowest relation index, each at its leftmost slice of ``word``."""
    lws = basis.leading_words
    for idx in sorted(range(len(lws)), key=lambda i: (-len(lws[i]), i)):
        lw = lws[idx]
        for pos in range(len(word) - len(lw) + 1):
            if word[pos : pos + len(lw)] == lw:
                return idx, pos
    return None


def seeded_bases(count):
    """LM-reduced random bases on 1-3 letters, leading words of length 1-4;
    most of them fail verification."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)),
                            tuple(rng.randint(1, 2) for _ in range(n)))
        precedence = list(range(n))
        rng.shuffle(precedence)
        order = MonomialOrder(alphabet, rng.choice(["grlex", "grevlex"]), tuple(precedence))
        relations = [
            Poly({
                tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))):
                    Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            })
            for _ in range(rng.randint(1, 4))
        ]
        try:
            yield GroebnerBasis(relations, order)
        except InputError:
            continue


class TestReductionSearch:
    """The automaton's reduction choice against the slicing search it replaced."""

    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_agrees_with_slicing(self, name, data):
        basis = BASES[name]
        w = data.draw(words(basis.order.alphabet.n, 10))
        assert basis.find_reduction(w) == slicing_find_reduction(basis, w)

    def test_verification_unchanged_on_seeded_bases(self, monkeypatch):
        results = [verify_groebner(b) for b in seeded_bases(400)]
        monkeypatch.setattr(GroebnerBasis, "find_reduction", slicing_find_reduction)
        assert [verify_groebner(b) for b in seeded_bases(400)] == results
        assert sum(not r.ok for r in results) >= 50
        assert sum(r.ok and r.checked > 0 for r in results) >= 20


def product_s_element(basis, amb):
    """Reference S-element by general products: prefix*g_right - g_left*suffix."""
    u = basis.leading_words[amb.left_index]
    v = basis.leading_words[amb.right_index]
    prefix = Poly.monomial(u[: len(u) - amb.overlap])
    suffix = Poly.monomial(v[amb.overlap :])
    return prefix * basis.elements[amb.right_index] - basis.elements[amb.left_index] * suffix


class TestSElement:
    """S-elements built in one dict against the products they replaced."""

    def test_same_s_elements_and_verification_on_seeded_bases(self, monkeypatch):
        pairs = [(b, amb) for b in seeded_bases(400) for amb in overlap_ambiguities(b)]
        assert len(pairs) >= 200
        for basis, amb in pairs:
            direct, product = s_element(basis, amb), product_s_element(basis, amb)
            assert direct == product
            assert list(direct.terms) == list(product.terms)
        results = [verify_groebner(b) for b in seeded_bases(400)]
        monkeypatch.setattr(ncdim.rewrite, "s_element", product_s_element)
        assert [verify_groebner(b) for b in seeded_bases(400)] == results
        assert sum(not r.ok for r in results) >= 50
