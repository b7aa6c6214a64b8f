"""Property-based checks of the algebraic laws the package relies on."""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    homogenize,
    leading_data,
    load_presentation,
    load_presentation_data,
    normal_form,
    parse_polynomial,
    tilde_basis,
    verify_groebner,
)
from ncdim.cli import main
from ncdim.rees import HomogenizationOrder
from ncdim.rewrite import FactorAutomaton, overlap_ambiguities
from presets import commutation, down_up, heisenberg, ore_case_a, power_family, sl2, weyl
from references import (
    compare,
    contains_factor,
    dehomogenize,
    engine_poly,
    engine_terms,
    fraction_normal_form,
    fraction_verify,
    one_step,
    s_element,
    t_front_moves,
)

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
    "down_up": down_up(),
    "ore_a": ore_case_a(),
    "commutation3": commutation(3),
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
        c = compare(order, u, v)
        assert c in (-1, 0, 1)
        assert c == -compare(order, v, u)
        assert (c == 0) == (u == v)

    @MANY
    @given(data=st.data())
    def test_transitive(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v, w = (data.draw(words(n)) for _ in range(3))
        if compare(order, u, v) <= 0 and compare(order, v, w) <= 0:
            assert compare(order, u, w) <= 0

    @MANY
    @given(data=st.data())
    def test_multiplicative(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        left, right = data.draw(words(n, 3)), data.draw(words(n, 3))
        assume(compare(order, u, v) < 0)
        assert compare(order, left + u + right, left + v + right) < 0

    @MANY
    @given(data=st.data())
    def test_degree_decides_first(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        du, dv = order.alphabet.degree(u), order.alphabet.degree(v)
        if du < dv:
            assert compare(order, u, v) < 0
        assert compare(order, (), u) <= 0

    @MANY
    @given(data=st.data())
    def test_leading_word_multiplicative(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        f = data.draw(nonzero_polys(n, max_len=4))
        g = data.draw(nonzero_polys(n, max_len=4))
        assert leading_data(f * g, order)[0] == (
            leading_data(f, order)[0] + leading_data(g, order)[0]
        )


class TestNormalFormLaws:
    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_idempotent_and_fully_reduced(self, name, data):
        basis = BASES[name]
        omega = MonomialSet.interreduce(basis.leading_words, basis.order.alphabet)
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
        ext_order = HomogenizationOrder(order)
        ext, t = ext_order.alphabet, ext_order.homogenizer
        h = homogenize(f, ext_order)
        assert dehomogenize(h, t) == f
        degrees = {ext.degree(w) for w in h.terms}
        assert len(degrees) == 1
        assert leading_data(h, ext_order)[0] == leading_data(f, order)[0]

    @MANY
    @given(data=st.data())
    def test_extended_order_restricts_to_base(self, data):
        order = data.draw(orders())
        n = order.alphabet.n
        u, v = data.draw(words(n)), data.draw(words(n))
        ext_order = HomogenizationOrder(order)
        assert compare(ext_order, u, v) == compare(order, u, v)

    @MANY
    @given(data=st.data())
    def test_extended_key_leads_with_the_total_degree(self, data):
        # the key counts T's instead of weighing the word a second time
        order = data.draw(orders())
        ext_order = HomogenizationOrder(order)
        ext, t = ext_order.alphabet, ext_order.homogenizer
        w = data.draw(words(ext.n, 6))
        stripped = tuple(i for i in w if i != t)
        placement = tuple(0 if i == t else 1 for i in w)
        if t not in w:
            placement = ()  # a T-free word is keyed by its base key alone
        assert ext_order.sort_key(w) == (
            ext.degree(w), order.sort_key(stripped), placement
        )


def reference_sort_key(order, word):
    """The monomial order key before its shortcuts: every letter mapped
    through its rank, the weights summed."""
    rank = [0] * order.alphabet.n
    for pos, letter in enumerate(order.precedence):
        rank[letter] = pos
    letters = word if order.kind == "grlex" else reversed(word)
    return (order.alphabet.degree(word), tuple(rank[i] for i in letters))


def reference_rees_sort_key(ext_order, word):
    """The Rees order key before its shortcut: every word stripped of T and
    given a placement tuple."""
    t = ext_order.base.alphabet.n
    stripped = tuple(i for i in word if i != t)
    placement = tuple(0 if i == t else 1 for i in word)
    base_key = reference_sort_key(ext_order.base, stripped)
    return (base_key[0] + len(word) - len(stripped), base_key, placement)


def sign(a, b):
    return (a > b) - (a < b)


@st.composite
def shortcut_orders(draw):
    """Orders on or off each key shortcut: unit weights or not, identity
    precedence or not."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        weights = (1,) * n
    else:
        weights = tuple(draw(st.integers(1, 3)) for _ in range(n))
    if draw(st.booleans()):
        precedence = tuple(range(n))
    else:
        precedence = tuple(draw(st.permutations(range(n))))
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), weights)
    return MonomialOrder(alphabet, draw(st.sampled_from(["grlex", "grevlex"])), precedence)


class TestOrderKeys:
    """The order keys against the ones they replaced: the same sign on every
    pair, so the same order."""

    @MANY
    @given(data=st.data())
    def test_base_keys_agree_with_reference(self, data):
        order = data.draw(shortcut_orders())
        n = order.alphabet.n
        u, v = data.draw(words(n, 6)), data.draw(words(n, 6))
        assert order.sort_key(u) == reference_sort_key(order, u)
        assert compare(order, u, v) == sign(
            reference_sort_key(order, u), reference_sort_key(order, v)
        )

    @MANY
    @given(data=st.data())
    def test_rees_keys_agree_with_reference(self, data):
        order = data.draw(shortcut_orders())
        ext_order = HomogenizationOrder(order)
        n = t = ext_order.homogenizer
        free = data.draw(words(n, 6))
        left, right = data.draw(words(n + 1, 3)), data.draw(words(n + 1, 3))
        with_t = left + (t,) + right
        other = data.draw(words(n + 1, 6))
        assert ext_order.sort_key(with_t) == reference_rees_sort_key(ext_order, with_t)
        for u, v in ((free, with_t), (with_t, free), (free, other), (other, with_t)):
            assert compare(ext_order, u, v) == sign(
                reference_rees_sort_key(ext_order, u), reference_rees_sort_key(ext_order, v)
            )

    @staticmethod
    def recorded_words(monkeypatch, owner):
        seen = set()
        original = owner.sort_key

        def recording(self, word):
            seen.add(word)
            return original(self, word)

        monkeypatch.setattr(owner, "sort_key", recording)
        return seen

    @pytest.mark.parametrize("n", range(2, 9))
    def test_same_order_on_words_keyed_verifying_rees_commutation(self, n, monkeypatch):
        base = commutation(n)
        base_words = self.recorded_words(monkeypatch, MonomialOrder)
        rees_words = self.recorded_words(monkeypatch, HomogenizationOrder)
        rees = tilde_basis(base)
        monkeypatch.undo()
        assert any(rees.order.homogenizer in w for w in rees_words)
        assert any(rees.order.homogenizer not in w for w in rees_words)
        assert sorted(base_words, key=base.order.sort_key) == sorted(
            base_words, key=lambda w: reference_sort_key(base.order, w)
        )
        assert sorted(rees_words, key=rees.order.sort_key) == sorted(
            rees_words, key=lambda w: reference_rees_sort_key(rees.order, w)
        )

    def test_same_witnesses_and_remainders_on_seeded_bases(self, monkeypatch):
        def outcomes():
            out = []
            for basis in seeded_bases(400):
                try:
                    out.append(ensure_verified(basis))
                except GroebnerVerificationError as exc:
                    out.append((str(exc), exc.ambiguity, list(exc.remainder.terms.items())))
            return out

        found = outcomes()
        monkeypatch.setattr(MonomialOrder, "sort_key", reference_sort_key)
        assert outcomes() == found
        assert sum(isinstance(o, tuple) for o in found) >= 50


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
        omega = MonomialSet.interreduce(raw, Alphabet(tuple(f"x{i}" for i in range(n)), (1,) * n))
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


def seeded_bases(count, letters=(1, 3), max_den=3, first_seed=0):
    """LM-reduced random bases on 1-3 letters (or ``letters``), leading words
    of length 1-4, coefficients with denominators up to ``max_den``; most of
    them fail verification."""
    for seed in range(first_seed, first_seed + count):
        rng = random.Random(seed)
        n = rng.randint(*letters)
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)),
                            tuple(rng.randint(1, 2) for _ in range(n)))
        precedence = list(range(n))
        rng.shuffle(precedence)
        order = MonomialOrder(alphabet, rng.choice(["grlex", "grevlex"]), tuple(precedence))
        relations = [
            Poly({
                tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))):
                    Fraction(rng.randint(-3, 3) or 1, rng.randint(1, max_den))
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
            engine = ncdim.rewrite._s_terms(basis, amb)
            assert list(engine.items()) == list(engine_terms(direct).items())
        results = [verify_groebner(b) for b in seeded_bases(400)]
        monkeypatch.setattr(ncdim.rewrite, "_s_terms",
                            lambda basis, amb: engine_terms(product_s_element(basis, amb)))
        assert [verify_groebner(b) for b in seeded_bases(400)] == results
        assert sum(not r.ok for r in results) >= 50


def scan_normal_form(f, basis, tally=None, applied=None):
    """Reference normal form: before every step, test each term for
    reducibility and take the largest reducible one by its sort key.
    ``tally`` counts the words that enter the work set and the reducible
    ones among them; ``applied`` collects the relation of every step."""
    work = dict(f.terms)
    if tally is not None:
        tally["entered"] += len(work)
        tally["reducible"] += sum(not basis.omega.is_normal(w) for w in work)
    key = basis.order.sort_key
    while True:
        reducible = [w for w in work if not basis.omega.is_normal(w)]
        if not reducible:
            return Poly(work)
        target = max(reducible, key=key)
        coeff = work[target]
        idx, pos = basis.find_reduction(target)
        if applied is not None:
            applied.add(idx)
        g = basis.elements[idx]
        left = target[:pos]
        right = target[pos + len(basis.leading_words[idx]):]
        for u, c in g.terms.items():
            word = left + u + right
            if tally is not None and word not in work:
                tally["entered"] += 1
                tally["reducible"] += not basis.omega.is_normal(word)
            nc = work.get(word, 0) - coeff * c
            if nc:
                work[word] = nc
            else:
                work.pop(word, None)


def scan_reduce_terms(work, basis, applied=None):
    """:func:`scan_normal_form` on the engine's term dicts, to stand in for
    the engine inside verification."""
    return engine_terms(scan_normal_form(engine_poly(work), basis, applied=applied))


def assert_same_remainder(fast, slow):
    assert fast == slow
    assert list(fast.terms) == list(slow.terms)
    assert all(type(c) is Fraction for c in fast.terms.values())


class TestNormalFormEngine:
    """The worklist engine against the scan-every-term engine it replaced."""

    @pytest.mark.parametrize("name", sorted(BASES))
    @MANY
    @given(data=st.data())
    def test_agrees_with_scanning(self, name, data):
        basis = BASES[name]
        f = data.draw(polys(basis.order.alphabet.n, max_terms=6))
        assert_same_remainder(normal_form(f, basis), scan_normal_form(f, basis))

    def test_same_remainders_and_verification_on_seeded_bases(self, monkeypatch):
        pairs = [(b, amb) for b in seeded_bases(400) for amb in overlap_ambiguities(b)]
        nonzero = 0
        for basis, amb in pairs:
            s = s_element(basis, amb)
            fast = normal_form(s, basis)
            assert_same_remainder(fast, scan_normal_form(s, basis))
            nonzero += not fast.is_zero
        assert nonzero >= 50
        results = [verify_groebner(b) for b in seeded_bases(400)]
        monkeypatch.setattr(ncdim.rewrite, "_reduce_terms", scan_reduce_terms)
        assert [verify_groebner(b) for b in seeded_bases(400)] == results
        for r in results:
            if not r.ok:
                assert all(type(c) is Fraction for c in r.remainder.terms.values())

    def test_integer_coefficients_come_back_as_fractions(self):
        basis = BASES["ore_a"]
        f = Poly({(1, 0, 0): 3, (1, 1): Fraction(1, 2)})
        nf = normal_form(f, basis)
        assert nf.terms and all(type(c) is Fraction for c in nf.terms.values())
        assert_same_remainder(nf, scan_normal_form(f, basis))


def rational_pbw(n, rng, lower=False):
    """x_j x_i - q x_i x_j for i < j, each q a seeded nonzero rational; with
    ``lower``, each relation also gets a seeded rational multiple of a letter,
    which most of the time breaks the Groebner property."""
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)), (1,) * n)
    relations = []
    for j in range(n):
        for i in range(j):
            terms = {(j, i): 1,
                     (i, j): Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))}
            if lower:
                terms[(rng.randrange(n),)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9))
            relations.append(Poly(terms))
    return GroebnerBasis(relations, MonomialOrder(alphabet))


def assert_same_verification(basis):
    """The package's verification equals the int-or-Fraction engine's, with
    the remainder's terms in the same order and held as Fractions."""
    expected = fraction_verify(basis)
    result = verify_groebner(basis)
    assert result == expected
    if not result.ok:
        assert_same_remainder(result.remainder, expected.remainder)
    return result


class TestPairEngine:
    """The int and int-pair engine against the int-or-Fraction engine it
    replaced: the same results, remainders and steps."""

    def test_seeded_bases(self):
        results = [assert_same_verification(b) for b in seeded_bases(400)]
        assert sum(not r.ok for r in results) >= 50

    def test_rees_bases_of_commutation_and_rational_pbw_rings(self):
        rng = random.Random(16)
        for n in range(2, 9):
            for base in (commutation(n), rational_pbw(n, rng)):
                rees = tilde_basis(base)
                assert assert_same_verification(base).ok
                assert assert_same_verification(rees).checked > 0

    def test_rational_pbw_rings_with_lower_terms(self):
        rng = random.Random(61)
        results = [assert_same_verification(rational_pbw(n, rng, lower=True))
                   for n in range(2, 7) for _ in range(6)]
        assert sum(not r.ok for r in results) >= 10

    def test_random_rational_bases_on_two_and_three_letters(self):
        results = [assert_same_verification(b)
                   for b in seeded_bases(300, letters=(2, 3), max_den=9, first_seed=1000)]
        assert sum(not r.ok for r in results) >= 50
        assert sum(r.ok and r.checked > 0 for r in results) >= 10
        remainders = [r.remainder for r in results if not r.ok]
        assert any(c.denominator > 1 for f in remainders for c in f.terms.values())

    def test_same_steps(self, monkeypatch):
        # every word scanned and every sort key taken, in order
        rng = random.Random(7)
        bases = [tilde_basis(rational_pbw(n, rng)) for n in range(2, 6)]
        bases += [tilde_basis(b) for b in (weyl(2), heisenberg(2), ore_case_a())]
        bases += list(seeded_bases(100, letters=(2, 3), max_den=9, first_seed=1000))
        steps = []
        for owner, name in ((GroebnerBasis, "find_reduction"), (MonomialOrder, "sort_key"),
                            (HomogenizationOrder, "sort_key")):
            original = getattr(owner, name)

            def logged(self, word, original=original, name=name):
                steps.append((name, word))
                return original(self, word)

            monkeypatch.setattr(owner, name, logged)
        taken = 0
        for basis in bases:
            verify_groebner(basis)
            new = steps[:]
            steps.clear()
            fraction_verify(basis)
            assert steps == new
            taken += len(new)
            steps.clear()
        assert taken >= 500

    def test_rational_normal_form(self):
        alphabet = Alphabet(("x1", "x2"), (1, 1))
        basis = GroebnerBasis([parse_polynomial("x2*x1 - 1/2*x1*x2 - 1/3*x1", alphabet)],
                              MonomialOrder(alphabet))
        f = parse_polynomial("x2^20*x1^20", alphabet)
        nf = normal_form(f, basis)
        assert_same_remainder(nf, fraction_normal_form(f, basis))
        assert len(nf.terms) == 21


DEAD_LETTER = Path(__file__).resolve().parent / "golden" / "inputs" / "dead_letter.json"


def unverified_rees_basis(base):
    """G~ of ``base`` as :func:`tilde_basis` builds it, with neither basis
    verified, so a base that is not a Groebner basis gives one too."""
    order = HomogenizationOrder(base.order)
    t = order.homogenizer
    elements = [homogenize(g, order) for g in base.elements]
    elements += [Poly({(i, t): 1, (t, i): -1})
                 for i in range(t) if i not in base.omega.dead_letters]
    return GroebnerBasis(elements, order)


ALTERED_COMMUTATORS = {
    "X*T - T*X - X": lambda x, t: {(x, t): 1, (t, x): -1, (x,): -1},
    "X*T - 2*T*X": lambda x, t: {(x, t): 1, (t, x): -2},
    "X*T + T*X": lambda x, t: {(x, t): 1, (t, x): 1},
}


def rees_with_commutator(base, x, altered):
    """G~ of ``base``, unverified, with the commutator of letter x given in
    its element by ALTERED_COMMUTATORS[altered]."""
    order = HomogenizationOrder(base.order)
    t = order.homogenizer
    elements = [homogenize(g, order) for g in base.elements]
    elements += [Poly(ALTERED_COMMUTATORS[altered](i, t) if i == x else {(i, t): 1, (t, i): -1})
                 for i in range(t) if i not in base.omega.dead_letters]
    return GroebnerBasis(elements, order)


def with_rule(rees, k, rule):
    """``rees`` with relation k's engine rule replaced by ``rule``."""
    rees._rules = rees._rules[:k] + (rule,) + rees._rules[k + 1 :]
    return rees


def engine_only(monkeypatch, rees, base):
    """``verify_groebner(rees, base)`` with every base overlap reduced by
    the engine, none resolved by its base reduction."""
    with monkeypatch.context() as patch:
        patch.setattr(ncdim.rewrite, "_repeated_reductions", lambda basis, base: {})
        return verify_groebner(rees, base)


def assert_same_result(fast, slow):
    """Equal results, ``applied`` and the remainder's term order included."""
    assert fast == slow and fast.applied == slow.applied
    if not fast.ok:
        assert list(fast.remainder.terms) == list(slow.remainder.terms)


def lower_term_rings():
    """Verified rings with relations that have lower terms: Weyl,
    Heisenberg, U(sl2) and a down-up algebra."""
    return [weyl(2), weyl(3), heisenberg(2), sl2(), down_up()]


def altered_commutator(base, k):
    """G~ of ``base`` with commutator k rewriting X*T -> T*X + X in its rule,
    not T*X; its element is kept."""
    rees = unverified_rees_basis(base)
    length, ((word, c),) = rees._rules[k]
    assert word[0] == rees.order.homogenizer
    return with_rule(rees, k, (length, ((word, c), (word[1:], c))))


def t_appended(base, k):
    """G~ of ``base`` with a T appended, in relation k's rule, to the first
    lower term that holds a base letter; its element is kept."""
    rees = unverified_rees_basis(base)
    t = rees.order.homogenizer
    length, tail = rees._rules[k]
    i = next(i for i, (w, _) in enumerate(tail) if w.count(t) < len(w))
    word, c = tail[i]
    return with_rule(rees, k, (length, tail[:i] + ((word + (t,), c),) + tail[i + 1 :]))


def rees_test_bases():
    """The seeded bases, rational PBW rings with and without lower terms,
    Weyl, Heisenberg and the dead-letter golden input."""
    rng = random.Random(21)
    yield from seeded_bases(400)
    for n in range(2, 7):
        yield rational_pbw(n, rng)
        yield rational_pbw(n, rng, lower=True)
    yield from (weyl(1), weyl(2), heisenberg(1), heisenberg(2))
    yield load_presentation(DEAD_LETTER)


class TestTFront:
    """Rees verification with T moved to the front on entry against the
    one-letter engine it replaced."""

    def test_same_verification_as_the_one_letter_engine(self):
        results = []
        for base in rees_test_bases():
            rees = unverified_rees_basis(base)
            expected = fraction_verify(rees, front=False)
            result = verify_groebner(rees)
            assert (result.ok, result.checked) == (expected.ok, expected.checked)
            if verify_groebner(base).ok:
                assert result.ok
                skipping = verify_groebner(rees, base)
                assert (skipping.ok, skipping.checked) == (True, expected.checked)
            results.append(result)
        assert sum(not r.ok for r in results) >= 50
        assert sum(r.ok and r.checked > 0 for r in results) >= 50

    def test_same_normal_forms_under_verified_rees_bases(self):
        rng = random.Random(5)
        compared = 0
        for base in rees_test_bases():
            if not verify_groebner(base).ok:
                continue
            rees = tilde_basis(base)
            n = rees.order.alphabet.n
            for _ in range(4):
                f = Poly({tuple(rng.choice((n - 1, rng.randrange(n)))
                                for _ in range(rng.randint(0, 6))):
                          Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 5))})
                one_letter = fraction_normal_form(f, rees, front=False)
                assert normal_form(f, rees) == one_letter
                compared += not one_letter.is_zero
        assert compared >= 200

    def test_only_rees_bases_move_t(self):
        assert all(b._front is None for b in seeded_bases(50))
        rees = tilde_basis(commutation(3))
        assert rees._front == (3, frozenset())
        assert tilde_basis(load_presentation(DEAD_LETTER))._front == (3, frozenset({0}))

    def test_t_crosses_the_letters_of_the_commutators(self):
        # the swap rules X*T -> T*X against the relations X*T - T*X
        bases = [*rees_test_bases(), *TestReesOverlapsFromTheBaseRecord.pbw_rings(), weyl(6),
                 *dead_letter_bases(), *skew_bases(60)]
        for base in bases:
            rees = unverified_rees_basis(base)
            t, crossed = t_front_moves(rees)
            assert rees._front == (t, frozenset(range(t)) - crossed)

    @pytest.mark.parametrize("altered", sorted(ALTERED_COMMUTATORS))
    def test_an_altered_commutator_leaves_its_letter_stuck(self, altered):
        stuck = 0
        for base in [*TestReesOverlapsFromTheBaseRecord.pbw_rings(), *dead_letter_bases()]:
            t, dead = base.order.alphabet.n, set(base.omega.dead_letters)
            live = [i for i in range(t) if i not in dead]
            for x in live:
                rees = rees_with_commutator(base, x, altered)
                assert rees.leading_words[len(base) + live.index(x)] == (x, t)
                assert rees._front == (t, frozenset(dead | {x}))
                assert rees._front == (t, frozenset(range(t)) - t_front_moves(rees)[1])
                stuck += 1
        assert stuck >= 80

    def test_a_stuck_letter_keeps_the_word(self):
        # T crosses x1 and x3 but not the dead letter x2
        t, stuck = 3, frozenset({1})
        front = ncdim.rewrite._t_front
        assert front((0, 2, t, 0, t), t, stuck) == (t, t, 0, 2, 0)
        assert front((t, t, 0, 1), t, stuck) == (t, t, 0, 1)
        assert front((0, 1, t), t, stuck) == (0, 1, t)
        assert front((t, 1, 0, t, 2), t, stuck) == (t, 1, 0, t, 2)
        assert front((0, t, 1), t, stuck) == (t, 0, 1)


def logged_find_reduction(monkeypatch):
    """Every (word, result) of ``find_reduction`` from now on."""
    calls = []
    original = GroebnerBasis.find_reduction

    def logged(self, word):
        found = original(self, word)
        calls.append((word, found))
        return found

    monkeypatch.setattr(GroebnerBasis, "find_reduction", logged)
    return calls


class TestRepeatedReductions:
    """A base overlap of G~ that verification takes as resolved by the
    base's own reduction, reduced in full under G~."""

    def test_each_skipped_overlap_repeats_the_base_reduction(self, monkeypatch):
        # G~'s calls are base's with each word w carried T-front as T^m*w,
        # its reduction found m letters further right
        calls = logged_find_reduction(monkeypatch)
        skipped = 0
        bases = [b for b in rees_test_bases() if verify_groebner(b).ok]
        bases += [commutation(n) for n in range(2, 9)]
        bases += [weyl(m) for m in (1, 2, 3)] + [heisenberg(m) for m in (1, 2, 3)] + [sl2()]
        bases += [power_family(n) for n in range(1, 5)] + dead_letter_bases()
        for base in bases:
            rees = tilde_basis(base)
            t = rees.order.homogenizer
            repeated = ncdim.rewrite._repeated_reductions(rees, base)
            assert rees.verification.checked == len(overlap_ambiguities(rees))
            for amb in overlap_ambiguities(rees):
                key = (amb.left_index, amb.right_index, amb.overlap)
                if key not in repeated:
                    continue
                calls.clear()
                used = set()
                assert ncdim.rewrite._reduce_terms(ncdim.rewrite._s_terms(rees, amb),
                                                   rees, used) == {}
                on_rees = []
                for word, found in calls:
                    m = word.count(t)
                    assert word[:m] == (t,) * m
                    on_rees.append((word[m:], None if found is None else (found[0], found[1] - m)))
                calls.clear()
                assert ncdim.rewrite._reduce_terms(ncdim.rewrite._s_terms(base, amb),
                                                   base) == {}
                assert on_rees == calls
                assert used == repeated[key] == rees.verification.applied[key]
                skipped += 1
        assert skipped >= 346

    def test_an_altered_shared_rule_is_reduced_not_skipped(self, monkeypatch):
        # homogeneous down-up relations: every base overlap is skipped
        alphabet = Alphabet(("x1", "x2"), (1, 1))
        relations = ["x1^2*x2 - x1*x2*x1 - x2*x1^2", "x1*x2^2 - x2*x1*x2 - x2^2*x1"]
        base = GroebnerBasis([parse_polynomial(r, alphabet) for r in relations],
                             MonomialOrder(alphabet, "grlex", (1, 0)))
        rees = tilde_basis(base)
        key = (0, 1, 2)
        assert key in ncdim.rewrite._repeated_reductions(rees, base)
        # the same relation with its tail in the other order
        length, tail = rees._rules[0]
        rees._rules = ((length, tail[::-1]),) + rees._rules[1:]
        assert key not in ncdim.rewrite._repeated_reductions(rees, base)
        reduced = []
        s_terms = ncdim.rewrite._s_terms

        def logged(basis, amb):
            reduced.append((amb.left_index, amb.right_index, amb.overlap))
            return s_terms(basis, amb)

        monkeypatch.setattr(ncdim.rewrite, "_s_terms", logged)
        assert verify_groebner(rees, base).ok
        assert key in reduced
        assert all(k in reduced for k in rees.verification.applied
                   if 0 in k[:2] and k[1] < len(base))
        # a reordered tail is the same polynomial, so the one-step identity
        # resolves relation 0's commutator overlap, as the engine does
        (commutator,) = [k for k in rees.verification.applied if k[0] == 0 and k[1] >= len(base)]
        assert commutator not in reduced
        assert rees.verification.applied[commutator] == {0}
        monkeypatch.setattr(ncdim.rewrite, "_one_step", lambda basis, k, j: False)
        assert verify_groebner(rees, base).applied[commutator] == {0}

    @staticmethod
    def reduced_by_the_engine(monkeypatch, rees, base, keys):
        """Assert that no base overlap in ``keys`` is resolved by its base
        reduction and that the result is the engine-only one; return it."""
        repeated = ncdim.rewrite._repeated_reductions(rees, base)
        assert not any(key in repeated for key in keys)
        result = verify_groebner(rees, base)
        assert_same_result(result, engine_only(monkeypatch, rees, base))
        return result

    @staticmethod
    def involving(base, relations):
        """The overlaps of the verified ``base`` whose relations i, j or
        applied ones meet ``relations``."""
        return [key for key, used in base.verification.applied.items()
                if not relations.isdisjoint({key[0], key[1], *used})]

    def test_lower_terms_next_to_a_stuck_letter_are_reduced_not_skipped(self, monkeypatch):
        # a dead letter, or a live one whose commutator was altered, stops T:
        # an overlap that involves it and a relation with lower terms is
        # reduced by the engine
        cases = [(unverified_rees_basis(b), b) for b in dead_letter_bases()]
        for base in lower_term_rings():
            cases += [(rees_with_commutator(base, x, altered), base)
                      for altered in ALTERED_COMMUTATORS for x in range(base.order.alphabet.n)]
        refused = failed = 0
        for rees, base in cases:
            assert verify_groebner(base).ok
            stuck = rees._front[1]
            lower = {k for k in range(len(base)) if rees._rules[k] != base._rules[k]}
            stopped = {k for k, (lw, (_, tail)) in enumerate(zip(base.leading_words, base._rules))
                       if not stuck.isdisjoint(lw) or any(not stuck.isdisjoint(u) for u, _ in tail)}
            keys = set(self.involving(base, lower)) & set(self.involving(base, stopped))
            failed += not self.reduced_by_the_engine(monkeypatch, rees, base, keys).ok
            refused += len(keys)
        assert refused >= 227 and failed >= 60

    @pytest.mark.parametrize("fault", ["dropped", "moved"])
    def test_an_altered_padded_rule_is_reduced_not_skipped(self, fault, monkeypatch):
        # one T dropped from a padded tail word with two, or moved behind the
        # base letters of one; dropping a lone T gives the base rule back
        refused = failed = 0
        for base in lower_term_rings():
            assert verify_groebner(base).ok
            for k in range(len(base)):
                rees = unverified_rees_basis(base)
                t = rees.order.homogenizer
                length, tail = rees._rules[k]
                faulty = [i for i, (w, _) in enumerate(tail)
                          if (w.count(t) > 1 if fault == "dropped" else 0 < w.count(t) < len(w))]
                if not faulty:
                    continue
                i = faulty[0]
                word, c = tail[i]
                word = word[1:] if fault == "dropped" else word[1:] + (t,)
                with_rule(rees, k, (length, tail[:i] + ((word, c),) + tail[i + 1 :]))
                keys = self.involving(base, {k})
                failed += not self.reduced_by_the_engine(monkeypatch, rees, base, keys).ok
                refused += len(keys)
        if fault == "dropped":
            assert refused >= 18 and failed >= 2
        else:  # T-fronting moves the T back: the engine meets the padded rule
            assert refused >= 11 and failed == 0

    def test_an_altered_exact_rule_is_reduced_not_skipped(self, monkeypatch):
        # a homogeneous relation with its first tail coefficient doubled
        refused = failed = 0
        for base in [commutation(4), *lower_term_rings()]:
            assert verify_groebner(base).ok
            for k in range(len(base)):
                rees = unverified_rees_basis(base)
                length, ((word, c), *rest) = rees._rules[k]
                if rees._rules[k] != base._rules[k]:
                    continue
                with_rule(rees, k, (length, ((word, 2 * c), *rest)))
                keys = self.involving(base, {k})
                failed += not self.reduced_by_the_engine(monkeypatch, rees, base, keys).ok
                refused += len(keys)
        assert refused >= 96 and failed >= 24

    @pytest.mark.parametrize("k", [64, 128])
    def test_a_long_power_next_to_a_swap_rule_reduces_no_base_overlap(self, k, monkeypatch):
        # x1^k - x2 has lower terms, so reducing its k base overlaps again
        # took the Rees check cubic time in k
        base = load_presentation_data({"variables": [{"name": "x1"}, {"name": "x2"}],
                                       "relations": [f"x1^{k} - x2", "x2*x1 - x1*x2"]})
        assert verify_groebner(base).ok and base.verification.checked == k
        reduced = []
        reduce_terms = ncdim.rewrite._reduce_terms
        monkeypatch.setattr(ncdim.rewrite, "_reduce_terms",
                            lambda work, basis, applied=None:
                            reduced.append(work) or reduce_terms(work, basis, applied))
        rees = tilde_basis(base)
        assert reduced == []
        slow = engine_only(monkeypatch, unverified_rees_basis(base), base)
        assert len(reduced) == k
        assert_same_result(rees.verification, slow)


class TestReesOverlapsFromTheBaseRecord:
    """The Rees verification reads the overlaps among the base leading words
    off the base's record and enumerates only those with a commutator,
    against the full enumeration of G~'s overlaps."""

    @staticmethod
    def pbw_rings():
        rng = random.Random(25)
        rings = [commutation(n) for n in range(2, 9)]
        rings += [rational_pbw(n, rng) for n in range(2, 7)]
        rings += [weyl(m) for m in (1, 2, 3)] + [heisenberg(m) for m in (1, 2, 3)]
        assert all(verify_groebner(ring).ok for ring in rings)
        return rings

    def test_same_overlaps_checked_in_the_same_order(self, monkeypatch):
        bases = [b for b in rees_test_bases() if verify_groebner(b).ok] + self.pbw_rings()
        listed = []
        monkeypatch.setattr(ncdim.rewrite, "overlap_ambiguities",
                            lambda basis: listed.append(basis) or overlap_ambiguities(basis))
        reduced = []
        s_terms = ncdim.rewrite._s_terms

        def logged(basis, amb):
            reduced.append(amb)
            return s_terms(basis, amb)

        monkeypatch.setattr(ncdim.rewrite, "_s_terms", logged)
        commutator_overlaps = 0
        for base in bases:
            reduced.clear()
            rees = tilde_basis(base)
            assert listed == []  # the base was verified already
            full = overlap_ambiguities(rees)
            assert rees.verification.checked == len(full)
            assert list(rees.verification.applied) == [amb[:3] for amb in full]
            repeated = ncdim.rewrite._repeated_reductions(rees, base)
            assert reduced == [amb for amb in full if amb[:3] not in repeated
                               and not ncdim.rewrite._one_step(rees, amb[0], amb[1])]
            commutator_overlaps += sum(amb.right_index >= len(base) for amb in full)
        assert commutator_overlaps >= 300

    def test_an_altered_commutator_fails_on_the_same_ambiguity(self):
        failed = 0
        for base in self.pbw_rings():
            t = base.order.alphabet.n
            for k in range(len(base), len(base) + t):
                rees = altered_commutator(base, k)
                keyed, full = verify_groebner(rees, base), verify_groebner(rees)
                assert keyed == full
                if not full.ok:
                    amb = keyed.ambiguity
                    assert (amb.left_index, amb.right_index, amb.overlap, amb.word) == \
                        tuple(full.ambiguity)
                    assert list(keyed.remainder.terms) == list(full.remainder.terms)
                    failed += 1
        assert failed >= 50


def dead_letter_bases():
    """Bases with a dead letter x in a tail word, which T cannot cross: the
    S-element of their commutator overlap is not -T*g~_k once T-fronted."""
    xy, xyz = [{"name": "x"}, {"name": "y"}], [{"name": "x"}, {"name": "y"}, {"name": "z"}]
    inputs = [
        {"variables": xy, "relations": ["x", "y*y - x*y"]},
        {"variables": [{"name": "x"}, {"name": "y", "weight": 2}], "relations": ["x", "y*y - x*y"]},
        {"variables": [{"name": "x"}, {"name": "y", "weight": 2}],
         "relations": ["x", "y*y - x*y - x*x"]},
        {"variables": xy, "order": {"kind": "grevlex"}, "relations": ["x", "y*y - x*y"]},
        {"variables": xy, "relations": ["x", "y*y - y*x"]},
        {"variables": xyz, "relations": ["x", "y*y - x*y", "z*y - y*z - x*z"]},
    ]
    return [load_presentation_data(data) for data in inputs]


class TestCommutatorIdentity:
    """The Rees verification resolves the overlap of relation k with a
    commutator by its one-step identity where that holds, against the engine
    reducing every such overlap."""

    @staticmethod
    def refused(monkeypatch):
        """From now on, log each relation k whose overlap with a commutator
        fails the identity check; return the log."""
        refusals = []
        one_step = ncdim.rewrite._one_step

        def logged(basis, k, j):
            found = one_step(basis, k, j)
            if not found and basis.leading_words[j][1:] == (basis.order.homogenizer,):
                refusals.append(k)
            return found

        monkeypatch.setattr(ncdim.rewrite, "_one_step", logged)
        return refusals

    def test_same_result_and_applied_as_the_engine(self, monkeypatch):
        bases = [b for b in rees_test_bases() if verify_groebner(b).ok]
        bases += TestReesOverlapsFromTheBaseRecord.pbw_rings() + [weyl(6)]
        bases += dead_letter_bases()
        assert all(verify_groebner(b).ok for b in bases) and len(bases) >= 115
        refusals = self.refused(monkeypatch)
        by_identity = [verify_groebner(unverified_rees_basis(b), b) for b in bases]
        monkeypatch.setattr(ncdim.rewrite, "_one_step", lambda basis, k, j: False)
        commutator_overlaps = 0
        for base, fast in zip(bases, by_identity):
            slow = verify_groebner(unverified_rees_basis(base), base)
            assert fast.ok and fast == slow
            assert fast.applied == slow.applied
            commutator_overlaps += sum(key[1] >= len(base) for key in fast.applied)
        assert len(refusals) >= 5
        assert commutator_overlaps >= 350

    def test_a_dead_letter_in_a_tail_word_reaches_the_engine(self, monkeypatch):
        refusals = self.refused(monkeypatch)
        base = dead_letter_bases()[0]
        rees = tilde_basis(base)
        assert refusals == [1]
        assert rees.verification.applied[(1, 2, 1)] == {0, 1, 2}

    def test_an_altered_lower_term_falls_back_to_the_engine(self, monkeypatch):
        refusals = self.refused(monkeypatch)
        failed = reached = 0
        for base in TestReesOverlapsFromTheBaseRecord.pbw_rings():
            for k in range(len(base)):
                rees = t_appended(base, k)
                amb = next(amb for amb in overlap_ambiguities(rees)
                           if amb.left_index == k and amb.right_index >= len(base))
                assert not ncdim.rewrite._one_step(rees, k, amb.right_index)
                refusals.clear()
                keyed = verify_groebner(rees, base)
                reached += k in refusals  # not when an earlier overlap failed
                full = verify_groebner(rees)
                assert keyed == full
                if not full.ok:
                    amb = keyed.ambiguity
                    assert (amb.left_index, amb.right_index, amb.overlap, amb.word) == \
                        tuple(full.ambiguity)
                    assert list(keyed.remainder.terms) == list(full.remainder.terms)
                    failed += 1
                else:
                    assert keyed.applied == full.applied
        assert failed >= 40 and reached >= 100

    def test_the_rules_decide_as_the_s_element_does(self):
        # the identity from the two relations' rules against the T-fronted
        # S-element compared with -T*g~_k term by term, on every overlap of G~
        rings = TestReesOverlapsFromTheBaseRecord.pbw_rings()
        # y*x - y homogenizes to y*x - T*y, a commutator's tail under another
        # leading word; x*y - y has no x in its tail, so x stuck fails LM(g_k) alone
        xy = [{"name": "x"}, {"name": "y"}]
        hand = [load_presentation_data({"variables": xy, "relations": relations})
                for relations in (["y*x - y", "x*y*y - x*x*x"], ["x*y - y"])]
        bases = [*rees_test_bases(), *rings, weyl(6), *dead_letter_bases(), *skew_bases(60), *hand]
        reeses = [(unverified_rees_basis(b), b) for b in bases]
        for base in [*rings, *hand]:
            t = base.order.alphabet.n
            # faults in the rules: X*T -> T*X + X, and a T appended to a lower term
            reeses += [(altered_commutator(base, k), base) for k in range(len(base), len(base) + t)]
            reeses += [(t_appended(base, k), base) for k in range(len(base))]
            # a fault in an element: the altered letter is stuck, in LM(g_k) too
            reeses += [(rees_with_commutator(base, x, altered), base)
                       for altered in ALTERED_COMMUTATORS for x in range(t)]
        decided = {}  # (with a commutator, identity holds) -> overlaps
        for rees, base in reeses:
            for amb in overlap_ambiguities(rees):
                k, j = amb.left_index, amb.right_index
                holds = one_step(rees, k, ncdim.rewrite._s_terms(rees, amb))
                assert ncdim.rewrite._one_step(rees, k, j) == holds
                decided[j >= len(base), holds] = decided.get((j >= len(base), holds), 0) + 1
        assert decided[True, True] >= 6500 and decided[True, False] >= 1200
        assert decided[False, False] >= 12000 and (False, True) not in decided


def skew_bases(count):
    """Seeded q-commutation rings, x_q*x_p - l*x_p*x_q for p < q with each l
    a random nonzero rational, on 3-8 letters of weights 1-3 under grlex or
    grevlex with shuffled precedence.  Every third drops one relation and
    every third adds a lower term to one, which mostly breaks the Groebner
    property."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(n)),
                            tuple(rng.randint(1, 3) for _ in range(n)))
        precedence = list(range(n))
        rng.shuffle(precedence)
        order = MonomialOrder(alphabet, rng.choice(["grlex", "grevlex"]), tuple(precedence))
        relations = [{(q, p): 1, (p, q): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                      * rng.choice((1, -1))}
                     for q in range(n) for p in range(q)]
        k = rng.randrange(len(relations))
        if seed % 3 == 1:
            del relations[k]
        elif seed % 3 == 2:
            # a letter of the pair, of lower degree than both words
            relations[k][(rng.choice(list(relations[k])[0]),)] = Fraction(rng.randint(1, 9), 2)
        yield GroebnerBasis([Poly(terms) for terms in relations], order)


class TestSkewTripleIdentity:
    """The base verification resolves an overlap of three swap rules by the
    skew-triple identity where that holds, against the engine reducing
    every overlap."""

    @staticmethod
    def bases():
        """The seeded skew bases, and PBW rings that mix swap rules with
        relations that have lower terms."""
        return [*skew_bases(90), sl2(), *(weyl(m) for m in (1, 2, 3)),
                *(heisenberg(m) for m in (1, 2, 3))]

    @staticmethod
    def logged(monkeypatch):
        """From now on, log (basis, i, j, relations or None) of each overlap
        the identity is tried on; return the log."""
        log = []
        skew_triple = ncdim.rewrite._skew_triple

        def logged(basis, i, j):
            used = skew_triple(basis, i, j)
            log.append((basis, i, j, used))
            return used

        monkeypatch.setattr(ncdim.rewrite, "_skew_triple", logged)
        return log

    @staticmethod
    def identity_off(monkeypatch):
        monkeypatch.setattr(ncdim.rewrite, "_skew_triple", lambda basis, i, j: None)

    def test_each_resolved_overlap_reduces_to_zero_by_the_same_relations(self, monkeypatch):
        log = self.logged(monkeypatch)
        for basis in self.bases():
            verify_groebner(basis)
        resolved = refused = 0
        for basis, i, j, used in log:
            if used is None:
                refused += 1
                continue
            amb = ncdim.rewrite._ambiguity(basis.leading_words, i, j, 1)
            applied = set()
            assert ncdim.rewrite._reduce_terms(ncdim.rewrite._s_terms(basis, amb),
                                               basis, applied) == {}
            assert applied == used and len(used) == 3
            resolved += 1
        assert resolved >= 800 and refused >= 80

    def test_same_result_and_applied_as_the_engine(self, monkeypatch):
        fast = [verify_groebner(b) for b in self.bases()]
        self.identity_off(monkeypatch)
        slow = [verify_groebner(b) for b in self.bases()]
        for a, b in zip(fast, slow):
            assert a == b and a.applied == b.applied
            if not a.ok:
                assert_same_remainder(a.remainder, b.remainder)
        assert sum(not r.ok for r in fast) >= 40
        assert sum(r.ok for r in fast) >= 30

    def test_rees_bases_never_try_it(self, monkeypatch):
        log = self.logged(monkeypatch)
        for base in (commutation(4), rational_pbw(4, random.Random(3)), weyl(2)):
            assert verify_groebner(base).ok
            log.clear()
            assert tilde_basis(base).verification.ok
            assert verify_groebner(unverified_rees_basis(base)).ok
            assert log == []

    SKEW = ["x3*x2 - 2*x2*x3", "x2*x1 - 3*x1*x2"]
    FAULTS = {
        "no relation on c*a": SKEW,
        "c*a has a lower term": SKEW + ["x3*x1 - 5*x1*x3 - x2"],
        "c*a is no swap": SKEW + ["x3*x1 - x2^2"],
        "a*c is a leading word": SKEW + ["x3*x1 - 5*x1*x3", "x1*x3 - x1*x2"],
        "a*b*c holds a leading word": SKEW + ["x3*x1 - 5*x1*x3", "x1*x2*x3 - x1^3"],
    }

    @staticmethod
    def triple(relations):
        return {"variables": [{"name": f"x{i}"} for i in (1, 2, 3)], "relations": relations}

    def test_the_complete_triple_is_resolved_with_no_reduction(self, monkeypatch):
        basis = load_presentation_data(self.triple(self.SKEW + ["x3*x1 - 5*x1*x3"]))
        monkeypatch.setattr(ncdim.rewrite, "_reduce_terms", None)  # any call fails
        result = verify_groebner(basis)
        assert result.ok and result.applied == {(0, 1, 1): {0, 1, 2}}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_faulty_triple_falls_back_to_the_engine(self, fault, monkeypatch, tmp_path, capsys):
        data = self.triple(self.FAULTS[fault])
        basis = load_presentation_data(data)
        log = self.logged(monkeypatch)
        reduced = []
        s_terms = ncdim.rewrite._s_terms
        monkeypatch.setattr(ncdim.rewrite, "_s_terms",
                            lambda basis, amb: reduced.append(amb[:3]) or s_terms(basis, amb))
        fast = verify_groebner(basis)
        # LM(x3*x2 - ...) = x3*x2 and LM(x2*x1 - ...) = x2*x1 overlap first
        assert basis.leading_words[:2] == ((2, 1), (1, 0))
        assert (basis, 0, 1, None) in log and reduced[0] == (0, 1, 1)
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(data))
        assert main(["check-gb", str(path)]) == 3
        message = capsys.readouterr().err
        self.identity_off(monkeypatch)
        slow = verify_groebner(load_presentation_data(data))
        assert not fast.ok and fast == slow
        assert_same_remainder(fast.remainder, slow.remainder)
        assert main(["check-gb", str(path)]) == 3
        assert capsys.readouterr().err == message


def engine_value(c):
    return Fraction(c) if type(c) is int else Fraction(*c)


class TestExactSubtraction:
    """``_sub``, the engine's one exact subtraction, against ``Fraction``."""

    def test_every_small_pair(self):
        values = list(range(-12, 13))
        values += [(n, d) for d in range(2, 13) for n in range(-12, 13) if gcd(n, d) == 1]
        for a in values:
            for b in values:
                result = ncdim.rewrite._sub(a, b)
                expected = engine_value(a) - engine_value(b)
                if expected.denominator == 1:
                    assert type(result) is int and result == expected
                else:
                    assert type(result) is tuple and len(result) == 2
                    n, d = result
                    assert d > 1 and n != 0 and gcd(n, d) == 1
                    assert Fraction(n, d) == expected


def pair_loop_overlaps(basis):
    """Reference overlap list: every ordered pair of leading words, every
    overlap length."""
    out = []
    lws = basis.leading_words
    for i, u in enumerate(lws):
        for j, v in enumerate(lws):
            for o in range(1, min(len(u), len(v))):
                if u[len(u) - o :] == v[:o]:
                    out.append(ncdim.rewrite.OverlapAmbiguity(i, j, o, u + v[o:]))
    return out


class TestOverlapIndex:
    """Overlaps looked up by prefix against the pair loop they replaced."""

    def test_same_list_on_seeded_and_rees_bases(self):
        bases = list(seeded_bases(400))
        bases += [tilde_basis(commutation(n)) for n in range(2, 9)]
        total = 0
        for basis in bases:
            found = overlap_ambiguities(basis)
            assert found == pair_loop_overlaps(basis)
            total += len(found)
        assert total >= 500


class TestNormalFormCounts:
    """Counted, not timed: verifying the Rees basis of commutation(13)."""

    @staticmethod
    def counted_verify(monkeypatch, basis):
        calls = {"is_normal": 0, "find_reduction": 0, "sort_key": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        count(MonomialSet, "is_normal")
        count(GroebnerBasis, "find_reduction")
        count(HomogenizationOrder, "sort_key")
        assert verify_groebner(basis).ok
        return calls

    @staticmethod
    def entered(basis):
        tally = {"entered": 0, "reducible": 0}
        for amb in overlap_ambiguities(basis):
            assert scan_normal_form(s_element(basis, amb), basis, tally).is_zero
        return tally

    def test_each_term_scanned_once_and_keyed_only_if_reducible(self, monkeypatch):
        basis = tilde_basis(commutation(13))
        tally = self.entered(basis)
        calls = self.counted_verify(monkeypatch, basis)
        assert calls["is_normal"] == 0
        assert 0 < calls["find_reduction"] <= tally["entered"]
        assert 0 < calls["sort_key"] <= tally["reducible"]

    def test_the_scan_engine_breaks_the_bounds(self, monkeypatch):
        basis = tilde_basis(commutation(13))
        tally = self.entered(basis)
        monkeypatch.setattr(ncdim.rewrite, "_reduce_terms", scan_reduce_terms)
        calls = self.counted_verify(monkeypatch, basis)
        assert calls["is_normal"] > 0
        assert calls["sort_key"] > tally["reducible"]

    @pytest.mark.parametrize("ring", [(commutation, 13), (weyl, 6)],
                             ids=["commutation(13)", "weyl(6)"])
    def test_commutator_overlaps_make_no_find_reduction_call(self, ring, monkeypatch):
        make, n = ring
        base = make(n)
        assert verify_groebner(base).ok
        rees = unverified_rees_basis(base)
        reduced, searched = [], []
        s_terms, find = ncdim.rewrite._s_terms, GroebnerBasis.find_reduction

        def logged_s_terms(basis, amb):
            reduced.append(amb)
            return s_terms(basis, amb)

        def logged_find(basis, word):
            searched.append(reduced[-1])
            return find(basis, word)

        monkeypatch.setattr(ncdim.rewrite, "_s_terms", logged_s_terms)
        monkeypatch.setattr(GroebnerBasis, "find_reduction", logged_find)
        assert verify_groebner(rees, base).ok
        assert [amb for amb in reduced if amb.right_index >= len(base)] == []
        assert [amb for amb in searched if amb.right_index >= len(base)] == []
        applied = rees.verification.applied
        commutator_overlaps = [key for key in applied if key[1] >= len(base)]
        assert len(commutator_overlaps) == len(base)  # one per relation of G
        assert all(applied[key] == {key[0]} for key in commutator_overlaps)

    @pytest.mark.parametrize("make, built", [
        (lambda: commutation(13), 0),
        (lambda: weyl(6), 0),
        (lambda: heisenberg(3), 0),
        (sl2, 0),
    ], ids=["commutation(13)", "weyl(6)", "heisenberg(3)", "sl2"])
    def test_the_rees_check_builds_only_what_it_reduces(self, make, built, monkeypatch):
        base = make()
        assert verify_groebner(base).ok
        ambiguities, reduced = [], []
        ambiguity, s_terms = ncdim.rewrite._ambiguity, ncdim.rewrite._s_terms
        monkeypatch.setattr(ncdim.rewrite, "_ambiguity",
                            lambda *args: ambiguities.append(args) or ambiguity(*args))
        monkeypatch.setattr(ncdim.rewrite, "_s_terms",
                            lambda basis, amb: reduced.append(amb) or s_terms(basis, amb))
        rees = tilde_basis(base)
        assert len(ambiguities) == len(reduced) == built
        assert all(amb.right_index < len(base) for amb in reduced)
        assert sum(key[1] >= len(base) for key in rees.verification.applied) == len(base)

    @pytest.mark.parametrize("make, reductions", [
        (lambda: commutation(13), 0),
        (lambda: rational_pbw(13, random.Random(13)), 0),
        (lambda: weyl(6), 60),  # one per triple that holds a pair (x_i, d_i): 6 * 10
    ], ids=["commutation(13)", "q-commutation(13)", "weyl(6)"])
    def test_base_check_reduces_only_triples_with_lower_terms(self, make, reductions,
                                                              monkeypatch):
        base = make()
        reduced = []
        reduce_terms = ncdim.rewrite._reduce_terms
        monkeypatch.setattr(ncdim.rewrite, "_reduce_terms",
                            lambda work, basis, applied=None:
                            reduced.append(work) or reduce_terms(work, basis, applied))
        result = verify_groebner(base)
        n = base.order.alphabet.n
        assert result.ok and result.checked == n * (n - 1) * (n - 2) // 6
        assert len(reduced) == reductions
