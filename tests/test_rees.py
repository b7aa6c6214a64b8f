import random
import re
import sys
from functools import cached_property
from pathlib import Path

import pytest

import ncdim.chains
import ncdim.freealg
import ncdim.pipeline
import ncdim.rees
from ncdim import (
    Alphabet,
    CrossCheckError,
    GroebnerBasis,
    GroebnerVerificationError,
    GrowthClass,
    MonomialOrder,
    MonomialSet,
    Poly,
    build_chain_graph,
    chain_sets,
    check_transfer,
    extend_alphabet,
    hilbert_series,
    homogenize,
    leading_data,
    load_presentation,
    monomial_invariants,
    parse_polynomial,
    rees_invariants,
    tilde_basis,
)
from ncdim.chains import ChainGraph, ChainSets
from ncdim.cli import main
from ncdim.rees import HomogenizationOrder
from ncdim.rewrite import ensure_verified

from presets import (
    commutation,
    down_up,
    free_algebra,
    nilpotent,
    ore_case_a,
    ore_case_b,
    power_family,
)
from references import chain_level, compare, dehomogenize, poly_mul
from test_oracles import CASES

AB = Alphabet(("x1", "x2"), (1, 1))
AB_W = Alphabet(("x1", "x2"), (1, 3))


class TestExtendAlphabet:
    def test_adds_t_with_weight_one(self):
        ext = extend_alphabet(AB_W)
        assert ext.names == ("x1", "x2", "T")
        assert ext.weights == (1, 3, 1)
        assert ext.index("T") == ext.n - 1 == 2

    def test_t_name_collisions_resolved(self):
        ext = extend_alphabet(Alphabet(("T", "x"), (1, 1)))
        assert ext.names == ("T", "x", "T_")
        ext2 = extend_alphabet(Alphabet(("T", "T_"), (1, 1)))
        assert ext2.names == ("T", "T_", "T__")


class TestExtendedOrder:
    def test_restricts_to_base_order(self):
        for kind in ("grlex", "grevlex"):
            base = MonomialOrder(AB, kind)
            ext_order = HomogenizationOrder(base)
            for u, v in [((0, 1), (1, 0)), ((0,), (1,)), ((), (0, 0))]:
                assert compare(ext_order, u, v) == compare(base, u, v)

    def test_t_below_every_letter(self):
        ext_order = HomogenizationOrder(MonomialOrder(AB_W))
        t = (2,)
        assert compare(ext_order, t, (0,)) < 0
        assert compare(ext_order, t, (1,)) < 0
        assert compare(ext_order, (), t) < 0

    def test_commutator_leading_word(self):
        for kind in ("grlex", "grevlex"):
            ext_order = HomogenizationOrder(MonomialOrder(AB, kind))
            t = 2
            assert compare(ext_order, (0, t), (t, 0)) > 0

    def test_homogenized_terms_stay_below_the_leading_word(self):
        # regression pair: right-reading tie-breaks must not let T^k*w
        # overtake the leading word
        cases = [
            (AB, "grevlex", "x2*x1 - x1"),
            (AB_W, "grevlex", "x2*x1 - x2"),
            (AB, "grlex", "x2*x1 - x1"),
        ]
        for alphabet, kind, text in cases:
            order = MonomialOrder(alphabet, kind)
            ext_order = HomogenizationOrder(order)
            f = parse_polynomial(text, alphabet)
            hom = homogenize(f, ext_order)
            assert leading_data(hom, ext_order)[0] == leading_data(f, order)[0]

    def test_multiplicative_spot_checks(self):
        ext_order = HomogenizationOrder(MonomialOrder(AB))
        t = 2
        pairs = [((t, 0), (0, t)), ((t,), (0,)), ((0, 1), (1, 0))]
        contexts = [((), ()), ((1,), ()), ((), (t,)), ((t, 1), (0,))]
        for u, v in pairs:
            sign = compare(ext_order, u, v)
            for left, right in contexts:
                assert compare(ext_order, left + u + right, left + v + right) == sign


class TestHomogenize:
    def test_pads_lower_terms_on_the_left(self):
        pres = ore_case_a()
        hom = homogenize(pres.elements[0], HomogenizationOrder(pres.order))
        assert hom == Poly(
            {(1, 0): 1, (0, 1): -2, (2, 1): -3, (0, 0): -1, (2, 0): -1}
        )

    def test_weighted_padding(self):
        pres = ore_case_b()
        hom = homogenize(pres.elements[0], HomogenizationOrder(pres.order))
        assert hom == Poly(
            {(1, 0): 1, (0, 1): -2, (2, 1): -3, (2, 0, 0, 0): -1}
        )

    def test_power_two_padding(self):
        pres = power_family(2)
        hom = homogenize(pres.elements[0], HomogenizationOrder(pres.order))
        assert hom == Poly({(1, 1, 0): 1, (0, 1, 1): -2, (2, 2, 0): -1})

    def test_homogeneous_input_unchanged(self):
        f = parse_polynomial("x2*x1 - 2*x1*x2", AB)
        assert homogenize(f, HomogenizationOrder(MonomialOrder(AB))) == f

    def test_result_is_homogeneous(self):
        pres = ore_case_b()
        hom = homogenize(pres.elements[0], HomogenizationOrder(pres.order))
        degrees = {extend_alphabet(AB_W).degree(w) for w in hom.terms}
        assert len(degrees) == 1


class TestDehomogenize:
    def test_round_trip(self):
        for pres in (ore_case_a(), ore_case_b(), power_family(2)):
            order = HomogenizationOrder(pres.order)
            t = order.homogenizer
            for g in pres.elements:
                assert dehomogenize(homogenize(g, order), t) == g

    def test_commutator_vanishes(self):
        t = 2
        commutator = Poly({(0, t): 1, (t, 0): -1})
        assert dehomogenize(commutator, t).is_zero


class TestTildeBasis:
    def test_down_up_leading_words(self):
        rp = tilde_basis(down_up())
        assert set(rp.leading_words) == {(0, 0, 1), (0, 1, 1), (0, 2), (1, 2)}
        assert len(rp) == 4
        assert rp.verified

    def test_ore_b_relations(self):
        rp = tilde_basis(ore_case_b())
        expected = Poly({(1, 0): 1, (0, 1): -2, (2, 1): -3, (2, 0, 0, 0): -1})
        assert rp.elements[0] == expected
        t = rp.order.homogenizer
        assert Poly({(0, t): 1, (t, 0): -1}) in rp.elements
        assert Poly({(1, t): 1, (t, 1): -1}) in rp.elements

    def test_unverifiable_basis_rejected(self):
        f = parse_polynomial("x1*x2 - x1", AB)
        g = parse_polynomial("x2*x1 - x2", AB)
        basis = GroebnerBasis([f, g], MonomialOrder(AB))
        with pytest.raises(GroebnerVerificationError):
            tilde_basis(basis)

    def test_dead_letter_commutator_omitted(self):
        basis = GroebnerBasis([Poly.monomial((0,))], MonomialOrder(AB))
        rp = tilde_basis(basis)
        assert set(rp.leading_words) == {(0,), (1, 2)}

    def test_relation_with_another_leading_word_fails_the_cross_check(
            self, monkeypatch, capsys):
        # the two homogenized down-up relations trade places: the set of
        # leading words is still LM(G) u {X_i*T}, relation by relation it is not
        homogenized = ncdim.rees.homogenize
        elements = list(load_presentation(DOWN_UP_FILE).elements)

        def swapped(g, order):
            return homogenized(elements[1 - elements.index(g)], order)

        monkeypatch.setattr(ncdim.rees, "homogenize", swapped)
        with pytest.raises(CrossCheckError, match="Rees relation 1 has leading word"):
            tilde_basis(load_presentation(DOWN_UP_FILE))
        assert main(["gldim", DOWN_UP_FILE]) == 4
        assert "Rees relation 1 has leading word" in capsys.readouterr().err

    def test_homogenization_that_keeps_the_leading_words_fails_verification(
            self, monkeypatch, capsys):
        # the T-padded term of the first down-up relation changes sign, the
        # second relation's does not: the overlap x1*x1*x2*x2 no longer resolves
        homogenized = ncdim.rees.homogenize
        first = load_presentation(DOWN_UP_FILE).elements[0]

        def flipped(g, order):
            h, t = homogenized(g, order), order.homogenizer
            if g != first:
                return h
            return Poly({w: -c if t in w else c for w, c in h.terms.items()})

        monkeypatch.setattr(ncdim.rees, "homogenize", flipped)
        message = "homogenized basis failed verification on the overlap x1*x1*x2*x2"
        with pytest.raises(CrossCheckError, match=re.escape(message)):
            ncdim.pipeline.analyze(load_presentation(DOWN_UP_FILE))
        assert main(["report", DOWN_UP_FILE]) == 4
        assert message in capsys.readouterr().err

    def test_grevlex_base_supported(self):
        order = MonomialOrder(AB, "grevlex")
        basis = GroebnerBasis([parse_polynomial("x2*x1 - x1", AB)], order)
        rp = tilde_basis(basis)
        assert set(rp.leading_words) == {(1, 0), (0, 2), (1, 2)}

    def test_one_leading_data_call_per_rees_relation(self, monkeypatch):
        # homogenizing reads the leading degree off the terms, so only the
        # construction of G~ asks for each relation's leading word
        basis = commutation(4)
        ensure_verified(basis)
        calls = 0
        original = ncdim.freealg.leading_data

        def counted(f, order):
            nonlocal calls
            calls += 1
            return original(f, order)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ncdim" and getattr(module, "leading_data", None) is original:
                monkeypatch.setattr(module, "leading_data", counted)
        tilded = tilde_basis(basis)
        assert len(tilded) == len(basis) + 4
        assert calls == len(tilded)


class TestReesInvariants:
    def test_down_up(self):
        inv = rees_invariants(down_up())
        assert inv.gldim == 4
        assert inv.growth.is_polynomial and inv.growth.degree == 4
        assert inv.hilbert.denominator == (1, -3, 2, 2, -3, 1)
        assert inv.sets.levels == (
            ((0,), (1,), (2,)),
            ((0, 2), (1, 2), (0, 0, 1), (0, 1, 1)),
            ((0, 0, 1, 1), (0, 0, 1, 2), (0, 1, 1, 2)),
            ((0, 0, 1, 1, 2),),
        )

    def test_ore_cases(self):
        inv_a = rees_invariants(ore_case_a())
        assert inv_a.gldim == 3
        assert inv_a.growth.degree == 3
        assert inv_a.hilbert.denominator == (1, -3, 3, -1)
        inv_b = rees_invariants(ore_case_b())
        assert inv_b.gldim == 3
        assert inv_b.growth.degree == 3
        assert inv_b.hilbert.denominator == (1, -2, 1, -1, 2, -1)

    def test_power_family(self):
        for n, denominator in ((1, (1, -3, 3, -1)), (2, (1, -3, 2, 1, -1)), (3, (1, -3, 2, 0, 1, -1))):
            inv = rees_invariants(power_family(n))
            assert inv.gldim == 3
            assert inv.hilbert.denominator == denominator
            assert inv.growth.exponential == (n >= 2)

    def test_commutation(self):
        inv = rees_invariants(commutation(3))
        assert inv.gldim == 4
        assert inv.growth.degree == 4
        assert inv.hilbert.denominator == (1, -4, 6, -4, 1)

    def test_infinite_base_dimension(self, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 8)
        inv = rees_invariants(nilpotent())
        assert inv.gldim is None
        assert not inv.sets.finite
        assert inv.growth.is_polynomial and inv.growth.degree == 1
        assert inv.hilbert.denominator is None

    def test_free_algebra(self):
        inv = rees_invariants(free_algebra(2))
        assert inv.gldim == 2
        assert inv.growth.exponential
        assert inv.hilbert.denominator == (1, -3, 2)

    def test_t_vertex_is_a_sink_and_base_vertices_reach_it(self):
        for pres in (down_up(), ore_case_b(), commutation(3), power_family(2)):
            inv = rees_invariants(pres)
            t = inv.basis.order.homogenizer
            assert inv.graph.edges[(t,)] == ()
            for v in inv.graph.vertices:
                if v and v != (t,) and v[-1] != t:
                    assert (t,) in inv.graph.edges[v]

    def test_levels_decompose_as_base_plus_shifted_base(self):
        for pres in (down_up(), ore_case_a(), commutation(3)):
            inv = rees_invariants(pres)
            t = inv.basis.order.homogenizer
            omega = MonomialSet.interreduce(pres.leading_words, pres.order.alphabet)
            base_sets = chain_sets(build_chain_graph(omega))
            for i, level in enumerate(inv.sets.levels):
                lower = {(),} if i == 0 else set(chain_level(base_sets, i - 1))
                expected = set(chain_level(base_sets, i)) | {c + (t,) for c in lower}
                assert set(level) == expected

    def test_maximal_chains_end_in_t(self):
        for pres in (down_up(), ore_case_b(), commutation(4)):
            inv = rees_invariants(pres)
            t = inv.basis.order.homogenizer
            assert all(word[-1] == t for word in inv.sets.levels[-1])

    def test_coefficients_match_normal_word_counts(self):
        for pres in (down_up(), ore_case_b(), power_family(2)):
            inv = rees_invariants(pres, truncation=10)
            counts = inv.basis.omega.count_normal(10)
            assert list(inv.hilbert.coefficients) == counts

    def test_denominator_gains_a_factor_of_one_minus_t(self):
        # empirical identity on every closed-form example:
        # D_rees(t) = (1 - t) * D_base(t)
        for pres in (down_up(), ore_case_a(), ore_case_b(), commutation(3),
                      power_family(1), power_family(2), power_family(3)):
            inv = rees_invariants(pres)
            omega = pres.omega
            sets = chain_sets(build_chain_graph(omega))
            base = hilbert_series(sets)
            assert list(inv.hilbert.denominator) == poly_mul([1, -1], list(base.denominator))


DOWN_UP_FILE = str(Path(__file__).resolve().parent.parent / "presentations" / "down_up.json")


def with_sets(inv, **changes):
    """The Rees invariants with the fields ``changes`` names changed in their chain sets."""
    sets = inv.sets
    fields = {"graph": sets.graph, "finite": sets.finite, "counts": sets.counts,
              "truncation": sets.truncation}
    return inv._replace(sets=ChainSets(**{**fields, **changes}))


def with_graph(inv, vertices=(), edges=None):
    """The Rees invariants with chain sets on a changed chain graph: extra
    vertices, as sinks, and successor lists replaced per source vertex."""
    graph = inv.graph
    return with_sets(inv, graph=ChainGraph(
        graph.omega, {**graph.edges, **dict.fromkeys(vertices, ()), **(edges or {})}
    ))


def one_more_top_chain(counts, i):
    return counts[:i] + (counts[i][:-1] + (counts[i][-1] + 1,),) + counts[i + 1 :]


# The Rees chain graph of down_up has the base vertices 1, x1, x2, x1*x2 and
# x2*x2, plus T; x1*x2 steps to x2 and T, x2*x2 to T only.
T = (2,)

# One corruption per cross-check on the Rees side of down_up (base gl.dim 3,
# GK degree 3, four Rees chain levels); each leaves the earlier checks intact.
CORRUPTIONS = {
    "extra vertex": (
        lambda inv: with_graph(inv, vertices=((0, 0),)),
        "the Rees chain vertices are not the base ones plus T",
    ),
    "T has an out-edge": (
        lambda inv: with_graph(inv, edges={T: ((0,),)}),
        "the T vertex of the Rees chain graph has out-edges",
    ),
    "no edge to T": (
        lambda inv: with_graph(inv, edges={(0, 1): ((1,),)}),
        "Rees chain vertex x1*x2 has no edge to T",
    ),
    "extra base edge": (
        lambda inv: with_graph(inv, edges={(1, 1): ((1,), T)}),
        "Rees chain vertex x2*x2 does not step to its base successors",
    ),
    "equal finiteness": (
        lambda inv: with_sets(inv, finite=False),
        "Rees chain finiteness differs from the base",
    ),
    "global dimension + 1": (
        lambda inv: with_sets(inv, counts=inv.sets.counts + ((0, 0, 0, 0, 0, 1),)),
        "Rees global dimension is not base + 1",
    ),
    "level counts": (
        lambda inv: with_sets(inv, counts=one_more_top_chain(inv.sets.counts, 2)),
        "Rees chain count C~_2(t) is not C_2(t) + t*C_1(t)",
    ),
    "GK degree + 1": (
        lambda inv: inv._replace(growth=GrowthClass(False, inv.growth.degree + 1)),
        "Rees growth degree is not base + 1",
    ),
}


class TestTransferCrossChecks:
    """Every base-vs-Rees identity that analyze() asserts fails loudly."""

    @pytest.fixture(params=sorted(CORRUPTIONS))
    def corrupted(self, request, monkeypatch):
        corrupt, message = CORRUPTIONS[request.param]
        original = ncdim.pipeline.rees_invariants
        monkeypatch.setattr(ncdim.pipeline, "rees_invariants",
                            lambda *args: corrupt(original(*args)))
        return message

    def test_analyze_raises(self, corrupted):
        with pytest.raises(CrossCheckError, match=re.escape(corrupted)):
            ncdim.pipeline.analyze(load_presentation(DOWN_UP_FILE))

    def test_report_exits_4(self, corrupted, capsys):
        assert main(["report", DOWN_UP_FILE]) == 4
        assert corrupted in capsys.readouterr().err


def test_transfer_check_rejects_unequal_truncations():
    # down_up has finite chain sets, so its level counts agree at any N
    basis = down_up()
    base = monomial_invariants(build_chain_graph(basis.omega), 16)
    check_transfer(rees_invariants(basis, 16), base)
    with pytest.raises(CrossCheckError, match="counted to degree 5, the base ones to 16"):
        check_transfer(rees_invariants(basis, 5), base)


class TestReesGrowthClassCrossCheck:
    """The Rees algebra grows exponentially exactly when the base does."""

    @pytest.fixture
    def polynomial_rees(self, monkeypatch):
        original = ncdim.pipeline.rees_invariants
        monkeypatch.setattr(ncdim.pipeline, "rees_invariants", lambda *args: original(
            *args)._replace(growth=GrowthClass(False, 2)))

    def test_analyze_raises(self, polynomial_rees):
        with pytest.raises(CrossCheckError, match="Rees growth is polynomial"):
            ncdim.pipeline.analyze(free_algebra(2))

    def test_report_exits_4(self, polynomial_rees, tmp_path, capsys):
        path = tmp_path / "cube.json"
        path.write_text('{"variables": [{"name": "x1"}, {"name": "x2"}], '
                        '"relations": ["x1^3"]}', encoding="utf-8")
        assert main(["report", str(path)]) == 4
        assert "Rees growth is polynomial over an exponential base" in capsys.readouterr().err


class TestAssociatedGradedCrossCheck:
    """Setting T = 0 in the verified Rees basis must give the reported lh(G)."""

    @pytest.fixture
    def wrong_lh(self, monkeypatch):
        # the whole relation instead of its top-degree part: down_up has a
        # term of lower degree, so the two sides differ
        monkeypatch.setattr(ncdim.pipeline, "leading_homogeneous", lambda f, alphabet: f)

    def test_analyze_raises(self, wrong_lh):
        with pytest.raises(CrossCheckError, match="setting T = 0 in Rees relation 1"):
            ncdim.pipeline.analyze(load_presentation(DOWN_UP_FILE))

    def test_report_exits_4(self, wrong_lh, capsys):
        assert main(["report", DOWN_UP_FILE]) == 4
        assert "leading homogeneous part of G" in capsys.readouterr().err


# The word-level checks that the graph embedding check replaced, kept as
# references: on every listed level they must agree with it.

def _check_level_decomposition(tilde_sets: ChainSets, base_sets: ChainSets, t: int) -> None:
    lower = chain_level(base_sets, -1)
    for i, level in enumerate(tilde_sets.levels):
        same = chain_level(base_sets, i)
        if same is None:
            break  # the base listing stopped before this level
        if set(level) != set(same) | {c + (t,) for c in lower}:
            raise CrossCheckError(
                f"Rees chain level {i} is not C_{i} plus C_{i - 1}*T"
            )
        lower = same


def _check_top_level(tilde_sets: ChainSets, base_sets: ChainSets, t: int) -> None:
    if not (tilde_sets.finite and base_sets.finite and tilde_sets.counts):
        return
    top_index = len(tilde_sets.counts) - 1
    top, base_top = chain_level(tilde_sets, top_index), chain_level(base_sets, top_index - 1)
    if top is None or base_top is None:
        return
    base_top = set(base_top)
    for word in top:
        if word[-1] != t or word[:-1] not in base_top:
            raise CrossCheckError(
                "a maximal Rees chain does not extend a maximal base chain by T"
            )


def random_antichains(count, seed=31337):
    """Interreduced obstruction sets on 1-3 letters of weights 1-3; a
    length-1 word makes a dead letter."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 3)
        alphabet = Alphabet(
            tuple(f"x{i + 1}" for i in range(n)), tuple(rng.randint(1, 3) for _ in range(n))
        )
        words = [
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        cases.append((alphabet, MonomialSet.interreduce(words, alphabet)))
    return cases


class TestEmbeddingAgainstWordChecks:
    """The graph embedding holds wherever the word-level checks it replaced
    hold on the listed levels, and they do on every case."""

    @staticmethod
    def check(alphabet, omega):
        basis = GroebnerBasis([Poly.monomial(w) for w in omega.words], MonomialOrder(alphabet))
        inv = rees_invariants(basis, truncation=8)
        base = chain_sets(build_chain_graph(omega), truncation=8)
        t = alphabet.n
        ncdim.rees._check_graph_embedding(inv, base.graph)
        _check_level_decomposition(inv.sets, base, t)
        _check_top_level(inv.sets, base, t)
        assert inv.sets.levels[0][-1] == (t,)

    def test_oracle_corpus(self):
        assert len(CASES) == 50
        for alphabet, omega in CASES:
            self.check(alphabet, omega)

    def test_random_antichains(self):
        cases = random_antichains(300)
        dead = sum(any(len(w) == 1 for w in omega.words) for _, omega in cases)
        assert 50 <= dead <= 250
        for alphabet, omega in cases:
            self.check(alphabet, omega)


@pytest.fixture
def listings(monkeypatch):
    """Every chain set whose words get listed, in listing order."""
    listed = []
    build = ChainSets.listing.func

    def counted(sets):
        listed.append(sets)
        return build(sets)

    listing = cached_property(counted)
    listing.__set_name__(ChainSets, "listing")
    monkeypatch.setattr(ChainSets, "listing", listing)
    return listed


class TestChainWordsListedForTheReportOnly:
    @pytest.mark.parametrize("fmt", ["json", "text", "dot-bundle"])
    def test_render_lists_the_base_once_and_the_rees_never(self, fmt, listings):
        report = ncdim.pipeline.analyze(down_up())
        assert listings == []
        for _ in range(2):
            ncdim.pipeline.render_report(report, fmt)
        assert "listing" not in vars(report.rees.sets)
        assert listings == ([] if fmt == "dot-bundle" else [report.monomial.sets])

    @pytest.mark.parametrize("command", ["growth", "gldim", "hilbert", "rees", "pbw"])
    def test_subcommands_list_no_chain_word(self, command, listings, capsys):
        assert main([command, DOWN_UP_FILE]) == 0
        assert listings == []
