"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import ncdim.chains
from ncdim import (
    Alphabet,
    GroebnerBasis,
    MonomialOrder,
    MonomialSet,
    Poly,
    analyze,
    automaton_growth,
    build_ufnarovski,
    homogenize,
    leading_data,
    normal_form,
    rees_invariants,
    report_to_dict,
)
from ncdim.chains import (
    build_chain_graph,
    chain_denominator,
    expand_reciprocal,
    product_form_decomposition,
)
from ncdim.cli import main as cli_main
from ncdim.rees import HomogenizationOrder
from presets import commutation, down_up, nilpotent, ore_case_a, ore_case_b, power_family
from references import chain_level, compare, count_paths, dehomogenize, poly_mul
from test_oracles import CASES, MAX_LEN, brute_counts, capped_sets

SAMPLES = Path(__file__).resolve().parent.parent / "presentations"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def one_minus_t_power(n):
    prod = [1]
    for _ in range(n):
        prod = poly_mul(prod, [1, -1])
    return tuple(prod)


def witness_edges(window, loop):
    """The Ufnarovski edges (v, w, letter) that ``loop`` reads from ``window``."""
    word, size = window + loop, len(window)
    return tuple(
        (word[i : i + size], word[i + 1 : i + 1 + size], c) for i, c in enumerate(loop)
    )


def assert_valid_witness(graph, witness):
    """A (window, loop, loop) witness is two cycles of ``graph`` from the
    window, edge by edge, that leave it by different letters."""
    window, p, q = witness
    c1, c2 = witness_edges(window, p), witness_edges(window, q)
    assert c1 != c2
    assert c1[0][2] != c2[0][2]
    edge_set = set(graph.edges)
    for cycle in (c1, c2):
        assert cycle
        for e in cycle:
            assert e in edge_set
        for e, f in zip(cycle, cycle[1:]):
            assert e[1] == f[0]
        assert cycle[-1][1] == cycle[0][0]
    assert c1[0][0] == c2[0][0] == window


class TestAcceptance:
    def test_criterion_1_skew_extension_examples(self):
        with criterion(1, "skew extension examples"):
            for pres in (ore_case_a(), ore_case_b()):
                report = analyze(pres)
                assert report.basis.verified
                assert report.applicable
                assert report.gldim_assoc_graded == 2
                assert report.rees.gldim == 3

    def test_criterion_2_down_up_example(self):
        with criterion(2, "down-up example"):
            report = analyze(down_up())
            assert report.basis.verified
            assert report.monomial.growth.is_polynomial and report.monomial.growth.degree == 3
            assert report.rees.growth.is_polynomial
            assert report.rees.growth.degree == 4
            assert report.monomial.sets.finite
            assert report.monomial.sets.levels == (
                ((0,), (1,)),
                ((0, 0, 1), (0, 1, 1)),
                ((0, 0, 1, 1),),
            )
            t = report.rees.basis.order.homogenizer
            assert t == 2
            assert report.rees.sets.levels == (
                ((0,), (1,), (2,)),
                ((0, 2), (1, 2), (0, 0, 1), (0, 1, 1)),
                ((0, 0, 1, 1), (0, 0, 1, 2), (0, 1, 1, 2)),
                ((0, 0, 1, 1, 2),),
            )
            assert report.monomial.gldim == 3
            assert report.rees.gldim == 4

    def test_criterion_3_power_relation_family(self):
        with criterion(3, "power relation family"):
            for n in (1, 2, 3):
                report = analyze(power_family(n))
                assert report.monomial.gldim == 2
                assert report.rees.gldim == 3
                base_den = (1, -2) + (0,) * (n - 1) + (1,)
                assert report.monomial.hilbert.denominator == base_den
                rees_den = [1, -3, 2] + [0] * n
                rees_den[n + 1] += 1
                rees_den[n + 2] -= 1
                assert report.rees.hilbert.denominator == tuple(rees_den)
                if n == 1:
                    assert product_form_decomposition(base_den, 2) == [1, 1]
                    assert product_form_decomposition(rees_den, 3) == [1, 1, 1]
                else:
                    assert product_form_decomposition(base_den, 2) is None
                    assert product_form_decomposition(rees_den, 3) is None

    def test_criterion_4_commutative_polynomial_rings(self):
        with criterion(4, "commutative polynomial rings"):
            for n in (2, 3, 4):
                report = analyze(commutation(n))
                assert report.pbw
                assert report.monomial.gldim == n
                assert report.rees.gldim == n + 1
                assert report.monomial.growth.is_polynomial and report.monomial.growth.degree == n
                assert report.rees.growth.degree == n + 1
                assert report.monomial.hilbert.denominator == one_minus_t_power(n)
                assert report.rees.hilbert.denominator == one_minus_t_power(n + 1)
                assert report.product_form == [1] * n

    def test_criterion_5_infinite_global_dimension(self):
        with criterion(5, "infinite global dimension"):
            pres = nilpotent()
            report = analyze(pres)
            assert report.monomial.gldim is None
            # the only normal words are 1 and x1, so the dimension count is
            # eventually zero and the growth degree is 0
            assert report.monomial.growth.is_polynomial and report.monomial.growth.degree == 0
            assert report.monomial.hilbert.coefficients == (1, 1) + (0,) * 15
            oracle = report.basis.omega.count_normal(16)
            assert list(report.monomial.hilbert.coefficients) == oracle
            assert not report.applicable
            assert report_to_dict(report)["gldim_monomial"] == "infinity"
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(["report", str(SAMPLES / "nilpotent.json")])
            assert code == 0
            payload = json.loads(buffer.getvalue())
            assert payload["applicable"] is False
            assert payload["gldim_monomial"] == "infinity"

    def test_criterion_6_random_monomial_oracles(self, monkeypatch):
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_LEVELS", 8)
        with criterion(6, "random monomial oracles"):
            assert len(CASES) == 50
            for index, (alphabet, omega) in enumerate(CASES):
                sets = capped_sets(build_chain_graph(omega))
                if sets.finite:
                    den = chain_denominator(sets)
                    assert expand_reciprocal(den, 12) == omega.count_normal(12)
                graph = build_ufnarovski(omega)
                by_length, _ = brute_counts(index)
                start = max(graph.omega.ell, 1) - 1
                for length in range(start, MAX_LEN + 1):
                    assert count_paths(graph, length - start) == by_length[length]

                basis = GroebnerBasis(
                    [Poly.monomial(w) for w in omega.words],
                    MonomialOrder(alphabet),
                )
                inv = rees_invariants(basis, truncation=8)
                t = inv.basis.order.homogenizer
                # T is a sink, pure-base vertices step to T, the base graph
                # embeds, and each level splits as C_i plus C_{i-1} T
                assert inv.graph.edges[(t,)] == ()
                base_graph = build_chain_graph(omega)
                for v in inv.graph.vertices:
                    if v and v != (t,) and v[-1] != t:
                        assert (t,) in inv.graph.edges[v]
                for u in base_graph.vertices:
                    assert u in inv.graph.vertices
                    assert set(base_graph.edges[u]) <= set(inv.graph.edges[u])
                for i, level in enumerate(inv.sets.levels):
                    expected = set(chain_level(sets, i)) | {
                        c + (t,) for c in chain_level(sets, i - 1)
                    }
                    assert set(level) == expected

    def test_criterion_7_exponential_growth_witnesses(self):
        with criterion(7, "exponential growth witnesses"):
            alphabet3 = Alphabet(("x1", "x2", "x3"), (1, 1, 1))
            three = MonomialSet(((0, 0),), alphabet3)
            growth = automaton_growth(three)
            assert growth.exponential
            assert_valid_witness(build_ufnarovski(three), growth.witness)

            alphabet2 = Alphabet(("x1", "x2"), (1, 1))
            two = MonomialSet((), alphabet2)
            growth2 = automaton_growth(two)
            assert growth2.exponential
            assert_valid_witness(build_ufnarovski(two), growth2.witness)

    def test_criterion_8_order_and_reduction_laws(self):
        with criterion(8, "order and reduction laws"):
            rng = random.Random(90210)

            def rand_order():
                n = rng.choice([1, 2, 3])
                alphabet = Alphabet(
                    tuple(f"x{i + 1}" for i in range(n)),
                    tuple(rng.randint(1, 3) for _ in range(n)),
                )
                kind = rng.choice(["grlex", "grevlex"])
                return MonomialOrder(alphabet, kind, tuple(rng.sample(range(n), n)))

            def rand_word(n, max_len=4):
                return tuple(
                    rng.randrange(n) for _ in range(rng.randint(0, max_len))
                )

            def rand_poly(n, max_terms=3):
                while True:
                    p = Poly(
                        {
                            rand_word(n): Fraction(
                                rng.randint(-4, 4), rng.randint(1, 4)
                            )
                            for _ in range(rng.randint(1, max_terms))
                        }
                    )
                    if p.terms:
                        return p

            for _ in range(1000):
                order = rand_order()
                n = order.alphabet.n
                u, v = rand_word(n), rand_word(n)
                c = compare(order, u, v)
                assert c in (-1, 0, 1)
                assert c == -compare(order, v, u)
                assert (c == 0) == (u == v)
                if c < 0:
                    left, right = rand_word(n, 3), rand_word(n, 3)
                    assert compare(order, left + u + right, left + v + right) < 0

            for _ in range(1000):
                order = rand_order()
                n = order.alphabet.n
                f, g = rand_poly(n), rand_poly(n)
                assert leading_data(f * g, order)[0] == (
                    leading_data(f, order)[0] + leading_data(g, order)[0]
                )

            basis = down_up()
            for _ in range(1000):
                f, g = rand_poly(2), rand_poly(2)
                a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                nf = normal_form(f, basis)
                assert normal_form(nf, basis) == nf
                assert normal_form(f * a + g * b, basis) == (
                    nf * a + normal_form(g, basis) * b
                )

            for _ in range(1000):
                order = rand_order()
                n = order.alphabet.n
                f = rand_poly(n)
                ext_order = HomogenizationOrder(order)
                h = homogenize(f, ext_order)
                assert dehomogenize(h, ext_order.homogenizer) == f
                assert leading_data(h, ext_order)[0] == leading_data(
                    f, order
                )[0]
