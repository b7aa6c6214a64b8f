import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncdim import (
    Alphabet,
    InputError,
    MonomialOrder,
    ParseError,
    Poly,
    leading_data,
    leading_homogeneous,
    parse_polynomial,
)
from ncdim.freealg import MAX_WEIGHT
from references import _PolyParser, compare, homogeneous_components

AB = Alphabet(("x1", "x2"), (1, 1))
AB_W = Alphabet(("x1", "x2"), (1, 3))
X1, X2 = (0,), (1,)


class TestAlphabet:
    def test_basics(self):
        assert AB.n == 2
        assert AB.index("x2") == 1
        assert AB.degree(()) == 0
        assert AB.degree((1, 0)) == 2
        assert AB_W.degree((1, 0)) == 4
        assert AB_W.degree((1,)) == 3

    def test_unknown_name(self):
        with pytest.raises(InputError):
            AB.index("x3")

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            Alphabet(("x", "x"), (1, 1))

    def test_empty_name_rejected(self):
        with pytest.raises(InputError):
            Alphabet(("",), (1,))

    @pytest.mark.parametrize("name", ["x*x", 'a"b', "1x", "x y", "x-1", "x'", 1])
    def test_names_the_parser_cannot_read_rejected(self, name):
        with pytest.raises(InputError, match="is not of the form"):
            Alphabet(("x", name), (1, 1))

    def test_every_name_parses_back_to_its_letter(self):
        abc = Alphabet(("_", "x_1", "Ab9"), (1, 1, 1))
        for i, name in enumerate(abc.names):
            assert parse_polynomial(name, abc) == Poly.monomial((i,))

    def test_no_variables_rejected(self):
        with pytest.raises(InputError):
            Alphabet((), ())

    @pytest.mark.parametrize(
        "weight", [0, -1, True, Fraction(1, 2), 1.0, MAX_WEIGHT + 1, 10 ** 20]
    )
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(InputError):
            Alphabet(("x",), (weight,))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            Alphabet(("x", "y"), (1,))


class TestMonomialOrder:
    def test_identity_is_minimal(self):
        for kind in ("grlex", "grevlex"):
            order = MonomialOrder(AB, kind)
            assert compare(order, (), X1) < 0

    def test_degree_decides_first(self):
        order = MonomialOrder(AB_W)
        # d(x2) = 3 beats d(x1^2) = 2
        assert compare(order, (1,), (0, 0)) > 0

    def test_grlex_leftmost_letter_decides(self):
        order = MonomialOrder(AB)  # declaration order: x1 < x2
        assert compare(order, (0, 1), (1, 0)) < 0

    def test_grlex_precedence_reversal(self):
        # with x2 < x1 the leading word of x1^2*x2 - x1*x2*x1 - ... is x1^2*x2
        order = MonomialOrder(AB, precedence=(1, 0))
        assert compare(order, (0, 1, 0), (0, 0, 1)) < 0

    def test_grevlex_matches_commutative_order_on_sorted_words(self):
        # degree-3 chain over z < y < x:
        # x^3 > x^2y > xy^2 > y^3 > x^2z > xyz > y^2z > xz^2 > yz^2 > z^3
        abc = Alphabet(("z", "y", "x"), (1, 1, 1))
        order = MonomialOrder(abc, "grevlex")
        z, y, x = 0, 1, 2
        chain = [
            (x, x, x), (x, x, y), (x, y, y), (y, y, y), (x, x, z),
            (x, y, z), (y, y, z), (x, z, z), (y, z, z), (z, z, z),
        ]
        for bigger, smaller in zip(chain, chain[1:]):
            assert compare(order, bigger, smaller) > 0

    def test_grlex_and_grevlex_disagree(self):
        abc = Alphabet(("z", "y", "x"), (1, 1, 1))
        z, y, x = 0, 1, 2
        grlex = MonomialOrder(abc, "grlex")
        grevlex = MonomialOrder(abc, "grevlex")
        # x^2z vs xy^2: grlex prefers the bigger leftmost letters,
        # grevlex punishes the trailing z
        assert compare(grlex, (x, x, z), (x, y, y)) > 0
        assert compare(grevlex, (x, x, z), (x, y, y)) < 0

    def test_equal_only_for_equal_words(self):
        order = MonomialOrder(AB)
        assert compare(order, (0, 1), (0, 1)) == 0
        assert compare(order, (0, 1), (1, 0)) != 0

    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            MonomialOrder(AB, "lex")

    def test_bad_precedence_rejected(self):
        with pytest.raises(InputError):
            MonomialOrder(AB, precedence=(0, 0))
        with pytest.raises(InputError):
            MonomialOrder(AB, precedence=(0,))


class TestPoly:
    def test_zero_coefficients_dropped(self):
        assert Poly({(0,): 0}) == Poly.zero()
        assert Poly({(0,): 0}).is_zero
        assert not Poly({(0,): 0})
        assert Poly({(0,): 1})

    def test_keeps_fractions_and_tuples_and_converts_the_rest(self):
        half, word = Fraction(1, 2), (0, 1)
        f = Poly({word: half, (1,): 3, (0, 0): "2/3", (0, 1, 1): 0.5,
                  (1, 0): 1, (1, 1): -1, (0, 0, 0): True, (1, 1, 1): -1.0})
        assert f.terms == {word: half, (1,): 3, (0, 0): Fraction(2, 3), (0, 1, 1): half,
                           (1, 0): 1, (1, 1): -1, (0, 0, 0): 1, (1, 1, 1): -1}
        assert all(type(c.numerator) is int for c in f.terms.values())
        (kept, c), *_ = f.terms.items()
        assert kept is word and c is half
        assert all(type(c) is Fraction for c in f.terms.values())
        g = Poly({range(2): 2, (): "0"})
        assert list(g.terms) == [(0, 1)] and type(next(iter(g.terms))) is tuple

    def test_monomial(self):
        assert Poly.monomial((0, 1), 3).terms == {(0, 1): Fraction(3)}
        assert Poly.monomial(()) == Poly({(): 1})

    def test_product_is_noncommutative(self):
        x = Poly.monomial(X1)
        y = Poly.monomial(X2)
        assert x * y != y * x
        assert (x * y).terms == {(0, 1): 1}

    def test_binomial_product(self):
        x = Poly.monomial(X1)
        y = Poly.monomial(X2)
        prod = (x + y) * (x - y)
        assert prod == Poly({(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1})

    def test_scalar_multiplication(self):
        f = Poly({(0,): Fraction(1, 2), (1,): -1})
        assert 2 * f == Poly({(0,): 1, (1,): -2})
        assert f * Fraction(2, 3) == Poly({(0,): Fraction(1, 3), (1,): Fraction(-2, 3)})

    def test_additive_group(self):
        f = Poly({(0,): 1, (0, 1): 2})
        g = Poly({(0,): -1, (1,): 5})
        assert f + g == Poly({(0, 1): 2, (1,): 5})
        assert f - f == Poly.zero()
        assert -f + f == Poly.zero()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Poly.zero())


class TestLeadingData:
    def test_leading_term_of_skew_relation(self):
        order = MonomialOrder(AB)
        f = parse_polynomial("x2*x1 - 2*x1*x2 - 3*x2 - x1^2", AB)
        assert leading_data(f, order) == ((1, 0), 1)
        assert leading_data(f, order)[0] == (1, 0)

    def test_single_term(self):
        order = MonomialOrder(AB)
        assert leading_data(Poly.monomial(X1, 5), order) == ((0,), 5)

    def test_zero_polynomial_rejected(self):
        order = MonomialOrder(AB)
        with pytest.raises(ValueError):
            leading_data(Poly.zero(), order)


class TestHomogeneousParts:
    def test_components_ascending_and_sum_back(self):
        f = parse_polynomial("x2*x1 - 2*x1*x2 - 3*x2 - x1^2 - x1", AB)
        comps = homogeneous_components(f, AB)
        assert [d for d, _ in comps] == [1, 2]
        assert comps[0][1] == parse_polynomial("-3*x2 - x1", AB)
        total = Poly.zero()
        for _, part in comps:
            total = total + part
        assert total == f

    def test_leading_homogeneous_weighted(self):
        f = parse_polynomial("x2*x1 - 2*x1*x2 - 3*x2 - x1^3", AB_W)
        lh = leading_homogeneous(f, AB_W)
        assert lh == parse_polynomial("x2*x1 - 2*x1*x2", AB_W)

    def test_leading_homogeneous_idempotent(self):
        f = parse_polynomial("x1^2*x2 - x1 + 2*x2", AB)
        lh = leading_homogeneous(f, AB)
        assert leading_homogeneous(lh, AB) == lh


class TestParser:
    def test_two_terms(self):
        f = parse_polynomial("x2*x1 - 2*x1*x2", AB)
        assert f.terms == {(1, 0): 1, (0, 1): -2}

    def test_like_terms_collected(self):
        f = parse_polynomial("x1*x2 - x2*x1 + x2*x1", AB)
        assert f.terms == {(0, 1): 1}

    def test_powers_and_explicit_one(self):
        f = parse_polynomial("x1^2*x2 - 1*x1*x2*x1", AB)
        assert f.terms == {(0, 0, 1): 1, (0, 1, 0): -1}

    def test_fractional_coefficients(self):
        f = parse_polynomial("3/2*x1 + 1/2*x1", AB)
        assert f.terms == {(0,): 2}

    def test_constant_term(self):
        assert parse_polynomial("5", AB).terms == {(): 5}
        assert parse_polynomial("x1*x2 - 1", AB).terms == {(0, 1): 1, (): -1}

    def test_leading_sign(self):
        assert parse_polynomial("-x1 + x2", AB).terms == {(0,): -1, (1,): 1}
        assert parse_polynomial("+x1", AB).terms == {(0,): 1}

    def test_cancellation_to_zero(self):
        assert parse_polynomial("x1 - x1", AB).is_zero

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("x1 +", 4),
            ("x3", 0),
            ("1/0*x1", 2),
            ("x1 x2", 3),
            ("*x1", 0),
            ("x1^", 3),
            ("2*3", 2),
            ("x1/2", 2),
            ("x1 @ x2", 3),
            ("x1^1000000000000", 3),
            ("x1^600*x1^600", 10),
            ("x1^1024*x2", 8),
            ("x2*x1^1024", 6),
            ("x1^1024 + x2^1025", 13),
        ],
    )
    def test_errors_report_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, AB)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text,position",
        [("9" * 5000 + "*x1", 0), ("1/" + "9" * 5000 + "*x1", 2), ("x1^" + "9" * 5000, 3)],
        ids=["coefficient", "denominator", "exponent"],
    )
    def test_integer_too_long_to_convert(self, text, position):
        # Python refuses to convert integer strings of more than 4300 digits
        with pytest.raises(ParseError, match="integer of 5000 digits is too long") as exc:
            parse_polynomial(text, AB)
        assert exc.value.position == position

    def test_word_at_the_bound(self):
        f = parse_polynomial("x1^1000*x2^23*x1 - x2^1024", AB)
        assert f.terms == {(0,) * 1000 + (1,) * 23 + (0,): 1, (1,) * 1024: -1}

    def test_parse_error_is_input_error(self):
        with pytest.raises(InputError):
            parse_polynomial("x3", AB)


ROOT = Path(__file__).resolve().parent.parent


def file_texts():
    """(alphabet, relation texts) of every presentation file of the samples
    and of the golden inputs."""
    paths = sorted((ROOT / "presentations").glob("*.json"))
    paths += sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json"))
    for path in paths:
        data = json.loads(path.read_text())
        names = tuple(v["name"] for v in data["variables"])
        yield Alphabet(names, (1,) * len(names)), data["relations"]


def family_texts():
    """(alphabet, relation texts) of commutation, seeded q-commutation, Weyl,
    Heisenberg and power-family rings."""
    rng = random.Random(25)

    def pbw(names, extra):
        texts = [f"{names[j]}*{names[i]} - {extra(i, j)}{names[i]}*{names[j]}"
                 for j in range(len(names)) for i in range(j)]
        return Alphabet(tuple(names), (1,) * len(names)), texts

    for n in range(2, 7):
        xs = [f"x{i + 1}" for i in range(n)]
        yield pbw(xs, lambda i, j: "")
        yield pbw(xs, lambda i, j: f"{rng.randint(1, 9)}/{rng.randint(1, 9)}*")
    for m in range(1, 4):
        alphabet, texts = pbw([f"x{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)],
                              lambda i, j: "")
        yield alphabet, [t + (" - 1" if k % 3 == 0 else "") for k, t in enumerate(texts)]
        alphabet, texts = pbw([f"p{i + 1}" for i in range(m)] + [f"q{i + 1}" for i in range(m)]
                              + ["z"], lambda i, j: "")
        yield alphabet, [t + (" - z" if k % 2 == 0 else "") for k, t in enumerate(texts)]
    for n in range(1, 6):
        yield AB, [f"x2^{n}*x1 - 2*x1*x2^{n} - x1"]


def mutations(text, rng, count):
    """``count`` seeded one-character edits of ``text``: a replaced, an
    inserted or a deleted character, drawn from a few letters, digits and
    operators, one character that starts no token, and a tab, a no-break
    space (U+00A0) and an Arabic-Indic one (U+0661), which the parser reads
    as whitespace and as the digit 1."""
    for _ in range(count):
        pos = rng.randrange(len(text) + 1)
        char = rng.choice("x1*^/+- 09@\t\u00a0\u0661")
        edit = rng.randrange(3)
        if edit == 0 and pos < len(text):
            yield text[:pos] + char + text[pos + 1 :]
        elif edit == 1 or pos == len(text):
            yield text[:pos] + char + text[pos:]
        else:
            yield text[:pos] + text[pos + 1 :]


def parse_outcome(parse, text, alphabet):
    """The terms (in order, with their coefficient types) of the parsed
    polynomial, or the message and position of the parse error."""
    try:
        f = parse(text, alphabet)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "poly", list(f.terms.items()), [type(c) for c in f.terms.values()]


class TestParserAgainstTheReference:
    """The one-pass parser against the recursive-descent parser it replaced."""

    def test_relations_and_their_one_character_edits(self):
        rng = random.Random(2025)
        cases = list(file_texts()) + list(family_texts())
        cases.append((AB, ["", "x1 +", "x1 x2", "*x1", "2*3", "x1/2", "1/0*x1", "x1 @ x2",
                           "x1^600*x1^600", "x2*x1^1024", "x1^0*x2", "2/4 - 1/2", "-+x1",
                           " x1 ^ 2 * x2 - 3 / 6 * x2 ", "x1^2^3", "2/3/4", "x1**x2"]))
        reference = lambda text, alphabet: _PolyParser(text, alphabet).parse()  # noqa: E731
        parsed = errors = 0
        for alphabet, texts in cases:
            for original in texts:
                for text in [original, *mutations(original, rng, 24)]:
                    expected = parse_outcome(reference, text, alphabet)
                    assert parse_outcome(parse_polynomial, text, alphabet) == expected, text
                    parsed += expected[0] == "poly"
                    errors += expected[0] == "error"
        assert parsed >= 900 and errors >= 2500
