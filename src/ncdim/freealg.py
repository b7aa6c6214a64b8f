"""Words, graded monomial orders, and exact-coefficient noncommutative polynomials.

Letters are indices into an :class:`Alphabet`; a word is a plain tuple of
indices, with the empty tuple as the identity monomial.  Coefficients are
``fractions.Fraction`` throughout — floating point never enters.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import InputError, ParseError

# A word is a tuple of letter indices.
Word = tuple

# A variable name: the parser's name token, so every word prints unambiguously.
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Letters in one parsed word.  An exponent expands into that many letters,
# and the later stages are super-quadratic in the word length: `report` on
# x1^1024 over two letters takes 0.8-1.2 s (2 vCPUs, Python 3.11).
MAX_WORD_LETTERS = 1024

# Largest variable weight.  The chain counts and the normal-word table are
# dense in the weighted degree, so their cost grows linearly in the weight.
MAX_WEIGHT = 64

GRLEX = "grlex"
GREVLEX = "grevlex"
ORDER_KINDS = (GRLEX, GREVLEX)


class Record:
    """Value semantics for a frozen record, read off the field names it compares.

    A subclass names in ``_compared`` the fields that equality, hashing and
    the repr read, and writes its fields in its own ``__init__`` with
    ``object.__setattr__``; after that, assignment and deletion raise.  Copy
    and pickle rebuild a record through ``__init__``, whose parameters are
    field names, and carry its instance ``__dict__``, where a
    ``cached_property`` keeps what it computed.  A subclass with a compared
    field that never hashes sets ``__hash__ = None``.
    """

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._compared])
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        code = self.__class__.__init__.__code__
        args = tuple([getattr(self, name) for name in code.co_varnames[1:code.co_argcount]])
        return (self.__class__, args, getattr(self, "__dict__", None) or None)


class Alphabet(Record):
    """Declared variable names together with their positive integer weights."""

    __slots__ = ("names", "weights")
    _compared = ("names", "weights")

    def __init__(self, names: Iterable[str], weights: Iterable[int]):
        names, weights = tuple(names), tuple(weights)
        if not names:
            raise InputError("alphabet must declare at least one variable")
        if len(weights) != len(names):
            raise InputError("need exactly one weight per variable")
        for name in names:
            if not (isinstance(name, str) and _NAME.fullmatch(name)):
                raise InputError(f"variable name {name!r} is not of the form {_NAME.pattern}")
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        for name, w in zip(names, weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InputError(f"variable {name!r} needs a positive integer weight, got {w!r}")
            if w > MAX_WEIGHT:
                raise InputError(f"variable {name!r} has a weight over the limit of {MAX_WEIGHT}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None

    def degree(self, word: Word) -> int:
        """Weighted degree of a word; the identity has degree 0."""
        weights = self.weights
        return sum(weights[i] for i in word)


class MonomialOrder(Record):
    """Weighted-degree-first word order; ties broken (reverse) lexicographically.

    ``precedence`` lists letter indices ascending (first entry is the smallest
    letter) and defaults to declaration order.  Both kinds compare total
    weighted degree first, which makes them multiplicative well-orders: with
    positive weights no word of equal degree is a proper prefix (or suffix) of
    another, so the tie-break always finds a differing position.
    """

    __slots__ = ("alphabet", "kind", "precedence", "_rank", "_identity", "_unit")
    _compared = ("alphabet", "kind", "precedence")

    def __init__(self, alphabet: Alphabet, kind: str = GRLEX,
                 precedence: Iterable[int] | None = None):
        if kind not in ORDER_KINDS:
            raise InputError(f"unknown order kind {kind!r}; expected one of {ORDER_KINDS}")
        prec = tuple(range(alphabet.n)) if precedence is None else tuple(precedence)
        if sorted(prec) != list(range(alphabet.n)):
            raise InputError("order precedence must be a permutation of the variables")
        rank = [0] * alphabet.n
        for pos, letter in enumerate(prec):
            rank[letter] = pos
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "precedence", prec)
        # the key's shortcuts, read off the order's own data: identity
        # precedence makes the tie the word itself, unit weights make the
        # degree the length
        object.__setattr__(self, "_rank", tuple(rank))
        object.__setattr__(self, "_identity", prec == tuple(range(alphabet.n)))
        object.__setattr__(self, "_unit", set(alphabet.weights) == {1})

    def sort_key(self, word: Word):
        """Total-order key: ascending in the monomial order."""
        if self._unit:
            degree = len(word)
        else:
            degree = sum(map(self.alphabet.weights.__getitem__, word))
        if self.kind == GRLEX:
            tie = word
        else:
            # grevlex: the rightmost difference decides, larger letter wins;
            # on sorted words this restricts to commutative grevlex
            tie = word[::-1]
        if not self._identity:
            tie = tuple(map(self._rank.__getitem__, tie))
        return (degree, tie)


class Poly:
    """Noncommutative polynomial: a finite map from words to nonzero rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction | int] | None = None):
        """Keep the nonzero terms; a coefficient that is not a ``Fraction``
        and a word that is not a tuple are converted, all else is kept as is."""
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                c = coeff if coeff.__class__ is Fraction else Fraction(coeff)
                if c:
                    clean[word if word.__class__ is tuple else tuple(word)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def monomial(cls, word: Iterable[int], coeff=1) -> "Poly":
        return cls({tuple(word): Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly({w: -c for w, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        acc = dict(self.terms)
        for w, c in other.terms.items():
            nc = acc.get(w, 0) + c
            if nc:
                acc[w] = nc
            else:
                acc.pop(w, None)
        return Poly(acc)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            acc: dict[Word, Fraction] = {}
            for u, a in self.terms.items():
                for v, b in other.terms.items():
                    w = u + v
                    nc = acc.get(w, 0) + a * b
                    if nc:
                        acc[w] = nc
                    else:
                        acc.pop(w, None)
            return Poly(acc)
        if isinstance(other, (int, Fraction)):
            return Poly({w: c * other for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({w: other * c for w, c in self.terms.items()})
        return NotImplemented

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return f"Poly({dict(items)!r})"


def leading_data(f: Poly, order: MonomialOrder) -> tuple[Word, Fraction]:
    """Leading word and coefficient of ``f`` under ``order``."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    word = max(f.terms, key=order.sort_key)
    return word, f.terms[word]


def leading_homogeneous(f: Poly, alphabet: Alphabet) -> Poly:
    """The homogeneous part of highest weighted degree."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no leading homogeneous part")
    degrees = [alphabet.degree(w) for w in f.terms]
    top = max(degrees)
    return Poly({w: c for (w, c), d in zip(f.terms.items(), degrees) if d == top})


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<nat>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[+\-*/^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token but whitespace, in one scan; an
    operator's kind is the operator itself.  The first character that starts
    no token is an error."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            tokens.append((value if kind == "op" else kind, value, pos))
        pos = m.end()
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return tokens


def _natural(digits: str, at: int) -> int:
    """The value of a natural-number token at position ``at``."""
    try:
        return int(digits)
    except ValueError:  # over Python's limit on integer-string conversion
        raise ParseError(f"integer of {len(digits)} digits is too long", at) from None


def parse_polynomial(text: str, alphabet: Alphabet) -> Poly:
    """Parse an expression like ``"x2*x1 - 2*x1*x2 - x1^2"`` over ``alphabet``.

    One pass over the tokens, by the grammar
    poly := [sign] term (('+'|'-') term)*  with
    term := [coeff '*'] factor ('*' factor)* | coeff,
    coeff := nat ['/' nat]  and  factor := name ['^' nat].
    A coefficient stays an int unless it has a denominator.
    """
    end = len(text)
    tokens = _tokenize(text)
    tokens.append(("", "", end))  # the end of the text, where its errors point
    index = {name: i for i, name in enumerate(alphabet.names)}
    acc: dict[Word, Fraction | int] = {}
    sign, k = 1, 0
    if tokens[0][0] == "-":
        sign, k = -1, 1
    elif tokens[0][0] == "+":
        k = 1
    while True:
        kind, value, at = tokens[k]
        if not kind:
            raise ParseError("expected a term", end)
        coeff, word = 1, None
        if kind == "nat":
            coeff = _natural(value, at)
            k += 1
            if tokens[k][0] == "/":
                kind, value, at = tokens[k + 1]
                if kind != "nat":
                    raise ParseError("expected a denominator", at)
                den = _natural(value, at)
                if not den:
                    raise ParseError("zero denominator in coefficient", at)
                coeff = Fraction(coeff, den)
                k += 2
            if tokens[k][0] == "*":
                k += 1
            else:
                word = ()  # a constant term
        if word is None:
            letters: list[int] = []
            while True:
                kind, value, at = tokens[k]
                if kind != "name":
                    raise ParseError("expected a variable name", at)
                letter = index.get(value)
                if letter is None:
                    raise ParseError(f"unknown variable {value!r}", at)
                exp = 1
                if tokens[k + 1][0] == "^":
                    kind, value, at = tokens[k + 2]
                    if kind != "nat":
                        raise ParseError("expected an exponent", at)
                    exp = _natural(value, at)
                    k += 2
                if len(letters) + exp > MAX_WORD_LETTERS:
                    raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", at)
                letters += (letter,) * exp
                k += 1
                if tokens[k][0] != "*":
                    break
                k += 1
            word = tuple(letters)
        nc = acc.get(word, 0) + sign * coeff
        if nc:
            acc[word] = nc
        else:
            acc.pop(word, None)
        kind, _, at = tokens[k]
        if not kind:
            return Poly(acc)
        if kind not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", at)
        sign = -1 if kind == "-" else 1
        k += 1
