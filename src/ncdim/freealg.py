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
# x1^1024 over two letters takes about 0.47 s in process and 0.58 s as a
# fresh process (medians of 7 calls of `cli.main`, and of 7 processes;
# 2 vCPUs, Python 3.11.7).
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
    """Declared variable names together with their positive integer weights;
    ``letter`` maps each name to its index."""

    __slots__ = ("names", "weights", "letter")
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
        object.__setattr__(self, "letter", {name: i for i, name in enumerate(names)})

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.letter[name]
        except KeyError:
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


# The int coefficients 1 and -1 as Fractions, built once: most coefficients
# of a parsed relation are one of them, and a lookup costs about a quarter of
# building a Fraction.
_UNITS = {1: Fraction(1), -1: Fraction(-1)}


class Poly:
    """Noncommutative polynomial: a finite map from words to nonzero rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction | int] | None = None):
        """Keep the nonzero terms; a coefficient that is not a ``Fraction``
        and a word that is not a tuple are converted, all else is kept as is."""
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff.__class__ is Fraction:
                    c = coeff
                elif coeff.__class__ is int:
                    c = _UNITS.get(coeff) or Fraction(coeff)
                else:
                    c = Fraction(coeff)
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

# One term, its leading sign (or the '+' or '-' before it) and the
# whitespace after it included: sign, numerator, denominator and word.
_FACTOR_TEXT = rf"{_NAME.pattern}(?:\s*\^\s*\d+)?"
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?)?"
    rf"(?:(?(num)\*\s*)(?P<word>{_FACTOR_TEXT}(?:\s*\*\s*{_FACTOR_TEXT})*)\s*)?"
)
# One factor of a matched word: its name and its exponent, if any.
_FACTOR = re.compile(rf"({_NAME.pattern})(?:\s*\^\s*(\d+))?")
# A character that starts no token (whitespace, a natural number, a name or
# one of the operators + - * / ^).
_UNEXPECTED = re.compile(r"[^\s\dA-Za-z_+\-*/^]")
_SPACE = re.compile(r"\s*")


def _error(text: str, message: str, at: int) -> ParseError:
    """The error to raise at position ``at``, unless the text has a character
    that starts no token: then the first such character is the error."""
    bad = _UNEXPECTED.search(text)
    if bad is not None:
        return ParseError(f"unexpected character {bad.group()!r}", bad.start())
    return ParseError(message, at)


def _natural(text: str, at: int, digits: str) -> int:
    """The value of the natural number ``digits`` at position ``at``."""
    try:
        return int(digits)
    except ValueError:  # over Python's limit on integer-string conversion
        raise _error(text, f"integer of {len(digits)} digits is too long", at) from None


def _letters(text: str, start: int, end: int, index: dict[str, int]) -> Word:
    """The word between ``start`` and ``end``, read one factor at a time."""
    letters: list[int] = []
    for factor in _FACTOR.finditer(text, start, end):
        name, exp = factor.groups()
        at = factor.start()
        letter = index.get(name)
        if letter is None:
            raise _error(text, f"unknown variable {name!r}", at)
        count = 1
        if exp is not None:
            at = factor.start(2)
            count = _natural(text, at, exp)
        if len(letters) + count > MAX_WORD_LETTERS:
            raise _error(text, f"word longer than {MAX_WORD_LETTERS} letters", at)
        letters += (letter,) * count
    return tuple(letters)


def _stop(text: str, at: int, den: str | None, word: str | None) -> ParseError:
    """The error at the character ``at`` that ended a term, one that is
    neither '+' nor '-'."""
    char, following = text[at], _SPACE.match(text, at + 1).end()
    if char == "*":
        return _error(text, "expected a variable name", following)
    if char == "/" and den is None and word is None:
        return _error(text, "expected a denominator", following)
    if char == "^" and word is not None and "^" not in word.rpartition("*")[2]:
        return _error(text, "expected an exponent", following)
    return _error(text, "expected '+' or '-' between terms", at)


def parse_polynomial(text: str, alphabet: Alphabet) -> Poly:
    """Parse an expression like ``"x2*x1 - 2*x1*x2 - x1^2"`` over ``alphabet``.

    The grammar is  poly := [sign] term (('+'|'-') term)*  with
    term := [coeff '*'] factor ('*' factor)* | coeff,
    coeff := nat ['/' nat]  and  factor := name ['^' nat],
    whitespace allowed between tokens.  One match of ``_TERM`` reads a term
    with the sign before it; a word with no exponent and no whitespace is
    split at its '*'s.  A term stops at the first character it cannot take,
    which is a grammar error unless it is '+', '-' or the end.  A character
    that starts no token anywhere in the text is reported before any other
    error.  A coefficient stays an int unless it has a denominator.
    """
    index, match = alphabet.letter, _TERM.match
    acc: dict[Word, Fraction | int] = {}
    end, pos = len(text), 0
    while True:
        m = match(text, pos)
        sign, num, den, word = m.groups()
        pos = m.end()
        if num is None and word is None:
            raise _error(text, "expected a term" if pos == end else "expected a variable name", pos)
        coeff = 1
        if num is not None:
            coeff = _natural(text, m.start("num"), num)
            if den is not None:
                at = m.start("den")
                denominator = _natural(text, at, den)
                if not denominator:
                    raise _error(text, "zero denominator in coefficient", at)
                coeff = Fraction(coeff, denominator)
        key = ()  # a constant term
        if word is not None:
            try:
                key = tuple([index[name] for name in word.split("*")])
            except KeyError:  # an exponent, whitespace or an unknown name
                key = None
            if key is None or len(key) > MAX_WORD_LETTERS:
                key = _letters(text, m.start("word"), m.end("word"), index)
        nc = acc.get(key, 0) + (-coeff if sign == "-" else coeff)
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)
        if pos == end:
            return Poly(acc)
        if text[pos] not in "+-":
            raise _stop(text, pos, den, word)
