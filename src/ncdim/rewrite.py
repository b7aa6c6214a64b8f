"""Normal forms, reduced obstruction sets, and diamond-lemma verification.

One Aho–Corasick automaton per obstruction set does all factor search:
normality queries, the normal-word counting DP, the antichain and
LM-reduction checks and the choice of each reduction step share the
machine.  Verification is by checking that the S-element of every overlap
ambiguity reduces to zero; no completion is ever attempted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import GroebnerVerificationError, InputError
from .freealg import Alphabet, MonomialOrder, Poly, Word, leading_data
from .render import poly_str, word_str


def contains_factor(word: Word, factor: Word) -> bool:
    """Brute-force factor test, the reference the automaton is tested against."""
    lf = len(factor)
    if lf == 0:
        return True
    return any(word[i : i + lf] == factor for i in range(len(word) - lf + 1))


class FactorAutomaton:
    """Aho–Corasick matcher over a list of nonempty forbidden factors; each
    state keeps the indices of all patterns that end where it is reached."""

    def __init__(self, patterns: Iterable[Word]):
        goto: list[dict[int, int]] = [{}]
        out: list[tuple[int, ...]] = [()]
        lengths: list[int] = []
        for k, pat in enumerate(patterns):
            if not pat:
                raise ValueError("empty pattern not allowed")
            state = 0
            for letter in pat:
                nxt = goto[state].get(letter)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][letter] = nxt
                    goto.append({})
                    out.append(())
                state = nxt
            out[state] += (k,)
            lengths.append(len(pat))
        fail = [0] * len(goto)
        queue = deque(goto[0].values())
        while queue:
            s = queue.popleft()
            out[s] += out[fail[s]]
            for letter, t in goto[s].items():
                f = fail[s]
                while f and letter not in goto[f]:
                    f = fail[f]
                nxt = goto[f].get(letter, 0)
                fail[t] = nxt if nxt != t else 0
                queue.append(t)
        self._goto = goto
        self._fail = fail
        self._out = out
        self._lengths = lengths

    def step(self, state: int, letter: int) -> int:
        goto = self._goto
        while True:
            nxt = goto[state].get(letter)
            if nxt is not None:
                return nxt
            if state == 0:
                return 0
            state = self._fail[state]

    def is_terminal(self, state: int) -> bool:
        """True iff some pattern ends where ``state`` is reached."""
        return bool(self._out[state])

    def is_normal(self, word: Word) -> bool:
        """True iff no pattern occurs in ``word`` as a factor."""
        state = 0
        out = self._out
        for letter in word:
            state = self.step(state, letter)
            if out[state]:
                return False
        return True

    def matches(self, word: Word) -> list[tuple[int, int]]:
        """Every occurrence of a pattern in ``word`` as (pattern index, start)."""
        found = []
        state = 0
        out, lengths = self._out, self._lengths
        for end, letter in enumerate(word, 1):
            state = self.step(state, letter)
            for k in out[state]:
                found.append((k, end - lengths[k]))
        return found

    def count_normal(self, weights: tuple[int, ...], up_to: int) -> list[int]:
        """Number of pattern-avoiding words per weighted degree 0..up_to."""
        n_states = len(self._goto)
        table = [[0] * n_states for _ in range(up_to + 1)]
        table[0][0] = 1
        out = self._out
        letters = list(enumerate(weights))
        counts = []
        for d in range(up_to + 1):
            row = table[d]
            counts.append(sum(row))
            for state, c in enumerate(row):
                if not c:
                    continue
                for a, w in letters:
                    nd = d + w
                    if nd > up_to:
                        continue
                    t = self.step(state, a)
                    if not out[t]:
                        table[nd][t] += c
        return counts


def _divisions(automaton: FactorAutomaton, words: list[Word]) -> list[tuple[int, int]]:
    """Every (a, b), a != b, with pattern a of ``automaton`` a factor of words[b]."""
    return [(a, b) for b, w in enumerate(words) for a, _ in automaton.matches(w) if a != b]


class MonomialSet:
    """A reduced antichain of nonempty words (an obstruction set).

    No member divides (occurs as a factor of) another member; use
    :meth:`interreduce` to build one from an arbitrary collection.
    """

    __slots__ = ("words", "automaton")

    def __init__(self, words: Iterable[Word]):
        ws = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
        if any(not w for w in ws):
            raise InputError("obstruction sets must not contain the identity word")
        automaton = FactorAutomaton(ws)
        divisions = _divisions(automaton, ws)
        if divisions:
            a, b = min(divisions)
            raise InputError(
                f"not an antichain: word {ws[a]} divides word {ws[b]}; interreduce first"
            )
        self.words = tuple(ws)
        self.automaton = automaton

    @classmethod
    def interreduce(cls, words: Iterable[Word]) -> "MonomialSet":
        """Drop every word that has a different input word as a factor."""
        ws = list({tuple(w) for w in words})
        if not all(ws):
            return cls(ws)  # rejects the identity word
        divided = {b for _, b in _divisions(FactorAutomaton(ws), ws)}
        return cls(w for b, w in enumerate(ws) if b not in divided)

    @property
    def ell(self) -> int:
        """Maximal member length (0 for the empty set)."""
        return max((len(w) for w in self.words), default=0)

    def is_normal(self, word: Word) -> bool:
        return self.automaton.is_normal(word)

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return tuple(word) in self.words

    def __eq__(self, other):
        return isinstance(other, MonomialSet) and self.words == other.words

    __hash__ = None

    def __repr__(self):
        return f"MonomialSet({list(self.words)!r})"


def count_normal_words(omega: MonomialSet, alphabet: Alphabet, up_to: int) -> list[int]:
    """Dimensions of the monomial algebra per weighted degree 0..up_to."""
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    return omega.automaton.count_normal(alphabet.weights, up_to)


class GroebnerBasis:
    """Monic, LM-reduced relation list plus the graded order selecting the LMs.

    ``omega`` is the obstruction set LM(G); LM-reduction makes the leading
    words an antichain already, so it is never interreduced again.
    ``verification`` starts as None and holds the successful result of
    :func:`verify_groebner`; operations whose meaning depends on the Groebner
    property call :func:`ensure_verified`.

    Reduction strategy: a reducible word is rewritten with the relation of
    longest leading word, ties going to the lowest relation index, at the
    leftmost occurrence of that leading word.
    """

    __slots__ = ("elements", "order", "leading_words", "omega", "verification",
                 "_matcher")

    def __init__(self, relations: Iterable[Poly], order: MonomialOrder):
        elements: list[Poly] = []
        leading: list[Word] = []
        for k, f in enumerate(relations):
            if not isinstance(f, Poly):
                raise InputError(f"relation {k + 1} is not a polynomial")
            if f.is_zero:
                raise InputError(f"relation {k + 1} is zero")
            lw, lc = leading_data(f, order)
            if lc != 1:
                f = (Fraction(1) / lc) * f
            elements.append(f)
            leading.append(lw)
        ids = [k for k, w in enumerate(leading) if w]
        matcher = FactorAutomaton(leading[k] for k in ids)
        empty = {k for k, w in enumerate(leading) if not w}  # divides every word
        divisions = [(a, b) for b, w in enumerate(leading)
                     for a in empty | {ids[i] for i, _ in matcher.matches(w)} if a != b]
        if divisions:
            a, b = min(divisions)
            alphabet = order.alphabet
            raise InputError(
                "relations are not LM-reduced: leading word "
                f"{word_str(leading[a], alphabet)} of relation {a + 1} divides "
                f"leading word {word_str(leading[b], alphabet)} of relation {b + 1}"
            )
        self.elements = tuple(elements)
        self.order = order
        self.leading_words = tuple(leading)
        self.omega = MonomialSet(leading)
        self.verification: VerificationResult | None = None
        self._matcher = matcher

    def __len__(self):
        return len(self.elements)

    @property
    def verified(self) -> bool:
        return self.verification is not None

    def reducible(self, word: Word) -> bool:
        return not self.omega.is_normal(word)

    def find_reduction(self, word: Word) -> tuple[int, int] | None:
        """(relation index, position) per the strategy; None when normal."""
        lws = self.leading_words
        return min(self._matcher.matches(word),
                   key=lambda m: (-len(lws[m[0]]), m[0], m[1]), default=None)


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """Rewrite ``f`` until no term contains a leading word.

    Deterministic: always rewrite the largest reducible term in the monomial
    order, by the reduction strategy of :class:`GroebnerBasis`.
    """
    work = dict(f.terms)
    key = basis.order.sort_key
    while True:
        reducible = [w for w in work if basis.reducible(w)]
        if not reducible:
            return Poly(work)
        target = max(reducible, key=key)
        coeff = work[target]
        idx, pos = basis.find_reduction(target)
        g = basis.elements[idx]
        left = target[:pos]
        right = target[pos + len(basis.leading_words[idx]):]
        # work -= coeff * left * g * right  (g is monic: the target cancels)
        for u, c in g.terms.items():
            word = left + u + right
            nc = work.get(word, 0) - coeff * c
            if nc:
                work[word] = nc
            else:
                work.pop(word, None)


@dataclass(frozen=True)
class OverlapAmbiguity:
    """A proper suffix of one leading word equals a proper prefix of another.

    ``word`` is the superposition: LM(left) and LM(right) overlap in it by
    ``overlap`` letters, at positions 0 and ``len(LM(left)) - overlap``.
    """

    left_index: int
    right_index: int
    overlap: int
    word: Word


def overlap_ambiguities(basis: GroebnerBasis) -> list[OverlapAmbiguity]:
    """All overlap ambiguities, in deterministic (i, j, overlap) order.

    Inclusion ambiguities cannot occur for an LM-reduced basis.
    """
    out: list[OverlapAmbiguity] = []
    lws = basis.leading_words
    for i, u in enumerate(lws):
        for j, v in enumerate(lws):
            for o in range(1, min(len(u), len(v))):
                if u[len(u) - o :] == v[:o]:
                    out.append(OverlapAmbiguity(i, j, o, u + v[o:]))
    return out


def s_element(basis: GroebnerBasis, amb: OverlapAmbiguity) -> Poly:
    """Difference of the two one-step rewrites of the superposition word,
    prefix * g_right - g_left * suffix, built in one dict."""
    u = basis.leading_words[amb.left_index]
    v = basis.leading_words[amb.right_index]
    prefix = u[: len(u) - amb.overlap]
    suffix = v[amb.overlap :]
    terms = {prefix + w: c for w, c in basis.elements[amb.right_index].terms.items()}
    for w, c in basis.elements[amb.left_index].terms.items():
        word = w + suffix
        nc = terms.get(word, 0) - c
        if nc:
            terms[word] = nc
        else:
            terms.pop(word, None)
    return Poly(terms)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    checked: int
    ambiguity: OverlapAmbiguity | None = None
    remainder: Poly | None = None


def verify_groebner(basis: GroebnerBasis) -> VerificationResult:
    """Diamond-lemma check: every S-element must reduce to zero.

    On success the result is kept as ``basis.verification``; on failure it
    carries the first failing ambiguity (fixed enumeration order) and its
    remainder.
    """
    ambiguities = overlap_ambiguities(basis)
    for amb in ambiguities:
        remainder = normal_form(s_element(basis, amb), basis)
        if not remainder.is_zero:
            return VerificationResult(False, len(ambiguities), amb, remainder)
    basis.verification = VerificationResult(True, len(ambiguities))
    return basis.verification


def ensure_verified(basis: GroebnerBasis) -> VerificationResult:
    """Verify on first use and return the successful result; raise with a
    printable witness on failure."""
    if basis.verification is not None:
        return basis.verification
    result = verify_groebner(basis)
    if not result.ok:
        amb = result.ambiguity
        alphabet = basis.order.alphabet
        raise GroebnerVerificationError(
            "not a Groebner basis: the S-element of the overlap of relations "
            f"{amb.left_index + 1} and {amb.right_index + 1} on "
            f"{word_str(amb.word, alphabet)} reduces to "
            f"{poly_str(result.remainder, basis.order)}, not zero",
            ambiguity=amb,
            remainder=result.remainder,
        )
    return result
