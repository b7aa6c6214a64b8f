"""Normal forms, reduced obstruction sets, and diamond-lemma verification.

One Aho–Corasick automaton per obstruction set does all factor search:
normality queries, the chain graph's overlap walk, the antichain and
LM-reduction checks and the choice of each reduction step share the
machine, and a basis shares it with its obstruction set.  That set carries
its alphabet and builds, once, the normal steps that growth, both graphs and
the normal-word counts read.  The automaton's table is filled in one dict
merge per state.  Verification is by checking that the S-element of every
overlap ambiguity reduces to zero; no completion is ever attempted.  The
overlap of three skew-commutations, c*b, b*a and c*a each rewritten to its
reverse times a scalar, is resolved by a product identity instead of being
reduced, where no homogenizer moves letters.  A basis that extends a
verified one, as the Rees basis G~ extends G, takes the overlaps of the
shared leading words from the base's record, as (i, j, overlap) keys, and
enumerates only the rest; an ambiguity, with its superposition word, is
built only for an overlap that is reduced.
"""

from __future__ import annotations

from bisect import insort
from collections import deque, namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import itemgetter

from .errors import GroebnerVerificationError, InputError
from .freealg import Alphabet, MonomialOrder, Poly, Record, Word, leading_data
from .render import poly_str, word_str


class FactorAutomaton:
    """Aho–Corasick matcher over a list of nonempty forbidden factors; each
    state keeps the indices of all patterns that end where it is reached.

    The failure links are folded into the transitions, so every step is one
    dict lookup; a letter with no transition leads back to the root.
    """

    def __init__(self, patterns: Iterable[Word]):
        goto: list[dict[int, int]] = [{}]
        out: list[tuple[int, ...]] = [()]
        depth = [0]  # per state: the length of its trie word
        words: list[Word] = []
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
                    depth.append(depth[state] + 1)
                state = nxt
            out[state] += (k,)
            words.append(pat)
        fail = [0] * len(goto)
        queue = deque(goto[0].values())
        while queue:
            s = queue.popleft()
            f = fail[s]  # shallower, so its transitions are complete already
            out[s] += out[f]
            children = goto[s]
            for letter, t in children.items():
                fail[t] = goto[f].get(letter, 0)
                queue.append(t)
            # the failure state's transitions, each overridden by a child
            goto[s] = {**goto[f], **children}
        self._goto = goto
        self._out = out
        self._depth = depth
        self._words = words

    def is_normal(self, word: Word) -> bool:
        """True iff no pattern occurs in ``word`` as a factor."""
        state = 0
        goto, out = self._goto, self._out
        for letter in word:
            state = goto[state].get(letter, 0)
            if out[state]:
                return False
        return True

    def matches(self, word: Word) -> list[tuple[int, int]]:
        """Every occurrence of a pattern in ``word`` as (pattern index, start)."""
        found = []
        state = 0
        goto, out, words = self._goto, self._out, self._words
        for end, letter in enumerate(word, 1):
            state = goto[state].get(letter, 0)
            for k in out[state]:
                found.append((k, end - len(words[k])))
        return found

    def overlap_tails(self, word: Word) -> list[Word]:
        """Every x such that ``word`` x ends with a pattern that starts inside
        ``word``, and ``word`` x minus its last letter matches nothing; the
        patterns must form an antichain that ``word`` avoids.

        One walk from the state after ``word``: a branch goes on while its
        state's trie word is longer than the letters read after ``word``, so
        the pattern it may complete still starts inside ``word``."""
        goto, out, depth = self._goto, self._out, self._depth
        state = 0
        for letter in word:
            state = goto[state].get(letter, 0)
        tails, branches = [], [(state, 1)]  # (state, |x| after its next step)
        while branches:
            state, read = branches.pop()
            for nxt in goto[state].values():
                if depth[nxt] > read:
                    if out[nxt]:  # in an antichain the one pattern is the trie word
                        tails.append(self._words[out[nxt][0]][-read:])
                    else:
                        branches.append((nxt, read + 1))
        return tails


def _divisions(automaton: FactorAutomaton, words: list[Word]) -> list[tuple[int, int]]:
    """Every (a, b), a != b, with pattern a of ``automaton`` a factor of words[b]."""
    return [(a, b) for b, w in enumerate(words) for a, _ in automaton.matches(w) if a != b]


def _check_words(words: list[Word], alphabet: Alphabet) -> None:
    """Raise InputError for the identity word or a letter outside ``alphabet``."""
    if not all(words):
        raise InputError("obstruction sets must not contain the identity word")
    outside = set().union(*words).difference(range(alphabet.n))
    if outside:
        raise InputError(f"letter {min(outside)} lies outside 0..{alphabet.n - 1}")


class MonomialSet(Record):
    """A reduced antichain of nonempty words over ``alphabet``, the obstruction
    set of the monomial algebra K<X>/(Omega): no member divides (occurs as a
    factor of) another member; use :meth:`interreduce` to build one from an
    arbitrary collection.  Equality compares ``words`` and ``alphabet``; the
    ``automaton`` follows from them."""

    # __dict__ holds what the cached property caches
    __slots__ = ("words", "alphabet", "automaton", "__dict__")
    _compared = ("words", "alphabet")
    __hash__ = None

    def __init__(self, words: Iterable[Word], alphabet: Alphabet):
        ws = sorted(sorted({tuple(w) for w in words}), key=len)  # (length, word), stable
        _check_words(ws, alphabet)
        automaton = FactorAutomaton(ws)
        divisions = _divisions(automaton, ws)
        if divisions:
            a, b = min(divisions)
            raise InputError(
                f"not an antichain: word {ws[a]} divides word {ws[b]}; interreduce first"
            )
        object.__setattr__(self, "words", tuple(ws))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "automaton", automaton)

    @classmethod
    def interreduce(cls, words: Iterable[Word], alphabet: Alphabet) -> "MonomialSet":
        """Drop every word that has a different input word as a factor."""
        ws = list({tuple(w) for w in words})
        _check_words(ws, alphabet)
        divided = {b for _, b in _divisions(FactorAutomaton(ws), ws)}
        return cls((w for b, w in enumerate(ws) if b not in divided), alphabet)

    @cached_property
    def normal_steps(self) -> dict[int, list[tuple[int, int]]]:
        """Each automaton state reached from the root by normal steps,
        breadth first, to its steps (letter, next state), letters ascending:
        the normal words are the letter paths from the root."""
        goto, out = self.automaton._goto, self.automaton._out
        states, steps = [0], {0: []}
        for state in states:
            found = steps[state] = []
            for letter in range(self.alphabet.n):
                nxt = goto[state].get(letter, 0)
                if not out[nxt]:
                    found.append((letter, nxt))
                    if nxt not in steps:  # reached first: a key in breadth-first order
                        steps[nxt] = []
                        states.append(nxt)
        return steps

    def count_normal(self, up_to: int) -> list[int]:
        """Number of normal words per weighted degree 0..up_to, by paths along
        :attr:`normal_steps`; row d of the per-state table is complete once the
        lower rows are spent, so a ring of max(weights) + 1 rows is kept."""
        if up_to < 0:
            raise ValueError("up_to must be nonnegative")
        weights = self.alphabet.weights
        steps = [(s, t, weights[a]) for s, out in self.normal_steps.items() for a, t in out]
        span, n_states = max(weights) + 1, len(self.automaton._goto)
        ring = [[0] * n_states for _ in range(span)]
        ring[0][0] = 1
        counts = []
        for d in range(up_to + 1):
            row = ring[d % span]
            counts.append(sum(row))
            for state, nxt, w in steps:
                if row[state] and d + w <= up_to:
                    ring[(d + w) % span][nxt] += row[state]
            ring[d % span] = [0] * n_states
        return counts

    @property
    def ell(self) -> int:
        """Maximal member length (0 for the empty set)."""
        return max((len(w) for w in self.words), default=0)

    @property
    def dead_letters(self) -> tuple[int, ...]:
        """The letters that are members themselves, ascending."""
        return tuple(w[0] for w in self.words if len(w) == 1)

    def is_normal(self, word: Word) -> bool:
        return self.automaton.is_normal(word)

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return tuple(word) in self.words


def _check_lm_reduced(leading: list[Word], alphabet: Alphabet) -> None:
    """Raise for the least pair of relations (a, b) with LM(a) dividing LM(b)."""
    ids = [k for k, w in enumerate(leading) if w]
    matcher = FactorAutomaton(leading[k] for k in ids)
    empty = {k for k, w in enumerate(leading) if not w}  # divides every word
    divisions = [(a, b) for b, w in enumerate(leading)
                 for a in empty | {ids[i] for i, _ in matcher.matches(w)} if a != b]
    if divisions:
        a, b = min(divisions)
        raise InputError(
            "relations are not LM-reduced: leading word "
            f"{word_str(leading[a], alphabet)} of relation {a + 1} divides "
            f"leading word {word_str(leading[b], alphabet)} of relation {b + 1}"
        )


class GroebnerBasis:
    """Monic, LM-reduced relation list plus the graded order selecting the LMs.

    ``omega`` is the obstruction set LM(G); LM-reduction makes the leading
    words an antichain already, so it is never interreduced again.
    ``verification`` starts as None and holds the successful result of
    :func:`verify_groebner`; operations whose meaning depends on the Groebner
    property call :func:`ensure_verified`.

    Reduction strategy: a reducible word is rewritten with the relation of
    longest leading word, ties going to the lowest relation index, at the
    leftmost occurrence of that leading word.  Under an order with a
    ``homogenizer`` T, words are kept T-front (:func:`_t_front`).
    """

    __slots__ = ("elements", "order", "leading_words", "omega", "verification",
                 "_choice", "_rules", "_front")

    def __init__(self, relations: Iterable[Poly], order: MonomialOrder):
        elements: list[Poly] = []
        leading: list[Word] = []
        letters = frozenset(range(order.alphabet.n))
        for k, f in enumerate(relations):
            if not isinstance(f, Poly):
                raise InputError(f"relation {k + 1} is not a polynomial")
            if f.is_zero:
                raise InputError(f"relation {k + 1} is zero")
            if not letters.issuperset(chain.from_iterable(f.terms)):
                outside = set().union(*f.terms).difference(letters)
                raise InputError(
                    f"relation {k + 1}: letter {min(outside)} lies outside "
                    f"0..{len(letters) - 1}"
                )
            lw, lc = leading_data(f, order)
            if lc != 1:
                f = (Fraction(1) / lc) * f
            elements.append(f)
            leading.append(lw)
        try:
            omega = MonomialSet(leading, order.alphabet)
        except InputError:  # the identity word, or one leading word divides another
            _check_lm_reduced(leading, order.alphabet)
            raise  # a lone relation with a constant leading term
        if len(omega) < len(leading):  # two relations share a leading word
            _check_lm_reduced(leading, order.alphabet)
        self.elements = tuple(elements)
        self.order = order
        self.leading_words = tuple(leading)
        self.omega = omega
        self.verification: VerificationResult | None = None
        # per state of omega's automaton: the best (-len(LM), relation) of the
        # leading words ending there, by the strategy; None where none ends
        relation = {w: k for k, w in enumerate(leading)}
        ranks = [(-len(w), relation[w]) for w in omega.words]
        self._choice = [min(map(ranks.__getitem__, hits)) if hits else None
                        for hits in omega.automaton._out]
        # per relation: (len(LM), its tail), the tail being the terms after
        # the leading one (coefficient 1) with engine coefficients
        rules = []
        for lw, f in zip(leading, elements):
            tail = _engine_terms(f)
            del tail[lw]
            rules.append((len(lw), tuple(tail.items())))
        self._rules = tuple(rules)
        # (T, the letters T cannot cross) when the order has a homogenizer T:
        # T crosses exactly the letters X with X*T - T*X among the relations
        t = getattr(order, "homogenizer", None)
        if t is None:
            self._front = None
        else:
            crossed = {lw[0] for lw, f in zip(leading, elements)
                       if len(lw) == 2 and lw[1] == t and f.terms == {lw: 1, (t, lw[0]): -1}}
            self._front = (t, frozenset(range(order.alphabet.n)) - crossed - {t})

    def __len__(self):
        return len(self.elements)

    @property
    def verified(self) -> bool:
        return self.verification is not None

    def find_reduction(self, word: Word) -> tuple[int, int] | None:
        """(relation index, position) per the strategy; None when normal.

        One automaton pass; a later match replaces the best so far only if
        it ranks strictly better, so equal ranks keep the leftmost."""
        goto, choice = self.omega.automaton._goto, self._choice
        state, best, end = 0, None, 0
        for i, letter in enumerate(word, 1):
            state = goto[state].get(letter, 0)
            rank = choice[state]
            if rank is not None and (best is None or rank < best):
                best, end = rank, i
        if best is None:
            return None
        neg_len, idx = best
        return idx, end + neg_len


_KEY = itemgetter(0)


def _engine_terms(f: Poly) -> dict:
    """The terms of ``f`` with engine coefficients: an int where the
    denominator is 1, else the reduced pair (numerator, denominator > 1)."""
    return {w: c.numerator if c.denominator == 1 else (c.numerator, c.denominator)
            for w, c in f.terms.items()}


def _poly(terms: dict) -> Poly:
    """The ``Poly`` of an engine term dict; it holds ``Fraction``s again."""
    return Poly({w: c if c.__class__ is int else Fraction(*c) for w, c in terms.items()})


def _sub(a, b):
    """a - b for engine coefficients, each an int (0 included) or a reduced
    pair, as ``Fraction`` subtracts: over the lcm of the denominators, so
    the only gcd taken after the products is with a common factor of them."""
    an, ad = (a, 1) if a.__class__ is int else a
    bn, bd = (b, 1) if b.__class__ is int else b
    g = gcd(ad, bd)
    if g == 1:  # coprime denominators: the cross product is reduced already
        n, d = an * bd - bn * ad, ad * bd
    else:
        s = ad // g
        n = an * (bd // g) - bn * s
        h = gcd(n, g)
        n, d = n // h, s * (bd // h)
    return n if d == 1 else (n, d)


def _t_front(word: Word, t: int, stuck: frozenset) -> Word:
    """T^m * (``word`` without its m T's): where the commutator reductions
    X*T -> T*X, one letter at a time, end.  ``word`` itself when it is
    T-front already, or when a letter of ``stuck`` (one with no commutator)
    stands left of its last T."""
    m = word.count(t)
    if word[:m].count(t) == m:
        return word
    if stuck and not stuck.isdisjoint(word[: len(word) - word[::-1].index(t)]):
        return word
    return (t,) * m + tuple([i for i in word if i != t])


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """Rewrite ``f`` until no term contains a leading word.

    Deterministic: always rewrite the largest reducible term in the monomial
    order, by the reduction strategy of :class:`GroebnerBasis`.  Over a
    Groebner basis the result is the unique normal form.
    """
    return _poly(_reduce_terms(_engine_terms(f), basis))


def _reduce_terms(work: dict, basis: GroebnerBasis, applied: set | None = None) -> dict:
    """The engine of :func:`normal_form`: reduce the term dict ``work`` and
    return the result (a new dict under a homogenizer, else ``work``
    itself); ``applied`` collects the index of every relation a step uses.

    Each word is scanned once, when it enters the work set; only a reducible
    word gets a sort key and a place in ``pending``, ascending, so ``pop()``
    yields the largest one.  Rewriting a word only creates smaller words, so
    a popped word never returns.  A step pops its target with its
    coefficient and subtracts coeff * left * tail * right, the tail being
    the relation without its leading term: the target itself is never
    rebuilt, looked up or cancelled.

    Under a homogenizer T, every word enters T-front (:func:`_t_front`): the
    chain of commutator steps that moves its T's to the front is taken as
    one step.  Each link is a reduction, so an S-element that this reduces
    to zero is resolvable, and T-free words take exactly the steps they
    would without T.

    Coefficients are exact rationals held as plain ints where the denominator
    is 1 and as reduced (numerator, denominator) pairs otherwise.  Each
    product is reduced by cancelling across, an int minus an int stays
    inline, and every other update goes through :func:`_sub`.  There is
    deliberately no shared denominator for the work set (fraction-free
    reduction): the coefficients swell and every step rescales every term.
    On x2^30*x1^30 under x2*x1 - 1/2*x1*x2 - 1/3*x1 that took 1.24 s,
    against 0.56 s with ``Fraction`` terms and 0.32 s with per-term pairs
    (2 vCPUs, Python 3.11).
    """
    find, key, rules = basis.find_reduction, basis.order.sort_key, basis._rules
    record = (set() if applied is None else applied).add
    front = basis._front
    if front is not None:
        t, stuck = front
        terms, work = work, {}
        for word, c in terms.items():
            if t in word:
                word = _t_front(word, t, stuck)
            nc = _sub(work.get(word, 0), _sub(0, c))
            if nc:
                work[word] = nc
            else:
                work.pop(word, None)
    pending: list[tuple] = []  # (sort key, word, (relation, position))
    for word in work:
        found = find(word)
        if found is not None:
            insort(pending, (key(word), word, found), key=_KEY)
    while pending:
        _, target, (idx, pos) = pending.pop()
        coeff = work.pop(target, None)
        if coeff is None:  # cancelled after it was queued
            continue
        record(idx)
        length, tail = rules[idx]
        left, right = target[:pos], target[pos + length:]
        cn, cd = (coeff, 1) if coeff.__class__ is int else coeff
        for u, c in tail:
            # p = coeff * c, reduced by cancelling across (each gcd has a
            # relation's small number on one side)
            if c.__class__ is int:
                if cd == 1:
                    pn, pd = cn * c, 1
                else:
                    g = gcd(c, cd)
                    pn, pd = cn * (c // g), cd // g
            else:
                e, f = c
                g, h = gcd(cn, f), gcd(e, cd)
                pn, pd = (cn // g) * (e // h), (cd // h) * (f // g)
            word = left + u + right
            if front is not None and t in word:
                word = _t_front(word, t, stuck)
            old = work.get(word)
            if old is None:
                work[word] = -pn if pd == 1 else (-pn, pd)
                found = find(word)
                if found is not None:
                    insort(pending, (key(word), word, found), key=_KEY)
                continue
            if pd == 1 and old.__class__ is int:
                nc = old - pn
            else:
                nc = _sub(old, pn if pd == 1 else (pn, pd))
            if nc:
                work[word] = nc
            else:
                del work[word]
    return work


class OverlapAmbiguity(namedtuple("OverlapAmbiguity", "left_index right_index overlap word")):
    """A proper suffix of one leading word equals a proper prefix of another.

    ``word`` is the superposition: LM(left) and LM(right) overlap in it by
    ``overlap`` letters, at positions 0 and ``len(LM(left)) - overlap``.
    """

    __slots__ = ()


def _overlaps(lws: tuple[Word, ...], lefts: range, rights: range) -> list[tuple[int, int, int]]:
    """(i, j, overlap) of every overlap of leading word i in ``lefts`` with
    leading word j in ``rights``, in that order; ``rights`` ascending."""
    top = max((len(lws[i]) for i in lefts), default=0)
    starts: dict[Word, list[int]] = {}  # proper prefix -> leading words it starts
    for j in rights:
        v = lws[j]
        for o in range(1, min(len(v), top)):
            starts.setdefault(v[:o], []).append(j)
    out: list[tuple[int, int, int]] = []
    for i in lefts:
        u = lws[i]
        out += sorted((i, j, o) for o in range(1, len(u)) for j in starts.get(u[-o:], ()))
    return out


def _ambiguity(lws: tuple[Word, ...], i: int, j: int, o: int) -> OverlapAmbiguity:
    return OverlapAmbiguity(i, j, o, lws[i] + lws[j][o:])


def overlap_ambiguities(basis: GroebnerBasis) -> list[OverlapAmbiguity]:
    """All overlap ambiguities, in deterministic (i, j, overlap) order.

    Inclusion ambiguities cannot occur for an LM-reduced basis.
    """
    lws = basis.leading_words
    every = range(len(lws))
    return [_ambiguity(lws, *key) for key in _overlaps(lws, every, every)]


def _s_terms(basis: GroebnerBasis, amb: OverlapAmbiguity) -> dict:
    """The S-element of ``amb``, prefix * g_right - g_left * suffix, as an
    engine term dict, built in one pass over the two relations' tails: the
    superposition word, which both rewrite, never enters."""
    u = basis.leading_words[amb.left_index]
    v = basis.leading_words[amb.right_index]
    prefix = u[: len(u) - amb.overlap]
    suffix = v[amb.overlap :]
    terms = {prefix + w: c for w, c in basis._rules[amb.right_index][1]}
    for w, c in basis._rules[amb.left_index][1]:
        word = w + suffix
        nc = _sub(terms.get(word, 0), c)
        if nc:
            terms[word] = nc
        else:
            terms.pop(word, None)
    return terms


class VerificationResult(Record):
    """The outcome of :func:`verify_groebner`.  On success ``applied`` maps
    each overlap (i, j, overlap) to the relations its reduction applied; it
    is left out of equality and of the repr.  A failed result's
    ``remainder`` is a Poly, which never hashes, so no result hashes."""

    __slots__ = ("ok", "checked", "ambiguity", "remainder", "applied")
    _compared = ("ok", "checked", "ambiguity", "remainder")
    __hash__ = None

    def __init__(self, ok: bool, checked: int, ambiguity: OverlapAmbiguity | None = None,
                 remainder: Poly | None = None, applied: dict | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "ambiguity", ambiguity)
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "applied", applied)


def _base_record(basis: GroebnerBasis, base: GroebnerBasis | None) -> dict | None:
    """Per overlap (i, j, overlap) of ``base``, the relations its reduction
    applied, when ``base`` is verified and its leading words are the first
    len(base) of ``basis``: those overlaps are then ``basis``'s among its
    first len(base) leading words.  None otherwise."""
    if base is None or base.verification is None:
        return None
    if basis.leading_words[: len(base)] != base.leading_words:
        return None
    return base.verification.applied


def _repeated_reductions(basis: GroebnerBasis, base: GroebnerBasis) -> dict:
    """The overlaps of ``basis`` whose reduction would repeat, step for step,
    one recorded by the successful verification of ``base``, each with the
    relations that reduction applied.

    ``basis`` must extend ``base`` as G~ extends G: its order restricts to
    ``base.order`` on base words, and each relation after the first
    len(base) has a leading word with a new letter.  When the first
    len(base) leading words are base's, only those match a base word, with
    base's ranks.  So if relations i and j and every relation the base
    reduction applied keep base's rule, the S-element and every step are
    base's, down to the same zero.
    """
    done = _base_record(basis, base)
    if not done:
        return {}
    shared = {k for k in range(len(base)) if basis._rules[k] == base._rules[k]}
    return {key: used for key, used in done.items()
            if key[0] in shared and key[1] in shared and used <= shared}


def _one_step(basis: GroebnerBasis, k: int, terms: dict) -> bool:
    """True when ``terms``, T-fronted term by term, is -T*g~_k, with g~_k
    relation k as the engine holds it: ``terms`` then reduces to zero by the
    one step of relation k at T*LM(g_k), the step :func:`_reduce_terms`
    would take first.

    ``terms`` is the S-element of the overlap of relation k with a
    commutator X*T - T*X, as :func:`_s_terms` lists it: the commutator's
    term, then g_k's tail, each times T.  That this gives the engine's
    result needs T in front of no leading word (checked by the caller): the
    leading words form an antichain, so T*LM(g_k) holds LM(g_k) alone, and
    it is the largest word, since every tail word of g_k is below LM(g_k).
    """
    t, stuck = basis._front
    tail = basis._rules[k][1]
    if len(terms) != len(tail) + 1:
        return False
    expected = [((t,) + basis.leading_words[k], -1)]
    expected += [((t,) + w, -c if c.__class__ is int else (-c[0], c[1])) for w, c in tail]
    for (word, c), (want, wc) in zip(terms.items(), expected):
        if c != wc or _t_front(word, t, stuck) != want:
            return False
    return True


def _skew_triple(basis: GroebnerBasis, swap: dict, i: int, j: int) -> set | None:
    """{i, j, r} when the overlap (i, j, 1) of LM(g_i) = c*b and LM(g_j) =
    b*a reduces to zero by the skew-triple identity, r being the relation
    of leading word c*a; None when it may not.

    ``swap`` maps the leading word of each swap rule, a relation whose one
    tail term is its leading word reversed, to its index; g_i, g_j and g_r
    must be swap rules, a*c no leading word, a*b*c normal, and the order
    must have no homogenizer.  The engine then takes
    c*a*b ->(r) a*c*b ->(i) a*b*c and b*c*a ->(r) b*a*c ->(j) a*b*c:
    a, b and c are distinct, as no swap rule reverses a square, so the five
    words are, and each of them holds exactly one leading word as a factor
    (the antichain rules out the longer ones).  The coefficients commute, so
    both paths bring the same product to a*b*c, with opposite signs, and S
    reduces to exactly 0."""
    lws = basis.leading_words
    if lws[i] not in swap or lws[j] not in swap:
        return None
    (c, b), a = lws[i], lws[j][1]
    r = swap.get((c, a))
    normal = basis.omega.automaton.is_normal
    if r is None or not normal((a, c)) or not normal((a, b, c)):
        return None
    return {i, j, r}


def verify_groebner(basis: GroebnerBasis, base: GroebnerBasis | None = None
                    ) -> VerificationResult:
    """Diamond-lemma check: every S-element must reduce to zero.

    Each S-element is built and reduced as the engine's exact term dict; a
    ``Poly`` is built only for a nonzero remainder.  With ``base``, a
    verified basis that ``basis`` extends (see :func:`_repeated_reductions`),
    only the overlaps with a relation after the first len(base) are
    enumerated: the others are base's, read off its record.  An overlap
    whose reduction would repeat base's is resolved by that reduction
    instead of being reduced again; it still counts as checked, and no
    ambiguity is built for it.

    Under an order with no homogenizer, an overlap (i, j, 1) of LM(g_i) =
    c*b and LM(g_j) = b*a is first checked for the skew-triple identity
    (:func:`_skew_triple`): g_i, g_j and the relation r of leading word c*a
    each rewrite their leading word to its reverse times a scalar, a*c is no
    leading word and a*b*c is normal.  Its S-element then reduces to zero by
    steps that follow from those conditions, applying {i, j, r}, and is not
    built.  Under a homogenizer, words enter T-front and take other steps,
    so the identity is not tried.  On a seed-7 ``pbw`` deck of the
    benchmark it resolves 2750 of the 3081 base overlaps; the 331 left hold
    a relation with lower terms (Weyl, Heisenberg, U(sl2)).

    Under an order with a homogenizer T, as for G~ with the commutators
    X_i*T - T*X_i after the first len(base) relations, the S-element of an
    overlap of relation k with a later relation is first checked against
    its one-step identity (:func:`_one_step`): T-fronted, it is -T*g~_k,
    and relation k alone takes it to zero.  Where that holds, the overlap
    applied {k}, as the engine would find; where it fails (a tail word of
    g_k holds a letter T cannot cross, or a commutator or tail was
    altered), the engine reduces it.  So the result, ``applied`` included,
    is the engine's.

    On success the result is kept as ``basis.verification``; on failure it
    carries the first failing ambiguity (fixed enumeration order) and its
    remainder.
    """
    lws = basis.leading_words
    done = _base_record(basis, base)
    # an overlap (i, j, o) with j from here tries the one-step identity: none
    # does without a base record, or when T starts a leading word
    commutators = len(lws)
    if done is None:
        overlaps = overlap_ambiguities(basis)
        repeated = {}
    else:
        r, n = len(base), len(lws)
        later = _overlaps(lws, range(r), range(r, n)) + _overlaps(lws, range(r, n), range(n))
        overlaps = sorted([*done, *later])  # two ascending runs: one merge
        repeated = _repeated_reductions(basis, base)
        front = basis._front
        if front is not None and all(w[0] != front[0] for w in lws):
            commutators = r
    # the swap rules by leading word, for the skew-triple identity; none
    # under a homogenizer, where words enter T-front and take other steps
    swap = {} if basis._front is not None else {
        lw: k for k, (lw, (_, tail)) in enumerate(zip(lws, basis._rules))
        if len(lw) == 2 and len(tail) == 1 and tail[0][0] == lw[::-1]}
    applied = {}
    for overlap in overlaps:
        key = overlap[:3]
        used = repeated.get(key)
        if used is None and swap:
            used = _skew_triple(basis, swap, key[0], key[1])
        if used is None:
            # a key of base's record or a later overlap becomes an ambiguity
            # only here, to be resolved
            amb = overlap if len(overlap) == 4 else _ambiguity(lws, *key)
            terms = _s_terms(basis, amb)
            if key[1] >= commutators and _one_step(basis, key[0], terms):
                used = {key[0]}
            else:
                used = set()
                remainder = _reduce_terms(terms, basis, used)
                if remainder:
                    return VerificationResult(False, len(overlaps), amb, _poly(remainder))
        applied[key] = used
    basis.verification = VerificationResult(True, len(overlaps), applied=applied)
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
