"""Slow or plain reference implementations that the package is tested against.

- :func:`contains_factor`, the brute-force factor test behind every
  automaton answer;
- the int-or-``Fraction`` normal-form engine: coefficients are ints where
  the denominator is 1 and ``Fraction``s otherwise.  The package's engine
  holds the same values as ints and (numerator, denominator) int pairs, and
  must take the same steps.  With ``front=False`` it is the one-letter
  engine: under the Rees order each T crosses a word one commutator step
  at a time instead of moving to the front on entry;
- conversions between ``Poly`` and the package engine's term dicts, for
  references that stand in for parts of that engine;
- plain routines that only the tests need: :func:`compare` on sort keys,
  :func:`homogeneous_components`, :func:`dehomogenize`, :func:`count_paths`,
  :func:`chain_level` and :func:`poly_mul`;
- :func:`listed_chain_words`, the word-only chain listing that the
  package's listing of words and texts is tested against;
- :func:`json_report`, the JSON report as ``json.dumps(indent=2)`` lays it
  out, that the report's one-pass writer is tested against;
- :class:`_PolyParser`, the recursive-descent parser with one method call
  per token that the one-pass ``parse_polynomial`` is tested against;
- :func:`setdefault_automaton`, the Aho–Corasick table filled in one
  ``setdefault`` per letter, against which ``FactorAutomaton``'s merged
  table is tested;
- :func:`flat_normal_steps`, the flat list of an automaton's normal steps
  that ``MonomialSet.normal_steps`` must flatten to, in the same order.
"""

import json
from bisect import insort
from collections import deque
from fractions import Fraction
from itertools import islice
from operator import itemgetter

import ncdim.chains
import ncdim.freealg
from ncdim import Poly, VerificationResult, overlap_ambiguities, report_to_dict
from ncdim.chains import ROOT
from ncdim.errors import ParseError
from ncdim.rees import HomogenizationOrder


def contains_factor(word, factor):
    """Brute-force factor test, the reference the automaton is tested against."""
    lf = len(factor)
    if lf == 0:
        return True
    return any(word[i : i + lf] == factor for i in range(len(word) - lf + 1))


def _exact(c):
    """``c`` as an int when its denominator is 1, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def fraction_rules(basis):
    """Per relation: (len(LM), its terms with int-or-Fraction coefficients)."""
    return tuple(
        (len(lw), tuple((w, _exact(c)) for w, c in f.terms.items()))
        for f, lw in zip(basis.elements, basis.leading_words)
    )


_KEY = itemgetter(0)


def t_front_moves(basis):
    """For a basis under the Rees order: (T, the letters X with X*T - T*X
    among its relations); None for any other order."""
    if not isinstance(basis.order, HomogenizationOrder):
        return None
    t = basis.order.homogenizer
    return t, {i for i in range(t) if Poly({(i, t): 1, (t, i): -1}) in basis.elements}


def t_front(word, t, crossed):
    """``word`` with every T moved to the front, or ``word`` itself when a
    letter left of its last T is not in ``crossed``."""
    if t in word:
        last = len(word) - 1 - word[::-1].index(t)
        if any(i != t and i not in crossed for i in word[:last]):
            return word
    return tuple(sorted(word, key=lambda i: i != t))  # stable: T's first


def fraction_reduce_terms(work, basis, rules=None, front=True):
    """The int-or-Fraction engine: reduce the term dict ``work`` by the same
    steps as the package's engine and return the result; ``front=False``
    leaves every word where it enters (the one-letter engine)."""
    rules = fraction_rules(basis) if rules is None else rules
    find, key = basis.find_reduction, basis.order.sort_key
    moves = t_front_moves(basis) if front else None
    if moves is not None:
        entered = {}
        for word, c in work.items():
            word = t_front(word, *moves)
            nc = entered.get(word, 0) + c
            if nc.__class__ is Fraction and nc.denominator == 1:
                nc = nc.numerator
            if nc:
                entered[word] = nc
            else:
                entered.pop(word, None)
        work = entered
    pending = []  # (sort key, word, (relation, position))
    for word in work:
        found = find(word)
        if found is not None:
            insort(pending, (key(word), word, found), key=_KEY)
    while pending:
        _, target, (idx, pos) = pending.pop()
        coeff = work.get(target)
        if coeff is None:  # cancelled after it was queued
            continue
        length, terms = rules[idx]
        left, right = target[:pos], target[pos + length:]
        for u, c in terms:
            word = left + u + right
            if moves is not None:
                word = t_front(word, *moves)
            old = work.get(word)
            nc = -coeff * c if old is None else old - coeff * c
            if nc.__class__ is Fraction and nc.denominator == 1:
                nc = nc.numerator
            if old is None:
                work[word] = nc
                found = find(word)
                if found is not None:
                    insort(pending, (key(word), word, found), key=_KEY)
            elif nc:
                work[word] = nc
            else:
                del work[word]
    return work


def fraction_s_terms(basis, amb, rules=None):
    """The S-element of ``amb`` as an int-or-Fraction term dict."""
    rules = fraction_rules(basis) if rules is None else rules
    u = basis.leading_words[amb.left_index]
    v = basis.leading_words[amb.right_index]
    prefix = u[: len(u) - amb.overlap]
    suffix = v[amb.overlap :]
    terms = {prefix + w: c for w, c in rules[amb.right_index][1]}
    for w, c in rules[amb.left_index][1]:
        word = w + suffix
        nc = terms.get(word, 0) - c
        if nc.__class__ is Fraction and nc.denominator == 1:
            nc = nc.numerator
        if nc:
            terms[word] = nc
        else:
            terms.pop(word, None)
    return terms


def s_element(basis, amb):
    """Difference of the two one-step rewrites of the superposition word,
    prefix * g_right - g_left * suffix."""
    return Poly(fraction_s_terms(basis, amb))


def fraction_normal_form(f, basis, front=True):
    """``normal_form`` by the int-or-Fraction engine."""
    terms = {w: _exact(c) for w, c in f.terms.items()}
    return Poly(fraction_reduce_terms(terms, basis, front=front))


def fraction_verify(basis, front=True):
    """``verify_groebner`` by the int-or-Fraction engine, every overlap
    reduced; the basis keeps no result."""
    rules = fraction_rules(basis)
    ambiguities = overlap_ambiguities(basis)
    for amb in ambiguities:
        s_terms = fraction_s_terms(basis, amb, rules)
        remainder = fraction_reduce_terms(s_terms, basis, rules, front)
        if remainder:
            return VerificationResult(False, len(ambiguities), amb, Poly(remainder))
    return VerificationResult(True, len(ambiguities))


def engine_terms(f):
    """The terms of ``f`` as the package's engine holds them: an int when the
    denominator is 1, else the (numerator, denominator) pair."""
    return {w: c.numerator if c.denominator == 1 else (c.numerator, c.denominator)
            for w, c in f.terms.items()}


def engine_poly(terms):
    """The ``Poly`` of an engine term dict."""
    return Poly({w: c if type(c) is int else Fraction(*c) for w, c in terms.items()})


def compare(order, u, v):
    """-1, 0 or 1 as ``u`` is below, equal to or above ``v`` in ``order``."""
    ku, kv = order.sort_key(u), order.sort_key(v)
    return (ku > kv) - (ku < kv)


def homogeneous_components(f, alphabet):
    """Split into (degree, part) pairs, ascending by weighted degree."""
    parts = {}
    for w, c in f.terms.items():
        parts.setdefault(alphabet.degree(w), {})[w] = c
    return [(d, Poly(parts[d])) for d in sorted(parts)]


def dehomogenize(f, t):
    """Substitute T = 1: drop every letter ``t`` and collect."""
    acc = {}
    for w, c in f.terms.items():
        base_word = tuple(i for i in w if i != t)
        nc = acc.get(base_word, 0) + c
        if nc:
            acc[base_word] = nc
        else:
            acc.pop(base_word, None)
    return Poly(acc)


def count_paths(graph, num_edges):
    """Number of directed paths with exactly ``num_edges`` edges in a
    Ufnarovski graph."""
    counts = {v: 1 for v in graph.vertices}
    for _ in range(num_edges):
        nxt = dict.fromkeys(graph.vertices, 0)
        for src, dst, _ in graph.edges:
            nxt[src] += counts[dst]
        counts = nxt
    return sum(counts.values())


def chain_level(sets, n):
    """The words of C_n read off ``sets.levels`` and ``sets.counts``: the
    root alone for n = -1, () past the last level of finite sets, and None
    when C_n is nonempty but not listed."""
    if n == -1:
        return ((),)
    if 0 <= n < len(sets.levels):
        return sets.levels[n]
    if n < 0 or (sets.finite and n >= len(sets.counts)):
        return ()
    return None


def listed_chain_words(sets):
    """The words of the leading chain levels of ``sets``, each level in
    (length, word) order, under the budgets the package reads at call time:
    at most MAX_LISTED_LEVELS levels, and none that would take the listing
    over MAX_LISTED_CHAINS words."""
    edges = sets.graph.edges
    levels = []
    routes = [(v, v) for v in edges[ROOT]]  # (tail vertex, chain word)
    room = ncdim.chains.MAX_LISTED_CHAINS - len(routes)
    while routes and room >= 0 and len(levels) < ncdim.chains.MAX_LISTED_LEVELS:
        levels.append(tuple(sorted((word for _, word in routes), key=lambda w: (len(w), w))))
        following = ((s, word + s) for tail, word in routes for s in edges[tail])
        routes = list(islice(following, room + 1))
        room -= len(routes)
    return tuple(levels)


def json_report(report):
    """The text of the JSON report, as the standard library's encoder lays
    out the report dict with an indent of 2."""
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def poly_mul(a, b):
    """The product of two polynomials given as coefficient lists, lowest
    degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _tokenize(text):
    """(kind, text, position) of each token but whitespace, one match per token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = ncdim.freealg._TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _PolyParser:
    """Recursive-descent parser for  poly := [sign] term (('+'|'-') term)*
    with  term := [coeff '*'] factor ('*' factor)* | coeff,
          coeff := nat ['/' nat],  factor := name ['^' nat]."""

    def __init__(self, text, alphabet):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.index = {name: i for i, name in enumerate(alphabet.names)}

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _accept_op(self, op):
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == op:
            self.pos += 1
            return True
        return False

    def _expect(self, kind, message):
        tok = self._peek()
        if tok is None:
            raise ParseError(message, len(self.text))
        if tok[0] != kind:
            raise ParseError(message, tok[2])
        self.pos += 1
        return tok

    def _nat(self, message):
        """The next token, a natural number, as (value, position)."""
        tok = self._expect("nat", message)
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # over Python's limit on integer-string conversion
            raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None

    def _coeff(self):
        num, _ = self._nat("expected a coefficient")
        if self._accept_op("/"):
            den, at = self._nat("expected a denominator")
            if den == 0:
                raise ParseError("zero denominator in coefficient", at)
            return Fraction(num, den)
        return Fraction(num)

    def _factor(self, length):
        """The next factor of a word that has ``length`` letters so far."""
        tok = self._expect("name", "expected a variable name")
        letter = self.index.get(tok[1])
        if letter is None:
            raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
        exp, at = 1, tok[2]
        if self._accept_op("^"):
            exp, at = self._nat("expected an exponent")
        limit = ncdim.freealg.MAX_WORD_LETTERS
        if length + exp > limit:
            raise ParseError(f"word longer than {limit} letters", at)
        return (letter,) * exp

    def _term(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        coeff = Fraction(1)
        if tok[0] == "nat":
            coeff = self._coeff()
            if not self._accept_op("*"):
                return coeff, ()
        word = []
        word.extend(self._factor(0))
        while self._accept_op("*"):
            word.extend(self._factor(len(word)))
        return coeff, tuple(word)

    def parse(self):
        acc = {}
        sign = 1
        if self._accept_op("-"):
            sign = -1
        else:
            self._accept_op("+")
        while True:
            coeff, word = self._term()
            nc = acc.get(word, 0) + sign * coeff
            if nc:
                acc[word] = nc
            else:
                acc.pop(word, None)
            tok = self._peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                sign = 1 if tok[1] == "+" else -1
                self.pos += 1
            else:
                raise ParseError("expected '+' or '-' between terms", tok[2])
        return Poly(acc)


def setdefault_automaton(patterns):
    """The (goto, out) tables of ``FactorAutomaton(patterns)``, each state's
    missing transitions filled in one ``setdefault`` per letter."""
    goto, out = [{}], [()]
    for k, pat in enumerate(patterns):
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
    fail = [0] * len(goto)
    queue = deque(goto[0].values())
    while queue:
        s = queue.popleft()
        f = fail[s]
        out[s] += out[f]
        for letter, t in goto[s].items():
            fail[t] = goto[f].get(letter, 0)
            queue.append(t)
        for letter, t in goto[f].items():
            goto[s].setdefault(letter, t)
    return goto, out


def flat_normal_steps(automaton, n_letters):
    """The steps (state, next state, letter) between the non-terminal
    states reached from the root, breadth first with letters ascending:
    the words that avoid every pattern are their letter paths from the root."""
    goto, out = automaton._goto, automaton._out
    states, seen, steps = [0], {0}, []
    for state in states:
        for letter in range(n_letters):
            nxt = goto[state].get(letter, 0)
            if not out[nxt]:
                steps.append((state, nxt, letter))
                if nxt not in seen:
                    seen.add(nxt)
                    states.append(nxt)
    return steps
