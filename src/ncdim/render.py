"""Deterministic text rendering: words, polynomials, series, DOT digraphs."""

from __future__ import annotations

import sys

from .errors import InputError
from .freealg import Alphabet, MonomialOrder, Poly, Word


def num_str(c) -> str:
    """Decimal text of an exact int or Fraction of a result.  Python refuses
    to convert integers of more than ``sys.get_int_max_str_digits()``
    digits; such a result is an InputError, not a traceback."""
    try:
        return str(c)
    except ValueError:
        raise InputError(
            "a result has a number too long to print (over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer-to-text conversion)"
        ) from None


def word_str(word: Word, alphabet: Alphabet) -> str:
    """Serialized form: '*'-joined letter names; the identity is "1"."""
    if not word:
        return "1"
    names = alphabet.names
    return "*".join([names[i] for i in word])


class _Names(dict):
    """Word -> its :func:`word_str` text, each named on its first lookup."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: Alphabet):
        super().__init__()
        self.alphabet = alphabet

    def __missing__(self, word: Word) -> str:
        text = self[word] = word_str(word, self.alphabet)
        return text


def vertex_names(graph) -> dict[Word, str]:
    """The :func:`word_str` text of the vertices of a graph on ``omega``,
    each named once, on its first lookup."""
    return _Names(graph.omega.alphabet)


def word_pretty(word: Word, alphabet: Alphabet) -> str:
    """Human form with powers collapsed, e.g. x1^2*x2."""
    if not word:
        return "1"
    runs: list[tuple[int, int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return "*".join(
        alphabet.names[i] if k == 1 else f"{alphabet.names[i]}^{k}" for i, k in runs
    )


def poly_str(f: Poly, order: MonomialOrder) -> str:
    """Render with terms in descending monomial order."""
    if f.is_zero:
        return "0"
    alphabet = order.alphabet
    words = sorted(f.terms, key=order.sort_key, reverse=True)
    parts: list[str] = []
    for pos, w in enumerate(words):
        c = f.terms[w]
        mag = abs(c)
        body = word_pretty(w, alphabet)
        if not w:
            piece = num_str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{num_str(mag)}*{body}"
        if pos == 0:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts)


def denominator_str(coeffs) -> str:
    """Render an integer polynomial in t from its ascending coefficient list."""
    parts: list[str] = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = num_str(mag)
        elif d == 1:
            body = "t" if mag == 1 else f"{num_str(mag)}t"
        else:
            body = f"t^{d}" if mag == 1 else f"{num_str(mag)}t^{d}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def dot_digraph(name: str, graph) -> str:
    """DOT text of a graph with ``omega``, ``vertices`` and ``pairs``,
    which its builder gives in (length, word) order (deterministic bytes)."""
    text = vertex_names(graph)
    lines = [f"digraph {name} {{"]
    for v in graph.vertices:
        lines.append(f'  "{text[v]}";')
    for src, dst in graph.pairs:
        lines.append(f'  "{text[src]}" -> "{text[dst]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
