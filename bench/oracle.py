"""Answers the benchmark computes without calling ``ncdim``.

Every check here works from the obstruction set the generator built the
presentation around, never from the program's own data structures:

* normal words are counted by brute force (extend normal words one letter at
  a time and reject any that end in an obstruction), so the first Hilbert
  coefficients are known exactly;
* Anick chains are counted per level from their definition (a chain extends
  by a tail ``v`` when ``u + v`` ends in an obstruction that starts inside the
  previous tail ``u`` and ``(u + v)[:-1]`` contains none), which gives the
  global dimension and tells thin chain sets from branching ones;
* PBW-type presentations on n generators have closed forms: polynomial
  growth of degree n, gl.dim n, Hilbert series 1/(1-t)^n, Rees gl.dim n+1.
"""

from __future__ import annotations

import functools
import json
from math import comb

# Brute-force enumeration stops before a degree with more normal words.
MAX_WORDS_PER_DEGREE = 1024
# Chain levels looked at; a chain set still alive here counts as infinite.
CHAIN_LEVELS = 64


@functools.lru_cache(maxsize=None)
def _normal_word_counts(omega: frozenset, weights: tuple, up_to: int) -> tuple[int, ...]:
    lengths = sorted({len(w) for w in omega})
    by_degree: list[list[tuple]] = [[()]]
    for d in range(1, up_to + 1):
        level: list[tuple] = []
        for a, wa in enumerate(weights):
            if wa > d:
                continue
            for u in by_degree[d - wa]:
                v = u + (a,)
                if not any(len(v) >= k and v[-k:] in omega for k in lengths):
                    level.append(v)
            if len(level) > MAX_WORDS_PER_DEGREE:
                return tuple(len(words) for words in by_degree)
        by_degree.append(level)
    return tuple(len(words) for words in by_degree)


def normal_word_counts(omega, weights, up_to: int) -> list[int]:
    """Number of words avoiding every member of ``omega``, per weighted degree.

    Covers degrees 0..D for the largest D <= up_to whose degrees each have at
    most MAX_WORDS_PER_DEGREE normal words.
    """
    return list(_normal_word_counts(frozenset(map(tuple, omega)), tuple(weights), up_to))


def _avoids(word, omega, lengths) -> bool:
    return not any(
        word[i:i + k] in omega
        for k in lengths
        for i in range(len(word) - k + 1)
    )


def chain_counts(omega, n_letters: int, levels: int = CHAIN_LEVELS) -> list[int]:
    """Number of Anick chains on levels 0, 1, ... (level 0 = live letters).

    The list stops at the first empty level, or after ``levels`` levels.
    """
    omega = {tuple(w) for w in omega}
    lengths = sorted({len(w) for w in omega})
    memo: dict[tuple, list[tuple]] = {}

    def tails(u):
        # v ends an obstruction w = head + v whose head is a suffix of u
        if u not in memo:
            found = set()
            for w in omega:
                for k in range(1, len(w)):
                    head, v = w[:-k], w[-k:]
                    if len(head) <= len(u) and u[len(u) - len(head):] == head \
                            and _avoids((u + v)[:-1], omega, lengths):
                        found.add(v)
            memo[u] = sorted(found)
        return memo[u]

    current = {(a,): 1 for a in range(n_letters) if (a,) not in omega}
    counts = []
    while current and len(counts) < levels:
        counts.append(sum(current.values()))
        nxt: dict[tuple, int] = {}
        for u, c in current.items():
            for v in tails(u):
                nxt[v] = nxt.get(v, 0) + c
        current = nxt
    return counts


def chain_shape(omega, n_letters: int) -> str:
    """'thin' (at most 2 chains on every level), 'branching' (over 10^4 chains
    on some level, so the chain sets grow exponentially) or 'mixed'."""
    widest = max(chain_counts(omega, n_letters)[1:], default=0)
    if widest <= 2:
        return "thin"
    if widest > 10_000:
        return "branching"
    return "mixed"


def gldim(omega, n_letters: int):
    """Global dimension of the monomial algebra, or "infinity"."""
    counts = chain_counts(omega, n_letters)
    return "infinity" if len(counts) == CHAIN_LEVELS else len(counts)


def pbw_denominator(n: int) -> list[int]:
    return [(-1) ** k * comb(n, k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a short reason

def check_hilbert(coefficients, expect) -> str | None:
    """Leading coefficients against the brute-force count."""
    n = min(len(coefficients), len(expect["hilbert"]))
    if list(coefficients[:n]) != expect["hilbert"][:n]:
        return f"hilbert {list(coefficients[:n])} != brute force {expect['hilbert'][:n]}"
    return None


def check_rees_hilbert(base, rees) -> str | None:
    """The Rees algebra has Hilbert series H(t)/(1-t): partial sums."""
    total = 0
    for d, (b, r) in enumerate(zip(base, rees)):
        total += b
        if r != total:
            return f"rees hilbert degree {d}: {r} != partial sum {total}"
    return None


def check_report(doc: dict, expect: dict) -> str | None:
    """A JSON report (``render_report(..., "json")``) against the expectations."""
    problem = check_hilbert(doc["hilbert"]["coefficients"], expect)
    if problem:
        return problem
    problem = check_rees_hilbert(
        doc["hilbert"]["coefficients"], doc["rees"]["hilbert"]["coefficients"]
    )
    if problem:
        return problem
    if doc["gldim_monomial"] != expect["gldim"]:
        return f"gldim {doc['gldim_monomial']} != {expect['gldim']}"
    rees_gldim = expect["gldim"] if expect["gldim"] == "infinity" else expect["gldim"] + 1
    if doc["rees"]["gldim"] != rees_gldim:
        return f"rees gldim {doc['rees']['gldim']} != {rees_gldim}"
    growth = expect.get("growth")
    if growth is not None and doc["growth"] != growth:
        return f"growth {doc['growth']} != {growth}"
    n = expect.get("pbw_n")
    if n is not None:
        if doc["hilbert"]["denominator"] != pbw_denominator(n):
            return f"denominator {doc['hilbert']['denominator']} is not (1-t)^{n}"
        if not doc["hilbert"]["closed_form"]:
            return "PBW Hilbert series has no closed form"
    return None


def expectations(omega, weights, truncation: int, pbw_n: int | None = None,
                 exponential: bool = False) -> dict:
    """Everything the checks need for one presentation."""
    n_letters = len(weights)
    expect = {
        "hilbert": normal_word_counts(omega, weights, truncation),
        "gldim": pbw_n if pbw_n is not None else gldim(omega, n_letters),
    }
    if pbw_n is not None:
        expect["pbw_n"] = pbw_n
        expect["growth"] = {"class": "polynomial", "degree": pbw_n}
    elif exponential:
        # one obstruction of length >= 3 over two letters removes one edge
        # from a de Bruijn graph, which stays strongly connected with more
        # edges than vertices
        expect["growth"] = {"class": "exponential", "degree": None}
    return expect


def _ints_after(stdout: str, prefix: str) -> list[int] | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return [int(x) for x in line[len(prefix):].split(",")]
    return None


def check_cli(argv, code, stdout: str, expect: dict, codes=(0,)) -> str | None:
    """Output of ``ncdim <argv>``; only exit codes in ``codes`` are allowed,
    and the output of a completed command must be right."""
    if code not in codes:
        return f"exit code {code}"
    if code != 0:
        return None
    command = argv[0]
    if command == "check-gb":
        ok = stdout.startswith("ok:")
    elif command == "growth":
        growth = expect.get("growth")
        if growth is None:
            ok = stdout.startswith("growth: ")
        elif growth["class"] == "exponential":
            ok = stdout.startswith("growth: exponential")
        else:
            ok = stdout.startswith(f"growth: polynomial of degree {growth['degree']}\n")
    elif command == "gldim":
        value = "infinite" if expect["gldim"] == "infinity" else str(expect["gldim"])
        ok = stdout.startswith(f"gl.dim of the monomial algebra: {value}\n")
    elif command == "hilbert":
        coefficients = _ints_after(stdout, "coefficients: ")
        terms = int(argv[argv.index("--terms") + 1])
        if coefficients is None or len(coefficients) != terms + 1:
            return f"hilbert --terms {terms} printed {coefficients}"
        return check_hilbert(coefficients, expect)
    elif command == "rees":
        coefficients = _ints_after(stdout, "coefficients: ")
        if coefficients is None:
            return "rees printed no coefficients"
        return check_rees_hilbert(expect["hilbert"], coefficients[:len(expect["hilbert"])])
    elif command == "pbw":
        ok = stdout.startswith("yes") == expect["pbw"]
    elif command == "graph":
        ok = stdout.startswith("digraph" if "--dot" in argv else "vertices (")
    elif command == "report":
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if fmt == "json":
            return check_report(json.loads(stdout), expect)
        if fmt == "text":
            ok = stdout.startswith("Groebner basis: verified")
        else:
            ok = stdout.count("digraph ") == 3
    else:
        return f"unknown command {command}"
    return None if ok else f"{command} printed {stdout[:80]!r}"
