"""Seeded generator: each workload as a deck of ops on JSON presentations.

A deck is the unit the benchmark repeats.  Its composition (how many ops of
each kind and size) is the same for every seed; the seed draws the
coefficients, the words, the antichains, the option values and the order in
which the ops run.  Every presentation is built around an obstruction set
the generator knows, so :mod:`oracle` can check the answer without calling
``ncdim``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

# ``analyze`` truncates Hilbert series here unless told otherwise.
TRUNCATION = 16
# Wall budget of one hostile op, child process start-up included.
HOSTILE_BUDGET_S = 0.5

@dataclass
class Op:
    """One operation: ``kind`` is 'analyze', 'cli' or 'child'.

    'analyze' ops carry the presentation as JSON text; 'cli' and 'child' ops
    carry the CLI arguments, with ``file`` naming the presentation file to
    write under the work directory (or an existing file of the repository).
    """

    kind: str
    label: str
    expect: dict
    text: str | None = None
    argv: list[str] = field(default_factory=list)
    file: str | None = None


def _names(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _presentation(names, relations) -> dict:
    return {"variables": [{"name": x} for x in names], "relations": relations}


def _coeff(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pbw(names, bracket) -> dict:
    """Relations X_j X_i - X_i X_j - bracket(i, j) for i < j (declaration order).

    The leading words are exactly the X_j X_i, so the normal words are the
    ordered monomials.
    """
    relations = []
    for j in range(len(names)):
        for i in range(j):
            rel = f"{names[j]}*{names[i]} - {names[i]}*{names[j]}"
            extra = bracket(i, j)
            if extra:
                rel += f" {extra}"
            relations.append(rel)
    return _presentation(names, relations)


def commutation(n: int) -> dict:
    return _pbw(_names(n), lambda i, j: "")


def q_commutation(n: int, rng: random.Random) -> dict:
    """x_j x_i = q_ij x_i x_j with seeded nonzero rational q_ij."""
    names = _names(n)
    relations = []
    for j in range(n):
        for i in range(j):
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            sign = "-" if q > 0 else "+"
            relations.append(f"{names[j]}*{names[i]} {sign} {_coeff(abs(q))}*{names[i]}*{names[j]}")
    return _presentation(names, relations)


def weyl(m: int) -> dict:
    """A_m on x1..xm, d1..dm: d_i x_i - x_i d_i = 1, all other pairs commute."""
    names = _names(m) + _names(m, "d")
    return _pbw(names, lambda i, j: "- 1" if j == i + m else "")


def weyl_central(m: int) -> dict:
    """A_m[t]: the Weyl algebra with one more, central generator t."""
    names = _names(m) + _names(m, "d") + ["t"]
    return _pbw(names, lambda i, j: "- 1" if j == i + m and j < 2 * m else "")


def heisenberg(m: int) -> dict:
    """p1..pm, q1..qm, z: [p_i, q_i] = z with z central."""
    names = _names(m, "p") + _names(m, "q") + ["z"]
    return _pbw(names, lambda i, j: "+ z" if i < m and j == i + m else "")


def sl2() -> dict:
    """U(sl2) on e < f < h: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return _presentation(["e", "f", "h"], ["f*e - e*f + h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"])


def pbw_omega(n: int) -> list[tuple]:
    return [(j, i) for j in range(n) for i in range(j)]


def monomial(words) -> dict:
    """The monomial algebra on x1, x2 with the given obstruction words."""
    names = _names(2)
    return _presentation(names, ["*".join(names[a] for a in w) for w in words])


def power_family(n: int) -> dict:
    """x2^n x1 = 2 x1 x2^n + x1; its only leading word is x2^n x1."""
    return _presentation(_names(2), [f"x2^{n}*x1 - 2*x1*x2^{n} - x1"])


def random_word(rng: random.Random, length: int) -> tuple:
    return tuple(rng.randrange(2) for _ in range(length))


def random_antichain(rng: random.Random) -> list[tuple]:
    words = {random_word(rng, rng.randint(2, 5)) for _ in range(rng.randint(1, 3))}
    return sorted(
        w for w in words
        if not any(v != w and _has_factor(w, v) for v in words)
    )


def _has_factor(word, factor) -> bool:
    k = len(factor)
    return any(word[i:i + k] == factor for i in range(len(word) - k + 1))


def draw(rng: random.Random, make, shape: str):
    """First two-letter obstruction set from ``make(rng)`` whose chain sets
    have ``shape``."""
    for _ in range(10_000):
        omega = make(rng)
        if oracle.chain_shape(omega, 2) == shape:
            return omega
    raise RuntimeError(f"no {shape} obstruction set drawn in 10000 tries")


def _analyze_op(label, data, omega, **expect) -> Op:
    weights = [v.get("weight", 1) for v in data["variables"]]
    return Op(
        "analyze", label,
        oracle.expectations(omega, weights, TRUNCATION, **expect),
        text=json.dumps(data),
    )


# ---------------------------------------------------------------------------
# decks

def pbw_deck(rng: random.Random) -> list[Op]:
    ops = []
    for n in range(8, 14):
        ops.append(_analyze_op(f"commutation({n})", commutation(n), pbw_omega(n), pbw_n=n))
        ops.append(_analyze_op(f"q-commutation({n})", q_commutation(n, rng), pbw_omega(n), pbw_n=n))
    for m in (4, 5, 6):
        ops.append(_analyze_op(f"weyl({m})", weyl(m), pbw_omega(2 * m), pbw_n=2 * m))
        ops.append(_analyze_op(f"heisenberg({m})", heisenberg(m), pbw_omega(2 * m + 1), pbw_n=2 * m + 1))
    ops.append(_analyze_op("weyl(6)[t]", weyl_central(6), pbw_omega(13), pbw_n=13))
    # Three small rings put the deck's median inside the n = 10 class, and
    # four 13-generator rings put the tail inside the n = 13 class.
    ops.append(_analyze_op("sl2", sl2(), pbw_omega(3), pbw_n=3))
    ops.append(_analyze_op("heisenberg(1)", heisenberg(1), pbw_omega(3), pbw_n=3))
    ops.append(_analyze_op("weyl(1)", weyl(1), pbw_omega(2), pbw_n=2))
    return ops


def long_words_deck(rng: random.Random) -> list[Op]:
    # Seeded words are drawn with thin chain sets, so the op stays in the
    # growth stage this workload loads; branching sets belong to ``hostile``,
    # where a hang is cut by the wall budget instead of stalling the run.
    ops = []
    for ell in range(8, 13):
        n = ell - 1
        ops.append(_analyze_op(f"power_family({n})", power_family(n), [(1,) * n + (0,)], exponential=True))
        ops.append(_analyze_op(f"x1^{ell}", monomial([(0,) * ell]), [(0,) * ell], exponential=True))
        word = draw(rng, lambda r: [random_word(r, ell)], "thin")
        ops.append(_analyze_op(f"word(l={ell})", monomial(word), word, exponential=True))
    return ops


SAMPLES = {
    # file -> (obstruction set, weights, ordered-monomial normal words)
    "commutative3.json": (pbw_omega(3), (1, 1, 1), True),
    "down_up.json": ([(0, 0, 1), (0, 1, 1)], (1, 1), False),
    "nilpotent.json": ([(0, 0)], (1,), False),
    "ore_plane.json": ([(1, 0)], (1, 1), True),
    "weighted_ore.json": ([(1, 0)], (1, 3), True),
}


def _cli_ops(rng, label, file, omega, weights, pbw: bool, text=None) -> list[Op]:
    expect = oracle.expectations(omega, weights, TRUNCATION)
    expect["pbw"] = pbw
    terms = rng.randint(4, 12)
    graph_argv = [["graph", file, "--which", which] + (["--dot"] if rng.random() < 0.5 else [])
                  for which in ("uf", "chains", "rees-chains")]
    argvs = [
        ["check-gb", file], ["growth", file], ["gldim", file],
        ["hilbert", file, "--terms", str(terms)], ["rees", file], ["pbw", file],
        *graph_argv,
        ["report", file, "--format", "json"],
        ["report", file, "--format", "text"],
        ["report", file, "--format", "dot-bundle"],
    ]
    return [Op("cli", f"{label} {argv[0]}", expect, text=text, argv=argv, file=file)
            for argv in argvs]


def cli_mix_deck(rng: random.Random) -> list[Op]:
    ops = []
    for name, (omega, weights, pbw) in SAMPLES.items():
        ops += _cli_ops(rng, name, f"presentations/{name}", omega, weights, pbw)
    for n in (2, 3, 4):
        file = f"q{n}.json"
        ops += _cli_ops(rng, f"q-commutation({n})", file, pbw_omega(n), (1,) * n, True,
                        json.dumps(q_commutation(n, rng)))
    for k in range(2):
        word = draw(rng, lambda r: [random_word(r, r.randint(3, 5))], "thin")
        file = f"word{k}.json"
        ops += _cli_ops(rng, f"word{k}", file, word, (1, 1), False, json.dumps(monomial(word)))
    # Two reports on a 6-generator ring are the deck's costliest ops, so the
    # p99 tail sits inside one input class instead of in the noise of many.
    text = json.dumps(q_commutation(6, rng))
    for fmt in ("json", "text"):
        ops.append(Op("cli", f"q-commutation(6) report {fmt}",
                      oracle.expectations(pbw_omega(6), (1,) * 6, TRUNCATION),
                      text=text, argv=["report", "q6.json", "--format", fmt], file="q6.json"))
    return ops


def hostile_deck(rng: random.Random) -> list[Op]:
    all_squares = [(0, 0), (0, 1), (1, 0), (1, 1)]
    x1_20 = [(0,) * 20]
    cases = [
        ("all-squares", all_squares),
        ("x1^20", x1_20),
        ("antichain-a", draw(rng, random_antichain, "branching")),
        ("antichain-b", draw(rng, random_antichain, "thin")),
        ("antichain-c", draw(rng, random_antichain, "thin")),
    ]
    ops = []
    for label, omega in cases:
        expect = {
            "hilbert": oracle.normal_word_counts(omega, (1, 1), TRUNCATION),
            # the chain counter would enumerate 2^19 tails for x1^20; a
            # single power x^k (k >= 2) has one chain per level, forever
            "gldim": "infinity" if omega is x1_20 else oracle.gldim(omega, 2),
        }
        for command in ("check-gb", "report"):
            op = Op("child", f"{label} {command}", expect,
                    argv=[command, f"{label}.json"], file=f"{label}.json",
                    text=json.dumps(monomial(omega)))
            ops.append(op)
    return ops


DECKS = {
    "pbw": pbw_deck,
    "long-words": long_words_deck,
    "cli-mix": cli_mix_deck,
    "hostile": hostile_deck,
}

# Whole decks a run always makes, so that the op count (and with it the
# tail percentile) is fixed per workload.
MIN_DECKS = {"pbw": 4, "long-words": 8, "cli-mix": 20, "hostile": 5}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's deck for ``seed``, in the order its ops run."""
    rng = random.Random(f"{workload}:{seed}")
    ops = DECKS[workload](rng)
    rng.shuffle(ops)
    return ops


def materialize(ops: list[Op], root: Path, workdir: Path) -> None:
    """Write the generated presentation files and point the ops at them.

    A file named without text is one of the repository's samples.
    """
    for op in ops:
        if op.file is None:
            continue
        if op.text is None:
            path = root / op.file
        else:
            path = workdir / op.file
            if not path.exists():
                path.write_text(op.text, encoding="utf-8")
        op.argv = [str(path) if a == op.file else a for a in op.argv]
