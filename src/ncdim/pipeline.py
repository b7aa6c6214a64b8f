"""Presentation loading, the analysis pipeline, and report rendering.

The pipeline follows one fixed procedure: verify the candidate basis, take
the obstruction set from the leading words, classify growth, compute chain
sets / global dimension / Hilbert series of the monomial algebra, build and
verify the Rees basis, and finally decide whether the exact transfer theorems
apply (polynomial growth and finite global dimension) or only the generic
inequality chain can be reported.  :class:`AnalysisReport` runs each stage
when its result is first read, so a caller pays only for what it reads;
:func:`analyze` reads everything.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode

from . import chains
from .chains import (
    DEFAULT_TRUNCATION,
    ChainGraph,
    ChainSets,
    HilbertSeries,
    Invariants,
    build_chain_graph,
    check_truncation,
    product_form_decomposition,
)
from .errors import CrossCheckError, InputError
from .freealg import (
    Alphabet,
    MonomialOrder,
    Poly,
    Record,
    Word,
    leading_homogeneous,
    parse_polynomial,
)
from .growth import GrowthClass, UfnarovskiGraph, build_ufnarovski
from .render import denominator_str, dot_digraph, num_str, poly_str, word_str
from .rewrite import GroebnerBasis, ensure_verified
from .rees import (
    ReesInvariants,
    check_associated_graded,
    check_transfer,
    rees_invariants,
)


def load_presentation_data(data) -> GroebnerBasis:
    """The candidate basis of decoded JSON, still unverified; raises
    InputError with details."""
    if not isinstance(data, dict):
        raise InputError("presentation must be a JSON object")
    allowed = {"variables", "order", "relations"}
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    variables = data.get("variables")
    if not isinstance(variables, list) or not variables:
        raise InputError("'variables' must be a nonempty list")
    names: list[str] = []
    weights: list[int] = []
    for k, entry in enumerate(variables):
        if not isinstance(entry, dict):
            raise InputError(f"variable {k + 1} must be an object")
        extra = set(entry) - {"name", "weight"}
        if extra:
            raise InputError(
                f"variable {k + 1} has unknown keys: {', '.join(sorted(extra))}"
            )
        name = entry.get("name")
        if not isinstance(name, str):
            raise InputError(f"variable {k + 1} needs a string 'name'")
        weight = entry.get("weight", 1)
        names.append(name)
        weights.append(weight)
    alphabet = Alphabet(tuple(names), tuple(weights))

    order_data = data.get("order", {})
    if not isinstance(order_data, dict):
        raise InputError("'order' must be an object")
    extra = set(order_data) - {"kind", "precedence"}
    if extra:
        raise InputError(f"'order' has unknown keys: {', '.join(sorted(extra))}")
    kind = order_data.get("kind", "grlex")
    precedence_names = order_data.get("precedence")
    if precedence_names is None:
        precedence = None
    else:
        if not (isinstance(precedence_names, list)
                and all(isinstance(n, str) for n in precedence_names)):
            raise InputError("'precedence' must list variable names, smallest first")
        precedence = tuple(alphabet.index(n) for n in precedence_names)
    order = MonomialOrder(alphabet, kind, precedence)

    relations_data = data.get("relations", [])
    if not isinstance(relations_data, list):
        raise InputError("'relations' must be a list of strings")
    relations: list[Poly] = []
    for k, text in enumerate(relations_data):
        if not isinstance(text, str):
            raise InputError(f"relation {k + 1} must be a string")
        try:
            relations.append(parse_polynomial(text, alphabet))
        except InputError as exc:
            raise InputError(f"relation {k + 1}: {exc}") from None
    return GroebnerBasis(relations, order)


def load_presentation(path) -> GroebnerBasis:
    try:
        with open(path, encoding="utf-8") as file:
            raw = file.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests JSON too deeply to decode") from None
    except ValueError:  # over Python's limit on integer-string conversion
        raise InputError(f"{path} has an integer literal too long to decode") from None
    return load_presentation_data(data)


def pbw_check(basis: GroebnerBasis) -> bool:
    """True iff the obstructions are exactly {X_j X_i : i < j} (declaration order),
    so the normal words are the ordered monomials X_1^a1 ... X_n^an."""
    ensure_verified(basis)
    n = basis.order.alphabet.n
    expected = {(j, i) for j in range(n) for i in range(j)}
    return set(basis.omega.words) == expected


class AnalysisReport(Record):
    """The verified basis and the records read off it.

    Building the report checks the truncation and then verifies the basis,
    so those errors come first.  Every other field is computed the first
    time it is read, from the fields it needs, and kept:

    - ``growth``, of the monomial algebra on Omega, from Omega's automaton
      alone, with no chain graph;
    - ``graph``, the chain graph of Omega; ``sets``, its chain sets counted
      to ``truncation``; ``hilbert``, the Hilbert series read off them;
      ``monomial``, the three invariants as one record;
    - ``lh_basis``, the leading homogeneous parts lh(G);
    - ``rees``, the Rees invariants, compared with ``monomial`` and
      ``lh_basis`` when first read;
    - ``applicable`` and ``pbw``, each with its cross-check.

    A failing stage or cross-check raises at the read that runs it, and
    again at the next read.  :func:`analyze` reads every field; equality
    and repr read the records they name.
    """

    # __dict__ holds what the cached properties cache
    __slots__ = ("basis", "truncation", "__dict__")
    _compared = ("basis", "monomial", "rees", "lh_basis", "pbw")
    __hash__ = None

    def __init__(self, basis: GroebnerBasis, truncation: int = DEFAULT_TRUNCATION):
        check_truncation(truncation)
        ensure_verified(basis)
        object.__setattr__(self, "basis", basis)  # verified; it holds Omega and the overlap count
        object.__setattr__(self, "truncation", truncation)

    # The base stages are looked up in chains, where monomial_invariants
    # finds them for the Rees side, so both sides run the same functions.

    @cached_property
    def growth(self) -> GrowthClass:
        return chains.automaton_growth(self.basis.omega)

    @cached_property
    def graph(self) -> ChainGraph:
        return build_chain_graph(self.basis.omega)

    @cached_property
    def sets(self) -> ChainSets:
        return chains.chain_sets(self.graph, self.truncation)

    @cached_property
    def hilbert(self) -> HilbertSeries:
        return chains.hilbert_series(self.sets)

    @cached_property
    def monomial(self) -> Invariants:
        """Of the monomial algebra on Omega."""
        return Invariants(self.growth, self.sets, self.hilbert)

    @cached_property
    def lh_basis(self) -> tuple[Poly, ...]:
        alphabet = self.basis.order.alphabet
        return tuple(leading_homogeneous(g, alphabet) for g in self.basis.elements)

    @cached_property
    def rees(self) -> ReesInvariants:
        """Checked against the base: the transfer identities, and T = 0
        giving lh(G)."""
        monomial, lh_basis = self.monomial, self.lh_basis
        rees = rees_invariants(self.basis, self.truncation)
        check_transfer(rees, monomial)
        check_associated_graded(rees.basis, lh_basis)
        return rees

    @cached_property
    def applicable(self) -> bool:
        """Exactness transfers: polynomial growth and finite global dimension."""
        growth, gldim = self.growth, self.sets.gldim
        applicable = growth.is_polynomial and gldim is not None
        # the equality below is a theorem, so a mismatch means a computation bug
        if applicable and growth.degree != gldim:
            raise CrossCheckError(
                f"polynomial growth degree {growth.degree} differs from the "
                f"monomial global dimension {gldim}"
            )
        return applicable

    @cached_property
    def pbw(self) -> bool:
        """Ordered-monomial normal words; when true, the global dimensions
        are checked to be n and n + 1."""
        if not pbw_check(self.basis):
            return False
        n = self.basis.order.alphabet.n
        if self.sets.gldim != n or self.rees.gldim != n + 1:
            raise CrossCheckError(
                "ordered-monomial (PBW) presentations must have global "
                f"dimension {n} and Rees global dimension {n + 1}"
            )
        return True

    @property
    def gldim_assoc_graded(self) -> int | None:
        """None = not determined exactly."""
        return self.sets.gldim if self.applicable else None

    @property
    def product_form(self) -> list[int] | None:
        if not (self.applicable and self.hilbert.closed_form):
            return None
        return product_form_decomposition(self.hilbert.denominator, self.growth.degree)

    @property
    def warnings(self) -> tuple[str, ...]:
        alphabet = self.basis.order.alphabet
        dead = ", ".join(alphabet.names[i] for i in self.basis.omega.dead_letters)
        if not dead:
            return ()
        order = self.rees.basis.order
        t_name = order.alphabet.names[order.homogenizer]
        return (
            f"letters {dead} are obstructions; chain invariants are computed "
            "over the remaining letters",
            f"letters {dead} are leading words; their {t_name}-commutators are "
            "omitted (they lie in the ideal already)",
        )


def analyze(basis: GroebnerBasis, truncation: int = DEFAULT_TRUNCATION) -> AnalysisReport:
    """The report with every field read, each stage once on the results of
    the earlier ones; raises on a truncation outside 0..MAX_TRUNCATION before
    any stage runs, then on verification or cross-check failure."""
    report = AnalysisReport(basis, truncation)
    # the order in which the stages and checks have always run, so the
    # first failure is the same one
    for field in ("graph", "monomial", "lh_basis", "rees", "applicable", "pbw"):
        getattr(report, field)
    return report


# ---------------------------------------------------------------------------
# rendering

def _dim_json(value: int | None):
    return "infinity" if value is None else value


def _growth_json(growth: GrowthClass) -> dict:
    return {
        "class": "exponential" if growth.exponential else "polynomial",
        "degree": growth.degree,
    }


def _hilbert_json(h: HilbertSeries) -> dict:
    return {
        "denominator": list(h.denominator) if h.denominator is not None else None,
        "coefficients": list(h.coefficients),
        "closed_form": h.closed_form,
    }


def _chains_json(sets: ChainSets) -> dict:
    chains = {
        "levels": [list(texts) for texts in sets.listing.texts],
        "finite": sets.finite,
    }
    if sets.truncated:
        chains["truncated"] = True
    return chains


def report_to_dict(report: AnalysisReport) -> dict:
    alphabet, monomial = report.basis.order.alphabet, report.monomial
    return {
        "gb_verified": True,  # analyze() raises on an unverified basis
        "omega": [word_str(w, alphabet) for w in report.basis.omega.words],
        "growth": _growth_json(monomial.growth),
        "gldim_monomial": _dim_json(monomial.gldim),
        "applicable": report.applicable,
        "gldim_assoc_graded": report.gldim_assoc_graded,
        "rees": {
            "growth": _growth_json(report.rees.growth),
            "gldim": _dim_json(report.rees.gldim),
            "hilbert": _hilbert_json(report.rees.hilbert),
        },
        "hilbert": _hilbert_json(monomial.hilbert),
        "product_form": report.product_form,
        "chains": _chains_json(monomial.sets),
        "warnings": list(report.warnings),
    }


# Line helpers shared by the text report and the CLI subcommands.

def fmt_dim(value: int | None) -> str:
    return "infinite" if value is None else str(value)


def fmt_growth(growth: GrowthClass) -> str:
    if growth.exponential:
        return "exponential"
    return f"polynomial of degree {growth.degree}"


def fmt_hilbert(h: HilbertSeries) -> tuple[str, str]:
    """The closed form (or why there is none) and the coefficient list."""
    if not h.closed_form:
        closed = "none (chain sets do not vanish)"
    elif h.denominator == (1,):  # every letter is an obstruction: the series is 1
        closed = "1"
    else:
        closed = f"1/({denominator_str(h.denominator)})"
    return closed, ", ".join(map(num_str, h.coefficients))


def fmt_cycle(window: Word, loop: Word, alphabet: Alphabet) -> str:
    """A witness cycle, the letters ``loop`` read from ``window``, as its
    vertex path, e.g. ``x1->x2->x1``."""
    word, size = window + loop, len(window)
    return "->".join(word_str(word[i : i + size], alphabet) for i in range(len(loop) + 1))


def fmt_rees_relations(report: AnalysisReport) -> list[str]:
    basis = report.rees.basis
    return [poly_str(g, basis.order) for g in basis.elements]


def _hilbert_lines(h: HilbertSeries) -> list[str]:
    closed, coefficients = fmt_hilbert(h)
    return [f"  closed form: {closed}", f"  coefficients: {coefficients}"]


def _text_report(report: AnalysisReport) -> str:
    basis, monomial = report.basis, report.monomial
    alphabet = basis.order.alphabet
    lines: list[str] = []
    lines.append(
        "Groebner basis: verified "
        f"({len(basis)} relations, {basis.verification.checked} overlaps checked)"
    )
    lines.append(
        "obstructions: "
        + (", ".join(word_str(w, alphabet) for w in basis.omega.words) or "none")
    )
    lines.append("")
    lines.append("(1) growth of the monomial algebra: " + fmt_growth(monomial.growth))
    if monomial.growth.exponential:
        window, p, q = monomial.growth.witness
        lines.append(
            f"    witness: two cycles through {word_str(window, alphabet)}: "
            f"{fmt_cycle(window, p, alphabet)} / {fmt_cycle(window, q, alphabet)}"
        )
    lines.append(
        "(2) global dimension of the monomial algebra: "
        + fmt_dim(monomial.gldim)
    )
    sets = monomial.sets
    for i, texts in enumerate(sets.listing.texts):
        lines.append(f"    C_{i} = {{" + ", ".join(texts) + "}")
    if sets.truncated:
        lines.append(
            f"    ... listing stopped after {len(sets.levels)} levels, at "
            f"{sum(map(len, sets.levels))} chain words"
        )
    elif sets.finite:
        lines.append(f"    C_{len(sets.levels)} = {{}}")
    else:
        lines.append(
            f"    ... not vanishing (enumeration stopped after "
            f"{len(sets.levels)} levels)"
        )
    lines.append("(3) conclusions:")
    if report.applicable:
        lines.append(
            "    polynomial growth and finite global dimension hold, so the "
            "exact transfer applies:"
        )
        lines.append(
            f"    gl.dim of the associated graded algebra = {report.gldim_assoc_graded}"
        )
        lines.append(f"    gl.dim of the Rees algebra = {report.rees.gldim}")
    else:
        bound = (
            f" <= {monomial.gldim}" if monomial.gldim is not None else ""
        )
        lines.append(
            "    exact transfer not available; only the generic bounds hold:"
        )
        lines.append(
            "    gl.dim(algebra) <= gl.dim(associated graded) <= "
            "gl.dim(monomial algebra)" + bound
        )
        if monomial.gldim is not None:
            lines.append(
                f"    gl.dim(Rees algebra) <= {monomial.gldim + 1}"
            )
    lines.append("")
    lines.append("Hilbert series of the monomial algebra:")
    lines.extend(_hilbert_lines(monomial.hilbert))
    product_form = report.product_form
    if product_form is not None:
        lines.append(
            "  product form: "
            + (" ".join(f"(1 - t^{e})" if e != 1 else "(1 - t)" for e in product_form) or "1")
        )
    else:
        lines.append("  product form: none")
    lines.append("")
    lines.append("associated graded relations (leading homogeneous parts):")
    for g in report.lh_basis:
        lines.append("  " + poly_str(g, basis.order))
    lines.append("")
    order = report.rees.basis.order
    t_name = order.alphabet.names[order.homogenizer]
    lines.append(f"Rees algebra (homogenized presentation, {t_name} central of weight 1):")
    lines.extend("  " + g for g in fmt_rees_relations(report))
    lines.append("  growth: " + fmt_growth(report.rees.growth))
    lines.append("  global dimension: " + fmt_dim(report.rees.gldim))
    lines.extend(_hilbert_lines(report.rees.hilbert))
    lines.append("")
    lines.append(
        "ordered-monomial (PBW) normal words: " + ("yes" if report.pbw else "no")
    )
    if report.warnings:
        lines.append("")
        lines.append("warnings:")
        for w in report.warnings:
            lines.append("  - " + w)
    return "\n".join(lines) + "\n"


# The graphs a report can show, each with its DOT name.
DOT_NAMES = {"uf": "growth", "chains": "chains", "rees-chains": "rees_chains"}


def report_graph(report: AnalysisReport, which: str) -> UfnarovskiGraph | ChainGraph:
    """The graph ``which`` (a key of DOT_NAMES); the Ufnarovski graph is
    built here, on demand, since no invariant needs it."""
    if which == "uf":
        return build_ufnarovski(report.basis.omega)
    if which == "chains":
        return report.graph
    if which == "rees-chains":
        return report.rees.graph
    raise ValueError(f"unknown graph {which!r}")


def _write_json(obj, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``obj`` as ``json.dumps(obj, indent=2)``
    lays it out; ``indent`` is the newline and spaces that open a line at
    the depth of ``obj``.  Only the report's schema is handled: dicts with
    string keys, lists, strings, ints, bools and None.  Strings go through
    the C string encoder of the json module, and ints through
    :func:`num_str`, so a number too long to print raises InputError."""
    if obj.__class__ is str:
        out.append(_encode(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj.__class__ is int:
        out.append(num_str(obj))
    elif obj.__class__ is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        opener = "{" + inner
        for key, value in obj.items():
            out.append(opener + _encode(key) + ": ")
            _write_json(value, inner, out)
            opener = "," + inner
        out.append(indent + "}")
    elif obj.__class__ is list:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        try:  # a list of strings, such as one chain level, in one join
            out.append("[" + inner + ("," + inner).join(map(_encode, obj)) + indent + "]")
            return
        except TypeError:  # an item is not a string
            pass
        opener = "[" + inner
        for value in obj:
            out.append(opener)
            _write_json(value, inner, out)
            opener = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"{obj.__class__.__name__} is not in the report's JSON schema")


def render_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        out: list[str] = []
        _write_json(report_to_dict(report), "\n", out)
        out.append("\n")
        return "".join(out).encode("ascii")
    if fmt == "text":
        return _text_report(report).encode("utf-8")
    if fmt == "dot-bundle":
        dots = (dot_digraph(name, report_graph(report, w)) for w, name in DOT_NAMES.items())
        return "\n".join(dots).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
