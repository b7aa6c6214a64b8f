"""Command-line interface.

Exit codes: 0 = completed, 2 = input or validation error, 3 = the candidate
basis failed Groebner verification (witness printed), 4 = an internal
cross-check was violated.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import CrossCheckError, GroebnerVerificationError, InputError
from .chains import DEFAULT_TRUNCATION, check_truncation
from .pipeline import (
    DOT_NAMES,
    analyze,
    fmt_cycle,
    fmt_dim,
    fmt_growth,
    fmt_hilbert,
    fmt_rees_relations,
    load_presentation,
    render_report,
    report_graph,
)
from .render import dot_digraph, vertex_names, word_str
from .rewrite import ensure_verified


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves no state in the parser, and
    help, usage and errors go to the ``sys.stdout``/``sys.stderr`` of the call."""
    parser = argparse.ArgumentParser(
        prog="ncdim",
        description=(
            "Growth, global dimension, and Hilbert series of an algebra "
            "presented by a finite Groebner basis"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="presentation file (JSON)")
        return p

    add("check-gb", "verify the candidate basis by the overlap criterion")
    add("growth", "growth class of the monomial algebra")
    add("gldim", "global dimensions (monomial, associated graded, Rees)")
    p = add("hilbert", "Hilbert series (closed form and truncated expansion)")
    p.add_argument("--terms", type=int, default=DEFAULT_TRUNCATION,
                   help="truncation degree (default %(default)s)")
    add("rees", "Rees algebra presentation and invariants")
    add("pbw", "test for ordered-monomial (PBW) normal words")
    p = add("graph", "emit one of the graphs")
    p.add_argument("--which", choices=list(DOT_NAMES), default="uf")
    p.add_argument("--dot", action="store_true", help="DOT output instead of a listing")
    p = add("report", "full analysis report")
    p.add_argument("--format", choices=["json", "text", "dot-bundle"], default="json")
    return parser


def _print_graph(graph) -> None:
    text, pairs = vertex_names(graph), graph.pairs
    print(f"vertices ({len(graph.vertices)}):")
    for v in graph.vertices:
        print("  " + text[v])
    print(f"edges ({len(pairs)}):")
    for src, dst in pairs:
        print(f"  {text[src]} -> {text[dst]}")


def _run(args) -> int:
    basis = load_presentation(args.file)
    alphabet = basis.order.alphabet

    if args.command == "check-gb":
        result = ensure_verified(basis)
        print(
            f"ok: {len(basis)} relations verified "
            f"({result.checked} overlap ambiguities reduce to zero)"
        )
        return 0

    terms = getattr(args, "terms", DEFAULT_TRUNCATION)
    check_truncation(terms, "--terms")
    report = analyze(basis, truncation=terms)

    if args.command == "growth":
        print("growth: " + fmt_growth(report.monomial.growth))
        if report.monomial.growth.exponential:
            window, *loops = report.monomial.growth.witness
            shared = word_str(window, alphabet)
            for k, loop in enumerate(loops, 1):
                print(f"  cycle {k} through {shared}: {fmt_cycle(window, loop, alphabet)}")
        return 0

    if args.command == "gldim":
        print("gl.dim of the monomial algebra: " + fmt_dim(report.monomial.gldim))
        if report.applicable:
            print(f"gl.dim of the associated graded algebra: {report.gldim_assoc_graded}")
            print(f"gl.dim of the Rees algebra: {report.rees.gldim}")
        else:
            print("exact transfer not applicable "
                  "(needs polynomial growth and finite global dimension)")
        return 0

    if args.command == "hilbert":
        closed, coefficients = fmt_hilbert(report.monomial.hilbert)
        print(f"closed form: {closed}")
        print(f"coefficients: {coefficients}")
        return 0

    if args.command == "rees":
        print("relations:")
        for g in fmt_rees_relations(report):
            print("  " + g)
        print("growth: " + fmt_growth(report.rees.growth))
        print("gl.dim: " + fmt_dim(report.rees.gldim))
        closed, coefficients = fmt_hilbert(report.rees.hilbert)
        if report.rees.hilbert.closed_form:
            print(f"hilbert: {closed}")
        print(f"coefficients: {coefficients}")
        return 0

    if args.command == "pbw":
        if report.pbw:
            n = alphabet.n
            print("yes: normal words are the ordered monomials")
            print(f"gl.dim = {n}, Rees gl.dim = {n + 1} (cross-checked)")
        else:
            print("no")
        return 0

    if args.command == "graph":
        graph = report_graph(report, args.which)
        if args.dot:
            print(dot_digraph(DOT_NAMES[args.which], graph), end="")
        else:
            _print_graph(graph)
        return 0

    if args.command == "report":
        sys.stdout.write(render_report(report, args.format).decode("utf-8"))
        return 0

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except GroebnerVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
