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
    AnalysisReport,
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


def _graph_lines(graph) -> list[str]:
    text, pairs = vertex_names(graph), graph.pairs
    lines = [f"vertices ({len(graph.vertices)}):"]
    lines += ["  " + text[v] for v in graph.vertices]
    lines.append(f"edges ({len(pairs)}):")
    lines += [f"  {text[src]} -> {text[dst]}" for src, dst in pairs]
    return lines


def _run(args) -> str:
    """The output of the subcommand.  It reads only the fields of the
    report that it prints, so only their stages and cross-checks run; the
    output is returned whole, so a failing stage prints nothing."""
    basis = load_presentation(args.file)
    alphabet = basis.order.alphabet

    if args.command == "check-gb":
        result = ensure_verified(basis)
        return (
            f"ok: {len(basis)} relations verified "
            f"({result.checked} overlap ambiguities reduce to zero)\n"
        )

    terms = getattr(args, "terms", DEFAULT_TRUNCATION)
    check_truncation(terms, "--terms")
    if args.command == "report":
        return render_report(analyze(basis, truncation=terms), args.format).decode("utf-8")
    report = AnalysisReport(basis, terms)
    lines: list[str] = []

    if args.command == "growth":
        growth = report.monomial.growth
        lines.append("growth: " + fmt_growth(growth))
        if growth.exponential:
            window, *loops = growth.witness
            shared = word_str(window, alphabet)
            for k, loop in enumerate(loops, 1):
                lines.append(f"  cycle {k} through {shared}: {fmt_cycle(window, loop, alphabet)}")

    elif args.command == "gldim":
        lines.append("gl.dim of the monomial algebra: " + fmt_dim(report.monomial.gldim))
        if report.applicable:
            lines.append(f"gl.dim of the associated graded algebra: {report.gldim_assoc_graded}")
            lines.append(f"gl.dim of the Rees algebra: {report.rees.gldim}")
        else:
            lines.append("exact transfer not applicable "
                         "(needs polynomial growth and finite global dimension)")

    elif args.command == "hilbert":
        closed, coefficients = fmt_hilbert(report.monomial.hilbert)
        lines.append(f"closed form: {closed}")
        lines.append(f"coefficients: {coefficients}")

    elif args.command == "rees":
        rees = report.rees
        lines.append("relations:")
        lines += ["  " + g for g in fmt_rees_relations(report)]
        lines.append("growth: " + fmt_growth(rees.growth))
        lines.append("gl.dim: " + fmt_dim(rees.gldim))
        closed, coefficients = fmt_hilbert(rees.hilbert)
        if rees.hilbert.closed_form:
            lines.append(f"hilbert: {closed}")
        lines.append(f"coefficients: {coefficients}")

    elif args.command == "pbw":
        if report.pbw:
            n = alphabet.n
            lines.append("yes: normal words are the ordered monomials")
            lines.append(f"gl.dim = {n}, Rees gl.dim = {n + 1} (cross-checked)")
        else:
            lines.append("no")

    elif args.command == "graph":
        graph = report_graph(report, args.which)
        if args.dot:
            return dot_digraph(DOT_NAMES[args.which], graph)
        lines = _graph_lines(graph)

    else:
        raise InputError(f"unknown command {args.command!r}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = _run(args)
    except GroebnerVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check violated: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
