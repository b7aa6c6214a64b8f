"""What each subcommand runs: the stages it calls, and the exit codes their
faults give it.

A subcommand reads only the fields of the report that it prints, so only
their stages and cross-checks run; ``report`` reads every field, as
``analyze`` does.  A fault in a stage a subcommand does not run leaves its
exit code and its output as they are.
"""

import collections
import contextlib
import io
import sys

import pytest

import ncdim
import ncdim.chains
import ncdim.pipeline
import ncdim.rees
from ncdim import (
    AnalysisReport,
    GrowthClass,
    InputError,
    analyze,
    load_presentation,
    load_presentation_data,
    render_report,
)
from ncdim.cli import main
from test_golden import GOLDEN, INPUTS, VARIANTS
from test_rees import computed

BY_STEM = {path.stem: path for path in INPUTS}
DOWN_UP, COMMUTATIVE3, X1_CUBED = (
    str(BY_STEM[stem]) for stem in ("down_up", "commutative3", "x1_cubed")
)

# The twelve subcommand and format variants of the benchmark's `cli-mix`
# deck (`_cli_ops` in bench/workloads.py); `--dot` changes no stage.
CLI_MIX = {
    "check-gb": ["check-gb"],
    "growth": ["growth"],
    "gldim": ["gldim"],
    "hilbert": ["hilbert", "--terms", "8"],
    "rees": ["rees"],
    "pbw": ["pbw"],
    "graph-uf": ["graph", "--which", "uf"],
    "graph-chains": ["graph", "--which", "chains", "--dot"],
    "graph-rees-chains": ["graph", "--which", "rees-chains"],
    "report-json": ["report", "--format", "json"],
    "report-text": ["report", "--format", "text"],
    "report-dot-bundle": ["report", "--format", "dot-bundle"],
}

STAGES = ("automaton_growth", "build_chain_graph", "chain_sets", "hilbert_series",
          "tilde_basis", "rees_invariants", "build_ufnarovski")
NOTHING = (0, 0, 0, 0, 0, 0, 0)
# every stage of the base and of the Rees algebra, as analyze() runs them
EVERYTHING = (2, 2, 2, 2, 1, 1, 0)
# the Rees algebra checked against the base: the transfer checks read no
# Hilbert series
CHECKED_REES = (2, 2, 2, 0, 1, 1, 0)


def expected_stages(variant: str, applicable: bool, pbw: bool) -> tuple[int, ...]:
    """Calls per stage in STAGES order: what the variant prints needs."""
    return {
        "check-gb": NOTHING,
        "growth": (1, 0, 0, 0, 0, 0, 0),
        # the Rees gl.dim is printed only where the exact transfer applies
        "gldim": CHECKED_REES if applicable else (1, 1, 1, 0, 0, 0, 0),
        "hilbert": (0, 1, 1, 1, 0, 0, 0),
        # of the two Hilbert series, the Rees one only
        "rees": (2, 2, 2, 1, 1, 1, 0),
        # "yes" prints the Rees gl.dim, cross-checked
        "pbw": CHECKED_REES if pbw else NOTHING,
        "graph-uf": (0, 0, 0, 0, 0, 0, 1),
        "graph-chains": (0, 1, 0, 0, 0, 0, 0),
        "graph-rees-chains": CHECKED_REES,
        "report-json": EVERYTHING,
        "report-text": EVERYTHING,
        "report-dot-bundle": EVERYTHING[:-1] + (1,),
    }[variant]


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls per stage, counted in every ncdim namespace that binds it."""
    counts = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "ncdim" or name.startswith("ncdim.")]
    for name in STAGES:
        original = getattr(ncdim, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestStagesPerSubcommand:
    # down_up: the exact transfer applies, not PBW; commutative3: PBW;
    # x1^3: exponential growth, so the transfer does not apply
    INPUTS = {"down_up": (DOWN_UP, True, False),
              "commutative3": (COMMUTATIVE3, True, True),
              "x1_cubed": (X1_CUBED, False, False)}

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("variant", list(CLI_MIX))
    def test_stage_calls(self, stage_calls, variant, name):
        path, applicable, pbw = self.INPUTS[name]
        command, *options = CLI_MIX[variant]
        assert run([command, path, *options])[0] == 0
        calls = tuple(stage_calls[stage] for stage in STAGES)
        assert calls == expected_stages(variant, applicable, pbw)

    @pytest.mark.parametrize("fmt", ["json", "text", "dot-bundle"])
    def test_report_runs_what_analyze_and_render_run(self, stage_calls, fmt):
        render_report(analyze(load_presentation(DOWN_UP)), fmt)
        in_process = dict(stage_calls)
        stage_calls.clear()
        assert run(["report", DOWN_UP, "--format", fmt])[0] == 0
        assert dict(stage_calls) == in_process

    def test_hilbert_counts_one_chain_set_on_the_antichain(self, stage_calls, tmp_path):
        # the antichain {x1x1x2x1, x1x2x1x1x1, x1x2x2x2} has infinite chain
        # sets, counted to N = 1600; the Rees side would count them again
        path = tmp_path / "antichain.json"
        path.write_text('{"variables": [{"name": "x1"}, {"name": "x2"}], "relations": '
                        '["x1^2*x2*x1", "x1*x2*x1^3", "x1*x2^3"]}', encoding="utf-8")
        code, out, _ = run(["hilbert", str(path), "--terms", "1600"])
        assert code == 0 and out.startswith("closed form: none")
        assert stage_calls["chain_sets"] == 1
        assert (stage_calls["tilde_basis"], stage_calls["rees_invariants"]) == (0, 0)

    def test_warnings_build_no_rees_basis(self, stage_calls):
        # T is a dead letter, and the homogenizer the warnings name is T_
        report = AnalysisReport(load_presentation_data(
            {"variables": [{"name": "x"}, {"name": "T"}], "relations": ["T"]}))
        assert "their T_-commutators are omitted" in report.warnings[1]
        # no stage ran, tilde_basis included
        assert tuple(stage_calls[stage] for stage in STAGES) == NOTHING


def swapped_homogenize(path):
    """The Rees fault of test_rees: the first two homogenized relations
    trade places, so Rees relation 1 has another leading word."""
    homogenized = ncdim.rees.homogenize
    elements = list(load_presentation(path).elements)
    trade = {0: 1, 1: 0}

    def swapped(g, order):
        k = elements.index(g)
        return homogenized(elements[trade.get(k, k)], order)

    return swapped


def wrong_rees_growth(*args, _original=ncdim.pipeline.rees_invariants):
    """A Rees record of polynomial growth of degree 99, which matches no base."""
    return computed(_original(*args), growth=GrowthClass(False, 99))


def over_cap(graph, truncation):
    raise InputError("chain enumeration exceeded the level cap")


# fault -> (target, message); each fault is a computation bug that one
# stage's result or its cross-check exposes
FAULTS = {
    "swapped homogenize": (None, "Rees relation 1 has leading word"),
    "Rees growth": ((ncdim.pipeline, "rees_invariants", wrong_rees_growth),
                    "Rees growth"),
    "chain cap": ((ncdim.chains, "chain_sets", over_cap), "exceeded the level cap"),
}


def reads_rees(variant: str, report) -> bool:
    if variant in ("gldim", "pbw"):
        return report.applicable if variant == "gldim" else report.pbw
    return variant == "rees" or variant.startswith(("graph-rees-chains", "report-"))


def reads_chain_sets(variant: str, report) -> bool:
    if variant == "pbw":
        return report.pbw
    return variant in ("gldim", "hilbert") or reads_rees(variant, report)


class TestExitCodesPerSubcommand:
    """A subcommand exits 2 or 4 for a fault in a stage it runs, and with
    the golden output for one it does not run."""

    CASES = [(fault, path.stem, variant)
             for fault in sorted(FAULTS)
             for path in INPUTS
             # swapping needs two relations
             if fault != "swapped homogenize" or len(load_presentation(path)) >= 2
             for variant in VARIANTS]

    @pytest.mark.parametrize("fault,stem,variant", CASES,
                             ids=[" ".join(case) for case in CASES])
    def test_exit_code(self, fault, stem, variant, monkeypatch):
        path = BY_STEM[stem]
        report = analyze(load_presentation(path))
        target, message = FAULTS[fault]
        if fault == "swapped homogenize":
            target = (ncdim.rees, "homogenize", swapped_homogenize(path))
        monkeypatch.setattr(*target)
        runs = (reads_chain_sets if fault == "chain cap" else reads_rees)(variant, report)
        command, *options = VARIANTS[variant]
        code, out, err = run([command, str(path), *options])
        if runs:
            assert (code, out) == (2 if fault == "chain cap" else 4, "")
            assert message in err
        else:
            assert (code, err) == (0, "")
            assert out.encode("utf-8") == (GOLDEN / stem / f"{variant}.out").read_bytes()
