"""Command-line interface: subcommands, output, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncdim.cli
import ncdim.growth
import ncdim.pipeline
from ncdim import (
    GroebnerBasis,
    InputError,
    analyze,
    load_presentation,
    load_presentation_data,
    report_to_dict,
)
from ncdim.chains import MAX_LISTED_CHAINS, MAX_TRUNCATION
from ncdim.cli import main
from ncdim.freealg import MAX_WEIGHT
from ncdim.pipeline import DOT_NAMES, fmt_cycle, report_graph
from ncdim.render import dot_digraph, word_str

SAMPLES = Path(__file__).resolve().parent.parent / "presentations"
DOWN_UP = str(SAMPLES / "down_up.json")
NILPOTENT = str(SAMPLES / "nilpotent.json")
COMMUTATIVE3 = str(SAMPLES / "commutative3.json")


def write(tmp_path, data, name="pres.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def free2(tmp_path) -> str:
    return write(
        tmp_path,
        {"variables": [{"name": "x1"}, {"name": "x2"}], "relations": []},
    )


def two_letters(tmp_path, relation: str) -> str:
    return write(
        tmp_path,
        {"variables": [{"name": "x1"}, {"name": "x2"}], "relations": [relation]},
    )


TOO_LONG_TO_PRINT = (
    "error: a result has a number too long to print (over Python's limit of "
    f"{sys.get_int_max_str_digits()} digits for integer-to-text conversion)\n"
)

# x1^20 and the power family at n = 40 have 2^19 and 2^40 windows.
LONG_OBSTRUCTIONS = ["x1^20", "x2^40*x1 - 2*x1*x2^40 - x1"]


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["check-gb", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert out == (
            "ok: 2 relations verified (1 overlap ambiguities reduce to zero)\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        assert main(["growth", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["growth", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["check-gb", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text: ")

    def test_json_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["check-gb", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} nests JSON too deeply to decode\n"

    def test_json_integer_too_long(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        path.write_text('{"variables": [{"name": "x", "weight": ' + "9" * 5000 + "}]}",
                        encoding="utf-8")
        assert main(["check-gb", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} has an integer literal too long to decode\n"
        )

    @pytest.mark.parametrize("relation,position", [("9" * 5000 + "*x1", 0),
                                                   ("x1^" + "9" * 5000, 3)])
    def test_relation_integer_too_long(self, relation, position, tmp_path, capsys):
        assert main(["check-gb", two_letters(tmp_path, relation)]) == 2
        assert capsys.readouterr().err == (
            "error: relation 1: integer of 5000 digits is too long "
            f"(at position {position})\n"
        )

    @pytest.mark.parametrize("relation,position", [("x1^1000000000000", 3),
                                                   ("x1^600*x1^600", 10)])
    def test_relation_word_too_long(self, relation, position, tmp_path, capsys):
        # refused at the token, before the word is built
        assert main(["check-gb", two_letters(tmp_path, relation)]) == 2
        assert capsys.readouterr().err == (
            "error: relation 1: word longer than 1024 letters "
            f"(at position {position})\n"
        )

    def test_precedence_entry_that_is_not_a_name(self, tmp_path, capsys):
        # JSON true is no variable name, even beside a variable named "True"
        path = write(tmp_path, {
            "variables": [{"name": "True"}, {"name": "y"}],
            "order": {"precedence": [True, "y"]},
            "relations": ["y*True - True*y"],
        })
        assert main(["check-gb", path]) == 2
        assert capsys.readouterr().err == (
            "error: 'precedence' must list variable names, smallest first\n"
        )

    def test_relation_word_at_the_bound(self, tmp_path, capsys):
        assert main(["check-gb", two_letters(tmp_path, "x1^1024")]) == 0
        assert capsys.readouterr().out == (
            "ok: 1 relations verified (1023 overlap ambiguities reduce to zero)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["check-gb"], ["report"], ["hilbert"]],
        ids=["check-gb", "report", "hilbert"],
    )
    def test_result_number_too_long_to_print(self, argv, tmp_path, capsys):
        # not a basis: the remainder (C^2 - 1)*y*y that the exit-3 message
        # prints has 5000 digits, over Python's 4300-digit conversion limit
        path = write(tmp_path, {
            "variables": [{"name": "x"}, {"name": "y"}],
            "relations": [f"y*x - {'7' * 2500}*x*y", "x*x - y"],
        })
        assert main([argv[0], path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == TOO_LONG_TO_PRINT

    def test_hilbert_coefficient_too_long_to_print(self, tmp_path, capsys):
        # the free algebra on 10 letters has 10^d words of degree d
        path = write(tmp_path, {"variables": [{"name": f"x{i}"} for i in range(10)]})
        assert main(["hilbert", path, "--terms", "4400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == TOO_LONG_TO_PRINT

    def test_unknown_keys(self, tmp_path, capsys):
        path = write(tmp_path, {"variables": [{"name": "x"}], "extra": 1})
        assert main(["growth", path]) == 2
        assert "unknown top-level keys: extra" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["x*x", 'a"b'])
    def test_variable_name_the_parser_cannot_read(self, name, tmp_path, capsys):
        path = write(tmp_path, {"variables": [{"name": "x"}, {"name": name}]})
        assert main(["report", "--format", "dot-bundle", path]) == 2
        assert f"variable name {name!r}" in capsys.readouterr().err

    def test_relation_parse_error(self, tmp_path, capsys):
        path = write(
            tmp_path, {"variables": [{"name": "x"}], "relations": ["x +"]}
        )
        assert main(["growth", path]) == 2
        assert "relation 1:" in capsys.readouterr().err

    def test_unknown_variable(self, tmp_path, capsys):
        # the letters of Omega come from the parser, which names the stranger
        assert main(["report", two_letters(tmp_path, "x1*z")]) == 2
        assert capsys.readouterr().err == (
            "error: relation 1: unknown variable 'z' (at position 3)\n"
        )

    def test_non_reduced_relations(self, tmp_path, capsys):
        path = write(
            tmp_path,
            {
                "variables": [{"name": "x1"}, {"name": "x2"}],
                "relations": ["x1*x2 - x1", "x1*x2*x2"],
            },
        )
        assert main(["growth", path]) == 2
        assert "divides" in capsys.readouterr().err

    def test_verification_failure(self, tmp_path, capsys):
        path = write(
            tmp_path,
            {
                "variables": [{"name": "x1"}, {"name": "x2"}],
                "relations": ["x1*x2 - x1", "x2*x1 - x2"],
            },
        )
        assert main(["check-gb", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("verification failed:")
        assert "not zero" in err

    def test_rational_verification_witness(self, tmp_path, capsys):
        path = write(
            tmp_path,
            {
                "variables": [{"name": "x1"}, {"name": "x2"}, {"name": "x3"}],
                "relations": ["x2*x1 - 2/3*x1*x2 - 1/2", "x3*x1 - 5/7*x1*x3",
                              "x3*x2 - 3/4*x2*x3 - 1/5*x1"],
            },
        )
        assert main(["check-gb", path]) == 3
        assert capsys.readouterr().err == (
            "verification failed: not a Groebner basis: the S-element of the "
            "overlap of relations 3 and 1 on x3*x2*x1 reduces to "
            "11/105*x1^2 - 13/56*x3, not zero\n"
        )

    def test_chain_cap_fails_only_the_analysis(self, monkeypatch, capsys):
        def over_cap(graph, truncation):
            raise InputError("chain enumeration exceeded the level cap")

        monkeypatch.setattr(ncdim.chains, "chain_sets", over_cap)
        assert main(["check-gb", DOWN_UP]) == 0
        assert main(["gldim", DOWN_UP]) == 2
        assert "exceeded the level cap" in capsys.readouterr().err

    def test_negative_terms(self, capsys):
        assert main(["hilbert", "--terms", "-1", DOWN_UP]) == 2
        assert "--terms must be nonnegative" in capsys.readouterr().err

    def test_terms_over_the_limit(self, capsys):
        # rejected before any stage runs
        assert main(["hilbert", "--terms", str(MAX_TRUNCATION), DOWN_UP]) == 0
        capsys.readouterr()
        for terms in (MAX_TRUNCATION + 1, 10 ** 20):
            assert main(["hilbert", "--terms", str(terms), DOWN_UP]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --terms must be at most {MAX_TRUNCATION}\n"

    @pytest.mark.parametrize("weight", [10 ** 12, 10 ** 20])
    def test_weight_over_the_limit(self, weight, tmp_path, capsys):
        # the dense chain counts would need a list as long as the weight
        path = write(tmp_path, {
            "variables": [{"name": "x"}, {"name": "y", "weight": weight}],
            "relations": ["x*y"],
        })
        assert main(["gldim", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: variable 'y' has a weight over the limit of {MAX_WEIGHT}\n"
        )

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", DOWN_UP])
        assert info.value.code == 2

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestGrowth:
    def test_polynomial(self, capsys):
        assert main(["growth", DOWN_UP]) == 0
        assert capsys.readouterr().out == "growth: polynomial of degree 3\n"

    def test_exponential_prints_witness(self, tmp_path, capsys):
        assert main(["growth", free2(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "growth: exponential\n"
            "  cycle 1 through 1: 1->1\n"
            "  cycle 2 through 1: 1->1\n"
        )


def _no_pivot(monkeypatch):
    monkeypatch.setattr(ncdim.growth, "_classify", lambda vertices, edges: ([], None))


def _corrupt(change):
    def patch(monkeypatch):
        build = ncdim.growth._two_cycles
        monkeypatch.setattr(
            ncdim.growth, "_two_cycles", lambda *args: change(build(*args))
        )
    return patch


# x1^3 over two letters: the witness is the window x1*x2 with the loops
# x1*x2 and x2*x1*x2, that is x1*x2->x2*x1->x1*x2 and
# x1*x2->x2*x2->x2*x1->x1*x2.
CERTIFICATE_FAULTS = {
    "no pivot": (_no_pivot, "no branching state"),
    "non-normal edge": (_corrupt(lambda w: ((0, 0), (0,), w[2])), "not an edge"),
    "short window": (_corrupt(lambda w: (w[0][1:], w[1], w[2])), "not an edge"),
    "open cycle": (_corrupt(lambda w: (w[0], w[1][:-1], w[2])), "not a closed walk"),
    "same first letter": (_corrupt(lambda w: (w[0], w[1], w[1])), "by one letter"),
}


class TestWitnessCertificate:
    """Each way the automaton's witness can fail its check exits 4."""

    @pytest.mark.parametrize("fault", sorted(CERTIFICATE_FAULTS))
    @pytest.mark.parametrize("argv", [["growth"], ["report", "--format", "text"]])
    def test_fault_exits_4(self, fault, argv, monkeypatch, tmp_path, capsys):
        patch, message = CERTIFICATE_FAULTS[fault]
        patch(monkeypatch)
        assert main(argv[:1] + [two_letters(tmp_path, "x1^3")] + argv[1:]) == 4
        err = capsys.readouterr().err
        assert "internal cross-check violated" in err
        assert message in err


@pytest.fixture
def no_growth_graph(monkeypatch):
    """build_ufnarovski raises in every ncdim namespace that binds it."""
    def refuse(*args):
        raise AssertionError("built the Ufnarovski graph")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ncdim" and hasattr(module, "build_ufnarovski"):
            monkeypatch.setattr(module, "build_ufnarovski", refuse)


class TestLongObstructions:
    def test_x1_twenty_check_gb_and_json_report(self, tmp_path, capsys):
        path = write(
            tmp_path,
            {"variables": [{"name": "x1"}, {"name": "x2"}], "relations": ["x1^20"]},
        )
        assert main(["check-gb", path]) == 0
        assert main(["report", "--format", "json", path]) == 0
        payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert payload["growth"] == {"class": "exponential", "degree": None}
        assert payload["gldim_monomial"] == "infinity"

    @pytest.mark.parametrize("relation", LONG_OBSTRUCTIONS)
    def test_witness_without_the_graph(self, no_growth_graph, relation, tmp_path,
                                       capsys):
        path = two_letters(tmp_path, relation)
        report = analyze(load_presentation(path))
        omega, alphabet = report.basis.omega, report.basis.order.alphabet
        window, p, q = witness = report.monomial.growth.witness
        ncdim.growth._check_witness(omega, witness)
        shared = word_str(window, alphabet)
        c1, c2 = fmt_cycle(window, p, alphabet), fmt_cycle(window, q, alphabet)
        assert main(["growth", path]) == 0
        assert capsys.readouterr().out == (
            "growth: exponential\n"
            f"  cycle 1 through {shared}: {c1}\n"
            f"  cycle 2 through {shared}: {c2}\n"
        )
        assert main(["report", path, "--format", "text"]) == 0
        assert (
            f"    witness: two cycles through {shared}: {c1} / {c2}\n"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize("relation", LONG_OBSTRUCTIONS)
    @pytest.mark.parametrize(
        "argv", [["graph", "--which", "uf"], ["report", "--format", "dot-bundle"]]
    )
    def test_graph_outputs_exit_2(self, relation, argv, tmp_path, capsys):
        path = two_letters(tmp_path, relation)
        assert main(argv[:1] + [path] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert f"over the limit of {ncdim.growth.MAX_WINDOWS}" in err
        assert "candidate vertices (2^" in err


def power_minus_one(k):
    """The 40-byte input x^k - 1, whose Rees S-elements x^j*T^k - T^k*x^j
    take j*k commutator steps when T crosses one letter at a time."""
    return {"variables": [{"name": "x"}], "relations": [f"x^{k} - 1"]}


class TestFewByteInputs:
    def test_reduction_steps_grow_at_most_linearly_on_x_power_minus_one(
            self, monkeypatch):
        calls = []
        original = GroebnerBasis.find_reduction

        def counted(self, word):
            calls.append(word)
            return original(self, word)

        monkeypatch.setattr(GroebnerBasis, "find_reduction", counted)
        counts = []
        for k in (32, 64, 128):
            calls.clear()
            analyze(load_presentation_data(power_minus_one(k)))
            counts.append(len(calls))
        assert counts[1] <= 2 * counts[0] and counts[2] <= 2 * counts[1]

    def test_gldim_of_x_power_1024_minus_one_exits_0(self, tmp_path):
        path = write(tmp_path, power_minus_one(1024))
        src = str(Path(ncdim.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "ncdim.cli", "gldim", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith("gl.dim of the monomial algebra: infinite\n")


class TestWindowLimit:
    """n^(ell-1) at the limit builds the graph, one word longer exits 2."""

    @pytest.fixture(autouse=True)
    def limit_four(self, monkeypatch):
        monkeypatch.setattr(ncdim.growth, "MAX_WINDOWS", 4)

    @pytest.mark.parametrize(
        "argv", [["graph", "--which", "uf"], ["report", "--format", "dot-bundle"]]
    )
    def test_both_sides(self, argv, tmp_path, capsys):
        at_limit = two_letters(tmp_path, "x1^3")
        over = write(tmp_path, {"variables": [{"name": "x1"}, {"name": "x2"}],
                                "relations": ["x1^4"]}, "over.json")
        assert main(argv[:1] + [at_limit] + argv[1:]) == 0
        assert main(argv[:1] + [over] + argv[1:]) == 2
        assert capsys.readouterr().err == (
            "error: the Ufnarovski graph has 8 candidate vertices (2^3), "
            "over the limit of 4\n"
        )

    def test_other_outputs_need_no_graph(self, tmp_path):
        over = two_letters(tmp_path, "x1^4")
        for argv in (["growth", over], ["report", over, "--format", "text"],
                     ["graph", over, "--which", "chains"]):
            assert main(argv) == 0


class TestCheckGbVerifiesOnly:
    """check-gb stops after verification and never enumerates chains."""

    @pytest.fixture(autouse=True)
    def no_chain_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("check-gb built a chain graph")

        monkeypatch.setattr(ncdim.pipeline, "build_chain_graph", refuse)

    def test_all_squares(self, tmp_path, capsys):
        path = write(
            tmp_path,
            {
                "variables": [{"name": "x1"}, {"name": "x2"}],
                "relations": ["x1^2", "x1*x2", "x2*x1", "x2^2"],
            },
        )
        assert main(["check-gb", path]) == 0
        assert capsys.readouterr().out == (
            "ok: 4 relations verified (8 overlap ambiguities reduce to zero)\n"
        )


# Chain sets whose levels grow geometrically: all-squares (2^(i+1) chains on
# level i) and a branching antichain on which `report` used to list chains
# to depth 64.
BRANCHING = {
    "all-squares": (["x1^2", "x1*x2", "x2*x1", "x2^2"], 11, 4094),
    "antichain": (["x1*x1*x2*x1", "x1*x2*x1*x1*x1", "x1*x2*x2*x2"], 9, 2378),
}


class TestBranchingChainSets:
    """Reports list chain words only up to the budget, and say so."""

    @pytest.fixture(params=sorted(BRANCHING))
    def case(self, request, tmp_path):
        relations, levels, words = BRANCHING[request.param]
        variables = [{"name": "x1"}, {"name": "x2"}]
        path = write(tmp_path, {"variables": variables, "relations": relations})
        return path, levels, words

    def test_json_report(self, case, capsys):
        path, levels, words = case
        assert main(["report", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gldim_monomial"] == "infinity"
        assert payload["rees"]["gldim"] == "infinity"
        chains = payload["chains"]
        assert chains["finite"] is False and chains["truncated"] is True
        assert len(chains["levels"]) == levels
        assert sum(map(len, chains["levels"])) == words <= MAX_LISTED_CHAINS

    def test_text_report(self, case, capsys):
        path, levels, words = case
        assert main(["report", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "(2) global dimension of the monomial algebra: infinite\n" in out
        assert f"\n    C_{levels - 1} = {{" in out
        stopped = f"    ... listing stopped after {levels} levels, at {words} chain words"
        assert f"\n{stopped}\n" in out
        assert "not vanishing" not in out


class TestGldim:
    def test_applicable(self, capsys):
        assert main(["gldim", DOWN_UP]) == 0
        assert capsys.readouterr().out == (
            "gl.dim of the monomial algebra: 3\n"
            "gl.dim of the associated graded algebra: 3\n"
            "gl.dim of the Rees algebra: 4\n"
        )

    def test_infinite(self, capsys):
        assert main(["gldim", NILPOTENT]) == 0
        assert capsys.readouterr().out == (
            "gl.dim of the monomial algebra: infinite\n"
            "exact transfer not applicable "
            "(needs polynomial growth and finite global dimension)\n"
        )


class TestHilbert:
    def test_closed_form(self, capsys):
        assert main(["hilbert", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert "closed form: 1/(1 - 2t + 2t^3 - t^4)" in out
        assert (
            "coefficients: 1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, "
            "56, 64, 72, 81" in out
        )

    def test_terms_flag(self, capsys):
        assert main(["hilbert", "--terms", "4", DOWN_UP]) == 0
        assert capsys.readouterr().out.endswith("coefficients: 1, 2, 4, 6, 9\n")

    def test_no_closed_form(self, capsys):
        assert main(["hilbert", NILPOTENT]) == 0
        out = capsys.readouterr().out
        assert "closed form: none (chain sets do not vanish)" in out

    def test_closed_form_one(self, tmp_path, capsys):
        # every letter is an obstruction: D(t) = 1, printed as the series 1
        path = write(tmp_path, {"variables": [{"name": "x"}], "relations": ["x"]})
        assert main(["hilbert", path]) == 0
        assert capsys.readouterr().out == "closed form: 1\ncoefficients: 1" + ", 0" * 16 + "\n"
        assert main(["report", "--format", "text", path]) == 0
        text = capsys.readouterr().out
        assert "Hilbert series of the monomial algebra:\n  closed form: 1\n" in text
        assert "1/(1)" not in text
        assert main(["report", path]) == 0
        assert json.loads(capsys.readouterr().out)["hilbert"]["denominator"] == [1]


class TestRees:
    def test_down_up(self, capsys):
        assert main(["rees", DOWN_UP]) == 0
        assert capsys.readouterr().out == (
            "relations:\n"
            "  x1^2*x2 - x1*x2*x1 - x2*x1^2 - T^2*x1\n"
            "  x1*x2^2 - x2*x1*x2 - x2^2*x1 - T^2*x2\n"
            "  x1*T - T*x1\n"
            "  x2*T - T*x2\n"
            "growth: polynomial of degree 4\n"
            "gl.dim: 4\n"
            "hilbert: 1/(1 - 3t + 2t^2 + 2t^3 - 3t^4 + t^5)\n"
            "coefficients: 1, 3, 7, 13, 22, 34, 50, 70, 95, 125, 161, 203, "
            "252, 308, 372, 444, 525\n"
        )

    def test_infinite_gldim_skips_closed_form(self, capsys):
        assert main(["rees", NILPOTENT]) == 0
        out = capsys.readouterr().out
        assert "gl.dim: infinite\n" in out
        assert "hilbert: 1/(" not in out


class TestPbw:
    def test_yes(self, capsys):
        assert main(["pbw", COMMUTATIVE3]) == 0
        assert capsys.readouterr().out == (
            "yes: normal words are the ordered monomials\n"
            "gl.dim = 3, Rees gl.dim = 4 (cross-checked)\n"
        )

    def test_no(self, capsys):
        assert main(["pbw", DOWN_UP]) == 0
        assert capsys.readouterr().out == "no\n"


class TestGraph:
    def test_uf_listing(self, capsys):
        assert main(["graph", "--which", "uf", DOWN_UP]) == 0
        assert capsys.readouterr().out == (
            "vertices (4):\n"
            "  x1*x1\n"
            "  x1*x2\n"
            "  x2*x1\n"
            "  x2*x2\n"
            "edges (6):\n"
            "  x1*x1 -> x1*x1\n"
            "  x1*x2 -> x2*x1\n"
            "  x2*x1 -> x1*x1\n"
            "  x2*x1 -> x1*x2\n"
            "  x2*x2 -> x2*x1\n"
            "  x2*x2 -> x2*x2\n"
        )

    def test_chains_listing(self, capsys):
        assert main(["graph", "--which", "chains", DOWN_UP]) == 0
        assert capsys.readouterr().out == (
            "vertices (5):\n"
            "  1\n"
            "  x1\n"
            "  x2\n"
            "  x1*x2\n"
            "  x2*x2\n"
            "edges (5):\n"
            "  1 -> x1\n"
            "  1 -> x2\n"
            "  x1 -> x1*x2\n"
            "  x1 -> x2*x2\n"
            "  x1*x2 -> x2\n"
        )

    @pytest.mark.parametrize(
        "which, header",
        [("uf", "digraph growth {"), ("chains", "digraph chains {"),
         ("rees-chains", "digraph rees_chains {")],
    )
    def test_dot_output(self, which, header, capsys):
        assert main(["graph", "--which", which, "--dot", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert out.startswith(header)
        assert out.endswith("}\n")

    def test_graph_and_dot_bundle_share_one_path(self, capsys):
        assert list(DOT_NAMES) == ["uf", "chains", "rees-chains"]
        report = analyze(load_presentation(DOWN_UP))
        dots = []
        for which, name in DOT_NAMES.items():
            assert main(["graph", "--which", which, "--dot", DOWN_UP]) == 0
            dots.append(capsys.readouterr().out)
            assert dots[-1] == dot_digraph(name, report_graph(report, which))
        assert main(["report", "--format", "dot-bundle", DOWN_UP]) == 0
        assert capsys.readouterr().out == "\n".join(dots)

    def test_rees_chains_listing_uses_extended_names(self, capsys):
        assert main(["graph", "--which", "rees-chains", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert "T" in out
        assert "1 -> T" in out


class TestReport:
    def test_json_default(self, capsys):
        assert main(["report", DOWN_UP]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = report_to_dict(analyze(load_presentation(DOWN_UP)))
        assert payload == expected

    def test_json_infinity_encoding(self, capsys):
        assert main(["report", "--format", "json", NILPOTENT]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gldim_monomial"] == "infinity"
        assert payload["rees"]["gldim"] == "infinity"

    def test_text_format(self, capsys):
        assert main(["report", "--format", "text", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert "(1) growth of the monomial algebra" in out
        assert "(3) conclusions:" in out

    def test_dot_bundle_format(self, capsys):
        assert main(["report", "--format", "dot-bundle", DOWN_UP]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 3

    def test_empty_product_form(self, tmp_path, capsys):
        # x = 0, y = 1: gl.dim 0 and D(t) = 1, the product of no factors
        path = write(tmp_path, {"variables": [{"name": "x"}, {"name": "y"}],
                                "relations": ["x", "y - 1"]})
        assert main(["report", "--format", "json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["gldim_monomial"], payload["product_form"]) == (0, [])
        assert main(["report", "--format", "text", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  product form: 1" in lines
        assert [line for line in lines if line != line.rstrip()] == []


def parser_calls(tmp_path):
    """(argv, patch) for a run of every CLI path: each subcommand and format,
    help, usage errors and exits 2, 3 and 4."""
    failing = write(tmp_path, {"variables": [{"name": "x1"}, {"name": "x2"}],
                               "relations": ["x1*x2 - x1", "x2*x1 - x2"]}, "failing.json")
    calls = [[name, DOWN_UP] for name in
             ("check-gb", "growth", "gldim", "hilbert", "rees", "pbw", "graph", "report")]
    calls += [["hilbert", "--terms", "5", DOWN_UP]]
    calls += [["graph", "--which", which, *dot, DOWN_UP]
              for which in DOT_NAMES for dot in ([], ["--dot"])]
    calls += [["report", "--format", fmt, DOWN_UP] for fmt in ("json", "text", "dot-bundle")]
    calls += [[], ["frobnicate", DOWN_UP], ["--help"], ["report", "--help"],
              ["graph", "--which", "nope", DOWN_UP], ["hilbert", "--terms", "x", DOWN_UP],
              ["growth", str(tmp_path / "nope.json")], ["hilbert", "--terms", "-1", DOWN_UP],
              ["check-gb", failing]]
    return [(argv, None) for argv in calls] + [
        (["growth", two_letters(tmp_path, "x1^3")], _no_pivot)
    ]


def run_calls(calls, monkeypatch, capsys):
    """(argv, exit code, stdout, stderr) of each call, in order."""
    results = []
    for argv, patch in calls:
        with monkeypatch.context() as m:
            if patch is not None:
                patch(m)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append((argv, code, *capsys.readouterr()))
    return results


class TestParserBuiltOnce:
    """main() builds its parser on the first call and reuses it."""

    def test_same_outputs_as_a_fresh_parser_per_call(self, monkeypatch, tmp_path, capsys):
        calls = parser_calls(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(ncdim.cli, "_build_parser", ncdim.cli._build_parser.__wrapped__)
            fresh = run_calls(calls, monkeypatch, capsys)

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        ncdim.cli._build_parser.cache_clear()
        cached = run_calls(calls, monkeypatch, capsys)
        assert built.count("ncdim") == 1
        assert len(built) == len(set(built))  # no subparser built twice either
        assert cached == fresh
        assert {code for _, code, _, _ in cached} == {0, 2, 3, 4}

    def test_help_texts(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for argv, text in ((["--help"], MAIN_HELP), (["report", "--help"], REPORT_HELP)):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            assert capsys.readouterr() == (text, "")


MAIN_HELP = """\
usage: ncdim [-h] {check-gb,growth,gldim,hilbert,rees,pbw,graph,report} ...

Growth, global dimension, and Hilbert series of an algebra presented by a
finite Groebner basis

positional arguments:
  {check-gb,growth,gldim,hilbert,rees,pbw,graph,report}
    check-gb            verify the candidate basis by the overlap criterion
    growth              growth class of the monomial algebra
    gldim               global dimensions (monomial, associated graded, Rees)
    hilbert             Hilbert series (closed form and truncated expansion)
    rees                Rees algebra presentation and invariants
    pbw                 test for ordered-monomial (PBW) normal words
    graph               emit one of the graphs
    report              full analysis report

options:
  -h, --help            show this help message and exit
"""

REPORT_HELP = """\
usage: ncdim report [-h] [--format {json,text,dot-bundle}] file

positional arguments:
  file                  presentation file (JSON)

options:
  -h, --help            show this help message and exit
  --format {json,text,dot-bundle}
"""
