"""End-to-end pipeline: loading, analysis, report rendering."""

import collections
import copy
import inspect
import json
import math
import pickle
import re
import sys
from functools import cached_property
from pathlib import Path

import pytest

import ncdim.chains
import ncdim.pipeline
from ncdim import (
    Alphabet,
    CrossCheckError,
    GroebnerBasis,
    GroebnerVerificationError,
    GrowthClass,
    HilbertSeries,
    InputError,
    Invariants,
    MonomialOrder,
    MonomialSet,
    Poly,
    VerificationResult,
    analyze,
    automaton_growth,
    build_ufnarovski,
    load_presentation,
    load_presentation_data,
    pbw_check,
    render_report,
    report_to_dict,
)
from ncdim.chains import MAX_TRUNCATION
from ncdim.cli import main
from ncdim.freealg import Record
from ncdim.pipeline import report_graph
from ncdim.rees import HomogenizationOrder
from ncdim.render import word_str
from presets import (
    commutation,
    down_up,
    free_algebra,
    heisenberg,
    nilpotent,
    ore_case_a,
    ore_case_b,
    power_family,
    weyl,
)
from references import json_report
from test_golden import INPUTS
from test_rees import random_antichains

SAMPLES = Path(__file__).resolve().parent.parent / "presentations"


def minimal(**overrides):
    data = {
        "variables": [{"name": "x1"}, {"name": "x2"}],
        "relations": ["x2*x1 - x1*x2"],
    }
    data.update(overrides)
    return data


class TestLoadData:
    def test_not_an_object(self):
        with pytest.raises(InputError, match="JSON object"):
            load_presentation_data(["x1"])

    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="unknown top-level keys: relation"):
            load_presentation_data(minimal(relation=[]))

    @pytest.mark.parametrize("variables", [None, [], "x1"])
    def test_variables_must_be_nonempty_list(self, variables):
        data = minimal()
        if variables is None:
            del data["variables"]
        else:
            data["variables"] = variables
        with pytest.raises(InputError, match="'variables' must be a nonempty list"):
            load_presentation_data(data)

    def test_variable_must_be_object(self):
        with pytest.raises(InputError, match="variable 1 must be an object"):
            load_presentation_data(minimal(variables=["x1"], relations=[]))

    def test_variable_unknown_key(self):
        bad = [{"name": "x1", "weigth": 2}]
        with pytest.raises(InputError, match="variable 1 has unknown keys: weigth"):
            load_presentation_data(minimal(variables=bad, relations=[]))

    def test_variable_needs_name(self):
        with pytest.raises(InputError, match="variable 2 needs a string 'name'"):
            load_presentation_data(
                minimal(variables=[{"name": "x1"}, {"weight": 2}], relations=[])
            )

    @pytest.mark.parametrize("weight", [0, -1, "2", 1.5])
    def test_bad_weight_rejected(self, weight):
        bad = [{"name": "x1", "weight": weight}]
        with pytest.raises(InputError, match="positive integer weight"):
            load_presentation_data(minimal(variables=bad, relations=[]))

    def test_duplicate_names_rejected(self):
        bad = [{"name": "x1"}, {"name": "x1"}]
        with pytest.raises(InputError, match="distinct"):
            load_presentation_data(minimal(variables=bad, relations=[]))

    def test_order_must_be_object(self):
        with pytest.raises(InputError, match="'order' must be an object"):
            load_presentation_data(minimal(order="grlex"))

    def test_order_unknown_key(self):
        with pytest.raises(InputError, match="'order' has unknown keys: type"):
            load_presentation_data(minimal(order={"type": "grlex"}))

    def test_unknown_order_kind(self):
        with pytest.raises(InputError, match="unknown order kind 'lex'"):
            load_presentation_data(minimal(order={"kind": "lex"}))

    def test_precedence_must_be_list(self):
        with pytest.raises(InputError, match="'precedence' must list variable names"):
            load_presentation_data(minimal(order={"precedence": "x1"}))

    def test_precedence_unknown_name(self):
        with pytest.raises(InputError, match="unknown variable 'x3'"):
            load_presentation_data(minimal(order={"precedence": ["x3", "x1"]}))

    def test_precedence_must_be_permutation(self):
        with pytest.raises(InputError, match="permutation"):
            load_presentation_data(minimal(order={"precedence": ["x1", "x1"]}))

    def test_relations_must_be_list(self):
        with pytest.raises(InputError, match="'relations' must be a list"):
            load_presentation_data(minimal(relations="x1*x2"))

    def test_relation_must_be_string(self):
        with pytest.raises(InputError, match="relation 1 must be a string"):
            load_presentation_data(minimal(relations=[42]))

    def test_parse_error_names_the_relation(self):
        with pytest.raises(InputError, match="relation 2:"):
            load_presentation_data(minimal(relations=["x1*x2", "x1 +"]))

    def test_relations_are_monicized(self):
        pres = load_presentation_data(minimal(relations=["2*x2*x1 - 2*x1*x2"]))
        g = pres.elements[0]
        assert g == Poly({(1, 0): 1, (0, 1): -1})

    def test_lm_divisible_pair_rejected(self):
        with pytest.raises(InputError, match="divides"):
            load_presentation_data(minimal(relations=["x1*x2 - x1", "x1*x2*x2"]))

    def test_defaults(self):
        pres = load_presentation_data({"variables": [{"name": "y"}]})
        assert pres.order.alphabet.names == ("y",)
        assert pres.order.alphabet.weights == (1,)
        assert pres.order.kind == "grlex"
        assert pres.order.precedence == (0,)
        assert pres.elements == ()

    def test_weights_and_precedence_applied(self):
        pres = load_presentation_data(
            {
                "variables": [{"name": "a", "weight": 2}, {"name": "b"}],
                "order": {"kind": "grevlex", "precedence": ["b", "a"]},
            }
        )
        assert pres.order.alphabet.weights == (2, 1)
        assert pres.order.kind == "grevlex"
        assert pres.order.precedence == (1, 0)


class TestLoadFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_presentation(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(InputError, match="not valid JSON"):
            load_presentation(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InputError, match="bad.json is not UTF-8 text"):
            load_presentation(path)

    def test_json_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(InputError, match="deep.json nests JSON too deeply"):
            load_presentation(path)

    def test_json_integer_too_long(self, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text('{"variables": [{"name": "x", "weight": ' + "9" * 5000 + "}]}",
                        encoding="utf-8")
        with pytest.raises(InputError, match="heavy.json has an integer literal too long"):
            load_presentation(path)

    def test_load_reads_the_file(self, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        pres = load_presentation(path)
        assert pres.order.alphabet.names == ("x1", "x2")

    @pytest.mark.parametrize(
        "name",
        ["down_up", "ore_plane", "weighted_ore", "commutative3", "nilpotent"],
    )
    def test_shipped_samples_load_and_analyze(self, name):
        report = analyze(load_presentation(SAMPLES / f"{name}.json"))
        assert report.basis.verified


class TestPbwCheck:
    def test_commutation_is_pbw(self):
        assert pbw_check(commutation(2))
        assert pbw_check(commutation(3))

    def test_skew_relation_is_pbw(self):
        assert pbw_check(power_family(1))

    def test_one_variable_free_algebra_is_pbw(self):
        assert pbw_check(free_algebra(1))

    @pytest.mark.parametrize(
        "pres", [down_up(), free_algebra(2), nilpotent(), power_family(2)]
    )
    def test_not_pbw(self, pres):
        assert not pbw_check(pres)

    def test_requires_verified_basis(self):
        pres = load_presentation_data(
            minimal(relations=["x1*x2 - x1", "x2*x1 - x2"])
        )
        with pytest.raises(GroebnerVerificationError):
            pbw_check(pres)


class TestAnalyzeFrozen:
    def test_down_up(self):
        r = analyze(down_up())
        assert r.basis.verified
        assert r.basis.verification.checked == 1
        assert r.basis.omega.words == ((0, 0, 1), (0, 1, 1))
        assert not r.monomial.growth.exponential and r.monomial.growth.degree == 3
        assert r.monomial.gldim == 3
        assert r.applicable
        assert r.gldim_assoc_graded == 3
        assert r.monomial.hilbert.denominator == (1, -2, 0, 2, -1)
        assert r.product_form == [1, 1, 2]
        assert r.rees.gldim == 4
        assert not r.pbw
        assert r.warnings == ()
        assert r.lh_basis == (
            Poly({(0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 0): -1}),
            Poly({(0, 1, 1): 1, (1, 0, 1): -1, (1, 1, 0): -1}),
        )

    def test_ore_case_a(self):
        r = analyze(ore_case_a())
        assert r.basis.verification.checked == 0
        assert r.basis.omega.words == ((1, 0),)
        assert not r.monomial.growth.exponential and r.monomial.growth.degree == 2
        assert r.monomial.gldim == 2 and r.gldim_assoc_graded == 2
        assert r.monomial.hilbert.denominator == (1, -2, 1)
        assert r.monomial.hilbert.coefficients == tuple(range(1, 18))
        assert r.product_form == [1, 1]
        assert r.rees.gldim == 3
        assert r.rees.hilbert.denominator == (1, -3, 3, -1)
        assert r.pbw
        # the quadratic part of the relation survives in the leading
        # homogeneous basis because the weights are (1, 1)
        assert r.lh_basis == (Poly({(1, 0): 1, (0, 1): -2, (0, 0): -1}),)

    def test_ore_case_b(self):
        r = analyze(ore_case_b())
        assert r.basis.omega.words == ((1, 0),)
        assert r.monomial.growth.degree == 2 and r.monomial.gldim == 2
        assert r.monomial.hilbert.denominator == (1, -1, 0, -1, 1)
        assert r.monomial.hilbert.coefficients[:9] == (1, 1, 1, 2, 2, 2, 3, 3, 3)
        assert r.product_form == [1, 3]
        assert r.rees.hilbert.denominator == (1, -2, 1, -1, 2, -1)
        # with weight 3 on x2 both x2 and x1^3 sit below the top degree 4
        assert r.lh_basis == (Poly({(1, 0): 1, (0, 1): -2}),)

    def test_power_two_has_exponential_growth(self):
        r = analyze(power_family(2))
        assert r.monomial.growth.exponential
        assert r.monomial.gldim == 2
        assert not r.applicable
        assert r.gldim_assoc_graded is None
        assert r.product_form is None
        assert r.monomial.hilbert.denominator == (1, -2, 0, 1)
        assert r.monomial.hilbert.coefficients[:9] == (1, 2, 4, 7, 12, 20, 33, 54, 88)
        assert r.rees.gldim == 3
        assert not r.pbw

    def test_commutation_three(self):
        r = analyze(commutation(3))
        assert r.basis.verification.checked == 1
        assert r.monomial.growth.degree == 3 and r.monomial.gldim == 3
        assert r.applicable and r.gldim_assoc_graded == 3
        assert r.monomial.hilbert.denominator == (1, -3, 3, -1)
        assert r.product_form == [1, 1, 1]
        assert r.rees.gldim == 4
        assert r.rees.hilbert.denominator == (1, -4, 6, -4, 1)
        assert r.pbw

    def test_free_algebra_two(self):
        r = analyze(free_algebra(2))
        assert r.basis.omega.words == ()
        assert r.monomial.growth.exponential
        assert r.monomial.gldim == 1
        assert not r.applicable and r.gldim_assoc_graded is None
        assert r.monomial.hilbert.denominator == (1, -2)
        assert r.monomial.hilbert.coefficients[:6] == (1, 2, 4, 8, 16, 32)
        assert r.product_form is None
        assert r.rees.gldim == 2
        assert r.rees.hilbert.denominator == (1, -3, 2)

    def test_nilpotent(self):
        r = analyze(nilpotent())
        assert not r.monomial.growth.exponential and r.monomial.growth.degree == 0
        assert r.monomial.gldim is None
        assert not r.monomial.sets.finite
        assert not r.applicable and r.gldim_assoc_graded is None
        assert r.monomial.hilbert.denominator is None and not r.monomial.hilbert.closed_form
        assert r.monomial.hilbert.coefficients == (1, 1) + (0,) * 15
        assert r.product_form is None
        assert r.rees.gldim is None
        assert not r.rees.growth.exponential and r.rees.growth.degree == 1

    def test_unverifiable_presentation_raises(self):
        pres = load_presentation_data(
            minimal(relations=["x1*x2 - x1", "x2*x1 - x2"])
        )
        with pytest.raises(GroebnerVerificationError):
            analyze(pres)

    def test_truncation_controls_both_expansions(self):
        r = analyze(ore_case_a(), truncation=5)
        assert len(r.monomial.hilbert.coefficients) == 6
        assert len(r.rees.hilbert.coefficients) == 6

    def test_duplicate_warnings_collapse(self):
        # a dead letter gets one warning per rule it touches, written once
        # by analyze: no chain-graph root edge, and no T-commutator
        pres = load_presentation_data(minimal(relations=["x1"]))
        r = analyze(pres)
        assert r.warnings == (
            "letters x1 are obstructions; chain invariants are computed over "
            "the remaining letters",
            "letters x1 are leading words; their T-commutators are omitted "
            "(they lie in the ideal already)",
        )
        assert r.monomial.gldim == 1
        assert r.monomial.growth.degree == 1

    @pytest.mark.parametrize("truncation", [-1, MAX_TRUNCATION + 1])
    def test_truncation_out_of_range(self, truncation, monkeypatch):
        # rejected before any stage, so before the table of truncation + 1 rows
        def refuse(basis):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(ncdim.pipeline, "ensure_verified", refuse)
        with pytest.raises(InputError, match="^truncation must be"):
            analyze(down_up(), truncation=truncation)


@pytest.fixture(scope="module")
def records():
    """One record of each kind, by class name: those of one analyze(down_up()),
    the Ufnarovski graph of its Omega, and an alphabet and two orders."""
    report = analyze(down_up())
    alphabet = Alphabet(("x", "y"), (1, 2))
    order = MonomialOrder(alphabet, "grevlex", (1, 0))
    found = [alphabet, order, HomogenizationOrder(order), report.basis.omega,
             report.basis.verification, build_ufnarovski(report.basis.omega),
             report.monomial.growth, report.monomial.graph, report.monomial.sets,
             report.monomial.hilbert, report.monomial, report.rees, report]
    return {type(record).__name__: record for record in found}


class TestRecords:
    """The records keep their value semantics: the frozen ones refuse
    assignment, equality and repr leave out the automaton and the applied
    relations, and a record hashes when all its compared fields do."""

    # a field, or a value derived from the others, of each frozen record
    FROZEN = {
        "Alphabet": "names",
        "MonomialOrder": "kind",
        "HomogenizationOrder": "alphabet",
        "VerificationResult": "applied",
        "UfnarovskiGraph": "edges",
        "GrowthClass": "degree",
        "ChainGraph": "vertices",
        "ChainSets": "counts",
        "HilbertSeries": "coefficients",
        "Invariants": "growth",
        "ReesInvariants": "basis",
        "MonomialSet": "automaton",
        "AnalysisReport": "monomial",
    }

    NAMES = sorted(FROZEN)

    def test_every_record_is_here(self, records):
        assert sorted(records) == self.NAMES

    @pytest.mark.parametrize("name,field", sorted(FROZEN.items()))
    def test_frozen_records_refuse_assignment(self, records, name, field):
        record = records[name]
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value

    def test_monomial_set_equality_leaves_out_the_automaton(self, records):
        omega = records["MonomialSet"]
        again = MonomialSet(omega.words, omega.alphabet)
        assert again.automaton is not omega.automaton
        assert again == omega
        assert MonomialSet(omega.words[:1], omega.alphabet) != omega
        assert MonomialSet(omega.words, Alphabet(("a", "b"), (1, 1))) != omega
        assert repr(omega) == f"MonomialSet(words={omega.words!r}, alphabet={omega.alphabet!r})"

    def test_verification_equality_leaves_out_the_applied_relations(self, records):
        result = records["VerificationResult"]
        assert result.ok and result.applied
        assert VerificationResult(True, result.checked, applied={}) == result
        assert VerificationResult(True, result.checked + 1, applied=result.applied) != result
        assert repr(result) == (
            f"VerificationResult(ok=True, checked={result.checked}, ambiguity=None, "
            "remainder=None)"
        )

    def test_hashable_records(self, records):
        alphabet = Alphabet(["x", "y"], [1, 2])
        order = MonomialOrder(alphabet, "grevlex", [1, 0])
        hilbert = records["HilbertSeries"]
        twins = {
            "Alphabet": alphabet,
            "MonomialOrder": order,
            "HomogenizationOrder": HomogenizationOrder(order),
            "GrowthClass": GrowthClass(False, 3),
            "HilbertSeries": HilbertSeries((1, -2, 0, 2, -1), hilbert.coefficients),
        }
        for name, twin in twins.items():
            record = records[name]
            assert twin is not record and twin == record
            assert hash(twin) == hash(record)
        assert MonomialOrder(alphabet) != order

    @pytest.mark.parametrize("name", ["MonomialSet", "AnalysisReport"])
    def test_unhashable_records(self, records, name):
        with pytest.raises(TypeError):
            hash(records[name])

    @pytest.mark.parametrize("name", NAMES)
    def test_repr_names_the_fields(self, records, name):
        text = repr(records[name])
        assert re.match(rf"{name}\(\w+=", text)
        assert "automaton" not in text and "applied" not in text

    @pytest.mark.parametrize("name", NAMES)
    def test_copies_are_equal(self, records, name):
        record = records[name]
        assert copy.copy(record) == record
        if name not in ("ReesInvariants", "AnalysisReport"):  # a basis equals only itself
            assert pickle.loads(pickle.dumps(record)) == record

    def test_record_fields_are_readable(self, records):
        # copy and pickle read the __init__ parameters off a record, and
        # equality, hashing and the repr the compared fields
        based = {name: record for name, record in records.items() if isinstance(record, Record)}
        assert sorted(based) == ["Alphabet", "AnalysisReport", "ChainGraph", "ChainSets",
                                 "HomogenizationOrder", "MonomialOrder", "MonomialSet",
                                 "VerificationResult"]
        for record in based.values():
            parameters = list(inspect.signature(type(record).__init__).parameters)[1:]
            for field in (*parameters, *record._compared):
                getattr(record, field)

    def test_rees_invariants_are_invariants(self, records):
        rees = records["ReesInvariants"]
        assert isinstance(rees, Invariants)
        assert (rees.gldim, rees.graph) == (rees.sets.gldim, rees.sets.graph)

    def test_pbw_is_a_bool(self, records):
        assert analyze(commutation(2)).pbw is True
        assert records["AnalysisReport"].pbw is False


class TestHomogenizerName:
    """With a base letter named T the homogenizer is T_, and the report names
    it so."""

    @pytest.fixture
    def report(self):
        return analyze(load_presentation_data(
            {"variables": [{"name": "x"}, {"name": "T"}], "relations": ["T"]}
        ))

    def test_text_report(self, report):
        text = render_report(report, "text").decode("utf-8")
        assert "\nRees algebra (homogenized presentation, T_ central of weight 1):\n" in text
        assert "  x*T_ - T_*x\n" in text
        assert "T central" not in text

    def test_json_warnings(self, report):
        assert json.loads(render_report(report, "json"))["warnings"] == [
            "letters T are obstructions; chain invariants are computed over "
            "the remaining letters",
            "letters T are leading words; their T_-commutators are omitted "
            "(they lie in the ideal already)",
        ]


def one_degree_more(omega):
    """The growth of Omega with a polynomial degree raised by one, on the
    base and the Rees side alike, so the Rees degree stays base + 1."""
    growth = automaton_growth(omega)
    return growth if growth.exponential else growth._replace(degree=growth.degree + 1)


# One fault per exactness check of analyze() on down_up (2 letters, GK degree
# and gl.dim 3, not PBW); each leaves the checks before it intact.
EXACTNESS_FAULTS = {
    "growth degree = gl.dim": (
        (ncdim.chains, "automaton_growth", one_degree_more),
        "polynomial growth degree 4 differs from the monomial global dimension 3",
    ),
    "PBW dimensions": (
        (ncdim.pipeline, "pbw_check", lambda basis: True),
        "ordered-monomial (PBW) presentations must have global dimension 2 "
        "and Rees global dimension 3",
    ),
}


class TestExactnessCrossChecks:
    @pytest.fixture(params=sorted(EXACTNESS_FAULTS))
    def fault(self, request, monkeypatch):
        target, message = EXACTNESS_FAULTS[request.param]
        monkeypatch.setattr(*target)
        return message

    def test_analyze_raises(self, fault):
        with pytest.raises(CrossCheckError, match=re.escape(fault)):
            analyze(down_up())

    def test_report_exits_4(self, fault, capsys):
        assert main(["report", str(SAMPLES / "down_up.json")]) == 4
        assert fault in capsys.readouterr().err


def power_of_x1(k: int):
    return load_presentation_data(
        {"variables": [{"name": "x1"}, {"name": "x2"}], "relations": [f"x1^{k}"]}
    )


class TestLongObstructions:
    """Inputs whose Ufnarovski graph has 2^19 or 2^40 vertices."""

    @pytest.fixture(autouse=True)
    def no_growth_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("analyze built the Ufnarovski graph")

        monkeypatch.setattr(ncdim.pipeline, "build_ufnarovski", refuse)

    def test_x1_twenty(self):
        r = analyze(power_of_x1(20))
        assert r.monomial.growth.exponential and r.monomial.growth.degree is None
        assert r.monomial.gldim is None
        assert r.rees.gldim is None
        assert list(r.monomial.hilbert.coefficients) == r.basis.omega.count_normal(
            len(r.monomial.hilbert.coefficients) - 1
        )
        render_report(r, "json")

    def test_power_family_forty(self):
        r = analyze(power_family(40))
        assert r.basis.omega.words == ((1,) * 40 + (0,),)
        assert r.monomial.growth.exponential and r.rees.growth.exponential

    def test_polynomial_text_report_needs_no_graph(self):
        r = analyze(down_up())
        assert r.monomial.growth.degree == 3
        assert b"witness" not in render_report(r, "text")


class TestEachStageRunsOnce:
    """One analyze() call builds the chain graph, the chain sets and the
    growth once for the base algebra and once for its Rees algebra, lists
    the overlaps of the base only (the Rees check reads those off the base's
    verification record), and never interreduces LM(G)."""

    STAGES = ("build_chain_graph", "chain_sets", "overlap_ambiguities",
              "automaton_growth")

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()
        modules = [m for name, m in sys.modules.items()
                   if name == "ncdim" or name.startswith("ncdim.")]
        for name in self.STAGES:
            original = getattr(ncdim, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if module.__dict__.get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        interreduce = MonomialSet.interreduce.__func__

        def counted_interreduce(cls, words, alphabet):
            counts["interreduce"] += 1
            return interreduce(cls, words, alphabet)

        monkeypatch.setattr(MonomialSet, "interreduce", classmethod(counted_interreduce))
        build_steps = MonomialSet.normal_steps.func

        def counted_steps(omega):
            counts["normal_steps"] += 1
            return build_steps(omega)

        steps = cached_property(counted_steps)
        steps.__set_name__(MonomialSet, "normal_steps")
        monkeypatch.setattr(MonomialSet, "normal_steps", steps)
        return counts

    @pytest.mark.parametrize("build", [lambda: commutation(4), lambda: power_family(3)],
                             ids=["pbw", "exponential"])
    def test_counts(self, counts, build):
        pres = build()
        analyze(pres)
        assert [counts[name] for name in self.STAGES] == [2, 2, 1, 2]
        assert counts["interreduce"] == 0

    def test_a_copy_runs_no_stage_again(self, counts):
        report = analyze(down_up())
        ran = collections.Counter(counts)
        again = copy.copy(report)
        assert again is not report and again == report
        assert counts == ran

    def test_a_copied_obstruction_set_keeps_its_steps(self, counts):
        omega = analyze(down_up()).basis.omega
        steps = omega.normal_steps
        again = copy.copy(omega)
        assert vars(again)["normal_steps"] is steps
        assert pickle.loads(pickle.dumps(omega)).normal_steps == steps
        assert counts["normal_steps"] == 2

    @pytest.mark.parametrize("build", [lambda: commutation(4), lambda: power_family(3)],
                             ids=["pbw", "exponential"])
    def test_normal_steps_built_once_per_obstruction_set(self, counts, build):
        # once for Omega and once for the Rees Omega~; the growth graph
        # reads Omega's steps again
        report = analyze(build())
        assert counts["normal_steps"] == 2
        report_graph(report, "uf")
        assert counts["normal_steps"] == 2


class TestHilbertAgainstBinomials:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_commutation_dimensions_are_binomials(self, n):
        r = analyze(commutation(n), truncation=8)
        expected = tuple(math.comb(d + n - 1, n - 1) for d in range(9))
        assert r.monomial.hilbert.coefficients == expected
        # homogenizing adds one more commuting variable
        rees_expected = tuple(math.comb(d + n, n) for d in range(9))
        assert r.rees.hilbert.coefficients == rees_expected


class TestReportDict:
    def test_key_sets(self):
        d = report_to_dict(analyze(down_up()))
        assert set(d) == {
            "gb_verified",
            "omega",
            "growth",
            "gldim_monomial",
            "applicable",
            "gldim_assoc_graded",
            "rees",
            "hilbert",
            "product_form",
            "chains",
            "warnings",
        }
        assert set(d["growth"]) == {"class", "degree"}
        assert set(d["rees"]) == {"growth", "gldim", "hilbert"}
        for h in (d["hilbert"], d["rees"]["hilbert"]):
            assert set(h) == {"denominator", "coefficients", "closed_form"}
        assert set(d["chains"]) == {"levels", "finite"}

    def test_down_up_report(self):
        d = report_to_dict(analyze(down_up()))
        assert d == {
            "gb_verified": True,
            "omega": ["x1*x1*x2", "x1*x2*x2"],
            "growth": {"class": "polynomial", "degree": 3},
            "gldim_monomial": 3,
            "applicable": True,
            "gldim_assoc_graded": 3,
            "rees": {
                "growth": {"class": "polynomial", "degree": 4},
                "gldim": 4,
                "hilbert": {
                    "denominator": [1, -3, 2, 2, -3, 1],
                    "coefficients": [1, 3, 7, 13, 22, 34, 50, 70, 95, 125,
                                     161, 203, 252, 308, 372, 444, 525],
                    "closed_form": True,
                },
            },
            "hilbert": {
                "denominator": [1, -2, 0, 2, -1],
                "coefficients": [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42,
                                 49, 56, 64, 72, 81],
                "closed_form": True,
            },
            "product_form": [1, 1, 2],
            "chains": {
                "levels": [
                    ["x1", "x2"],
                    ["x1*x1*x2", "x1*x2*x2"],
                    ["x1*x1*x2*x2"],
                ],
                "finite": True,
            },
            "warnings": [],
        }

    def test_infinite_dimensions_encode_as_strings(self):
        d = report_to_dict(analyze(nilpotent()))
        assert d["gldim_monomial"] == "infinity"
        assert d["rees"]["gldim"] == "infinity"
        assert d["gldim_assoc_graded"] is None
        assert d["hilbert"]["denominator"] is None
        assert d["hilbert"]["closed_form"] is False
        assert d["product_form"] is None
        assert d["chains"]["finite"] is False
        assert d["growth"] == {"class": "polynomial", "degree": 0}

    def test_exponential_growth_degree_is_null(self):
        d = report_to_dict(analyze(free_algebra(2)))
        assert d["growth"] == {"class": "exponential", "degree": None}

    @pytest.mark.parametrize(
        "pres", [down_up(), ore_case_b(), nilpotent(), free_algebra(2)]
    )
    def test_json_round_trip(self, pres):
        d = report_to_dict(analyze(pres))
        assert json.loads(json.dumps(d)) == d


class TestRenderReport:
    def test_json_format_matches_dict(self):
        r = analyze(ore_case_a())
        payload = render_report(r, "json")
        assert isinstance(payload, bytes)
        assert json.loads(payload) == report_to_dict(r)

    def test_number_too_long_to_print(self):
        # the Hilbert coefficient 10^4400 has 4401 digits, over Python's
        # 4300-digit limit on integer-to-text conversion
        r = analyze(free_algebra(10), truncation=4400)
        for fmt in ("json", "text"):
            with pytest.raises(InputError, match="number too long to print"):
                render_report(r, fmt)

    @pytest.mark.parametrize("fmt", ["json", "text", "dot-bundle"])
    def test_rendering_is_deterministic(self, fmt):
        first = render_report(analyze(down_up()), fmt)
        second = render_report(analyze(down_up()), fmt)
        assert first == second

    def test_text_report_sections(self):
        text = render_report(analyze(down_up()), "text").decode()
        assert "Groebner basis: verified (2 relations, 1 overlaps checked)" in text
        assert "obstructions: x1*x1*x2, x1*x2*x2" in text
        assert "(1) growth of the monomial algebra: polynomial of degree 3" in text
        assert "(2) global dimension of the monomial algebra: 3" in text
        assert "C_2 = {x1*x1*x2*x2}" in text
        assert "C_3 = {}" in text
        assert "gl.dim of the associated graded algebra = 3" in text
        assert "gl.dim of the Rees algebra = 4" in text
        assert "closed form: 1/(1 - 2t + 2t^3 - t^4)" in text
        assert "product form: (1 - t) (1 - t) (1 - t^2)" in text
        assert "ordered-monomial (PBW) normal words: no" in text

    def test_text_report_exponential_witness(self):
        text = render_report(analyze(free_algebra(2)), "text").decode()
        assert "growth of the monomial algebra: exponential" in text
        assert "witness: two cycles through" in text
        assert "exact transfer not available" in text
        assert "gl.dim(Rees algebra) <= 2" in text

    def test_text_report_infinite_dimension(self):
        text = render_report(analyze(nilpotent()), "text").decode()
        assert "global dimension of the monomial algebra: infinite" in text
        assert "not vanishing (enumeration stopped after 64 levels)" in text
        assert "closed form: none (chain sets do not vanish)" in text

    def test_chain_words_are_not_named_one_by_one(self, monkeypatch):
        # all-squares lists 62 chain words under a budget of 64 and 4094
        # under 4096; the reports name the same number of words either way
        calls = 0

        def counted(word, alphabet):
            nonlocal calls
            calls += 1
            return word_str(word, alphabet)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "ncdim" and getattr(module, "word_str", None) is word_str:
                monkeypatch.setattr(module, "word_str", counted)
        all_squares = minimal(relations=["x1^2", "x1*x2", "x2*x1", "x2^2"])

        def named(budget):
            nonlocal calls
            with monkeypatch.context() as patch:
                patch.setattr(ncdim.chains, "MAX_LISTED_CHAINS", budget)
                report = analyze(load_presentation_data(all_squares))
                calls = 0
                for fmt in ("json", "text"):
                    render_report(report, fmt)
            return calls, sum(map(len, report.monomial.sets.levels))

        (small, listed_small), (large, listed_large) = named(64), named(4096)
        assert (listed_small, listed_large) == (62, 4094)
        assert small == large

    def test_dot_bundle_contains_all_three_graphs(self):
        bundle = render_report(analyze(down_up()), "dot-bundle").decode()
        assert "digraph growth {" in bundle
        assert "digraph chains {" in bundle
        assert "digraph rees_chains {" in bundle

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(analyze(ore_case_a()), "yaml")

    def test_unknown_graph_rejected(self):
        # DOT_NAMES maps "uf" to the DOT name "growth", which is no key
        with pytest.raises(ValueError, match="unknown graph 'growth'"):
            report_graph(analyze(ore_case_a()), "growth")


PBW_RINGS = [(commutation, n) for n in range(1, 8)] + [
    (weyl, 1), (weyl, 3), (heisenberg, 1), (heisenberg, 2)
]


def written(obj) -> str:
    out = []
    ncdim.pipeline._write_json(obj, "\n", out)
    return "".join(out)


class TestJsonWriterAgainstJsonDumps:
    """The one-pass JSON writer prints the bytes json.dumps(indent=2) prints."""

    @staticmethod
    def agree(report):
        assert render_report(report, "json") == json_report(report).encode("ascii")

    @pytest.mark.parametrize("path", INPUTS, ids=[p.stem for p in INPUTS])
    def test_golden_inputs(self, path):
        self.agree(analyze(load_presentation(path)))

    @pytest.mark.parametrize(
        "make,n", PBW_RINGS, ids=[f"{make.__name__}({n})" for make, n in PBW_RINGS]
    )
    def test_pbw_rings(self, make, n):
        self.agree(analyze(make(n)))

    def test_seeded_antichains(self, monkeypatch):
        # under a budget of 64 words some listings stop short
        monkeypatch.setattr(ncdim.chains, "MAX_LISTED_CHAINS", 64)
        shapes = collections.Counter()
        for alphabet, omega in random_antichains(60, seed=5):
            basis = GroebnerBasis([Poly.monomial(w) for w in omega.words], MonomialOrder(alphabet))
            report = analyze(basis)
            self.agree(report)
            sets = report.monomial.sets
            shapes["finite" if sets.finite else "infinite"] += 1
            shapes["truncated"] += sets.truncated
        assert min(shapes["finite"], shapes["infinite"], shapes["truncated"]) >= 5

    @pytest.mark.parametrize(
        "value",
        [
            ['"', "\\", "\n", "\t", "\x00", "\u00e9", "\U0001F600", 'a"b\\c\nd\x7f'],
            {"": "", 'k"e\\y\n': ["\u00e9"], "\U0001F600": None},
            {},
            [],
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {}}},
            [[1, 2], ["a", "b"], [[["x"]]], [], [[]]],
            ["a", 1, "b", None],
            [True, False, 1, 0, None, -5, 10 ** 150, -(10 ** 120)],
            {"t": True, "one": 1, "f": False, "zero": 0, "n": None},
            "a string",
            -7,
            None,
            True,
        ],
    )
    def test_synthetic_values(self, value):
        assert written(value) == json.dumps(value, indent=2)

    def test_values_outside_the_schema_rejected(self):
        for value in (1.5, {1: "a"}, {"a": {1, 2}}, [b"x"], ("a",)):
            with pytest.raises(TypeError):
                written(value)

    def test_number_too_long_to_print(self):
        with pytest.raises(InputError, match="number too long to print"):
            written({"coefficients": [1, 10 ** 4400]})
