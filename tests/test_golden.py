"""Byte-exact CLI output against checked-in reference files.

Every subcommand and format is run in process on each sample under
``presentations/`` and on the exponential inputs under ``golden/inputs/``
(the free algebra on two letters, x1^3 and the power family at n = 3).  The
reference files live in ``golden/<input>/<variant>.out``.  Regenerate them,
only from a commit whose output is trusted, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ncdim.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
INPUTS = sorted((HERE.parent / "presentations").glob("*.json")) + sorted(
    (GOLDEN / "inputs").glob("*.json")
)

VARIANTS = {
    "check-gb": ["check-gb"],
    "growth": ["growth"],
    "gldim": ["gldim"],
    "hilbert": ["hilbert"],
    "rees": ["rees"],
    "pbw": ["pbw"],
    "graph-uf": ["graph", "--which", "uf"],
    "graph-uf-dot": ["graph", "--which", "uf", "--dot"],
    "graph-chains": ["graph", "--which", "chains"],
    "graph-chains-dot": ["graph", "--which", "chains", "--dot"],
    "graph-rees-chains": ["graph", "--which", "rees-chains"],
    "graph-rees-chains-dot": ["graph", "--which", "rees-chains", "--dot"],
    "report-json": ["report", "--format", "json"],
    "report-text": ["report", "--format", "text"],
    "report-dot-bundle": ["report", "--format", "dot-bundle"],
}


def run_cli(path: Path, variant: str) -> bytes:
    command, *options = VARIANTS[variant]
    argv = [command, str(path), *options]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"ncdim {' '.join(argv)} exited {code}"
    return out.getvalue().encode("utf-8")


def reference(path: Path, variant: str) -> Path:
    return GOLDEN / path.stem / f"{variant}.out"


CASES = [(path, variant) for path in INPUTS for variant in VARIANTS]


def test_inputs_cover_samples_and_exponential_cases():
    stems = {path.stem for path in INPUTS}
    assert {"free2", "x1_cubed", "power_family3", "down_up"} <= stems


@pytest.mark.parametrize(
    "path,variant", CASES, ids=[f"{p.stem}-{v}" for p, v in CASES]
)
def test_output_matches_reference(path, variant):
    assert run_cli(path, variant) == reference(path, variant).read_bytes()


@pytest.mark.parametrize("path", INPUTS, ids=[p.stem for p in INPUTS])
def test_json_report_reference_is_the_standard_library_layout(path):
    # the references pin json.dumps(indent=2) itself, not only what the
    # report's own writer prints
    text = reference(path, "report-json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("path", INPUTS, ids=[p.stem for p in INPUTS])
def test_text_report_lines_end_without_whitespace(path):
    lines = run_cli(path, "report-text").decode("utf-8").splitlines()
    assert [line for line in lines if line != line.rstrip()] == []


if __name__ == "__main__":
    for path, variant in CASES:
        target = reference(path, variant)
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(run_cli(path, variant))
    print(f"wrote {len(CASES)} reference files under {GOLDEN}", file=sys.stderr)
