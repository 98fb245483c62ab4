"""Golden CLI outputs: every verb on five reference models, CSV and JSON.

Each case runs `cuspspec.cli.main` in-process and compares stdout, stderr,
the exit code and any Python warnings with the record in
`tests/golden/cli.json`.  Regenerate the record (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from cuspspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("circle_delta1", "circle_delta075", "circle_zero_field", "two_cusp", "torus3")
FORMATS = ("csv", "json")

# verb arguments after the model path; the last cusp index is used on the
# two-cusp model so that a second cusp is exercised
VERBS = {
    "validate": lambda model: ["validate"],
    "count": lambda model: ["count", "--lambda", "30"],
    "sweep-nofit": lambda model: ["sweep", "--lambda-min", "5", "--lambda-max", "30",
                                  "--points", "3"],
    "sweep-fit": lambda model: ["sweep", "--lambda-min", "2", "--lambda-max", "40",
                                "--points", "8"],
    "fiber": lambda model: ["fiber", "--lambda", "30", "--ell", "1",
                            "--cusp", _last_cusp(model)],
    "phase-robin": lambda model: ["phase", "--lambda-min", "10", "--lambda-max", "40",
                                  "--points", "3", "--ell", "1", "--boundary", "robin",
                                  "--cusp", _last_cusp(model)],
    "perturb": lambda model: ["perturb", "--tau-max", "0.1", "--points", "4",
                              "--cusp", _last_cusp(model)],
    "embedded": lambda model: ["embedded", "--lambda", "20"],
    "rj-identity": lambda model: ["rj-identity", "--lambda-min", "10", "--lambda-max",
                                  "1000", "--points", "3", "--cusp", _last_cusp(model)],
}


def _last_cusp(model: str) -> str:
    return "1" if model == "two_cusp" else "0"


def _case_id(model: str, verb: str, fmt: str) -> str:
    return f"{model}/{verb}/{fmt}"


CASES = [(m, v, f) for m in MODELS for v in VERBS for f in FORMATS]


def run_case(model: str, verb: str, fmt: str) -> dict:
    path = GOLDEN / "models" / f"{model}.json"
    argv = VERBS[verb](model)
    argv = [argv[0], str(path), *argv[1:], "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return {
        "argv": [argv[0], f"{model}.json", *argv[2:]],
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [str(w.message) for w in caught],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("model,verb,fmt", CASES, ids=[_case_id(*c) for c in CASES])
def test_cli_output_unchanged(golden, model, verb, fmt):
    assert run_case(model, verb, fmt) == golden[_case_id(model, verb, fmt)]


if __name__ == "__main__":
    record = {_case_id(*case): run_case(*case) for case in CASES}
    (GOLDEN / "cli.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} cases")
