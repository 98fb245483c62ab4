"""Golden CLI outputs: every verb on six reference models, CSV and JSON.

Each case runs `cuspspec.cli.main` in-process and compares stdout, stderr,
the exit code and any Python warnings with the record in
`tests/golden/cli.json`.  Regenerate the record (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_golden.py

which prints, before writing, each case whose output changed, whether any
integer token in it changed, and the largest relative change of its float
tokens, so that a regeneration can be reviewed from its log.
"""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from cuspspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("circle_delta1", "circle_delta075", "circle_zero_field", "two_cusp", "torus3",
          "two_floors")
FORMATS = ("csv", "json")

# verb arguments after the model path; the last cusp index is used on the
# two-cusp models so that a second cusp is exercised.  two_floors is
# two_cusp with a = 0.5 and 1.5, so that the cusps' floors a^(4 delta) differ
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
    return "1" if model in ("two_cusp", "two_floors") else "0"


def _case_id(model: str, verb: str, fmt: str) -> str:
    return f"{model}/{verb}/{fmt}"


CASES = [(m, v, f) for m in MODELS for v in VERBS for f in FORMATS]

# a decimal number; a token without "." or an exponent is an integer
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


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


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def _field_change(before, after) -> tuple[bool, bool, float]:
    """(text outside the numbers changed, an integer token changed, largest
    relative change of a float token) between two values of a record field."""
    a, b = (v if isinstance(v, str) else json.dumps(v) for v in (before, after))
    nums_a, nums_b = NUMBER.findall(a), NUMBER.findall(b)
    if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(nums_a) != len(nums_b):
        return True, False, 0.0
    ints, worst = False, 0.0
    for x, y in zip(nums_a, nums_b):
        if x == y:
            continue
        if _is_int(x) or _is_int(y):
            ints = True
        else:
            fx, fy = float(x), float(y)
            worst = max(worst, abs(fy - fx) / abs(fx) if fx else math.inf)
    return False, ints, worst


def change_report(old: dict, new: dict) -> list[str]:
    """One line per case of new whose record differs from old, then a summary."""
    lines, any_text, any_ints, worst = [], False, False, 0.0
    for case, after in new.items():
        before = old.get(case)
        if before == after:
            continue
        if before is None:
            lines.append(f"{case}: new case")
            any_text = True
            continue
        fields = [k for k in after if after[k] != before.get(k)]
        text, ints, rel = False, False, 0.0
        for k in fields:
            t, i, r = _field_change(before.get(k), after[k])
            text, ints, rel = text or t, ints or i, max(rel, r)
        any_text, any_ints, worst = any_text or text, any_ints or ints, max(worst, rel)
        lines.append(
            f"{case}: {', '.join(fields)} changed; text {'CHANGED' if text else 'unchanged'}; "
            f"integers {'CHANGED' if ints else 'unchanged'}; largest float change {rel:.2e}"
        )
    for case in sorted(old.keys() - new.keys()):
        lines.append(f"{case}: case removed")
        any_text = True
    lines.append(
        f"{len(lines)} cases differ from the old record, of {len(new)}; text {'CHANGED' if any_text else 'unchanged'}; "
        f"integers {'CHANGED' if any_ints else 'unchanged'}; largest float change {worst:.2e}"
    )
    return lines


def test_change_report_names_every_kind_of_change():
    old = {
        "same": {"exit": 0, "stdout": "lam,count\n30.0,7\n"},
        "float": {"exit": 0, "stdout": "w,1.5\n"},
        "int": {"exit": 0, "stdout": "count,7\n"},
        "text": {"exit": 1, "stdout": "a\n"},
        "gone": {"exit": 0, "stdout": ""},
    }
    new = {
        "same": old["same"],
        "float": {"exit": 0, "stdout": "w,1.5000000000003\n"},
        "int": {"exit": 0, "stdout": "count,8\n"},
        "text": {"exit": 1, "stdout": "b\n"},
        "added": {"exit": 0, "stdout": ""},
    }
    lines = change_report(old, new)
    assert lines[0].startswith("float: stdout changed; text unchanged; integers unchanged")
    assert lines[0].endswith("largest float change 2.00e-13")
    assert lines[1].startswith("int: stdout changed; text unchanged; integers CHANGED")
    assert lines[2].startswith("text: stdout changed; text CHANGED")
    assert lines[3:5] == ["added: new case", "gone: case removed"]
    assert lines[5].startswith(
        "5 cases differ from the old record, of 5; text CHANGED; integers CHANGED"
    )
    assert change_report(old, old)[-1].startswith(
        "0 cases differ from the old record, of 5; text unchanged; integers unchanged"
    )


if __name__ == "__main__":
    path = GOLDEN / "cli.json"
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    record = {_case_id(*case): run_case(*case) for case in CASES}
    print("\n".join(change_report(old, record)))
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} cases")
