"""Fast self-test of the benchmark harness: `python3 perfbench/selftest.py`.

Runs every workload on its tiny grids (about a minute in all) and checks
that:

* BENCHMARK.json lists exactly the workloads and metrics the harness emits;
* every end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
  is emitted, with a positive value where one is always expected;
* an injected wrong count makes the run report failed operations;
* a checkout without the program exits non-zero without printing a result;
* a layer or function that no longer exists is reported as not observed.

Exit status 0 when everything holds; the first failure is printed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# per-layer metrics that can be zero on some workload (no fibers, no listing)
MAY_BE_ZERO = {
    "fiber.count_calls", "fiber.self_s", "fiber.ms_per_count", "fiber.eigs",
    "fiber.us_per_eig", "fiber.nonzero_frac", "fiber.turning_calls", "fiber.turning_s",
    "fiber.bisect_counts_per_eig", "weyl.count_calls", "weyl.phase_calls", "weyl.phase_s",
    "embedded.calls", "embedded.self_s", "embedded.n_ess_s", "trace.overhead_frac",
}


class Failure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def bench(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout + proc.stderr


def result_of(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WHY), "workload list differs")
    for w in spec["workloads"]:
        check(w["why"] == workloads.WHY[w["name"]], f"why of {w['name']} differs from workloads.WHY")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "end_to_end metrics differ from run.END_TO_END_UNITS")
    expected = [{"name": n, "unit": u, "better": b} for n, u, b, _r, _m in tracer.LAYER_METRICS]
    check(spec["per_layer"] == expected, "per_layer metrics differ from tracer.LAYER_METRICS")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds["setup_s"] == max(bounds.values()), "setup_s must have the largest bound")


def test_workloads() -> None:
    for name in workloads.WHY:
        for trace, names in ((0, list(run.END_TO_END_UNITS)), (1, [m[0] for m in tracer.LAYER_METRICS])):
            code, out = bench(ROOT, "--workload", name, "--size", "tiny", "--seconds", "1",
                              "--trace", str(trace))
            check(code == 0, f"{name} trace {trace}: exit {code}\n{out[-2000:]}")
            res = result_of(out)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace {trace}: {res['attempted']} attempted, {res['failed']} failed\n{out[-2000:]}")
            check(list(res["metrics"]) == names, f"{name} trace {trace}: metrics {list(res['metrics'])}")
            for metric, entry in res["metrics"].items():
                if trace == 0 or metric not in MAY_BE_ZERO:
                    check(entry["value"] > 0, f"{name} trace {trace}: {metric} = {entry['value']}")
            if trace:
                coverage = res["metrics"]["trace.coverage_frac"]["value"]
                check(coverage >= 0.95, f"{name}: trace.coverage_frac {coverage}")
        print(f"ok  {name}: every metric emitted", flush=True)


def test_injected_wrong_count() -> None:
    for name in workloads.WHY:
        code, out = bench(ROOT, "--workload", name, "--size", "tiny", "--seconds", "1",
                          "--trace", "0", "--inject-wrong-count")
        check(code == 0, f"{name} injected: exit {code}\n{out[-2000:]}")
        res = result_of(out)
        check(res["failed"] > 0 and not res["correct"], f"{name}: injected wrong count not detected")
        print(f"ok  {name}: injected wrong count fails {res['failed']}/{res['attempted']}", flush=True)


def test_without_program() -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(BENCH / "reference.json", bare / "perfbench")
    code, out = bench(bare, "--workload", "circle-sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and '"metrics"' not in out, f"bare checkout: exit {code}, output {out[-500:]}")
    print(f"ok  bare checkout exits {code} without a result", flush=True)


def test_not_observed() -> None:
    names = {"fiber.fiber_count", "cli.main", "cli.run"}
    missing = set(tracer.unobserved(names))
    check("fiber.turning_s" in missing and "weyl.self_s" in missing, "missing names not reported")
    check("fiber.count_calls" not in missing and "cli.self_s" not in missing, "present names reported")
    empty = tracer.Tracer(package="cuspspec_absent")
    check(empty.names == set(), "absent package wrapped something")
    metrics = tracer.layer_metrics([], 1.0, 0)
    check(metrics["fiber.ms_per_count"] is None and metrics["fiber.count_calls"] == 0,
          "empty trace metrics")
    print("ok  missing layers are reported as not observed", flush=True)


def main() -> int:
    try:
        test_benchmark_json()
        test_not_observed()
        test_without_program()
        test_workloads()
        test_injected_wrong_count()
    except Failure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
