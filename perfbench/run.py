"""cuspspec benchmark: `python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`, from the root of a source checkout.

The program is used from source (src/ on PYTHONPATH); nothing is built or
installed.  One run:

1. writes the workload's model files, generated from the seed, under
   perfbench/out/;
2. with --trace 0, measures set-up: SETUP_REPEATS fresh interpreters each
   run `import cuspspec`, `load_model` and `validate_model`;
3. runs worker.py in a fresh single-threaded interpreter (BLAS threads
   pinned to 1), which calls `cuspspec.cli.main(argv)` in a closed loop
   with one client for S seconds and checks every output;
4. writes the result, with the environment, to perfbench/out/results/ and
   prints a summary, then one JSON line with the metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1 (spans go
   to perfbench/out/spans/).

Exit status is 0 with a result, 2 when the checkout holds no program, and
3 when a step fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEADLINE_S = 170.0
SETUP_REPEATS = {"full": 5, "tiny": 1}

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}

SETUP_CODE = (
    "import sys, cuspspec\n"
    "model = cuspspec.load_model(sys.argv[1])\n"
    "sys.exit(1 if cuspspec.validate_model(model) else 0)\n"
)


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(model_path: Path, repeats: int, deadline: float) -> list[float]:
    """Seconds of each fresh-interpreter set-up.  These are not scaled by
    calib.py: the loop, run in this process, does not follow the speed of a
    process start-up."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(model_path)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RunError(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return times


def run_worker(spec: dict, spec_path: Path, deadline: float) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result_path"])
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError("workload overran the deadline") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_reference(name: str, seed: int, size: str, ops: list):
    """Stored output tables of the workload's operations, on the reference seed."""
    if seed != workloads.REFERENCE_SEED:
        return None
    tables = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference = tables.get(size, {}).get(name)
    if reference is None or len(reference) != len(ops):
        raise RunError(f"reference.json has no tables for {name}/{size}; run make_reference.py")
    return reference


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_layers(name: str, result: dict) -> None:
    layers, unobserved = result["layers"], set(result["unobserved"])
    print(f"per-layer metrics, {name} (trace.overhead_frac {layers['trace.overhead_frac']:+.3f}):")
    for metric, unit, _better, _required, moves in tracer.LAYER_METRICS:
        value = layers.get(metric)
        if metric in unobserved:
            shown = "not observed"
        elif value is None:
            shown = "n/a"
        else:
            shown = f"{_fmt(value)} {unit}"
        print(f"  {metric:<28} {shown:<22} moves: {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.LEVELS), default="full",
                        help="tiny: small grids, for the self-test")
    parser.add_argument("--inject-wrong-count", action="store_true",
                        help="self-test fault: the program returns wrong counts")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "cuspspec" / "__init__.py").is_file():
        print(f"no cuspspec sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    work = OUT / "work" / tag
    for sub in (work, OUT / "results", OUT / "spans"):
        sub.mkdir(parents=True, exist_ok=True)
    models, ops = workloads.build(args.workload, args.seed, args.size)
    model_paths = {}
    for key, model in models.items():
        model_paths[key] = work / f"{key}.json"
        model_paths[key].write_text(json.dumps(model, indent=2) + "\n", encoding="utf-8")
    for op in ops:
        op["argv"] = [op["verb"], str(model_paths[op["model"]])] + op["args"]

    try:
        setup = []
        if not args.trace:
            first_model = next(iter(model_paths.values()))
            setup = measure_setup(first_model, SETUP_REPEATS[args.size], deadline)
        spec = {
            "src": str(SRC),
            "ops": ops,
            "models": models,
            "reference": load_reference(args.workload, args.seed, args.size, ops),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "inject_wrong_count": args.inject_wrong_count,
            "result_path": str(work / f"worker-trace{args.trace}.json"),
            "spans_path": str(OUT / "spans" / f"{tag}.jsonl"),
        }
        result = run_worker(spec, work / "spec.json", deadline)
    except (RunError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics = {
            metric: {"value": result["layers"].get(metric) or 0, "unit": unit}
            for metric, unit, _b, _r, _m in tracer.LAYER_METRICS
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": result["wall_s"],
            "op_s_p50": result["op_s_p50"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process",
        "env": result["env"],
        "timing": "wall_s, op_s_p50 and per-layer times at reference speed (calib.py); "
                  "passes hold raw seconds and calibration samples",
        "op_samples": result["op_samples"],
        "span_count": result.get("span_count", 0),
        "setup_samples_s": setup,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": metrics,
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
    }
    results_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
        f"{result['attempted']} operations, {result['failed']} failed; "
        f"op samples {record['op_samples']}; result in {results_path.relative_to(ROOT)}"
    )
    for problem in result["problems"]:
        print("  problem: " + problem)
    if args.trace:
        print_layers(args.workload, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
