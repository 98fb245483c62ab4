"""One workload run in a fresh interpreter: `python3 worker.py SPEC_JSON`.

Drives `cuspspec.cli.main(argv)` in a closed loop with one client: passes
over the workload's operations, each operation timed around the CLI call
with its standard output captured, until the time budget is spent.  Every
output is checked (see checks.py); the first pass gets the full checks and
later passes must reproduce it byte for byte.  Times are reported at
reference speed (see calib.py).  With tracing on, untraced and traced
passes alternate, so the tracing overhead is measured in the same
process.  The result is written as JSON to the path in the spec.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import calib
import checks
import tracer


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {name: os.environ.get(name) for name in threads},
    }


class Runner:
    def __init__(self, spec: dict, cli, cuspspec):
        self.ops = spec["ops"]
        self.models = spec["models"]
        self.reference = spec.get("reference")
        self.cli = cli
        self.cuspspec = cuspspec
        self.first_outputs = None
        self.first_bad: set = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_id = 0

    def run_op(self, op: dict, tr) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        if tr is not None:
            tr.op = self.op_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI should never raise; record it
            rc, err = -1, io.StringIO(repr(exc))
        elapsed = time.perf_counter() - start
        if tr is not None:
            tr.op = -1
        self.op_id += 1
        if rc != 0:
            return elapsed, rc, "exit %s: %s" % (rc, err.getvalue().strip()[:300])
        return elapsed, rc, out.getvalue()

    def _fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i} ({' '.join(self.ops[i]['argv'][:1])}): {problem}")

    def full_checks(self, outputs: list, codes: list) -> set:
        """Check one pass's outputs; return the indices of failed operations."""
        tables = []
        bad = set()
        for i, (op, text, rc) in enumerate(zip(self.ops, outputs, codes)):
            if rc != 0:
                tables.append(None)
                bad.add(i)
                self._fail(i, text)
                continue
            try:
                rows = checks.parse_table(op["verb"], text)
            except ValueError as exc:
                tables.append(None)
                bad.add(i)
                self._fail(i, f"unparseable output: {exc}")
                continue
            tables.append(rows)
            problems = checks.invariants(op, rows)
            if self.reference is not None:
                problems += checks.compare_reference(op["verb"], rows, self.reference[i])
            if op["verb"] == "fiber" and not problems:
                problems += checks.fd_sample(op, rows, self.models[op["model"]], self.cuspspec)
            if problems:
                bad.add(i)
                self._fail(i, "; ".join(problems[:3]))
        for i, problem in checks.series_invariants(self.ops, tables):
            if i not in bad:
                bad.add(i)
                self._fail(i, problem)
        return bad

    def one_pass(self, tr=None) -> dict:
        """Run every operation once."""
        gc.collect()
        outputs, codes, raw = [], [], []
        cal = [calib.calibrate()]
        for op in self.ops:
            elapsed, rc, text = self.run_op(op, tr)
            cal.append(calib.calibrate(elapsed))
            outputs.append(text)
            codes.append(rc)
            raw.append(elapsed)
        self.attempted += len(self.ops)
        if self.first_outputs is None:
            self.first_outputs = outputs
            self.first_bad = self.full_checks(outputs, codes)
        else:
            for i, (text, first) in enumerate(zip(outputs, self.first_outputs)):
                if text != first:
                    self._fail(i, "output differs from the first pass")
                elif i in self.first_bad:
                    self.failed += 1  # the same wrong output as in the first pass
        out_bytes = sum(len(text.encode()) for text in outputs)
        return {"seconds": raw, "cal": cal, "factor": calib.speed_factor(cal), "out_bytes": out_bytes}


def scaled(record: dict) -> list[float]:
    """The pass's operation times at reference speed, each scaled by the
    calibrations on either side of it."""
    cal = record["cal"]
    return [t * calib.speed_factor(cal[i:i + 2]) for i, t in enumerate(record["seconds"])]


def pass_wall(passes: list) -> float:
    """Time of one pass at reference speed: the sum over operations of each
    operation's median across passes."""
    return sum(statistics.median(col) for col in zip(*map(scaled, passes)))


TIME_UNITS = {"s", "ms", "us", "ns"}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import cuspspec
    import cuspspec.cli as cli

    tr = tracer.Tracer() if spec["trace"] else None
    if spec.get("inject_wrong_count"):
        inject_wrong_count(cuspspec)
    runner = Runner(spec, cli, cuspspec)
    start = time.perf_counter()
    untraced, traced, per_pass, all_spans = [], [], [], []
    while True:
        untraced.append(runner.one_pass())
        if tr is not None:
            tr.install()
            try:
                record = runner.one_pass(tr)
            finally:
                tr.uninstall()
            traced.append(record)
            spans = tr.take()
            all_spans.append(spans)
            layers = tracer.layer_metrics(spans, sum(record["seconds"]), record["out_bytes"])
            for metric, unit, *_ in tracer.LAYER_METRICS:
                if unit in TIME_UNITS and layers.get(metric) is not None:
                    layers[metric] *= record["factor"]
            per_pass.append(layers)
        # stop when one more round of average length would overrun the budget
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / len(untraced)) > spec["seconds"]:
            break

    op_samples = [t for p in untraced for t in scaled(p)]
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "wall_s": pass_wall(untraced),
        "op_s_p50": statistics.median(op_samples),
        "op_samples": len(op_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "passes": untraced,
        "traced_passes": traced,
    }
    if tr is not None:
        layers = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            layers[name] = None if None in values else statistics.median(values)
        layers["trace.overhead_frac"] = pass_wall(traced) / pass_wall(untraced) - 1.0
        result["layers"] = layers
        result["unobserved"] = tracer.unobserved(tr.names)
        result["span_count"] = sum(len(s) for s in all_spans)
        write_spans(spec["spans_path"], all_spans)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def write_spans(path: str, passes: list) -> None:
    """One JSON line per span: pass, id, name, start, end, parent, op, value."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for sid, (name, start, end, parent, op, value) in enumerate(spans):
                fh.write(json.dumps([k, sid, name, start, end, parent, op, value]) + "\n")


def inject_wrong_count(cuspspec) -> None:
    """Self-test fault: every nonzero fiber count is one too high, and every
    cross-section spectrum loses its largest mode."""
    fiber_count = cuspspec.fiber.fiber_count
    mu_spectrum = cuspspec.cross_section.mu_spectrum

    def wrong_fiber_count(*args, **kwargs):
        count = fiber_count(*args, **kwargs)
        return count + 1 if count > 0 else count

    def wrong_mu_spectrum(*args, **kwargs):
        spec = mu_spectrum(*args, **kwargs)
        return type(spec)(tau=spec.tau, values=spec.values[:-1], cutoff=spec.cutoff)

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("cuspspec"):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is fiber_count:
                setattr(module, attr, wrong_fiber_count)
            elif obj is mu_spectrum:
                setattr(module, attr, wrong_mu_spectrum)


if __name__ == "__main__":
    sys.exit(main())
