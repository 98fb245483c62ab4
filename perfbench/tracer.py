"""Per-layer tracing of cuspspec from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
bound under every module attribute that holds the original, so calls made
through `from .fiber import fiber_count` are traced as well as calls inside
the defining module.  A span is (name, start, end, parent, operation id,
value), where value is the size of the result for the few functions whose
result is a count.  Nothing under src/ is modified: install() and
uninstall() only rebind module attributes in memory.

LAYER_METRICS lists every per-layer metric with its unit, the direction
that is better, the function names it is derived from (a metric whose
function no longer exists is reported as not observed), and the end-to-end
metric and workload it is expected to move.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("model", "cross_section", "fiber", "weyl", "embedded", "cli")

# result -> recorded value, for functions whose result size is a work count
MEASURE = {
    "fiber.fiber_count": int,
    "fiber.fiber_eigenvalues": len,
    "cross_section.mu_spectrum": len,
}

# name, unit, better, required names, what it should move.  A required
# name is a function ('fiber.fiber_count') or a whole layer ('fiber'), which
# counts as present when any of its public functions is wrapped.
LAYER_METRICS = (
    ("fiber.count_calls", "count", "lower", ("fiber.fiber_count",),
     "wall_s, op_s_p50 on circle-sweep and fiber-spectrum; none on lattice-identity"),
    ("fiber.self_s", "s", "lower", ("fiber",),
     "wall_s, op_s_p50 on circle-sweep and fiber-spectrum; none on lattice-identity"),
    ("fiber.ms_per_count", "ms", "lower", ("fiber.fiber_count",),
     "wall_s, op_s_p50 on circle-sweep and fiber-spectrum; none on lattice-identity"),
    ("fiber.eigs", "count", "higher", ("fiber.fiber_count",),
     "invariant: sum of fiber counts, the work unit of fiber.us_per_eig"),
    ("fiber.us_per_eig", "us", "lower", ("fiber.fiber_count",),
     "wall_s, op_s_p50 on circle-sweep and fiber-spectrum; falls only when work grows slower than the count"),
    ("fiber.nonzero_frac", "ratio", "higher", ("fiber.fiber_count",),
     "wall_s on torus-sweep (empty fibers skipped)"),
    ("fiber.turning_calls", "count", "lower", ("fiber.turning_point",),
     "wall_s on torus-sweep"),
    ("fiber.turning_s", "s", "lower", ("fiber.turning_point",),
     "wall_s on torus-sweep"),
    ("fiber.bisect_counts_per_eig", "ratio", "lower",
     ("fiber.fiber_count", "fiber.fiber_eigenvalues"),
     "wall_s on fiber-spectrum"),
    ("cross_section.calls", "count", "lower", ("cross_section",),
     "wall_s, peak_rss_mb on lattice-identity; under 1% of wall elsewhere"),
    ("cross_section.self_s", "s", "lower", ("cross_section",),
     "wall_s, peak_rss_mb on lattice-identity; under 1% of wall elsewhere"),
    ("cross_section.modes", "count", "lower", ("cross_section.mu_spectrum",),
     "wall_s, peak_rss_mb on lattice-identity"),
    ("cross_section.ns_per_mode", "ns", "lower", ("cross_section.mu_spectrum",),
     "wall_s, peak_rss_mb on lattice-identity"),
    ("weyl.count_calls", "count", "lower", ("weyl.cusp_count",),
     "wall_s on circle-sweep and torus-sweep"),
    ("weyl.self_s", "s", "lower", ("weyl",),
     "wall_s on lattice-identity (per-mode Python sums)"),
    ("weyl.phase_calls", "count", "lower", ("weyl.phase_integral",),
     "wall_s on torus-sweep and fiber-spectrum once shoots are rare"),
    ("weyl.phase_s", "s", "lower", ("weyl.phase_integral",),
     "wall_s on torus-sweep and fiber-spectrum once shoots are rare"),
    ("embedded.calls", "count", "lower", ("embedded",),
     "wall_s on circle-sweep"),
    ("embedded.self_s", "s", "lower", ("embedded",),
     "wall_s on circle-sweep"),
    ("embedded.n_ess_s", "s", "lower", ("embedded.n_ess_exact",),
     "wall_s on circle-sweep"),
    ("model.load_s", "s", "lower", ("model.load_model",),
     "setup_s and op_s_p50 on every workload"),
    ("model.validate_s", "s", "lower", ("model.validate_model",),
     "setup_s and op_s_p50 on every workload"),
    ("cli.calls", "count", "lower", ("cli.main",),
     "invariant: one per operation"),
    ("cli.self_s", "s", "lower", ("cli",),
     "setup_s and op_s_p50 on every workload"),
    ("cli.out_bytes", "bytes", "lower", (),
     "op_s_p50 on every workload; byte-identical output keeps it fixed"),
    ("trace.overhead_frac", "ratio", "lower", (),
     "none: traced / untraced wall - 1, the cost of this instrumentation"),
    ("trace.coverage_frac", "ratio", "higher", ("cli.main",),
     "none: share of traced operation wall inside a layer span"),
)


class Tracer:
    """Records spans of cuspspec's public functions while an operation runs."""

    def __init__(self, package: str = "cuspspec"):
        self.package = package
        self.spans: list = []
        self.op = -1  # operation id; spans are recorded only while >= 0
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._bound: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                self._wrappers[name] = self._wrap(name, obj, MEASURE.get(name))

    @property
    def names(self) -> set[str]:
        """Qualified names of the wrapped functions, e.g. 'fiber.fiber_count'."""
        return set(self._originals)

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = None
                if measure is not None and result is not None:
                    try:
                        value = measure(result)
                    except (TypeError, ValueError):
                        pass
                spans[sid] = (name, start, end, parent, self.op, value)

        return traced

    def install(self) -> None:
        by_id = {id(fn): name for name, fn in self._originals.items()}
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                name = by_id.get(id(obj))
                if name is not None and obj is self._originals[name]:
                    setattr(module, attr, self._wrappers[name])
                    self._bound.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bound):
            setattr(module, attr, obj)
        self._bound.clear()

    def take(self) -> list:
        """Spans recorded so far; the buffer is emptied."""
        done = list(self.spans)
        self.spans.clear()
        return done


def _ratio(num, den, scale=1.0):
    return None if not den else scale * num / den


def layer_metrics(spans: list, op_seconds: float, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_frac excepted).

    A ratio is None when its denominator is zero.
    """
    n = len(spans)
    child = [0.0] * n
    in_listing = [False] * n
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    value_sum: dict[str, int] = {}
    nonzero: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_entries = {layer: 0 for layer in LAYERS}
    listing_counts = 0
    root_seconds = 0.0
    for sid, (name, start, end, parent, _op, value) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_listing[sid] = in_listing[parent] or spans[parent][0] == "fiber.fiber_eigenvalues"
        else:
            root_seconds += end - start
    for sid, (name, start, end, parent, _op, value) in enumerate(spans):
        layer = name.split(".", 1)[0]
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + duration
        if value is not None:
            value_sum[name] = value_sum.get(name, 0) + value
            nonzero[name] = nonzero.get(name, 0) + (value > 0)
        layer_self[layer] += duration - child[sid]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_entries[layer] += 1
        if name == "fiber.fiber_count" and in_listing[sid]:
            listing_counts += 1

    count_calls = calls.get("fiber.fiber_count", 0)
    eigs = value_sum.get("fiber.fiber_count", 0)
    count_s = incl.get("fiber.fiber_count", 0.0)
    modes = value_sum.get("cross_section.mu_spectrum", 0)
    values = {
        "fiber.count_calls": count_calls,
        "fiber.self_s": layer_self["fiber"],
        "fiber.ms_per_count": _ratio(count_s, count_calls, 1e3),
        "fiber.eigs": eigs,
        "fiber.us_per_eig": _ratio(count_s, eigs, 1e6),
        "fiber.nonzero_frac": _ratio(nonzero.get("fiber.fiber_count", 0), count_calls),
        "fiber.turning_calls": calls.get("fiber.turning_point", 0),
        "fiber.turning_s": incl.get("fiber.turning_point", 0.0),
        "fiber.bisect_counts_per_eig": _ratio(
            listing_counts, value_sum.get("fiber.fiber_eigenvalues", 0)
        ),
        "cross_section.calls": layer_entries["cross_section"],
        "cross_section.self_s": layer_self["cross_section"],
        "cross_section.modes": modes,
        "cross_section.ns_per_mode": _ratio(layer_self["cross_section"], modes, 1e9),
        "weyl.count_calls": calls.get("weyl.cusp_count", 0),
        "weyl.self_s": layer_self["weyl"],
        "weyl.phase_calls": calls.get("weyl.phase_integral", 0),
        "weyl.phase_s": incl.get("weyl.phase_integral", 0.0),
        "embedded.calls": layer_entries["embedded"],
        "embedded.self_s": layer_self["embedded"],
        "embedded.n_ess_s": incl.get("embedded.n_ess_exact", 0.0),
        "model.load_s": incl.get("model.load_model", 0.0),
        "model.validate_s": incl.get("model.validate_model", 0.0),
        "cli.calls": layer_entries["cli"],
        "cli.self_s": layer_self["cli"],
        "cli.out_bytes": out_bytes,
        "trace.coverage_frac": _ratio(root_seconds, op_seconds),
    }
    return values


def unobserved(names: set[str]) -> list[str]:
    """Metrics that need a function or layer that was not found."""
    present = names | {name.split(".", 1)[0] for name in names}
    return [m for m, _u, _b, required, _w in LAYER_METRICS if not set(required) <= present]
