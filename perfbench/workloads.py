"""Benchmark workloads: model files and CLI operations, derived from a seed.

Each workload is one model set plus an ordered list of CLI operations (one
verb per operation).  The seed jitters every spectral level and every
magnetic coefficient by at most JITTER (relative), so a claim can be
re-checked on inputs that were not used while a change was written, with
nearly the same amount of work.  Seed REFERENCE_SEED gives the inputs whose
outputs are stored in reference.json.

Only the standard library is used here, so the parent process stays light.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
JITTER = 0.01
REFERENCE_SEED = 0

WHY = {
    "circle-sweep": "count and embedded on a two-cusp circle model (delta 1 and 0.75) up to lambda ~380: long Prufer shoots, the kernel dominates",
    "torus-sweep": "count on a 2-torus cusp up to lambda ~66: thousands of short shoots, so per-fiber overhead and empty fibers show",
    "fiber-spectrum": "fiber listings by bisection, where every shoot sits near an eigenvalue, plus a phase grid: a shoot-only-near-ties shortcut is bypassed",
    "lattice-identity": "rj-identity on a 2-torus up to mu ~2.5e5 (1M modes): lattice enumeration, per-mode Python sums and memory dominate; no fibers",
}

# Spectral levels per workload and size.  "full" is what the benchmark
# measures; "tiny" is the same shape on small grids for the self-test.
# fiber-spectrum lists four fibers of similar cost, so op_s_p50 pools their
# samples; with one listing per cusp its spread over seeds was three times
# wider.
LEVELS = {
    "full": {
        "circle-sweep": {"count": (30.0, 80.0, 180.0, 380.0), "embedded": (25.0,)},
        "torus-sweep": {"count": (8.0, 14.0, 24.0, 40.0, 66.0)},
        "fiber-spectrum": {
            "fiber": ((0, 0, 60.0), (1, 0, 16.0), (0, 2, 100.0), (1, 2, 40.0)),
            "phase": (1, 0, 50.0, 800.0, 12),
        },
        "lattice-identity": {"rj-identity": (5.0e3, 2.0e4, 6.0e4, 1.5e5, 2.5e5)},
    },
    "tiny": {
        "circle-sweep": {"count": (20.0, 40.0), "embedded": (10.0,)},
        "torus-sweep": {"count": (6.0, 10.0, 16.0)},
        "fiber-spectrum": {
            "fiber": ((0, 0, 20.0), (1, 0, 8.0), (0, 2, 30.0), (1, 2, 14.0)),
            "phase": (1, 0, 20.0, 80.0, 6),
        },
        "lattice-identity": {"rj-identity": (1.0e3, 3.0e3, 1.0e4)},
    },
}


class _Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self, value: float) -> float:
        return value * math.exp(self._rng.uniform(-JITTER, JITTER))


def _model(dimension: int, cusps: list[dict]) -> dict:
    return {"dimension": dimension, "core": {"volume": 0.0, "remainder_coeff": 0.0}, "cusps": cusps}


def _circle_cusp(jit: _Jitter, delta: float) -> dict:
    return {"a": 1.0, "delta": delta, "lengths": [TWO_PI], "magnetic": [jit(0.5)]}


def _op(verb: str, model: str, series: str, **params) -> dict:
    """One CLI call: argv is completed with the model path by the caller."""
    argv = []
    for key, value in params.items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        argv += [flag, repr(value)]
    return {"verb": verb, "model": model, "series": series, "params": params, "args": argv}


def build(name: str, seed: int, size: str = "full") -> tuple[dict, list[dict]]:
    """Models (by key) and operations of workload `name` for `seed`."""
    levels = LEVELS[size][name]
    jit = _Jitter(seed)
    ops: list[dict] = []
    if name == "circle-sweep":
        # one cusp per potential branch, both on the L = 2 pi circle
        models = {"circle2": _model(2, [_circle_cusp(jit, 1.0), _circle_cusp(jit, 0.75)])}
        ops += [_op("count", "circle2", "count", lam=jit(lam)) for lam in levels["count"]]
        ops += [_op("embedded", "circle2", "embedded", lam=jit(lam)) for lam in levels["embedded"]]
    elif name == "torus-sweep":
        cusp = {
            "a": 1.0,
            "delta": 1.0,
            "lengths": [TWO_PI, TWO_PI * 1.3],
            "magnetic": [jit(0.5), jit(0.3)],
        }
        models = {"torus": _model(3, [cusp])}
        ops += [_op("count", "torus", "count", lam=jit(lam)) for lam in levels["count"]]
    elif name == "fiber-spectrum":
        models = {"circle2": _model(2, [_circle_cusp(jit, 1.0), _circle_cusp(jit, 0.75)])}
        for cusp, ell, lam in levels["fiber"]:
            ops.append(
                _op("fiber", "circle2", f"fiber-{cusp}-{ell}", lam=jit(lam), cusp=cusp, ell=ell)
            )
        cusp, ell, lo, hi, points = levels["phase"]
        ops.append(
            _op(
                "phase",
                "circle2",
                "phase",
                lambda_min=jit(lo),
                lambda_max=jit(hi),
                points=points,
                cusp=cusp,
                ell=ell,
            )
        )
    elif name == "lattice-identity":
        cusp = {
            "a": 1.0,
            "delta": 1.0,
            "lengths": [TWO_PI, TWO_PI * 1.3],
            "magnetic": [jit(0.5), jit(0.3)],
        }
        models = {"torus": _model(3, [cusp])}
        ops += [_op("rj-identity", "torus", "rj", lam=jit(mu)) for mu in levels["rj-identity"]]
    else:
        raise KeyError(name)
    return models, ops
