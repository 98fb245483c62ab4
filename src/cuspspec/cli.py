"""Batch front door: one model file, one verb, one table per process.

Exit status: 0 on success, 1 when the model file fails to parse or
validate, 2 when a computation errors out.  Errors are emitted as a JSON
object on stderr so batch drivers can route them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cross_section import mu0, mu_spectrum
from .embedded import embedded_upper_bound
from .fiber import (
    ANGLE_TOL,
    REL_TOL,
    T_MARGIN,
    BoundaryCondition,
    FiberPotential,
    fiber_eigenvalues,
    fiber_count,
)
from .model import FLUX_TOL, cusp_floor, load_model, validate_model
from .weyl import (
    PHASE_QUAD_TOL,
    fit_remainder_samples,
    phase_integral,
    remainder_model,
    rj_identity,
    theta_sum,
    total_count_bracket,
)

SWEEP_COLUMNS = (
    "lambda",
    "count_low",
    "count_high",
    "leading",
    "residual_low",
    "residual_high",
    "theta_sum",
    "r_model",
)

EMBEDDED_COLUMNS = (
    "lambda",
    "rho",
    "tau",
    "c_a",
    "shifted_lambda",
    "n_ess",
    "bound",
    "leading",
    "r0",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    """value with every non-finite float as None: JSON has no NaN or
    Infinity (RFC 8259), and strict parsers reject them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(columns, rows, meta, fmt: str, out: Optional[str], footer_lines=()) -> None:
    if fmt == "json":
        payload = {"rows": [dict(zip(columns, row)) for row in rows], "meta": meta}
        text = json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        lines += list(footer_lines)
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _error(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def _meta(args, model_path: str) -> dict:
    digest = hashlib.sha256(Path(model_path).read_bytes()).hexdigest()
    return {
        "tool": "cuspspec",
        "version": __version__,
        "verb": args.verb,
        "model_sha256": digest,
        "tolerances": {
            "flux_tol": FLUX_TOL,
            "rel_tol": REL_TOL,
            "angle_tol": ANGLE_TOL,
            "t_margin": T_MARGIN,
            "phase_quad_tol": PHASE_QUAD_TOL,
        },
    }


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")
    return value


def _lambda_grid(args) -> list[float]:
    if getattr(args, "lam", None) is not None:
        return [_finite("--lambda", args.lam)]
    lo, hi, pts = args.lambda_min, args.lambda_max, args.points
    if lo is None or hi is None or pts is None:
        raise ValueError("need --lambda or all of --lambda-min/--lambda-max/--points")
    _finite("--lambda-min", lo)
    _finite("--lambda-max", hi)
    if not lo < hi:
        raise ValueError("--lambda-min must be strictly below --lambda-max")
    _points(pts)
    if args.linear:
        return [float(x) for x in np.linspace(lo, hi, pts)]
    if lo <= 0:
        raise ValueError("geometric grid needs --lambda-min > 0")
    return [float(x) for x in np.geomspace(lo, hi, pts)]


def _points(pts: int) -> int:
    if pts < 2:
        raise ValueError("--points must be >= 2")
    return pts


def _cusp(model, args):
    if not 0 <= args.cusp < len(model.cusps):
        raise ValueError(
            f"--cusp must be in [0, {len(model.cusps)}) for this model, got {args.cusp}"
        )
    return model.cusps[args.cusp]


def _fiber_for(model, args) -> FiberPotential:
    cusp = _cusp(model, args)
    cusp_floor(model, args.cusp)  # a floor that underflows names the cusp
    if args.ell < 0:
        raise ValueError(f"--ell must be >= 0, got {args.ell}")
    cutoff = 1.0
    values = mu_spectrum(cusp.cross_section, 1.0, cutoff).values
    while len(values) <= args.ell:
        cutoff *= 4.0
        values = mu_spectrum(cusp.cross_section, 1.0, cutoff).values
    return FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, float(values[args.ell]))


# Each verb handler takes (model, args, meta) and returns the table as
# (columns, rows, csv footer lines); it may add keys to meta.


def _validate(model, args, meta):
    return ("violation",), [(v,) for v in validate_model(model)], ()


def _sweep(model, args, meta):
    """count is sweep at one level, without the fit."""
    lams = _lambda_grid(args)
    if lams[0] < 0.0:
        flag = "--lambda" if args.verb == "count" else "--lambda-min"
        raise ValueError(f"{flag} must be >= 0, got {lams[0]}")
    rows = []
    for lam in lams:
        bracket = total_count_bracket(model, lam)
        counts = (getattr(bracket, c) for c in SWEEP_COLUMNS[1:6])
        theta = math.fsum(theta_sum(model, j, lam) for j in range(len(model.cusps)))
        rows.append((lam, *counts, theta, remainder_model(model.n, model.delta, lam)))
    if args.verb == "count":
        return SWEEP_COLUMNS, rows, ()
    if len(lams) >= 8 and max(lams) >= 10.0 * min(lams) and min(lams) > 1.0:
        residuals = [row[1] - row[3] for row in rows]  # Dirichlet end
        meta["fit"] = asdict(fit_remainder_samples(lams, residuals))
        footer = "# fit " + " ".join(f"{k}={_fmt(v)}" for k, v in meta["fit"].items())
    else:
        meta["fit"] = None
        footer = "# fit skipped: need >= 8 points spanning >= 1 decade"
    return SWEEP_COLUMNS, rows, (footer,)


def _fiber(model, args, meta):
    lam = _finite("--lambda", args.lam)
    values = fiber_eigenvalues(_fiber_for(model, args), lam, BoundaryCondition(args.boundary))
    return ("k", "value"), list(enumerate(values)), ()


def _phase(model, args, meta):
    bc = BoundaryCondition(args.boundary)
    lams = _lambda_grid(args)
    f = _fiber_for(model, args)
    rows = []
    for lam in lams:
        w = phase_integral(f, lam)
        count = fiber_count(f, lam, bc)
        rows.append((lam, w, count, abs(count - w / math.pi)))
    return ("lambda", "w", "count", "gap"), rows, ()


def _perturb(model, args, meta):
    x = _cusp(model, args).cross_section
    if not 0 < args.tau_max < math.inf:
        raise ValueError(f"--tau-max must be finite and > 0, got {args.tau_max}")
    taus = np.geomspace(args.tau_max / 1000.0, args.tau_max, _points(args.points)).tolist()
    mus = [mu0(x, tau) for tau in taus]
    rows = [(tau, m0, m0 / (tau * tau)) for tau, m0 in zip(taus, mus)]
    return ("tau", "mu0", "mu0_over_tau2"), rows, ()


def _embedded(model, args, meta):
    reports = [embedded_upper_bound(model, lam) for lam in _lambda_grid(args)]
    rows = [(rep.lam, *(getattr(rep, c) for c in EMBEDDED_COLUMNS[1:])) for rep in reports]
    return EMBEDDED_COLUMNS, rows, ()


def _rj_identity(model, args, meta):
    x = _cusp(model, args).cross_section
    rows = [(mu, *rj_identity(x, 1.0, mu)) for mu in _lambda_grid(args)]
    return ("mu", "rj", "residual"), rows, ()


VERBS = {
    "validate": _validate,
    "count": _sweep,
    "sweep": _sweep,
    "fiber": _fiber,
    "phase": _phase,
    "perturb": _perturb,
    "embedded": _embedded,
    "rj-identity": _rj_identity,
}


def run(args) -> int:
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        return _error(1, "model-load", str(exc))
    if args.verb != "validate":
        violations = validate_model(model)
        if violations:
            return _error(1, "validation", "; ".join(violations))
    meta = _meta(args, args.model)
    try:
        columns, rows, footer = VERBS[args.verb](model, args, meta)
        _emit(columns, rows, meta, args.format, args.out, footer)
    except Exception as exc:  # surface computation failures as exit 2
        return _error(2, type(exc).__name__, str(exc))
    return 1 if args.verb == "validate" and rows else 0


def _add_verb(sub, name: str, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.add_argument("model", help="path to the JSON model file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write the table here instead of stdout")
    return p


def _add_grid(sub):
    """--lambda alone, or a --lambda-min/--lambda-max/--points grid."""
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sub.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sub.add_argument("--points", type=int, default=None)
    sub.add_argument("--linear", action="store_true", help="linear grid instead of geometric")


def _add_fiber_choice(sub):
    sub.add_argument("--cusp", type=int, default=0)
    sub.add_argument("--ell", type=int, default=0)
    sub.add_argument("--boundary", choices=("dirichlet", "robin"), default="dirichlet")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspspec",
        description="eigenvalue counting on cusp manifolds: validate, count, sweep, "
        "fiber, phase, perturb, embedded, rj-identity",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    _add_verb(sub, "validate", "report model violations")

    p = _add_verb(sub, "count", "Dirichlet/Robin count bracket at one level")
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = _add_verb(sub, "sweep", "count bracket over a lambda grid, with fit")
    p.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--linear", action="store_true", help="linear grid instead of geometric")

    p = _add_verb(sub, "fiber", "eigenvalues of one fiber below --lambda")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_fiber_choice(p)

    p = _add_verb(sub, "phase", "phase integral vs count for one fiber")
    _add_grid(p)
    _add_fiber_choice(p)

    p = _add_verb(sub, "perturb", "mu0(tau)/tau^2 over a geometric tau grid")
    p.add_argument("--cusp", type=int, default=0)
    p.add_argument("--tau-max", dest="tau_max", type=float, required=True)
    p.add_argument("--points", type=int, default=10)

    p = _add_verb(sub, "embedded", "embedded-eigenvalue bound reports")
    _add_grid(p)

    p = _add_verb(sub, "rj-identity", "cross-section sum-vs-integral residuals")
    _add_grid(p)
    p.add_argument("--cusp", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
