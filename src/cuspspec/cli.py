"""Batch front door: one model file, one verb, one table per process.

Exit status: 0 on success, 1 when the model file fails to parse or
validate, 2 when a computation errors out.  Errors are emitted as a JSON
object on stderr so batch drivers can route them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cross_section import mu0, mu_spectrum
from .embedded import embedded_upper_bound, n_ess_exact
from .fiber import (
    DEFAULT_SETTINGS,
    BoundaryCondition,
    FiberPotential,
    fiber_eigenvalues,
    fiber_count,
)
from .model import FLUX_TOL, load_model, validate_model
from .weyl import (
    PHASE_QUAD_TOL,
    fit_remainder_samples,
    identity_residual,
    phase_integral,
    remainder_model,
    rj_sum,
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


def _emit(columns, rows, meta, fmt: str, out: Optional[str], footer_lines=()) -> None:
    if fmt == "json":
        payload = {"rows": [dict(zip(columns, row)) for row in rows], "meta": meta}
        text = json.dumps(payload, indent=2, allow_nan=True) + "\n"
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
            "rel_tol": DEFAULT_SETTINGS.rel_tol,
            "angle_tol": DEFAULT_SETTINGS.angle_tol,
            "t_margin": DEFAULT_SETTINGS.t_margin,
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
    if pts < 2:
        raise ValueError("--points must be >= 2")
    if getattr(args, "linear", False):
        return [float(x) for x in np.linspace(lo, hi, pts)]
    if lo <= 0:
        raise ValueError("geometric grid needs --lambda-min > 0")
    return [float(x) for x in np.geomspace(lo, hi, pts)]


def _boundary(args) -> BoundaryCondition:
    if getattr(args, "boundary", "dirichlet") == "robin":
        return BoundaryCondition.robin()
    return BoundaryCondition.dirichlet()


def _sweep_rows(model, lams):
    rows = []
    for lam in lams:
        bracket = total_count_bracket(model, lam)
        theta = math.fsum(theta_sum(model, j, lam) for j in range(len(model.cusps)))
        rows.append(
            (
                lam,
                bracket.count_low,
                bracket.count_high,
                bracket.leading,
                bracket.residual_low,
                bracket.residual_high,
                theta,
                remainder_model(model.n, model.delta, lam),
            )
        )
    return rows


def _fiber_for(model, cusp_index: int, ell: int, lam_hint: float) -> FiberPotential:
    cusp = model.cusps[cusp_index]
    cutoff = max(lam_hint, 1.0)
    values = mu_spectrum(cusp.cross_section, 1.0, cutoff).values
    while len(values) <= ell:
        cutoff *= 4.0
        values = mu_spectrum(cusp.cross_section, 1.0, cutoff).values
    return FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, values[ell])


def run(args) -> int:
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        return _error(1, "model-load", str(exc))
    violations = validate_model(model)
    meta = _meta(args, args.model)

    if args.verb == "validate":
        rows = [(v,) for v in violations]
        _emit(("violation",), rows, meta, args.format, args.out)
        return 1 if violations else 0

    if violations:
        return _error(1, "validation", "; ".join(violations))

    try:
        if args.verb == "count":
            if args.lam is None:
                raise ValueError("count needs --lambda")
            rows = _sweep_rows(model, _lambda_grid(args))
            _emit(SWEEP_COLUMNS, rows, meta, args.format, args.out)
            return 0

        if args.verb == "sweep":
            lams = _lambda_grid(args)
            rows = _sweep_rows(model, lams)
            footer = []
            if len(lams) >= 8 and max(lams) >= 10.0 * min(lams) and min(lams) > 1.0:
                residuals = [row[1] - row[3] for row in rows]  # Dirichlet end
                fit = fit_remainder_samples(lams, residuals)
                meta["fit"] = {
                    "slope": fit.slope,
                    "log_correction": fit.log_correction,
                    "constant": fit.constant,
                    "rss": fit.rss,
                    "degenerate": fit.degenerate,
                }
                footer.append(
                    "# fit slope=%s log_correction=%s constant=%s rss=%s degenerate=%s"
                    % (
                        _fmt(fit.slope),
                        _fmt(fit.log_correction),
                        _fmt(fit.constant),
                        _fmt(fit.rss),
                        _fmt(fit.degenerate),
                    )
                )
            else:
                meta["fit"] = None
                footer.append("# fit skipped: need >= 8 points spanning >= 1 decade")
            _emit(SWEEP_COLUMNS, rows, meta, args.format, args.out, footer)
            return 0

        if args.verb == "fiber":
            if args.lam is None:
                raise ValueError("fiber needs --lambda (listing cutoff)")
            lam = _finite("--lambda", args.lam)
            f = _fiber_for(model, args.cusp, args.ell, lam)
            values = fiber_eigenvalues(f, lam, _boundary(args))
            rows = [(k, v) for k, v in enumerate(values)]
            _emit(("k", "value"), rows, meta, args.format, args.out)
            return 0

        if args.verb == "phase":
            lams = _lambda_grid(args)
            bc = _boundary(args)
            rows = []
            for lam in lams:
                f = _fiber_for(model, args.cusp, args.ell, lam)
                w = phase_integral(f, lam)
                count = fiber_count(f, lam, bc)
                rows.append((lam, w, count, abs(count - w / math.pi)))
            _emit(("lambda", "w", "count", "gap"), rows, meta, args.format, args.out)
            return 0

        if args.verb == "perturb":
            cusp = model.cusps[args.cusp]
            pts = args.points or 10
            taus = [float(t) for t in np.geomspace(args.tau_max / 1000.0, args.tau_max, pts)]
            rows = []
            for tau in taus:
                m0 = mu0(cusp.cross_section, tau)
                rows.append((tau, m0, m0 / (tau * tau)))
            _emit(("tau", "mu0", "mu0_over_tau2"), rows, meta, args.format, args.out)
            return 0

        if args.verb == "embedded":
            lams = _lambda_grid(args)
            rows = []
            for lam in lams:
                rep = embedded_upper_bound(model, lam)
                rows.append(
                    (
                        rep.lam,
                        rep.rho,
                        rep.tau,
                        rep.c_a,
                        rep.shifted_lambda,
                        rep.n_ess,
                        rep.bound,
                        rep.leading,
                        rep.r0,
                    )
                )
            _emit(EMBEDDED_COLUMNS, rows, meta, args.format, args.out)
            return 0

        if args.verb == "rj-identity":
            mus = _lambda_grid(args)
            x = model.cusps[args.cusp].cross_section
            rows = [(mu, rj_sum(x, 1.0, mu), identity_residual(x, 1.0, mu)) for mu in mus]
            _emit(("mu", "rj", "residual"), rows, meta, args.format, args.out)
            return 0

        raise ValueError(f"unknown verb {args.verb!r}")
    except Exception as exc:  # surface computation failures as exit 2
        return _error(2, type(exc).__name__, str(exc))


def _add_common(sub):
    sub.add_argument("model", help="path to the JSON model file")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write the table here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspspec",
        description="eigenvalue counting on cusp manifolds: validate, count, sweep, "
        "fiber, phase, perturb, embedded, rj-identity",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="report model violations")
    _add_common(p)

    p = sub.add_parser("count", help="Dirichlet/Robin count bracket at one level")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("sweep", help="count bracket over a lambda grid, with fit")
    _add_common(p)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--linear", action="store_true", help="linear grid instead of geometric")

    p = sub.add_parser("fiber", help="eigenvalues of one fiber below --lambda")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--cusp", type=int, default=0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--boundary", choices=("dirichlet", "robin"), default="dirichlet")

    p = sub.add_parser("phase", help="phase integral vs count for one fiber")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--linear", action="store_true")
    p.add_argument("--cusp", type=int, default=0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--boundary", choices=("dirichlet", "robin"), default="dirichlet")

    p = sub.add_parser("perturb", help="mu0(tau)/tau^2 over a geometric tau grid")
    _add_common(p)
    p.add_argument("--cusp", type=int, default=0)
    p.add_argument("--tau-max", dest="tau_max", type=float, required=True)
    p.add_argument("--points", type=int, default=10)

    p = sub.add_parser("embedded", help="embedded-eigenvalue bound reports")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--linear", action="store_true")

    p = sub.add_parser("rj-identity", help="cross-section sum-vs-integral residuals")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--linear", action="store_true")
    p.add_argument("--cusp", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
