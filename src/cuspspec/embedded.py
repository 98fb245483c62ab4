"""Upper bound on embedded eigenvalues of the free Laplacian.

Embedded eigenfunctions have zero cross-section mean in every cusp, so a
Poincare inequality compares the free quadratic form against the magnetic
form with the one-form scaled down to tau A, tau = lam^(-rho).  The number
of embedded eigenvalues below lam is then at most the counting function of
the model whose one-form is tau A (scale_field) at a slightly shifted level,
plus one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .cross_section import TWO_PI, perturb_c2
from .model import ManifoldModel, TorusCrossSection, total_volume, validate_model
from .weyl import cusp_count, total_count_bracket, weyl_leading


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the embedded-eigenvalue bound at level lam."""

    lam: float
    rho: float
    tau: float
    c_a: float
    shifted_lambda: float
    bound: int
    n_ess: Optional[int]
    leading: float
    r0: float


def rho_exponent(n: int, delta: float) -> float:
    """Field-scaling exponent: tau = lam^(-rho)."""
    if not (1.0 / n < delta <= 1.0):
        raise ValueError(f"delta = {delta} outside (1/n, 1]")
    if delta >= 2.0 / n:
        return 0.5
    return (n * delta - 1.0) / 2.0


def r0_model(n: int, delta: float, lam: float) -> float:
    """Remainder scale of the scaled-field Weyl law; switches branch at the
    same delta = 2/n as rho_exponent."""
    if not (1.0 / n < delta <= 1.0):
        raise ValueError(f"delta = {delta} outside (1/n, 1]")
    if delta >= 2.0 / n:
        return lam ** ((n - 1) / 2.0) * math.log(lam)
    return lam ** ((n - (n * delta - 1.0)) / 2.0)


def _mu1_free(x: TorusCrossSection) -> float:
    """First nonzero eigenvalue of the free torus Laplacian: min_k (2 pi / L_k)^2."""
    return min((TWO_PI / length) ** 2 for length in x.lengths)


def poincare_constant(model: ManifoldModel) -> float:
    """Constructive constant C_A of the zero-mean Poincare comparison.

    Per cusp: 1 + 2 sup|A_j|^2 / mu_1(j, 0), with sup|A_j|^2 = sum_k omega_k^2
    for a constant form on a flat torus.  A positive-volume core adds the
    term 2 sup|A|^2; the surrogate has no field data of its own, so the
    largest cusp field is used for the core as well.
    """
    cusp_terms = [
        1.0 + 2.0 * perturb_c2(c.cross_section) / _mu1_free(c.cross_section)
        for c in model.cusps
    ]
    c_a = max(cusp_terms)
    if model.core.volume > 0:
        core_term = 2.0 * max(perturb_c2(c.cross_section) for c in model.cusps)
        c_a = max(c_a, core_term)
    return c_a


def scale_field(model: ManifoldModel, tau: float) -> ManifoldModel:
    """The same geometry with every one-form A scaled to tau A."""
    cusps = tuple(
        dataclasses.replace(
            c,
            cross_section=dataclasses.replace(
                c.cross_section, magnetic=tuple(tau * w for w in c.cross_section.magnetic)
            ),
        )
        for c in model.cusps
    )
    return dataclasses.replace(model, cusps=cusps)


def demagnetize(model: ManifoldModel) -> ManifoldModel:
    """The same geometry with the one-form switched off."""
    return scale_field(model, 0.0)


def n_ess_exact(model: ManifoldModel, lam: float) -> int:
    """Exact embedded-eigenvalue count of the separable A = 0 model.

    The sum over cusps of the Dirichlet cusp_count: every mu_ell > 0
    channel is counted, and the mu = 0 channel contributes only continuous
    spectrum.  Requires a pure cusp ensemble (core volume 0) with zero field.
    """
    if model.is_magnetic:
        raise ValueError("n_ess_exact is defined for A = 0 models only")
    if model.core.volume != 0.0:
        raise ValueError("n_ess_exact needs core.volume = 0 (separable model)")
    return sum(cusp_count(model, j, lam).count for j in range(len(model.cusps)))


def embedded_upper_bound(model: ManifoldModel, lam: float) -> BoundReport:
    """Evaluate the scaled-field bound at level lam.

    Computes tau = lam^(-rho), the Poincare constant C_A, the shifted level
    (1 + C_A tau) lam + C_A, and bounds the embedded count by the Robin end
    of the bracket of scale_field(model, tau) there, plus one.  For a
    core-free model the exact left-hand side is attached for comparison.
    """
    violations = validate_model(model)
    if violations:
        raise ValueError("invalid model: " + "; ".join(violations))
    if not model.is_magnetic:
        raise ValueError(
            "embedded_upper_bound needs a magnetic model (non-integer flux on every cusp)"
        )
    if lam < 1.0:
        raise ValueError("embedded bound needs lam >= 1 so that tau <= 1")
    rho = rho_exponent(model.n, model.delta)
    tau = lam**-rho
    c_a = poincare_constant(model)
    shifted = (1.0 + c_a * tau) * lam + c_a
    bracket = total_count_bracket(scale_field(model, tau), shifted)
    n_ess = None
    if model.core.volume == 0.0:
        n_ess = n_ess_exact(demagnetize(model), lam)
    return BoundReport(
        lam=lam,
        rho=rho,
        tau=tau,
        c_a=c_a,
        shifted_lambda=shifted,
        bound=bracket.count_high + 1,
        n_ess=n_ess,
        leading=weyl_leading(total_volume(model), model.n, lam),
        r0=r0_model(model.n, model.delta, lam),
    )
