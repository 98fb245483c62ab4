"""Global eigenvalue counting: fiber sums, phase integrals, Weyl residual fits.

The count over one cusp is the exact integer sum of fiber counts over the
finitely many cross-section modes that cusp_modes lists, with the field the
model carries (a scaled field is a scaled model); the whole-manifold count is
bracketed between Dirichlet and Neumann-like (Robin) decoupled counts plus
a Weyl band for the compact core.  Phase integrals give the semiclassical
term whose sum tracks the cusp Weyl volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .cross_section import mu_spectrum, unit_ball_volume
from .fiber import (
    DIRICHLET,
    BoundaryCondition,
    ContinuousSpectrumError,
    FiberPotential,
    _interior_min,
    allowed_interval,
    count_fibers,
    potential_eval,
)
from .model import ManifoldModel, TorusCrossSection, cusp_volume, total_volume

TWO_PI = 2.0 * math.pi

# Absolute error target of each phase-integral quadrature.
PHASE_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class CountResult:
    """A counting-function sample: integer count (or bracket) vs Weyl term."""

    lam: float
    count_low: int
    count_high: int
    leading: float

    @property
    def count(self) -> int:
        if self.count_low != self.count_high:
            raise ValueError("bracketed result has no single count")
        return self.count_low

    @property
    def residual_low(self) -> float:
        return self.count_low - self.leading

    @property
    def residual_high(self) -> float:
        return self.count_high - self.leading

    @property
    def residual(self) -> float:
        return self.count - self.leading


@dataclass(frozen=True)
class FitReport:
    """Log-log regression of |count - Weyl| against the remainder models."""

    slope: float
    log_correction: bool
    constant: float
    rss: float
    degenerate: bool = False


def weyl_leading(volume: float, n: int, lam: float) -> float:
    """|M| omega_n / (2 pi)^n * lam^(n/2)."""
    return volume * unit_ball_volume(n) / TWO_PI**n * lam ** (n / 2.0)


def mu_cutoff(model: ManifoldModel, lam: float) -> float:
    """Cross-section modes with mu >= lam / min_j a_j^(4 delta_j) contribute
    nothing below lam: their fiber potentials already sit above lam."""
    return lam / min(c.a ** (4.0 * c.delta) for c in model.cusps)


def cusp_modes(model: ManifoldModel, j: int, lam: float) -> tuple[list[float], list[int]]:
    """Distinct cross-section eigenvalues mu > 0 of cusp j that can contribute
    below lam, ascending, and their multiplicities, as Python floats and ints.

    An exact-zero mode (the free channel of an A = 0 model) is left out: it
    carries continuous spectrum, no discrete eigenvalues and no phase term.
    """
    values = mu_spectrum(model.cusps[j].cross_section, 1.0, mu_cutoff(model, lam)).values
    mus, mults = np.unique(values[values > 0.0], return_counts=True)
    return mus.tolist(), mults.tolist()


def phase_integral(f: FiberPotential, lam: float) -> float:
    """w(lam) = integral of sqrt([lam - V]_+) over the classically allowed region.

    The square-root vanishing at a turning point t* is removed by the
    substitution t = t* -+ v^2, which restores smooth integrands for the
    adaptive quadrature.  Returns 0 when lam never exceeds V.
    """
    if f.mu == 0.0:
        if lam <= f.ess_inf:
            return 0.0
        raise ContinuousSpectrumError(
            "phase integral of a mu = 0 channel diverges above the essential infimum"
        )
    interval = allowed_interval(f, lam)
    if interval is None:
        return 0.0
    t_lo, t_hi = interval

    def g(t: float) -> float:
        return math.sqrt(max(lam - potential_eval(f, t), 0.0))

    t_min = min(max(_interior_min(f), t_lo), t_hi)
    total = 0.0
    if t_lo < t_min and t_lo > f.alpha:
        # both endpoints singular on [t_lo, t_min]; substitute at the left one
        span = t_min - t_lo
        val, _ = quad(
            lambda v: 2.0 * v * g(t_lo + v * v),
            0.0,
            math.sqrt(span),
            epsabs=PHASE_QUAD_TOL,
            epsrel=1e-11,
            limit=200,
        )
        total += val
    elif t_lo < t_min:
        val, _ = quad(g, t_lo, t_min, epsabs=PHASE_QUAD_TOL, epsrel=1e-11, limit=200)
        total += val
    span = t_hi - t_min
    if span > 0:
        val, _ = quad(
            lambda v: 2.0 * v * g(t_hi - v * v),
            0.0,
            math.sqrt(span),
            epsabs=PHASE_QUAD_TOL,
            epsrel=1e-11,
            limit=200,
        )
        total += val
    return total


def theta_sum(model: ManifoldModel, j: int, lam: float) -> float:
    """Sum of phase integrals / pi over the modes of cusp j.

    Each distinct mode is integrated once and its term repeated by its
    multiplicity.
    """
    cusp = model.cusps[j]
    terms = []
    for mu, mult in zip(*cusp_modes(model, j, lam)):
        f = FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, mu)
        terms += [phase_integral(f, lam)] * mult
    return math.fsum(terms) / math.pi


def rj_identity(x: TorusCrossSection, tau: float, mu: float) -> tuple[float, float]:
    """R(mu) and |R(mu) - (1/2) int_0^oo [mu - s]_+^(-1/2) N(s) ds|, both
    sides exact, from one enumeration of the cross-section spectrum.

    R(mu) = sum over the spectrum of sqrt([mu - mu_ell]_+).  N is a step
    function, so the integral is a finite sum over jump intervals; a value
    starts a new jump when it lies more than 1e-12 above the first value of
    the current jump.  The residual is pure rounding noise.  Every term is a
    correctly rounded sqrt and every sum an exactly rounded fsum, so the
    result does not depend on the order of the terms.
    """
    if mu <= 0:
        return 0.0, 0.0
    values = mu_spectrum(x, tau, mu).values
    roots = np.sqrt(mu - values)
    left = math.fsum(roots)
    starts, ends = _jumps(values)
    # N = ends[k] from the first value of jump k to the first value of the
    # next jump, or to mu past the last one, where the root is 0
    closed = np.append(roots, 0.0)
    right = math.fsum(ends * (roots[starts] - closed[ends]))
    return left, abs(left - right)


def _jumps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and one-past-last index of each jump of N over sorted values.

    A gap above 1e-12 between neighbours always starts a jump.  A run of
    neighbours closer than that can still span more than 1e-12 from its
    first value; only such runs are split by the sequential rule.
    """
    opens = np.diff(values, prepend=-np.inf) > 1e-12
    closes = np.diff(values, append=np.inf) > 1e-12
    starts, lasts = np.flatnonzero(opens), np.flatnonzero(closes)
    wide = values[lasts] - values[starts] > 1e-12
    for a, b in zip(starts[wide].tolist(), lasts[wide].tolist()):
        first = values[a]
        for i in range(a + 1, b + 1):
            if values[i] - first > 1e-12:
                opens[i] = closes[i - 1] = True
                first = values[i]
    return np.flatnonzero(opens), np.flatnonzero(closes) + 1


def rj_sum(x: TorusCrossSection, tau: float, mu: float) -> float:
    """R(mu) = sum over the cross-section spectrum of sqrt([mu - mu_ell]_+)."""
    return rj_identity(x, tau, mu)[0]


def identity_residual(x: TorusCrossSection, tau: float, mu: float) -> float:
    """The residual of the sum-integral identity for R(mu); see rj_identity."""
    return rj_identity(x, tau, mu)[1]


def cusp_count(
    model: ManifoldModel, j: int, lam: float, bc: BoundaryCondition = DIRICHLET
) -> CountResult:
    """Exact count of cusp-j eigenvalues below lam: sum of fiber counts,
    each distinct mode counted once by count_fibers and weighted by its
    multiplicity.

    In an A = 0 model the mu = 0 mode is skipped; it contributes continuous
    spectrum but no discrete eigenvalues (constant potential for delta = 1,
    nonnegative decaying potential for delta < 1).
    """
    cusp = model.cusps[j]
    mus, mults = cusp_modes(model, j, lam)
    counts = count_fibers(model.n, cusp.delta, cusp.a, mus, lam, bc)
    count = sum(mult * c for mult, c in zip(mults, counts))
    leading = weyl_leading(cusp_volume(cusp, model.n), model.n, lam)
    return CountResult(lam=lam, count_low=count, count_high=count, leading=leading)


def total_count_bracket(model: ManifoldModel, lam: float) -> CountResult:
    """Dirichlet/Robin bracket of the whole-manifold counting function.

    low  = core Weyl band floor + sum_j Dirichlet cusp counts
    high = core Weyl band ceiling + sum_j Robin (default beta_j) cusp counts
    For core volume 0 both ends are exact decoupled counts.
    """
    low = 0
    high = 0
    for j in range(len(model.cusps)):
        low += cusp_count(model, j, lam, DIRICHLET).count
        high += cusp_count(model, j, lam, BoundaryCondition.robin()).count
    core = model.core
    if core.volume > 0 or core.remainder_coeff > 0:
        w_core = weyl_leading(core.volume, model.n, lam)
        band = core.remainder_coeff * lam ** ((model.n - 1) / 2.0)
        low += max(0, math.floor(w_core - band))
        high += max(0, math.ceil(w_core + band))
    leading = weyl_leading(total_volume(model), model.n, lam)
    return CountResult(lam=lam, count_low=low, count_high=high, leading=leading)


def remainder_model(n: int, delta: float, lam: float) -> float:
    """Weyl remainder scale r(lam): ln-corrected power for thick cusps
    (delta >= 1/(n-1)), anomalous power lam^(1/(2 delta)) for thin ones.

    The thick branch is an upper comparison scale, not the law every thick
    cusp attains: Selberg's A = 0 law has the sqrt(lam) ln(lam) term, while a
    non-exact A at delta = 1, n = 2 gives c(omega) sqrt(lam) with no ln factor.
    At lam = 0 both branches take their limit 0.
    """
    if delta >= 1.0 / (n - 1):
        if lam == 0.0:
            return 0.0
        return lam ** ((n - 1) / 2.0) * math.log(lam)
    return lam ** (1.0 / (2.0 * delta))


def fit_remainder_samples(
    lams: Sequence[float], residuals: Sequence[float]
) -> FitReport:
    """Regress log|residual| on log(lam), with and without a ln(lam) factor,
    and report the model with the smaller residual sum of squares.

    log_correction is that RSS comparison and nothing more: over one decade
    ln ln lam barely moves, so it cannot separate c sqrt(lam) from
    c sqrt(lam) ln lam.
    """
    lams = np.asarray(lams, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if lams.size < 8:
        raise ValueError("remainder fit needs at least 8 lambda samples")
    if lams.max() < 10.0 * lams.min():
        raise ValueError("remainder fit needs samples spanning at least one decade")
    if lams.min() <= 1.0:
        raise ValueError("remainder fit needs lam > 1")
    if np.max(np.abs(residuals)) <= 1.0:
        # counts match the Weyl term to rounding; no exponent to estimate
        return FitReport(
            slope=math.nan, log_correction=False, constant=0.0, rss=0.0, degenerate=True
        )
    mask = np.abs(residuals) > 1e-12
    x = np.log(lams[mask])
    y = np.log(np.abs(residuals[mask]))
    design = np.column_stack([np.ones_like(x), x])
    coef_a, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    rss_a = float(np.sum((y - design @ coef_a) ** 2))
    loglog = np.log(np.log(lams[mask]))
    coef_b, _, _, _ = np.linalg.lstsq(design, y - loglog, rcond=None)
    rss_b = float(np.sum((y - loglog - design @ coef_b) ** 2))
    if rss_b < rss_a:
        return FitReport(
            slope=float(coef_b[1]),
            log_correction=True,
            constant=float(math.exp(coef_b[0])),
            rss=rss_b,
        )
    return FitReport(
        slope=float(coef_a[1]),
        log_correction=False,
        constant=float(math.exp(coef_a[0])),
        rss=rss_a,
    )


def remainder_fit(model: ManifoldModel, lambda_grid: Sequence[float]) -> FitReport:
    """Fit the empirical Weyl remainder of the exact (core-free) Dirichlet count."""
    if model.core.volume != 0.0:
        raise ValueError("remainder_fit needs core.volume = 0 (exact counts)")
    residuals = []
    for lam in lambda_grid:
        count = sum(cusp_count(model, j, lam).count for j in range(len(model.cusps)))
        residuals.append(count - weyl_leading(total_volume(model), model.n, lam))
    return fit_remainder_samples(list(lambda_grid), residuals)
