"""Global eigenvalue counting: fiber sums, phase integrals, Weyl residual fits.

The count over one cusp is the exact integer sum of fiber counts over the
finitely many cross-section modes that cusp_modes lists, with the field the
model carries (a scaled field is a scaled model); the whole-manifold count is
bracketed between Dirichlet and Neumann-like (Robin) decoupled counts plus
a Weyl band for the compact core.  Phase integrals give the semiclassical
term whose sum tracks the cusp Weyl volume.  At delta = 1 they have a closed
form, taken in one numpy pass over a cusp's modes; at delta < 1 each is one
quadrature (scipy's quad, imported on first use) over the allowed interval
in a variable that removes both turning-point square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cross_section import mu_spectrum, unit_ball_volume
from .fiber import (
    DIRICHLET,
    BoundaryCondition,
    ContinuousSpectrumError,
    FiberPotential,
    _allowed_offsets,
    _potential,
    _resolve_beta,
    count_fibers,
    default_robin_beta,
)
from .model import ManifoldModel, TorusCrossSection, cusp_floor, cusp_volume, total_volume

TWO_PI = 2.0 * math.pi

# Absolute error target of each phase-integral quadrature (delta < 1 only;
# delta = 1 phase integrals are closed-form).
PHASE_QUAD_TOL = 1e-9

# Below x = 1/4, atanh x - x is summed as its odd series x^3/3 + x^5/5 + ...
# up to x^27/27, whose first omitted term is below 2^-53 relative there; above
# it, log1p(x) + ln(E/floor)/2 - x cancels at most 50-fold.
_SERIES_X = 0.25
_SERIES = 1.0 / np.arange(3.0, 29.0, 2.0)


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


def cusp_modes(model: ManifoldModel, j: int, lam: float) -> tuple[list[float], list[int]]:
    """Distinct cross-section eigenvalues 0 < mu < lam / a^(4 delta) of cusp
    j = (a, delta), ascending, with multiplicities, as Python floats and ints.

    No other cusp's a or delta enters: a mode at or above that floor counts
    0 below lam and has phase integral 0, since its fiber potential, and under
    the default Robin condition its channel's Neumann form, is at least
    mu a^(4 delta).  A custom Robin beta above the default can put a boundary
    state below the floor; _cusp_counts then lists up to a higher lam.  An
    exact-zero mode (the free channel of an A = 0 model) is left out:
    continuous spectrum, no eigenvalues, no phase.  A floor past the float
    range lists no modes (see cusp_floor).
    """
    values = mu_spectrum(model.cusps[j].cross_section, 1.0, lam / cusp_floor(model, j)).values
    mus, mults = np.unique(values[values > 0.0], return_counts=True)
    return mus.tolist(), mults.tolist()


def phase_integral(f: FiberPotential, lam: float) -> float:
    """w(lam) = integral of sqrt([lam - V]_+) over the classically allowed region.

    At delta = 1, w is the closed form of _phase_delta1.  At delta < 1 one
    substitution, t = t_lo + (t_hi - t_lo)(1 - cos theta)/2 over
    theta in [0, pi], serves every shape of the allowed interval [t_lo, t_hi]:
    the factor sin(theta) of dt/dtheta cancels the square-root vanishing at
    either turning point, and the integrand stays smooth where an end sits at
    the boundary alpha or the interval holds the minimum of V.  The offset
    (1 - cos theta)/2 is taken as sin^2(theta/2), which keeps its digits near
    theta = 0.  The interval and V are taken in offsets x = t - alpha (see
    fiber._potential): as delta -> 1, alpha ~ 1/(1 - delta) grows and the
    exponent of the growth term with it, so rounding alpha + x would move V
    by far more than the quadrature tolerance.  Returns 0 when lam never
    exceeds V.
    """
    if f.mu == 0.0:
        if lam <= f.ess_inf:
            return 0.0
        raise ContinuousSpectrumError(
            "phase integral of a mu = 0 channel diverges above the essential infimum"
        )
    if f.delta == 1.0:
        return float(_phase_delta1(f.n, f.alpha, np.array([f.mu]), lam)[0])
    interval = _allowed_offsets(f, lam)
    if interval is None:
        return 0.0
    from scipy.integrate import quad

    x_lo, x_hi = interval
    width = x_hi - x_lo
    half = 0.5 * width

    def integrand(theta: float) -> float:
        s = math.sin(0.5 * theta)
        v = _potential(f, x_lo + width * s * s)
        return math.sqrt(max(lam - v, 0.0)) * math.sin(theta) * half

    val, _ = quad(integrand, 0.0, math.pi, epsabs=PHASE_QUAD_TOL, epsrel=1e-11, limit=200)
    return val


def _phase_delta1(n: int, alpha: float, mus: np.ndarray, lam: float) -> np.ndarray:
    """phase_integral of the delta = 1 fiber (n, alpha, mu) at lam, for every
    mu > 0 in mus, in closed form.

    With E = lam - (n-1)^2/4 and floor = mu e^(2 alpha), the substitution
    y = sqrt(E - mu e^(2t)) gives w = sqrt(E) (atanh x - x) with
    x = sqrt(E - floor) / sqrt(E) for E > floor, and w = 0 otherwise;
    atanh x = log1p(x) + ln(E/floor)/2.

    ln(E/floor) is log1p((E - floor)/floor) where floor lies within a factor
    e^600 of E, with floor taken as (mu e^alpha) e^alpha: a few ulps from
    exact, and no product leaves the range between mu and floor.  Farther
    below E, floor may underflow, and ln E - 2 alpha - ln mu, off by a few
    ulps of the logs, is exact enough next to its value.  Modes whose logs
    put floor more than a factor e above E get w = 0 without floor, which
    could overflow.
    """
    w = np.zeros(mus.shape)
    e = lam - (n - 1) ** 2 / 4.0
    if not e > 0.0:
        return w
    log_ratio = (math.log(e) - 2.0 * alpha) - np.log(mus)
    live = log_ratio > -1.0
    log_ratio = log_ratio[live]
    finite = abs(alpha) < 700.0  # exp(alpha) is finite and non-zero
    ea = math.exp(alpha) if finite else 0.0
    floor = mus[live] * ea * ea
    near = (log_ratio < 600.0) & finite
    gap = np.maximum(e - floor, 0.0)
    x = np.sqrt(np.where(near, gap / e, -np.expm1(-log_ratio)))
    log_ratio = np.where(near, np.log1p(gap / np.where(near, floor, 1.0)), log_ratio)
    small = x < _SERIES_X
    terms = np.where(small, 0.0, np.log1p(x) + 0.5 * log_ratio - x)
    xs = x[small]
    x2 = xs * xs
    series = np.full(xs.shape, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        series = series * x2 + c
    terms[small] = xs * x2 * series
    w[live] = math.sqrt(e) * terms
    return w


def theta_sum(model: ManifoldModel, j: int, lam: float) -> float:
    """Sum of phase integrals / pi over the modes of cusp j.

    Each distinct mode is integrated once and its term repeated by its
    multiplicity; a delta = 1 cusp takes every mode in one _phase_delta1 call.
    The finite terms are one array to _exact_sum, which rounds their sum
    once, by error-free extraction.
    """
    cusp = model.cusps[j]
    mus, mults = cusp_modes(model, j, lam)
    if cusp.delta == 1.0:
        terms = _phase_delta1(model.n, 2.0 * math.log(cusp.a), np.array(mus), lam)
    else:
        terms = [
            phase_integral(FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, mu), lam)
            for mu in mus
        ]
    return _exact_sum((np.repeat(terms, mults),)) / math.pi


def rj_identity(x: TorusCrossSection, tau: float, mu: float) -> tuple[float, float]:
    """R(mu) and |R(mu) - (1/2) int_0^oo [mu - s]_+^(-1/2) N(s) ds|, both
    sides exact, from one enumeration of the cross-section spectrum.

    R(mu) = sum over the spectrum of sqrt([mu - mu_ell]_+).  N is a step
    function that each sorted value raises by one, so the integral is the
    finite sum by parts of _step_terms over the same values; an exact tie
    adds a zero term.  The residual is pure rounding noise.  Every term is
    a finite, correctly rounded sqrt, and each side one _exact_sum, an
    error-free extraction rounded once, so the result does not depend on
    the order or the number of the terms.

    The sorted spectrum is the only array of its length that is held; both
    sums take their terms one _SUM_BLOCK of values at a time.
    """
    if mu <= 0:
        return 0.0, 0.0
    values = mu_spectrum(x, tau, mu).values
    if values.size == 0:
        return 0.0, 0.0
    block = _SUM_BLOCK
    left = _exact_sum(np.sqrt(mu - values[s : s + block]) for s in range(0, values.size, block))
    right = _exact_sum(_step_terms(values, mu))
    return left, abs(left - right)


def _step_terms(values: np.ndarray, mu: float) -> Iterator[np.ndarray]:
    """The terms of the integral side of rj_identity, one block of values at
    a time: N = i from sorted value i - 1 to value i, and N = values.size
    from the last value to mu, give i (r_(i-1) - r_i) for i >= 1 and
    values.size r_last, with r the root sqrt(mu - s) at each value.  The
    root of each block's last value is carried into the next.
    """
    root = np.sqrt(mu - values[:1])
    for s in range(0, values.size, _SUM_BLOCK):
        roots = np.sqrt(mu - values[s : s + _SUM_BLOCK])
        terms = np.concatenate((root, roots[:-1]))
        terms -= roots
        terms *= np.arange(s, s + roots.size)  # 0 (r_0 - r_0) = 0 at i = 0
        root = roots[-1:]
        yield terms
    yield values.size * root


# _exact_sum extracts its input in blocks of this many values, so its
# scratch arrays grow with the block, not with the input.
_SUM_BLOCK = 1 << 15


def _exact_sum(arrays: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of the finite float64 values in the arrays that
    an iterable yields, by error-free extraction (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31(1), 2008), for any number of values.

    For a block p of _SUM_BLOCK values below top in magnitude, take sigma =
    2**k, the least power of two above 2 * top * p.size: q = (p + sigma) -
    sigma rounds p to multiples of 2**(k - 53) with |sum q| < 2**(k - 1), so
    q.sum() is exact in any order and is added to one Python int in units of
    2**-1126.  p - q is exact, at most 2**(k - 53) in magnitude, and becomes
    the next p, in q's buffer, so the input is never written; each level
    shrinks top by at least 2**35 until p is 0.  One correctly rounded
    int/int division ends the sum.  Where top reaches 2**1000 and sigma
    could overflow, the block's values of magnitude at least 1 are scaled by
    2**-64, exactly, and weighted by 2**64.  A value that is not finite
    raises ValueError, a sum past the float range OverflowError.
    """
    total = 0
    for array in arrays:
        for s in range(0, array.size, _SUM_BLOCK):
            block = array[s : s + _SUM_BLOCK]
            top = max(block.max(), -block.min())
            if not math.isfinite(top):
                raise ValueError("exact sum needs finite values")
            parts = [(block, 1126)]
            if top >= 2.0**1000:
                big = np.abs(block) >= 1.0
                parts = [(block[big] * 2.0**-64, 1190), (block[~big], 1126)]
                top *= 2.0**-64
            for p, shift in parts:
                width, level = p.size.bit_length() + 1, top
                while level > 0.0:
                    sigma = math.ldexp(1.0, math.frexp(level)[1] + width)
                    q = p + sigma
                    q -= sigma
                    num, den = float(q.sum()).as_integer_ratio()
                    total += (num << shift) // den  # den divides 2**1074
                    p = np.subtract(p, q, out=q)
                    level = max(p.max(initial=0.0), -p.min(initial=0.0))
    return total / (1 << 1126)


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
    [count] = _cusp_counts(model, j, lam, [bc])
    leading = weyl_leading(cusp_volume(model.cusps[j], model.n), model.n, lam)
    return CountResult(lam=lam, count_low=count, count_high=count, leading=leading)


def _cusp_counts(
    model: ManifoldModel, j: int, lam: float, bcs: Sequence[BoundaryCondition]
) -> list[int]:
    """cusp_count of cusp j under each of bcs, from one cusp_modes call and
    one count_fibers call.

    A Robin beta above the cusp's default can put a boundary state of a mode
    at or above the floor below lam, down to min V - beta^2 (see
    fiber._empty_below), and min V >= mu a^(4 delta); under such a beta the
    modes are listed below (lam + beta^2) / a^(4 delta) instead.
    """
    cusp = model.cusps[j]
    # alpha, and with it the default beta, does not depend on mu
    f = FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, 1.0)
    beta = max((_resolve_beta(f, bc) for bc in bcs), default=0.0)
    reach = beta * beta if beta > default_robin_beta(f) else 0.0
    mus, mults = cusp_modes(model, j, lam + reach)
    return [
        sum(mult * c for mult, c in zip(mults, counts))
        for counts in count_fibers(model.n, cusp.delta, cusp.a, mus, lam, bcs)
    ]


def count_ends(model: ManifoldModel, lam: float, bcs: Sequence[BoundaryCondition]) -> list[int]:
    """Ends of the whole-manifold bracket at lam, one per condition in bcs:
    the compact core's Weyl band floor plus every Dirichlet cusp count, or
    its ceiling plus every cusp count under a Robin condition.  A model
    without a core adds nothing.

    Each cusp lists its modes once and counts them under every condition in
    one count_fibers call, so a delta = 1 cusp costs one backward shoot for
    all of bcs.
    """
    ends = [_core_term(model, lam, bc) for bc in bcs]
    for j in range(len(model.cusps)):
        ends = [end + count for end, count in zip(ends, _cusp_counts(model, j, lam, bcs))]
    return ends


def _core_term(model: ManifoldModel, lam: float, bc: BoundaryCondition) -> int:
    """The compact core's share of a bracket end: the floor of its Weyl band
    for Dirichlet, the ceiling for Robin, 0 without a core."""
    core = model.core
    if not (core.volume > 0 or core.remainder_coeff > 0):
        return 0
    w_core = weyl_leading(core.volume, model.n, lam)
    band = core.remainder_coeff * lam ** ((model.n - 1) / 2.0)
    if bc.kind == "dirichlet":
        return max(0, math.floor(w_core - band))
    return max(0, math.ceil(w_core + band))


def total_count_bracket(model: ManifoldModel, lam: float) -> CountResult:
    """Dirichlet/Robin bracket of the whole-manifold counting function.

    low  = core Weyl band floor + sum_j Dirichlet cusp counts
    high = core Weyl band ceiling + sum_j Robin (default beta_j) cusp counts
    For core volume 0 both ends are exact decoupled counts.  Both ends come
    from one count_ends call.
    """
    low, high = count_ends(model, lam, (DIRICHLET, BoundaryCondition.robin()))
    return CountResult(
        lam=lam,
        count_low=low,
        count_high=high,
        leading=weyl_leading(total_volume(model), model.n, lam),
    )


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
    fits = []
    for shift in (0.0, np.log(np.log(lams[mask]))):
        coef, _, _, _ = np.linalg.lstsq(design, y - shift, rcond=None)
        fits.append((float(np.sum((y - shift - design @ coef) ** 2)), coef))
    log_correction = fits[1][0] < fits[0][0]
    rss, coef = fits[1] if log_correction else fits[0]
    return FitReport(
        slope=float(coef[1]),
        log_correction=log_correction,
        constant=float(math.exp(coef[0])),
        rss=rss,
    )


def remainder_fit(model: ManifoldModel, lambda_grid: Sequence[float]) -> FitReport:
    """Fit the empirical Weyl remainder of the exact (core-free) Dirichlet count."""
    if model.core.volume != 0.0:
        raise ValueError("remainder_fit needs core.volume = 0 (exact counts)")
    residuals = []
    for lam in lambda_grid:
        [count] = count_ends(model, lam, [DIRICHLET])
        residuals.append(count - weyl_leading(total_volume(model), model.n, lam))
    return fit_remainder_samples(list(lambda_grid), residuals)
