"""Spectrum of the magnetic Laplacian on a flat-torus cross-section.

For the torus with lengths (L_k) and the scaled constant one-form
tau * sum_k omega_k dx_k, the eigenvalues are indexed by the dual lattice:

    mu_m(tau) = sum_k (2 pi m_k / L_k + tau omega_k)^2 ,   m in Z^(n-1).

Everything below is exact lattice enumeration; no discretization enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TorusCrossSection

# Cap on enumerated lattice points, to keep accidental huge cutoffs from
# exhausting memory.
MAX_ELEMENTS = 10_000_000

TWO_PI = 2.0 * math.pi


class EnumerationBudgetError(RuntimeError):
    """Lattice enumeration would exceed the configured element budget."""


@dataclass(frozen=True, eq=False)
class CrossSpectrum:
    """All cross-section eigenvalues below `cutoff`, sorted, with multiplicity.

    `values` is a read-only float64 array; callers that hand single values
    on (as fiber parameters or output) convert them with `.tolist()`.
    """

    tau: float
    values: np.ndarray
    cutoff: float

    def __len__(self) -> int:
        return len(self.values)


def _squared_norms(x: TorusCrossSection, tau: float, cutoff: float):
    """mu_m(tau) on a box of lattice points m that holds every mu_m(tau) < cutoff.

    |2 pi m/L + tau omega| < sqrt(cutoff) forces m into a window of width
    sqrt(cutoff) L / pi around -tau omega L / (2 pi); one extra index on each
    side guards the open/closed boundary.  The box size is checked against
    the budget before any array is built.  The squares are added in axis
    order, which fixes the rounding of every sum.
    """
    root = math.sqrt(cutoff)
    windows = []
    for length, omega in zip(x.lengths, x.magnetic):
        shift = tau * omega * length / TWO_PI
        half_width = root * length / TWO_PI
        windows.append((math.floor(-shift - half_width) - 1, math.ceil(-shift + half_width) + 1))
    count = math.prod(hi - lo + 1 for lo, hi in windows)
    if count > MAX_ELEMENTS:
        raise EnumerationBudgetError(
            f"lattice enumeration needs {count} points, budget is {MAX_ELEMENTS}"
        )
    offsets = [
        TWO_PI * np.arange(lo, hi + 1, dtype=np.int64) / length + tau * omega
        for (lo, hi), length, omega in zip(windows, x.lengths, x.magnetic)
    ]
    total = offsets[0] * offsets[0]
    for axis in offsets[1:]:
        total = np.add.outer(total, axis * axis)
    return total


def mu_spectrum(x: TorusCrossSection, tau: float, cutoff: float) -> CrossSpectrum:
    """Exact sorted multiset of eigenvalues mu_m(tau) < cutoff, as a
    read-only float64 array.

    Raises ValueError for a cutoff that is not finite, and
    EnumerationBudgetError when the enumeration box holds more than
    MAX_ELEMENTS lattice points.
    """
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    if cutoff <= 0:
        values = np.empty(0)
    else:
        total = _squared_norms(x, tau, cutoff)
        values = total[total < cutoff]
        del total  # the box is freed before the sort, which works in place
        values.sort()
    values.flags.writeable = False
    return CrossSpectrum(tau=tau, values=values, cutoff=cutoff)


def cross_count(x: TorusCrossSection, tau: float, mu: float) -> int:
    """Number of eigenvalues strictly below mu (with multiplicity)."""
    return len(mu_spectrum(x, tau, mu))


def mu0(x: TorusCrossSection, tau: float) -> float:
    """Lowest eigenvalue, minimized per axis over the two nearest integers."""
    total = 0.0
    for length, omega in zip(x.lengths, x.magnetic):
        shift = tau * omega * length / TWO_PI
        best = min(
            (TWO_PI * m / length + tau * omega) ** 2
            for m in (math.floor(-shift), math.ceil(-shift))
        )
        total += best
    return total


def hormander_residual(
    x: TorusCrossSection, tau: float, mu_max: float, grid: int
) -> float:
    """Worst normalized Weyl residual of the cross-section counting function.

    sup over a geometric grid in [1, mu_max] of
    |N(mu) - omega_{d}/(2 pi)^d |X| mu^(d/2)| / max(1, mu^((d-1)/2)),
    d = dim X.  Finite by the sharp Weyl asymptotics on closed manifolds.
    """
    if mu_max <= 1.0:
        raise ValueError("mu_max must exceed 1")
    d = x.dim
    spectrum = mu_spectrum(x, tau, mu_max).values
    constant = unit_ball_volume(d) / TWO_PI**d * x.volume()
    worst = 0.0
    for mu in np.geomspace(1.0, mu_max, grid):
        # side='left' returns the number of values strictly below mu
        count = int(np.searchsorted(spectrum, mu, side="left"))
        residual = abs(count - constant * mu ** (d / 2.0))
        worst = max(worst, residual / max(1.0, mu ** ((d - 1) / 2.0)))
    return worst


def perturb_c2(x: TorusCrossSection) -> float:
    """Quadratic coefficient of mu_0(tau) = c2 tau^2 + O(tau^3): sum_k omega_k^2.

    Constant forms on flat tori have vanishing first-order term, so this is
    also lim mu_0(tau)/tau^2.
    """
    return math.fsum(w * w for w in x.magnetic)


def tau_quadratic_range(x: TorusCrossSection) -> float:
    """A tau_0 below which mu_0(tau) = tau^2 * perturb_c2 exactly.

    pi / (2 L_max |omega|_max) keeps every shifted frequency inside the first
    Brillouin half-cell, i.e. below the first level crossing.  Infinite when
    the form vanishes.
    """
    w_max = max((abs(w) for w in x.magnetic), default=0.0)
    if w_max == 0.0:
        return math.inf
    return math.pi / (2.0 * max(x.lengths) * w_max)


def unit_ball_volume(d: int) -> float:
    """Euclidean volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)
