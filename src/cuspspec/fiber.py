"""Half-line Schrodinger fibers of a cusp and their eigenvalue counts.

Separating variables in a cusp on the ell-th cross-section mode, mu >= 0
its eigenvalue, leaves a one-dimensional operator -d^2/dt^2 + V(t) on
(alpha, oo).  V is taken at offsets x = t - alpha in one formula (see
_potential), with g = mu a^(4 delta) its growth term at alpha:

    delta = 1:       V = g e^(2x) + (n-1)^2/4,          alpha = 2 ln a
    1/n < delta < 1: V = g (1 + x/alpha)^p + c / (alpha + x)^2,
                     alpha = a^(2(1-delta)) / (1-delta), p = 2 delta / (1-delta),
                     c = (n-1) delta ((n-3) delta + 2) / (4 (1-delta)^2)

which is mu ((1-delta) t)^p + c/t^2 below delta = 1.  g is taken from
(a, delta, mu), not from the rounded alpha, and (1 + x/alpha)^p as
exp(p log1p(x/alpha)): p grows like 2/(1 - delta) and would magnify any
rounding of alpha or of alpha + x.

Counts and listings rest on one propagator and one count.  A sixth-order
Magnus rule carries the solution (u, u') of u'' = (V - lambda) u over a
mesh of the offsets x, whose steps are not tied to the local wavelength,
and reads each step's zeros from that step's own flow (see
_magnus_block).  A backward shoot runs the solution that decays at
infinity from the offset span (see _shoot_span), safely inside the
classically forbidden region where backward propagation is stable, down
to the boundary, offset 0, and reads its Prufer angle theta, (u, u') =
r (sin theta, cos theta), at each of its stops from the zeros it passed
and its direction there; see _back_angles.  That angle gives the boundary
read-off F(lambda) = theta0 - theta_dec(alpha; lambda), smooth and
increasing, and by Sturm-Prufer theory the number of eigenvalues below
the spectral level lambda is N(lambda) = ceil(F/pi): every count is this
read-off (see fiber_count).
Eigenvalues are listed as the roots of F = k pi, every F read off one mesh
built for the listing and kept per level, each root closed by brentq from
the bracket of the levels already read; a three-point finite-difference
matrix provides an independent oracle.
A cusp's fibers are counted together by count_fibers.  At delta = 1 the
shift s = t + (1/2) ln mu turns every mode into the same equation
-u'' + (e^(2s) + (n-1)^2/4) u = lambda u on [s_mu, oo), s_mu = alpha +
(1/2) ln mu, and beta does not depend on mu.  One backward shoot, a
single propagation whose mesh has an edge at each s_mu, then reads every
mode's count N(lambda; mu) = ceil((theta0 - theta(s_mu)) / pi) on that
shifted fiber: theta0 depends only on the condition and n, so one shoot
per cusp and level serves every mode and condition.  A count given its
angle is always this read-off.  No fiber has an eigenvalue at or below
min V - max(beta, 0)^2 (see _empty_below): there a count that would
shoot its own angle returns 0 without one, and at delta = 1 the shoot
passes only the modes with e^(2 s_mu) + (n-1)^2/4 below lambda +
max(beta, 0)^2 and every other mode reads 0.  For delta < 1 no such
shift exists.  There V is pointwise non-decreasing in mu, while alpha and
the Robin beta depend only on (n, delta, a), so by min-max every fiber
eigenvalue is non-decreasing in mu and N(lambda; mu) is non-increasing
along the sorted modes.
Bisection over the mode list then shoots only where a count changes, one
shoot per probed mode for every boundary condition: O(D log(M/D)) shoots
for M modes with D distinct tuples of counts.
The tolerances are fixed module constants: T_MARGIN and ANGLE_TOL place
the start of a shoot, MAGNUS_K sets the mesh, MESH_BUDGET bounds the
work of one cusp count or one listing, and REL_TOL is the accuracy of
listed eigenvalues.
scipy is imported where it is first called: brentq by listings and by the
turning points of delta < 1 fibers, eigh_tridiagonal by fd_oracle.  A
delta = 1 count runs on numpy alone and loads no scipy module.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

# Relative tolerance of listed eigenvalues, on the scale max(1, |lambda|);
# eigenvalues within it of the cutoff are ties and are dropped.
REL_TOL = 1e-10
# Leftover Prufer winding accepted past the point a shoot starts from.
ANGLE_TOL = 1e-9
# Decay budget, in WKB units (the integral of sqrt(V - lambda)), added past
# the turning point before the tail-size rule driven by ANGLE_TOL takes over.
T_MARGIN = 5.0
# Steps per unit length of the Magnus mesh at lam = 0.  The mesh refines as
# (1 + |lam|)^0.27, because the count error of the order-6 rule was
# measured to grow as h^6 lam^1.6.  A shoot reads an angle, not only a
# count: at 20 steps the angle at alpha erred by up to 1.4e-9 on fibers at
# lam ~ 160, and the error falls as K^-6.
MAGNUS_K = 30.0
# Steps of the Magnus mesh per local length scale of a delta < 1
# potential, t / max(power, 2) at t = alpha + x, wherever that scale is
# short next to the level rule's step (near a small alpha, whose c/t^2 wall
# the level rule does not resolve).
MAGNUS_SCALE_STEPS = 10.0
# Mesh steps propagated in one numpy pass; (u, u') is carried from block to
# block, so memory does not grow with lam.
MAGNUS_BLOCK = 4096
# Most mesh steps one count_fibers call, one listing or one lone shoot may
# plan; see MeshBudgetError.
MESH_BUDGET = 10**10


class ContinuousSpectrumError(ValueError):
    """Counting was requested inside the continuous spectrum of a mu = 0 fiber."""


class MeshBudgetError(RuntimeError):
    """The counts of a cusp, a listing or one shoot would exceed the mesh-step budget."""


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet, or the Neumann-like Robin condition u'(alpha) + beta u(alpha) = 0.

    beta = None selects the per-fiber default produced by pushing the
    geometric Neumann condition through the unitary change of functions;
    see default_robin_beta.
    """

    kind: str
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(kind="dirichlet")

    @classmethod
    def robin(cls, beta: Optional[float] = None) -> "BoundaryCondition":
        return cls(kind="robin", beta=beta)


DIRICHLET = BoundaryCondition.dirichlet()


@dataclass(frozen=True)
class FiberPotential:
    """One half-line fiber (n, delta, mu, alpha) and the coefficients of its
    potential (see _potential): growth g, power p (2, the rate of e^(2x),
    at delta = 1) and const_coeff c.  from_cusp takes g from (a, delta, mu);
    given alpha alone, g is derived from alpha, and is inf past the float
    range.
    """

    n: int
    delta: float
    mu: float
    alpha: float
    growth: Optional[float] = None
    power: float = field(init=False, repr=False, compare=False)
    const_coeff: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the potential formula needs only delta in (0, 1]; the stricter
        # geometric bound delta > 1/n lives in validate_model
        if self.n < 2:
            raise ValueError("fiber needs n >= 2")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta = {self.delta} outside (0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.delta < 1.0 and self.alpha <= 0:
            raise ValueError("delta < 1 requires alpha > 0")
        n, d = self.n, self.delta
        if d == 1.0:
            power, const = 2.0, (n - 1) ** 2 / 4.0
        else:
            power = 2.0 * d / (1.0 - d)
            const = (n - 1) * d * ((n - 3) * d + 2.0) / (4.0 * (1.0 - d) ** 2)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "const_coeff", const)
        if self.growth is None:
            try:
                base = math.exp(2.0 * self.alpha) if d == 1.0 else ((1.0 - d) * self.alpha) ** power
                growth = self.mu * base
            except OverflowError:
                growth = math.inf if self.mu > 0.0 else 0.0
            object.__setattr__(self, "growth", growth)

    @classmethod
    def from_cusp(cls, n: int, delta: float, a: float, mu: float) -> "FiberPotential":
        if delta == 1.0:
            # g is derived from alpha, as mu e^(2 alpha) = mu a^4
            return cls(n=n, delta=delta, mu=mu, alpha=2.0 * math.log(a))
        alpha = a ** (2.0 * (1.0 - delta)) / (1.0 - delta)
        return cls(n=n, delta=delta, mu=mu, alpha=alpha, growth=mu * a ** (4.0 * delta))

    @property
    def ess_inf(self) -> float:
        """Bottom of the essential spectrum of the mu = 0 channel."""
        return (self.n - 1) ** 2 / 4.0 if self.delta == 1.0 else 0.0


def default_robin_beta(f: FiberPotential) -> float:
    """Neumann-like coefficient induced by the unitary change of functions."""
    n, d = f.n, f.delta
    if d == 1.0:
        return (n * d - 1.0) / 2.0
    # (n-1) delta a^(2(delta-1)) / 2 with a^(2(1-delta)) = (1-delta) alpha
    return (n - 1) * d / (2.0 * (1.0 - d) * f.alpha)


def _resolve_beta(f: FiberPotential, bc: BoundaryCondition) -> float:
    if bc.kind == "dirichlet":
        return 0.0
    return default_robin_beta(f) if bc.beta is None else float(bc.beta)


def _potential(f: FiberPotential, x):
    """V(alpha + x) at offsets x >= 0 from the boundary, a float or an
    array: g e^(2x) + c at delta = 1, g exp(p log1p(x/alpha)) + c/(alpha +
    x)^2 below, so that no rounding of alpha + x reaches the growth term."""
    xp = np if isinstance(x, np.ndarray) else math
    if f.delta == 1.0:
        return f.growth * xp.exp(2.0 * x) + f.const_coeff
    alpha = f.alpha
    t = alpha + x
    return f.growth * xp.exp(f.power * xp.log1p(x / alpha)) + f.const_coeff / (t * t)


def _interior_min(f: FiberPotential) -> float:
    """Offset from alpha of the minimum of V on [alpha, oo) for mu > 0."""
    if f.delta == 1.0:
        return 0.0
    # dV/dx = 0 where (1 + x/alpha)^(p+2) = 2 c / (g p alpha^2), in log space
    p = f.power
    log_ratio = (
        math.log(2.0 * f.const_coeff) - math.log(f.growth * p) - 2.0 * math.log(f.alpha)
    ) / (p + 2.0)
    return f.alpha * math.expm1(log_ratio) if log_ratio > 0.0 else 0.0


def potential_min(f: FiberPotential) -> float:
    """inf of V over [alpha, oo)."""
    if f.mu == 0.0:
        return f.ess_inf
    return _potential(f, _interior_min(f))


def _edge_offset(f: FiberPotential, lam: float) -> Optional[float]:
    """Least offset x with V >= lam on [alpha + x, oo), the right edge of
    the allowed region.

    None when V >= lam everywhere (no classically allowed region);
    math.inf when mu = 0 and lam sits above the essential infimum, so the
    allowed region never closes.
    """
    if f.mu == 0.0:
        if lam > f.ess_inf:
            return math.inf
        return 0.0 if (f.delta == 1.0 and lam == f.ess_inf) else None
    x_min = _interior_min(f)
    vmin = _potential(f, x_min)
    if lam < vmin:
        return None
    if lam == vmin:
        return x_min
    if f.delta == 1.0:
        return max(0.0, 0.5 * math.log((lam - f.const_coeff) / f.growth))
    # where the growth term alone reaches lam
    x_hi = f.alpha * math.expm1(math.log(lam / f.growth) / f.power)
    if x_hi <= x_min:
        return x_min
    # V(x_hi) = lam + c/t^2, and at lam >~ 1e11 the c/t^2 term falls below
    # the rounding of lam: widen until the bracket closes
    while _potential(f, x_hi) <= lam:
        x_hi *= 2.0
    from scipy.optimize import brentq

    return brentq(lambda x: _potential(f, x) - lam, x_min, x_hi, xtol=1e-13, rtol=1e-15)


def _allowed_offsets(f: FiberPotential, lam: float) -> Optional[tuple[float, float]]:
    """Offsets of the interval {t >= alpha : V(t) < lam}, or None when it
    is empty.

    Requires a confining fiber (mu > 0); the interval is then a single
    component around the potential minimum.
    """
    if f.mu <= 0.0:
        raise ValueError("_allowed_offsets needs mu > 0")
    x_min = _interior_min(f)
    if lam <= _potential(f, x_min):
        return None
    x_hi = _edge_offset(f, lam)
    if _potential(f, 0.0) < lam:
        return (0.0, x_hi)
    from scipy.optimize import brentq

    x_lo = brentq(lambda x: _potential(f, x) - lam, 0.0, x_min, xtol=1e-13, rtol=1e-15)
    return (x_lo, x_hi)


def _scale(en: float) -> float:
    """S = (E^2 + 1)^(1/4)."""
    return math.sqrt(math.sqrt(en * en + 1.0))


def _rescale(angle: float, a: float, b: float) -> float:
    """k pi + atan2(a sin(psi), b cos(psi)), psi = angle - k pi in [0, pi):
    theta -> phi with (a, b) = (S, 1), phi -> theta with (1, S)."""
    base = math.floor(angle / math.pi) * math.pi
    psi = angle - base
    return base + math.atan2(a * math.sin(psi), b * math.cos(psi))


def _tail_extent(f: FiberPotential, start: float, lam: float, budget: float) -> float:
    """Extent m such that the decay integral of sqrt(V - lam) past the
    offset `start` reaches `budget`; the leftover Prufer winding is then
    O(exp(-2 budget))."""
    acc = 0.0
    m = 0.0
    # the first step scales with t = alpha + start; the cap keeps it from
    # leaping far past the turning point of a delta -> 1 fiber, where alpha
    # ~ 1/(1 - delta) and V would overflow
    step = min(1e-3 * (1.0 + abs(f.alpha + start)), 1.0)
    f0 = math.sqrt(max(_potential(f, start) - lam, 0.0))
    while acc < budget * (1.0 - 1e-3) and m < 1e4:
        f1 = math.sqrt(max(_potential(f, start + m + step) - lam, 0.0))
        gain = 0.5 * (f0 + f1) * step
        if acc + gain > budget:
            # a step past the budget is retried, shortened to end where the
            # budget is met if the integrand were flat; V - lam increases,
            # so the retry stays below the budget and the walk lands on it
            step *= (budget - acc) / gain
            continue
        acc += gain
        m += step
        f0 = f1
        step *= 1.4
    return m


def _shoot_span(f: FiberPotential, lam: float, top: float = 0.0) -> float:
    """Offset where the shoot at lam starts: past both the turning point
    and the highest stop top by the decay budget."""
    x_turn = _edge_offset(f, lam)
    start = top if x_turn is None else max(x_turn, top)
    budget = T_MARGIN + 0.5 * math.log(1.0 / (ANGLE_TOL * 1e-3))
    return start + _tail_extent(f, start, lam, budget)


# Magnus propagation.  Every shoot carries the solution (u, u') of
# u'' = (V - lam) u over a mesh of offsets x = t - alpha (see _mesh) by the
# order-6 Magnus rule of Blanes, Casas and Ros (BIT 40, 2000) on three Gauss
# nodes.  With A = [[0, 1], [q, 0]], q = V - lam, a step's generator Omega =
# [[oa, ob], [oc, -oa]] is traceless, so Omega^2 = disc I with disc = oa^2 +
# ob oc, and exp(-Omega) = C I - S Omega, which carries (u, u') down the
# step, takes C, S from cos/sin (an oscillatory step, disc < 0) or
# cosh/sinh.  A hyperbolic step is taken divided by its cosh: that keeps the
# products of many such steps finite and leaves the direction of (u, u'),
# and with it every zero and angle, as it was.  On its step the flow
# exp(s Omega), s in [0, 1], gives u = A sin(s w + g) with
# w^2 = -disc on an oscillatory step, whose zeros are the multiples of pi
# that s w + g passes, and at most one zero, where u changes sign, on a
# hyperbolic one.
_GAUSS = np.array([[0.5 - math.sqrt(15.0) / 10.0], [0.5], [0.5 + math.sqrt(15.0) / 10.0]])


def _mesh(f: FiberPotential, lam: float, span: float) -> tuple[np.ndarray, int]:
    """The Magnus mesh over offsets [0, span]: the edges of its graded
    steps, from 0 to the offset x_g where the uniform steps take over, and
    the number of uniform steps on [x_g, span].

    At delta < 1, where the local scale of V is shorter than
    MAGNUS_SCALE_STEPS steps of 1 / (MAGNUS_K (1 + |lam|)^0.27), the steps
    grow geometrically from alpha, each at most that scale over
    MAGNUS_SCALE_STEPS.  The uniform step is 1 / (MAGNUS_K (1 + d)^0.27)
    with d the larger of |lam| and the depth V - lam at x_g: the angle
    error of a step deep in the forbidden region grows with V - lam there
    as it does with lam, and a read-off at alpha sees it.
    """
    per_length = MAGNUS_K * (1.0 + abs(lam)) ** 0.27
    edges = np.zeros(1)
    if f.delta < 1.0:
        rate = MAGNUS_SCALE_STEPS * max(f.power, 2.0)
        t_g = min(rate / per_length, f.alpha + span)
        if t_g > f.alpha:
            ratio = math.log(t_g / f.alpha)
            graded = math.ceil(ratio / math.log1p(1.0 / rate))
            edges = f.alpha * np.expm1(ratio / graded * np.arange(graded + 1))
            edges[-1] = min(t_g - f.alpha, span)
    rest = span - edges[-1]
    if not rest > 0.0:
        return edges, 0
    depth = _potential(f, float(edges[-1])) - lam
    if depth > abs(lam):
        per_length = MAGNUS_K * (1.0 + depth) ** 0.27
    return edges, math.ceil(per_length * rest)


def _mesh_steps(f: FiberPotential, lam: float, span: float) -> int:
    edges, uniform = _mesh(f, lam, span)
    return len(edges) - 1 + uniform


def _nodal(f: FiberPotential, x: np.ndarray, h) -> tuple:
    """What Omega takes from V on the steps with left ends x and widths h:
    (h, V at the middle node, h (A3 - A1) sqrt(15)/3, h (A3 - 2 A2 + A1) 10/3).
    The last two hold V only, so no digits are lost to lam."""
    v1, v2, v3 = _potential(f, x + h * _GAUSS)
    d1 = (math.sqrt(15.0) / 3.0 * h) * (v3 - v1)
    d2 = (10.0 / 3.0 * h) * ((v3 - v2) - (v2 - v1))
    return h, v2, d1, d2


def _magnus_block(
    nodal: tuple, lam: float, u: float, du: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, u') at every edge of one block of steps, ascending, propagated
    down from (u, du) at its top edge, and the zeros of u on each step
    (left, right]."""
    h, v2, d1, d2 = nodal
    q = v2 - lam
    oa = (h / 240.0) * d1 * ((4.0 / 3.0) * h * h * q + h * d2 / 30.0 - 20.0)
    ob = h + (h * h / 240.0) * (h * d1 * d1 / 15.0 - (4.0 / 3.0) * d2)
    oc = (
        h * q
        + d2 / 12.0
        + (h / 240.0) * ((4.0 / 3.0) * h * q * d2 + d2 * d2 / 15.0 + d1 * d1 * (h * h * q / 15.0 - 2.0))
    )
    disc = oa * oa + ob * oc
    osc = disc < 0.0
    w = np.sqrt(np.abs(disc))
    cc = np.cos(w)
    ss = np.sinc(w / math.pi)  # sin(w) / w
    hyp = ~osc
    if hyp.any():
        k = w[hyp]
        cc[hyp] = 1.0
        ss[hyp] = np.divide(np.tanh(k), k, out=np.ones_like(k), where=k > 0.0)
    m00, m01, m10, m11 = cc - ss * oa, -ss * ob, -ss * oc, cc + ss * oa
    # products P_i = M_i M_(i+1) ... of the steps from edge i up to the top
    # edge, by doubling: after the pass at shift s each P_i spans 2 s steps
    shift = 1
    while shift < len(w):
        lo, hi = slice(None, -shift), slice(shift, None)
        p00 = m00[lo] * m00[hi] + m01[lo] * m10[hi]
        p01 = m00[lo] * m01[hi] + m01[lo] * m11[hi]
        p10 = m10[lo] * m00[hi] + m11[lo] * m10[hi]
        p11 = m10[lo] * m01[hi] + m11[lo] * m11[hi]
        m00[lo], m01[lo], m10[lo], m11[lo] = p00, p01, p10, p11
        shift *= 2
    us, dus = np.append(m00 * u + m01 * du, u), np.append(m10 * u + m11 * du, du)
    left, d_left, right = us[:-1], dus[:-1], us[1:]
    # oscillatory: u = A sin(s w + g), A sin g = u(0), A cos g w = (Omega y)_1
    g = np.arctan2(left * w, oa * left + ob * d_left)
    turns = np.floor((g + w) / math.pi) - np.floor(g / math.pi)
    # signs, not the product left * right, which can overflow
    crossed = (np.sign(left) != np.sign(right)) & (left != 0.0)
    return us, dus, np.where(osc, turns, crossed)


def _unit(u: float, du: float) -> tuple[float, float]:
    """(u, du) rescaled to max(|u|, |du|) = 1: only its direction decides
    later zeros and angles."""
    scale = max(abs(u), abs(du))
    return float(u) / scale, float(du) / scale


def _back_blocks(
    f: FiberPotential, lam: float, span: float, stops: Sequence[float]
) -> Iterator[tuple[tuple, np.ndarray]]:
    """The steps of _mesh(f, lam, span) in blocks of at most MAGNUS_BLOCK,
    top block first, with every stop inserted as an edge: each as its
    _nodal data and the indices of its stop edges, in the order of stops.
    A block's widths are an array on the graded part of the mesh and one
    float on the uniform part.

    stops are offsets in [0, span), descending; each stop in [bottom, top)
    of a block is placed in that block."""
    edges, steps = _mesh(f, lam, span)
    start = float(edges[-1])
    step = (span - start) / steps if steps else 0.0
    graded_x, graded_h = edges[:-1], np.diff(edges)
    blocks = chain(
        (
            (start + step * np.arange(i, min(i + MAGNUS_BLOCK, steps), dtype=np.float64), step)
            for i in reversed(range(0, steps, MAGNUS_BLOCK))
        ),
        (
            (graded_x[i : i + MAGNUS_BLOCK], graded_h[i : i + MAGNUS_BLOCK])
            for i in reversed(range(0, len(graded_x), MAGNUS_BLOCK))
        ),
    )
    ascending = np.asarray(stops, dtype=np.float64)[::-1]
    for x, h in blocks:
        top = float(x[-1] + (h if np.isscalar(h) else h[-1]))
        placed = ascending[np.searchsorted(ascending, x[0]) : np.searchsorted(ascending, top)]
        marks = np.zeros(0, dtype=np.intp)
        if len(placed):
            edges = np.union1d(np.append(x, top), placed)
            x, h = edges[:-1], np.diff(edges)
            marks = np.searchsorted(edges, placed)[::-1]
        yield _nodal(f, x, h), marks


def _back_angles(blocks, lam: float, v_top: float) -> list[float]:
    """Prufer angles at the stops, descending, of the solution that
    decays at infinity at level lam, propagated down the blocks of
    _back_blocks from u'/u = -sqrt(V - lam) at the top, where V = v_top.

    The top angle lies in [pi/2, pi), so the angle at a stop is psi - pi Z,
    with Z the zeros of u in (stop, top] and psi in [0, pi] the angle of
    (u, u') or of (-u, -u'), whichever has u > 0 (psi = 0 where u = 0).
    A psi taken mod pi would lose pi where the rounding of atan2 lands a
    tiny u > 0 on pi."""
    theta = math.atan2(1.0, -math.sqrt(max(v_top - lam, 0.0)))
    u, du = math.sin(theta), math.cos(theta)
    zeros = 0
    angles: list[float] = []
    for nodal, marks in blocks:
        us, dus, steps = _magnus_block(nodal, lam, u, du)
        if len(marks):
            # zeros of u on (edge i, top of the block]
            above = np.append(np.cumsum(steps[::-1])[::-1], 0.0)[marks] + zeros
            u_at = us[marks]
            psi = np.arctan2(u_at, dus[marks])
            psi = np.where(u_at == 0.0, 0.0, np.where(psi < 0.0, psi + math.pi, psi))
            angles += (psi - math.pi * above).tolist()
        zeros += int(steps.sum())
        u, du = _unit(us[0], dus[0])
    return angles


def _require_finite(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"spectral level must be finite, got {lam}")


def _boundary_angle(f: FiberPotential, bc: BoundaryCondition) -> float:
    """Prufer angle theta0 at alpha of the boundary condition: 0 for
    Dirichlet, u'/u = -beta for Robin."""
    return 0.0 if bc.kind == "dirichlet" else math.atan2(1.0, -_resolve_beta(f, bc))


def _shoot_back(f: FiberPotential, lam: float, span: float, stops: Sequence[float]) -> list[float]:
    """Prufer angles at each of stops, offsets in [0, span), descending and
    ending at the boundary 0, of the solution that decays at infinity at
    level lam, shot back from the offset span in the forbidden region (see
    _shoot_span), where it starts at u'/u = -sqrt(V - lam): one backward
    Magnus propagation down the mesh of (f, lam) with every stop inserted
    as an edge (see _back_angles)."""
    return _back_angles(_back_blocks(f, lam, span, stops), lam, _potential(f, span))


def _empty_below(f: FiberPotential, lam: float, bc: BoundaryCondition) -> bool:
    """Whether a mu > 0 fiber is known, without a shoot, to have no
    eigenvalue below lam: lam <= min V - max(beta, 0)^2, beta = 0 under
    Dirichlet.  The Robin form ||u'||^2 + (V u, u) - beta |u(alpha)|^2 is
    bounded below by (min V - beta^2) ||u||^2, because |u(alpha)|^2 <=
    2 ||u|| ||u'|| gives beta |u(alpha)|^2 <= ||u'||^2 + beta^2 ||u||^2."""
    return lam <= potential_min(f) - max(_resolve_beta(f, bc), 0.0) ** 2


def fiber_count(
    f: FiberPotential,
    lam: float,
    bc: BoundaryCondition = DIRICHLET,
    *,
    theta_decay: Optional[float] = None,
) -> int:
    """Number of eigenvalues strictly below lam: the boundary read-off
    ceil((theta0 - theta_decay) / pi), theta_decay the Prufer angle at alpha
    of the solution that decays at infinity at level lam.

    Without theta_decay the fiber shoots it alone, back from the offset
    _shoot_span(f, lam) to the boundary (see _shoot_back), once its mesh is
    known to fit MESH_BUDGET; count_fibers passes the angle of a shoot that
    it shares among the boundary conditions, and at delta = 1 among the
    modes.  A given angle is always read off; only a count that would shoot
    its own returns 0 at lam <= min V - max(beta, 0)^2 without one (see
    _empty_below).

    mu = 0 channels carry continuous spectrum above the essential infimum;
    asking for a count there raises ContinuousSpectrumError.  A non-finite
    lam raises ValueError.
    """
    _require_finite(lam)
    if f.mu == 0.0:
        if lam > f.ess_inf:
            raise ContinuousSpectrumError(
                f"mu = 0 channel has continuous spectrum above {f.ess_inf}; "
                f"cannot count at lam = {lam}"
            )
        if bc.kind == "dirichlet":
            return 0
        beta = _resolve_beta(f, bc)
        if f.delta == 1.0:
            # constant potential q: the only candidate is the boundary state
            # at q - beta^2, present exactly when beta > 0
            q = f.const_coeff
            return 1 if (beta > 0.0 and q - beta * beta < lam) else 0
        # V = c / t^2: the decaying zero-energy solution meets the Robin
        # condition exactly at the default beta (the image of the constant
        # mode, eigenvalue 0), so a state below lam <= 0 needs a larger beta
        if beta <= default_robin_beta(f):
            return 0
    if theta_decay is None:
        if _empty_below(f, lam, bc):
            return 0
        span = _shoot_span(f, lam)
        _check_budget(_mesh_steps(f, lam, span), f"a backward shoot at lambda = {lam}")
        [theta_decay] = _shoot_back(f, lam, span, [0.0])
    return math.ceil((_boundary_angle(f, bc) - theta_decay) / math.pi)


def count_fibers(
    n: int,
    delta: float,
    a: float,
    mus: Sequence[float],
    lam: float,
    bcs: Sequence[BoundaryCondition],
) -> list[list[int]]:
    """fiber_count(lam) for each mode of one cusp, mus ascending, distinct and
    > 0: one list of counts per boundary condition in bcs, in their order.

    delta = 1: every mode is the mu = 1 fiber shifted to start at s_mu (see
    the module docstring).  The modes that can count under some condition
    in bcs, min V = e^(2 s_mu) + (n-1)^2/4 below lam + max(beta, 0)^2, are
    a prefix of the sorted modes, found by one bisection over s_mu; the
    others read 0.  One backward shoot of the decaying solution on the
    shifted fiber of the lowest mode, from past the highest s_mu of that
    prefix, passes each of its s_mu in descending order, in one propagation
    with an edge of its mesh at each, and no shoot is made when the prefix
    is empty.  The angle theta(s_mu) does not depend on the boundary
    condition, so that one shoot serves every one of bcs: fiber_count reads
    each mode's count off its angle on the shifted mu = 1 fiber, N =
    ceil((theta0 - theta(s_mu)) / pi).  The total length is at most that of
    one shoot of the smallest mode.  Its plan, the mesh steps plus one per
    shot mode, is held to MESH_BUDGET before it runs.

    delta < 1: N(lam; mu) is non-increasing in mu under every condition, so
    when the tuples of counts at both ends of an index range agree, every
    mode between them has those counts too.  Such a range is filled without
    shooting; any other range is split at its midpoint.  One bisection
    serves all of bcs: a probed mode is shot back once, and every condition
    reads its count off that angle, as at delta = 1; a mode whose counts
    are all 0 by _empty_below is not shot.  Before the first shoot, the work is
    estimated as the number of modes times the Magnus mesh of the lowest
    mode, whose allowed region is the longest.

    Above MESH_BUDGET planned steps MeshBudgetError is raised.
    """
    _require_finite(lam)
    mus = list(mus)
    if mus and not mus[0] > 0.0:
        raise ValueError("count_fibers needs mu > 0")
    if any(not hi > lo for lo, hi in zip(mus, mus[1:])):
        raise ValueError("count_fibers needs strictly ascending mus")
    if not mus:
        return [[] for _ in bcs]
    if delta == 1.0:
        return _count_shifted_modes(n, a, mus, lam, bcs)
    lowest = FiberPotential.from_cusp(n, delta, a, mus[0])
    steps = _mesh_steps(lowest, lam, _shoot_span(lowest, lam))
    _check_budget(len(mus) * steps, f"backward shoots of {len(mus)} modes at lambda = {lam}")
    return _bisect_modes(n, delta, a, mus, lam, bcs)


def _check_budget(steps: int, work: str) -> None:
    if steps > MESH_BUDGET:
        raise MeshBudgetError(f"{work} would take {steps} mesh steps, budget is {MESH_BUDGET}")


def _bisect_modes(
    n: int, delta: float, a: float, mus: list[float], lam: float, bcs: Sequence[BoundaryCondition]
) -> list[list[int]]:
    """count_fibers at delta < 1, by one bisection over the modes for all of bcs."""
    counts: list[tuple[int, ...]] = [()] * len(mus)

    def probe(i: int) -> None:
        f = FiberPotential.from_cusp(n, delta, a, mus[i])
        theta = None
        if not all(_empty_below(f, lam, bc) for bc in bcs):
            [theta] = _shoot_back(f, lam, _shoot_span(f, lam), [0.0])
        counts[i] = tuple(fiber_count(f, lam, bc, theta_decay=theta) for bc in bcs)

    last = len(mus) - 1
    probe(0)
    if last > 0:
        probe(last)
    ranges = [(0, last)]
    while ranges:
        lo, hi = ranges.pop()
        if counts[lo] == counts[hi]:
            counts[lo + 1 : hi] = [counts[lo]] * (hi - lo - 1)
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            probe(mid)
            ranges += [(mid, hi), (lo, mid)]
    return [list(column) for column in zip(*counts)]


def _count_shifted_modes(
    n: int, a: float, mus: list[float], lam: float, bcs: Sequence[BoundaryCondition]
) -> list[list[int]]:
    """count_fibers at delta = 1, in the shifted coordinate s = t + (1/2) ln mu."""
    alpha = 2.0 * math.log(a)
    starts = [alpha + 0.5 * math.log(mu) for mu in mus]
    # V(s) = e^(2s) + (n-1)^2/4 for every mode.  The shoot runs on the fiber
    # whose boundary is the lowest s_mu, with a stop at the offset of every
    # mode that can count, min V = e^(2 s_mu) + (n-1)^2/4 below lam +
    # max(beta, 0)^2 (see _empty_below); the others read 0
    shifted = FiberPotential(n=n, delta=1.0, mu=1.0, alpha=starts[0])
    beta = max((_resolve_beta(shifted, bc) for bc in bcs), default=0.0)
    reach = lam - shifted.const_coeff + max(beta, 0.0) ** 2
    shot = bisect_right(starts, 0.5 * math.log(reach)) if reach > 0.0 else 0
    thetas: list[float] = []
    if shot:
        stops = [s - starts[0] for s in starts[:shot]]
        span = _shoot_span(shifted, lam, stops[-1])
        steps = _mesh_steps(shifted, lam, span) + shot
        _check_budget(steps, f"counts of {shot} modes from one backward shoot at lambda = {lam}")
        thetas = _shoot_back(shifted, lam, span, stops[::-1])[::-1]
    zeros = [0] * (len(mus) - shot)
    return [
        [fiber_count(shifted, lam, bc, theta_decay=theta) for theta in thetas] + zeros for bc in bcs
    ]


def fiber_eigenvalues(
    f: FiberPotential, lam_max: float, bc: BoundaryCondition = DIRICHLET
) -> list[float]:
    """All eigenvalues below lam_max, to REL_TOL, as the roots of the
    boundary read-off F(lam) = theta0 - theta_dec(alpha; lam) = k pi.

    Every backward shoot starts from the offset _shoot_span at the level
    max(lam_max, min V) and runs down one mesh, built with its nodal V at
    that level and reused for every level, so that only V - lam changes between shoots
    and F is smooth in lam.  That mesh is held to MESH_BUDGET before the
    first shoot.  The total is fiber_count's read-off
    ceil(F(lam_max) / pi).  The listing then plans the mesh steps times 6
    shoots per eigenvalue plus 3 and raises MeshBudgetError above
    MESH_BUDGET.  Each root below the total is bracketed by the F values
    already computed; each F value is kept for the later roots.  brentq
    at xtol = rtol = REL_TOL closes each bracket, within REL_TOL (1 +
    |lam|) of the root.  The roots are found on F read in the scaled angle
    phi of SLEIGN2 and SLEDGE at alpha, tan phi = S tan theta with S =
    ((lam - V)^2 + 1)^(1/4), which equals k pi exactly where F does and
    lies on the same side of k pi, but runs nearly linearly in lam where
    theta climbs in stairs.  A root within REL_TOL of lam_max is a tie
    with the cutoff and is dropped.
    """
    from scipy.optimize import brentq

    if f.mu <= 0.0:
        raise ValueError("fiber_eigenvalues needs a confining fiber (mu > 0)")
    _require_finite(lam_max)
    theta0 = _boundary_angle(f, bc)
    v_min = potential_min(f)
    v_alpha = _potential(f, 0.0)
    # below the potential minimum, the shoot and the mesh at the minimum
    level = max(lam_max, v_min)
    span = _shoot_span(f, level)
    v_top = _potential(f, span)
    steps = _mesh_steps(f, level, span)
    _check_budget(steps, f"a backward shoot at lambda = {lam_max}")
    # the shoot at lam_max streams its mesh; it is kept only once the
    # total is known to fit the budget
    theta_dec = {lam_max: _back_angles(_back_blocks(f, level, span, [0.0]), lam_max, v_top)[0]}
    total = fiber_count(f, lam_max, bc, theta_decay=theta_dec[lam_max])
    if total == 0:
        return []
    _check_budget(steps * (6 * total + 3), f"backward shoots of a listing of {total} eigenvalues")
    blocks = list(_back_blocks(f, level, span, [0.0]))

    @functools.cache
    def read_off(lam: float) -> float:
        """F(lam) in the scaled angle at alpha, computed once per level."""
        if lam not in theta_dec:
            theta_dec[lam] = _back_angles(blocks, lam, v_top)[0]
        scale = _scale(lam - v_alpha)
        return _rescale(theta0, scale, 1.0) - _rescale(theta_dec[lam], scale, 1.0)

    lo = v_min
    beta = _resolve_beta(f, bc)
    if bc.kind == "robin" and beta > 0.0:
        lo -= 2.0 * beta * beta + 1.0
    while read_off(lo) > 0.0:
        lo -= 2.0 * (abs(lo) + 1.0)
    values: list[float] = []
    for k in range(total):
        target = k * math.pi
        lo = max(lam for lam in theta_dec if read_off(lam) <= target)
        hi = min(lam for lam in theta_dec if read_off(lam) > target)
        values.append(
            brentq(lambda lam: read_off(lam) - target, lo, hi, xtol=REL_TOL, rtol=REL_TOL)
        )
    cut = lam_max - REL_TOL * max(1.0, abs(lam_max))
    return [v for v in values if v < cut]


def fd_oracle(
    f: FiberPotential,
    lam_max: float,
    bc: BoundaryCondition = DIRICHLET,
    grid: int = 1 << 15,
) -> list[float]:
    """Independent check: eigenvalues below lam_max of the three-point
    finite-difference matrix on [alpha, T(lam_max) + 8].

    The Robin row comes from the lumped-mass symmetric discretization, so the
    matrix stays tridiagonal-symmetric.  Test-only; O(h^2) accurate.
    """
    if grid < 1000:
        raise ValueError("fd_oracle needs grid >= 1000")
    x_turn = _edge_offset(f, lam_max)
    if x_turn == math.inf:
        raise ContinuousSpectrumError("fd_oracle cannot resolve a continuum channel")
    h = ((0.0 if x_turn is None else x_turn) + 8.0) / grid
    beta = _resolve_beta(f, bc)
    v = _potential(f, h * np.arange(grid + 1))
    if bc.kind == "dirichlet":
        diag = 2.0 / h**2 + v[1:grid]
        off = np.full(grid - 2, -1.0 / h**2)
    else:
        diag = np.concatenate(([2.0 / h**2 + v[0] - 2.0 * beta / h], 2.0 / h**2 + v[1:grid]))
        off = np.full(grid - 1, -1.0 / h**2)
        off[0] = -math.sqrt(2.0) / h**2
    lo = float(min(v.min(), 0.0) - 2.0 * beta * beta - 10.0)
    if lam_max <= lo:  # below every eigenvalue, as fiber_count finds there
        return []
    from scipy.linalg import eigh_tridiagonal

    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(lo, lam_max)
    )
    return [float(x) for x in vals if x < lam_max]
