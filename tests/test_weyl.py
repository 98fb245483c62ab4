import dataclasses
import math
import tracemalloc
import warnings

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from cuspspec import fiber, weyl
from cuspspec import (
    BoundaryCondition,
    CompactCoreSurrogate,
    ContinuousSpectrumError,
    CuspEnd,
    EnumerationBudgetError,
    FiberPotential,
    ManifoldModel,
    TorusCrossSection,
    cusp_count,
    cusp_modes,
    fd_oracle,
    fiber_count,
    fit_remainder_samples,
    identity_residual,
    mu_spectrum,
    phase_integral,
    remainder_fit,
    remainder_model,
    rj_identity,
    rj_sum,
    theta_sum,
    total_count_bracket,
    weyl_leading,
)
from cuspspec.fiber import DIRICHLET
from conftest import TWO_PI, circle_model, torus3_model


def all_modes(model, lam):
    """Every contributing cross-section mode of cusp 0, with multiplicity:
    mu below the cusp's own floor lam / a^(4 delta)."""
    cusp = model.cusps[0]
    return mu_spectrum(cusp.cross_section, 1.0, lam / cusp.a ** (4.0 * cusp.delta)).values.tolist()


def closed_form_w_delta1(f: FiberPotential, lam: float) -> float:
    """The delta = 1 phase integral in closed form, to 30 digits (test oracle).

    With E = lam - (n-1)^2/4, floor = mu e^(2 alpha) and y0 = sqrt(E - floor),
    w = sqrt(E) ln((sqrt(E) + y0) / sqrt(floor)) - y0 for E > floor, else 0.
    """
    with mpmath.workdps(30):
        e = mpmath.mpf(lam) - mpmath.mpf(f.const_coeff)
        floor = mpmath.mpf(f.mu) * mpmath.exp(2 * mpmath.mpf(f.alpha))
        if e <= floor:
            return 0.0
        y0, root = mpmath.sqrt(e - floor), mpmath.sqrt(e)
        return float(root * mpmath.log((root + y0) / mpmath.sqrt(floor)) - y0)


def closed_form_bound_delta1(f: FiberPotential, lam: float) -> float:
    """Relative error allowed of the delta = 1 closed form: 1e-13, plus
    1e-15 E / (E - floor) for the rounding of E = lam - (n-1)^2/4, which
    E - floor amplifies near the floor."""
    with mpmath.workdps(30):
        e = mpmath.mpf(lam) - mpmath.mpf(f.const_coeff)
        floor = mpmath.mpf(f.mu) * mpmath.exp(2 * mpmath.mpf(f.alpha))
        return 1e-13 + 1e-15 * float(e / (e - floor))


def mpmath_w(f: FiberPotential, lam: float, points) -> float:
    """integral of sqrt([lam - V]_+) for delta < 1 over the breakpoints points,
    by tanh-sinh quadrature in t itself, to 25 digits (test oracle)."""
    with mpmath.workdps(25):
        d = mpmath.mpf(f.delta)
        p, c = 2 * d / (1 - d), (f.n - 1) * d * ((f.n - 3) * d + 2) / (4 * (1 - d) ** 2)
        return float(mpmath.quad(
            lambda t: mpmath.sqrt(max(lam - f.mu * ((1 - d) * t) ** p - c / t**2, 0)), points
        ))


class TestPhaseIntegral:
    def test_reference_value(self):
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)
        expected = 10.0 * math.log(10.0 + math.sqrt(99.0)) - math.sqrt(99.0)
        assert phase_integral(f, 100.25) == pytest.approx(expected, abs=1e-8)

    def test_zero_below_minimum(self):
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)
        assert phase_integral(f, 1.0) == 0.0
        assert phase_integral(f, 1.25) == 0.0

    def test_monotone_in_lambda(self):
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)
        values = [phase_integral(f, lam) for lam in (5.0, 20.0, 80.0, 320.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        a=st.floats(0.5, 1.5),
        log_mu=st.floats(-5.0, 6.0),
        log_lam=st.floats(0.0, 9.0),
    )
    def test_closed_form_delta1(self, n, a, log_mu, log_lam):
        f = FiberPotential.from_cusp(n, 1.0, a, math.exp(log_mu))
        lam = math.exp(log_lam)
        expected = closed_form_w_delta1(f, lam)
        assume(expected > 0.0)
        assert phase_integral(f, lam) == pytest.approx(expected, rel=1e-11, abs=0.0)

    def _assert_closed_form(self, fibers, lam):
        # one batched pass equals the single-mode values bit for bit, and no
        # numpy warning (divide, invalid, overflow) is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [phase_integral(f, lam) for f in fibers]
            n, alpha = fibers[0].n, fibers[0].alpha
            batch = weyl._phase_delta1(n, alpha, np.array([f.mu for f in fibers]), lam)
        assert batch.tolist() == got
        for f, w in zip(fibers, got):
            expected = closed_form_w_delta1(f, lam)
            if expected == 0.0:
                assert w == 0.0
            else:
                assert abs(w - expected) <= closed_form_bound_delta1(f, lam) * expected

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        alpha=st.floats(-400.0, 400.0),
        log10_mus=st.lists(st.floats(-300.0, 6.0), min_size=1, max_size=4),
        log10_lam=st.floats(-1.0, 15.0),
    )
    def test_closed_form_delta1_wide_range(self, n, alpha, log10_mus, log10_lam):
        # mu down to 1e-300, so that mu e^(2 alpha) may lie below the
        # smallest double, or far above lam; lam up to 1e15
        fibers = [FiberPotential(n, 1.0, 10.0**x, alpha) for x in log10_mus]
        self._assert_closed_form(fibers, 10.0**log10_lam)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        log10_mu=st.floats(-300.0, 6.0),
        log10_lam=st.floats(1.0, 15.0),
        log10_rel=st.floats(-6.0, -1.0),
    )
    def test_closed_form_delta1_near_the_floor(self, n, log10_mu, log10_lam, log10_rel):
        # E from 1e-6 to 1e-1 relative above floor = mu e^(2 alpha)
        lam, mu = 10.0**log10_lam, 10.0**log10_mu
        e = lam - (n - 1) ** 2 / 4.0
        floor = e / (1.0 + 10.0**log10_rel)
        alpha = 0.5 * (math.log(floor) - math.log(mu))
        self._assert_closed_form([FiberPotential(n, 1.0, mu, alpha)], lam)

    @pytest.mark.parametrize(
        "n,alpha,mu,lam",
        [
            (2, 0.0, 1.0, 0.25),  # E = 0
            (3, 0.0, 1.0, 0.5),  # E < 0
            (2, 0.0, 1.0, -3.0),
            (2, 0.0, 99.75, 100.0),  # E = floor exactly
            (3, 0.0, 1e15 - 1.0, 1e15),  # E = floor exactly at lam = 1e15
            (2, -800.0, 1.0, 100.0),  # e^alpha underflows
            (2, 705.0, 5e-324, 1e300),  # e^alpha overflows, floor ~ 1e289 < E
            (2, 705.0, 1e-300, 1e15),  # floor beyond the float range
            (4, 3.0, 1e300, 1e15),  # mu e^(2 alpha) overflows
            (2, -345.0, 1e-300, 1e15),  # floor below the smallest double
        ],
    )
    def test_closed_form_delta1_edges(self, n, alpha, mu, lam):
        self._assert_closed_form([FiberPotential(n, 1.0, mu, alpha)], lam)

    def test_brute_force_delta_075(self):
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 1.0)
        lam = 25.0
        xs = np.linspace(0.0, fiber._edge_offset(f, lam), 1 << 20)
        integrand = np.sqrt(np.clip(lam - fiber._potential(f, xs), 0, None))
        brute = float(np.trapezoid(integrand, xs))
        assert phase_integral(f, lam) == pytest.approx(brute, abs=5e-4)

    def test_free_channel_raises_above_floor(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert phase_integral(flat, 0.2) == 0.0
        with pytest.raises(ContinuousSpectrumError):
            phase_integral(flat, 1.0)

    @pytest.mark.parametrize("lam", [0.42, 0.45, 0.49, 0.6, 3.0])
    def test_interior_minimum_against_quad(self, lam):
        # alpha = 2.828, V(alpha) = 0.5, and V dips to 0.418 at t = 3.459:
        # below V(alpha) the allowed interval starts at an interior root
        # t_lo > alpha, and the integral substitutes at both turning points
        f = FiberPotential.from_cusp(2, 0.75, 0.5, 0.25)
        x_lo, x_hi = fiber._allowed_offsets(f, lam)
        if lam < fiber._potential(f, 0.0):
            assert x_lo > 0.0
            assert fiber._potential(f, x_lo) == pytest.approx(lam, rel=1e-12)
        else:
            assert x_lo == 0.0
        direct, _ = quad(
            lambda x: math.sqrt(max(lam - fiber._potential(f, x), 0.0)),
            x_lo, x_hi, epsabs=1e-13, epsrel=1e-13, limit=500,
        )
        assert phase_integral(f, lam) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        delta=st.floats(0.55, 0.95),
        a=st.floats(0.3, 1.5),
        log_mu=st.floats(-4.0, 4.0),
        below_alpha=st.booleans(),
        u=st.floats(0.01, 0.99),
    )
    def test_drawn_interval_shapes_against_mpmath(self, n, delta, a, log_mu, below_alpha, u):
        # three shapes of [t_lo, t_hi]: t_lo = alpha with V increasing
        # (minimum at alpha), t_lo = alpha with V dipping to an interior
        # minimum, and t_lo > alpha with a turning point at each end
        f = FiberPotential.from_cusp(n, delta, a, math.exp(log_mu))
        x_min = fiber._interior_min(f)
        v_alpha, v_min = fiber._potential(f, 0.0), fiber._potential(f, x_min)
        if below_alpha:
            assume(x_min > 0.0)
            lam = v_min + u * (v_alpha - v_min)
        else:
            lam = v_alpha + math.exp(7.0 * u - 3.0)
        x_lo, x_hi = fiber._allowed_offsets(f, lam)
        assert (x_lo > 0.0) == below_alpha
        # the oracle integrates in t = alpha + x
        offsets = [x_lo, x_min, x_hi] if x_lo < x_min < x_hi else [x_lo, x_hi]
        points = [f.alpha + x for x in offsets]
        assert phase_integral(f, lam) == pytest.approx(
            mpmath_w(f, lam, points), rel=1e-10, abs=0.0
        )


class TestAdmissible:
    def test_reference_twenty_fibers(self, ref_model):
        mus, mults = cusp_modes(ref_model, 0, 100.0)
        assert sum(mults) == 20
        assert mus[0] == 0.25
        assert all(type(mu) is float for mu in mus)
        assert all(type(mult) is int for mult in mults)

    @pytest.mark.parametrize("omega", [0.5, 0.0])
    def test_groups_the_spectrum(self, omega):
        # omega = 0.5 pairs modes along the first axis; omega = 0 adds mu = 0
        x = TorusCrossSection((TWO_PI, 1.3 * TWO_PI), (omega, 0.3 * omega))
        model = ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x, 1.0, 1.0),))
        modes = all_modes(model, 40.0)
        groups: dict[float, int] = {}
        for mu in modes:
            if mu > 0.0:
                groups[mu] = groups.get(mu, 0) + 1
        assert max(groups.values()) > 1
        assert (modes[0] == 0.0) == (omega == 0.0)
        assert cusp_modes(model, 0, 40.0) == tuple(map(list, zip(*sorted(groups.items()))))

    def test_empty_below_bottom(self, ref_model):
        assert cusp_modes(ref_model, 0, 0.2) == ([], [])

    def test_threshold_scales_as_a_pow_4delta(self):
        # a = 1/2 scales the floor mu a^(4 delta) by 2^-4 at delta = 1 and by
        # 2^-3 at delta = 0.75, exactly in binary
        lam = 25.0
        for delta, scale in ((1.0, 2.0**4), (0.75, 2.0**3)):
            assert cusp_modes(circle_model(a=0.5, delta=delta), 0, lam) == cusp_modes(
                circle_model(a=1.0, delta=delta), 0, scale * lam
            )
        # the modes (k + 1/2)^2 of the a = 1/2, delta = 1 circle up to the
        # floor: 6.25 sits at it for lam = 6.25 / 16 and is left out
        assert cusp_modes(circle_model(a=0.5), 0, 6.25 / 16) == ([0.25, 2.25], [2, 2])
        assert cusp_modes(circle_model(a=0.5), 0, 6.25 / 16 + 1e-9)[0][-1] == 6.25

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        deltas=st.tuples(*[st.sampled_from([1.0, 0.75, 0.6])] * 2),
        log10_floors=st.tuples(*[st.floats(-1.5, 1.5)] * 2),
        omegas=st.tuples(*[st.floats(0.1, 0.9)] * 2),
        lam=st.floats(0.5, 20.0),
    )
    def test_each_cusp_lists_below_its_own_floor(self, n, deltas, log10_floors, omegas, lam):
        # two cusps whose floors a^(4 delta) differ by up to 1e3: each lists
        # and counts its modes as the one-cusp model of it alone does
        cusps = tuple(
            CuspEnd(
                TorusCrossSection((TWO_PI,) * (n - 1), (omega,) * (n - 1)),
                a=10.0 ** (log10_floor / (4.0 * delta)),
                delta=delta,
            )
            for delta, log10_floor, omega in zip(deltas, log10_floors, omegas)
        )
        both = ManifoldModel(n, CompactCoreSurrogate(), cusps)
        alone = [ManifoldModel(n, CompactCoreSurrogate(), (cusp,)) for cusp in cusps]
        for j, model in enumerate(alone):
            assert cusp_modes(both, j, lam) == cusp_modes(model, 0, lam)
        bcs = [DIRICHLET, BoundaryCondition.robin()]
        ends = [weyl.count_ends(model, lam, bcs) for model in alone]
        assert weyl.count_ends(both, lam, bcs) == [sum(end) for end in zip(*ends)]


class TestThetaSum:
    def test_single_fiber_equals_phase_over_pi(self):
        model = circle_model(omega=0.3)
        lam = 0.2  # cutoff 0.2 admits only mu_0 = 0.09
        fibers = all_modes(model, lam)
        assert len(fibers) == 1
        assert cusp_modes(model, 0, lam) == (fibers, [1])
        f = FiberPotential.from_cusp(2, 1.0, 1.0, fibers[0])
        assert theta_sum(model, 0, lam) == phase_integral(f, lam) / math.pi

    def test_one_phase_integral_per_distinct_mode(self, ref_model, monkeypatch):
        # omega = 0.5 pairs the modes (k + 1/2)^2 and (-k - 1/2)^2; at
        # delta = 1 one closed-form pass takes each distinct mode once
        lam = 100.0
        fibers = all_modes(ref_model, lam)
        terms = [phase_integral(FiberPotential.from_cusp(2, 1.0, 1.0, mu), lam) for mu in fibers]
        passes = []
        real = weyl._phase_delta1

        def counted(n, alpha, mus, lam):
            passes.append(mus.tolist())
            return real(n, alpha, mus, lam)

        monkeypatch.setattr(weyl, "_phase_delta1", counted)
        assert theta_sum(ref_model, 0, lam) == math.fsum(terms) / math.pi
        assert passes == [sorted(set(fibers))]
        assert len(passes[0]) == len(fibers) // 2

    def test_one_quadrature_per_distinct_mode_delta075(self, ref_model_075, monkeypatch):
        lam = 100.0
        fibers = all_modes(ref_model_075, lam)
        terms = [
            phase_integral(FiberPotential.from_cusp(2, 0.75, 1.0, mu), lam) for mu in fibers
        ]
        calls = []
        real = weyl.phase_integral

        def counted(f, lam):
            calls.append(f.mu)
            return real(f, lam)

        monkeypatch.setattr(weyl, "phase_integral", counted)
        assert theta_sum(ref_model_075, 0, lam) == math.fsum(terms) / math.pi
        assert sorted(calls) == sorted(set(fibers))
        assert len(calls) == len(fibers) // 2

    @pytest.mark.parametrize("lam", [66.0, 1e3])
    def test_torus3_against_per_mode_quad(self, lam):
        # w = integral over [alpha, t_hi] of sqrt(E - mu e^(2t)), taken by
        # quad with the weight sqrt(t_hi - t) of the turning point
        model = torus3_model()
        alpha = FiberPotential.from_cusp(3, 1.0, model.cusps[0].a, 0.0).alpha
        e = lam - 1.0
        terms = []
        for mu, mult in zip(*cusp_modes(model, 0, lam)):
            t_hi = 0.5 * math.log(e / mu)
            if t_hi <= alpha:
                continue

            def smooth(t, t_hi=t_hi):
                d = t_hi - t
                return math.sqrt(-e * math.expm1(-2.0 * d) / d) if d > 0.0 else math.sqrt(2.0 * e)

            w, _ = quad(smooth, alpha, t_hi, weight="alg", wvar=(0.0, 0.5), epsabs=0.0, epsrel=1e-13)
            terms += [w] * mult
        assert theta_sum(model, 0, lam) == pytest.approx(math.fsum(terms) / math.pi, rel=1e-10, abs=0.0)

    def test_zero_below_all_minima(self, ref_model):
        assert theta_sum(ref_model, 0, 0.3) == 0.0

    def test_tracks_weyl_term(self, ref_model):
        # |Theta - Weyl| stays inside the sqrt(lam) ln(lam) remainder band
        for lam in (100.0, 1000.0, 10000.0):
            gap = abs(theta_sum(ref_model, 0, lam) - weyl_leading(TWO_PI, 2, lam))
            assert gap <= 2.0 * math.sqrt(lam) * (1.0 + math.log(lam))

    @pytest.mark.parametrize("omega", [0.5, 0.25])
    def test_delta1_sqrt_lam_coefficient(self, omega):
        # Mode k has phase sqrt(E) g((k+omega)/sqrt(E)), E = lam - 1/4, with
        # g(s) = artanh sqrt(1-s^2) - sqrt(1-s^2).  The integral of g over
        # [-1, 1] is pi/2 (the Weyl term lam/2); Euler-Maclaurin at its -ln|s|
        # singularity gives Theta - lam/2 = -(ln(2 sin pi omega)/pi) sqrt(lam).
        model = circle_model(delta=1.0, omega=omega)
        predicted = -math.log(2.0 * math.sin(math.pi * omega)) / math.pi
        for lam in (1.0e4, 1.0e5):
            coeff = (theta_sum(model, 0, lam) - lam / 2.0) / math.sqrt(lam)
            assert abs(coeff - predicted) <= 0.005

    def test_leading_linear_in_volume(self):
        assert weyl_leading(2.0 * TWO_PI, 2, 64.0) == pytest.approx(
            2.0 * weyl_leading(TWO_PI, 2, 64.0)
        )


class TestRjIdentity:
    def test_zero_at_zero(self):
        x = TorusCrossSection((TWO_PI,), (0.5,))
        assert rj_sum(x, 1.0, 0.0) == 0.0

    def test_free_circle_at_one(self):
        x = TorusCrossSection((TWO_PI,), (0.0,))
        assert rj_sum(x, 0.0, 1.0) == 1.0  # only m = 0; [1-1]_+ = 0

    def test_identity_residual_tiny(self):
        x = TorusCrossSection((TWO_PI,), (0.5,))
        assert identity_residual(x, 1.0, 100.0) <= 1e-10

    # (lengths, omega, mu); the first has runs of neighbours within 1e-12
    # whose span from the run's first value exceeds 1e-12
    CASES = {
        "torus3-wide-runs": ((TWO_PI, TWO_PI, TWO_PI), (0.5, 0.5, 0.25), 3000.0),
        "torus2-free": ((TWO_PI, TWO_PI), (0.0, 0.0), 5000.0),
        "torus2-benchmark": ((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3), 2.0e4),
        # about 250k modes: each side is an exact sum over several blocks
        "torus2-benchmark-multiblock": ((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3), 6.0e4),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_sequential_grouping(self, name):
        lengths, omega, mu = self.CASES[name]
        x = TorusCrossSection(lengths, omega)
        rj, residual = sequential_rj_identity(mu_spectrum(x, 1.0, mu).values.tolist(), mu)
        assert rj_sum(x, 1.0, mu) == rj
        assert identity_residual(x, 1.0, mu) == residual
        assert rj_identity(x, 1.0, mu) == (rj, residual)

    def test_wide_runs_are_split_sequentially(self):
        lengths, omega, mu = self.CASES["torus3-wide-runs"]
        x = TorusCrossSection(lengths, omega)
        values = mu_spectrum(x, 1.0, mu).values
        jumps = sequential_jumps(values.tolist())
        # gaps above 1e-12 alone would give fewer jumps than the sequential rule
        assert len(jumps) > 1 + np.count_nonzero(np.diff(values) > 1e-12)
        starts, ends = weyl._jumps(values)
        assert values[starts].tolist() == [s for s, _ in jumps]
        assert (ends - starts).tolist() == [mult for _, mult in jumps]
        assert rj_identity(x, 1.0, mu) == (22206530.683808643, 7.450580596923828e-09)

    def test_empty_spectrum(self):
        x = TorusCrossSection((TWO_PI,), (0.5,))
        assert rj_identity(x, 1.0, 0.2) == (0.0, 0.0)  # mu_0 = 0.25

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_non_finite_mu_rejected(self, mu):
        x = TorusCrossSection((TWO_PI,), (0.5,))
        with pytest.raises(ValueError, match="must be finite"):
            rj_sum(x, 1.0, mu)
        with pytest.raises(ValueError, match="must be finite"):
            identity_residual(x, 1.0, mu)


def sum_outcome(f, values):
    """f(values), or the type of the exception it raises."""
    try:
        return f(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def same_float(a, b):
    """Bit-for-bit equality of two floats (or outcomes), nan and -0.0 included."""
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


class TestExactSum:
    BLOCK = weyl._SUM_BLOCK

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        blocks=st.integers(0, 2),
        rest=st.integers(0, weyl._SUM_BLOCK),
        seed=st.integers(0, 2**32 - 1),
        lo_exp=st.integers(-300, 300),
        span=st.integers(0, 600),
        signs=st.sampled_from(["positive", "negative", "mixed"]),
        subnormal=st.booleans(),
        cancel=st.booleans(),
    )
    def test_equals_fsum_bit_for_bit(
        self, blocks, rest, seed, lo_exp, span, signs, subnormal, cancel
    ):
        # lengths from 0 to three blocks
        n = blocks * self.BLOCK + rest
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(lo_exp, min(lo_exp + span, 300), n)
        if signs == "negative":
            x = -x
        elif signs == "mixed":
            x *= rng.choice([-1.0, 1.0], n)
        if subnormal:
            x[::3] = 5e-324 * rng.integers(-2**20, 2**20, x[::3].size)
        if cancel:
            # every value cancelled by its negation, as in [1e16, 1, -1e16]
            x = np.concatenate([[1e16], x, -x[::-1], [1.0, -1e16]])
        assert same_float(weyl._exact_sum(x), math.fsum(x))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_small_lists_match_fsum_outcome(self, values):
        x = np.array(values, dtype=float)
        assert same_float(sum_outcome(weyl._exact_sum, x), sum_outcome(math.fsum, x))

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], 0.0),
            ([1e16, 1.0, -1e16], 1.0),
            ([5e-324, 5e-324], 1e-323),
            ([math.inf, 1.0], math.inf),
            ([-math.inf, 1e300], -math.inf),
            ([math.nan, 1.0], math.nan),
            ([math.inf, -math.inf], ValueError),
            ([1e308, 1e308], OverflowError),
            ([1e308, 1e308, -1e308], OverflowError),  # fsum's running sum overflows
        ],
    )
    def test_special_values_as_fsum(self, values, expected):
        x = np.array(values, dtype=float)
        assert same_float(sum_outcome(math.fsum, x), expected)
        assert same_float(sum_outcome(weyl._exact_sum, x), expected)

    def test_non_finite_in_a_late_block(self):
        x = np.ones(3 * self.BLOCK)
        x[-1] = math.inf
        assert weyl._exact_sum(x) == math.inf
        x[-2] = -math.inf
        with pytest.raises(ValueError):
            weyl._exact_sum(x)

    def test_bins_flushed_before_the_limit(self, monkeypatch):
        # the real limit (2**26 elements) is too large to build here; a
        # small one must move the bins to the Python int once per limit
        flushes = []
        real = weyl._flush_bins

        def counted(total, hi, lo):
            flushes.append(int(np.count_nonzero(hi) + np.count_nonzero(lo)))
            return real(total, hi, lo)

        monkeypatch.setattr(weyl, "_SUM_BLOCK", 64)
        monkeypatch.setattr(weyl, "_SUM_BIN_LIMIT", 128)
        monkeypatch.setattr(weyl, "_flush_bins", counted)
        x = np.random.default_rng(7).normal(scale=1e6, size=1000)
        assert same_float(weyl._exact_sum(x), math.fsum(x))
        assert len(flushes) == math.ceil(1000 / 128)
        assert all(flushes)

    def test_peak_memory_grows_with_the_block(self):
        x = np.sqrt(np.random.default_rng(3).uniform(0.0, 2.5e5, 1_000_000))
        tracemalloc.start()
        try:
            total = weyl._exact_sum(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == math.fsum(x)
        assert peak < 4_000_000  # x alone is 8 MB


def sequential_jumps(values):
    """(first value, multiplicity) of each jump of N, by the per-mode loop.

    A value joins the current jump when it lies within 1e-12 of the jump's
    first value, scanning in ascending order.
    """
    jumps = []
    for v in values:
        if jumps and abs(v - jumps[-1][0]) <= 1e-12:
            jumps[-1] = (jumps[-1][0], jumps[-1][1] + 1)
        else:
            jumps.append((v, 1))
    return jumps


def sequential_rj_identity(values, mu):
    """R(mu) and the identity residual by per-mode loops (test oracle)."""
    left = math.fsum(math.sqrt(mu - v) for v in values)
    jumps = sequential_jumps(values)
    terms = []
    cumulative = 0
    for k, (s_k, mult) in enumerate(jumps):
        cumulative += mult
        s_next = jumps[k + 1][0] if k + 1 < len(jumps) else mu
        terms.append(cumulative * (math.sqrt(mu - s_k) - math.sqrt(mu - s_next)))
    return left, abs(left - math.fsum(terms))


class TestGaugeInvariance:
    """omega_k -> omega_k + 2 pi / L_k relabels the lattice m_k -> m_k + 1, so
    the cross-section spectrum, R(mu) and every count keep their values up
    to the rounding of the shifted offsets."""

    @staticmethod
    def shifted(x, axis):
        magnetic = list(x.magnetic)
        magnetic[axis] += TWO_PI / x.lengths[axis]
        return TorusCrossSection(x.lengths, tuple(magnetic))

    @staticmethod
    def cross_section(dims, omega):
        lengths = (TWO_PI, 1.3 * TWO_PI)[:dims]
        return TorusCrossSection(lengths, tuple(omega[:dims]))

    @staticmethod
    def clear_of_the_spectrum(x, level):
        """No eigenvalue within rounding of level, where membership could flip."""
        values = mu_spectrum(x, 1.0, 2.0 * level + 1.0).values
        return values.size == 0 or np.min(np.abs(values - level)) > 1e-9 * max(1.0, level)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([1, 2]),
        omega=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        axis=st.integers(0, 1),
        mu=st.floats(0.5, 3000.0),
    )
    def test_spectrum_and_rj_sum(self, dims, omega, axis, mu):
        x = self.cross_section(dims, omega)
        y = self.shifted(x, axis % dims)
        assume(self.clear_of_the_spectrum(x, mu))
        a, b = mu_spectrum(x, 1.0, mu).values, mu_spectrum(y, 1.0, mu).values
        assert a.size == b.size
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, a))
        assert rj_sum(y, 1.0, mu) == pytest.approx(rj_sum(x, 1.0, mu), rel=1e-12, abs=0.0)

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([(1, 1.0), (1, 0.75), (2, 1.0)]),
        omega=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        axis=st.integers(0, 1),
        lam=st.floats(1.0, 60.0),
    )
    def test_bracket_ends(self, shape, omega, axis, lam):
        dims, delta = shape
        x = self.cross_section(dims, omega)
        assume(self.clear_of_the_spectrum(x, lam))

        def model(section):
            return ManifoldModel(
                dims + 1, CompactCoreSurrogate(), (CuspEnd(section, a=1.0, delta=delta),)
            )

        res = total_count_bracket(model(x), lam)
        gauged = total_count_bracket(model(self.shifted(x, axis % dims)), lam)
        assert (gauged.count_low, gauged.count_high) == (res.count_low, res.count_high)


class TestCuspCount:
    def test_below_bottom(self, ref_model):
        assert cusp_count(ref_model, 0, 0.3).count == 0

    def test_oracle_sum_at_100(self, ref_model):
        total = 0
        for mu in all_modes(ref_model, 100.0):
            f = FiberPotential.from_cusp(2, 1.0, 1.0, mu)
            total += len(fd_oracle(f, 100.0, grid=4096))
        assert cusp_count(ref_model, 0, 100.0).count == total

    def test_leading_term(self, ref_model):
        res = cusp_count(ref_model, 0, 100.0)
        assert res.leading == pytest.approx(50.0, rel=1e-13)
        assert res.residual == res.count - res.leading

    def test_nondecreasing_with_unit_jumps(self):
        # generic flux avoids the +-m degeneracy, so eigenvalues are simple
        model = circle_model(omega=0.37)
        lams = np.linspace(4.0, 12.0, 160)
        counts = [cusp_count(model, 0, float(lam)).count for lam in lams]
        for a, b in zip(counts, counts[1:]):
            assert b - a in (0, 1)

    def test_truncation_stability(self, ref_model):
        # counting over 10 extra fibers beyond the admissible cutoff adds 0
        lam = 60.0
        fibers = all_modes(ref_model, lam)
        extra = all_modes(ref_model, 4.0 * lam)[: len(fibers) + 10]
        total = 0
        for mu in extra:
            f = FiberPotential.from_cusp(2, 1.0, 1.0, mu)
            total += fiber_count(f, lam)
        assert total == cusp_count(ref_model, 0, lam).count

    def test_flux_periodicity(self, ref_model):
        shifted = circle_model(omega=1.5)  # 0.5 + 2 pi / L
        for lam in (3.0, 21.0, 77.0):
            assert cusp_count(ref_model, 0, lam).count == cusp_count(shifted, 0, lam).count

    def test_magnetic_spectral_gap(self, ref_model):
        # lambda_0 > 0: no eigenvalues below mu_0 * min(1, a^(4 delta))
        for lam in np.linspace(0.01, 0.25, 7):
            assert cusp_count(ref_model, 0, float(lam)).count == 0

    def test_zero_field_skips_free_channel(self, zero_field_model):
        res = cusp_count(zero_field_model, 0, 30.0)
        assert res.count > 0  # mu = m^2 > 0 channels still counted

    @pytest.mark.parametrize(
        "delta,bc,expected",
        [(1.0, DIRICHLET, 4938), (1.0, BoundaryCondition.robin(), 5022),
         (0.75, DIRICHLET, 9670), (0.75, BoundaryCondition.robin(), 9786)],
        ids=["delta1-D", "delta1-R", "delta075-D", "delta075-R"],
    )
    def test_reference_counts_at_1e4(self, delta, bc, expected):
        # long shoots (159 and 551 half-turns in the bottom mode) on the
        # reference circle, L = 2 pi, a = 1, omega = 0.5
        assert cusp_count(circle_model(delta=delta), 0, 1.0e4, bc).count == expected

    @pytest.mark.parametrize("robin", [False, True])
    def test_shoots_grow_with_distinct_counts(self, monkeypatch, robin):
        # at delta < 1 the count is non-increasing along the sorted modes, so
        # bisection shoots only where it changes, not once per mode
        model = torus3_model(delta=0.75)
        lam = 66.0
        bc = BoundaryCondition.robin() if robin else DIRICHLET
        shoots = []
        real = fiber._back_angles

        def counted(*args):
            shoots.append(args[1])
            return real(*args)

        monkeypatch.setattr(fiber, "_back_angles", counted)
        res = cusp_count(model, 0, lam, bc)
        modes = set(all_modes(model, lam))
        assert res.count > 0
        assert 0 < len(shoots) < len(modes) / 4

    @pytest.mark.parametrize("robin", [False, True])
    def test_delta1_one_kernel_call_per_mode(self, monkeypatch, robin):
        # at delta = 1 one backward shoot passes every mode: no per-fiber
        # shoot, and one backward propagation for all the distinct modes
        model = torus3_model(delta=1.0)
        lam = 66.0
        bc = BoundaryCondition.robin() if robin else DIRICHLET
        calls = []
        real = fiber._back_angles

        def kernel(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(fiber, "_back_angles", kernel)
        res = cusp_count(model, 0, lam, bc)
        modes = set(all_modes(model, lam))
        assert res.count > 0 and len(modes) > 1
        assert calls == [lam]

    @pytest.mark.parametrize("delta,expected", [(1.0, 32), (0.75, 42)])
    def test_custom_robin_beta_counts_states_above_the_floor(self, delta, expected):
        # beta = 10 puts a boundary state of every mode up to floor + beta^2
        # below lam = 30: the count is fiber_count summed over every mode
        model = circle_model(delta=delta)
        bc = BoundaryCondition.robin(10.0)
        total = sum(fiber_count(FiberPotential.from_cusp(2, delta, 1.0, mu), 30.0, bc)
                    for mu in all_modes(model, 400.0))
        assert cusp_count(model, 0, 30.0, bc).count == total == expected

    @pytest.mark.parametrize("delta", [1.0, 0.75])
    def test_mode_list_widens_only_above_the_default_beta(self, monkeypatch, delta):
        # Dirichlet, the default beta and a beta below it list the modes
        # below the floor alone; beta = 10 lists them below lam + 100
        levels = []
        real = weyl.cusp_modes

        def recording(model, j, lam):
            levels.append(lam)
            return real(model, j, lam)

        monkeypatch.setattr(weyl, "cusp_modes", recording)
        model = circle_model(delta=delta)
        for bc in (DIRICHLET, BoundaryCondition.robin(), BoundaryCondition.robin(0.3),
                   BoundaryCondition.robin(-5.0), BoundaryCondition.robin(10.0)):
            cusp_count(model, 0, 30.0, bc)
        weyl.count_ends(model, 30.0, [DIRICHLET, BoundaryCondition.robin()])
        assert levels == [30.0] * 4 + [130.0, 30.0]

    def test_huge_custom_beta_is_refused(self):
        with pytest.raises(EnumerationBudgetError):
            cusp_count(circle_model(), 0, 30.0, BoundaryCondition.robin(1e20))


class TestBracket:
    def test_delta1_bracket_one_shoot_for_both_ends(self, monkeypatch):
        # both ends of a delta = 1 cusp read one backward shoot: one
        # backward propagation and one mode listing, where a shoot per end
        # made two propagations for each of the 134 distinct modes
        model = torus3_model()
        lam = 66.0
        calls = {"kernel": 0, "modes": 0}
        real_kernel, real_modes = fiber._back_angles, weyl.cusp_modes

        def counted(key, real):
            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(fiber, "_back_angles", counted("kernel", real_kernel))
        monkeypatch.setattr(weyl, "cusp_modes", counted("modes", real_modes))
        res = total_count_bracket(model, lam)
        assert calls == {"kernel": 1, "modes": 1}
        monkeypatch.undo()
        assert len(cusp_modes(model, 0, lam)[0]) == 134
        assert res.count_low == cusp_count(model, 0, lam).count
        assert res.count_high == cusp_count(model, 0, lam, BoundaryCondition.robin()).count

    def test_delta075_cusp_shoots_as_two_single_ends(self, monkeypatch):
        # next to a delta = 1 cusp, the delta = 0.75 cusp counts both ends in
        # one bisection, each probe one shoot for both conditions: no more
        # shoots than its two single-condition counts, and here fewer
        one, three_quarters = circle_model().cusps[0], circle_model(delta=0.75).cusps[0]
        model = ManifoldModel(2, CompactCoreSurrogate(), (one, three_quarters))
        lam = 120.0
        robin = BoundaryCondition.robin()
        shoots = []
        real = fiber._shoot_back

        def counted(f, level, span, stops):
            shoots.append(f.delta)
            return real(f, level, span, stops)

        monkeypatch.setattr(fiber, "_shoot_back", counted)
        res = total_count_bracket(model, lam)
        in_bracket = shoots.count(0.75)
        shoots.clear()
        low = [cusp_count(model, j, lam).count for j in (0, 1)]
        high = [cusp_count(model, j, lam, robin).count for j in (0, 1)]
        assert 0 < in_bracket < shoots.count(0.75)
        assert (res.count_low, res.count_high) == (sum(low), sum(high))

    def test_valid_and_tight(self, ref_model):
        lam = 100.0
        res = total_count_bracket(ref_model, lam)
        assert res.count_low <= res.count_high
        assert res.count_high - res.count_low <= len(all_modes(ref_model, lam))

    def test_small_lambda(self, ref_model):
        res = total_count_bracket(ref_model, 0.3)
        assert res.count_low == 0
        assert res.count_high in (0, 1)

    def test_two_cusp_additivity(self):
        one = circle_model()
        two = circle_model(cusps=2)
        for lam in (10.0, 60.0):
            r1 = total_count_bracket(one, lam)
            r2 = total_count_bracket(two, lam)
            assert r2.count_low == 2 * r1.count_low
            assert r2.count_high == 2 * r1.count_high

    def test_n3_torus_bracket_against_oracle(self):
        x3 = TorusCrossSection((TWO_PI, TWO_PI), (1.0, 0.5))
        model = ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x3, 1.0, 1.0),))
        lam = 60.0
        bracket = total_count_bracket(model, lam)
        mus, mults = cusp_modes(model, 0, lam)
        assert sum(mults) == len(all_modes(model, lam))
        total = sum(
            mult * len(fd_oracle(FiberPotential.from_cusp(3, 1.0, 1.0, mu), lam, grid=2048))
            for mu, mult in zip(mus, mults)
        )
        assert bracket.count_low == total
        assert bracket.count_low <= bracket.count_high

    def test_core_band_arithmetic(self):
        lam = 50.0
        bare = circle_model()
        cored = ManifoldModel(
            n=2,
            core=CompactCoreSurrogate(volume=1.0, remainder_coeff=0.5),
            cusps=bare.cusps,
        )
        r0 = total_count_bracket(bare, lam)
        r1 = total_count_bracket(cored, lam)
        w_core = weyl_leading(1.0, 2, lam)
        band = 0.5 * math.sqrt(lam)
        assert r1.count_low == r0.count_low + max(0, math.floor(w_core - band))
        assert r1.count_high == r0.count_high + max(0, math.ceil(w_core + band))


class TestRemainder:
    def test_model_branches(self):
        lam = 64.0
        assert remainder_model(2, 1.0, lam) == pytest.approx(math.sqrt(lam) * math.log(lam))
        assert remainder_model(2, 0.75, lam) == pytest.approx(lam ** (2.0 / 3.0))
        assert remainder_model(3, 0.6, lam) == pytest.approx(lam * math.log(lam))
        assert remainder_model(3, 0.4, lam) == pytest.approx(lam**1.25)

    @pytest.mark.parametrize("n,delta", [(2, 1.0), (2, 0.75), (3, 0.6), (3, 0.4)])
    def test_model_limit_at_zero(self, n, delta):
        assert remainder_model(n, delta, 0.0) == 0.0

    def test_synthetic_log_corrected(self):
        lams = np.geomspace(100.0, 1.0e4, 24)
        residuals = 3.0 * np.sqrt(lams) * np.log(lams)
        fit = fit_remainder_samples(lams, residuals)
        assert fit.log_correction is True
        assert fit.slope == pytest.approx(0.5, abs=1e-6)
        assert fit.constant == pytest.approx(3.0, rel=0.10)

    def test_synthetic_pure_power(self):
        lams = np.geomspace(100.0, 1.0e4, 24)
        residuals = 2.0 * lams**0.66
        fit = fit_remainder_samples(lams, residuals)
        assert fit.log_correction is False
        assert fit.slope == pytest.approx(0.66, abs=1e-6)

    def test_degenerate_flagged(self):
        lams = np.geomspace(100.0, 1.0e4, 16)
        fit = fit_remainder_samples(lams, np.zeros_like(lams))
        assert fit.degenerate is True
        assert math.isnan(fit.slope)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_remainder_samples([10.0, 20.0], [1.0, 2.0])
        lams = np.linspace(100.0, 200.0, 12)
        with pytest.raises(ValueError, match="decade"):
            fit_remainder_samples(lams, np.sqrt(lams))

    def test_remainder_fit_ignores_core_band(self):
        # the Dirichlet end floors a core-free model's remainder band to 0
        model = circle_model(delta=0.75)
        banded = dataclasses.replace(
            model, core=CompactCoreSurrogate(volume=0.0, remainder_coeff=5.0)
        )
        grid = list(np.geomspace(10.0, 200.0, 8))
        assert remainder_fit(banded, grid) == remainder_fit(model, grid)

    def test_remainder_fit_requires_exact_core(self):
        model = circle_model(core_volume=2.0)
        with pytest.raises(ValueError, match="core.volume"):
            remainder_fit(model, list(np.geomspace(10.0, 200.0, 8)))
