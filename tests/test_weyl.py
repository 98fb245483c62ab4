import math

import numpy as np
import pytest

from cuspspec import fiber, weyl
from cuspspec import (
    BoundaryCondition,
    CompactCoreSurrogate,
    ContinuousSpectrumError,
    CuspEnd,
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
from cuspspec.weyl import mu_cutoff
from conftest import TWO_PI, circle_model


def all_modes(model, lam):
    """Every contributing cross-section mode of cusp 0, with multiplicity."""
    return mu_spectrum(model.cusps[0].cross_section, 1.0, mu_cutoff(model, lam)).values.tolist()


def closed_form_w_delta1(f: FiberPotential, lam: float) -> float:
    """Antiderivative of sqrt(lam - q - mu e^(2t)) via x = e^t (test oracle)."""
    c = lam - f.const_coeff
    x_alpha = math.exp(f.alpha)
    s0 = math.sqrt(c - f.mu * x_alpha**2)
    return math.sqrt(c) * math.atanh(s0 / math.sqrt(c)) - s0


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

    def test_closed_form_delta1(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            a = float(rng.uniform(0.5, 2.0))
            f = FiberPotential.from_cusp(2, 1.0, a, mu)
            v_alpha = mu * math.exp(2 * f.alpha) + f.const_coeff
            lam = v_alpha + float(np.exp(rng.uniform(0.0, 5.0)))
            assert phase_integral(f, lam) == pytest.approx(
                closed_form_w_delta1(f, lam), abs=1e-8
            )

    def test_brute_force_delta_075(self):
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 1.0)
        lam = 25.0
        from cuspspec import potential_eval, turning_point

        t_hi = turning_point(f, lam)
        ts = np.linspace(f.alpha, t_hi, 1 << 20)
        integrand = np.sqrt(np.clip(lam - np.array([potential_eval(f, t) for t in ts[:: 1]]), 0, None))
        brute = float(np.trapezoid(integrand, ts))
        assert phase_integral(f, lam) == pytest.approx(brute, abs=5e-4)

    def test_free_channel_raises_above_floor(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert phase_integral(flat, 0.2) == 0.0
        with pytest.raises(ContinuousSpectrumError):
            phase_integral(flat, 1.0)


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
        lam = 25.0
        assert mu_cutoff(circle_model(a=0.5), lam) == pytest.approx(
            2.0**4 * mu_cutoff(circle_model(a=1.0), lam)
        )
        assert mu_cutoff(circle_model(a=0.5, delta=0.75), lam) == pytest.approx(
            2.0**3 * mu_cutoff(circle_model(a=1.0, delta=0.75), lam)
        )


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
        # omega = 0.5 pairs the modes (k + 1/2)^2 and (-k - 1/2)^2
        lam = 100.0
        fibers = all_modes(ref_model, lam)
        terms = [phase_integral(FiberPotential.from_cusp(2, 1.0, 1.0, mu), lam) for mu in fibers]
        calls = []
        real = weyl.phase_integral

        def counted(f, lam):
            calls.append(f.mu)
            return real(f, lam)

        monkeypatch.setattr(weyl, "phase_integral", counted)
        assert theta_sum(ref_model, 0, lam) == math.fsum(terms) / math.pi
        assert sorted(calls) == sorted(set(fibers))
        assert len(calls) == len(fibers) // 2

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
        # the count is non-increasing along the sorted modes, so bisection
        # shoots only where it changes, not once per mode
        x = TorusCrossSection((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3))
        model = ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x, 1.0, 1.0),))
        lam = 66.0
        bc = BoundaryCondition.robin() if robin else DIRICHLET
        shoots = []
        real = fiber._shoot_count

        def counted(*args):
            shoots.append(args[1])
            return real(*args)

        monkeypatch.setattr(fiber, "_shoot_count", counted)
        res = cusp_count(model, 0, lam, bc)
        modes = set(all_modes(model, lam))
        assert res.count > 0
        assert 0 < len(shoots) < len(modes) / 4


class TestBracket:
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

    def test_remainder_fit_requires_exact_core(self):
        model = circle_model(core_volume=2.0)
        with pytest.raises(ValueError, match="core.volume"):
            remainder_fit(model, list(np.geomspace(10.0, 200.0, 8)))
