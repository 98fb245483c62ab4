import math

import numpy as np
import pytest
import hypothesis
from hypothesis import given, strategies as st

from cuspspec import fiber
from cuspspec import (
    BoundaryCondition,
    CompactCoreSurrogate,
    ContinuousSpectrumError,
    CuspEnd,
    FiberPotential,
    ManifoldModel,
    TorusCrossSection,
    count_fibers,
    default_robin_beta,
    demagnetize,
    fd_oracle,
    fiber_count,
    fiber_eigenvalues,
    mu_spectrum,
    potential_eval,
    potential_min,
    turning_point,
)
from cuspspec.weyl import mu_cutoff
from conftest import TWO_PI, circle_model

ROBIN = BoundaryCondition.robin()
F_REF = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)


class TestPotential:
    def test_delta1_values(self):
        assert potential_eval(F_REF, 0.0) == 1.25
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert potential_eval(flat, 3.7) == 0.25

    def test_delta_half_value(self):
        f = FiberPotential(n=2, delta=0.5, mu=4.0, alpha=0.5)
        # 4 (t/2)^2 + 0.75/t^2 at t=1
        assert potential_eval(f, 1.0) == pytest.approx(1.75, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="below the fiber boundary"):
            potential_eval(F_REF, -0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=1.2, mu=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=0.75, mu=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=1.0, mu=-1.0, alpha=0.0)

    def test_confinement(self):
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 2.0)
        assert potential_eval(f, 400.0) > potential_eval(f, 40.0) > 1e3 * 0  # grows


class TestTurningPoint:
    def test_log_root(self):
        assert turning_point(F_REF, 100.25) == pytest.approx(math.log(10.0), rel=1e-14)

    def test_none_below_minimum(self):
        assert turning_point(F_REF, 1.0) is None

    def test_boundary_case(self):
        # choose mu so that V(alpha) = lam exactly
        a = 2.0
        alpha = 2.0 * math.log(a)
        lam = 10.0
        mu = (lam - 0.25) * math.exp(-2.0 * alpha)
        f = FiberPotential(n=2, delta=1.0, mu=mu, alpha=alpha)
        assert turning_point(f, lam) == alpha

    def test_constant_channel_signals_infinity(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert turning_point(flat, 1.0) == math.inf
        assert turning_point(flat, 0.2) is None

    def test_delta_lt1_interior_dip(self):
        f = FiberPotential.from_cusp(2, 0.75, 0.2, 4.0)
        # alpha = 1/(1-delta) * a^(2(1-delta)): small a pushes the 1/t^2 wall up
        assert potential_eval(f, f.alpha) > potential_min(f)
        t = turning_point(f, potential_min(f) + 2.0)
        assert t is not None and t > f.alpha


class TestCounting:
    def test_below_min_is_zero(self):
        assert fiber_count(F_REF, 1.0) == 0

    def test_free_channel_below_floor(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert fiber_count(flat, 0.2) == 0

    def test_free_channel_above_floor_raises(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        with pytest.raises(ContinuousSpectrumError):
            fiber_count(flat, 0.3)

    def test_counts_match_fd_oracle(self):
        for lam in (10.0, 50.0, 100.0):
            for bc in (BoundaryCondition.dirichlet(), ROBIN):
                assert fiber_count(F_REF, lam, bc) == len(fd_oracle(F_REF, lam, bc, grid=1 << 13))

    def test_count_monotone_in_mu(self):
        lam = 60.0
        counts = [
            fiber_count(FiberPotential.from_cusp(2, 1.0, 1.0, mu), lam)
            for mu in (0.25, 1.0, 4.0, 16.0)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_margin_doubling_invariance(self, monkeypatch):
        # on F_REF the last geometric step of the tail walk overshoots both
        # budgets, so the delta < 1 fiber is the one whose end point moves
        cases = [
            (f, lam)
            for f in (F_REF, FiberPotential.from_cusp(3, 0.6, 0.5, 2.0))
            for lam in (9.2, 30.0, 77.0)
        ]
        counts = [fiber_count(f, lam) for f, lam in cases]
        ends = [fiber._shoot_end(f, lam) for f, lam in cases]
        monkeypatch.setattr(fiber, "T_MARGIN", 2 * fiber.T_MARGIN)
        assert [fiber_count(f, lam) for f, lam in cases] == counts
        assert any(fiber._shoot_end(f, lam) > end for (f, lam), end in zip(cases, ends))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_raises(self, lam):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        for f in (F_REF, flat):
            with pytest.raises(ValueError, match="finite"):
                fiber_count(f, lam)

    @pytest.mark.parametrize(
        "mu,lam,expected", [(0.25, 20.0, 2), (0.25, 60.0, 6), (1.0, 20.0, 1), (1.0, 60.0, 4)]
    )
    def test_delta_near_one(self, mu, lam, expected):
        # the growth power 2 delta/(1 - delta) >= 1998 underflows a direct
        # evaluation of the potential minimum, and alpha ~ 1/(1 - delta) puts
        # the turning point far from 0; Robin counts match the delta = 1 limit
        robin = fiber_count(FiberPotential.from_cusp(2, 1.0, 1.0, mu), lam, ROBIN)
        for delta in (0.999, 1.0 - 1e-7, 1.0 - 1e-9):
            f = FiberPotential.from_cusp(2, delta, 1.0, mu)
            for bc, want in ((BoundaryCondition.dirichlet(), expected), (ROBIN, robin)):
                assert fiber_count(f, lam, bc) == want == len(fd_oracle(f, lam, bc, grid=1 << 13))

    def test_robin_dirichlet_limit(self):
        # under u'(alpha) + beta u(alpha) = 0, beta -> -infinity is the
        # Dirichlet limit; beta -> +infinity develops a boundary bound state
        for lam in (10.0, 50.0):
            nd = fiber_count(F_REF, lam)
            assert fiber_count(F_REF, lam, BoundaryCondition.robin(-1e8)) == nd
            assert fiber_count(F_REF, lam, BoundaryCondition.robin(1e8)) == nd + 1
            assert len(fd_oracle(F_REF, lam, BoundaryCondition.robin(-1e4), grid=1 << 13)) == nd


class TestInterlacing:
    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            delta = 1.0 if rng.random() < 0.5 else float(rng.uniform(1.0 / n + 0.05, 0.95))
            mu = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
            a = float(rng.uniform(0.5, 2.0))
            f = FiberPotential.from_cusp(n, delta, a, mu)
            lam = potential_min(f) + float(np.exp(rng.uniform(0.0, np.log(150.0))))
            beta = None if rng.random() < 0.5 else float(rng.uniform(-3.0, 3.0))
            nd = fiber_count(f, lam)
            nr = fiber_count(f, lam, BoundaryCondition.robin(beta))
            assert nd <= nr <= nd + 1


class TestEigenvalues:
    def test_consistency_with_count(self):
        lam = 80.0
        values = fiber_eigenvalues(F_REF, lam)
        assert len(values) == fiber_count(F_REF, lam)

    def test_agreement_with_oracle(self):
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)
        values = fiber_eigenvalues(f, 60.0)
        oracle = fd_oracle(f, 60.0, grid=1 << 14)
        assert len(values) == len(oracle)
        for v, o in zip(values, oracle):
            assert abs(v - o) / abs(o) < 1e-4

    def test_first_eigenvalue_above_essential_floor(self):
        values = fiber_eigenvalues(F_REF, 40.0)
        assert values[0] > 1.25

    def test_mu_scaling_monotone(self):
        small = fiber_eigenvalues(FiberPotential.from_cusp(2, 1.0, 1.0, 1.0), 60.0)
        large = fiber_eigenvalues(FiberPotential.from_cusp(2, 1.0, 1.0, 4.0), 60.0)
        for s, l in zip(small, large):
            assert l > s

    def test_simplicity_gaps(self):
        values = fiber_eigenvalues(F_REF, 90.0)
        for a, b in zip(values, values[1:]):
            assert b - a > fiber.REL_TOL * max(1.0, abs(b))

    def test_tie_excluded_at_cutoff(self):
        values = fiber_eigenvalues(F_REF, 60.0)
        assert len(fiber_eigenvalues(F_REF, values[2])) == 2

    def test_requires_confinement(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            fiber_eigenvalues(flat, 0.2)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_raises(self, lam):
        with pytest.raises(ValueError, match="finite"):
            fiber_eigenvalues(F_REF, lam)


class TestEdgeFibers:
    # regimes that stress the shooting machinery: tiny mu (scaled-field
    # ground channel), steep delta -> 1 powers, a dominant 1/t^2 wall,
    # boundaries at positive and negative alpha, higher dimension
    CASES = (
        (FiberPotential.from_cusp(2, 1.00, 1.0, 2.5e-5), 120.0),
        (FiberPotential.from_cusp(2, 0.95, 1.0, 1.0), 60.0),
        (FiberPotential.from_cusp(2, 0.75, 0.2, 1.0), 60.0),
        (FiberPotential.from_cusp(2, 1.00, 2.0, 1.0), 200.0),
        (FiberPotential.from_cusp(2, 1.00, 0.5, 1.0), 60.0),
        (FiberPotential.from_cusp(5, 0.60, 1.0, 2.0), 80.0),
    )

    @pytest.mark.parametrize("f,lam", CASES)
    def test_counts_against_oracle(self, f, lam):
        for bc in (BoundaryCondition.dirichlet(), ROBIN):
            assert fiber_count(f, lam, bc) == len(fd_oracle(f, lam, bc, grid=1 << 13))

    @pytest.mark.parametrize("f,lam", CASES)
    def test_interlacing(self, f, lam):
        nd = fiber_count(f, lam)
        nr = fiber_count(f, lam, ROBIN)
        assert nd <= nr <= nd + 1


def count_bisection(f, lam_max, bc, rel_tol=1e-10):
    """Reference listing: bisect the integer count fiber_count down to
    rel_tol at each of its jumps below lam_max."""
    total = fiber_count(f, lam_max, bc)
    lo = potential_min(f) - 10.0
    while fiber_count(f, lo, bc) > 0:
        lo -= 2.0 * (abs(lo) + 1.0)
    values = []
    for k in range(total):
        left, right = lo, lam_max
        while right - left > rel_tol * max(1.0, abs(right)):
            mid = 0.5 * (left + right)
            if fiber_count(f, mid, bc) > k:
                right = mid
            else:
                left = mid
        values.append(0.5 * (left + right))
        lo = left
    return values


def close(value, reference, rel_tol=1e-9):
    # relative on the scale max(1, |lam|) that fiber.REL_TOL uses
    return abs(value - reference) <= rel_tol * max(1.0, abs(reference))


class TestMatchedShooting:
    CASES = (
        (F_REF, 60.0),
        (FiberPotential.from_cusp(2, 0.75, 1.0, 1.0), 40.0),
    )

    @pytest.mark.parametrize("f,lam", CASES)
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), ROBIN], ids=["D", "R"])
    def test_matches_count_bisection(self, f, lam, bc):
        values = fiber_eigenvalues(f, lam, bc)
        reference = count_bisection(f, lam, bc)
        assert len(values) == len(reference) > 2
        for v, r in zip(values, reference):
            assert close(v, r)

    @pytest.mark.parametrize("f,lam", TestEdgeFibers.CASES)
    def test_count_jumps_at_listed_values(self, f, lam):
        # a count bisection lands within eps of v_k exactly when the count
        # steps from k to k + 1 inside (v_k - eps, v_k + eps], so two counts
        # per eigenvalue stand in for the full reference listing
        for bc in (BoundaryCondition.dirichlet(), ROBIN):
            values = fiber_eigenvalues(f, lam, bc)
            assert len(values) == fiber_count(f, lam, bc)
            for k, v in enumerate(values):
                eps = 1e-9 * max(1.0, abs(v))
                assert fiber_count(f, v - eps, bc) == k
                assert fiber_count(f, v + eps, bc) == k + 1

    @pytest.mark.parametrize("f,lam_max", CASES)
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), ROBIN], ids=["D", "R"])
    def test_ceil_mismatch_is_count(self, f, lam_max, bc):
        beta = fiber._resolve_beta(f, bc)
        theta0 = 0.0 if bc.kind == "dirichlet" else math.atan2(1.0, -beta)
        t_match = fiber._interior_min(f)
        t_end = fiber._shoot_end(f, lam_max)
        counts = set()
        for lam in np.linspace(potential_min(f) - 1.0, lam_max, 17):
            mismatch = fiber._mismatch(f, float(lam), theta0, t_match, t_end)
            count = fiber_count(f, float(lam), bc)
            assert math.ceil(mismatch / math.pi) == count
            counts.add(count)
        assert len(counts) >= 4

    # the backward leg of the mismatch starts in the forbidden region and is
    # never cut short, so ceil(F/pi) checks the count of a trapped forward shoot
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.3, 1.5),
        mu=st.floats(0.01, 20.0),
        lam=st.floats(0.5, 400.0),
        robin=st.booleans(),
    )
    def test_ceil_mismatch_is_count_on_drawn_fibers(self, n, delta, a, mu, lam, robin):
        f = FiberPotential.from_cusp(n, delta, a, mu)
        bc = ROBIN if robin else BoundaryCondition.dirichlet()
        beta = fiber._resolve_beta(f, bc)
        theta0 = 0.0 if bc.kind == "dirichlet" else math.atan2(1.0, -beta)
        t_end = fiber._shoot_end(f, max(lam, potential_min(f)))
        mismatch = fiber._mismatch(f, lam, theta0, fiber._interior_min(f), t_end)
        assert math.ceil(mismatch / math.pi) == fiber_count(f, lam, bc)

    @pytest.mark.parametrize("f", [F_REF, FiberPotential.from_cusp(3, 0.6, 0.5, 2.0)])
    def test_prufer_round_trip(self, f):
        lam, theta0 = 50.0, 0.3
        t0, t1 = f.alpha, turning_point(f, lam)
        forward = fiber._prufer_theta(f, lam, t0, t1, theta0)
        assert forward - theta0 > 2.0 * math.pi
        back = fiber._prufer_theta(f, lam, t1, t0, forward)
        assert abs(back - theta0) < 1e-9


def torus3_model() -> ManifoldModel:
    """n = 3 cusp over the two-length torus with a non-integer flux."""
    x = TorusCrossSection((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3))
    return ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x, a=1.0, delta=1.0),))


def distinct_modes(model, lam, tau):
    x = model.cusps[0].cross_section
    return np.unique(mu_spectrum(x, tau, mu_cutoff(model, lam)).values).tolist()


def per_mode_counts(model, mus, lam, bc):
    cusp = model.cusps[0]
    return [
        fiber_count(FiberPotential.from_cusp(model.n, cusp.delta, cusp.a, mu), lam, bc)
        for mu in mus
    ]


class TestCountFibers:
    MODELS = {
        "delta1": (circle_model(), 120.0),
        "delta075": (circle_model(delta=0.75), 120.0),
        "torus3": (torus3_model(), 40.0),
    }
    BCS = {"dirichlet": BoundaryCondition.dirichlet(), "robin": ROBIN}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("bc", sorted(BCS))
    @pytest.mark.parametrize("tau", [1.0, 0.05])
    def test_equals_per_mode_loop(self, name, bc, tau):
        model, lam = self.MODELS[name]
        cusp = model.cusps[0]
        mus = distinct_modes(model, lam, tau)
        expected = per_mode_counts(model, mus, lam, self.BCS[bc])
        assert len(set(expected)) >= 3
        got = count_fibers(model.n, cusp.delta, cusp.a, mus, lam, self.BCS[bc])
        assert got == expected

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("bc", sorted(BCS))
    def test_free_field_skips_zero_mode(self, name, bc):
        model, lam = self.MODELS[name]
        free = demagnetize(model)
        cusp = free.cusps[0]
        modes = distinct_modes(free, lam, 0.0)
        assert modes[0] == 0.0
        mus = modes[1:]
        expected = per_mode_counts(free, mus, lam, self.BCS[bc])
        got = count_fibers(free.n, cusp.delta, cusp.a, mus, lam, self.BCS[bc])
        assert got == expected

    def test_empty_and_single(self):
        assert count_fibers(2, 1.0, 1.0, [], 50.0) == []
        assert count_fibers(2, 1.0, 1.0, [1.0], 50.0) == [fiber_count(F_REF, 50.0)]

    @pytest.mark.parametrize("mus", [[0.0, 1.0], [-1.0], [1.0, 1.0], [2.0, 1.0]])
    def test_rejects_unsorted_or_nonpositive(self, mus):
        with pytest.raises(ValueError, match="count_fibers"):
            count_fibers(2, 1.0, 1.0, mus, 50.0)


class TestMonotoneInMu:
    # count_fibers relies on N(lam; mu) being non-increasing in mu
    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.5, 2.0),
        mu=st.floats(0.05, 50.0),
        factor=st.floats(1.0, 10.0),
        lam=st.floats(1.0, 60.0),
        robin=st.booleans(),
    )
    def test_count_non_increasing(self, delta, a, mu, factor, lam, robin):
        bc = ROBIN if robin else BoundaryCondition.dirichlet()
        low = fiber_count(FiberPotential.from_cusp(2, delta, a, mu), lam, bc)
        high = fiber_count(FiberPotential.from_cusp(2, delta, a, mu * factor), lam, bc)
        assert high <= low


class TestFdOracle:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            fd_oracle(F_REF, 50.0, grid=100)

    def test_empty_below_minimum(self):
        assert fd_oracle(F_REF, 1.0) == []

    def test_two_resolutions_consistent(self):
        coarse = fd_oracle(F_REF, 40.0, grid=1 << 13)
        fine = fd_oracle(F_REF, 40.0, grid=1 << 14)
        assert len(coarse) == len(fine)
        for c, f_ in zip(coarse, fine):
            assert abs(c - f_) < 1e-4 * max(1.0, abs(f_))

    def test_robin_bound_state_of_free_channel(self):
        # mu = 0, delta = 1, beta > 0: single boundary state at q - beta^2
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        bc = BoundaryCondition.robin(0.5)
        assert fiber_count(flat, 0.2, bc) == 1  # q - beta^2 = 0 < 0.2
        assert fiber_count(flat, -0.5, bc) == 0
        vals = fd_oracle(flat, 0.2, bc, grid=1 << 13)
        assert len(vals) == 1
        assert abs(vals[0]) < 1e-3


def test_default_robin_beta_values():
    assert default_robin_beta(F_REF) == 0.5  # (n delta - 1)/2 at n=2, delta=1
    f = FiberPotential.from_cusp(3, 0.75, 2.0, 1.0)
    a_pow = 2.0 ** (2.0 * (0.75 - 1.0))
    assert default_robin_beta(f) == pytest.approx(2.0 * 0.75 * a_pow / 2.0, rel=1e-13)
