import functools
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
import hypothesis
from hypothesis import given, strategies as st

from cuspspec import fiber
from cuspspec import (
    BoundaryCondition,
    ContinuousSpectrumError,
    FiberPotential,
    MeshBudgetError,
    count_fibers,
    default_robin_beta,
    demagnetize,
    fd_oracle,
    fiber_count,
    fiber_eigenvalues,
    mu_spectrum,
    potential_min,
)
from cuspspec.fiber import DIRICHLET
from cuspspec.weyl import phase_integral
from conftest import circle_model, torus3_model

ROBIN = BoundaryCondition.robin()
F_REF = FiberPotential.from_cusp(2, 1.0, 1.0, 1.0)


class TestPotential:
    def test_delta1_values(self):
        assert fiber._potential(F_REF, 0.0) == 1.25
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert fiber._potential(flat, 3.7) == 0.25

    def test_delta_half_value(self):
        f = FiberPotential(n=2, delta=0.5, mu=4.0, alpha=0.5)
        # 4 (t/2)^2 + 0.75/t^2 at t = 1, the offset x = 0.5
        assert fiber._potential(f, 0.5) == pytest.approx(1.75, rel=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=1.2, mu=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=0.75, mu=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            FiberPotential(n=2, delta=1.0, mu=-1.0, alpha=0.0)

    def test_confinement(self):
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 2.0)
        assert fiber._potential(f, 400.0) > fiber._potential(f, 40.0) > 1e3 * 0  # grows


class TestTurningPoint:
    # the turning point as an offset x = t - alpha from the boundary
    def test_log_root(self):
        # alpha = 0 on F_REF, so the offset is t itself
        assert fiber._edge_offset(F_REF, 100.25) == pytest.approx(math.log(10.0), rel=1e-14)

    def test_none_below_minimum(self):
        assert fiber._edge_offset(F_REF, 1.0) is None

    def test_boundary_case(self):
        # choose mu, and the growth term g = mu e^(2 alpha) without its
        # rounding, so that V(alpha) = g + 1/4 = lam exactly
        a = 2.0
        alpha = 2.0 * math.log(a)
        lam = 10.0
        mu = (lam - 0.25) * math.exp(-2.0 * alpha)
        f = FiberPotential(n=2, delta=1.0, mu=mu, alpha=alpha, growth=lam - 0.25)
        assert fiber._potential(f, 0.0) == lam
        assert fiber._edge_offset(f, lam) == 0.0

    def test_constant_channel_signals_infinity(self):
        flat = FiberPotential.from_cusp(2, 1.0, 1.0, 0.0)
        assert fiber._edge_offset(flat, 1.0) == math.inf
        assert fiber._edge_offset(flat, 0.2) is None

    @pytest.mark.parametrize("lam", [1e11, 1e12])
    def test_large_level_delta_lt1(self, lam):
        # c/t^2 falls below the rounding of lam at the first bracket end
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 0.25)
        x = fiber._edge_offset(f, lam)
        assert fiber._potential(f, x) == pytest.approx(lam, rel=1e-14)
        assert fiber._allowed_offsets(f, lam) == (0.0, x)
        # without the 1/t^2 term, w = sqrt(lam) (T B - alpha) with
        # T = (lam/mu)^(1/p) / (1 - delta) and B = integral_0^1 sqrt(1 - x^p) dx
        p = f.power
        span = (lam / f.mu) ** (1.0 / p) / (1.0 - f.delta)
        b = math.gamma(1.0 + 1.0 / p) * math.gamma(1.5) / math.gamma(1.0 / p + 1.5)
        assert phase_integral(f, lam) == pytest.approx(math.sqrt(lam) * (span * b - f.alpha), rel=1e-10)

    def test_large_level_widens_the_bracket(self, monkeypatch):
        # V = lam + c/t^2 at the first bracket end, where the growth term
        # alone reaches lam, rounds to lam or below at lam = 1e12: the
        # bracket is widened by doubling before brentq closes it
        f = FiberPotential.from_cusp(2, 0.75, 1.0, 1.0)
        lam = 1e12
        first = f.alpha * math.expm1(math.log(lam / f.growth) / f.power)
        brackets = []
        real = scipy.optimize.brentq

        def recording(func, lo, hi, **kwargs):
            brackets.append(hi)
            return real(func, lo, hi, **kwargs)

        # _edge_offset imports brentq on first use, from scipy.optimize
        monkeypatch.setattr(scipy.optimize, "brentq", recording)
        x = fiber._edge_offset(f, lam)
        assert brackets and brackets[0] >= 2.0 * first
        assert abs(fiber._potential(f, x) - lam) <= 1e-13 * lam

    def test_delta_lt1_interior_dip(self):
        f = FiberPotential.from_cusp(2, 0.75, 0.2, 4.0)
        # alpha = 1/(1-delta) * a^(2(1-delta)): small a pushes the 1/t^2 wall up
        assert fiber._potential(f, 0.0) > potential_min(f)
        x = fiber._edge_offset(f, potential_min(f) + 2.0)
        assert x is not None and x > 0.0


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
        # the tail walk lands on its decay budget instead of overshooting it
        # by a whole geometric step, so every end point moves with T_MARGIN
        cases = [
            (f, lam)
            for f in (F_REF, FiberPotential.from_cusp(3, 0.6, 0.5, 2.0))
            for lam in (9.2, 30.0, 77.0)
        ]
        counts = [fiber_count(f, lam) for f, lam in cases]
        ends = [fiber._shoot_span(f, lam) for f, lam in cases]
        monkeypatch.setattr(fiber, "T_MARGIN", 2 * fiber.T_MARGIN)
        assert [fiber_count(f, lam) for f, lam in cases] == counts
        assert all(fiber._shoot_span(f, lam) > end for (f, lam), end in zip(cases, ends))

    @pytest.mark.parametrize("lam", [9.2, 30.0, 77.0, 300.0])
    def test_shoot_end_lands_on_the_decay_budget(self, lam):
        x_turn = fiber._edge_offset(F_REF, lam)
        decay = quad(lambda x: math.sqrt(max(fiber._potential(F_REF, x) - lam, 0.0)),
                     x_turn, fiber._shoot_span(F_REF, lam), limit=200)[0]
        budget = fiber.T_MARGIN + 0.5 * math.log(1.0 / (fiber.ANGLE_TOL * 1e-3))
        assert budget * 0.97 < decay < budget * 1.01

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

    @pytest.mark.parametrize("n,a,mu", [(2, 1.0, 0.25), (3, 0.7, 2.0)])
    def test_delta_to_one_listing_is_linear(self, n, a, mu):
        # lambda_k(1 - eps) = lambda_k(1) + eps c_k + O(eps^2), c_k read at
        # eps = 1e-6.  A growth term off by p 2^-53 ~ 2e-16/eps relative, as
        # one built from the rounded alpha is, would put the eps = 1e-9
        # values ~1e-7 off.  At a = 1, a^(4 delta) is exactly 1, which would
        # hide that rounding; a = 0.7 does not
        def lowest(delta):
            return fiber_eigenvalues(FiberPotential.from_cusp(n, delta, a, mu), 30.0)[:3]

        base = lowest(1.0)
        assert len(base) == 3
        slopes = [(x - b) / 1e-6 for x, b in zip(lowest(1.0 - 1e-6), base)]
        for eps in (1e-7, 1e-8, 1e-9):
            for x, b, c in zip(lowest(1.0 - eps), base, slopes):
                assert abs(x - b - eps * c) <= 2.0 * fiber.REL_TOL * max(1.0, b)


class TestEdgeFibers:
    # regimes that stress the shooting machinery: tiny mu (scaled-field
    # ground channel), steep delta -> 1 powers, a dominant 1/t^2 wall,
    # boundaries at positive and negative alpha, higher dimension, and an
    # interior minimum (0.418) below V(alpha) = 0.5, at levels between the
    # two and above V(alpha)
    CASES = (
        (FiberPotential.from_cusp(2, 1.00, 1.0, 2.5e-5), 120.0),
        (FiberPotential.from_cusp(2, 0.95, 1.0, 1.0), 60.0),
        (FiberPotential.from_cusp(2, 0.75, 0.2, 1.0), 60.0),
        (FiberPotential.from_cusp(2, 1.00, 2.0, 1.0), 200.0),
        (FiberPotential.from_cusp(2, 1.00, 0.5, 1.0), 60.0),
        (FiberPotential.from_cusp(5, 0.60, 1.0, 2.0), 80.0),
    ) + tuple(
        (FiberPotential.from_cusp(2, 0.75, 0.5, 0.25), lam) for lam in (0.42, 0.45, 0.49, 0.6, 3.0)
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

    @staticmethod
    def assert_count_jumps_at_listed_values(f, lam, bc):
        # a count bisection lands within eps of v_k exactly when the count
        # steps from k to k + 1 inside (v_k - eps, v_k + eps], so two counts
        # per eigenvalue stand in for the full reference listing
        values = fiber_eigenvalues(f, lam, bc)
        assert len(values) == fiber_count(f, lam, bc)
        for k, v in enumerate(values):
            eps = 1e-9 * max(1.0, abs(v))
            assert fiber_count(f, v - eps, bc) == k
            assert fiber_count(f, v + eps, bc) == k + 1

    @pytest.mark.parametrize("f,lam", TestEdgeFibers.CASES)
    def test_count_jumps_at_listed_values(self, f, lam):
        for bc in (BoundaryCondition.dirichlet(), ROBIN):
            self.assert_count_jumps_at_listed_values(f, lam, bc)

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.3, 1.5),
        mu=st.floats(0.01, 20.0),
        lam=st.floats(0.5, 150.0),
        robin=st.booleans(),
    )
    def test_count_jumps_at_listed_values_on_drawn_fibers(self, n, delta, a, mu, lam, robin):
        f = FiberPotential.from_cusp(n, delta, a, mu)
        bc = ROBIN if robin else BoundaryCondition.dirichlet()
        self.assert_count_jumps_at_listed_values(f, lam, bc)

    @pytest.mark.parametrize("f,lam", CASES)
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), ROBIN], ids=["D", "R"])
    def test_listing_shoots_only_backward_to_alpha(self, monkeypatch, f, lam, bc):
        # every propagation of a listing, its total included, is the decaying
        # solution shot back from the forbidden region to the boundary, down
        # one mesh: streamed for the total, then kept for every later shoot
        meshes, shoots = [], []
        real_blocks, real_angles = fiber._back_blocks, fiber._back_angles

        def back_blocks(g, level, span, stops):
            meshes.append((span, list(stops)))
            return real_blocks(g, level, span, stops)

        def back_angles(blocks, level, v_top):
            angles = real_angles(blocks, level, v_top)
            shoots.append(len(angles))
            return angles

        monkeypatch.setattr(fiber, "_back_blocks", back_blocks)
        monkeypatch.setattr(fiber, "_back_angles", back_angles)
        values = fiber_eigenvalues(f, lam, bc)
        assert len(values) > 2
        [(span, stops), kept] = meshes
        assert kept == (span, stops) and span > 0.0 and stops == [0.0]  # offsets from alpha
        assert len(shoots) > len(values) and set(shoots) == {1}

    def test_listing_scales_each_level_once(self, monkeypatch):
        # each level's read-off is scaled when it is shot and then read from
        # the cache at every later root: two _rescale calls per shoot
        calls = {"shoots": 0, "rescales": 0}

        def counted(key, real):
            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(fiber, "_back_angles", counted("shoots", fiber._back_angles))
        monkeypatch.setattr(fiber, "_rescale", counted("rescales", fiber._rescale))
        values = fiber_eigenvalues(FiberPotential.from_cusp(2, 1.0, 1.0, 0.25), 300.0, ROBIN)
        assert len(values) > 10
        assert calls["rescales"] <= 2 * calls["shoots"]

    @pytest.mark.parametrize(
        "f,lam,bc",
        [
            pytest.param(f, lam, bc, id=f"f{i}-{lam}{suffix}")
            for i, (f, lam) in enumerate(CASES)
            for suffix, bc in (("", DIRICHLET), ("-R", ROBIN))
        ]
        + [
            pytest.param(
                FiberPotential.from_cusp(2, 0.8787459561307835, 0.9149903466152369,
                                         19.09855996559342),
                108.35456514225662, DIRICHLET, id="f2-108.35456514225662",
            )
        ],
    )
    def test_listing_shoots_per_eigenvalue(self, monkeypatch, f, lam, bc):
        # brentq on the read-off, each root bracketed by the levels already
        # shot: a listing costs at most 6 backward shoots per eigenvalue,
        # plus the total and the bracket; a Robin one up to 12 more for its
        # first root, whose bracket starts below min V - 2 beta^2 - 1
        first = 12 if bc.kind == "robin" else 0
        calls = []
        real = fiber._back_angles

        def back_angles(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fiber, "_back_angles", back_angles)
        values = fiber_eigenvalues(f, lam, bc)
        assert len(values) > 2
        assert len(calls) <= 6 * len(values) + 3 + first

    # each listed value against the root of the read-off F of the same
    # backward propagator on a mesh 4 times finer, solved to 1e-14
    @hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.3, 1.2),
        mu=st.floats(0.01, 5.0),
        lam=st.floats(20.0, 100.0),
        robin=st.booleans(),
    )
    def test_listing_matches_tight_read_off_roots(self, n, delta, a, mu, lam, robin):
        f = FiberPotential.from_cusp(n, delta, a, mu)
        bc = ROBIN if robin else BoundaryCondition.dirichlet()
        values = fiber_eigenvalues(f, lam, bc)
        assert len(values) == fiber_count(f, lam, bc)
        theta0 = fiber._boundary_angle(f, bc)
        level = max(lam, potential_min(f))
        span = fiber._shoot_span(f, level)
        with mock.patch.object(fiber, "MAGNUS_K", 4 * fiber.MAGNUS_K), \
                mock.patch.object(fiber, "MAGNUS_SCALE_STEPS", 4 * fiber.MAGNUS_SCALE_STEPS):
            blocks = list(fiber._back_blocks(f, level, span, [0.0]))
        v_top = fiber._potential(f, span)

        def read_off(level):
            return theta0 - fiber._back_angles(blocks, level, v_top)[0]

        for k, v in enumerate(values):
            width = 1e-8 * max(1.0, abs(v))
            root = brentq(lambda level: read_off(level) - k * math.pi, v - width, v + width,
                          xtol=1e-14, rtol=1e-14)
            assert abs(v - root) <= fiber.REL_TOL * max(1.0, abs(v))

    @pytest.mark.parametrize("u,want", [(1e-300, 0.0), (0.0, -math.pi), (-1e-300, -math.pi)])
    def test_angle_where_atan2_rounds_to_pi(self, monkeypatch, u, want):
        # a stop with one zero above it, where u is tiny and u' = -1: for
        # u > 0 atan2(u, u') rounds to pi, and the angle is pi - pi, not 0 - pi
        def block(nodal, lam, u_top, du_top):
            return np.array([u, u_top]), np.array([-1.0, du_top]), np.array([1.0])

        monkeypatch.setattr(fiber, "_magnus_block", block)
        [theta] = fiber._back_angles([(None, np.array([0]))], 0.0, 1.0)
        assert theta == pytest.approx(want, abs=1e-12)

    def test_read_off_at_a_root_where_atan2_rounds_to_pi(self):
        # on the listing mesh of this fiber, the shoot at this root of F = pi
        # ends on such a tiny u > 0 at alpha
        f, lam = self.CASES[1]
        level = 12.531400472964593
        span = fiber._shoot_span(f, lam)
        blocks = list(fiber._back_blocks(f, lam, span, [0.0]))
        theta = fiber._back_angles(blocks, level, fiber._potential(f, span))[0]
        assert abs(theta + math.pi) < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shoot_far_below_the_listing_level_does_not_overflow(self):
        # a delta < 1 listing shoots at levels far below the one its mesh
        # was built for; there u at the two edges of a step is finite, but
        # their product overflows, so zeros are found by comparing signs
        f = FiberPotential.from_cusp(2, 0.5661095029296256, 0.8456727782011921,
                                     0.15440702069098172 ** 2)
        level = 283.84
        span = fiber._shoot_span(f, level)
        blocks = list(fiber._back_blocks(f, level, span, [0.0]))
        [theta] = fiber._back_angles(blocks, -1.0554727303499276, fiber._potential(f, span))
        assert math.isfinite(theta)

    @pytest.mark.parametrize("f,lam_max", CASES)
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), ROBIN], ids=["D", "R"])
    def test_ceil_mismatch_is_count(self, f, lam_max, bc):
        # the boundary read-off F = theta0 - theta_dec(alpha) that listings
        # find roots on, with the listing's shared end point
        theta0 = fiber._boundary_angle(f, bc)
        span = fiber._shoot_span(f, lam_max)
        counts = set()
        for lam in np.linspace(potential_min(f) - 1.0, lam_max, 17):
            read_off = theta0 - fiber._shoot_back(f, float(lam), span, [0.0])[0]
            count = fiber_count(f, float(lam), bc)
            assert math.ceil(read_off / math.pi) == count
            counts.add(count)
        assert len(counts) >= 4

    # a shoot from the end point of the level max(lam, min V), which the
    # listings use, reads the count of fiber_count's own shoot from
    # the end point of lam
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
        span = fiber._shoot_span(f, max(lam, potential_min(f)))
        read_off = fiber._boundary_angle(f, bc) - fiber._shoot_back(f, lam, span, [0.0])[0]
        assert math.ceil(read_off / math.pi) == fiber_count(f, lam, bc)

    @pytest.mark.parametrize("f", [F_REF, FiberPotential.from_cusp(3, 0.6, 0.5, 2.0)])
    def test_one_shoot_through_many_stops(self, f):
        # one backward propagation that passes every stop gives the angle of
        # a shoot that ends at each stop alone
        lam = 200.0
        span = fiber._shoot_span(f, lam)
        stops = np.linspace(fiber._edge_offset(f, lam), 0.0, 9).tolist()
        together = fiber._shoot_back(f, lam, span, stops)
        alone = [fiber._shoot_back(f, lam, span, [stop])[0] for stop in stops]
        assert abs(together[-1] - together[0]) > 4.0 * math.pi
        assert together == pytest.approx(alone, rel=0.0, abs=1e-8)

    def test_close_stops_give_the_angles_of_lone_stops(self):
        # stops a hair apart split a mesh step into a step of 1e-9 and the
        # rest; every angle, the one at alpha included, is still that of a
        # shoot to its stop alone
        lam = 400.0
        span = fiber._shoot_span(F_REF, lam)
        points = np.linspace(fiber._edge_offset(F_REF, lam), 0.0, 12)[:-1].tolist()
        stops = [x for p in points for x in (p, p - 1e-9)] + [0.0]
        together = fiber._shoot_back(F_REF, lam, span, stops)
        alone = [fiber._shoot_back(F_REF, lam, span, [stop])[0] for stop in stops]
        assert together == pytest.approx(alone, rel=0.0, abs=1e-9)


@functools.lru_cache(maxsize=None)
def dop853_theta_decay(f, lam):
    """theta_dec(alpha; lam) from the Prufer equation theta' = cos^2 theta +
    (lam - V) sin^2 theta, solved by DOP853 back from the shoot's t_end: an
    integrator that shares nothing with the Magnus propagator."""
    t_end = f.alpha + fiber._shoot_span(f, lam)

    def prufer(t, theta):
        s, c = math.sin(theta[0]), math.cos(theta[0])
        return [c * c + (lam - fiber._potential(f, max(t - f.alpha, 0.0))) * s * s]

    start = math.atan2(1.0, -math.sqrt(fiber._potential(f, t_end - f.alpha) - lam))
    return solve_ivp(prufer, (t_end, f.alpha), [start], method="DOP853",
                     rtol=1e-13, atol=1e-13).y[0, -1]


def reference_read_off(f, lam, bc):
    """(theta0 - theta_dec(alpha)) / pi with the DOP853 angle: the count is
    its ceiling, a tie wherever it lies within 1e-6 of an integer."""
    return (fiber._boundary_angle(f, bc) - dop853_theta_decay(f, lam)) / math.pi


def is_tie(x):
    return abs(x - round(x)) < 1e-6


class TestBackwardTail:
    @pytest.mark.parametrize(
        "n,delta,a,mu,lam",
        [
            (2, 0.75, 1.0, 1.0, 40.0),
            (3, 0.6, 0.5, 2.0, 50.0),
            (3, 0.55, 0.3, 5.0, 120.0),
            (2, 0.75, 1.0, 100.0, 1.0),  # alpha deep in the forbidden region
            (2, 0.9, 1.5, 10.0, 20.0),
            (3, 0.4, 1e-3, 1.0, 5.0),  # small alpha: a c/t^2 wall of ~3e6
        ],
    )
    def test_read_off_matches_dop853(self, n, delta, a, mu, lam):
        # theta_dec(alpha; lam) against dop853_theta_decay
        f = FiberPotential.from_cusp(n, delta, a, mu)
        [theta] = fiber._shoot_back(f, lam, fiber._shoot_span(f, lam), [0.0])
        assert abs(theta - dop853_theta_decay(f, lam)) <= fiber.ANGLE_TOL

    # at delta = 1 the decaying solution is K_{i nu}(sqrt(mu) e^t), nu^2 =
    # lam - (n-1)^2/4 (a real order below that level), so the angle that the
    # shoot reads off at alpha is atan(u / u') mod pi, u' = y K'(y) at
    # y = sqrt(mu) e^alpha
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        a=st.floats(0.5, 1.5),
        mu=st.floats(0.05, 20.0),
        lam=st.floats(0.3, 300.0),
    )
    def test_read_off_matches_bessel_k(self, n, a, mu, lam):
        import mpmath

        mpmath.mp.dps = 30
        f = FiberPotential.from_cusp(n, 1.0, a, mu)
        [theta] = fiber._shoot_back(f, lam, fiber._shoot_span(f, lam), [0.0])
        q = mpmath.mpf((n - 1) ** 2) / 4
        order = mpmath.sqrt(q - lam) if lam < q else 1j * mpmath.sqrt(lam - q)
        y = mpmath.sqrt(mu) * mpmath.exp(f.alpha)
        u = mpmath.re(mpmath.besselk(order, y))
        du = -y * mpmath.re(mpmath.besselk(order - 1, y) + mpmath.besselk(order + 1, y)) / 2
        gap = (theta - float(mpmath.atan2(u, du)) + math.pi / 2) % math.pi - math.pi / 2
        assert abs(gap) <= fiber.ANGLE_TOL


def distinct_modes(model, lam, tau):
    cusp = model.cusps[0]
    cutoff = lam / cusp.a ** (4.0 * cusp.delta)
    return np.unique(mu_spectrum(cusp.cross_section, tau, cutoff).values).tolist()


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
        [got] = count_fibers(model.n, cusp.delta, cusp.a, mus, lam, [self.BCS[bc]])
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
        [got] = count_fibers(free.n, cusp.delta, cusp.a, mus, lam, [self.BCS[bc]])
        assert got == expected

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("bc", sorted(BCS))
    def test_every_count_is_a_fiber_count_result(self, monkeypatch, name, bc):
        # each count that count_fibers returns and that can be nonzero is a
        # value of fiber_count, so a fault there shows in every cusp count,
        # on both paths
        model, lam = self.MODELS[name]
        cusp = model.cusps[0]
        mus = distinct_modes(model, lam, 1.0)
        expected = per_mode_counts(model, mus, lam, self.BCS[bc])
        real = fiber.fiber_count

        def off_by_one(*args, **kwargs):
            count = real(*args, **kwargs)
            return count + 1 if count > 0 else count

        monkeypatch.setattr(fiber, "fiber_count", off_by_one)
        [got] = count_fibers(model.n, cusp.delta, cusp.a, mus, lam, [self.BCS[bc]])
        assert got == [c + 1 if c > 0 else c for c in expected]

    @pytest.mark.parametrize("delta", [1.0, 0.75])
    @pytest.mark.parametrize("bc", sorted(BCS))
    @pytest.mark.parametrize("lam", [0.2, 3.0, 80.0])
    def test_theta_decay_gives_the_shoot_count(self, delta, bc, lam):
        # a decaying solution's angle at alpha from an independent solver
        # counts by ceil((theta0 - theta) / pi) as the fiber's own shoot does
        f = FiberPotential.from_cusp(2, delta, 0.8, 1.7)
        bc = self.BCS[bc]
        assert not is_tie(reference_read_off(f, lam, bc))
        direct = fiber_count(f, lam, bc)
        assert fiber_count(f, lam, bc, theta_decay=dop853_theta_decay(f, lam)) == direct
        if lam == 80.0:
            assert direct > 0

    @pytest.mark.parametrize("delta", [1.0, 0.75])
    @pytest.mark.parametrize("beta", [None, 0.0, -1.5, 2.0, "dirichlet"])
    def test_given_angle_is_read_off_without_min_v(self, monkeypatch, delta, beta):
        # a count handed its angle is the read-off ceil((theta0 - theta) / pi)
        # at every level, below min V too: min V only spares a count its shoot
        f = FiberPotential.from_cusp(2, delta, 0.8, 1.7)
        bc = DIRICHLET if beta == "dirichlet" else BoundaryCondition.robin(beta)
        if bc is DIRICHLET:
            theta0 = 0.0
        else:
            theta0 = math.atan2(1.0, -(default_robin_beta(f) if beta is None else beta))
        v_min = potential_min(f)

        def no_min(_f):
            raise AssertionError("potential_min called on a given angle")

        monkeypatch.setattr(fiber, "potential_min", no_min)
        for lam in (0.5 * v_min, v_min, 2.0 * v_min + 10.0):
            for theta in (0.75 * math.pi, 0.1, -0.4 * math.pi, -2.5 * math.pi, -7.0):
                want = math.ceil((theta0 - theta) / math.pi)
                assert fiber_count(f, lam, bc, theta_decay=theta) == want

    def test_delta1_builds_no_fiber_per_mode(self, monkeypatch):
        # every delta = 1 mode is read off the one shifted fiber the shoot
        # runs on, so 1,200 modes build that fiber alone
        built = []
        real = FiberPotential.__post_init__

        def counting(self):
            built.append(self.mu)
            real(self)

        monkeypatch.setattr(FiberPotential, "__post_init__", counting)
        mus = [(k / 12.0) ** 2 for k in range(1, 1201)]
        got = count_fibers(2, 1.0, 1.0, mus, 1e4, [DIRICHLET, ROBIN])
        assert len(built) <= 1
        assert max(got[0]) > 0

    def test_delta1_shoots_only_modes_that_can_count(self, monkeypatch):
        # 1,200 modes up to 3.6e5 at lambda = 1e4: the shoot stops at the
        # modes with min V = mu + 1/4 below lambda (Dirichlet), the others
        # read 0.  A shoot from above the top mode grows u across a long
        # forbidden stretch within one block, until products of u overflow
        mus = [0.25 * k * k for k in range(1, 1201)]
        stops = []
        real = fiber._back_blocks

        def back_blocks(f, lam, span, offsets):
            stops.append(len(offsets))
            return real(f, lam, span, offsets)

        monkeypatch.setattr(fiber, "_back_blocks", back_blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            [got] = count_fibers(2, 1.0, 1.0, mus, 1e4, [DIRICHLET])
        monkeypatch.undo()
        assert stops == [sum(mu + 0.25 < 1e4 for mu in mus)]
        assert got[::10] == [fiber_count(FiberPotential.from_cusp(2, 1.0, 1.0, mu), 1e4)
                             for mu in mus[::10]]
        assert got[0] > 0 and got[-1] == 0

    @pytest.mark.parametrize("delta", [1.0, 0.75])
    @pytest.mark.parametrize("lam", [-1e12, -1e32])
    def test_far_below_every_mode_reads_zero_without_a_shoot(self, monkeypatch, delta, lam):
        # lambda <= min V - max(beta, 0)^2 under both conditions: no shoot,
        # every count 0.  A shoot there overflows to NaN (delta = 1, from
        # -1e12), runs for minutes (delta = 1, -1e32) or reads a Dirichlet
        # count of -1 off the angle of the Robin probe (delta = 0.75, -1e32)
        def shoot(*args):
            raise AssertionError("a shoot was made")

        monkeypatch.setattr(fiber, "_back_angles", shoot)
        start = time.perf_counter()
        got = count_fibers(2, delta, 1.0, [1.0, 4.0], lam, [DIRICHLET, ROBIN])
        assert got == [[0, 0], [0, 0]]
        assert time.perf_counter() - start < 1.0

    # beta |u(alpha)|^2 <= ||u'||^2 + beta^2 ||u||^2 puts every Robin
    # eigenvalue at or above min V - beta^2: a shoot there reads 0, and
    # fiber_count returns 0 without one
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.3, 1.5),
        mu=st.floats(0.01, 20.0),
        beta=st.sampled_from([None, 0.3, 2.0, 10.0]),
        below=st.sampled_from([0.0, 1e-9, 1e-6]),
    )
    def test_robin_empty_at_min_v_minus_beta_squared(self, n, delta, a, mu, beta, below):
        f = FiberPotential.from_cusp(n, delta, a, mu)
        bc = BoundaryCondition.robin(beta)
        edge = potential_min(f) - (default_robin_beta(f) if beta is None else beta) ** 2
        lam = edge - below * max(1.0, abs(edge))
        [theta] = fiber._shoot_back(f, lam, fiber._shoot_span(f, lam), [0.0])
        assert math.ceil((fiber._boundary_angle(f, bc) - theta) / math.pi) == 0
        with mock.patch.object(fiber, "_back_angles", side_effect=AssertionError("shot")):
            assert fiber_count(f, lam, bc) == 0

    def test_empty_and_single(self):
        assert count_fibers(2, 1.0, 1.0, [], 50.0, [DIRICHLET])[0] == []
        assert count_fibers(2, 1.0, 1.0, [1.0], 50.0, [DIRICHLET])[0] == [fiber_count(F_REF, 50.0)]

    @pytest.mark.parametrize("mus", [[0.0, 1.0], [-1.0], [1.0, 1.0], [2.0, 1.0]])
    def test_rejects_unsorted_or_nonpositive(self, mus):
        with pytest.raises(ValueError, match="count_fibers"):
            count_fibers(2, 1.0, 1.0, mus, 50.0, [DIRICHLET])

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_raises(self, lam):
        with pytest.raises(ValueError, match="spectral level must be finite"):
            count_fibers(2, 1.0, 1.0, [1.0, 4.0], lam, [DIRICHLET])

    # at delta = 1 one backward shoot counts every mode; draw levels below
    # (n-1)^2/4 too, where only Robin boundary states can be counted
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        a=st.floats(0.5, 2.0),
        mus=st.lists(st.floats(math.log(1e-3), math.log(300.0)), min_size=1, max_size=30),
        log_lam=st.floats(math.log(0.1), math.log(400.0)),
        bc=st.one_of(
            st.just(BoundaryCondition.dirichlet()),
            st.just(ROBIN),
            st.floats(-3.0, 3.0).map(BoundaryCondition.robin),
        ),
    )
    def test_delta1_equals_per_mode_loop(self, n, a, mus, log_lam, bc):
        mus = sorted({math.exp(x) for x in mus})
        lam = math.exp(log_lam)
        expected = [fiber_count(FiberPotential.from_cusp(n, 1.0, a, mu), lam, bc) for mu in mus]
        assert count_fibers(n, 1.0, a, mus, lam, [bc])[0] == expected

    # one call counts both bracket ends; Dirichlet-Robin interlacing bounds
    # the Robin count of each mode by the Dirichlet count plus one
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
        a=st.floats(0.5, 1.5),
        mus=st.lists(st.floats(math.log(1e-2), math.log(100.0)), min_size=1, max_size=8),
        lam=st.floats(0.5, 300.0),
    )
    def test_both_ends_equal_per_mode_loops(self, n, delta, a, mus, lam):
        mus = sorted({math.exp(x) for x in mus})
        bcs = (BoundaryCondition.dirichlet(), ROBIN)
        fibers = [FiberPotential.from_cusp(n, delta, a, mu) for mu in mus]
        got = count_fibers(n, delta, a, mus, lam, bcs)
        assert got == [[fiber_count(f, lam, bc) for f in fibers] for bc in bcs]
        for nd, nr in zip(*got):
            assert nd <= nr <= nd + 1

    @pytest.mark.parametrize(
        "n,a,mus,lam",
        [
            (2, 1.0, [0.25, 30.25], 200.0),
            (3, 0.7, [0.05, 9.0], 120.0),
            (4, 1.5, [0.02], 300.0),
        ],
    )
    def test_delta1_counts_zeros_of_bessel_k(self, n, a, mus, lam):
        # the decaying solution of -u'' + (e^(2s) + (n-1)^2/4) u = lam u is
        # K_{i nu}(e^s), nu^2 = lam - (n-1)^2/4; the Dirichlet count of mode mu
        # is its number of zeros on (s_mu, oo), i.e. of y -> K_{i nu}(y) on
        # (a^2 sqrt(mu), oo), and they all lie below y = nu, at least pi / nu
        # apart in ln y
        import mpmath

        nu = math.sqrt(lam - (n - 1) ** 2 / 4.0)
        expected = []
        for mu in mus:
            ys = np.geomspace(a * a * math.sqrt(mu), nu, 300)
            signs = [mpmath.sign(mpmath.besselk(1j * nu, y).real) for y in ys]
            expected.append(sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1))
        assert min(expected) > 0
        assert count_fibers(n, 1.0, a, mus, lam, [DIRICHLET])[0] == expected


# a fiber drawn over the range the counts serve: delta < 1 and delta = 1,
# mu log-uniform from 1e-2 to 300
DRAWN_FIBER = dict(
    n=st.sampled_from([2, 3]),
    delta=st.one_of(st.just(1.0), st.floats(0.55, 0.95)),
    a=st.floats(0.3, 1.5),
    log_mu=st.floats(math.log(1e-2), math.log(300.0)),
)


class TestForwardCount:
    # fiber_count on drawn and edge fibers, against independent references
    # and the laws every count obeys
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        delta=st.floats(0.55, 0.95),
        a=st.floats(0.3, 1.5),
        log_mu=st.floats(math.log(1e-2), math.log(300.0)),
        lam=st.floats(0.0, 200.0),
        bc=st.one_of(
            st.just(DIRICHLET),
            st.just(ROBIN),
            st.floats(-3.0, 3.0).map(BoundaryCondition.robin),
        ),
    )
    def test_equals_backward_read_off(self, n, delta, a, log_mu, lam, bc):
        # against the read-off of the DOP853 angle
        f = FiberPotential.from_cusp(n, delta, a, math.exp(log_mu))
        reference = reference_read_off(f, lam, bc)
        hypothesis.assume(not is_tie(reference))
        assert fiber_count(f, lam, bc) == math.ceil(reference)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @given(**DRAWN_FIBER, lam=st.floats(0.0, 1000.0), rise=st.floats(0.0, 60.0),
           beta=st.floats(-3.0, 3.0))
    def test_non_decreasing_in_lambda(self, n, delta, a, log_mu, lam, rise, beta):
        f = FiberPotential.from_cusp(n, delta, a, math.exp(log_mu))
        for bc in (DIRICHLET, ROBIN, BoundaryCondition.robin(beta)):
            assert fiber_count(f, lam, bc) <= fiber_count(f, lam + rise, bc)

    # the Dirichlet form domain has codimension 1 in the Robin one, so by
    # min-max N_D <= N_R <= N_D + 1 under every beta
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @given(**DRAWN_FIBER, lam=st.floats(0.0, 1000.0), beta=st.floats(-3.0, 3.0))
    def test_dirichlet_robin_interlacing(self, n, delta, a, log_mu, lam, beta):
        f = FiberPotential.from_cusp(n, delta, a, math.exp(log_mu))
        nd = fiber_count(f, lam)
        for bc in (ROBIN, BoundaryCondition.robin(beta)):
            assert nd <= fiber_count(f, lam, bc) <= nd + 1

    @pytest.mark.parametrize("n,a,mu", [(2, 1.0, 0.25), (3, 0.7, 2.0)])
    @pytest.mark.parametrize("bc", [DIRICHLET, ROBIN], ids=["D", "R"])
    def test_delta_near_one_counts_at_delta1_eigenvalues(self, n, a, mu, bc):
        # at delta = 1 - 1e-9, alpha ~ 1e9: doubles near alpha lie 1.2e-7
        # apart, which the growth power ~2e9 would turn into noise in V, so
        # the mesh runs in offsets x = t - alpha.  The eigenvalues sit far
        # closer to those of delta = 1 than the probes 1e-5 either side
        at_one = FiberPotential.from_cusp(n, 1.0, a, mu)
        near = FiberPotential.from_cusp(n, 1.0 - 1e-9, a, mu)
        values = fiber_eigenvalues(at_one, 300.0, bc)
        assert len(values) >= 10
        for k, v in enumerate(values):
            for lam, want in ((v - 1e-5, k), (v + 1e-5, k + 1)):
                assert fiber_count(near, lam, bc) == fiber_count(at_one, lam, bc) == want

    # Dirichlet counts at lambda = 5 and 50 of the fibers below: those of
    # fd_oracle on grids of 2^15 and 2^17 steps, every eigenvalue >= 0.35
    # from the level
    WALL_COUNTS = {(3, 0.4, 1e-3): (2, 50), (2, 0.55, 1e-4): (2, 20), (3, 0.4, 0.05): (2, 50)}

    @pytest.mark.parametrize("n,delta,a", [(3, 0.4, 1e-3), (2, 0.55, 1e-4), (3, 0.4, 0.05)])
    @pytest.mark.parametrize("bc", [DIRICHLET, ROBIN], ids=["D", "R"])
    def test_small_alpha_wall(self, n, delta, a, bc):
        # a small alpha raises a c/t^2 wall of up to ~6e6 at the boundary,
        # which the level rule's steps do not resolve; the graded steps from
        # alpha follow its scale t / max(power, 2).  Without them the depth
        # rule still counts right, on ~30 times the steps, but the angle at
        # alpha errs by ~4e-7.  The default Robin condition sits within 2e-8
        # of a tie at a <= 1e-3, so only Dirichlet-Robin interlacing is checked
        f = FiberPotential.from_cusp(n, delta, a, 1.0)
        assert fiber._potential(f, 0.0) > 500.0
        assert len(fiber._mesh(f, 5.0, 1.0)[0]) > 20  # graded steps
        [theta] = fiber._shoot_back(f, 5.0, fiber._shoot_span(f, 5.0), [0.0])
        assert abs(theta - dop853_theta_decay(f, 5.0)) <= fiber.ANGLE_TOL
        for lam, nd in zip((5.0, 50.0), self.WALL_COUNTS[n, delta, a]):
            assert fiber_count(f, lam) == nd
            assert nd <= fiber_count(f, lam, bc) <= nd + 1

    def test_blocks_carry_the_solution(self, monkeypatch):
        # a mesh cut into blocks of 61 steps counts as one block does
        cases = [
            (f, lam, bc)
            for f in (
                F_REF,
                FiberPotential.from_cusp(3, 0.6, 0.5, 2.0),
                FiberPotential.from_cusp(3, 0.4, 1e-3, 1.0),  # graded steps too
            )
            for lam in (30.0, 900.0)
            for bc in (DIRICHLET, ROBIN)
        ]
        counts = [fiber_count(f, lam, bc) for f, lam, bc in cases]
        monkeypatch.setattr(fiber, "MAGNUS_BLOCK", 61)
        assert [fiber_count(f, lam, bc) for f, lam, bc in cases] == counts
        assert min(counts) >= 2


class TestMeshBudget:
    MODEL = circle_model(delta=0.75)

    def test_raised_before_any_forward_count(self, monkeypatch):
        def shoot(*args):
            raise AssertionError("a shoot was made")

        monkeypatch.setattr(fiber, "_back_angles", shoot)
        mus = distinct_modes(self.MODEL, 1e11, 1.0)
        start = time.perf_counter()
        with pytest.raises(MeshBudgetError, match=f"budget is {fiber.MESH_BUDGET}$"):
            count_fibers(2, 0.75, 1.0, mus, 1e11, [DIRICHLET, ROBIN])
        assert time.perf_counter() - start < 1.0

    def test_delta1_raised_before_the_backward_shoot(self, monkeypatch):
        # the plan is the mesh of the shoot plus one step per mode
        def shoot(*args):
            raise AssertionError("a backward shoot was made")

        monkeypatch.setattr(fiber, "_back_angles", shoot)
        mus = distinct_modes(circle_model(a=1e7), 1e32, 1.0)
        with pytest.raises(MeshBudgetError, match=r"126 modes from one backward shoot"):
            count_fibers(2, 1.0, 1e7, mus, 1e32, [DIRICHLET, ROBIN])

    def test_listing_raised_once_its_total_is_read(self, monkeypatch):
        # one shoot reads the total; 6 per eigenvalue plus 3 would not fit
        shoots = []
        real = fiber._back_angles

        def shoot(*args):
            shoots.append(args[1])
            return real(*args)

        monkeypatch.setattr(fiber, "_back_angles", shoot)
        f = FiberPotential.from_cusp(2, 1.0, 1.0, 0.25)
        with pytest.raises(MeshBudgetError, match="listing of 108187 eigenvalues"):
            fiber_eigenvalues(f, 1e9)
        assert shoots == [1e9]

    # mode ell = 1 of a zero-field circle of length 1e6 at delta = 0.51,
    # mu = (2 pi / 1e6)^2: one shoot at lambda = 1e6 plans 1.9e11 steps
    WIDE = FiberPotential.from_cusp(2, 0.51, 1.0, (2.0 * math.pi / 1e6) ** 2)

    @pytest.mark.parametrize("run", [fiber_count, fiber_eigenvalues], ids=["count", "listing"])
    def test_lone_shoot_raised_before_it_runs(self, monkeypatch, run):
        # fiber_count without an angle (CLI phase) and the first shoot of a
        # listing (CLI fiber)
        def shoot(*args):
            raise AssertionError("a shoot was made")

        monkeypatch.setattr(fiber, "_back_angles", shoot)
        start = time.perf_counter()
        with pytest.raises(MeshBudgetError, match=r"a backward shoot at lambda = 1000000\.0"):
            run(self.WIDE, 1e6)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("lam", [1e3, 1e7])
    def test_levels_in_reach_are_counted(self, monkeypatch, lam):
        # lambda = 1e7 plans 6.5e8 steps and counts in seconds; 1e8 plans
        # 5.7e9, still under the budget, and 1e9 plans 5.2e10
        monkeypatch.setattr(fiber, "_bisect_modes", lambda *args: [["counted"]])
        mus = distinct_modes(self.MODEL, lam, 1.0)
        assert count_fibers(2, 0.75, 1.0, mus, lam, [DIRICHLET]) == [["counted"]]


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
        # below its own search floor min(V, 0) - 2 beta^2 - 10 as well
        assert fd_oracle(FiberPotential.from_cusp(2, 0.75, 1.0, 1.0), -100.0) == []

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("delta", [0.6, 0.75])
    def test_robin_count_of_free_channel_below_zero(self, n, delta):
        # mu = 0, delta < 1: V = c / t^2, whose decaying zero-energy solution
        # meets the default Robin condition exactly, an eigenvalue at 0 that
        # a strict count at 0 leaves out; larger beta binds a state below 0
        f = FiberPotential.from_cusp(n, delta, 1.0, 0.0)
        for beta in (None, 0.2, 1.0, 3.0):
            bc = BoundaryCondition.robin(beta)
            for lam in (-1.0, -0.1, -1e-3, 0.0):
                assert fiber_count(f, lam, bc) == len(fd_oracle(f, lam, bc, grid=1 << 13))
        assert fiber_count(f, 0.0, ROBIN) == 0


def test_default_robin_beta_values():
    assert default_robin_beta(F_REF) == 0.5  # (n delta - 1)/2 at n=2, delta=1
    f = FiberPotential.from_cusp(3, 0.75, 2.0, 1.0)
    a_pow = 2.0 ** (2.0 * (0.75 - 1.0))
    assert default_robin_beta(f) == pytest.approx(2.0 * 0.75 * a_pow / 2.0, rel=1e-13)
