import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cuspspec import (
    CompactCoreSurrogate,
    CuspEnd,
    FiberPotential,
    ManifoldModel,
    TorusCrossSection,
    demagnetize,
    embedded_upper_bound,
    fiber_count,
    mu0,
    mu_spectrum,
    n_ess_exact,
    perturb_c2,
    poincare_constant,
    r0_model,
    rho_exponent,
    scale_field,
    total_count_bracket,
)
from conftest import circle_model


class TestRho:
    def test_branch_values(self):
        assert rho_exponent(2, 1.0) == 0.5
        assert rho_exponent(3, 0.4) == pytest.approx(0.1)
        assert rho_exponent(4, 0.5) == 0.5  # boundary 2/n belongs to the 1/2 branch

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rho_exponent(2, 0.4)
        with pytest.raises(ValueError):
            rho_exponent(2, 1.2)

    def test_r0_switches_with_rho(self):
        # both the scaling exponent and the remainder branch flip at delta = 2/n
        lam = 100.0
        for n in (2, 3, 4, 5):
            for delta in np.linspace(1.0 / n + 0.01, 1.0, 23):
                thick = rho_exponent(n, float(delta)) == 0.5
                ln_branch = r0_model(n, float(delta), lam) == pytest.approx(
                    lam ** ((n - 1) / 2.0) * math.log(lam)
                )
                assert thick == ln_branch


class TestPoincare:
    def test_reference_value(self, ref_model):
        assert poincare_constant(ref_model) == pytest.approx(1.5, rel=1e-14)

    def test_no_field(self, zero_field_model):
        assert poincare_constant(zero_field_model) == 1.0

    def test_field_term_quadratic(self):
        base = poincare_constant(circle_model(omega=0.5)) - 1.0
        doubled = poincare_constant(circle_model(omega=1.0 + 1e-9)) - 1.0
        assert doubled == pytest.approx(4.0 * base, rel=1e-6)

    def test_core_term(self):
        cored = circle_model(core_volume=5.0)
        # cusp term 1.5 still dominates 2 * 0.25 = 0.5
        assert poincare_constant(cored) == pytest.approx(1.5)


class TestNEssExact:
    def test_below_floor(self, zero_field_model):
        assert n_ess_exact(zero_field_model, 0.2) == 0

    def test_preconditions(self, ref_model, zero_field_model):
        with pytest.raises(ValueError, match="A = 0"):
            n_ess_exact(ref_model, 10.0)
        cored = circle_model(omega=0.0, core_volume=1.0)
        with pytest.raises(ValueError, match="core"):
            n_ess_exact(cored, 10.0)

    def test_two_cusp_additivity(self):
        one = circle_model(omega=0.0)
        two = circle_model(omega=0.0, cusps=2)
        for lam in (10.0, 100.0):
            assert n_ess_exact(two, lam) == 2 * n_ess_exact(one, lam)

    def test_counts_embedded_channels(self, zero_field_model):
        # at lam = 10 the mu = 1, 4, 9 channels contribute; mu = 0 does not
        direct = 0
        for mu in (1.0, 4.0, 9.0):
            f = FiberPotential.from_cusp(2, 1.0, 1.0, mu)
            direct += 2 * fiber_count(f, 10.0)
        assert n_ess_exact(zero_field_model, 10.0) == direct


class TestEmbeddedBound:
    def test_reference_structure(self, ref_model):
        rep = embedded_upper_bound(ref_model, 100.0)
        assert rep.rho == 0.5
        assert rep.tau == pytest.approx(0.1, rel=1e-14)
        assert rep.c_a == pytest.approx(1.5, rel=1e-14)
        assert rep.shifted_lambda == pytest.approx(116.5, rel=1e-12)
        # the bracket of the reference circle with its one-form scaled by tau
        bracket = total_count_bracket(circle_model(omega=0.5 * rep.tau), rep.shifted_lambda)
        assert rep.bound == bracket.count_high + 1
        assert rep.n_ess is not None and rep.n_ess <= rep.bound

    def test_refuses_integer_flux(self):
        with pytest.raises(ValueError):
            embedded_upper_bound(circle_model(omega=1.0), 100.0)

    def test_refuses_zero_field(self, zero_field_model):
        with pytest.raises(ValueError, match="magnetic"):
            embedded_upper_bound(zero_field_model, 100.0)

    def test_refuses_small_lambda(self, ref_model):
        with pytest.raises(ValueError, match="lam"):
            embedded_upper_bound(ref_model, 0.5)

    def test_ordering_on_grid(self, ref_model):
        for lam in (100.0, 316.0, 1000.0):
            rep = embedded_upper_bound(ref_model, lam)
            assert rep.n_ess <= rep.bound

    def test_bound_tracks_weyl_within_r0(self, ref_model):
        for lam in (100.0, 1000.0):
            rep = embedded_upper_bound(ref_model, lam)
            assert abs(rep.bound - rep.leading) <= 2.0 * rep.r0

    def test_core_model_has_no_exact_lhs(self):
        cored = circle_model(core_volume=1.0)
        rep = embedded_upper_bound(cored, 50.0)
        assert rep.n_ess is None

    def test_demagnetize(self, ref_model):
        zero = demagnetize(ref_model)
        assert not zero.is_magnetic
        assert zero.cusps[0].a == ref_model.cusps[0].a

    def test_n3_torus_pipeline(self):
        x3 = TorusCrossSection((2.0 * math.pi, 2.0 * math.pi), (1.0, 0.5))
        model = ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x3, 1.0, 1.0),))
        rep = embedded_upper_bound(model, 80.0)
        assert rep.rho == 0.5
        assert rep.n_ess is not None and rep.n_ess <= rep.bound
        assert rep.r0 == pytest.approx(80.0 * math.log(80.0))


class TestScaledField:
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=2),
        omegas=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        tau=st.floats(0.0, 1.0, exclude_min=True),
        cutoff=st.floats(0.01, 200.0),
    )
    def test_scaled_model_has_the_tau_spectrum(self, lengths, omegas, tau, cutoff):
        # embedded_upper_bound counts scale_field(model, tau) at tau = 1 in
        # place of the model at tau: the two spectra must agree bit for bit
        x = TorusCrossSection(tuple(lengths), tuple(omegas[: len(lengths)]))
        model = ManifoldModel(len(lengths) + 1, CompactCoreSurrogate(), (CuspEnd(x, 1.0, 1.0),))
        scaled = scale_field(model, tau).cusps[0].cross_section
        assert np.array_equal(
            mu_spectrum(x, tau, cutoff).values, mu_spectrum(scaled, 1.0, cutoff).values
        )

    def test_floor_quadratic_across_three_decades(self, ref_model):
        x = ref_model.cusps[0].cross_section
        c2 = perturb_c2(x)
        for tau in np.geomspace(1e-3, 1e-1, 7):
            assert mu0(x, float(tau)) == pytest.approx(c2 * tau**2, rel=1e-12)

    def test_ground_channel_count_is_order_r0(self, ref_model):
        # fiber count on the mu_0(tau) channel stays O(r_0(lambda))
        x = ref_model.cusps[0].cross_section
        for lam in (100.0, 400.0, 1600.0):
            tau = lam**-0.5
            f = FiberPotential.from_cusp(2, 1.0, 1.0, mu0(x, tau))
            count = fiber_count(f, lam)
            assert count > 0
            assert count / r0_model(2, 1.0, lam) <= 1.0
