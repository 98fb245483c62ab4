import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from cuspspec import (
    EnumerationBudgetError,
    TorusCrossSection,
    cross_count,
    hormander_residual,
    mu0,
    mu_spectrum,
    perturb_c2,
    tau_quadratic_range,
)
from conftest import TWO_PI

CIRCLE_HALF = TorusCrossSection((TWO_PI,), (0.5,))
CIRCLE_FREE = TorusCrossSection((TWO_PI,), (0.0,))


def brute_spectrum(x, tau, cutoff, box=60):
    """Independent enumeration over a fixed large box."""
    dims = len(x.lengths)
    values = []
    for m in itertools.product(range(-box, box + 1), repeat=dims):
        v = sum(
            (TWO_PI * mk / lk + tau * wk) ** 2
            for mk, lk, wk in zip(m, x.lengths, x.magnetic)
        )
        if v < cutoff:
            values.append(v)
    return sorted(values)


class TestMuSpectrum:
    def test_half_flux_circle(self):
        values = mu_spectrum(CIRCLE_HALF, 1.0, 3.0).values
        assert values.tolist() == [0.25, 0.25, 2.25, 2.25]

    def test_free_circle(self):
        assert mu_spectrum(CIRCLE_FREE, 0.0, 2.0).values.tolist() == [0.0, 1.0, 1.0]

    def test_integer_flux_gauges_away(self):
        x = TorusCrossSection((TWO_PI,), (1.0,))
        assert mu_spectrum(x, 1.0, 2.0).values.tolist() == [0.0, 1.0, 1.0]

    def test_completeness_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            dims = int(rng.integers(1, 3))
            x = TorusCrossSection(
                tuple(rng.uniform(1.0, 8.0, dims)), tuple(rng.uniform(-2.0, 2.0, dims))
            )
            tau = float(rng.uniform(0.0, 1.5))
            cutoff = float(rng.uniform(0.5, 30.0))
            got = mu_spectrum(x, tau, cutoff).values
            expected = brute_spectrum(x, tau, cutoff)
            assert len(got) == len(expected)
            assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            mu_spectrum(CIRCLE_FREE, 0.0, 1.0e9, max_elements=1000)

    def test_budget_checked_before_allocating(self):
        # the box would be one 2,000,004-point axis (16 MB per array)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError, match="needs 2000004 points"):
                mu_spectrum(CIRCLE_HALF, 1.0, 1.0e12, max_elements=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite"):
            mu_spectrum(CIRCLE_HALF, 1.0, cutoff)

    def test_positive_bottom_with_flux(self):
        values = mu_spectrum(CIRCLE_HALF, 0.7, 5.0).values
        assert values[0] > 0


def product_spectrum(x, tau, cutoff):
    """Sorted mu_m(tau) < cutoff over a per-axis box found by itertools.product.

    The box is sized from |2 pi m/L| <= sqrt(cutoff) + |tau omega|, and each
    value is formed with the arithmetic of the closed form, axis by axis.
    """
    boxes = []
    for length, omega in zip(x.lengths, x.magnetic):
        reach = math.ceil((math.sqrt(cutoff) + abs(tau * omega)) * length / TWO_PI) + 1
        boxes.append(range(-reach, reach + 1))
    values = []
    for m in itertools.product(*boxes):
        v = 0.0
        for mk, lk, wk in zip(m, x.lengths, x.magnetic):
            d = TWO_PI * mk / lk + tau * wk
            v = v + d * d
        if v < cutoff:
            values.append(v)
    return sorted(values)


class TestEnumeration:
    TORI = {
        "circle-half": TorusCrossSection((TWO_PI,), (0.5,)),
        "circle-free": TorusCrossSection((TWO_PI,), (0.0,)),
        "circle-generic": TorusCrossSection((3.7,), (-1.3,)),
        "torus2": TorusCrossSection((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3)),
        "torus2-free": TorusCrossSection((TWO_PI, TWO_PI), (0.0, 0.0)),
        "torus3": TorusCrossSection((2.0, 3.1, 4.5), (0.4, -0.7, 1.1)),
        "torus3-free": TorusCrossSection((TWO_PI, TWO_PI, 2.5), (0.0, 0.0, 0.0)),
    }
    CUTOFF = {1: 60.0, 2: 30.0, 3: 12.0}

    @pytest.mark.parametrize("tau", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("name", sorted(TORI))
    def test_equals_product_reference(self, name, tau):
        x = self.TORI[name]
        cutoff = self.CUTOFF[x.dim]
        values = mu_spectrum(x, tau, cutoff).values
        expected = product_spectrum(x, tau, cutoff)
        assert len(expected) >= 5
        assert values.tolist() == expected
        assert values.dtype == np.float64
        assert not values.flags.writeable
        assert cross_count(x, tau, cutoff) == len(expected)

    def test_zero_field_ties_are_kept(self):
        values = mu_spectrum(self.TORI["torus2-free"], 0.37, 3.0).values
        assert values.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("name", sorted(TORI))
    def test_budget_error_exactly_below_box_size(self, name):
        x = self.TORI[name]
        cutoff = self.CUTOFF[x.dim]
        with pytest.raises(EnumerationBudgetError) as info:
            mu_spectrum(x, 0.37, cutoff, max_elements=0)
        match = re.fullmatch(r"lattice enumeration needs (\d+) points, budget is 0",
                             str(info.value))
        box = int(match.group(1))
        assert box >= len(product_spectrum(x, 0.37, cutoff))
        with pytest.raises(EnumerationBudgetError, match=f"budget is {box - 1}$"):
            mu_spectrum(x, 0.37, cutoff, max_elements=box - 1)
        with pytest.raises(EnumerationBudgetError):
            cross_count(x, 0.37, cutoff, max_elements=box - 1)
        assert mu_spectrum(x, 0.37, cutoff, max_elements=box).values.tolist() == (
            product_spectrum(x, 0.37, cutoff)
        )


class TestCrossCount:
    def test_examples(self):
        assert cross_count(CIRCLE_FREE, 0.0, 10.0) == 7
        assert cross_count(CIRCLE_FREE, 0.0, 0.0) == 0
        assert cross_count(CIRCLE_FREE, 0.0, 1.0) == 1  # m=+-1 excluded by strictness

    def test_matches_spectrum_length(self):
        for mu in (0.3, 1.0, 7.7, 26.0):
            assert cross_count(CIRCLE_HALF, 1.0, mu) == len(mu_spectrum(CIRCLE_HALF, 1.0, mu))

    def test_monotone_in_mu(self):
        counts = [cross_count(CIRCLE_HALF, 1.0, mu) for mu in np.linspace(0.0, 30.0, 80)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestGaugeSymmetries:
    def test_flux_periodicity_exact_on_circle(self):
        # L = 2 pi makes the flux quantum exactly 1.0, so the shifted lattice
        # reproduces the multiset bit for bit
        for omega in (0.5, 0.25, -0.75, 1.5):
            x = TorusCrossSection((TWO_PI,), (omega,))
            shifted = TorusCrossSection((TWO_PI,), (omega + 1.0,))
            a = mu_spectrum(x, 1.0, 40.0).values
            assert a.tolist() == mu_spectrum(shifted, 1.0, 40.0).values.tolist()

    def test_flux_periodicity_generic_lengths(self):
        # for generic L the shifted coefficient omega + 2 pi / L is itself
        # rounded on input, so equality holds to rounding noise
        rng = np.random.default_rng(11)
        for _ in range(8):
            length = float(rng.uniform(1.0, 7.0))
            omega = float(rng.uniform(-2.0, 2.0))
            x = TorusCrossSection((length,), (omega,))
            shifted = TorusCrossSection((length,), (omega + TWO_PI / length,))
            a = mu_spectrum(x, 1.0, 40.0).values
            b = mu_spectrum(shifted, 1.0, 40.0).values
            assert len(a) == len(b)
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_negation_symmetry(self):
        x = TorusCrossSection((3.0, 4.5), (0.4, 1.1))
        neg = TorusCrossSection((3.0, 4.5), (-0.4, -1.1))
        a = mu_spectrum(x, 1.0, 30.0).values
        assert a.tolist() == mu_spectrum(neg, 1.0, 30.0).values.tolist()


class TestHormander:
    def test_circle_residual_small(self):
        assert hormander_residual(CIRCLE_HALF, 1.0, 1.0e4, 64) <= 2.0

    def test_flux_quantum_shift_invariant(self):
        shifted = TorusCrossSection((TWO_PI,), (0.5 + 1.0,))  # 2 pi / L = 1
        a = hormander_residual(CIRCLE_HALF, 1.0, 500.0, 32)
        b = hormander_residual(shifted, 1.0, 500.0, 32)
        assert a == b

    def test_torus_residual_finite(self):
        x = TorusCrossSection((TWO_PI, 3.0), (0.5, 0.2))
        assert hormander_residual(x, 1.0, 400.0, 32) < 50.0


class TestPerturbation:
    def test_closed_forms(self):
        assert perturb_c2(CIRCLE_HALF) == 0.25
        assert perturb_c2(CIRCLE_FREE) == 0.0
        assert perturb_c2(TorusCrossSection((TWO_PI, TWO_PI), (1.0, 2.0))) == 5.0

    def test_finite_difference_limit_torus(self):
        x = TorusCrossSection((TWO_PI, TWO_PI), (1.0, 2.0))
        tau = 1e-4
        first = mu_spectrum(x, tau, 1.0).values[0]
        assert first / tau**2 == pytest.approx(5.0, abs=1e-6)

    def test_quadratic_law_below_crossing(self):
        tau0 = tau_quadratic_range(CIRCLE_HALF)
        assert tau0 == pytest.approx(0.5)
        for tau in np.geomspace(1e-4, tau0, 9):
            assert mu0(CIRCLE_HALF, float(tau)) / tau**2 == pytest.approx(0.25, abs=1e-12)

    def test_mu0_matches_spectrum(self):
        for tau in (0.05, 0.3, 1.0):
            assert mu0(CIRCLE_HALF, tau) == mu_spectrum(CIRCLE_HALF, tau, 5.0).values[0]
