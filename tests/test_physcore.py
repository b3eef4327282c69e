import math

import pytest
from hypothesis import given, strategies as st

from kgcoulomb.physcore import (
    FINE_STRUCTURE_ALPHA,
    CoulombSystem,
    DeformationParams,
    minimal_length,
    mu_of_coupling,
)


def test_fine_structure_value():
    assert FINE_STRUCTURE_ALPHA == pytest.approx(1.0 / 137.035999, rel=1e-15)


class TestMuOfCoupling:
    def test_free_limit(self):
        assert mu_of_coupling(0.0) == 0.5

    def test_boundary(self):
        assert mu_of_coupling(0.5) == 0.0

    def test_pythagorean_point(self):
        # 3-4-5 triangle: g = 0.3 gives mu = 0.4 exactly
        assert mu_of_coupling(0.3).real == pytest.approx(0.4, abs=1e-16)
        assert mu_of_coupling(0.3).imag == 0.0

    def test_heaviest_subcritical_element(self):
        g = 68 * FINE_STRUCTURE_ALPHA
        assert mu_of_coupling(g).real == pytest.approx(0.06136559618912028, rel=1e-14)

    def test_supercritical_is_imaginary(self):
        mu = mu_of_coupling(0.7)
        assert mu.real == 0.0
        assert mu.imag == pytest.approx(math.sqrt(0.49 - 0.25), rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_circle_identity(self, g):
        mu = mu_of_coupling(g)
        assert abs(mu * mu + g * g - 0.25) < 1e-12


class TestCriticalZ:
    def test_default_alpha(self):
        # Z = 68 is the heaviest charge whose mu = sqrt(1/4 - (Z alpha)^2)
        # is real; from Z = 69 on it is imaginary (the paper's Z > 68)
        below, above = (CoulombSystem(g=z * FINE_STRUCTURE_ALPHA) for z in (68, 69))
        assert below.g < 0.5 and below.mu.imag == 0.0
        assert above.g > 0.5 and above.mu.real == 0.0


class TestDeformationParams:
    def test_total_and_ratios(self):
        dp = DeformationParams(0.02, 0.06)
        assert dp.total == pytest.approx(0.08)
        assert dp.omega1 == pytest.approx(0.5)  # 2 theta / total
        assert dp.omega2 == pytest.approx(0.04)  # total / 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DeformationParams(-0.01, 0.0)
        with pytest.raises(ValueError):
            DeformationParams(0.0, -1e-9)

    def test_frozen(self):
        dp = DeformationParams(0.01, 0.02)
        with pytest.raises(AttributeError):
            dp.theta = 0.5
        with pytest.raises(AttributeError):
            dp.extra = 0.5
        assert (dp.theta, dp.theta_prime) == (0.01, 0.02)


class TestMinimalLength:
    def test_vanishes_without_deformation(self):
        assert minimal_length(DeformationParams(0.0, 0.0)) == 0.0

    def test_three_dimensional_value(self):
        assert minimal_length(DeformationParams(1.0, 2.0)) == pytest.approx(
            math.sqrt(5.0), rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_theta(self, a, b):
        lo = minimal_length(DeformationParams(a, b))
        hi = minimal_length(DeformationParams(a + 0.5, b))
        assert hi >= lo


class TestCoulombSystem:
    def test_derived_quantities(self):
        s = CoulombSystem(g=10 * 0.03, eta=0.6)
        assert s.g == pytest.approx(0.3)
        assert s.k == pytest.approx(0.09)
        assert s.eps_tilde == pytest.approx(0.8, rel=1e-15)
        assert s.mu.real == pytest.approx(0.4)
        assert s.omega_tilde == pytest.approx(0.18)
        assert s.w == pytest.approx(0.18 / 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoulombSystem(g=0.0)
        with pytest.raises(ValueError):
            CoulombSystem(g=-0.1)
        with pytest.raises(ValueError):
            CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=0.0)
        with pytest.raises(ValueError):
            CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=1.2)

    def test_threshold_w_undefined(self):
        s = CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=1.0)
        with pytest.raises(ValueError):
            s.w

    @given(st.integers(min_value=1, max_value=137),
           st.floats(min_value=0.05, max_value=0.95))
    def test_eps_eta_circle(self, z, eta):
        s = CoulombSystem(g=z * FINE_STRUCTURE_ALPHA, eta=eta)
        assert s.eps_tilde ** 2 + eta ** 2 == pytest.approx(1.0, abs=1e-12)
