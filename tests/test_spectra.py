"""Spectrum: the closed form against the independent root finder."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcoulomb.errors import RootFindingError, SupercriticalCouplingError
from kgcoulomb.physcore import FINE_STRUCTURE_ALPHA, CoulombSystem
from kgcoulomb.spectra import (
    SpectrumLine,
    binding_residual,
    energy_closed_form,
    quantization_residual,
    solve_quantization,
)


class TestQuantizationResidual:
    def test_frozen_value(self):
        # 1/2 - 0.4*0.5/sqrt(0.75) + sqrt(1/4 - 0.16) + 0
        assert quantization_residual(0.4, 0.5, 0) == pytest.approx(
            0.5690598923241497, rel=1e-15)

    def test_zero_at_closed_form_energy(self):
        # the admissible residual scales with the local slope g/eps^3,
        # which amplifies the last ulp of eta at weak coupling
        for g in (0.01, 0.2, 0.45):
            for n in (0, 3):
                eta = energy_closed_form(g, n)
                slope = g / ((1.0 - eta) * (1.0 + eta)) ** 1.5
                assert abs(quantization_residual(g, eta, n)) < 20e-16 * slope + 1e-13

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.49), st.integers(0, 6))
    def test_strictly_decreasing_in_eta(self, g, n):
        etas = [0.1, 0.3, 0.5, 0.7, 0.9]
        vals = [quantization_residual(g, e, n) for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            quantization_residual(0.3, 0.0, 0)
        with pytest.raises(ValueError):
            quantization_residual(0.3, 1.0, 0)
        with pytest.raises(ValueError):
            quantization_residual(0.3, 0.5, -1)
        with pytest.raises(ValueError):
            quantization_residual(-0.1, 0.5, 0)


class TestEnergyClosedForm:
    def test_frozen_ground_state(self):
        # g = 0.4: mu = 0.3, N = 0.8, eta = 0.8/sqrt(0.8) = sqrt(0.8)
        assert energy_closed_form(0.4, 0) == pytest.approx(
            0.8944271909999159, rel=1e-15)
        assert energy_closed_form(0.4, 0) == pytest.approx(math.sqrt(0.8), rel=1e-15)

    def test_monotone_in_n(self):
        etas = [energy_closed_form(0.3, n) for n in range(8)]
        assert all(a < b for a, b in zip(etas, etas[1:]))
        assert all(0.0 < e < 1.0 for e in etas)

    def test_supercritical_raises(self):
        with pytest.raises(SupercriticalCouplingError):
            energy_closed_form(0.51, 0)

    def test_weak_coupling_balmer_limit(self):
        # binding 1 - eta approaches g^2 / (2 (n+1)^2) as g -> 0
        g = FINE_STRUCTURE_ALPHA
        for n in range(4):
            binding = 1.0 - energy_closed_form(g, n)
            balmer = g * g / (2.0 * (n + 1) ** 2)
            assert binding == pytest.approx(balmer, rel=1e-4)


class TestSolveQuantization:
    def test_matches_closed_form(self):
        for z in (1, 10, 50):
            g = CoulombSystem(z=z).g
            for n in range(6):
                line = solve_quantization(g, n, z=z)
                ref = energy_closed_form(g, n)
                assert abs(line.eta - ref) <= 1e-12 * ref

    def test_residual_reported(self):
        line = solve_quantization(0.3, 2)
        assert isinstance(line, SpectrumLine)
        assert abs(line.residual) < 1e-10
        assert line.residual == binding_residual(0.3, line.binding, 2)
        # eta = 1 - b carries one rounding; through it the residual in
        # eta agrees to that rounding times the slope g/eps^3
        assert line.binding == pytest.approx(1.0 - line.eta, rel=0, abs=2.0 ** -53)
        slope = 0.3 / ((1.0 - line.eta) * (1.0 + line.eta)) ** 1.5
        assert quantization_residual(0.3, line.eta, 2) == pytest.approx(
            line.residual, abs=4e-16 * slope)

    @pytest.mark.parametrize("n", [0, 1, 5, 50, 100, 162, 163, 200, 202, 500, 999, 1000])
    def test_hydrogen_binding_against_mpmath(self, n):
        # b = g^2 / (S (S + N)), eta = N / S, S = sqrt(N^2 + g^2), at 50
        # digits; below b ~ 1e-9 the rounding of eta near 1 would take
        # digits from b = 1 - eta, so the solver works in b itself
        g = FINE_STRUCTURE_ALPHA
        line = solve_quantization(g, n, z=1)
        with mpmath.workdps(50):
            gm = mpmath.mpf(g)
            big_n = n + mpmath.mpf(1) / 2 + mpmath.sqrt(mpmath.mpf(1) / 4 - gm * gm)
            big_s = mpmath.sqrt(big_n * big_n + gm * gm)
            binding = gm * gm / (big_s * (big_s + big_n))
            eta = big_n / big_s
            assert abs(line.binding - binding) <= 1e-12 * binding
            assert abs(line.eta - eta) <= 1e-12 * eta

    def test_charge_metadata_passthrough(self):
        assert solve_quantization(0.3, 0).z is None
        assert solve_quantization(0.3, 0, z=41).z == 41

    def test_supercritical_raises(self):
        with pytest.raises(SupercriticalCouplingError):
            solve_quantization(0.6, 0)

    def test_zero_coupling_has_no_root(self):
        # residual is then constant and positive: flagged as a bug, not
        # treated as eta -> 1
        with pytest.raises(RootFindingError):
            solve_quantization(0.0, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.02, 0.49), st.integers(0, 5))
    def test_solver_agrees_everywhere(self, g, n):
        line = solve_quantization(g, n)
        assert line.eta == pytest.approx(energy_closed_form(g, n), rel=1e-11)
