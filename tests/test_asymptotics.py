"""Integration, tail-exponent fitting, and the regularization verdicts."""

import math

import numpy as np
import pytest

from kgcoulomb.asymptotics import (
    RegularizationVerdict,
    Trajectory,
    classify,
    dominant_branch,
    fit_exponent,
    integrate,
    subdominant_branch,
)
from kgcoulomb.errors import OscillationError, OutOfDomainError
from kgcoulomb.fuchsian import RationalCoeffODE, evaluate_with_derivatives, frobenius_series
from kgcoulomb.kgmodels import build_deformed_zero_energy, build_ordinary_kg, to_heun
from kgcoulomb.physcore import CoulombSystem, DeformationParams
from kgcoulomb.specialfn import heun_local, hypergeometric_ode, psi_ordinary, psi_ordinary_with_derivative
from kgcoulomb.spectra import energy_closed_form

# psi'' - psi = 0: the solution through (1, 1) at u = 0 is exp(u)
_EXP_ODE = RationalCoeffODE((0.0,), (1.0,), (-1.0,), (1.0,), (), label="exp")


class TestIntegrate:
    def test_exponential_solution(self):
        traj = integrate(_EXP_ODE, 0.0, 1.0 + 0j, 1.0 + 0j, 1.0, tol=1e-12)
        assert traj.values[-1] == pytest.approx(math.e, rel=1e-10)
        assert traj.derivatives[-1] == pytest.approx(math.e, rel=1e-10)

    def test_tolerance_controls_error(self):
        coarse = integrate(_EXP_ODE, 0.0, 1.0 + 0j, 1.0 + 0j, 1.0, tol=1e-5)
        fine = integrate(_EXP_ODE, 0.0, 1.0 + 0j, 1.0 + 0j, 1.0, tol=1e-12)
        err_coarse = abs(coarse.values[-1] - math.e)
        err_fine = abs(fine.values[-1] - math.e)
        assert err_fine < err_coarse

    def test_backward_grid_still_ascending(self):
        traj = integrate(_EXP_ODE, 1.0, 1.0 + 0j, 1.0 + 0j, 0.0)
        assert traj.grid[0] < traj.grid[-1]

    def test_closed_form_seeded_continuation(self):
        # seed the ordinary equation with the exact solution at u = 5 and
        # ride it to u = 50; the closed form must be reproduced pointwise
        g = CoulombSystem(z=1).g
        s = CoulombSystem(z=1, eta=energy_closed_form(g, 0))
        psi0, dpsi0 = psi_ordinary_with_derivative(s, 5.0)
        traj = integrate(build_ordinary_kg(s), 5.0, psi0, dpsi0, 50.0, tol=1e-12)
        for idx in (len(traj.grid) // 2, -1):
            u = float(traj.grid[idx])
            ref = psi_ordinary(s, u)
            assert abs(traj.values[idx] - ref) <= 1e-6 * abs(ref)

    def test_singular_point_on_path_rejected(self):
        ode = hypergeometric_ode(0.7, 1.3, 1.9)
        with pytest.raises(OutOfDomainError):
            integrate(ode, 0.5, 1.0 + 0j, 0j, 2.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 1.0, 1.0 + 0j, 0j, 1.0)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 0.0, 1.0 + 0j, 0j, 1.0, tol=0.0)


class TestTaylorContinuation:
    """integrate against routes that share none of its continuation code,
    and the hop count and residual its trajectories report."""

    # largest relative error over the grid, no looser than what an
    # adaptive Runge-Kutta scheme (DOP853, rtol = tol) reaches here
    _BOUNDS = {(1e-10, "forward"): 1e-8, (1e-10, "backward"): 2e-9,
               (1e-12, "forward"): 2e-9, (1e-12, "backward"): 1e-11}

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("z,n", [(1, 0), (40, 2), (68, 1)])
    def test_closed_form_at_every_point(self, z, n, tol, direction):
        s = CoulombSystem(z=z, eta=energy_closed_form(CoulombSystem(z=z).g, n))
        start, end = (5.0, 1e4) if direction == "forward" else (1e4, 5.0)
        psi0, dpsi0 = psi_ordinary_with_derivative(s, start)
        traj = integrate(build_ordinary_kg(s), start, psi0, dpsi0, end, tol=tol)
        ref = np.array([psi_ordinary(s, float(u)) for u in traj.grid])
        worst = float(np.max(np.abs(traj.values - ref) / np.abs(ref)))
        assert worst <= self._BOUNDS[tol, direction]

    @pytest.mark.parametrize("g,theta,theta_prime", [(0.2, 0.05, 0.02), (0.7, 0.1, 0.03)])
    def test_matches_marched_heun_route(self, g, theta, theta_prime):
        # psi = (1 - xi) H(xi) from the Heun reduction against direct
        # continuation of the u-equation, seeded from its regular
        # Frobenius solution at u = 0 and scaled to agree at the seed
        dp = DeformationParams(theta, theta_prime)
        ode = build_deformed_zero_energy(g, dp)
        series = frobenius_series(ode, 0, 0)
        u_seed = 0.25 * series.radius
        w, dw, _ = evaluate_with_derivatives(series, u_seed)
        traj = integrate(ode, u_seed, w, dw, 100.0)
        hp, vmap = to_heun(g, dp)
        xis = [vmap.forward(float(u)) for u in traj.grid]
        psi = np.array([(1.0 - xi) * h for xi, h in zip(xis, heun_local(hp, xis))])
        direct = traj.values * (psi[0] / traj.values[0])
        assert len(psi) == 400
        assert np.max(np.abs(direct - psi) / np.abs(psi)) <= 1e-9

    def test_hops_grow_logarithmically(self):
        s = CoulombSystem(z=1, alpha=0.3, eta=0.5)
        ode = build_ordinary_kg(s)
        near = integrate(ode, 1.0, 1.0 + 0j, 0j, 1e4)
        far = integrate(ode, 1.0, 1.0 + 0j, 0j, 1e12)
        assert 10 < near.hops < 40
        assert far.hops < 3 * near.hops
        # the slow branch decays by 24 decades and stays a clean power law
        assert abs(far.values[-1]) < 1e-20
        assert fit_exponent(far, (1e6, 1e12)).exponent == pytest.approx(-2.1, rel=1e-3)

    def test_residual_follows_tol(self):
        ode = build_ordinary_kg(CoulombSystem(z=1, alpha=0.3, eta=0.5))
        coarse = integrate(ode, 1.0, 1.0 + 0j, 0j, 1e4, tol=1e-6)
        fine = integrate(ode, 1.0, 1.0 + 0j, 0j, 1e4, tol=1e-12)
        assert 0.0 < fine.max_residual < coarse.max_residual
        assert fine.max_residual <= 1e-9

    def test_exp_residual_and_hops(self):
        traj = integrate(_EXP_ODE, 0.0, 1.0 + 0j, 1.0 + 0j, 1.0, tol=1e-12)
        assert traj.hops == 3  # radius capped at the interval: hops to 0.4, 0.8
        assert traj.max_residual <= 1e-12


class TestTrajectoryValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(grid=np.array([1.0, 1.0, 2.0]),
                       values=np.ones(3, dtype=complex),
                       derivatives=np.zeros(3, dtype=complex), ode_id="x")

    def test_samples_must_be_finite(self):
        with pytest.raises(ValueError):
            Trajectory(grid=np.array([1.0, 2.0, 3.0]),
                       values=np.array([1.0, np.inf, 1.0], dtype=complex),
                       derivatives=np.zeros(3, dtype=complex), ode_id="x")


def _power_law_trajectory(exponent, lo=10.0, hi=1e4, n=200):
    u = np.geomspace(lo, hi, n)
    vals = u**exponent
    derivs = exponent * u ** (exponent - 1)
    return Trajectory(grid=u, values=vals.astype(complex),
                      derivatives=derivs.astype(complex), ode_id="synthetic")


class TestFitExponent:
    def test_recovers_synthetic_power_law(self):
        fit = fit_exponent(_power_law_trajectory(-4.0), (10.0, 1e4))
        assert fit.exponent == pytest.approx(-4.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_beat_raises(self):
        # |psi| = u^-5/2 (1 + cos/2) never vanishes but is no power law
        u = np.geomspace(10, 1e5, 300)
        vals = u**-2.5 * (1 + 0.5 * np.cos(1.5 * np.log(u)))
        traj = Trajectory(grid=u, values=vals.astype(complex),
                          derivatives=np.zeros_like(vals, dtype=complex),
                          ode_id="beat")
        with pytest.raises(OscillationError):
            fit_exponent(traj, (10.0, 1e5))

    def test_interference_nodes_raise(self):
        u = np.geomspace(10, 1e4, 200)
        vals = u**-2.5 * np.cos(np.log(u))
        traj = Trajectory(grid=u, values=vals.astype(complex),
                          derivatives=np.zeros_like(vals, dtype=complex),
                          ode_id="nodes")
        with pytest.raises(OscillationError):
            fit_exponent(traj, (10.0, 1e4))

    def test_window_outside_grid_rejected(self):
        traj = _power_law_trajectory(-3.0)
        with pytest.raises(ValueError):
            fit_exponent(traj, (1.0, 1e4))
        with pytest.raises(ValueError):
            fit_exponent(traj, (100.0, 50.0))

    def test_window_with_too_few_samples_rejected(self):
        traj = _power_law_trajectory(-3.0, n=200)
        with pytest.raises(ValueError):
            fit_exponent(traj, (10.0, 10.5))


class TestBranches:
    _WINDOW = (1e2, 1e4)

    def test_deformed_pair(self):
        ode = build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.0))
        dom = fit_exponent(dominant_branch(ode, self._WINDOW), self._WINDOW)
        sub = fit_exponent(subdominant_branch(ode, self._WINDOW), self._WINDOW)
        assert dom.exponent == pytest.approx(-5.0, rel=0.01)
        assert sub.exponent == pytest.approx(-2.0, rel=0.01)

    def test_ordinary_subcritical_pair(self):
        s = CoulombSystem(z=1, alpha=0.3, eta=0.5)
        ode = build_ordinary_kg(s)
        dom = fit_exponent(dominant_branch(ode, self._WINDOW), self._WINDOW)
        sub = fit_exponent(subdominant_branch(ode, self._WINDOW), self._WINDOW)
        assert dom.exponent == pytest.approx(-2.9, rel=0.01)
        assert sub.exponent == pytest.approx(-2.1, rel=0.01)

    def test_supercritical_tail_is_not_a_power_law(self):
        ode = build_ordinary_kg(CoulombSystem(z=100, eta=0.5))
        traj = subdominant_branch(ode, (10.0, 1e5))
        with pytest.raises(OscillationError):
            fit_exponent(traj, (10.0, 1e5))

    def test_seed_inside_window_rejected(self):
        ode = build_ordinary_kg(CoulombSystem(z=1, alpha=0.3, eta=0.5))
        with pytest.raises(ValueError):
            subdominant_branch(ode, self._WINDOW, u_seed=200.0)


class TestClassify:
    def test_subcritical_verdict(self):
        v = classify(0.3)
        assert isinstance(v, RegularizationVerdict)
        assert v.regime == "ordinary-subcritical"
        assert v.conclusion == "unique-selection"
        assert v.z_dependent is True
        assert v.dominant_exponent.real == pytest.approx(-2.9, abs=1e-12)

    def test_supercritical_verdict(self):
        v = classify(0.6)
        assert v.regime == "ordinary-supercritical"
        assert v.conclusion == "phase-ambiguous"
        assert v.dominant_exponent.imag != 0.0
        assert v.dominant_exponent.real == pytest.approx(-2.5, abs=1e-12)

    def test_deformed_verdict(self):
        v = classify(0.6, DeformationParams(0.05, 0.0))
        assert v.regime == "deformed"
        assert v.conclusion == "regularized"
        assert v.z_dependent is False
        assert v.dominant_exponent.imag == 0.0
        # same exponents whatever the coupling
        w = classify(1.0, DeformationParams(0.05, 0.0))
        assert (v.dominant_exponent, v.subdominant_exponent) == \
            (w.dominant_exponent, w.subdominant_exponent)
