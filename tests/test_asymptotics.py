"""The basis march, the exponents measured from it, and the log-log fit."""

import ast
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import closed_form
from kgcoulomb import asymptotics, fuchsian
from kgcoulomb.asymptotics import Trajectory, fit_exponent, integrate
from kgcoulomb.errors import ConvergenceError, OscillationError, OutOfDomainError
from kgcoulomb.fuchsian import (INFINITY, RationalCoeffODE, evaluate_with_derivatives,
                                frobenius_series, indicial_exponents)
from kgcoulomb.kgmodels import build_deformed_zero_energy, build_ordinary_kg, to_heun
from kgcoulomb.physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams
from kgcoulomb.specialfn import heun_local, hypergeometric_ode, psi_ordinary
from kgcoulomb.spectra import energy_closed_form

# psi'' - psi = 0: the solution through (e, e) at u = 1 is exp(u)
_EXP_ODE = RationalCoeffODE((0.0,), (1.0,), (-1.0,), (1.0,), (), label="exp")


def _psi(march, u0, psi0, dpsi0, grid):
    """The solution through (psi0, dpsi0) at u0, read at each grid point
    through the first row of the march's transfer matrix from u0."""
    values = []
    for u in grid:
        (a, b, _, _), _ = march.matrix(u0, u)
        values.append(a * psi0 + b * u0 * dpsi0)
    return values


class TestIntegrate:
    def test_exponential_solution(self):
        # exp(u) through (e, e) at u = 1
        march = integrate(_EXP_ODE, 1.0, 2.0, tol=1e-12)
        grid = np.linspace(1.0, 2.0, 400)
        values = _psi(march, 1.0, math.e, math.e, grid)
        assert values[-1] == pytest.approx(math.exp(2.0), rel=1e-10)
        for u, v in zip(grid, values):
            assert v == pytest.approx(math.exp(u), rel=1e-10)

    def test_tolerance_controls_error(self):
        coarse = integrate(_EXP_ODE, 1.0, 2.0, tol=1e-5)
        fine = integrate(_EXP_ODE, 1.0, 2.0, tol=1e-12)
        err_coarse = abs(_psi(coarse, 1.0, math.e, math.e, [2.0])[0] - math.exp(2.0))
        err_fine = abs(_psi(fine, 1.0, math.e, math.e, [2.0])[0] - math.exp(2.0))
        assert err_fine < err_coarse

    def test_closed_form_seeded_continuation(self):
        # the exact solution at u = 5, carried to u = 50 by the transfer
        # matrix; the closed form must be reproduced pointwise
        g = FINE_STRUCTURE_ALPHA
        s = CoulombSystem(g=g, eta=energy_closed_form(g, 0))
        psi0, dpsi0 = closed_form.psi_and_derivative(s, 5.0)
        march = integrate(build_ordinary_kg(s), 5.0, 50.0, tol=1e-12)
        for u in (27.5, 50.0):
            (value,) = _psi(march, 5.0, psi0, dpsi0, [u])
            ref = psi_ordinary(s, u)
            assert abs(value - ref) <= 1e-6 * abs(ref)

    def test_singular_point_on_path_rejected(self):
        ode = hypergeometric_ode(0.7, 1.3, 1.9)
        with pytest.raises(OutOfDomainError):
            integrate(ode, 0.5, 2.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 1.0, 1.0)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 1.0, 2.0, tol=0.0)


class TestTaylorContinuation:
    """integrate against routes that share none of its continuation code,
    and the hop count and residual its marches report."""

    # largest relative error over the grid, no looser than what an
    # adaptive Runge-Kutta scheme (DOP853, rtol = tol) reaches here
    _BOUNDS = {(1e-10, "forward"): 1e-8, (1e-10, "backward"): 2e-9,
               (1e-12, "forward"): 2e-9, (1e-12, "backward"): 1e-11}

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("z,n", [(1, 0), (40, 2), (68, 1)])
    def test_closed_form_at_every_point(self, z, n, tol, direction):
        g = z * FINE_STRUCTURE_ALPHA
        s = CoulombSystem(g=g, eta=energy_closed_form(g, n))
        start, end = (5.0, 1e4) if direction == "forward" else (1e4, 5.0)
        psi0, dpsi0 = closed_form.psi_and_derivative(s, start)
        march = integrate(build_ordinary_kg(s), start, end, tol=tol)
        grid = np.geomspace(start, end, 400)
        ref = np.array([psi_ordinary(s, u) for u in grid])
        values = np.array(_psi(march, start, psi0, dpsi0, grid))
        worst = float(np.max(np.abs(values - ref) / np.abs(ref)))
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
        march = integrate(ode, u_seed, 100.0)
        grid = np.geomspace(u_seed, 100.0, 400)
        values = np.array(_psi(march, u_seed, w, dw, grid))
        hp, vmap = to_heun(g, dp)
        xis = [vmap.forward(u) for u in grid]
        psi = np.array([(1.0 - xi) * h for xi, h in zip(xis, heun_local(hp, xis))])
        direct = values * (psi[0] / values[0])
        assert np.max(np.abs(direct - psi) / np.abs(psi)) <= 1e-9

    def test_hops_grow_logarithmically(self):
        s = CoulombSystem(g=0.3, eta=0.5)
        ode = build_ordinary_kg(s)
        near = integrate(ode, 1.0, 1e4)
        far = integrate(ode, 1.0, 1e12)
        assert 10 < near.hops < 40
        assert far.hops < 3 * near.hops
        # the solution through (1, 0) at u = 1 relaxes onto the slow
        # branch, decays by 24 decades and stays a clean power law
        grid = [float(u) for u in np.geomspace(1e6, 1e12, 200)]
        values = _psi(far, 1.0, 1.0, 0.0, grid)
        assert abs(values[-1]) < 1e-20
        assert fit_exponent(Trajectory(grid, values)).exponent == pytest.approx(-2.1, rel=1e-3)

    def test_residual_follows_tol(self):
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        coarse = integrate(ode, 1.0, 1e4, tol=1e-6)
        fine = integrate(ode, 1.0, 1e4, tol=1e-12)
        assert 0.0 < fine.max_residual < coarse.max_residual
        assert fine.max_residual <= 1e-9

    def test_exp_residual_and_hops(self):
        march = integrate(_EXP_ODE, 1.0, 2.0, tol=1e-12)
        assert march.hops == 3  # radius capped at the interval: hops to 1.4, 1.8
        assert march.max_residual <= 1e-12


class TestTrajectoryValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(grid=[1.0, 1.0, 2.0], values=[1 + 0j] * 3)

    def test_samples_must_be_finite(self):
        with pytest.raises(ValueError):
            Trajectory(grid=[1.0, 2.0, 3.0], values=[1 + 0j, complex(math.inf), 1 + 0j])


def _trajectory(u, vals):
    return Trajectory(grid=[float(x) for x in u], values=[complex(v) for v in vals])


def _power_law_trajectory(exponent, lo=10.0, hi=1e4, n=200):
    u = np.geomspace(lo, hi, n)
    return _trajectory(u, u**exponent)


class TestFitExponent:
    def test_recovers_synthetic_power_law(self):
        fit = fit_exponent(_power_law_trajectory(-4.0))
        assert fit.exponent == pytest.approx(-4.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_beat_raises(self):
        # |psi| = u^-5/2 (1 + cos/2) never vanishes but is no power law
        u = np.geomspace(10, 1e5, 300)
        traj = _trajectory(u, u**-2.5 * (1 + 0.5 * np.cos(1.5 * np.log(u))))
        with pytest.raises(OscillationError):
            fit_exponent(traj)

    @pytest.mark.parametrize("amplitude", [0.015, 0.05])
    def test_swing_is_measured_in_natural_log_units(self, amplitude):
        # log|psi| = -2 log u + amplitude sin(2 log u): a real slope, and a
        # detrended residual that swings by about the amplitude through
        # seven zero crossings; only a swing above 0.02 in natural-log units
        # is a beat, and the message reports numpy's largest residual
        u = np.geomspace(10, 1e6, 400)
        psi = u**-2.0 * np.exp(amplitude * np.sin(2.0 * np.log(u)))
        traj = _trajectory(u, psi)
        x, y = np.log(u), np.log(psi)
        swing = np.max(np.abs(y - np.polyval(np.polyfit(x, y, 1), x)))
        if swing < 0.02:
            assert fit_exponent(traj).exponent == pytest.approx(-2.0, abs=1e-3)
        else:
            with pytest.raises(OscillationError, match=f"swing {swing:.3g},"):
                fit_exponent(traj)

    def test_interference_nodes_raise(self):
        u = np.geomspace(10, 1e4, 200)
        traj = _trajectory(u, u**-2.5 * np.cos(np.log(u)))
        with pytest.raises(OscillationError):
            fit_exponent(traj)

    def test_matches_polyfit_reference(self):
        # slope and standard error of a straight line through log|psi|
        # against log u, by numpy's least squares; a 1/u correction keeps
        # the residuals from vanishing
        rng = random.Random(11)
        for _ in range(20):
            lo = 10.0 ** rng.uniform(0.0, 3.0)
            hi = lo * 10.0 ** rng.uniform(1.0, 4.0)
            exponent, bend = rng.uniform(-6.0, -1.0), rng.uniform(-2.0, 2.0)
            u = np.geomspace(lo, hi, rng.randint(50, 400))
            traj = _trajectory(u, u**exponent * (1.0 + bend / u) * np.exp(0.3j))
            fit = fit_exponent(traj)
            x, y = np.log(u), np.log(np.abs(u**exponent * (1.0 + bend / u)))
            (slope, intercept), ssr = np.polyfit(x, y, 1, full=True)[:2]
            stderr = math.sqrt(ssr[0] / (len(x) - 2) / np.sum((x - x.mean()) ** 2))
            assert fit.exponent == pytest.approx(slope, rel=1e-12, abs=1e-12)
            assert fit.stderr == pytest.approx(stderr, rel=1e-6, abs=1e-15)

    def test_window_with_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="fewer than 8 samples"):
            fit_exponent(_power_law_trajectory(-3.0, n=7))
        assert fit_exponent(_power_law_trajectory(-3.0, n=8)).exponent == pytest.approx(-3.0)


def _abel(ode, z0, z1):
    """det of the transfer from z0 to z1 in the basis (w, u w') by Abel's
    identity: (z1/z0) W(z1)/W(z0), W = prod (z - r)^(-a_r) with a_r the
    residue of p1 at its simple pole r (p1 has no polynomial part, since
    infinity is a regular singular point)."""
    assert len(ode.p1_num) < len(ode.p1_den)
    out = z1 / z0
    for r, m1, _ in ode.points:
        assert m1 <= 1
        if m1:
            a_r = (fuchsian._horner(ode.p1_num, r)
                   / fuchsian._horner(fuchsian._polyder(ode.p1_den), r))
            out *= ((z1 - r) / (z0 - r)) ** (-a_r)
    return out


def _hop_dets(march):
    """(z0, z1, det) of every hop's transfer to the next centre."""
    centres = [pair[0].expansion_point for pair in march._chain]
    return [(z0, z1, march._local(k, z1)[1])
            for k, (z0, z1) in enumerate(zip(centres, centres[1:]))]


class TestTransfer:
    def test_closed_form_transfer(self):
        # w'' = w: w(v) = w(u) cosh(v - u) + w'(u) sinh(v - u), so in the
        # basis (w, u w') the transfer is [[ch, sh/u], [v sh, v ch/u]]
        # (v < u backward), on a march in either direction
        for start, end, pairs in (
                (1.0, 9.0, ((1.0, 9.0), (1.5, 4.0), (2.0, 2.3), (3.0, 3.0))),
                (9.0, 1.0, ((9.0, 1.0), (8.0, 2.5), (4.0, 3.7), (3.0, 3.0)))):
            march = integrate(_EXP_ODE, start, end, tol=1e-12)
            assert march.hops > 1
            for u, v in pairs:
                (a, b, c, d), det = march.matrix(u, v)
                ch, sh = math.cosh(v - u), math.sinh(v - u)
                assert [a, b, c, d] == pytest.approx([ch, sh / u, v * sh, v * ch / u],
                                                     rel=1e-11)
                assert det == pytest.approx(v / u, rel=1e-11)

    def test_pieces_multiply(self):
        ode = build_ordinary_kg(CoulombSystem(0.6, 0.5))
        march = integrate(ode, 100.0, 1e4, tol=1e-10)
        (a, b, c, d), det = march.matrix(100.0, 1e4)
        first, det1 = march.matrix(100.0, 1e3)
        second, det2 = march.matrix(1e3, 1e4)
        whole = asymptotics._matmul(second, first)
        assert [a, b, c, d] == pytest.approx(list(whole), rel=1e-9)
        assert det == pytest.approx(det1 * det2, rel=1e-12)

    def test_basis_march_refuses_u0_zero(self):
        # the basis (w, u w') degenerates at u = 0
        with pytest.raises(ValueError, match="away from u = 0"):
            integrate(_EXP_ODE, 0.0, 1.0)

    @pytest.mark.parametrize("abc", [(0.3, 0.7, 1.5), (1.2 + 0.5j, -0.4, 0.35)])
    @pytest.mark.parametrize("path", [(0.05, 0.9), (1.5, 60.0), (-0.1, -40.0)])
    def test_abel_per_hop_on_the_hypergeometric_equation(self, abc, path):
        # W = z^(-c) (1 - z)^(c - a - b - 1) in closed form
        a, b, c = abc
        tol = 1e-10
        march = integrate(hypergeometric_ode(a, b, c), *path, tol=tol)
        assert march.hops > 3
        for z0, z1, det in _hop_dets(march):
            wronskian = (z1 / z0) ** (-c) * ((1 - z1) / (1 - z0)) ** (c - a - b - 1)
            assert abs(det / ((z1 / z0) * wronskian) - 1) <= 100 * tol

    def test_abel_per_hop_on_the_exponent_fit_chains(self):
        # every chain the exponent-fit draws of seeds 1-3 build; Abel's
        # identity fixes each hop's determinant, independently of the march
        import importlib.util
        import sys

        from kgcoulomb import cli

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
        worst, chains = 0.0, 0
        for seed in (1, 2, 3):
            for cmd in workloads.commands("exponent-fit", seed, 15):
                cfg = cli._merge(cli._build_parser().parse_args(list(cmd.argv)))
                ode, _ = cli._exponent_ode(cfg, cli._coupling(cfg), cfg.get("eta"))
                lo, hi = cli._parse_window(cfg["window"])
                ratio = min(math.sqrt(hi / lo), asymptotics._RATIO_CAP)
                march = integrate(ode, hi / ratio ** 2, hi, tol=cfg["tol"])
                for z0, z1, det in _hop_dets(march):
                    worst = max(worst, abs(det / _abel(ode, z0, z1) - 1) / cfg["tol"])
                chains += 1
        assert chains == 432
        assert worst <= 100


class TestTransferExponents:
    @pytest.mark.parametrize("g", [0.3, 0.49, 0.6, 2.0, 5.0])
    def test_ordinary_pair(self, g):
        ode = build_ordinary_kg(CoulombSystem(g, 0.5))
        exact = indicial_exponents(ode, INFINITY)
        got = asymptotics.paired(exact, asymptotics.transfer_exponents(ode, (1e2, 1e4)))
        assert [abs(x - e) / abs(e) for x, e in zip(got, exact)] == pytest.approx([0, 0],
                                                                                  abs=1e-4)

    @pytest.mark.parametrize("ode", [
        build_ordinary_kg(CoulombSystem(0.3, 0.5)),
        build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02)),
    ], ids=["ordinary", "deformed"])
    def test_default_window_marches_four_hops(self, monkeypatch, ode):
        # pieces of ratio 2 march [2.5e3, 1e4]; ratio 10 marched [1e2, 1e4] in 14
        marches = []

        def recorded(*args, **kwargs):
            marches.append(integrate(*args, **kwargs))
            return marches[-1]

        monkeypatch.setattr(asymptotics, "integrate", recorded)
        asymptotics.transfer_exponents(ode, (1e2, 1e4))
        assert [march.hops <= 4 for march in marches] == [True]

    @pytest.mark.parametrize("ode", [
        build_ordinary_kg(CoulombSystem(0.3, 0.5)),
        build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02)),
    ], ids=["ordinary", "deformed"])
    def test_each_transfer_point_is_read_once(self, monkeypatch, ode):
        # the 3 hand-overs and the piece ends hi/4, hi/2, hi/1.01 and hi,
        # both columns each: 14 reads, w'' only at the first hand-over and
        # at hi, where the defects are checked
        counts, marches, sums = Counter(), [], fuchsian._series_sums

        def counted(coeffs, x, scale=1.0, derivatives=2):
            counts[derivatives] += 1
            return sums(coeffs, x, scale, derivatives)

        def recorded(*args, **kwargs):
            marches.append(integrate(*args, **kwargs))
            return marches[-1]

        monkeypatch.setattr(fuchsian, "_series_sums", counted)
        monkeypatch.setattr(asymptotics, "integrate", recorded)
        asymptotics.transfer_exponents(ode, (1e2, 1e4))
        assert counts == {1: 10, 2: 4}
        (march,) = marches
        assert len(march._reads) == 7
        # each kept matrix is bit for bit one made from fresh reads
        for (k, z), kept in march._reads.items():
            first, second = march._chain[k]
            (w1, dw1, _), (w2, dw2, _) = (evaluate_with_derivatives(sol, z)
                                          for sol in (first, second))
            c = first.radius / first.expansion_point
            m = (w1, c * w2, z * dw1, c * z * dw2)
            assert kept == (m, m[0] * m[3] - m[1] * m[2])

    def test_window_too_narrow_is_refused(self):
        ode = build_ordinary_kg(CoulombSystem(0.3, 0.5))
        with pytest.raises(ValueError, match="too narrow"):
            asymptotics.transfer_exponents(ode, (100.0, 101.0))

    def test_unresolved_series_are_refused(self):
        # the pair turns by g ln(1.4) per hop; at g 1000 the hop's series
        # cancel by far more than double precision holds
        ode = build_ordinary_kg(CoulombSystem(1000.0, 0.5))
        with pytest.raises(ConvergenceError, match="do not settle"):
            asymptotics.transfer_exponents(ode, (1e2, 1e4))

    def test_paired_picks_the_nearer_order(self):
        assert asymptotics.paired((1.0, 2.0), (2.1, 0.9)) == (0.9, 2.1)
        assert asymptotics.paired((1.0, 2.0), (0.9, 2.1)) == (0.9, 2.1)


def test_imports_no_model_layer():
    # integration and fitting read only fuchsian equations and raise only
    # package errors: no model builder, no physical parameters
    imported = set()
    for node in ast.walk(ast.parse(Path(asymptotics.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            imported.update([dots + node.module] if node.module
                            else (dots + alias.name for alias in node.names))
    assert {m for m in imported if m.startswith((".", "kgcoulomb"))} == {".fuchsian", ".errors"}
