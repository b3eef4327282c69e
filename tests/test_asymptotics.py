"""The basis hop, the exponents measured from it, and the log-log fit."""

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
                                frobenius_series, indicial_exponents, reach, taylor_series)
from kgcoulomb.kgmodels import build_deformed_zero_energy, build_ordinary_kg, to_heun
from kgcoulomb.physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams
from kgcoulomb.specialfn import heun_local, hypergeometric_ode, psi_ordinary
from kgcoulomb.spectra import energy_closed_form

# psi'' + (2/u) psi' - psi = 0, solved by exp(u)/u and exp(-u)/u: one
# regular singular point, at 0, so the hop at u has radius |u|
_EXP_ODE = RationalCoeffODE((2.0,), (0.0, 1.0), (-1.0,), (1.0,), ((0, 1, 0),))


def _exp(u):
    """(psi, psi') of the solution exp(u)/u."""
    return math.exp(u) / u, math.exp(u) * (u - 1.0) / u ** 2


def _psi(march, u0, psi0, dpsi0, grid):
    """The solution through (psi0, dpsi0) at u0, read at each grid point
    through the first row of the hop's transfer matrix from u0."""
    values = []
    for u in grid:
        (a, b, _, _), _ = march.matrix(u0, u)
        values.append(a * psi0 + b * u0 * dpsi0)
    return values


def _on_reach_hops(ode, u0, psi0, dpsi0, grid, tol=1e-10):
    """The solution through (psi0, dpsi0) at u0, carried along the real
    axis by ``fuchsian.reach`` and read at each grid point, in order,
    through the one-hop basis that ``integrate`` builds at tol on the hop
    of the chain that holds it; with the chain."""
    chain, hops, k, values = [taylor_series(ode, u0, psi0, dpsi0)], {}, 0, []
    for u in grid:
        k = reach(ode, chain, complex(u), 64, k)
        centre, radius = chain[k].expansion_point.real, chain[k].radius
        if k not in hops:  # the hop to the chain's next centre
            step = math.copysign(0.4 * radius, grid[-1] - u0)
            hops[k] = integrate(ode, centre, centre + step, tol)
        w, dw = evaluate_with_derivatives(chain[k], centre, 1)
        values += _psi(hops[k], centre, w, dw, [u])
    return values, chain


class TestIntegrate:
    def test_exponential_solution(self):
        # exp(u)/u on the hop at 2, read out to 0.4 of its radius
        march = integrate(_EXP_ODE, 2.0, 2.8, tol=1e-12)
        grid = np.linspace(2.0, 2.8, 400)
        values = _psi(march, 2.0, *_exp(2.0), grid)
        assert values[-1] == pytest.approx(_exp(2.8)[0], rel=1e-13)
        for u, v in zip(grid, values):
            assert v == pytest.approx(_exp(u)[0], rel=1e-13)
        assert march.max_residual <= 1e-12

    def test_tolerance_controls_error(self):
        coarse = integrate(_EXP_ODE, 2.0, 2.8, tol=1e-5)
        fine = integrate(_EXP_ODE, 2.0, 2.8, tol=1e-12)
        err_coarse = abs(_psi(coarse, 2.0, *_exp(2.0), [2.8])[0] - _exp(2.8)[0])
        err_fine = abs(_psi(fine, 2.0, *_exp(2.0), [2.8])[0] - _exp(2.8)[0])
        assert err_fine < err_coarse

    def test_closed_form_seeded_continuation(self):
        # the exact solution at u = 5, carried to u = 50 by reach's chain;
        # the closed form must be reproduced pointwise
        g = FINE_STRUCTURE_ALPHA
        s = CoulombSystem(g=g, eta=energy_closed_form(g, 0))
        psi0, dpsi0 = closed_form.psi_and_derivative(s, 5.0)
        values, _ = _on_reach_hops(build_ordinary_kg(s), 5.0, psi0, dpsi0, [27.5, 50.0], 1e-12)
        for u, value in zip((27.5, 50.0), values):
            ref = psi_ordinary(s, u)
            assert abs(value - ref) <= 1e-6 * abs(ref)

    def test_singular_point_on_path_rejected(self):
        # a singular point between u0 and u_end lies within the hop's
        # radius of u0, so u_end lies outside its trusted half disk
        with pytest.raises(OutOfDomainError):
            integrate(hypergeometric_ode(0.7, 1.3, 1.9), 0.5, 2.0)
        with pytest.raises(OutOfDomainError):  # radius 1 at u = 1
            integrate(build_ordinary_kg(CoulombSystem(0.3, 0.5)), 1.0, 2.0)

    def test_hop_out_of_floating_point_range_refused(self):
        # w'' at the end carries x^-2, out of range on a hop of radius 1e-299
        with pytest.raises(OutOfDomainError, match="floating-point range"):
            integrate(build_ordinary_kg(CoulombSystem(0.3, 0.5)), 1e-299, 0.8e-299)

    def test_span_bounds_the_hop_and_its_reads(self):
        # radius 2 at u = 2: a span of 0.4 cuts the series shorter than the
        # trusted half disk does, still reads exp(u)/u at its edge, and
        # refuses points past it; a span past the half disk is refused
        march = integrate(_EXP_ODE, 2.0, 2.4, tol=1e-12, span=0.4)
        assert len(march._pair[0].coefficients) < len(
            integrate(_EXP_ODE, 2.0, 2.4, tol=1e-12)._pair[0].coefficients)
        assert _psi(march, 2.0, *_exp(2.0), [1.6, 2.4]) == pytest.approx(
            [_exp(1.6)[0], _exp(2.4)[0]], rel=1e-12)
        with pytest.raises(ValueError, match="not on the march"):
            march.matrix(2.0, 2.5)
        with pytest.raises(OutOfDomainError, match="outside the span"):
            integrate(_EXP_ODE, 2.0, 2.5, span=0.4)
        with pytest.raises(OutOfDomainError, match="trusted half disk"):
            integrate(_EXP_ODE, 2.0, 2.4, span=1.2)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 1.0, 1.0)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate(_EXP_ODE, 1.0, 2.0, tol=0.0)


class TestTaylorContinuation:
    """Solutions carried by reach's chain and read through integrate's
    one-hop basis, against routes that share none of that code, and the
    hop count and the residual a hop reports."""

    # largest relative error over the grid, no looser than what an
    # adaptive Runge-Kutta scheme (DOP853, rtol = tol) reaches here
    _BOUNDS = {(1e-10, "forward"): 1e-10, (1e-10, "backward"): 1e-11,
               (1e-12, "forward"): 1e-11, (1e-12, "backward"): 1e-13}

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("z,n", [(1, 0), (40, 2), (68, 1)])
    def test_closed_form_at_every_point(self, z, n, tol, direction):
        g = z * FINE_STRUCTURE_ALPHA
        s = CoulombSystem(g=g, eta=energy_closed_form(g, n))
        start, end = (5.0, 1e4) if direction == "forward" else (1e4, 5.0)
        psi0, dpsi0 = closed_form.psi_and_derivative(s, start)
        grid = np.geomspace(start, end, 400)
        ref = np.array([psi_ordinary(s, u) for u in grid])
        values, _ = _on_reach_hops(build_ordinary_kg(s), start, psi0, dpsi0, grid, tol)
        worst = float(np.max(np.abs(np.array(values) - ref) / np.abs(ref)))
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
        grid = np.geomspace(u_seed, 100.0, 400)
        values, _ = _on_reach_hops(ode, u_seed, w, dw, grid)
        hp, vmap = to_heun(g, dp)
        xis = [vmap.forward(u) for u in grid]
        psi = np.array([(1.0 - xi) * h for xi, h in zip(xis, heun_local(hp, xis))])
        direct = np.array(values) * (psi[0] / values[0])
        assert np.max(np.abs(direct - psi) / np.abs(psi)) <= 1e-9

    def test_hops_grow_logarithmically(self):
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        _, near = _on_reach_hops(ode, 1.0, 1.0, 0.0, [1e4])
        # the solution through (1, 0) at u = 1 relaxes onto the slow
        # branch, decays by 24 decades and stays a clean power law
        grid = [float(u) for u in np.geomspace(1e6, 1e12, 200)]
        values, far = _on_reach_hops(ode, 1.0, 1.0, 0.0, grid)
        assert 10 < len(near) < 40
        assert len(far) < 3 * len(near)
        assert abs(values[-1]) < 1e-20
        assert fit_exponent(Trajectory(grid, values)).exponent == pytest.approx(-2.1, rel=1e-3)

    def test_residual_follows_tol(self):
        # one hop from u = 1 to 0.4 of its radius further
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        coarse = integrate(ode, 1.0, 1.4, tol=1e-6)
        fine = integrate(ode, 1.0, 1.4, tol=1e-12)
        assert 0.0 < fine.max_residual < coarse.max_residual
        assert fine.max_residual <= 1e-12

    def test_exp_residual_and_hops(self):
        # exp(u)/u from u = 1 to 2: the hop at u has radius |u|, so reach
        # hops once, to 1.4, whose half disk holds 2
        grid = [1.25, 1.5, 1.75, 2.0]
        values, chain = _on_reach_hops(_EXP_ODE, 1.0, *_exp(1.0), grid, 1e-12)
        assert [c.expansion_point for c in chain] == [1.0, pytest.approx(1.4, abs=1e-15)]
        for u, v in zip(grid, values):
            assert v == pytest.approx(_exp(u)[0], rel=1e-13)
        for c in chain:
            x = c.expansion_point.real
            assert integrate(_EXP_ODE, x, x + 0.4 * c.radius, tol=1e-12).max_residual <= 1e-12


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
    residue of p1 = P1/P2 at its simple pole r, read off the triple
    shifted to r: P1's coefficient of order kappa - 1 over P2's of order
    kappa, kappa = max(m1, m0) the order of P2 there (p1 has no
    polynomial part, since infinity is a regular singular point)."""
    p2, p1, _ = ode._triple
    assert len(p1) < len(p2)
    out = z1 / z0
    for r, m1, m0 in ode.points:
        assert m1 <= 1
        if m1:
            kappa = max(m1, m0)
            a_r = fuchsian._shift(p1, r)[kappa - 1] / fuchsian._shift(p2, r)[kappa]
            out *= ((z1 - r) / (z0 - r)) ** (-a_r)
    return out


def _hop_dets(ode, start, end, tol):
    """(z0, z1, det) of every hop of the real path from start to end: each
    a one-hop ``integrate`` from the last centre z0 to z1, 0.4 of its
    radius further (the rule of ``fuchsian.reach``), or to end once its
    trusted half disk holds end; det is that hop's transfer determinant."""
    hops, z0 = [], start
    while not hops or hops[-1][1] != end:
        radius = fuchsian._series_radius(ode, complex(z0))
        z1 = end if abs(end - z0) <= 0.5 * radius else z0 + math.copysign(0.4 * radius, end - z0)
        hops.append((z0, z1, integrate(ode, z0, z1, tol=tol)._local(complex(z1))[1]))
        z0 = z1
    return hops


class TestTransfer:
    def test_closed_form_transfer(self):
        # u psi = h with h'' = h: h(v) = h(u) ch + h'(u) sh, ch = cosh(v - u),
        # sh = sinh(v - u), so in the basis (w, u w') = (h/u, h' - h/u) the
        # transfer is [[(u ch + sh)/v, sh/v], [u sh + ch - (u ch + sh)/v,
        # ch - sh/v]] with determinant u/v, on a hop in either direction
        for start, end, pairs in (
                (2.0, 2.8, ((2.0, 2.8), (1.5, 2.9), (2.5, 2.1), (2.4, 2.4))),
                (3.0, 1.8, ((3.0, 1.8), (4.0, 1.6), (2.0, 2.6), (2.2, 2.2)))):
            march = integrate(_EXP_ODE, start, end, tol=1e-12)
            for u, v in pairs:
                (a, b, c, d), det = march.matrix(u, v)
                ch, sh = math.cosh(v - u), math.sinh(v - u)
                top = (u * ch + sh) / v
                assert [a, b, c, d] == pytest.approx([top, sh / v, u * sh + ch - top, ch - sh / v],
                                                     rel=1e-11, abs=1e-15)
                assert det == pytest.approx(u / v, rel=1e-11)

    def test_pieces_multiply(self):
        ode = build_ordinary_kg(CoulombSystem(0.6, 0.5))
        march = integrate(ode, 1e4, 1.4e4, tol=1e-10)
        (a, b, c, d), det = march.matrix(6e3, 1.4e4)
        first, det1 = march.matrix(6e3, 9e3)
        second, det2 = march.matrix(9e3, 1.4e4)
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
        hops = _hop_dets(hypergeometric_ode(a, b, c), *path, tol)
        assert len(hops) > 3
        for z0, z1, det in hops:
            wronskian = (z1 / z0) ** (-c) * ((1 - z1) / (1 - z0)) ** (c - a - b - 1)
            assert abs(det / ((z1 / z0) * wronskian) - 1) <= 100 * tol

    def test_abel_per_hop_on_the_exponent_fit_chains(self):
        # every path up over [hi/r^2, hi] of the exponent-fit draws of seeds
        # 1-3, hop by hop; Abel's identity fixes each hop's determinant,
        # independently of the hop
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
                cfg = cli._merge(*cli._parse_args(list(cmd.argv)))
                ode, _ = cli._exponent_ode(cfg, cli._coupling(cfg), cfg.get("eta"))
                lo, hi = cli._parse_window(cfg["window"])
                ratio = min(math.sqrt(hi / lo), asymptotics._RATIO_CAP)
                tol = asymptotics._HOP_TOL
                for z0, z1, det in _hop_dets(ode, hi / ratio ** 2, hi, tol):
                    worst = max(worst, abs(det / _abel(ode, z0, z1) - 1) / tol)
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
    def test_default_window_marches_one_hop(self, monkeypatch, ode):
        # both pieces of ratio r = 2^(1/4) are read off one hop centred at
        # hi/r, of radius hi/r, over [hi/r^2, hi]; a march per piece of
        # ratio 2 took two hops, one march up over [2.5e3, 1e4] 4, and
        # ratio 10 over [1e2, 1e4] 14
        marches = []

        def recorded(*args, **kwargs):
            marches.append(integrate(*args, **kwargs))
            return marches[-1]

        monkeypatch.setattr(asymptotics, "integrate", recorded)
        asymptotics.transfer_exponents(ode, (1e2, 1e4))
        assert [(march._pair[0].expansion_point, march._pair[0].radius)
                for march in marches] == [(1e4 / 2.0 ** 0.25, 1e4 / 2.0 ** 0.25)]

    @pytest.mark.parametrize("ode", [
        build_ordinary_kg(CoulombSystem(0.3, 0.5)),
        build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02)),
    ], ids=["ordinary", "deformed"])
    def test_each_transfer_point_is_read_once(self, monkeypatch, ode):
        # the hop centre hi/2^(1/4), read off its first coefficients, the
        # piece ends hi/1.01, hi/sqrt(2) and hi, and the estimate's midpoint
        # hi/2^(1/8), both columns each: 8 sums, w'' only at the hop's end
        # hi, where its defect is checked
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
        assert counts == {1: 6, 2: 2}
        (march,) = marches
        assert len(march._reads) == 5
        # each kept matrix is bit for bit one made from fresh reads
        for z, kept in march._reads.items():
            first, second = march._pair
            (w1, dw1, _), (w2, dw2, _) = (evaluate_with_derivatives(sol, z)
                                          for sol in (first, second))
            c = first.radius / first.expansion_point
            m = (w1, c * w2, z * dw1, c * z * dw2)
            assert kept == (m, m[0] * m[3] - m[1] * m[2])

    def test_cut_ratio_reads_the_same_march(self, monkeypatch):
        # the pair turns by 30 ln r per piece: the phase anchor, read off
        # the hop at hi/2^(1/4), cuts r twice, to 2^(1/16); the pieces
        # [hi/r^2, hi/r] and [hi/r, hi] lie on one more hop, centred at
        # hi/r, and so do the estimate's pieces of ratio 2^(1/32), read last
        ode = build_ordinary_kg(CoulombSystem(30.0, 0.5))
        marches, pieces, piece_exponents = [], [], asymptotics._piece_exponents

        def recorded(*args, **kwargs):
            marches.append(integrate(*args, **kwargs))
            return marches[-1]

        def read(march, u, v):
            pieces.append(u / v)
            return piece_exponents(march, u, v)

        monkeypatch.setattr(asymptotics, "integrate", recorded)
        monkeypatch.setattr(asymptotics, "_piece_exponents", read)
        asymptotics.transfer_exponents(ode, (1e2, 1e4))
        assert [march._pair[0].expansion_point for march in marches] == [
            1e4 / 2.0 ** 0.25, 1e4 / 2.0 ** (1 / 16)]
        assert pieces[-2:] == pytest.approx([2.0 ** (1 / 32)] * 2, rel=1e-15)

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
