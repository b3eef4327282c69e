"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Run with -v to get a pass/fail line per criterion. Everything here is
also covered in finer grain by the per-module files; this file is the
contract.
"""

import random

import numpy as np
import sympy as sp

import closed_form
import symbolic_oracle as so
from kgcoulomb.asymptotics import integrate, paired, transfer_exponents
from kgcoulomb.fuchsian import (INFINITY, _defect, evaluate_with_derivatives, frobenius_series,
                                indicial_exponents, reach, singular_points, taylor_series)
from kgcoulomb.kgmodels import (
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    to_generalized_heun,
    to_heun,
    gen_heun_ode,
)
from kgcoulomb.physcore import (FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams,
                                mu_of_coupling)
from kgcoulomb.specialfn import heun_local, heun_ode, hyp2f1, hypergeometric_ode, psi_ordinary
from kgcoulomb.spectra import energy_closed_form, solve_quantization

_WINDOW = (1e2, 1e4)


def _residual(ode, sol, z):
    """Relative ODE defect of a local solution at z, as the library measures it."""
    return _defect(ode, z, *evaluate_with_derivatives(sol, z))


def _residual_at_infinity(ode, sol, u):
    """The defect of the u equation at u of a series at infinity, a series
    in t = 1/u: its t-derivatives taken to u by the chain rule."""
    t = 1.0 / complex(u)
    w, dw, d2w = evaluate_with_derivatives(sol, t)
    return _defect(ode, u, w, -t * t * dw, t ** 4 * d2w + 2.0 * t ** 3 * dw)


def test_criterion_1_spectrum_oracle_equivalence():
    for z in (1, 10, 50):
        g = z * FINE_STRUCTURE_ALPHA
        for n in range(6):
            closed = energy_closed_form(g, n)
            solved = solve_quantization(g, n).eta
            assert abs(solved - closed) <= 1e-12 * closed, (z, n)
    g = FINE_STRUCTURE_ALPHA
    for n in range(6):
        binding = 1.0 - energy_closed_form(g, n)
        balmer = g * g / (2.0 * (n + 1) ** 2)
        assert abs(binding - balmer) <= 1e-4 * balmer, n


def test_criterion_2_ordinary_infinity_exponents():
    rng = random.Random(90125)
    for _ in range(20):
        g = rng.uniform(0.01, 0.499)
        ode = build_ordinary_kg(CoulombSystem(g=g, eta=0.5))
        rho = indicial_exponents(ode, INFINITY)
        mu = mu_of_coupling(g)
        assert abs(rho[0] - (-2.5 + mu)) <= 1e-12, g
        assert abs(rho[1] - (-2.5 - mu)) <= 1e-12, g
    # Z = 100 crosses g = 1/2: conjugate pair, real part exactly -5/2
    ode = build_ordinary_kg(CoulombSystem(g=100 * FINE_STRUCTURE_ALPHA))
    rho = indicial_exponents(ode, INFINITY)
    assert rho[0].real == -2.5 and rho[1].real == -2.5
    assert rho[0].imag != 0.0
    assert rho[0].imag == -rho[1].imag


def test_criterion_3_deformed_zero_energy_exponents_and_fits():
    dp = DeformationParams(0.05, 0.05)
    expected = (-2.0, -3.0 - 2.0 * dp.theta / dp.total)
    pairs = set()
    for g in (0.1, 0.5, 1.0):
        rho = indicial_exponents(build_deformed_zero_energy(g, dp), INFINITY)
        assert abs(rho[0] - expected[0]) <= 1e-12
        assert abs(rho[1] - expected[1]) <= 1e-12
        pairs.add(rho)
    assert len(pairs) == 1  # bit-identical across charges
    ode = build_deformed_zero_energy(0.5, dp)
    sub, dom = paired(expected, transfer_exponents(ode, _WINDOW))
    assert abs(dom - expected[1]) <= 0.01 * abs(expected[1])
    assert abs(sub - expected[0]) <= 0.01 * abs(expected[0])


def _heun_vs_hypergeometric_points():
    hp, _ = to_heun(0.2, DeformationParams(0.05, 0.05))
    return hp, np.linspace(0.0, 0.4, 50)


def test_criterion_4_heun_reduction_agreement():
    hp, grid = _heun_vs_hypergeometric_points()
    assert hp.e == 0.0
    for xi in grid:
        h = heun_local(hp, float(xi))
        f = hyp2f1(hp.a, hp.b, hp.c, xi / hp.xi0)
        assert abs(h - f) <= 1e-10, xi


def test_criterion_5_series_residuals():
    # the dominant series at infinity of the criterion-3 equation
    dp = DeformationParams(0.05, 0.05)
    ode = build_deformed_zero_energy(0.5, dp)
    rho = indicial_exponents(ode, INFINITY)
    seed = frobenius_series(ode, INFINITY, rho[1], order=48)
    for u in (1e2, 1e3, 1e4):
        assert _residual_at_infinity(ode, seed, u) <= 1e-8

    # both evaluation routes of criterion 4, at its 50 points; xi = 0 is
    # the expansion point itself (and a singular point of the normalized
    # coefficients), so the residual check starts at the second node
    hp, grid = _heun_vs_hypergeometric_points()
    hode = heun_ode(hp)
    local = frobenius_series(hode, 0j, 0j, order=64)
    gode = hypergeometric_ode(hp.a, hp.b, hp.c)
    series_2f1 = frobenius_series(gode, 0j, 0j, order=64)
    for xi in grid[1:]:
        xi = complex(xi)
        if abs(xi) <= 0.5 * local.radius:
            assert _residual(hode, local, xi) <= 1e-8
        else:
            center = xi - 0.02
            chain = [local]
            w, dw, _ = evaluate_with_derivatives(chain[reach(hode, chain, center, 64)], center)
            hop = taylor_series(hode, center, w, dw, order=64)
            assert _residual(hode, hop, xi) <= 1e-8
        z = xi / hp.xi0
        chain = [series_2f1]
        f0, f1, f2 = evaluate_with_derivatives(chain[reach(gode, chain, z, 64)], z)
        gap = f2 + gode.p1(z) * f1 + gode.p0(z) * f0
        assert abs(gap) <= 1e-8 * max(1.0, abs(f0))


def test_criterion_6_generalized_heun_block():
    rng = random.Random(1137)
    accepted = 0
    census_checked = 0
    while accepted < 100:
        s = CoulombSystem(g=rng.randint(1, 137) * FINE_STRUCTURE_ALPHA,
                          eta=rng.uniform(0.05, 0.98))
        theta = rng.uniform(0.002, 0.2)
        if abs(1.0 - 6.0 * theta * (1.0 - s.eta**2)) < 1e-3:
            continue
        gp, _ = to_generalized_heun(s, theta)
        accepted += 1
        assert gp.a == 1.0
        assert abs(gp.b - 7.0 / 3.0) <= 1e-15
        assert gp.fuchsian_residual <= 1e-14 * max(1.0, abs(gp.e), abs(gp.f))
        if census_checked < 5:
            census_checked += 1
            pts = singular_points(gen_heun_ode(gp))
            assert len(pts) == 5
            assert pts[-1].location is INFINITY
            finite = [p.location for p in pts if p.location is not INFINITY]
            for target in (0.0, 1.0, gp.x1, gp.x2):
                assert min(abs(loc - target) for loc in finite) < 1e-9
            assert all(p.kind == "regular" for p in pts)


def test_criterion_7_first_order_truncation_discrepancy():
    theta = 0.04
    trunc = build_deformed_first_order_psi(CoulombSystem(g=0.3, eta=0.9), theta)
    dom_t = min(rho.real for rho in transfer_exponents(trunc, _WINDOW))
    assert abs(dom_t - (-10.0 / 3.0)) <= 0.01 * (10.0 / 3.0)
    exact = build_deformed_zero_energy(0.3, DeformationParams(theta, 2 * theta))
    dom_e = min(rho.real for rho in transfer_exponents(exact, _WINDOW))
    assert abs(dom_e - (-11.0 / 3.0)) <= 0.01 * (11.0 / 3.0)


def test_criterion_8_closed_form_cross_integration():
    g = FINE_STRUCTURE_ALPHA
    s = CoulombSystem(g=g, eta=energy_closed_form(g, 0))
    psi0, dpsi0 = closed_form.psi_and_derivative(s, 5.0)
    # psi(50) is the first row of the transfer matrix in the basis
    # (w, u w') applied to (psi, 5 psi') at u = 5
    (a, b, _, _), _ = integrate(build_ordinary_kg(s), 5.0, 50.0, tol=1e-12).matrix(5.0, 50.0)
    ref = psi_ordinary(s, 50.0)
    assert abs(a * psi0 + b * 5.0 * dpsi0 - ref) <= 1e-6 * abs(ref)


def test_criterion_9_derivation_oracle():
    # implemented coefficient tables are exact rational-arithmetic
    # identities against operator-level rederivation
    from kgcoulomb.kgmodels import (
        _deformed_zero_energy_coeffs,
        _first_order_phi_coeffs,
        _ordinary_kg_coeffs,
    )

    der_ord = so.derive_ordinary()
    impl_ord = _ordinary_kg_coeffs(so.g, so.eta, imag=sp.I)
    assert so.quotients_equal(impl_ord[0], der_ord[0], so.u)
    assert so.quotients_equal(impl_ord[1], der_ord[1], so.u)

    der_zero = so.derive_zero_energy()
    impl_zero = _deformed_zero_energy_coeffs(so.g, so.theta, so.theta_p)
    assert so.quotients_equal(impl_zero[0], der_zero[0], so.u)
    assert so.quotients_equal(impl_zero[1], der_zero[1], so.u)

    der_first = so.derive_first_order_phi()
    impl_first = _first_order_phi_coeffs(so.g, so.eta, so.theta, imag=sp.I)
    assert so.quotients_equal(impl_first[0], der_first[0], so.u)
    assert so.quotients_equal(impl_first[1], der_first[1], so.u)

    # diffs against the published equations: exactly the documented
    # misprints and nothing else
    pri_ord = so.printed_ordinary()
    assert so.quotients_equal(der_ord[1], pri_ord[1], so.u)  # p0 clean
    assert not so.quotients_equal(der_ord[0], pri_ord[0], so.u)
    ev = sp.sqrt((1 - so.eta) * (1 + so.eta))
    gap = (so._poly(pri_ord[0][0], so.u) / so._poly(pri_ord[0][1], so.u)
           - so._poly(der_ord[0][0], so.u) / so._poly(der_ord[0][1], so.u))
    claimed = (2 * ev - 2 * ev**2) / (so.u * (ev**2 + so.u**2))
    assert sp.simplify(sp.together(gap - claimed)) == 0

    pri_zero = so.printed_zero_energy()
    assert so.quotients_equal(der_zero[0], pri_zero[0], so.u)
    assert so.quotients_equal(der_zero[1], pri_zero[1], so.u)

    pri_first = so.printed_first_order()
    assert so.quotients_equal(der_first[0], pri_first[0], so.u)
    assert so.quotients_equal(der_first[1], pri_first[1], so.u)

    # the compactified block: the derivation agrees with the corrected
    # parameters everywhere, and with the published ones everywhere
    # except the third local exponent, which is off by exactly theta/T
    blk = so.derive_heun_block()
    cor = so.corrected_heun_parameters()
    pub = so.printed_heun_parameters()
    for k in ("c", "d", "e", "q", "xi0"):
        assert sp.simplify(blk[k] - cor[k]) == 0, k
    assert sp.simplify(sp.expand(blk["ab"]) - sp.expand(cor["a"] * cor["b"])) == 0
    assert sp.simplify(blk["a_plus_b"] - (cor["a"] + cor["b"])) == 0
    t = so.theta + so.theta_p
    for k in ("c", "d", "q", "xi0"):
        assert sp.simplify(pub[k] - cor[k]) == 0, k
    assert sp.simplify(pub["e"] - cor["e"] + so.theta / t) == 0
    assert sp.simplify(pub["nu"] - cor["nu"]) != 0
