"""Model builders against the operator-level symbolic derivations, plus
the two normal-form reductions.

The sympy oracle in symbolic_oracle.py rederives every equation from
the squared interaction form; the builder helpers accept exact types,
so the comparison is an identity over rational arithmetic, not a
floating-point one.
"""

import math
import random
import warnings

import pytest
import sympy as sp

import symbolic_oracle as so
from change_of_variable import substitute
from kgcoulomb.errors import ParameterPoleError
from kgcoulomb.fuchsian import (
    INFINITY,
    RationalCoeffODE,
    evaluate,
    frobenius_series,
    gauge,
    indicial_exponents,
    singular_points,
)
from kgcoulomb.kgmodels import (
    ConfluenceWarning,
    GenHeunParams,
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    gen_heun_ode,
    to_generalized_heun,
    to_heun,
)
from kgcoulomb.kgmodels import (
    _deformed_zero_energy_coeffs,
    _first_order_phi_coeffs,
    _first_order_points,
    _ordinary_kg_coeffs,
)
from kgcoulomb.physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams
from kgcoulomb.specialfn import heun_local, heun_ode


def _first_order_phi(s, theta):
    """The first-order equation for phi = u psi, built from its table."""
    (p1n, p1d), (p0n, p0d) = _first_order_phi_coeffs(s.g, s.eta, theta)
    return RationalCoeffODE(p1n, p1d, p0n, p0d, _first_order_points(s, theta))


class TestOperatorDerivation:
    """Implemented coefficient tables == symbolic rederivation, exactly."""

    def test_ordinary(self):
        impl = _ordinary_kg_coeffs(so.g, so.eta, imag=sp.I)
        derived = so.derive_ordinary()
        assert so.quotients_equal(impl[0], derived[0], so.u)
        assert so.quotients_equal(impl[1], derived[1], so.u)

    def test_zero_energy(self):
        impl = _deformed_zero_energy_coeffs(so.g, so.theta, so.theta_p)
        derived = so.derive_zero_energy()
        assert so.quotients_equal(impl[0], derived[0], so.u)
        assert so.quotients_equal(impl[1], derived[1], so.u)

    def test_first_order_phi(self):
        impl = _first_order_phi_coeffs(so.g, so.eta, so.theta, imag=sp.I)
        derived = so.derive_first_order_phi()
        assert so.quotients_equal(impl[0], derived[0], so.u)
        assert so.quotients_equal(impl[1], derived[1], so.u)

    def test_first_order_psi(self):
        # the psi table is the phi table under the gauge phi = u psi
        impl = gauge(_first_order_phi_coeffs(so.g, so.eta, so.theta, imag=sp.I), (0, 1))
        derived = so.derive_first_order_psi()
        assert so.quotients_equal(impl[0], derived[0], so.u)
        assert so.quotients_equal(impl[1], derived[1], so.u)

    @pytest.mark.parametrize("table", [
        lambda: _ordinary_kg_coeffs(so.g, so.eta, imag=sp.I),
        lambda: _deformed_zero_energy_coeffs(so.g, so.theta, so.theta_p),
        lambda: _first_order_phi_coeffs(so.g, so.eta, so.theta, imag=sp.I),
    ], ids=["ordinary", "zero-energy", "first-order-phi"])
    def test_pullback_to_infinity(self, table):
        # W(t) = w(1/t) solves W'' + (2/t - p1(1/t)/t^2) W' + p0(1/t)/t^4 W = 0
        t = sp.symbols("t", positive=True)
        (p1n, p1d), (p0n, p0d) = table()
        p1 = so._poly(p1n, so.u) / so._poly(p1d, so.u)
        p0 = so._poly(p0n, so.u) / so._poly(p0d, so.u)
        want1 = sp.fraction(sp.together(2 / t - p1.subs(so.u, 1 / t) / t**2))
        want0 = sp.fraction(sp.together(p0.subs(so.u, 1 / t) / t**4))
        got1, got0 = substitute(table(), (1,), (0, 1))
        assert so.quotients_equal(got1, want1, t)
        assert so.quotients_equal(got0, want0, t)


class TestOrdinaryModel:
    def test_origin_exponents(self):
        ode = build_ordinary_kg(CoulombSystem(g=50 * FINE_STRUCTURE_ALPHA, eta=0.6))
        assert indicial_exponents(ode, 0.0) == (0j, -1 + 0j)

    def test_infinity_exponents_subcritical(self):
        # -5/2 +- mu; g = 0.3 makes mu = 2/5 exactly
        s = CoulombSystem(g=0.3, eta=0.5)
        rho = indicial_exponents(build_ordinary_kg(s), INFINITY)
        assert rho[0] == pytest.approx(-2.1, abs=1e-13)
        assert rho[1] == pytest.approx(-2.9, abs=1e-13)

    def test_infinity_exponents_supercritical(self):
        # above g = 1/2 the pair is complex with real part exactly -5/2
        s = CoulombSystem(g=0.6, eta=0.5)
        rho = indicial_exponents(build_ordinary_kg(s), INFINITY)
        im = math.sqrt(0.6**2 - 0.25)
        assert rho[0].real == -2.5 and rho[1].real == -2.5
        assert sorted(x.imag for x in rho) == pytest.approx([-im, im], rel=1e-12)

    def test_conjugate_pair_census(self):
        ode = build_ordinary_kg(CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.6))
        pts = singular_points(ode)
        finite = [p.location for p in pts if p.location is not INFINITY]
        assert any(abs(loc - 0.8j) < 1e-12 for loc in finite)
        assert any(abs(loc + 0.8j) < 1e-12 for loc in finite)
        assert all(p.kind == "regular" for p in pts)

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_ordinary_kg(CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=1.0))


class TestDeformedZeroEnergy:
    def test_infinity_exponents(self):
        # {-2, -3 - 2 theta / T}; theta' = 0 gives {-2, -5}
        ode = build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.0))
        rho = indicial_exponents(ode, INFINITY)
        assert rho[0] == pytest.approx(-2.0, abs=1e-12)
        assert rho[1] == pytest.approx(-5.0, abs=1e-12)

    def test_charge_independent_exponents(self):
        # g only enters the constant term of p0, so the large-u exponents
        # must come out bit for bit the same
        dp = DeformationParams(0.04, 0.01)
        pairs = {
            indicial_exponents(build_deformed_zero_energy(g, dp), INFINITY)
            for g in (0.1, 0.5, 1.0)
        }
        assert len(pairs) == 1

    def test_singularity_locations(self):
        # u = +-i and u = +-i / sqrt(T), all regular
        dp = DeformationParams(0.05, 0.0)
        pts = singular_points(build_deformed_zero_energy(0.3, dp))
        finite = [p.location for p in pts if p.location is not INFINITY]
        for target in (1j, -1j, 1j / math.sqrt(0.05), -1j / math.sqrt(0.05)):
            assert any(abs(loc - target) < 1e-9 for loc in finite), target
        assert all(p.kind == "regular" for p in pts)

    def test_zero_deformation_rejected(self):
        with pytest.raises(ValueError):
            build_deformed_zero_energy(0.3, DeformationParams(0.0, 0.0))

    @pytest.mark.parametrize("z", [1, 10, 137])
    @pytest.mark.parametrize("theta_prime", ["zero", "equal"])
    @pytest.mark.parametrize("theta", [1e-3, 1e-4, 3e-5, 2e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-14])
    def test_weak_deformation_exponents(self, theta, theta_prime, z):
        # a root of the pullback's p0 numerator lies within about g^2 of
        # the double pole at t = +-i sqrt(T); it must not be cancelled
        # against it. Below T ~ 1e-4 the pullback's p0 denominator starts
        # T^2 t^2 next to coefficients near 1, and that T^2 is no zero;
        # the census keeps its five finite points however small T is
        dp = DeformationParams(theta, 0.0 if theta_prime == "zero" else theta)
        ode = build_deformed_zero_energy(z * FINE_STRUCTURE_ALPHA, dp)
        assert len(singular_points(ode)) == 6
        rho = indicial_exponents(ode, INFINITY)
        assert rho[0] == pytest.approx(-2.0, abs=1e-12)
        assert rho[1] == pytest.approx(-3.0 - 2.0 * theta / dp.total, abs=1e-12)


class TestFirstOrderModel:
    def test_psi_infinity_exponents(self):
        # the truncated operators shift the subdominant exponent to -10/3
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8)
        ode = build_deformed_first_order_psi(s, 0.04)
        rho = indicial_exponents(ode, INFINITY)
        assert rho[0] == pytest.approx(-2.0, abs=1e-12)
        assert rho[1] == pytest.approx(-10.0 / 3.0, abs=1e-12)

    def test_phi_form_shifts_by_one(self):
        # phi = u psi, so every infinity exponent moves up by 1
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8)
        phi = indicial_exponents(_first_order_phi(s, 0.04), INFINITY)
        psi = indicial_exponents(build_deformed_first_order_psi(s, 0.04), INFINITY)
        assert phi[0] - 1 == pytest.approx(psi[0], abs=1e-12)
        assert phi[1] - 1 == pytest.approx(psi[1], abs=1e-12)

    def test_weak_deformation_approaches_ordinary(self):
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8)
        near = build_deformed_first_order_psi(s, 1e-12)
        flat = build_ordinary_kg(s)
        for u in (0.3, 1.0, 4.0):
            assert near.p1(u) == pytest.approx(flat.p1(u), rel=1e-9)
            assert near.p0(u) == pytest.approx(flat.p0(u), rel=1e-9)

    def test_nonpositive_theta_rejected(self):
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8)
        with pytest.raises(ValueError):
            build_deformed_first_order_psi(s, 0.0)
        with pytest.raises(ValueError):
            build_deformed_first_order_psi(s, -0.01)


class TestToHeun:
    def test_frozen_block(self):
        hp, _ = to_heun(0.2, DeformationParams(0.05, 0.05))
        assert hp.xi0 == pytest.approx(-1.0 / 9.0, rel=1e-15)
        assert hp.q == pytest.approx(-1.511111111111111, rel=1e-15)
        assert hp.a == pytest.approx(1.0233088248544093, rel=1e-14)
        assert hp.b == pytest.approx(1.4766911751455907, rel=1e-14)
        assert (hp.c, hp.d) == (1.5, 2.0)

    def test_equal_strengths_drop_third_singularity(self):
        hp, _ = to_heun(0.2, DeformationParams(0.05, 0.05))
        assert hp.e == 0.0

    def test_unequal_strengths(self):
        # e = 1/2 - theta / T
        hp, _ = to_heun(0.3, DeformationParams(0.02, 0.05))
        assert hp.e == pytest.approx(0.5 - 0.02 / 0.07, rel=1e-14)
        assert hp.q == pytest.approx(-1.5241935483870968, rel=1e-14)

    def test_unit_total_rejected(self):
        with pytest.raises(ParameterPoleError):
            to_heun(0.2, DeformationParams(0.5, 0.5))

    def test_pushforward_identity(self):
        """(1 - xi) H(xi) equals the u-space series solution.

        Both sides are the unique solution regular at the origin with
        value 1 there, so they must agree wherever both converge.
        """
        g = 0.2
        dp = DeformationParams(0.05, 0.05)
        hp, vmap = to_heun(g, dp)
        ser = frobenius_series(build_deformed_zero_energy(g, dp), 0j, 0j, order=60)
        for u in (0.1, 0.2, 0.35):
            xi = vmap.forward(u)
            lhs = evaluate(ser, u)
            rhs = (1 - xi) * heun_local(hp, xi)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_exponent_transport_to_xi_one(self):
        # psi ~ u^-sigma maps to f ~ (1 - xi)^(sigma/2 - 1); the u-space
        # infinity pair must land on the Heun exponents at xi = 1
        g, dp = 0.3, DeformationParams(0.04, 0.01)
        hp, _ = to_heun(g, dp)
        sigma = indicial_exponents(build_deformed_zero_energy(g, dp), INFINITY)
        transported = sorted((-s / 2 - 1).real for s in sigma)
        at_one = sorted(r.real for r in indicial_exponents(heun_ode(hp), 1.0))
        assert transported == pytest.approx(at_one, abs=1e-12)


def test_variable_map_over_a_list_has_each_point_s_bits():
    # a list is mapped in one pass per coefficient, with the operations
    # Horner's rule takes on each point alone
    rng = random.Random(3)
    maps = [to_heun(0.3, DeformationParams(0.05, 0.02))[1],
            to_heun(0.7, DeformationParams(0.2, 0.01))[1],
            to_generalized_heun(CoulombSystem(0.3, 0.5), 0.04)[1]]
    us = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(50)] + [0.0, -0.0, 1.0, 1e300]
    for vmap in maps:
        for points in (us, [complex(u, rng.uniform(-1.0, 1.0)) for u in us], []):
            got = vmap.forward(points)
            want = [vmap.forward(u) for u in points]
            assert [repr(complex(x)) for x in got] == [repr(complex(x)) for x in want]
            assert [type(x) for x in got] == [type(x) for x in want]


class TestToGeneralizedHeun:
    _SYSTEM = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8)

    def test_fixed_infinity_exponents(self):
        gp, _ = to_generalized_heun(self._SYSTEM, 0.04)
        assert gp.a == 1.0
        assert gp.b == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_frozen_block(self):
        gp, _ = to_generalized_heun(self._SYSTEM, 0.04)
        assert gp.rho1 == pytest.approx(-2.3619329977795576, rel=1e-14)
        assert gp.rho2 == pytest.approx(0.09285161077465906, rel=1e-13)
        assert gp.c == pytest.approx(0.21362320855516925, rel=1e-14)
        assert gp.e == pytest.approx(2.3056964510757711, rel=1e-14)
        assert gp.x1 == pytest.approx(0.64696938456699071, rel=1e-15)

    def test_pair_sums(self):
        # c + d = 1/3 and e + f = 4 whatever the inputs
        gp, _ = to_generalized_heun(CoulombSystem(g=80 * FINE_STRUCTURE_ALPHA, eta=0.35), 0.09)
        assert gp.c + gp.d == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert gp.e + gp.f == pytest.approx(4.0, rel=1e-13)
        assert gp.x1 + gp.x2 == pytest.approx(1.0, rel=1e-15)

    def test_census_all_regular(self):
        gp, _ = to_generalized_heun(self._SYSTEM, 0.04)
        pts = singular_points(gen_heun_ode(gp))
        finite = [p.location for p in pts if p.location is not INFINITY]
        assert len(finite) == 4 and len(pts) == 5
        for target in (0.0, 1.0, gp.x1, gp.x2):
            assert any(abs(loc - target) < 1e-12 for loc in finite), target
        assert all(p.kind == "regular" for p in pts)

    def test_random_draws_stay_fuchsian(self):
        rng = random.Random(20240817)
        for _ in range(20):
            s = CoulombSystem(g=rng.randint(1, 130) * FINE_STRUCTURE_ALPHA,
                              eta=rng.uniform(0.05, 0.98))
            theta = rng.uniform(0.005, 0.15)
            if abs(1.0 - 6.0 * theta * (1 - s.eta**2)) < 1e-3:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConfluenceWarning)
                gp, _ = to_generalized_heun(s, theta)
            assert gp.fuchsian_residual <= 1e-14 * max(1.0, abs(gp.e), abs(gp.f))

    def test_confluence_warning(self):
        with pytest.warns(ConfluenceWarning):
            to_generalized_heun(self._SYSTEM, 1e-6)

    def test_exponent_parameter_pole(self):
        # 6 theta (1 - eta^2) = 1 blows up c, d, e, f
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.6)
        with pytest.raises(ParameterPoleError):
            to_generalized_heun(s, 1.0 / (6.0 * 0.64))

    def test_constraint_enforced_on_construction(self):
        with pytest.raises(ValueError):
            GenHeunParams(a=1.0, b=7 / 3, rho1=0.0, rho2=0.0, c=0.5, d=0.5,
                          e=2.0, f=2.0, x1=0.6, x2=0.4)


_PROBES = (0.3, 1.0, 7.0, 100.0)


def _assert_same_equation(got, table):
    """Raw quotients agree with the model table at the probe points.

    Raw, because normalizing the pushed-back equation (a RationalCoeffODE)
    trims and deflates polynomials of high degree and loses far more
    digits than the transforms do.
    """
    def value(quotient, u):
        num, den = quotient
        return sum(c * u**k for k, c in enumerate(num)) / sum(c * u**k for k, c in enumerate(den))

    for mine, ref in zip(got, table):
        for u in _PROBES:
            assert value(mine, u) == pytest.approx(value(ref, u), rel=1e-12, abs=0), u


def _triple_pair(ode):
    """((P1, P2), (P0, P2)): the equation's stored least-degree triple as
    the quotient pair that ``substitute`` and ``gauge`` take."""
    p2, p1, p0 = ode._triple
    return (p1, p2), (p0, p2)


class TestReductions:
    """Each normal form pushed back to u along its own map reproduces the
    model equation, at random parameters."""

    def test_heun_reproduces_zero_energy(self):
        # psi = (1 - xi) f = f / (1 + T u^2), so f = (1 + T u^2) psi
        rng = random.Random(4)
        for _ in range(24):
            g = rng.uniform(0.005, 1.0)
            theta = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
            theta_prime = rng.choice([0.0, theta, math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))])
            dp = DeformationParams(theta, theta_prime)
            hp, vmap = to_heun(g, dp)
            ode = heun_ode(hp)
            pushed = gauge(substitute(_triple_pair(ode), vmap.num, vmap.den), (1, 0, dp.total))
            _assert_same_equation(pushed, _deformed_zero_energy_coeffs(g, theta, theta_prime))

    def test_generalized_heun_reproduces_first_order_phi(self):
        rng = random.Random(5)
        for _ in range(24):
            s = CoulombSystem(g=rng.randint(1, 137) * FINE_STRUCTURE_ALPHA,
                              eta=rng.uniform(0.05, 0.98))
            theta = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConfluenceWarning)
                gp, vmap = to_generalized_heun(s, theta)
            ode = gen_heun_ode(gp)
            pushed = substitute(_triple_pair(ode), vmap.num, vmap.den)
            _assert_same_equation(pushed, _first_order_phi_coeffs(s.g, s.eta, theta))
