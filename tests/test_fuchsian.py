import cmath
import math
import random
import warnings

import pytest
from numpy.polynomial import polynomial as npoly

from change_of_variable import substitute
from kgcoulomb import fuchsian
from kgcoulomb.asymptotics import integrate
from kgcoulomb.errors import (
    ConvergenceError,
    IrregularPointError,
    OutOfDomainError,
    ResonantExponentsError,
)
from kgcoulomb.fuchsian import (
    INFINITY,
    RationalCoeffODE,
    evaluate,
    evaluate_with_derivatives,
    frobenius_series,
    gauge,
    indicial_exponents,
    reach,
    singular_points,
    taylor_basis,
    taylor_series,
)
from kgcoulomb.specialfn import HeunParams, heun_ode, hyp2f1, hypergeometric_ode
from kgcoulomb.kgmodels import (
    _deformed_zero_energy_coeffs,
    _first_order_phi_coeffs,
    _first_order_points,
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    gen_heun_ode,
    to_generalized_heun,
    to_heun,
)
from kgcoulomb.physcore import (FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams,
                                mu_of_coupling)


def residual(ode, sol, z):
    """Relative ODE defect of a local solution at z, as the library measures it."""
    return fuchsian._defect(ode, z, *evaluate_with_derivatives(sol, z))


def residual_at_infinity(ode, sol, u):
    """The defect of the u equation at u of a series at infinity, a series
    in t = 1/u: its t-derivatives taken to u by the chain rule."""
    t = 1.0 / complex(u)
    w, dw, d2w = evaluate_with_derivatives(sol, t)
    return fuchsian._defect(ode, u, w, -t * t * dw, t ** 4 * d2w + 2.0 * t ** 3 * dw)


# the cosine equation y'' + y = 0: no singular points in the finite plane
_COS_ODE = RationalCoeffODE((0,), (1,), (1,), (1,), ())
# y'' + (2/z) y' + y = 0, solved by cos(z)/z and sin(z)/z: one regular
# singular point, at 0, so a Taylor hop at z has radius |z|
_SPHERICAL_ODE = RationalCoeffODE((2.0,), (0.0, 1.0), (1.0,), (1.0,), ((0, 1, 0),))


def _hyp_abc():
    return 0.7, 1.3, 1.9


def _first_order_phi(s, theta):
    """The first-order equation for phi = u psi, built from its table."""
    (p1n, p1d), (p0n, p0d) = _first_order_phi_coeffs(s.g, s.eta, theta)
    return RationalCoeffODE(p1n, p1d, p0n, p0d, _first_order_points(s, theta))


class TestSingularPointCensus:
    def test_hypergeometric_census(self):
        ode = hypergeometric_ode(*_hyp_abc())
        pts = singular_points(ode)
        finite = [p.location for p in pts if p.location is not INFINITY]
        assert finite == [0.0, 1.0]
        assert pts[-1].location is INFINITY
        assert all(p.kind == "regular" for p in pts)

    def test_ordinary_model_census(self):
        s = CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.6)
        pts = singular_points(build_ordinary_kg(s))
        locs = [p.location for p in pts if p.location is not INFINITY]
        # u = 0 and the conjugate pair u = +-i eps
        assert locs[1] == pytest.approx(0.0)
        assert locs[0] == pytest.approx(-0.8j, abs=1e-12)
        assert locs[2] == pytest.approx(0.8j, abs=1e-12)

    def test_double_roots_are_merged(self):
        # the zero-energy denominator has (1 + T u^2)^2: one conjugate
        # pair of order-two poles in p0, not four distinct points
        ode = build_deformed_zero_energy(0.3, DeformationParams(0.02, 0.02))
        pts = singular_points(ode)
        root = 1.0 / math.sqrt(0.04)
        matches = [p for p in pts if p.location is not INFINITY
                   and abs(abs(p.location) - root) < 1e-7]
        assert len(matches) == 2
        assert all(p.pole_order_p0 == 2 for p in matches)
        assert all(p.kind == "regular" for p in matches)

    def test_census_is_sorted_and_deterministic(self):
        ode = build_deformed_zero_energy(0.4, DeformationParams(0.01, 0.05))
        a = [repr(p.location) for p in singular_points(ode)]
        b = [repr(p.location) for p in singular_points(ode)]
        assert a == b
        finite = [p.location for p in singular_points(ode)[:-1]]
        assert finite == sorted(finite, key=lambda z: (z.real, z.imag))


class TestIndicialExponents:
    def test_hypergeometric_at_origin(self):
        a, b, c = _hyp_abc()
        rho = indicial_exponents(hypergeometric_ode(a, b, c), 0.0)
        assert rho[0] == pytest.approx(0.0, abs=1e-14)
        assert rho[1] == pytest.approx(1.0 - c, rel=1e-14)

    def test_hypergeometric_at_one(self):
        # pairs come back sorted by descending real part
        a, b, c = _hyp_abc()
        rho = indicial_exponents(hypergeometric_ode(a, b, c), 1.0)
        assert rho[0] == pytest.approx(0.0, abs=1e-14)
        assert rho[1] == pytest.approx(c - a - b, rel=1e-12)

    def test_hypergeometric_at_infinity(self):
        # solutions go like z^(-a), z^(-b); sigma convention keeps the sign
        a, b, c = _hyp_abc()
        rho = indicial_exponents(hypergeometric_ode(a, b, c), INFINITY)
        assert rho[0] == pytest.approx(-a, rel=1e-14)
        assert rho[1] == pytest.approx(-b, rel=1e-14)

    @staticmethod
    def _fuchs_sum(pts):
        # Fuchs relation with the sigma convention at infinity:
        # sum(finite exponents) - sum(sigma at infinity) = n - 2
        total = 0j
        for p in pts:
            if p.location is INFINITY:
                total -= sum(p.exponents)
            else:
                total += sum(p.exponents)
        return total

    def test_fuchs_relation_four_points(self):
        s = CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.6)
        pts = singular_points(build_ordinary_kg(s))
        total = self._fuchs_sum(pts)
        assert total.real == pytest.approx(len(pts) - 2, abs=1e-10)
        assert total.imag == pytest.approx(0.0, abs=1e-10)

    def test_fuchs_relation_five_points(self):
        params, _ = to_generalized_heun(CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.8), 0.02)
        pts = singular_points(gen_heun_ode(params))
        assert len(pts) == 5
        total = self._fuchs_sum(pts)
        assert total.real == pytest.approx(3.0, abs=1e-9)

    def test_irregular_point_detected(self):
        # p1 = 1/z^2 is a second-order pole: not regular-singular
        ode = RationalCoeffODE((1,), (0, 0, 1), (0,), (1,), ((0, 2, 0),))
        pt = singular_points(ode)[0]
        assert pt.kind == "irregular"
        with pytest.raises(IrregularPointError):
            indicial_exponents(ode, 0.0)

    def test_ordinary_point_trivial_pair(self):
        # an ordinary point still has the local solutions 1 and (z - z0)
        rho = indicial_exponents(hypergeometric_ode(*_hyp_abc()), 0.5)
        assert rho == (1.0 + 0.0j, 0.0 + 0.0j)

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_double_root_within_rounding_is_exact(self, eta):
        # at g = 1/2 the discriminant at infinity, (q1 - 1)^2 - 4 q0, is zero
        # and rounds to a few ulps of its terms; at g = 0.49999999 it is 4e-8,
        # and the pair splits by its square root
        ode = build_ordinary_kg(CoulombSystem(g=0.5, eta=eta))
        assert indicial_exponents(ode, INFINITY) == (-2.5 + 0j, -2.5 + 0j)
        near = build_ordinary_kg(CoulombSystem(g=0.49999999, eta=eta))
        hi, lo = indicial_exponents(near, INFINITY)
        assert hi.imag == lo.imag == 0 and hi.real - lo.real == pytest.approx(2e-4, rel=1e-3)


class TestFrobeniusSeries:
    def test_hypergeometric_coefficients(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=6)
        assert sol.coefficients[0] == 1.0
        assert sol.coefficients[1] == pytest.approx(a * b / c, rel=1e-14)
        c2 = a * (a + 1) * b * (b + 1) / (c * (c + 1) * 2)
        assert sol.coefficients[2] == pytest.approx(c2, rel=1e-14)

    def test_matches_gauss_series_inside_disk(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=80)
        for z in (0.3, -0.55, 0.7j, 0.4 - 0.4j):
            direct = hyp2f1(a, b, c, z)
            series = evaluate(sol, z)
            assert abs(series - direct) <= 1e-12 * abs(direct)

    def test_truncation_order_independence(self):
        ode = build_ordinary_kg(CoulombSystem(g=50 * FINE_STRUCTURE_ALPHA, eta=0.7))
        lo = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=30)
        hi = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=60)
        t = 1.0 / 80.0  # the series at infinity is one in t = 1/u
        v_lo = evaluate(lo, t)
        v_hi = evaluate(hi, t)
        assert abs(v_lo - v_hi) <= 1e-13 * abs(v_hi)

    def test_second_exponent_branch(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 1.0 - c, order=40)
        # z^(1-c) F(a-c+1, b-c+1; 2-c; z) is the second local solution
        z = 0.25
        expected = z ** (1 - c) * hyp2f1(a - c + 1, b - c + 1, 2 - c, z)
        assert abs(evaluate(sol, z) - expected) <= 1e-12 * abs(expected)

    def test_unknown_exponent_rejected(self):
        ode = hypergeometric_ode(*_hyp_abc())
        with pytest.raises(ValueError):
            frobenius_series(ode, 0.0, 0.123, order=10)

    def test_resonant_lower_root_raises(self):
        # c = 2 puts exponents {0, -1} at the origin; the smaller root
        # hits the indicial polynomial again after one step
        ode = hypergeometric_ode(0.3, 0.8, 2.0)
        with pytest.raises(ResonantExponentsError):
            frobenius_series(ode, 0.0, -1.0, order=10)
        frobenius_series(ode, 0.0, 0.0, order=10)  # larger root is fine

    def test_double_root_is_bessel_j0(self):
        # w'' + w'/z + w = 0 has the double exponent 0 at the origin; every
        # pivot is m^2, and the series is J0
        import mpmath

        ode = RationalCoeffODE((1.0,), (0.0, 1.0), (1.0,), (1.0,), ((0, 1, 0),))
        sol = frobenius_series(ode, 0.0, 0.0)
        for z in (0.1, 1.0, 3.0, 2j, 1.5 - 1.5j):
            ref = complex(mpmath.besselj(0, z))
            assert abs(evaluate(sol, z) - ref) <= 1e-14 * abs(ref)

    def test_radius_is_distance_to_next_singularity(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=10)
        assert sol.radius == pytest.approx(1.0)


class TestEvaluation:
    @staticmethod
    def _spherical_cosine(z):
        """(w, w', w'') at z of cos(z)/z, combined from the basis at 2,
        radius 2, whose columns have (w, 2 w') = (1, 0) and (0, 1) there."""
        first, second = taylor_basis(_SPHERICAL_ODE, 2.0)
        w0, dw0 = math.cos(2.0) / 2.0, -math.sin(2.0) / 2.0 - math.cos(2.0) / 4.0
        return [w0 * a + 2.0 * dw0 * b for a, b in zip(evaluate_with_derivatives(first, z),
                                                     evaluate_with_derivatives(second, z))]

    def test_taylor_cosine(self):
        got = self._spherical_cosine(2.5)[0]
        assert got.real == pytest.approx(math.cos(2.5) / 2.5, rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_derivatives_chain(self):
        z = 2.7
        w, dw, d2w = self._spherical_cosine(z)
        c, s = math.cos(z), math.sin(z)
        assert dw.real == pytest.approx(-s / z - c / z ** 2, rel=1e-13)
        assert d2w.real == pytest.approx(-c / z + 2 * s / z ** 2 + 2 * c / z ** 3, rel=1e-13)

    def test_taylor_requires_ordinary_center(self):
        with pytest.raises(ValueError):
            taylor_series(hypergeometric_ode(*_hyp_abc()), 0.0, 1.0, 0.0, order=10)

    def test_outside_radius_raises(self):
        sol = frobenius_series(hypergeometric_ode(*_hyp_abc()), 0.0, 0.0, order=20)
        with pytest.raises(OutOfDomainError):
            evaluate(sol, 1.2)

    def test_value_at_center(self):
        a, b, c = _hyp_abc()
        zero_branch = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=8)
        assert evaluate(zero_branch, 0.0) == 1.0
        neg_branch = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 1.0 - c, order=8)
        with pytest.raises(OutOfDomainError):
            evaluate(neg_branch, 0.0)

    def test_residual_small_inside_disk(self):
        ode = hypergeometric_ode(*_hyp_abc())
        sol = frobenius_series(ode, 0.0, 0.0, order=60)
        for z in (0.2, 0.35 + 0.1j, -0.45):
            assert residual(ode, sol, z) < 1e-10

    def test_residual_at_infinity_branch(self):
        ode = build_ordinary_kg(CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.6))
        rho = indicial_exponents(ode, INFINITY)[1]
        sol = frobenius_series(ode, INFINITY, rho, order=40)
        for u in (50.0, 200.0, 1e3):
            assert residual_at_infinity(ode, sol, u) < 1e-12

    def test_coefficients_stay_in_range_far_out(self):
        # at theta 1e-120 the denominators carry T^-2 = 1e240 and reach
        # degree 6; numerator and denominator each leave the range long
        # before their quotient does, and the triple's top coefficients
        # sit near 1e-241: p1 and p0, read off the triple, against the
        # builder's raw table at 30 digits, for the zero-energy model and
        # the first-order one
        import mpmath

        s = CoulombSystem(g=0.073, eta=0.5)
        cases = [(build_deformed_zero_energy(0.073, DeformationParams(1e-120, 0.0)),
                  _deformed_zero_energy_coeffs(0.073, 1e-120, 0.0))]
        cases += [(build_deformed_first_order_psi(s, theta),
                   gauge(_first_order_phi_coeffs(s.g, s.eta, theta), (0, 1)))
                  for theta in (1e-60, 1e-100)]
        points = [0.3, 2.0, 1e40, 1e70, 1e150, 1e300]
        for ode, table in cases:
            for coeff, (num, den) in zip((ode.p1, ode.p0), table):
                for u in points:
                    with mpmath.workdps(30):
                        ref = complex(mpmath.polyval([mpmath.mpc(c) for c in num[::-1]], u)
                                      / mpmath.polyval([mpmath.mpc(c) for c in den[::-1]], u))
                    assert abs(coeff(u) - ref) <= 1e-14 * abs(ref), (ode.points, u)

    def test_residual_is_nan_where_every_term_underflows(self):
        # at u = 4/radius = 4e60 the dominant branch's w is near 1e-303,
        # and w', w'', p1 w' and p0 w all underflow: nothing is measured,
        # which is not a perfect defect of 0
        ode = build_deformed_zero_energy(0.073, DeformationParams(1e-120, 0.0))
        sol = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=48)
        assert math.isnan(residual_at_infinity(ode, sol, 4.0 / sol.radius))


class TestQuotientNormalization:
    def test_shared_roots_cancel(self):
        # p1 = (z - 1)/((z - 1) z) should reduce to 1/z
        ode = RationalCoeffODE((-1.0, 1.0), (0.0, -1.0, 1.0), (0.0,), (1.0,),
                              ((0, 1, 0), (1, 1, 0)))
        pts = singular_points(ode)
        finite = [p for p in pts if p.location is not INFINITY]
        assert len(finite) == 1
        assert finite[0].location == pytest.approx(0.0)

    def test_constructor_calls_the_class_post_init(self, monkeypatch):
        # perfbench times the normalization by patching __post_init__ on the class
        seen = []
        normalize = RationalCoeffODE.__post_init__
        monkeypatch.setattr(RationalCoeffODE, "__post_init__",
                            lambda ode, *table: seen.append(ode) or normalize(ode, *table))
        ode = RationalCoeffODE((-1.0, 1.0), (0.0, -1.0, 1.0), (0.0,), (1.0,),
                               ((0, 1, 0), (1, 1, 0)))
        assert len(seen) == 1 and seen[0] is ode
        # p1 = 1/z and p0 = 0: P2 = c z, P1 = c, P0 = 0
        p2, p1, p0 = ode._triple
        assert len(p2) == 2 and p2[0] == 0 and p1 == (p2[1],) and not any(p0)
        assert ode.points == ((0j, 1, 0),)

    def test_point_within_rounding_of_a_singular_point_is_refused(self):
        # -i sqrt(b (2 - b)) rounds one ulp off the builder's -i eps_tilde:
        # read as an ordinary point, its exponents (0, 1) made the series
        # for 0 raise a misleading ResonantExponentsError
        b = 0.1416769592301532
        ode = build_ordinary_kg(CoulombSystem(0.2, 1 - b))
        p = -1j * math.sqrt(b * (2 - b))
        r = ode.points[0][0]
        assert p == -0.5131096936168755j and r == -0.5131096936168756j
        with pytest.raises(OutOfDomainError, match="within rounding of the singular point"):
            frobenius_series(ode, p, 0)
        assert frobenius_series(ode, r, 0, order=4).exponent == 0
        # a point off the rounding is ordinary, and Taylor hops are not checked
        assert indicial_exponents(ode, p * (1 + 1e-12)) == (1 + 0j, 0j)
        assert taylor_series(ode, p, 1.0, 0.0, order=4).radius == abs(p - r)

    def test_exponents_are_python_complex(self):
        ode = build_ordinary_kg(CoulombSystem(g=100 * FINE_STRUCTURE_ALPHA, eta=0.5))
        rho = indicial_exponents(ode, INFINITY)
        assert type(rho[0]) is complex
        assert type(rho[1]) is complex


def _built(build, *args):
    """(equation, table): what build(*args) returns, and the raw table it
    handed RationalCoeffODE, ((p1_num, p1_den), (p0_num, p0_den)) with the
    points, before any normalization: the independent reference that the
    equation's triple is checked against."""
    tables = []
    normalize = RationalCoeffODE.__post_init__

    def record(ode, p1_num, p1_den, p0_num, p0_den, points):
        tables.append((((p1_num, p1_den), (p0_num, p0_den)), points))
        normalize(ode, p1_num, p1_den, p0_num, p0_den, points)

    RationalCoeffODE.__post_init__ = record
    try:
        ode = build(*args)
    finally:
        RationalCoeffODE.__post_init__ = normalize
    assert len(tables) == 1
    return ode, tables[0]


def _package_equations(draws):
    """(equation, raw table, {location: (pole order in p1, in p0)}) for
    every equation the package builds, over the CLI's parameter ranges,
    with the finite singular points worked out here from the parameters."""
    rng = random.Random(7)
    for _ in range(draws):
        g = rng.uniform(0.005, 1.0)
        eta = rng.uniform(0.05, 0.999)
        theta = math.exp(rng.uniform(math.log(1e-4), math.log(1.0)))
        theta_prime = rng.choice([0.0, theta, math.exp(rng.uniform(math.log(1e-4), 0.0))])
        s = CoulombSystem(g=g, eta=eta)
        dp = DeformationParams(theta, theta_prime)
        hp, _ = to_heun(g, dp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ghp, _ = to_generalized_heun(s, theta)
        eps = 1j * math.sqrt((1.0 - eta) * (1.0 + eta))
        big = 1j / math.sqrt(dp.total)
        first = {eps: (1, 1), -eps: (1, 1), 1j / math.sqrt(6.0 * theta): (1, 1),
                 -1j / math.sqrt(6.0 * theta): (1, 1)}
        # at theta = theta' the Heun point xi = 1 is ordinary (e = 0, ab + q = 0)
        heun = {0: (1, 1), hp.xi0: (1, 1), **({} if theta_prime == theta else {1: (1, 1)})}
        yield *_built(build_ordinary_kg, s), {0: (1, 1), eps: (1, 1), -eps: (1, 1)}
        yield *_built(build_deformed_zero_energy, g, dp), {0: (1, 0), 1j: (1, 1), -1j: (1, 1),
                                                           big: (1, 2), -big: (1, 2)}
        yield *_built(_first_order_phi, s, theta), first
        yield *_built(build_deformed_first_order_psi, s, theta), {**first, 0: (1, 1)}
        yield *_built(heun_ode, hp), heun
        yield *_built(hypergeometric_ode, hp.a, hp.b, hp.c), {0: (1, 1), 1: (1, 1)}
        yield *_built(gen_heun_ode, ghp), {x: (1, 1) for x in (0, 1, ghp.x1, ghp.x2)}


def _finite_census(ode):
    pts = singular_points(ode)
    assert pts[-1].location is INFINITY
    return {p.location: (p.pole_order_p1, p.pole_order_p0) for p in pts[:-1]}


def _pullback(table):
    """The raw table of the equation for W(t) = w(1/t), pushed by
    ``substitute`` from an equation's raw table: the independent reference
    for the record at infinity. A root r != 0 goes to 1/r with its
    multiplicities; the order of t = 0 in each denominator is its count
    of exactly zero low-order coefficients."""
    pair, points = table
    (n1, d1), (n0, d0) = pulled = substitute(pair, (1,), (0, 1))
    moved = [(1.0 / r, m1, m0) for r, m1, m0 in points if r != 0]
    moved.append((0j, fuchsian._exact_zeros(d1), fuchsian._exact_zeros(d0)))
    return pulled, tuple(moved)


def _ode(table):
    """The RationalCoeffODE of a raw table."""
    ((n1, d1), (n0, d0)), points = table
    return RationalCoeffODE(n1, d1, n0, d0, points)


def _trim(coeffs):
    """Complex tuple with top coefficients below 1e-13 of the largest dropped."""
    c = [complex(x) for x in coeffs]
    scale = max((abs(x) for x in c), default=0.0)
    while len(c) > 1 and abs(c[-1]) <= 1e-13 * scale:
        c.pop()
    return tuple(c)


class TestPolynomialAlgebra:
    def test_census_is_the_builders_points(self):
        # every finite singular point comes from the builder's exact data,
        # none is found numerically: the census lists exactly the points
        # worked out from the parameters, and the pullback's census their
        # reciprocals plus t = 0 when infinity is singular
        for ode, table, expected in _package_equations(150):
            assert _finite_census(ode) == expected, ode.points
            inf = singular_points(ode)[-1]
            pulled = {1.0 / complex(r): orders for r, orders in expected.items() if r != 0}
            if inf.pole_order_p1 > 0 or inf.pole_order_p0 > 0:
                pulled[0j] = (inf.pole_order_p1, inf.pole_order_p0)
            assert _finite_census(_ode(_pullback(table))) == pulled, ode.points

    @pytest.mark.parametrize("coeffs, expected", [
        ((0j, 0j, 1.0), [(0j, 2)]),                                  # u^2
        ((1.0, 0.0, 2.0, 0.0, 1.0), [(-1j, 2), (1j, 2)]),            # (1 + u^2)^2
        ((0.0, 0.0, 1.0, -2.0, 1.0), [(0j, 2), (1 + 0j, 2)]),        # u^2 (u - 1)^2
        ((-6.0, 11.0, -6.0, 1.0), [(1 + 0j, 1), (2 + 0j, 1), (3 + 0j, 1)]),
    ])
    def test_exact_zero_and_double_roots(self, coeffs, expected):
        # each factor stated once: equal points merge and their
        # multiplicities add, so a double root is one point of order two
        factors = tuple((r, 1, 1) for r, m in expected for _ in range(m))
        ode = RationalCoeffODE((1.0,), coeffs, (1.0,), coeffs, factors)
        assert ode.points == tuple((r, m, m) for r, m in expected)
        assert list(_finite_census(ode).items()) == [(r, (m, m)) for r, m in expected]
        if any(m > 1 for _, m in expected):
            # a double root stated once leaves the degree unaccounted for
            with pytest.raises(OutOfDomainError):
                RationalCoeffODE((1.0,), coeffs, (1.0,), coeffs,
                                 tuple((r, 1, 1) for r, _ in expected))

    def test_zero_energy_census_near_confluence(self):
        # +-i and +-i/sqrt(T) meet at T = 1, where they merge into one
        # irregular pair (the numerator of p1 takes one factor back);
        # everywhere else there are exactly five points
        rng = random.Random(11)
        pairs = [(rng.uniform(0.01, 0.6), rng.uniform(0.01, 0.6)) for _ in range(1000)]
        pairs += [(0.4, 0.6), (0.5, 0.5), (0.489, 0.511)]
        merged = 0
        for theta, theta_prime in pairs:
            t = theta + theta_prime
            census = _finite_census(build_deformed_zero_energy(0.3, DeformationParams(theta, theta_prime)))
            if t == 1:
                merged += 1
                assert census == {0: (1, 0), 1j: (1, 3), -1j: (1, 3)}
            else:
                big = 1j / math.sqrt(t)
                assert census == {0: (1, 0), 1j: (1, 1), -1j: (1, 1), big: (1, 2), -big: (1, 2)}
        assert merged >= 2

    def test_polymul_matches_numpy(self):
        # each coefficient is a sum of at most 9 products, which numpy
        # may add in another order: allow 2 * 9 rounding errors of the
        # sum of the products' magnitudes
        rng = random.Random(3)
        eps = 2.0 ** -52
        for _ in range(200):
            a = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rng.randint(1, 9))]
            b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rng.randint(1, 9))]
            ours = fuchsian._polymul(a, b)
            ref = _trim(npoly.polymul(a, b))
            assert len(ours) == len(ref)
            for k, (x, y) in enumerate(zip(ours, ref)):
                size = sum(abs(a[i]) * abs(b[k - i]) for i in range(len(a)) if 0 <= k - i < len(b))
                assert abs(x - y) <= 18 * eps * size
            assert fuchsian._polyadd(a, b) == _trim(npoly.polyadd(a, b))


def _pulled_record(table):
    """The pullback's kind, pole orders and exponents at t = 0, the
    exponents in the z^sigma convention, from its raw quotients: q1 and
    q0 the limits of t p1 and t^2 p0, each a numerator's lowest nonzero
    coefficient over its denominator's one, one or two places up (t = 0
    cancels only by exact zeros, as in RationalCoeffODE)."""
    pulled = _pullback(table)
    m1, m0 = _ode(pulled)._multiplicities(0j)
    if m1 > 1 or m0 > 2:
        return "irregular", m1, m0, None
    ((n1, d1), (n0, d0)), _ = pulled
    j1, j0 = fuchsian._exact_zeros(n1), fuchsian._exact_zeros(n0)
    q1 = n1[j1] / d1[j1 + 1] if m1 == 1 else 0j
    q0 = n0[j0] / d0[j0 + 2] if m0 == 2 else 0j
    s1, s2 = fuchsian._indicial_roots(0j, q1, q0)
    return "regular", m1, m0, fuchsian._sorted_pair(0j - s1, 0j - s2)


class TestRecordAtInfinity:
    """The record at infinity is read off the least-degree form; the
    pullback, built here only to check it, must give the same kind and
    pole orders and, to rounding, the same pair."""

    def test_every_builders_equation_matches_its_pullback(self):
        for ode, table, _ in _package_equations(40):
            rec = fuchsian._local_record(ode, INFINITY)
            kind, m1, m0, exps = _pulled_record(table)
            assert (rec.kind, rec.pole_order_p1, rec.pole_order_p0) == (kind, m1, m0), ode.points
            for got, ref in zip(rec.exponents, exps):
                assert abs(got - ref) <= 8 * math.ulp(abs(ref)), ode.points

    @pytest.mark.parametrize("g", [0.01, 0.3, 0.49, 0.5, 0.6, 1.0])
    def test_exponents_match_the_closed_forms(self, g):
        def close(ode, closed):
            got = indicial_exponents(ode, INFINITY)
            assert all(abs(x - y) <= 4e-15 * abs(y) for x, y in zip(got, closed)), ode.points

        for eta in (0.1, 0.5, 0.9):
            s = CoulombSystem(g=g, eta=eta)
            mu = mu_of_coupling(g)
            close(build_ordinary_kg(s), fuchsian._sorted_pair(-2.5 + mu, -2.5 - mu))
            for theta in (1e-4, 0.01, 0.3):
                close(build_deformed_first_order_psi(s, theta), (-2.0, -10.0 / 3.0))
        for theta in (1e-4, 0.01, 0.3):
            for theta_prime in (0.0, theta, 0.05):
                close(build_deformed_zero_energy(g, DeformationParams(theta, theta_prime)),
                      (-2.0, -3.0 - 2.0 * theta / (theta + theta_prime)))

    @pytest.mark.parametrize("table, orders", [
        (((((0,), (1,)), ((1,), (1,))), ()), (1, 4)),                      # w'' + w = 0
        (((((0.0, -2.0), (1.0,)), ((6.0,), (1.0,))), ()), (3, 4)),         # Hermite
    ], ids=["cosine", "hermite"])
    def test_irregular_infinity_raises(self, table, orders):
        ode = _ode(table)
        rec = fuchsian._local_record(ode, INFINITY)
        assert (rec.kind, rec.pole_order_p1, rec.pole_order_p0) == ("irregular", *orders)
        assert _pulled_record(table) == ("irregular", *orders, None)
        with pytest.raises(IrregularPointError):
            indicial_exponents(ode, INFINITY)

    def test_exact_cancellation_leaves_p1_regular(self):
        # z^2 w'' + 2 z w' - 2 w = 0: B = 2A, so the pullback's p1 is zero
        # and only p0 has a pole at t = 0; sigma^2 + sigma - 2 = 0
        table = (((2.0,), (0.0, 1.0)), ((-2.0,), (0.0, 0.0, 1.0))), ((0j, 1, 2),)
        rec = fuchsian._local_record(_ode(table), INFINITY)
        assert (rec.kind, rec.pole_order_p1, rec.pole_order_p0) == ("regular", 0, 2)
        assert _pulled_record(table) == ("regular", 0, 2, rec.exponents)
        assert rec.exponents == (1 + 0j, -2 + 0j)


class TestSeriesAtInfinity:
    """The series at infinity is read off the same polynomial form and the
    same record as ``indicial_exponents``: no second equation is built."""

    def test_exponent_is_the_records_bit_for_bit(self):
        # the exponent in t is 0j - sigma of the pair indicial_exponents
        # gives, for both roots of the three model equations
        rng = random.Random(13)
        checked = 0
        for _ in range(60):
            s = CoulombSystem(g=rng.uniform(0.005, 1.0), eta=rng.uniform(0.05, 0.999))
            theta = math.exp(rng.uniform(math.log(1e-4), 0.0))
            dp = DeformationParams(theta, math.exp(rng.uniform(math.log(1e-4), 0.0)))
            for ode in (build_ordinary_kg(s), build_deformed_zero_energy(s.g, dp),
                        build_deformed_first_order_psi(s, theta)):
                for sigma in indicial_exponents(ode, INFINITY):
                    try:
                        sol = frobenius_series(ode, INFINITY, sigma, order=4)
                    except ResonantExponentsError:
                        continue
                    assert _bits(sol.exponent) == _bits(0j - sigma), ode.points
                    checked += 1
        assert checked >= 300

    def test_each_root_of_a_close_pair_gets_its_own_series(self):
        # at g = 1/2 - 1e-13 the pair splits by 6.3e-7, inside the 1e-6
        # match of either root; matched to the first root within 1e-6,
        # the second request returned the first root's series
        ode = build_ordinary_kg(CoulombSystem(g=0.5 - 1e-13, eta=0.5))
        pair = (-2.4999996831969673 + 0j, -2.5000003168030327 + 0j)
        assert indicial_exponents(ode, INFINITY) == pair
        first, second = (frobenius_series(ode, INFINITY, sigma, order=8) for sigma in pair)
        assert (first.exponent, second.exponent) == (0j - pair[0], 0j - pair[1])
        assert first.coefficients[1] != second.coefficients[1]
        # the exact double root at g = 1/2 is matched as before
        double = build_ordinary_kg(CoulombSystem(g=0.5, eta=0.5))
        assert frobenius_series(double, INFINITY, -2.5, order=8).exponent == 2.5 + 0j

    def test_no_equation_is_built(self, monkeypatch):
        ode = build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02))
        made = []
        normalize = RationalCoeffODE.__post_init__
        monkeypatch.setattr(RationalCoeffODE, "__post_init__",
                            lambda work, *table: made.append(work) or normalize(work, *table))
        for sigma in indicial_exponents(ode, INFINITY):
            frobenius_series(ode, INFINITY, sigma, order=8)
        assert made == []

    def test_regular_infinity_below_a_double_pole_of_p0(self):
        # w'' + (3/z) w' + z^-3 w = 0: in t = 1/z, p0 has a simple pole
        # (m0 = 1), so the triple's C / t^2 starts at a zero-filled C_2 = 0.
        # Exponents 0 and -2; the series for -2 is t^2 (1 - t/3 + t^2/24 - ...)
        table = (((3.0,), (0.0, 1.0)), ((1.0,), (0.0, 0.0, 0.0, 1.0))), ((0, 1, 3),)
        ode = _ode(table)
        rec = singular_points(ode)[-1]
        assert (rec.kind, rec.pole_order_p1, rec.pole_order_p0) == ("regular", 1, 1)
        assert rec.exponents == (0j, -2 + 0j)
        assert _pulled_record(table) == ("regular", 1, 1, rec.exponents)
        sol = frobenius_series(ode, INFINITY, -2.0, order=4)
        assert (sol.exponent, sol.radius, sol.scale) == (2, math.inf, 1.0)
        assert sol.coefficients[:3] == pytest.approx((1.0, -1.0 / 3.0, 1.0 / 24.0), rel=1e-15)


def _full_sum_recurrence(p2, p1, p0, kappa, rho, order, seeds):
    """The recurrence summed over every k < m, with no band."""

    def at(poly, j):
        return poly[j] if 0 <= j < len(poly) else 0j

    coeffs = list(seeds)
    for m in range(len(seeds), order + 1):
        acc = 0j
        for k in range(m):
            s = rho + k
            term = (at(p2, kappa + m - k) * s * (s - 1.0)
                    + at(p1, kappa - 1 + m - k) * s
                    + at(p0, kappa - 2 + m - k))
            if term != 0j and coeffs[k] != 0j:
                acc += coeffs[k] * term
        s = rho + m
        piv = at(p2, kappa) * s * (s - 1.0) + at(p1, kappa - 1) * s + at(p0, kappa - 2)
        coeffs.append(-acc / piv)
    return coeffs


def _product_scaled(p2, p1, p0, scale):
    """The triple for w(z0 + scale y) with the powers of scale built by
    products, the way the series scaled by their radius once were."""

    def scaled(poly, power):
        out = []
        for c in poly:
            out.append(c * power)
            power *= scale
        return out

    return scaled(p2, 1.0), scaled(p1, scale), scaled(p0, scale * scale)


def _model_odes():
    s = CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.6)
    return [build_ordinary_kg(s),
            build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02)),
            _first_order_phi(s, 0.04),
            build_deformed_first_order_psi(s, 0.04)]


def _size(coeffs, z):
    """sum |c_k| |z|^k, the scale of a polynomial's rounding at z."""
    return sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))


class TestLeastDegreeForm:
    def test_products_are_the_least_degree_form(self):
        # P2 = d1 d0 / g with g the factor the denominators share: order
        # max(m1, m0) at each point, and P2 p1 = P1, P2 p0 = P0 for the
        # raw quotients n/d the builder handed over (checked as P2 n = P d,
        # which needs no division near a singular point)
        rng = random.Random(5)
        val = fuchsian._horner
        for _, table, _ in _package_equations(100):
            for raw in (table, _pullback(table)):
                work = _ode(raw)
                p2, p1, p0 = work._triple
                assert len(p2) - 1 == sum(max(m1, m0) for _, m1, m0 in work.points), work.points
                for _ in range(4):
                    z = cmath.rect(math.exp(rng.uniform(-3.0, 3.0)), rng.uniform(0.0, 2 * math.pi))
                    for prod, (num, den) in zip((p1, p0), raw[0]):
                        err = abs(val(p2, z) * val(num, z) - val(prod, z) * val(den, z))
                        size = _size(p2, z) * _size(num, z) + _size(prod, z) * _size(den, z)
                        assert err <= 16 * 2.0 ** -52 * size, (work.points, z)

    @pytest.mark.parametrize("theta", [1e-8, 1e-16, 1e-20])
    def test_series_at_infinity_under_weak_deformation(self, theta):
        # the data at t = 0 of the pullback sit in the lowest coefficients
        # of its products, theta^2 below the largest; the shared factors
        # are multiplied out from the points, so they keep their precision
        ode = build_deformed_zero_energy(0.073, DeformationParams(theta, 0.0))
        dominant = indicial_exponents(ode, INFINITY)[1]
        sol = frobenius_series(ode, INFINITY, dominant, order=48)
        for far in (4.0, 10.0):
            assert residual_at_infinity(ode, sol, far / sol.radius) < 1e-15

    @pytest.mark.parametrize("theta", [1e-60, 1e-120, 1e-150])
    def test_series_at_infinity_in_the_deformation_scale(self, theta):
        # in tau = t / sqrt(theta) the series tends to one limit as theta
        # -> 0, corrections O(theta). The pivot's coefficient, near
        # theta^3 once scaled, and the powers scale^k, which pass 2^-1074
        # from scale^6 at theta 1e-120, must not underflow (they raised a
        # false resonance, or silently dropped the top terms of P2)
        def in_tau(theta):
            ode = build_deformed_zero_energy(0.073, DeformationParams(theta, 0.0))
            sol = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1],
                                   order=24)
            ratio = sol.radius / sol.scale  # radius = sqrt(theta)
            return [c * ratio ** k for k, c in enumerate(sol.coefficients)]

        for got, ref in zip(in_tau(theta), in_tau(1e-20)):
            assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0)


    def test_products_keep_the_equation_at_large_u(self):
        # at theta 1e-120 the far pair +-i/sqrt(theta) spreads the monic
        # coefficients over 1e240; one shared factor s0 s1 put P2's, P1's
        # and P0's top coefficients below the range, so every hop past
        # u ~ theta^(-1/2) solved an equation with exponents (-2, -4)
        # (checked against the builder's raw table, whose terms at u = 1e63
        # are all positive and in range)
        g = 10 * FINE_STRUCTURE_ALPHA
        ode = build_deformed_zero_energy(g, DeformationParams(1e-120, 0.0))
        (n1, d1), (n0, d0) = _deformed_zero_energy_coeffs(g, 1e-120, 0.0)
        p2, p1, p0 = ode._triple
        val, u = fuchsian._horner, 1e63
        assert u * val(p1, u) / val(p2, u) == pytest.approx(u * val(n1, u) / val(d1, u), rel=1e-12)
        assert u * u * val(p0, u) / val(p2, u) == pytest.approx(u * u * val(n0, u) / val(d0, u),
                                                                rel=1e-12)


class TestBandedRecurrence:
    """The banded recurrence skips only terms that are exactly zero, so
    it must reproduce the full sum bit for bit."""

    @pytest.mark.parametrize("point", [0j, INFINITY], ids=["origin", "infinity"])
    @pytest.mark.parametrize("model", range(4))
    def test_frobenius_matches_full_sum(self, model, point):
        ode = _model_odes()[model]
        p2, p1, p0, kappa = fuchsian._triple_at(ode, point)
        assert kappa == fuchsian._exact_zeros(p2)  # the order of P2 there
        compared = 0
        for exponent in indicial_exponents(ode, point):
            try:
                sol = frobenius_series(ode, point, exponent, order=40)
            except ResonantExponentsError:
                continue
            ref = _full_sum_recurrence(p2, p1, p0, kappa, sol.exponent, 40, [1 + 0j])
            # taken in x / scale, scale a power of two: undone exactly
            assert math.frexp(sol.scale)[0] == 0.5
            assert sol.scale <= min(sol.radius, 1.0) < 2.0 * sol.scale
            assert [c / sol.scale ** k for k, c in enumerate(sol.coefficients)] == ref
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("model", range(4))
    def test_taylor_matches_full_sum(self, model):
        # taken in (z - center) / radius: the radius's powers by products
        # round as its mantissa's do, and the powers of two are exact, so
        # the oracle on the triple scaled by products agrees bit for bit
        ode = _model_odes()[model]
        center = 0.37 + 0.11j
        sol = taylor_series(ode, center, 0.8 - 0.2j, 1.3 + 0.4j, order=40)
        p2, p1, p0 = _product_scaled(*fuchsian._triple_at(ode, center)[:3], sol.scale)
        ref = _full_sum_recurrence(p2, p1, p0, 0, 0j, len(sol.coefficients) - 1,
                                   [0.8 - 0.2j, (1.3 + 0.4j) * sol.scale])
        assert list(sol.coefficients) == ref

    def test_scaled_triple_takes_its_powers_of_two_exactly(self):
        # w'' + (a/z) w' + (b/z) w = 0 at z0 = scale, with radius |z0|: the
        # scaled P0 carries scale^2, which products of the scale take out of
        # range at 2^600 and to zero at 2^-600; relative to the pivot every
        # scaled coefficient is of order 1 or scale^-1
        import mpmath

        ode = RationalCoeffODE((0.75,), (0, 1), (-0.4,), (0, 1), ((0, 1, 1),))
        for scale in (2.0 ** 600, 1.5 * 2.0 ** 600, 2.0 ** -600, 1.3 * 2.0 ** -600):
            triple = fuchsian._triple_at(ode, scale)[:3]
            got = fuchsian._pow2_scaled_triple(*triple, 0, scale)
            pivot = got[0][0]
            assert 0.5 <= abs(pivot) < 1.0
            for poly, scaled, offset in zip(triple, got, (0, 1, 2)):
                for k, (c, g) in enumerate(zip(poly, scaled), offset):
                    # pivot / triple[0][0] is the exact power of two divided out
                    ref = complex(mpmath.mpc(c) * mpmath.mpf(scale) ** k
                                  * mpmath.mpc(pivot) / mpmath.mpc(triple[0][0]))
                    assert abs(g - ref) <= 4 * k * 2.0 ** -52 * abs(ref), (scale, k)


def _half_disk_cut(pair, tol):
    """The length at which the half-disk tail rule stops both columns of a
    basis pair: two successive sizes ldexp(|c_m|, -m) past the seeds at
    most tol times the largest of that column."""
    largest = [max(math.ldexp(abs(c), -k) for k, c in enumerate(coeffs[:2])) for coeffs in pair]
    quiet = [0, 0]
    for m in range(2, len(pair[0])):
        for i, coeffs in enumerate(pair):
            size = math.ldexp(abs(coeffs[m]), -m)
            largest[i] = max(largest[i], size)
            quiet[i] = quiet[i] + 1 if size <= tol * largest[i] else 0
        if min(quiet) >= 2:
            return m + 1
    return len(pair[0])


def _bits(z):
    """A complex number's two parts as exact hex strings: equal bits, signed zeros included."""
    return z.real.hex(), z.imag.hex()


def _reduced_sum_cases():
    """(series, points): a scaled Taylor hop of a complex equation, a
    Frobenius series at a finite point with exponent 1 - c, and one at
    infinity (points in t = 1/u), each at real and complex points inside
    its trusted disk."""
    ode = _model_odes()[0]
    hop = taylor_series(ode, 0.37 + 0.11j, 0.8 - 0.2j, 1.3 + 0.4j, order=40)
    assert hop.scale == hop.radius != 1.0
    a, b, c = _hyp_abc()
    finite = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 1.0 - c, order=40)
    assert finite.exponent != 0
    at_infinity = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=40)
    near_hop = [hop.expansion_point + 0.45 * hop.radius * cmath.exp(1j * phi)
                for phi in (0.0, 1.1, 2.9, -2.0)]
    return [(hop, near_hop),
            (finite, [0.3, -0.42, 0.2 + 0.25j, -0.1 - 0.3j]),
            (at_infinity, [1.0 / u for u in (50.0, 1e3, 200.0 + 30j, -80.0 - 400j)])]


class TestReducedSums:
    """``evaluate`` sums only the value, the same bits as the full sums
    give it; ``reach`` seeds each hop from the last one's w and w'."""

    def test_value_alone_is_the_value_with_derivatives(self):
        ode = _model_odes()[0]
        for sol, points in _reduced_sum_cases():
            full = [_bits(evaluate_with_derivatives(sol, z)[0]) for z in points]
            assert [_bits(evaluate(sol, z)) for z in points] == full, sol.expansion_point
            if sol.exponent == 0:  # a hop of ode: read through reach, no hop added
                chain = [sol]
                assert [_bits(evaluate(chain[reach(ode, chain, z, 40)], z))
                        for z in points] == full
                assert chain == [sol]

    def test_value_and_slope_alone_are_the_first_two_of_three(self):
        for sol, points in _reduced_sum_cases():
            for z in points:
                full = evaluate_with_derivatives(sol, z)
                assert list(map(_bits, evaluate_with_derivatives(sol, z, 1))) == \
                    list(map(_bits, full[:2])), (sol.expansion_point, z)

    def test_analytic_series_at_its_centre_reads_its_first_coefficients(self):
        # no sum is run at the centre, and the bits are those the sums give
        ode = _model_odes()[0]
        for sol in (taylor_series(ode, 0.37 + 0.11j, 0.8 - 0.2j, 1.3 + 0.4j, order=40),
                    *fuchsian.taylor_basis(ode, 40.0, 1e-10, 0.19)):
            centre = sol.expansion_point
            summed = fuchsian._series_sums(sol.coefficients, 0j, sol.scale)
            for derivatives in (1, 2):
                got = evaluate_with_derivatives(sol, centre, derivatives)
                assert list(map(_bits, got)) == list(map(_bits, summed[:derivatives + 1]))

    def test_reach_hops_below_a_radius_of_1e_154(self):
        # each hop's scale is its radius, about 1e-300 here: a w'' sum,
        # divided by the scale squared, which underflows to 0, raised
        # ZeroDivisionError at the first hop
        ode = build_ordinary_kg(CoulombSystem(0.3, 0.5))
        chain = [taylor_series(ode, 1e-300, 1.0, 0.0)]
        k = reach(ode, chain, 3e-300, 64)
        assert k == len(chain) - 1 == 3
        assert abs(evaluate(chain[k], 3e-300) - 1.0) < 1e-12

    @pytest.mark.parametrize("start", ["taylor", "frobenius"])
    def test_reach_is_the_chain_built_by_hand(self, start):
        if start == "taylor":
            ode, target = _model_odes()[0], 40.0 + 0j
            first = taylor_series(ode, 1.0, 0.8 - 0.2j, 1.3 + 0.4j)
        else:
            ode, target = hypergeometric_ode(*_hyp_abc()), 0.9 + 0.3j
            first = frobenius_series(ode, 0.0, 0.0)
        chain = [first]
        reach(ode, chain, target, 64)
        assert len(chain) > 3
        by_hand = [first]
        while len(by_hand) < len(chain):
            prev = by_hand[-1]
            center = complex(prev.expansion_point)
            nxt = center + (target - center) / abs(target - center) * (0.4 * prev.radius)
            by_hand.append(taylor_series(ode, nxt, *evaluate_with_derivatives(prev, nxt)[:2], 64))
        for got, ref in zip(chain, by_hand):
            assert _bits(complex(got.expansion_point)) == _bits(complex(ref.expansion_point))
            assert list(map(_bits, got.coefficients)) == list(map(_bits, ref.coefficients))


class TestRealArithmetic:
    """A real equation read at real points runs in floats, with the bits of
    the real parts that the same calls at complex points give."""

    @staticmethod
    def _same_bits(real, complex_route):
        assert [type(v) for v in real] == [float] * len(real)
        assert [type(v) for v in complex_route] == [complex] * len(real)
        assert [v.hex() for v in real] == [v.real.hex() for v in complex_route]

    def test_hop_reads_with_derivatives(self):
        # w' and w'' take x ** (rho - 1) and x ** (rho - 2) at rho = 0, which
        # complex arithmetic forms by products; a float's C pow differs in
        # about 0.08% and 26% of reads
        ode = _model_odes()[1]  # the zero-energy model, the only real one
        assert ode._real and not any(m._real for m in _model_odes()[::2])
        rng = random.Random(5)
        for center in (3.0, 40.0, 2.5e3):
            real = taylor_series(ode, center, 1.0, -0.3)
            route = taylor_series(ode, complex(center), 1 + 0j, -0.3 + 0j)
            self._same_bits(real.coefficients, route.coefficients)
            for _ in range(400):
                z = center + real.radius * rng.uniform(-0.45, 0.45)
                self._same_bits([*evaluate_with_derivatives(real, z), evaluate(real, z)],
                                [*evaluate_with_derivatives(route, complex(z)),
                                 evaluate(route, complex(z))])

    def test_frobenius_series_at_real_exponents(self):
        # the exponents 0 and 1 - c of a real Heun block at 0
        ode = heun_ode(HeunParams(xi0=-0.35, q=0.2, a=0.9, b=1.7, c=1.4, d=1.1, e=1.1))
        rng = random.Random(6)
        for rho in (0.0, -0.4):
            real, route = frobenius_series(ode, 0, rho), frobenius_series(ode, 0j, rho)
            assert type(real.exponent) is float and type(route.exponent) is complex
            self._same_bits(real.coefficients, route.coefficients)
            for z in (rng.uniform(1e-3, 0.17) for _ in range(200)):
                self._same_bits([*evaluate_with_derivatives(real, z), evaluate(real, z)],
                                [*evaluate_with_derivatives(route, complex(z)),
                                 evaluate(route, complex(z))])

    def test_basis_hop_reads_in_floats(self):
        # the exponent hop of asymptotics: its transfer matrices, their
        # determinants and its max_residual, read at real points, against
        # a fresh hop built and read at complex ones; the ordinary model's
        # hop stays complex and reads the same either way
        real_ode = build_deformed_zero_energy(28 * FINE_STRUCTURE_ALPHA,
                                              DeformationParams(0.0600452, 0.188118))
        ordinary = build_ordinary_kg(CoulombSystem(0.3, 0.7))
        ratio = 2.0 ** 0.25
        for hi in (7.0, 180.0, 2.5e4):
            mid, low = hi / ratio, hi / ratio ** 2
            reads = [(hi, mid), (mid, low), (hi, low), (hi / ratio ** 0.5, hi)]
            for ode in (real_ode, ordinary):
                hop = integrate(ode, mid, hi, 1e-10, span=hi - mid)
                route = integrate(ode, complex(mid), complex(hi), 1e-10, span=hi - mid)
                assert type(hop.max_residual) is float
                assert hop.max_residual.hex() == route.max_residual.hex()
                for u, v in reads:
                    m, det = hop.matrix(u, v)
                    m_route, det_route = route.matrix(complex(u), complex(v))
                    if ode is ordinary:
                        assert [*m, det] == [*m_route, det_route]
                        assert {type(x) for x in (*m, det)} == {complex}
                    else:
                        self._same_bits([*m, det], [*m_route, det_route])

    def test_exponents_of_a_real_equation_stay_complex_arithmetic(self):
        # q1 and q0 come off a float triple; a float (q1 - 1) ** 2 is C's pow
        # and would move these by up to 2 ulps
        ode = build_deformed_zero_energy(28 * FINE_STRUCTURE_ALPHA,
                                         DeformationParams(0.0600452, 0.188118))
        assert ode._real
        assert [_bits(s) for s in indicial_exponents(ode, INFINITY)] == [
            ("-0x1.ffffffffffffep+0", "0x0.0p+0"), ("-0x1.bdf0fe502b5cfp+1", "0x0.0p+0")]


class TestTaylorBasis:
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("tol", [1e-10, 1e-16])
    def test_each_column_has_the_bits_of_one_column(self, index, tol):
        # the shared pass runs until both tails have settled; up to where a
        # column stops alone, it is the same sums in the same order. A
        # column alone is the recurrence's one-column pass on the same
        # triple, which taylor_series runs at the default tol for the
        # first; the second starts from a zero first coefficient, so its
        # first scatter step is the second column's alone. The reference is
        # seeded in the hops' own arithmetic: floats on the real zero-energy
        # triple, complex on the others
        ode = _model_odes()[index]
        for center in (3.0, 40.0, 2.5e3):
            pair = fuchsian.taylor_basis(ode, center, tol)
            (p2, p1, p0), radius = fuchsian._taylor_triple(ode, center)
            zero = 0.0 if ode._real else 0j
            assert type(pair[0].coefficients[0]) is type(zero) is type(p2[0])
            for series, seeds in zip(pair, ([1 + zero, zero], [zero, 1 + zero])):
                alone = fuchsian._recurrence(p2, p1, p0, 0, zero, 64, seeds, tol)
                if tol == fuchsian._TAIL_TOL and seeds[0]:
                    hop = taylor_series(ode, center, 1.0, 0.0, 64)
                    assert list(map(_bits, hop.coefficients)) == list(map(_bits, alone))
                    assert (hop.radius, hop.scale) == (radius, radius)
                n = len(alone)
                assert len(series.coefficients) >= n
                assert [_bits(c) for c in series.coefficients[:n]] == [_bits(c) for c in alone]
                assert (series.radius, series.scale) == (radius, radius)
            assert pair[1].coefficients[:2] == (0j, 1 + 0j)
            assert len(pair[1].coefficients) == len(pair[0].coefficients)

    @pytest.mark.parametrize("index", range(4))
    def test_tail_is_cut_on_the_disk_it_is_read(self, index):
        # term sizes |c_m| d^m: at the default d = 1/2 the series stop where
        # the half-disk rule, term sizes ldexp(|c_m|, -m), stops them, and
        # on a smaller disk a shorter series whose last two terms there lie
        # below tol times the largest
        ode, tol = _model_odes()[index], 1e-10
        for center in (3.0, 40.0, 2.5e3):
            half = fuchsian.taylor_basis(ode, center, tol)
            full = [s.coefficients for s in fuchsian.taylor_basis(ode, center, None)]
            n = _half_disk_cut(full, tol)
            assert [list(map(_bits, s.coefficients)) for s in half] == [
                list(map(_bits, coeffs[:n])) for coeffs in full]
            small = fuchsian.taylor_basis(ode, center, tol, 0.19)
            assert len(small[0].coefficients) < len(half[0].coefficients)
            for series in small:
                sizes = [abs(c) * 0.19 ** m for m, c in enumerate(series.coefficients)]
                assert max(sizes[-2:]) <= tol * max(sizes)


class TestContinuationChain:
    def test_tail_rule_picks_order_from_tol(self):
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        coarse = taylor_basis(ode, 3.0, 1e-5)[0]
        fine = taylor_basis(ode, 3.0, 1e-12)[0]
        assert len(coarse.coefficients) < len(fine.coefficients) < 65
        # the tail-truncated series is the plain one in x / radius
        p2, p1, p0, _ = fuchsian._triple_at(ode, 3.0)
        plain = _full_sum_recurrence(p2, p1, p0, 0, 0j, len(fine.coefficients) - 1, [1.0, 0.0])
        assert fine.scale == fine.radius
        for k, (c, ref) in enumerate(zip(fine.coefficients, plain)):
            assert c == pytest.approx(ref * fine.radius**k, rel=1e-9)
        z = 3.0 + 0.45 * fine.radius
        unscaled = fuchsian.FrobeniusSolution(3.0, 0j, tuple(plain), fine.radius)
        for a, b in zip(evaluate_with_derivatives(fine, z), evaluate_with_derivatives(unscaled, z)):
            assert a == pytest.approx(b, rel=1e-11)

    def test_scaled_coefficients_stay_finite_far_out(self):
        # unscaled, c_k ~ u^-k underflows by k = 30 at u = 1e12
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        sol = taylor_series(ode, 1e12, 1e-24, -2e-36, order=64)
        assert sol.radius > 1e11
        assert all(math.isfinite(abs(c)) for c in sol.coefficients)
        assert min(abs(c) for c in sol.coefficients[:2]) > 1e-30

    def test_tail_rule_needs_finite_radius(self):
        # with no finite singular point the disk has no radius to scale by
        with pytest.raises(ValueError, match="finite radius"):
            taylor_series(_COS_ODE, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="finite radius"):
            taylor_basis(_COS_ODE, 0.0, tol=1e-10)

    def test_dense_output_matches_pointwise_evaluation(self):
        # points in order along the path, each reached from the disk that
        # held the last and read off the first series whose trusted disk
        # holds it, by its value alone; the solution is cos(z)/z, and each
        # hop's radius is its distance to 0, so the hops grow by 1.4
        def walk(chain, points):
            out, k = [], 0
            for x in points:
                k = reach(_SPHERICAL_ODE, chain, complex(x), 64, k)
                out.append(evaluate(chain[k], x))
            return out

        def exact(x):
            return math.cos(x) / x

        def seeded(x, factor):
            slope = -math.sin(x) / x - math.cos(x) / x ** 2
            return taylor_series(_SPHERICAL_ODE, x, factor * exact(x), factor * slope)

        chain = [seeded(1.0, 1.0)]
        last = reach(_SPHERICAL_ODE, chain, 10.0 + 0j, 64)
        assert last == len(chain) - 1 == 6  # centres 1.4^k up to 7.53
        points = [1.0, 1.2, 1.21, 3.3, 7.77, 10.0]
        for x, w in zip(points, walk(chain, points)):
            assert w == pytest.approx(exact(x), abs=1e-13)
        assert len(chain) == 7  # every point lay in a disk already built
        with pytest.raises(OutOfDomainError):
            evaluate(chain[last], 16.0)
        # a second hop seeded with twice the solution shows which disk was
        # read: 1.2 and 1.45 lie in both, 1.8 in the second alone
        doubled = [chain[0], seeded(1.4, 2.0)]
        got = walk(doubled, [1.2, 1.45, 1.8])
        assert len(doubled) == 2
        assert got == pytest.approx([exact(1.2), exact(1.45), 2.0 * exact(1.8)], abs=1e-13)

    @pytest.mark.parametrize("u0, u_end", [(1.0, 1e4), (1e4, 2.0), (0.5, 60.0), (60.0, 0.5)])
    def test_walking_a_real_ray_builds_the_chain_of_one_reach(self, u0, u_end):
        # on a real ray every hop heads exactly toward the end, so reaching
        # the points one by one, then the end, builds the hops one reach to
        # the end builds, bit for bit, and each point is read off the first
        # disk of that chain that holds it
        ode = build_ordinary_kg(CoulombSystem(g=0.3, eta=0.5))
        step = (u_end / u0) ** (1.0 / 60)
        points = [u0 * step ** i for i in range(60)] + [u_end]

        def start():
            return [taylor_basis(ode, u0)[0]]

        whole = start()
        reach(ode, whole, complex(u_end), 64)
        walked, k = start(), 0
        for u in points:
            k = reach(ode, walked, complex(u), 64, k)
            assert k == next(j for j, sol in enumerate(whole)
                             if abs(u - sol.expansion_point) <= 0.5 * sol.radius)
        reach(ode, walked, complex(u_end), 64, k)
        assert len(walked) == len(whole) >= 10
        for got, ref in zip(walked, whole):
            assert _bits(got.expansion_point) == _bits(ref.expansion_point)
            assert got.radius == ref.radius
            assert list(map(_bits, got.coefficients)) == list(map(_bits, ref.coefficients))

    def test_inward_path_gets_the_hops_it_needs(self):
        # from u = 1e47 down to 10 each hop covers 0.4 of the distance to
        # the origin, about 220 hops; the budget counts the path against
        # the target's distance to the nearest singular point
        ode = build_ordinary_kg(CoulombSystem(g=10 * FINE_STRUCTURE_ALPHA, eta=0.5))
        chain = [taylor_series(ode, 1e47, 1.0, -3e-47, order=64)]
        last = reach(ode, chain, 10.0 + 0j, 64)
        assert 200 < last == len(chain) - 1 < 300

    def test_hop_budget_ends_in_convergence_error(self):
        # a straight path through the singular point 0: each hop covers 0.4
        # of the distance left to it, so no number of hops gets past it
        chain = [taylor_series(_SPHERICAL_ODE, -1.0, 1.0, 0.0, order=16)]
        with pytest.raises(ConvergenceError):
            reach(_SPHERICAL_ODE, chain, 1.0 + 0j, 16)
