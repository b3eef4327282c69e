import math
import random
import warnings

import pytest
from numpy.polynomial import polynomial as npoly

from kgcoulomb import fuchsian
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
    evaluate_chain,
    evaluate_with_derivatives,
    frobenius_series,
    indicial_exponents,
    reach,
    residual,
    singular_points,
    taylor_series,
)
from kgcoulomb.specialfn import heun_ode, hyp2f1, hypergeometric_ode
from kgcoulomb.kgmodels import (
    build_deformed_first_order,
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    gen_heun_ode,
    to_generalized_heun,
    to_heun,
)
from kgcoulomb.physcore import CoulombSystem, DeformationParams

# the cosine equation y'' + y = 0: no singular points in the finite plane
_COS_ODE = RationalCoeffODE((0,), (1,), (1,), (1,), ())


def _hyp_abc():
    return 0.7, 1.3, 1.9


class TestSingularPointCensus:
    def test_hypergeometric_census(self):
        ode = hypergeometric_ode(*_hyp_abc())
        pts = singular_points(ode)
        finite = [p.location for p in pts if p.location is not INFINITY]
        assert finite == [0.0, 1.0]
        assert pts[-1].location is INFINITY
        assert all(p.kind == "regular" for p in pts)

    def test_ordinary_model_census(self):
        s = CoulombSystem(z=10, eta=0.6)
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
        s = CoulombSystem(z=10, eta=0.6)
        pts = singular_points(build_ordinary_kg(s))
        total = self._fuchs_sum(pts)
        assert total.real == pytest.approx(len(pts) - 2, abs=1e-10)
        assert total.imag == pytest.approx(0.0, abs=1e-10)

    def test_fuchs_relation_five_points(self):
        params, _ = to_generalized_heun(CoulombSystem(z=30, eta=0.8), 0.02)
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
            series = evaluate(sol, z).value
            assert abs(series - direct) <= 1e-12 * abs(direct)

    def test_truncation_order_independence(self):
        ode = build_ordinary_kg(CoulombSystem(z=50, eta=0.7))
        lo = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=30)
        hi = frobenius_series(ode, INFINITY, indicial_exponents(ode, INFINITY)[1], order=60)
        z = 80.0
        v_lo = evaluate(lo, z).value
        v_hi = evaluate(hi, z).value
        assert abs(v_lo - v_hi) <= 1e-13 * abs(v_hi)

    def test_second_exponent_branch(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 1.0 - c, order=40)
        # z^(1-c) F(a-c+1, b-c+1; 2-c; z) is the second local solution
        z = 0.25
        expected = z ** (1 - c) * hyp2f1(a - c + 1, b - c + 1, 2 - c, z)
        assert abs(evaluate(sol, z).value - expected) <= 1e-12 * abs(expected)

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

    def test_equal_exponents_raise(self):
        ode = hypergeometric_ode(0.3, 0.8, 1.0)
        with pytest.raises(ResonantExponentsError):
            frobenius_series(ode, 0.0, 0.0, order=10)

    def test_radius_is_distance_to_next_singularity(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=10)
        assert sol.radius == pytest.approx(1.0)


class TestEvaluation:
    def test_taylor_cosine(self):
        sol = taylor_series(_COS_ODE, 0.0, 1.0, 0.0, order=40)
        got = evaluate(sol, 0.5).value
        assert got.real == pytest.approx(math.cos(0.5), rel=1e-14)
        assert abs(got.imag) < 1e-15

    def test_derivatives_chain(self):
        sol = taylor_series(_COS_ODE, 0.0, 1.0, 0.0, order=40)
        w, dw, d2w = evaluate_with_derivatives(sol, 0.7)
        assert dw.real == pytest.approx(-math.sin(0.7), rel=1e-13)
        assert d2w.real == pytest.approx(-math.cos(0.7), rel=1e-13)

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
        assert evaluate(zero_branch, 0.0).value == 1.0
        neg_branch = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 1.0 - c, order=8)
        with pytest.raises(OutOfDomainError):
            evaluate(neg_branch, 0.0)

    def test_tail_estimate_is_conservative(self):
        a, b, c = _hyp_abc()
        sol = frobenius_series(hypergeometric_ode(a, b, c), 0.0, 0.0, order=60)
        res = evaluate(sol, 0.4)
        truth = hyp2f1(a, b, c, 0.4)
        assert abs(res.value - truth) <= max(res.error, 1e-14)

    def test_residual_small_inside_disk(self):
        ode = hypergeometric_ode(*_hyp_abc())
        sol = frobenius_series(ode, 0.0, 0.0, order=60)
        for z in (0.2, 0.35 + 0.1j, -0.45):
            assert residual(ode, sol, z) < 1e-10

    def test_residual_at_infinity_branch(self):
        ode = build_ordinary_kg(CoulombSystem(z=10, eta=0.6))
        rho = indicial_exponents(ode, INFINITY)[1]
        sol = frobenius_series(ode, INFINITY, rho, order=40)
        for u in (50.0, 200.0, 1e3):
            assert residual(ode, sol, u) < 1e-12


class TestQuotientNormalization:
    def test_shared_roots_cancel(self):
        # p1 = (z - 1)/((z - 1) z) should reduce to 1/z
        ode = RationalCoeffODE((-1.0, 1.0), (0.0, -1.0, 1.0), (0.0,), (1.0,),
                              ((0, 1, 0), (1, 1, 0)))
        pts = singular_points(ode)
        finite = [p for p in pts if p.location is not INFINITY]
        assert len(finite) == 1
        assert finite[0].location == pytest.approx(0.0)

    def test_exponents_are_python_complex(self):
        ode = build_ordinary_kg(CoulombSystem(z=100, eta=0.5))
        rho = indicial_exponents(ode, INFINITY)
        assert type(rho[0]) is complex
        assert type(rho[1]) is complex


def _package_equations(draws):
    """(equation, {location: (pole order in p1, in p0)}) for every
    equation the package builds, over the CLI's parameter ranges, with
    the finite singular points worked out here from the parameters."""
    rng = random.Random(7)
    for _ in range(draws):
        g = rng.uniform(0.005, 1.0)
        eta = rng.uniform(0.05, 0.999)
        theta = math.exp(rng.uniform(math.log(1e-4), math.log(1.0)))
        theta_prime = rng.choice([0.0, theta, math.exp(rng.uniform(math.log(1e-4), 0.0))])
        s = CoulombSystem(z=1, alpha=g, eta=eta)
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
        yield build_ordinary_kg(s), {0: (1, 1), eps: (1, 1), -eps: (1, 1)}
        yield build_deformed_zero_energy(g, dp), {0: (1, 0), 1j: (1, 1), -1j: (1, 1),
                                                  big: (1, 2), -big: (1, 2)}
        yield build_deformed_first_order(s, theta), first
        yield build_deformed_first_order_psi(s, theta), {**first, 0: (1, 1)}
        yield heun_ode(hp), heun
        yield hypergeometric_ode(hp.a, hp.b, hp.c), {0: (1, 1), 1: (1, 1)}
        yield gen_heun_ode(ghp), {x: (1, 1) for x in (0, 1, ghp.x1, ghp.x2)}


def _finite_census(ode):
    pts = singular_points(ode)
    assert pts[-1].location is INFINITY
    return {p.location: (p.pole_order_p1, p.pole_order_p0) for p in pts[:-1]}


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
        for ode, expected in _package_equations(150):
            assert _finite_census(ode) == expected, ode.label
            inf = singular_points(ode)[-1]
            pulled = {1.0 / complex(r): orders for r, orders in expected.items() if r != 0}
            if inf.pole_order_p1 > 0 or inf.pole_order_p0 > 0:
                pulled[0j] = (inf.pole_order_p1, inf.pole_order_p0)
            assert _finite_census(ode._pullback) == pulled, ode.label

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


def _model_odes():
    s = CoulombSystem(z=10, eta=0.6)
    return [build_ordinary_kg(s),
            build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02)),
            build_deformed_first_order(s, 0.04),
            build_deformed_first_order_psi(s, 0.04)]


class TestBandedRecurrence:
    """The banded recurrence skips only terms that are exactly zero, so
    it must reproduce the full sum bit for bit."""

    @pytest.mark.parametrize("point", [0j, INFINITY], ids=["origin", "infinity"])
    @pytest.mark.parametrize("model", range(4))
    def test_frobenius_matches_full_sum(self, model, point):
        ode = _model_odes()[model]
        work = ode._pullback if point is INFINITY else ode
        p2, p1, p0 = fuchsian._series_triple(work, 0j)
        kappa = fuchsian._vanish_order(p2, 0j)
        compared = 0
        for exponent in indicial_exponents(ode, point):
            try:
                sol = frobenius_series(ode, point, exponent, order=40)
            except ResonantExponentsError:
                continue
            rho = -sol.exponent if point is INFINITY else sol.exponent
            ref = _full_sum_recurrence(p2, p1, p0, kappa, rho, 40, [1 + 0j])
            # taken in x / scale, scale a power of two: undone exactly
            assert math.frexp(sol.scale)[0] == 0.5
            assert sol.scale <= min(sol.radius, 1.0) < 2.0 * sol.scale
            assert [c / sol.scale ** k for k, c in enumerate(sol.coefficients)] == ref
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("model", range(4))
    def test_taylor_matches_full_sum(self, model):
        ode = _model_odes()[model]
        center = 0.37 + 0.11j
        sol = taylor_series(ode, center, 0.8 - 0.2j, 1.3 + 0.4j, order=40)
        p2, p1, p0 = fuchsian._series_triple(ode, center)
        ref = _full_sum_recurrence(p2, p1, p0, 0, 0j, 40, [0.8 - 0.2j, 1.3 + 0.4j])
        assert list(sol.coefficients) == ref


class TestContinuationChain:
    def test_tail_rule_picks_order_from_tol(self):
        ode = build_ordinary_kg(CoulombSystem(z=1, alpha=0.3, eta=0.5))
        coarse = taylor_series(ode, 3.0, 1.0, -0.5, order=64, tol=1e-5)
        fine = taylor_series(ode, 3.0, 1.0, -0.5, order=64, tol=1e-12)
        assert len(coarse.coefficients) < len(fine.coefficients) < 65
        # the tail-truncated series is the plain one in x / radius
        plain = taylor_series(ode, 3.0, 1.0, -0.5, order=len(fine.coefficients) - 1)
        assert fine.scale == fine.radius == plain.radius
        for k, (c, ref) in enumerate(zip(fine.coefficients, plain.coefficients)):
            assert c == pytest.approx(ref * fine.radius**k, rel=1e-9)
        z = 3.0 + 0.45 * fine.radius
        for a, b in zip(evaluate_with_derivatives(fine, z), evaluate_with_derivatives(plain, z)):
            assert a == pytest.approx(b, rel=1e-11)

    def test_scaled_coefficients_stay_finite_far_out(self):
        # unscaled, c_k ~ u^-k underflows by k = 30 at u = 1e12
        ode = build_ordinary_kg(CoulombSystem(z=1, alpha=0.3, eta=0.5))
        sol = taylor_series(ode, 1e12, 1e-24, -2e-36, order=64, tol=1e-10)
        assert sol.radius > 1e11
        assert all(math.isfinite(abs(c)) for c in sol.coefficients)
        assert min(abs(c) for c in sol.coefficients[:2]) > 1e-30

    def test_tail_rule_needs_finite_radius(self):
        with pytest.raises(ValueError):
            taylor_series(_COS_ODE, 0.0, 1.0, 0.0, tol=1e-10)
        sol = taylor_series(_COS_ODE, 0.0, 1.0, 0.0, tol=1e-10, max_radius=2.0)
        assert sol.radius == 2.0

    def test_dense_output_matches_pointwise_evaluation(self):
        chain = [taylor_series(_COS_ODE, 0.0, 1.0, 0.0, order=64, tol=1e-14, max_radius=1.0)]
        last = reach(_COS_ODE, chain, 10.0 + 0j, 64, tol=1e-14, max_radius=1.0)
        assert last == len(chain) - 1 == 24  # hops of 0.4 up to 9.6
        points = [0.0, 0.2, 3.3, 7.77, 10.0]
        w, dw, d2w = evaluate_chain(chain, points)
        for i, x in enumerate(points):
            assert w[i] == pytest.approx(math.cos(x), abs=1e-13)
            assert dw[i] == pytest.approx(-math.sin(x), abs=1e-13)
            assert d2w[i] == pytest.approx(-math.cos(x), abs=1e-12)
        with pytest.raises(OutOfDomainError):
            evaluate_chain(chain, [11.0])

    def test_hop_budget_ends_in_convergence_error(self):
        chain = [taylor_series(_COS_ODE, 0.0, 1.0, 0.0, order=16, tol=1e-8, max_radius=1.0)]
        with pytest.raises(ConvergenceError):
            reach(_COS_ODE, chain, 1e3 + 0j, 16, tol=1e-8, max_radius=1.0)
