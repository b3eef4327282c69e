"""Hypergeometric and Heun evaluation against independent references.

mpmath supplies the 2F1 reference values; the Heun side is checked by
degeneration to 2F1 and by playing the explicit three-term recurrence
against the generic Frobenius engine.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcoulomb import fuchsian
from kgcoulomb.errors import OutOfDomainError, ParameterPoleError, ResonantExponentsError
from kgcoulomb.kgmodels import to_heun
from kgcoulomb.physcore import CoulombSystem, DeformationParams
from kgcoulomb.spectra import energy_closed_form
from kgcoulomb.specialfn import (
    HeunParams,
    heun_local,
    heun_ode,
    hyp2f1,
    hyp2f1_with_derivatives,
    hypergeometric_ode,
    psi_ordinary,
    psi_ordinary_with_derivative,
)

mp.mp.dps = 30

_ABC = (0.7, 1.3, 1.9)


def _ref_2f1(a, b, c, z):
    return complex(mp.hyp2f1(a, b, c, mp.mpc(z)))


class TestHyp2f1:
    def test_log_value(self):
        # 2F1(1,1;2;z) = -log(1-z)/z, so z = 1/2 gives 2 log 2
        got = hyp2f1(1, 1, 2, 0.5)
        assert got.real == pytest.approx(2 * math.log(2), rel=1e-14)
        assert got.imag == 0.0

    def test_reference_grid(self):
        a, b, c = _ABC
        for zr in (-0.9, -0.5, -0.1, 0.1, 0.45, 0.8):
            for zi in (-0.4, 0.0, 0.3):
                z = complex(zr, zi)
                if abs(z) >= 0.95:
                    continue
                ref = _ref_2f1(a, b, c, z)
                assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    def test_pfaff_region(self):
        # |z| > 1 but z/(z-1) inside the unit disk
        a, b, c = _ABC
        z = -3.6
        ref = _ref_2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    def test_terminating_everywhere(self):
        # polynomial case stays valid far outside both series regions
        ref = _ref_2f1(0.7, -3, 1.9, 2.5)
        assert abs(hyp2f1(0.7, -3, 1.9, 2.5) - ref) <= 1e-13 * abs(ref)
        ref = _ref_2f1(-4, 1.3, 1.9, -7.0)
        assert abs(hyp2f1(-4, 1.3, 1.9, -7.0) - ref) <= 1e-13 * abs(ref)

    def test_terminating_is_polynomial_degree(self):
        # a = -2 truncates after the quadratic term
        a, b, c = -2, 1.3, 1.9
        z = 0.4
        explicit = 1 + a * b / c * z + a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2 * z**2
        assert hyp2f1(a, b, c, z).real == pytest.approx(explicit, rel=1e-15)

    def test_unity_argument_rejected(self):
        with pytest.raises(OutOfDomainError):
            hyp2f1(*_ABC, 1.0)

    def test_uncovered_region_rejected(self):
        # z = 1.2: |z| > 1 and |z/(z-1)| = 6
        with pytest.raises(OutOfDomainError):
            hyp2f1(*_ABC, 1.2)

    def test_parameter_pole(self):
        with pytest.raises(ParameterPoleError):
            hyp2f1(0.7, 1.3, 0, 0.5)
        with pytest.raises(ParameterPoleError):
            hyp2f1(0.7, 1.3, -2.0, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.8, 0.8), st.floats(0.2, 2.0), st.floats(0.2, 2.0))
    def test_argument_symmetry(self, z, a, b):
        c = a + b + 0.9
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), rel=1e-13)


class TestHyp2f1Derivatives:
    def test_contiguous_path(self):
        a, b, c = _ABC
        z = 0.31
        f0, f1, f2 = hyp2f1_with_derivatives(a, b, c, z)
        r0 = _ref_2f1(a, b, c, z)
        r1 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z))
        r2 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z, 2))
        assert abs(f0 - r0) <= 1e-12 * abs(r0)
        assert abs(f1 - r1) <= 1e-12 * abs(r1)
        assert abs(f2 - r2) <= 1e-12 * abs(r2)

    def test_terminating_path(self):
        # term-by-term derivative of the polynomial, valid at |z| > 1
        b, c = 1.3, 1.9
        z = 2.2
        f0, f1, f2 = hyp2f1_with_derivatives(-4, b, c, z)
        r0 = _ref_2f1(-4, b, c, z)
        r1 = complex(mp.diff(lambda t: mp.hyp2f1(-4, b, c, t), z))
        r2 = complex(mp.diff(lambda t: mp.hyp2f1(-4, b, c, t), z, 2))
        assert abs(f0 - r0) <= 1e-12 * abs(r0)
        assert abs(f1 - r1) <= 1e-12 * abs(r1)
        assert abs(f2 - r2) <= 1e-12 * abs(r2)

    def test_satisfies_own_ode(self):
        a, b, c = _ABC
        ode = hypergeometric_ode(a, b, c)
        for z in (0.15, -0.4, 0.6):
            f0, f1, f2 = hyp2f1_with_derivatives(a, b, c, z)
            resid = f2 + ode.p1(z) * f1 + ode.p0(z) * f0
            assert abs(resid) <= 1e-12 * max(abs(f2), abs(f0))


class TestHeunParams:
    def test_fuchsian_constraint_enforced(self):
        with pytest.raises(ValueError):
            HeunParams(xi0=-0.5, q=0.1, a=1.0, b=2.0, c=1.0, d=1.0, e=0.5)

    def test_degenerate_xi0_rejected(self):
        with pytest.raises(ValueError):
            HeunParams(xi0=0.0, q=0.1, a=1.0, b=2.0, c=1.5, d=1.5, e=1.0)
        with pytest.raises(ValueError):
            HeunParams(xi0=1.0, q=0.1, a=1.0, b=2.0, c=1.5, d=1.5, e=1.0)

    def test_residual_property(self):
        hp = HeunParams(xi0=-0.5, q=0.1, a=1.0, b=2.0, c=1.5, d=1.5, e=1.0)
        assert hp.fuchsian_residual == 0.0


def heun_series_coefficients(params: HeunParams, n: int) -> list[complex]:
    """First n+1 coefficients of the Heun solution analytic at xi = 0,
    H(0) = 1, from the classical three-term recurrence written out
    explicitly: an oracle independent of the banded Frobenius engine."""
    p = params
    h = [1 + 0j]
    prev2 = 0j
    for m in range(1, n + 1):
        prev1 = h[m - 1]
        rise = ((1.0 + p.xi0) * (m - 1.0) * (m - 2.0)
                + (p.c * (1.0 + p.xi0) + p.d + p.e * p.xi0) * (m - 1.0)
                - p.q)
        fall = ((m - 2.0) * (m - 3.0)
                + (p.a + p.b + 1.0) * (m - 2.0)
                + p.a * p.b)
        h.append((rise * prev1 - fall * prev2) / (p.xi0 * m * (m - 1.0 + p.c)))
        prev2 = prev1
    return h


class TestHeunRecurrence:
    # block produced by the deformed zero-energy reduction at
    # g = 0.2, theta = theta' = 0.05
    _BLOCK = HeunParams(
        xi0=-1.0 / 9.0,
        q=-1.5111111111111111,
        a=1.0233088248544093,
        b=1.4766911751455907,
        c=1.5,
        d=2.0,
        e=0.0,
    )

    def test_matches_frobenius_engine(self):
        """The hand recurrence and the banded engine must agree.

        Coefficients grow like |xi0|^-k, so the comparison has to be
        relative.
        """
        rec = heun_series_coefficients(self._BLOCK, 25)
        ser = fuchsian.frobenius_series(heun_ode(self._BLOCK), 0j, 0j, order=25)
        for k, (r, s) in enumerate(zip(rec, ser.coefficients)):
            s /= ser.scale ** k  # the engine's coefficients are in xi / scale
            assert abs(r - s) <= 1e-11 * abs(r), f"coefficient {k}"

    def test_partial_sum_matches_heun_local(self):
        xi = 0.02  # inside half the first disk
        rec = heun_series_coefficients(self._BLOCK, 60)
        direct = sum(h * xi**k for k, h in enumerate(rec))
        assert heun_local(self._BLOCK, xi) == pytest.approx(direct, rel=1e-13)

    def test_pivot_pole(self):
        # c = 0 puts the exponents {0, 1} at xi = 0: no analytic solution
        # with H(0) = 1 in general, and the recurrence pivot vanishes
        with pytest.raises(ResonantExponentsError):
            heun_local(HeunParams(xi0=-0.5, q=0.1, a=1.0, b=2.0, c=0.0, d=2.0, e=2.0), 0.1)


class TestHeunLocal:
    def test_hypergeometric_degeneration(self):
        # d = 0 with q = -a b xi0 removes the singularity at xi0, and the
        # local solution collapses to 2F1(a, b; c; xi)
        a, b, c = _ABC
        hp = HeunParams(xi0=-0.35, q=-a * b * -0.35, a=a, b=b, c=c,
                        d=0.0, e=a + b + 1 - c)
        for xi in (0.05, 0.12, 0.3):
            assert heun_local(hp, xi) == pytest.approx(hyp2f1(a, b, c, xi), rel=1e-12)

    def test_continuation_past_first_disk(self):
        # |xi0| = 0.35 caps the first disk at radius 0.35; xi = 0.3 needs
        # at least one re-expansion step and must agree with the direct
        # series answer of the degenerate case (previous test), so here
        # just check marching is order-stable
        hp = self._generic()
        assert heun_local(hp, 0.55, order=48) == pytest.approx(
            heun_local(hp, 0.55, order=80), rel=1e-11)

    def test_singular_target_rejected(self):
        with pytest.raises(OutOfDomainError):
            heun_local(self._generic(), 1.0)

    # unsorted, real, from the first disk out to several hops
    _GRID = [0.93, 0.05, 0.6, 0.0, 0.99, 0.31, 0.12, 0.75, 0.45, 0.31, 0.999, 0.2]

    @pytest.mark.parametrize("block", ["generic", "unequal", "equal"])
    def test_grid_matches_pointwise(self, block):
        hp = {"generic": self._generic(),
              "unequal": to_heun(0.3, DeformationParams(0.05, 0.02))[0],
              "equal": to_heun(0.3, DeformationParams(0.08, 0.08))[0]}[block]
        assert heun_local(hp, self._GRID) == [heun_local(hp, x) for x in self._GRID]

    def test_complex_point_in_grid_matches_scalar(self):
        hp = self._generic()
        grid = [0.6, 0.4 + 0.3j, 0.9]
        got = heun_local(hp, grid)
        assert got[1] == heun_local(hp, 0.4 + 0.3j)
        assert got[0] == heun_local(hp, 0.6)
        assert got[2] == heun_local(hp, 0.9)

    def test_singular_point_in_grid_rejected(self):
        with pytest.raises(OutOfDomainError) as info:
            heun_local(self._generic(), [0.3, 0.8, 1.0, 0.5])
        assert info.value.index == 2

    @staticmethod
    def _generic():
        return HeunParams(xi0=-0.35, q=0.2, a=0.9, b=1.7, c=1.4, d=1.1, e=1.1)


class TestPsiOrdinary:
    @staticmethod
    def _quantized(z=1, n=0):
        g = CoulombSystem(z=z).g
        return CoulombSystem(z=z, eta=energy_closed_form(g, n))

    def test_tail_exponent(self):
        # psi ~ u^(-5/2 - mu) for large u
        s = self._quantized()
        u1, u2 = 1e3, 1e6
        slope = (math.log(abs(psi_ordinary(s, u2)))
                 - math.log(abs(psi_ordinary(s, u1)))) / math.log(u2 / u1)
        assert slope == pytest.approx(-2.5 - s.mu.real, abs=1e-8)

    def test_terminating_at_small_u(self):
        # on quantization the series terminates, so u below sqrt(3) eps
        # is fine; the value is finite and nonzero
        v = psi_ordinary(self._quantized(), 0.01)
        assert abs(v) > 0.0
        assert math.isfinite(abs(v))

    def test_off_quantization_small_u_rejected(self):
        with pytest.raises(OutOfDomainError):
            psi_ordinary(CoulombSystem(z=1, eta=0.5), 0.01)

    def test_off_quantization_large_u_allowed(self):
        s = CoulombSystem(z=1, eta=0.5)
        # sqrt(3) eps ~ 1.5; above it the Pfaff branch converges
        assert math.isfinite(abs(psi_ordinary(s, 5.0)))

    def test_nonpositive_u_rejected(self):
        s = self._quantized()
        with pytest.raises(OutOfDomainError):
            psi_ordinary(s, 0.0)
        with pytest.raises(OutOfDomainError):
            psi_ordinary(s, -2.0)

    def test_derivative_matches_finite_differences(self):
        s = self._quantized(z=10, n=1)
        for u in (0.5, 2.0, 20.0):
            psi, dpsi = psi_ordinary_with_derivative(s, u)
            assert psi == pytest.approx(psi_ordinary(s, u), rel=1e-14)
            h = 1e-6 * u
            fd = (psi_ordinary(s, u + h) - psi_ordinary(s, u - h)) / (2 * h)
            assert dpsi == pytest.approx(fd, rel=1e-8)
