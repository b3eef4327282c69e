"""Hypergeometric and Heun evaluation against independent references.

mpmath supplies the 2F1 reference values and the closed-form
wavefunction (``closed_form``); the Heun side is checked by degeneration
to 2F1 and by playing the explicit three-term recurrence against the
generic Frobenius engine.
"""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form
import sweep_oracle
from kgcoulomb import cli, fuchsian, kgmodels, specialfn
from kgcoulomb.errors import (ConvergenceError, KGCoulombError, OutOfDomainError,
                              ParameterPoleError, ResonantExponentsError)
from kgcoulomb.kgmodels import to_heun
from kgcoulomb.physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams
from kgcoulomb.spectra import energy_closed_form
from kgcoulomb.specialfn import (
    HeunParams,
    heun_local,
    heun_ode,
    hyp2f1,
    hypergeometric_ode,
    psi_ordinary,
)

mp.mp.dps = 30

_ABC = (0.7, 1.3, 1.9)


def _ref_2f1(a, b, c, z):
    return complex(mp.hyp2f1(a, b, c, mp.mpc(z)))


def _bits(z):
    """A complex number's two parts as exact hex strings: equal bits, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


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

    @pytest.mark.parametrize("z", [1.9996 - 0.028j, 0.99837])
    def test_near_the_unit_circle(self, z):
        # both lie outside |z| < 1 and |z/(z-1)| < 1, or nearly on its edge
        ref = _ref_2f1(*_ABC, z)
        assert abs(hyp2f1(*_ABC, z) - ref) <= 1e-12 * abs(ref)

    def test_random_points_off_the_cut(self):
        rng = random.Random(12)
        for _ in range(300):
            a, b = (complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(2))
            c = complex(rng.uniform(0.2, 4), rng.uniform(-1, 1))
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z) > 6:
                z *= 6 / abs(z)
            ref = _ref_2f1(a, b, c, z)
            assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref), (a, b, c, z)

    def test_path_that_would_graze_z_equal_1_goes_round_it(self):
        # the straight path to z passes 1 at 3e-5; on it the local solution
        # (1 - z)^(c - a - b), c - a - b = 3.5, swamps an error made near 1
        # by (2 / 3e-5)^3.5, about 1e17
        a, b, c, z = 0.5, -1.5, 2.5, 3.0 + 1e-4j
        ref = _ref_2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    def test_sequence_matches_scalars_and_mpmath(self):
        # the sweep starts again from 0 where the next point lies across
        # the real axis or back toward 0, and continues outward otherwise
        points = [2 - 0.1j, 2 + 0.1j, -5, 0.99837, 3 + 0.01j, -0.8, 0.6, 0.3, 0.7 + 0.5j]
        got = hyp2f1(*_ABC, points)
        for z, value in zip(points, got):
            assert value == pytest.approx(hyp2f1(*_ABC, z), rel=1e-13)
            ref = _ref_2f1(*_ABC, z)
            assert abs(value - ref) <= 1e-12 * abs(ref), z

    @pytest.mark.parametrize("z", [0.3 - 0.1j, 0.85 - 0.3j])
    def test_cancelling_series_is_refused(self, z):
        # b = -211, as psi_ordinary has at g = 0.3, eta = 0.999999: the terms
        # reach 1e24 (z = 0.3 - 0.1i) and 1e36 (the chain's start, z = 1/2),
        # 1e16 times the sums, so no digit of a sum would be right
        with pytest.raises(ConvergenceError, match="cancels"):
            hyp2f1(1.9, -211.1, 1.8, z)

    def test_point_on_the_cut_in_a_sequence_carries_its_index(self):
        with pytest.raises(OutOfDomainError) as info:
            hyp2f1(*_ABC, [0.3, -2.0, 2.0, 0.5j])
        assert info.value.index == 2

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

    def test_polynomial_too_long_to_sum_is_refused(self):
        # every double above 2^52 is an integer: a = -5e149 (heun-check at
        # g = 1e150) made a polynomial of degree 5e149, summed term by term
        with pytest.raises(ConvergenceError, match="too long"):
            hyp2f1(-5e149, 5e149, 1.5, 0.3)
        assert hyp2f1(-9999, 0.5, 1.5, 0.0) == 1.0  # the longest still summed

    def test_unity_argument_rejected(self):
        with pytest.raises(OutOfDomainError):
            hyp2f1(*_ABC, 1.0)

    def test_uncovered_region_rejected(self):
        # z = 1.2 lies on the branch cut [1, inf)
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


def _derivatives_on_chain(a, b, c, z):
    """(F, F', F'') read off the first disk that holds z of a chain of
    Taylor hops of the hypergeometric equation from its series at 0, the
    route acceptance criterion 5 takes."""
    ode = hypergeometric_ode(a, b, c)
    chain = [fuchsian.frobenius_series(ode, 0j, 0j, order=64)]
    return fuchsian.evaluate_with_derivatives(chain[fuchsian.reach(ode, chain, z, 64)], z)


class TestHyp2f1Derivatives:
    def test_contiguous_path(self):
        a, b, c = _ABC
        z = 0.31
        f0, f1, f2 = _derivatives_on_chain(a, b, c, z)
        r0 = _ref_2f1(a, b, c, z)
        r1 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z))
        r2 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z, 2))
        assert abs(f0 - r0) <= 1e-12 * abs(r0)
        assert abs(f1 - r1) <= 1e-12 * abs(r1)
        assert abs(f2 - r2) <= 1e-12 * abs(r2)

    @pytest.mark.parametrize("z", [0.0, -2.5 + 0.7j, 0.9 + 0.4j, 1.9996 - 0.028j])
    def test_continued_path(self, z):
        a, b, c = _ABC
        f0, f1, f2 = _derivatives_on_chain(a, b, c, complex(z))
        r0 = _ref_2f1(a, b, c, z)
        r1 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z))
        r2 = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z, 2))
        assert abs(f0 - r0) <= 1e-12 * abs(r0)
        assert abs(f1 - r1) <= 1e-12 * abs(r1)
        assert abs(f2 - r2) <= 1e-12 * abs(r2)

    def test_satisfies_own_ode(self):
        a, b, c = _ABC
        ode = hypergeometric_ode(a, b, c)
        for z in (0.15, -0.4, 0.6):
            f0, f1, f2 = _derivatives_on_chain(a, b, c, z)
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

    def test_double_root_at_origin(self):
        # c = 1 gives the double exponent 0 at xi = 0; e = 0, q = -a b and
        # d = a + b leave 2F1(a, b; 1; xi / xi0)
        a, b, xi0 = 0.7, 1.3, -2.0
        hp = HeunParams(xi0=xi0, q=-a * b, a=a, b=b, c=1.0, d=a + b, e=0.0)
        xs = [0.05, 0.3, 0.6, 0.9, 0.99]
        for xi, got in zip(xs, heun_local(hp, xs)):
            ref = _ref_2f1(a, b, 1.0, xi / xi0)
            assert abs(got - ref) <= 1e-13 * abs(ref)

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

    def test_first_disk_grid_matches_pointwise_bit_for_bit(self):
        # a narrow wavefunction window: every point inside the first half
        # disk, over many binades of |xi|; each is read off the series at 0
        # cut on the top of its own binade, whatever else the call asks for
        hp, vmap = to_heun(0.3, DeformationParams(0.05, 0.02))
        grid = [vmap.forward(0.01 * 50 ** (k / 49)) for k in range(50)]
        assert max(grid) < 0.5 * min(abs(hp.xi0), 1.0)
        assert len({math.frexp(x)[1] for x in grid}) >= 10
        alone = [_bits(heun_local(hp, x)) for x in grid]
        assert list(map(_bits, heun_local(hp, grid))) == alone
        assert list(map(_bits, heun_local(hp, grid[::-1])))[::-1] == alone
        # a point past the first disk cuts the series on the half disk
        assert list(map(_bits, heun_local(hp, grid + [0.9])))[:-1] == alone

    @pytest.mark.parametrize("bad", [math.nan, complex(0.1, math.nan)])
    def test_nan_target_is_refused_not_summed(self, bad):
        # a nan fails every test of lying inside a disk, so it is sent on
        # to the continuation, which refuses it, grid or single point
        for xi in (bad, [0.01, bad, 0.02]):
            with pytest.raises(OutOfDomainError):
                heun_local(self._generic(), xi)

    def test_cut_series_at_zero_is_a_prefix_of_the_full_one(self):
        hp, _ = to_heun(0.3, DeformationParams(0.05, 0.02))
        ode = heun_ode(hp)
        full = fuchsian.frobenius_series(ode, 0j, 0j, order=64)
        assert len(full.coefficients) == 65
        lengths = []
        for e in range(-24, 2):
            read = math.ldexp(1.0, e)
            cut = fuchsian.frobenius_series(ode, 0j, 0j, order=64, read=read)
            n = len(cut.coefficients)
            assert list(map(_bits, cut.coefficients)) == list(map(_bits, full.coefficients[:n]))
            assert (cut.expansion_point, cut.exponent, cut.radius, cut.scale) == \
                (full.expansion_point, full.exponent, full.radius, full.scale)
            if read <= 0.5 * full.radius:  # below the half disk, the prefix its read keeps
                assert fuchsian._truncate(full, read).coefficients == cut.coefficients
            lengths.append(n)
        # the stop moves out with the read, and the half disk caps it
        assert lengths == sorted(lengths) and lengths[0] < 10 < 30 < lengths[-1]
        assert len(set(lengths[-6:])) == 1

    @staticmethod
    def _generic():
        return HeunParams(xi0=-0.35, q=0.2, a=0.9, b=1.7, c=1.4, d=1.1, e=1.1)


class TestSweepAgainstPerPointLoop:
    """``_sweep`` against the per-point loop of ``sweep_oracle``: the same
    values bit for bit, or the same error type, message and index."""

    @staticmethod
    def _both(hp, targets):
        targets = [complex(x) for x in targets]
        ode = heun_ode(hp)
        top = math.ldexp(1.0, math.frexp(max(map(abs, targets), default=0.0))[1])
        series = fuchsian.frobenius_series(ode, 0j, 0j, read=top)
        visit = range(len(targets))
        out = []
        for run in (lambda: specialfn._sweep(ode, series, targets, visit, fuchsian._MAX_ORDER),
                    lambda: dict(sweep_oracle.sweep(ode, series, targets, visit,
                                                    fuchsian._MAX_ORDER))):
            try:
                out.append({i: _bits(v) for i, v in run().items()})
            except KGCoulombError as exc:
                out.append((type(exc), str(exc), exc.index))
        return out

    def _agree(self, hp, targets):
        new, old = self._both(hp, targets)
        assert new == old
        return new

    @staticmethod
    def _blocks():
        return [TestHeunLocal._generic(), to_heun(0.3, DeformationParams(0.05, 0.02))[0],
                to_heun(0.7, DeformationParams(0.2, 0.01))[0]]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("arrange", ["ascending", "descending", "shuffled"])
    def test_real_grids(self, seed, arrange):
        rng = random.Random(seed)
        for hp in self._blocks():
            half = 0.5 * min(abs(hp.xi0), 1.0)
            grid = [half * 10 ** -rng.uniform(0.0, 6.0) for _ in range(25)]
            grid += [half + (0.95 - half) * rng.random() for _ in range(rng.randrange(0, 6))]
            grid += [0.0] * (seed % 2) + grid[:3]  # the origin and repeated points
            grid.sort(reverse=arrange == "descending")
            if arrange == "shuffled":
                rng.shuffle(grid)
            assert len(self._agree(hp, grid)) == len(grid)

    @pytest.mark.parametrize("seed", range(6))
    def test_complex_points_back_in_the_first_disk(self, seed):
        # the real ray hops past the first disk first, then the complex
        # points restart from 0, some read off the series at 0 again
        rng = random.Random(100 + seed)
        for hp in self._blocks():
            half = 0.5 * min(abs(hp.xi0), 1.0)
            reals = [half * rng.uniform(0.01, 1.0) for _ in range(8)] + [0.9, 0.6]
            near = [half * rng.uniform(0.001, 1.0) * complex(math.cos(a), math.sin(a))
                    for a in (rng.uniform(-math.pi, math.pi) for _ in range(8))]
            far = [rng.uniform(0.2, 0.8) * complex(math.cos(a), math.sin(a))
                   for a in (rng.uniform(0.3, 2.8) * rng.choice((-1, 1)) for _ in range(3))]
            grid = reals + near + far
            rng.shuffle(grid)
            values = self._agree(hp, grid)
            assert isinstance(values, dict) and len(values) == len(grid)

    def test_first_disk_point_visited_on_a_hop_is_read_off_the_hop(self):
        # the real ray hops past the first half disk, and the complex points
        # that follow lie back inside it but within that hop's half disk:
        # they are read off the hop, not off the series at 0
        hp = to_heun(0.3, DeformationParams(0.05, 0.02))[0]
        h = 0.5 * abs(hp.xi0)
        grid = [0.2 * h, 1.3 * h, complex(0.93 * h, 0.02 * h), complex(0.9 * h, -0.01 * h)]
        values = self._agree(hp, grid)
        assert max(map(abs, grid[2:])) <= h
        assert values[3] == _bits(complex(0.6852167767278272, 0.0024066978497136577))

    @pytest.mark.parametrize("bad, message", [
        (-0.35, "sits on a singular point"), (1.0, "sits on a singular point"),
        (1.5, "lies on the branch cut from"), (math.nan, "coefficients overflow at (nan+nanj)"),
        (complex(0.1, math.nan), "coefficients overflow at (nan+nanj)")])
    def test_refused_points_keep_their_error_and_index(self, bad, message):
        hp = TestHeunLocal._generic()
        for grid in ([bad], [0.01, 0.02, bad, 0.1, 0.003], [0.6, bad, 0.01 + 0.01j, 0.9]):
            kind, text, index = self._agree(hp, grid)
            assert kind is OutOfDomainError and message in text
            assert index == next(i for i, x in enumerate(grid) if x is bad)

    def test_tiny_xi0_keeps_the_target_check(self):
        # half the first radius is below the check's 1e-9, so a target
        # inside it may still sit on xi0
        hp = HeunParams(xi0=1e-10, q=0.2, a=0.9, b=1.7, c=1.4, d=1.1, e=1.1)
        for grid in ([1e-11], [0.3, 1e-11]):
            kind, message, index = self._agree(hp, grid)
            assert kind is OutOfDomainError and index == len(grid) - 1
            assert message == "target (1e-11+0j) sits on a singular point"
        with pytest.raises(OutOfDomainError) as info:
            heun_local(hp, [0.3, 1e-11])
        assert info.value.index == 1


class TestRealRouteIsTheComplexRoute:
    """A real equation read at real points runs in floats: ``heun_local``
    and ``hyp2f1`` return floats with the bits, signed zeros included, of
    the real parts that the same calls at complex points return, where
    every series, hop and sum is complex. A complex equation stays complex."""

    @staticmethod
    def _same_bits(real, complex_route):
        assert all(type(v) is float for v in real)
        assert all(type(v) is complex for v in complex_route)
        assert [v.hex() for v in real] == [v.real.hex() for v in complex_route]

    @staticmethod
    def _windows(rng, hi_lo, hi_hi):
        """Deformed wavefunction windows drawn as the benchmark draws them:
        (Heun block, its xi grid)."""
        for _ in range(4):
            theta, theta_prime = (math.exp(rng.uniform(math.log(0.01), math.log(0.3)))
                                  for _ in range(2))
            g, lo = rng.uniform(0.05, 0.9), math.exp(rng.uniform(math.log(0.01), math.log(0.1)))
            hi = math.exp(rng.uniform(math.log(hi_lo), math.log(hi_hi)))
            hp, vmap = to_heun(g, DeformationParams(theta, theta_prime))
            yield hp, vmap.forward(cli._geomspace(lo, hi, cli._WAVEFUNCTION_POINTS))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("hi_lo, hi_hi", [(0.2, 1.0), (100.0, 1000.0)],
                             ids=["narrow", "wide"])
    def test_heun_local_on_wavefunction_windows(self, seed, hi_lo, hi_hi):
        for hp, xis in self._windows(random.Random(seed), hi_lo, hi_hi):
            assert all(type(x) is float for x in xis)
            self._same_bits(heun_local(hp, xis), heun_local(hp, [complex(x) for x in xis]))
            assert type(heun_local(hp, xis[-1])) is float

    @pytest.mark.parametrize("seed", range(3))
    def test_heun_check_grids(self, seed):
        # both sides of heun-check, among them conjugate pairs a, b at large g
        rng = random.Random(seed)
        grid = cli._linspace(0.0, 0.4, cli._HEUN_CHECK_POINTS)
        for g in (rng.uniform(0.05, 0.9), rng.uniform(5.0, 20.0)):
            theta = math.exp(rng.uniform(math.log(0.01), math.log(0.3)))
            hp, _ = to_heun(g, DeformationParams(theta, theta))
            zs = [xi / hp.xi0 for xi in grid]
            assert max(map(abs, zs)) > 0.5  # the 2F1 side runs its chain too
            self._same_bits(heun_local(hp, grid), heun_local(hp, [complex(x) for x in grid]))
            self._same_bits(hyp2f1(hp.a, hp.b, hp.c, zs),
                            hyp2f1(hp.a, hp.b, hp.c, [complex(z) for z in zs]))

    def test_hyp2f1_on_the_real_line_off_the_cut(self):
        rng = random.Random(7)
        zs = [rng.uniform(-6.0, 0.98) for _ in range(40)] + [0.0, 0.5, -0.5]
        for a, b, c in (_ABC, (1.25 - 3.5j, 1.25 + 3.5j, 1.5), (-3.0, 1.3, 1.9)):
            self._same_bits(hyp2f1(a, b, c, zs), hyp2f1(a, b, c, [complex(z) for z in zs]))
            assert type(hyp2f1(a, b, c, 0.75)) is float

    def test_complex_equations_stay_complex(self):
        # the ordinary and first-order models carry 2 i g eta, and a 2F1
        # with a complex parameter is a complex equation at real points too
        system = CoulombSystem(0.3, 0.6)
        for ode in (kgmodels.build_ordinary_kg(system),
                    kgmodels.build_deformed_first_order_psi(system, 0.04)):
            assert not ode._real
            for series in fuchsian.taylor_basis(ode, 40.0):
                assert all(type(c) is complex for c in series.coefficients)
        assert kgmodels.build_deformed_zero_energy(0.3, DeformationParams(0.05, 0.02))._real
        assert all(type(v) is complex for v in hyp2f1(0.7 + 0.1j, 1.3, 1.9, [0.3, 0.8, -2.0]))
        assert all(type(v) is complex for v in psi_ordinary(system, [0.5, 2.0]))


class TestPsiOrdinary:
    @staticmethod
    def _quantized(z=1, n=0):
        g = z * FINE_STRUCTURE_ALPHA
        return CoulombSystem(g=g, eta=energy_closed_form(g, n))

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

    def test_off_quantization_small_u_matches_mpmath(self):
        # the argument 2/(1 + i u/eps) lies near 2, where neither the
        # series nor its Pfaff transform converges
        s = CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=0.5)
        for u in (0.001, 0.01, 0.3, 1.2):
            ref = closed_form.psi(s, u)
            assert abs(psi_ordinary(s, u) - ref) <= 1e-12 * abs(ref)

    def test_off_quantization_large_u_allowed(self):
        s = CoulombSystem(g=FINE_STRUCTURE_ALPHA, eta=0.5)
        # sqrt(3) eps ~ 1.5; above it the argument lies in |z| < 1
        assert math.isfinite(abs(psi_ordinary(s, 5.0)))

    def test_grid_matches_pointwise(self):
        s = CoulombSystem(g=30 * FINE_STRUCTURE_ALPHA, eta=0.6)
        grid = [0.01 * 1.1 ** k for k in range(80)]
        got = psi_ordinary(s, grid)
        for u, value in zip(grid, got):
            assert value == pytest.approx(psi_ordinary(s, u), rel=1e-13)
        assert abs(got[0] - closed_form.psi(s, grid[0])) <= 1e-12 * abs(got[0])

    def test_grid_shares_its_hops(self, monkeypatch):
        # 200 points one by one take 1474 Taylor hops; as one grid, 8: the
        # argument runs inward along |z - 1| = 1 as u grows, and the sweep
        # visits it outward, by ascending modulus, on one chain
        hops = []
        taylor_series = fuchsian.taylor_series
        monkeypatch.setattr(fuchsian, "taylor_series",
                            lambda *args, **kw: hops.append(1) or taylor_series(*args, **kw))
        grid = [0.01 * 100 ** (k / 199) for k in range(200)]
        psi_ordinary(CoulombSystem(g=0.3, eta=0.7), grid)
        assert len(hops) <= 8

    def test_nonpositive_u_in_a_grid_carries_its_index(self):
        with pytest.raises(OutOfDomainError) as info:
            psi_ordinary(self._quantized(), [0.5, 2.0, 0.0])
        assert info.value.index == 2

    def test_cancelling_polynomial_is_refused_with_its_index(self):
        # n = 60 at u = 1e-4: the terms of the degree-60 polynomial at
        # z = 2/(1 + i u/eps), near 2, reach 1e27 against a sum of 1e12
        s = self._quantized(z=30, n=60)
        with pytest.raises(ConvergenceError, match="cancels") as info:
            psi_ordinary(s, [1.0, 1e-4, 10.0])
        assert info.value.index == 1

    def test_supercritical_prefactor_out_of_range_carries_its_index(self):
        # with complex mu the power (1 + i u/eps)^(-3/2 - mu) of an infinite
        # base raised ZeroDivisionError; the subcritical one is 0 there
        s = CoulombSystem(g=0.51, eta=0.9)
        with pytest.raises(OutOfDomainError, match="prefactor") as info:
            psi_ordinary(s, [1.0, 1e300, 1e308])
        assert info.value.index == 2
        assert psi_ordinary(CoulombSystem(g=0.4, eta=0.9), 1e308) == 0

    def test_nonpositive_u_rejected(self):
        s = self._quantized()
        with pytest.raises(OutOfDomainError):
            psi_ordinary(s, 0.0)
        with pytest.raises(OutOfDomainError):
            psi_ordinary(s, -2.0)

    def test_derivative_matches_finite_differences(self):
        # the closed form's derivative (mpmath) against the slope of psi_ordinary
        s = self._quantized(z=10, n=1)
        for u in (0.5, 2.0, 20.0):
            psi, dpsi = closed_form.psi_and_derivative(s, u)
            assert psi == pytest.approx(psi_ordinary(s, u), rel=1e-14)
            h = 1e-6 * u
            fd = (psi_ordinary(s, u + h) - psi_ordinary(s, u - h)) / (2 * h)
            assert dpsi == pytest.approx(fd, rel=1e-8)
