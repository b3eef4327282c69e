"""Numerical large-momentum behavior: direct integration of the model
equations, the exponents at infinity measured from a transfer matrix,
and log-log power-law fits.

Integration is analytic continuation by Taylor re-expansion, the engine
in ``fuchsian``: the model equations have polynomial coefficients, so
each local series comes from one banded recurrence, truncated where its
tail drops below the tolerance. Along the real u-axis the radius of
convergence grows like u, so [1, 1e4] takes a few dozen hops. A march
carries one column, a solution sampled on a grid, or two: a basis at
every hop, read as transfer matrices (``Transfer``).
Everything is plain Python floats and lists; the fit sums with ``math.fsum``.

The exponents are measured over the top of a window from the transfer
matrix of one basis march (``transfer_exponents``): its eigenvalues give
both exponents, complex pairs included, from the equation alone. This is
the route of the command line's ``exponents``.

The trajectories and their fits remain for the acceptance criteria. The
window is chosen once, when a trajectory is sampled: each grid point in
it is read off the first local disk that holds it, by its value alone,
and a fit reads every sample. The dominant (fast-decaying) branch of a
two-solution pair cannot be reached by forward integration from generic
data; any admixture of the slow branch takes over. It is therefore taken
from the Frobenius series about infinity (Ince, *Ordinary Differential
Equations*, ch. XVI): read off that series directly wherever the window
lies inside its trusted disk, and otherwise seeded from it at the top of
the window and integrated backward, the standard trick for recessive
solutions. Generic forward integration conversely always relaxes onto
the subdominant branch, so the two branches come from independent routes.
"""

from __future__ import annotations

import cmath
import math
from operator import lt, mul, sub

from . import fuchsian
from .errors import ConvergenceError, IntegrationError, OscillationError, OutOfDomainError

__all__ = [
    "Trajectory",
    "FitResult",
    "integrate",
    "fit_exponent",
    "dominant_branch",
    "subdominant_branch",
    "Transfer",
    "transfer_exponents",
    "paired",
]


class Trajectory:
    """psi sampled on a strictly increasing momentum grid, the points of
    the sampling grid in the window asked for (all of them without one);
    ``fit_exponent`` reads every sample. ``hops`` counts the local series
    the samples were read from, the one at the start point included;
    ``max_residual`` is the largest relative ODE defect
    |psi'' + p1 psi' + p0 psi| / (|psi''| + |p1 psi'| + |p0 psi|) at one
    point per local series (where the next one takes over, and the end),
    psi'' taken from the local series (nan when not measured, or where
    every term underflows).
    """

    __slots__ = ("grid", "values", "hops", "max_residual")

    def __init__(self, grid: list[float], values: list[complex], hops: int = 0,
                 max_residual: float = math.nan) -> None:
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("trajectory grid must be strictly increasing")
        if not all(map(cmath.isfinite, values)):
            raise ValueError("trajectory contains non-finite samples")
        self.grid, self.values, self.hops, self.max_residual = grid, values, hops, max_residual


class FitResult:
    __slots__ = ("exponent", "stderr")

    def __init__(self, exponent: float, stderr: float) -> None:
        self.exponent, self.stderr = exponent, stderr


# order cap of each local series; at tol = 1e-16 the tail rule stops
# near order 55 on a disk limited by a singular point
_MAX_ORDER = 64
# points of the sampling grid
_N_POINTS = 400
# terms of the series at infinity that gives the dominant branch
_ORDER_AT_INFINITY = 48
_LN2 = math.log(2.0)
# A series of a basis march cut by the order cap counts as settled when
# its last term on the half disk is below the larger of tol and _SETTLED
# times its largest, and its largest below 1/_SETTLED times its value's
# order 1: the sums then lose at most half the digits of a double.
_SETTLED = 2.0 ** -26
# Largest ratio hi/lo of a measuring piece. The march then covers
# [hi/4, hi] in about 4 hops wherever the window lies, and the Richardson
# step's O(1/u^2) remainder sits at hi/4. Over the exponent-fit draws of
# seeds 1-10, ratio 2 measures no row worse than 10 (14 hops) at the
# default tol and stays within 0.62% at tol 1e-3, where 1.5 misses by
# 33%. A wider piece aligns the transfer matrix's columns by the ratio to
# the power of the gap between the real parts; its small eigenvalue
# survives that only because the determinant is taken hop by hop.
_RATIO_CAP = 2.0
# Smallest ratio of a measuring piece; the phase anchor is read over it.
_RATIO_FLOOR = 1.01


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points, i * step + lo, with hi set exactly (the
    formula of numpy.linspace)."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points, 10 ** (i * step + log10(lo)), with both ends
    set exactly (the formula of numpy.geomspace)."""
    grid = [10.0 ** x for x in _linspace(math.log10(lo), math.log10(hi), n)]
    grid[0], grid[-1] = lo, hi
    return grid


def _real_singularities_on(ode: fuchsian.RationalCoeffODE,
                           lo: float, hi: float) -> list[complex]:
    out = []
    for z, _, _ in ode.points:
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and lo - 1e-12 <= z.real <= hi + 1e-12:
            out.append(z)
    return out


def _check_path(ode: fuchsian.RationalCoeffODE, u0: float, u_end: float,
                window: tuple[float, float] | None) -> None:
    """Checks that the interval is not empty, that the window is ascending
    and inside it, and that no singular point lies on it."""
    if u0 == u_end:
        raise ValueError("empty integration interval")
    lo, hi = min(u0, u_end), max(u0, u_end)
    if window is not None and not lo <= window[0] < window[1] <= hi:
        raise ValueError(f"window {list(window)} is not an ascending part of [{lo}, {hi}]")
    blockers = _real_singularities_on(ode, lo, hi)
    if blockers:
        raise OutOfDomainError(
            f"integration interval [{lo}, {hi}] crosses singular point(s) "
            + ", ".join(f"{z.real:.6g}" for z in blockers))


def _grid(ode: fuchsian.RationalCoeffODE, u0: float, u_end: float,
          window: tuple[float, float] | None) -> list[float]:
    """The points of the _N_POINTS grid from u0 to u_end, geometric when
    the interval spans more than a factor 50 and linear otherwise, that
    lie in the window (all of them without one), in order from u0, on a
    path that ``_check_path`` accepts."""
    _check_path(ode, u0, u_end, window)
    lo, hi = min(u0, u_end), max(u0, u_end)
    grid = (_geomspace if lo > 0 and hi / lo > 50.0 else _linspace)(u0, u_end, _N_POINTS)
    return grid if window is None else [u for u in grid if window[0] <= u <= window[1]]


def _trajectory(u0: float, u_end: float, points: list[float], values: list[complex],
                hops: int, defects: list[float], seeds: list[complex]) -> Trajectory:
    """The trajectory of the samples, taken in order from u0, ascending;
    IntegrationError where a sample or a hop seed left the floating-point
    range."""
    if not (all(map(cmath.isfinite, values)) and all(map(cmath.isfinite, seeds))):
        raise _out_of_range(u0, u_end)
    if u_end < u0:
        points, values = points[::-1], values[::-1]
    measured = [d for d in defects if not math.isnan(d)]
    return Trajectory(grid=points, values=values, hops=hops,
                      max_residual=max(measured, default=math.nan))


def _out_of_range(u0: float, u_end: float) -> IntegrationError:
    return IntegrationError(f"continuation from u = {u0} to {u_end} left the floating-point range")


def _matmul(a: tuple, b: tuple) -> tuple:
    """The product of two 2x2 matrices, each (m11, m12, m21, m22)."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


class Transfer:
    """The basis march of ``integrate``, read as transfer matrices in the
    basis (w, u w'). Each hop holds the two series of
    ``fuchsian.taylor_basis`` at its centre z, so its columns are the
    solutions with (w, u w') = (1, 0) and (0, 1) at z, and its transfer
    to the next centre is a 2x2 matrix that no other hop's growth
    enters. ``matrix(u, v)`` multiplies the pieces from u to v, each over
    at most one hop, and returns the product with its determinant, taken
    as the product of the pieces' determinants: a piece's columns stay
    apart, so the determinant carries no cancellation however far the
    product's columns align. ``hops`` counts the hops; ``max_residual``
    is the largest relative ODE defect of either column where the first
    hop hands over and at the end, as in ``Trajectory``. Each (hop, point)
    is read once, and w'' only at those two points.
    """

    __slots__ = ("_chain", "_reads", "hops", "max_residual")

    def __init__(self, ode: fuchsian.RationalCoeffODE, chain: list, u_end: float) -> None:
        self._chain, self._reads = chain, {}
        checks = [(0, chain[1][0].expansion_point)] if len(chain) > 1 else []
        checks.append((len(chain) - 1, complex(u_end)))
        defects = []
        for k, z in checks:
            columns = [fuchsian.evaluate_with_derivatives(sol, z) for sol in chain[k]]
            self._local(k, z, columns)
            if z != chain[k][0].expansion_point:
                defects += [fuchsian._defect(ode, z, *column) for column in columns]
        self.hops = len(chain)
        self.max_residual = max((d for d in defects if not math.isnan(d)), default=math.nan)

    def _local(self, k: int, z: complex, columns: list | None = None) -> tuple[tuple, complex]:
        """Hop k's transfer from its centre to z, with its determinant, from
        both columns' (w, w', ...) at z, read here unless given; kept, so
        each (hop, point) is read once."""
        if (k, z) not in self._reads:
            first, second = self._chain[k]
            (w1, dw1, *_), (w2, dw2, *_) = columns or [
                fuchsian.evaluate_with_derivatives(sol, z, 1) for sol in (first, second)]
            c = first.radius / first.expansion_point  # (w, u w') = (0, 1) is c times the second
            m = (w1, c * w2, z * dw1, c * z * dw2)
            self._reads[k, z] = m, m[0] * m[3] - m[1] * m[2]
        return self._reads[k, z]

    def _hop(self, u: complex) -> int:
        """The first hop whose trusted half disk holds u."""
        for k, (series, _) in enumerate(self._chain):
            if abs(u - series.expansion_point) <= 0.5 * series.radius:
                return k
        raise ValueError(f"u = {u} is not on the march")

    def matrix(self, u: float, v: float) -> tuple[tuple, complex]:
        """The transfer matrix from u to v, both on the march and v no
        nearer its start than u, as (m11, m12, m21, m22), with its
        determinant."""
        u, v = complex(u), complex(v)
        i, j = self._hop(u), self._hop(v)
        (a, b, c, d), det_start = self._local(i, u)
        # the inverse of hop i's transfer to u, back to hop i's centre
        out, det = (d / det_start, -b / det_start, -c / det_start, a / det_start), 1.0 / det_start
        for k in range(i, j):  # hop k's transfer to the next centre
            step, det_step = self._local(k, self._chain[k + 1][0].expansion_point)
            out, det = _matmul(step, out), det * det_step
        end, det_end = self._local(j, v)
        out, det = _matmul(end, out), det * det_end
        if not (all(map(cmath.isfinite, out)) and cmath.isfinite(det)):
            raise _out_of_range(u.real, v.real)
        return out, det


def _basis_march(ode: fuchsian.RationalCoeffODE, u0: float, u_end: float,
                 tol: float) -> Transfer:
    """The hops of ``fuchsian.taylor_basis`` from u0 toward u_end, each 0.4
    of the last radius further (the rule of ``fuchsian.reach``), capped at
    the interval length, until one's trusted half disk holds u_end."""
    cap = abs(u_end - u0)
    chain = [fuchsian.taylor_basis(ode, u0, _MAX_ORDER, tol, cap)]
    budget = fuchsian._hop_budget(ode, chain[0][0], complex(u_end))
    direction = 1.0 if u_end > u0 else -1.0
    while abs(u_end - (last := chain[-1][0]).expansion_point) > 0.5 * last.radius:
        if len(chain) >= budget:
            raise ConvergenceError(
                f"analytic continuation toward {u_end} did not arrive in {budget} hops")
        nxt = last.expansion_point + direction * 0.4 * last.radius
        chain.append(fuchsian.taylor_basis(ode, nxt, _MAX_ORDER, tol, cap))
    for series in (s for pair in chain for s in pair if len(s.coefficients) > _MAX_ORDER):
        # cut by the order cap, not by its tail (see _SETTLED)
        sizes = [math.ldexp(abs(c), -k) for k, c in enumerate(series.coefficients)]
        if sizes[-1] > max(tol, _SETTLED) * max(sizes) or max(sizes) * _SETTLED > 1.0:
            raise ConvergenceError(
                f"the Taylor series at u = {series.expansion_point.real:.6g} do not settle "
                f"in {_MAX_ORDER} terms: the solutions turn too fast for the hop")
    return Transfer(ode, chain, u_end)


def integrate(ode: fuchsian.RationalCoeffODE, u0: float, psi0: complex | None,
              dpsi0: complex | None, u_end: float, tol: float = 1e-10,
              window: tuple[float, float] | None = None) -> Trajectory | Transfer:
    """Integrate psi'' = -p1 psi' - p0 psi from u0 to u_end.

    The solution is continued along the real axis by Taylor
    re-expansion (``fuchsian.reach``), each hop 0.4 of the local radius
    of convergence, capped at the interval length, up to u_end. Each
    local series is truncated where its terms on the trusted half disk
    fall below tol times the largest one, so tol bounds the relative error
    per disk. psi is sampled at each point of the _N_POINTS grid in the
    window (all of them without one; it must be an ascending part of the
    interval), reached in turn from u0 and read off the first disk that
    holds it by its value's sum alone (``fuchsian.evaluate``); every hop
    heads exactly toward u_end. The grid is ascending in either direction.

    Without a seed (psi0 and dpsi0 None) the march carries two columns, a
    basis at every hop, on the same hops and tail rule, and returns its
    ``Transfer``; u0 must then be nonzero, and there is no window.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if psi0 is None or dpsi0 is None:
        if window is not None or u0 == 0:
            raise ValueError("a basis march starts away from u = 0 and takes no window")
        _check_path(ode, u0, u_end, None)
        return _basis_march(ode, u0, u_end, tol)
    points = _grid(ode, u0, u_end, window)
    cap = abs(u_end - u0)
    chain = [fuchsian.taylor_series(ode, u0, psi0, dpsi0, order=_MAX_ORDER, tol=tol,
                                    max_radius=cap)]
    values, k = [], 0
    for u in points:
        k = fuchsian.reach(ode, chain, complex(u), _MAX_ORDER, k, tol=tol, max_radius=cap)
        values.append(fuchsian.evaluate(chain[k], u))
    fuchsian.reach(ode, chain, complex(u_end), _MAX_ORDER, k, tol=tol, max_radius=cap)
    # the first hop is checked where the next one takes over, the last at the end
    checks = [(chain[0], chain[1].expansion_point)] if len(chain) > 1 else []
    checks.append((chain[-1], u_end))
    defects = [fuchsian._defect(ode, z, *fuchsian.evaluate_with_derivatives(hop, z))
               for hop, z in checks if z != hop.expansion_point]
    # the hop seeds, w and w' times the radius, stand for the path outside the window
    seeds = [c for hop in chain for c in hop.coefficients[:2]]
    return _trajectory(u0, u_end, points, values, len(chain), defects, seeds)


def fit_exponent(traj: Trajectory) -> FitResult:
    """Least-squares slope of log|psi| against log u over every sample of
    the trajectory; the window was chosen when it was sampled.

    Raises OscillationError when the amplitude is not a clean power law:
    either the local log-log slope changes sign more than twice, or the
    residuals around the fitted line oscillate with visible amplitude.
    Both are signatures of a complex exponent pair (supercritical
    Coulomb), where |psi| ~ u^re * |beat(im * log u)| and a single real
    slope would be meaningless.
    """
    if len(traj.grid) < 8:
        raise ValueError("window contains fewer than 8 samples")
    # logs to base 2, which math.log2 takes at less than half the cost of
    # math.log: the slope does not depend on the base, and the residuals'
    # swing is converted to natural-log units below
    try:
        y = list(map(math.log2, map(abs, traj.values)))
    except ValueError:  # log2(0)
        raise OscillationError("|psi| has zeros in the window (interference nodes)") from None
    x = list(map(math.log2, traj.grid))
    # x ascends, so each local slope has the sign of its rise in y
    if (flips := _sign_changes(list(map(sub, y[1:], y)))) > 2:
        raise OscillationError(
            f"log-log slope flips sign {flips} times over the window; "
            "the decay exponent is complex, not real")
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    xc = [v - x_mean for v in x]
    sxx = math.fsum(map(mul, xc, xc))
    slope = math.fsum(map(mul, xc, y)) / sxx
    resid = [v - y_mean - slope * c for v, c in zip(y, xc)]
    # A complex exponent pair shows up as a beat: the detrended residual
    # swings through zero repeatedly instead of hugging the fit line.
    swing = max(max(resid), -min(resid)) * _LN2
    if swing > 0.02 and (crossings := _sign_changes(resid)) >= 3:
        raise OscillationError(
            f"detrended log amplitude oscillates (swing {swing:.3g}, "
            f"{crossings} zero crossings); the decay exponent is complex")
    dof = len(x) - 2
    stderr = math.sqrt(math.fsum(map(mul, resid, resid)) / dof / sxx)
    return FitResult(exponent=slope, stderr=stderr)


def _sign_changes(seq: list[float]) -> int:
    """Neighbours of opposite sign, a product below zero."""
    return len([1 for a, b in zip(seq, seq[1:]) if a * b < 0.0])


def _significant_terms(series: fuchsian.FrobeniusSolution, t: float) -> int:
    """Length of the prefix of the series' coefficients that holds every
    term of its value's sum above 2^-53 of the largest at t. Past it each
    term is below 2^-53 of a term of lower index, and stays so at every
    smaller t, so the prefix serves the whole disk |t| holds."""
    log_r = math.log2(t / series.scale)
    logs = [math.log2(abs(c)) + k * log_r if c else -math.inf
            for k, c in enumerate(series.coefficients)]
    floor = max(logs) - 53.0
    return 1 + max(k for k, v in enumerate(logs) if v > floor)


def dominant_branch(ode: fuchsian.RationalCoeffODE, window: tuple[float, float],
                    tol: float = 1e-10) -> Trajectory:
    """Trajectory of the fastest-decaying solution over the window.

    This is the Frobenius series about infinity, t^rho sum c_k t^k in
    t = 1/u. Where the whole window lies inside the series' trusted disk
    (t at most half its radius) and, at the window's lower edge t_lo,
    |t_lo^rho| times the series' tail estimate is below tol times its
    value (``fuchsian.evaluate`` at t_lo), every grid point of the window
    is read off the series directly (one hop), by its value's sum over
    the terms that matter at that edge, the largest t
    (``_significant_terms``). Otherwise the series seeds a backward march
    from the upper window edge, or from further out where the edge lies
    outside the trusted disk. Either way the head is taken relative to
    the top u_top, (t/t_top)^rho, and the solution is normalised to unit
    max(|psi|, |psi'|) there, from all of the series' terms (the
    equations are linear, so shape is all that matters), so a far window
    does not underflow.
    """
    exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
    dominant = exps[1]  # sorted descending by real part: [1] decays fastest
    series = fuchsian.frobenius_series(ode, fuchsian.INFINITY, dominant,
                                       order=_ORDER_AT_INFINITY)
    rho = series.exponent  # the exponent in t
    lo, u_top = window[0], max(window[1], 2.0 / series.radius)

    def from_infinity(u, top):
        # w = (t/t_top)^rho s(t) and its u-derivatives, s(t) = sum c_k t^k
        t = 1.0 / u
        s0, s1, s2 = fuchsian._series_sums(series.coefficients, t, series.scale)
        head = (top / u) ** rho
        return (head * s0, -head * t * (rho * s0 + t * s1),
                head * t * t * (rho * (rho + 1.0) * s0 + 2.0 * (rho + 1.0) * t * s1
                                + t * t * s2))

    w, dw, _ = from_infinity(u_top, u_top)
    norm = max(abs(w), abs(dw))
    t_lo = 1.0 / lo
    # strict, so a lower edge where t^rho underflows to zero marches
    if not (lo >= 2.0 / series.radius
            and abs(t_lo ** rho) * fuchsian._tail_estimate(series, t_lo)
            < tol * abs(fuchsian.evaluate(series, t_lo))):
        return integrate(ode, u_top, w / norm, dw / norm, lo, tol=tol, window=window)
    points = _grid(ode, u_top, lo, window)
    prefix = series.coefficients[:_significant_terms(series, t_lo)]
    try:
        values = [(u_top / u) ** rho
                  * fuchsian._series_sums(prefix, 1.0 / u, series.scale, derivatives=0)
                  / norm for u in points]
    except OverflowError:  # the head (t/t_top)^rho
        raise _out_of_range(u_top, lo) from None
    # the defect is blind to a constant factor, so each point is its own top
    defects = [fuchsian._defect(ode, u, *from_infinity(u, u)) for u in (u_top, lo)]
    return _trajectory(u_top, lo, points, values, 1, defects, [])


def subdominant_branch(ode: fuchsian.RationalCoeffODE, window: tuple[float, float],
                       tol: float = 1e-10) -> Trajectory:
    """Trajectory dominated by the slowest-decaying solution.

    Forward integration from the generic seed psi = 1, psi' = 0 at u = 1,
    which must sit below the window; the slow branch takes over long
    before the window starts, no series seeding required.
    """
    if window[0] <= 1.0:
        raise ValueError("seed point must sit below the fit window")
    return integrate(ode, 1.0, 1.0 + 0j, 0j, window[1], tol=tol, window=window)


def _piece_exponents(march: Transfer, u: float, v: float) -> list[complex]:
    """Both exponents of the transfer matrix from u to v, log(eigenvalue) /
    log(v/u), the smaller eigenvalue taken as the determinant over the
    larger."""
    (a, b, c, d), det = march.matrix(u, v)
    trace, root = a + d, cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    big = max((trace + root) / 2.0, (trace - root) / 2.0, key=abs)
    try:
        return [cmath.log(mu) / math.log(v / u) for mu in (big, det / big)]
    except (ValueError, ZeroDivisionError):  # log(0), or a zero eigenvalue
        raise OutOfDomainError(
            f"the transfer matrix from u = {u:.6g} to {v:.6g} is singular") from None


def paired(reference, pair) -> tuple:
    """pair, in whichever of its two orders lies nearer reference in total."""
    a, b = pair
    kept = abs(a - reference[0]) + abs(b - reference[1])
    return (a, b) if kept <= abs(b - reference[0]) + abs(a - reference[1]) else (b, a)


def transfer_exponents(ode: fuchsian.RationalCoeffODE, window: tuple[float, float],
                       tol: float = 1e-10) -> tuple[complex, complex]:
    """Both exponents at infinity, measured over the top of the window.

    In the basis (w, u w') the equation is u Y' = A(u) Y with A(u) tending
    to a constant whose eigenvalues are the exponents, so the transfer
    matrix over [u, r u] is r^A (1 + O(1/u)) and each of its eigenvalues
    gives an exponent, log(eigenvalue) / log r, complex pairs included
    (Coddington & Levinson, *Theory of ODEs*, ch. 4). With the ratio
    r = min(sqrt(hi/lo), _RATIO_CAP), one basis march (``integrate``)
    runs from hi/r^2 to hi, [hi/4, hi] for any window wider than a factor
    4; the pieces [hi/r^2, hi/r] and [hi/r, hi] each give the pair, and
    one Richardson step, (r x_b - x_a) / (r - 1), removes the O(1/u) term
    from the pair's sum and from the square of its difference, leaving
    an O(1/u^2) remainder at u = hi/r^2. Both stay analytic in 1/u where
    the exponents meet (the Jordan block of a double root), where each
    exponent alone moves like u^(-1/2) and the step would leave that term. The principal log wraps
    once the imaginary part turns an eigenvalue by pi, so r is first cut to the
    largest of r, r^(1/2), r^(1/4), ... at which the turn over
    [hi/_RATIO_FLOOR, hi], scaled to r, stays below pi/2, and then
    further until it does on both pieces. A cut r is marched again over
    [hi/r^2, hi], with hops no longer than that interval, so the pieces
    are read near hop centres and not at the edge of a disk whose series
    the order cap truncates. Raises ValueError for a window narrower than
    a factor _RATIO_FLOOR^2, OutOfDomainError when no ratio down to
    _RATIO_FLOOR reads the turn below pi/2, and ConvergenceError when the
    march's series do not settle (a pair that turns too fast for a hop):
    no wrapped number is returned.
    """
    lo, hi = window
    ratio = min(math.sqrt(hi / lo), _RATIO_CAP)
    if not ratio >= _RATIO_FLOOR:
        raise ValueError(f"the window spans less than a factor {_RATIO_FLOOR ** 2:.6g}, "
                         "too narrow to measure the exponents over")
    march, marched = integrate(ode, hi / ratio ** 2, None, None, hi, tol=tol), ratio
    turn = max(abs(rho.imag) for rho in _piece_exponents(march, hi / _RATIO_FLOOR, hi))
    while ratio >= _RATIO_FLOOR:
        if turn * math.log(ratio) < 0.5 * math.pi:
            if ratio != marched:  # a cut ratio: the reads then fall near the hop centres
                march, marched = integrate(ode, hi / ratio ** 2, None, None, hi, tol=tol), ratio
            mid = hi / ratio
            pieces = (_piece_exponents(march, mid / ratio, mid),
                      _piece_exponents(march, mid, hi))
            turns = max(abs(rho.imag) for pair in pieces for rho in pair) * math.log(ratio)
            if turns < 0.5 * math.pi:
                (sum_a, square_a), (sum_b, square_b) = ((a + b, (a - b) ** 2) for a, b in pieces)
                total = (ratio * sum_b - sum_a) / (ratio - 1.0)
                root = cmath.sqrt((ratio * square_b - square_a) / (ratio - 1.0))
                return (total + root) / 2.0, (total - root) / 2.0
        ratio = math.sqrt(ratio)
    raise OutOfDomainError(
        "the exponents' imaginary part turns the transfer matrix's eigenvalues by pi/2 "
        f"or more over every piece down to a ratio {_RATIO_FLOOR:g}; its phase cannot be "
        "read unwrapped")
