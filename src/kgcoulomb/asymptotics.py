"""Numerical large-momentum behavior: the exponents at infinity measured
from the transfer matrix of one basis hop.

The hop (``integrate``) is one Taylor re-expansion of the engine in
``fuchsian``: the model equations have polynomial coefficients, so its
two series come from one banded recurrence, truncated where their tails
drop below the tolerance. Its radius is the distance to the nearest
finite singular point, which along the real u-axis grows like u; the
one loop of hops is ``fuchsian.reach``. The hop carries a basis of two
solutions, read as transfer matrices (``Transfer``); a real equation's
hop is built and read in floats at real points, any other in complex.

The exponents are measured over the top of a window from the transfer
matrices of two pieces of ratio r, [hi/r^2, hi/r] and [hi/r, hi], both
read off one hop centred at hi/r, itself a read point, whose series are
cut on the disk of span hi - hi/r that the reads cover
(``transfer_exponents``): their eigenvalues give both exponents, complex
pairs included, from the equation alone. A ratio that the exponents'
phase cuts to r' takes one more hop, centred at hi/r'. A second
Richardson level from the pieces of ratio sqrt(r) on the hop that is
read makes a move that is the row's error estimate, by which a window
above the equation's singular scale is refused. This is the route of
the command line's ``exponents``.
"""

from __future__ import annotations

import cmath
import math
from operator import lt, mul, sub

from . import fuchsian
from .errors import ConvergenceError, OscillationError, OutOfDomainError

# A series of a basis hop cut by the order cap, fuchsian._MAX_ORDER,
# counts as settled when its last term on the read disk is below the
# larger of tol and _SETTLED times its largest, and its largest below
# 1/_SETTLED times its value's order 1: the sums then lose at most half
# the digits of a double. Cut at _HOP_TOL on the disk it is read on, a
# hop averages 20.8 terms over exponent-fit seeds 1-10, so the cap binds
# only where the pair turns fast.
_SETTLED = 2.0 ** -26
# Largest ratio hi/lo of a measuring piece. Both pieces, [hi/r^2, hi/r]
# and [hi/r, hi], lie on one hop centred at hi/r and read up to hi: the
# singular point at 0 of every model equation leaves it the radius hi/r,
# so every read lies within r - 1 = 0.19 of the radius, and the hop's
# tail is cut on that disk, not on the trusted half disk. The Richardson
# step leaves -C2 k(r)/hi^2, k(r) = r (r^2 - 1) / (2 ln r): 1.42 here,
# 4.33 at ratio 2. A wider piece aligns the transfer matrix's columns by
# the ratio to the power of the gap between the real parts; its small
# eigenvalue survives that only because the determinant is taken from
# the hop's columns, which stay apart.
_RATIO_CAP = 2.0 ** 0.25
# Smallest ratio of a measuring piece; the phase anchor is read over it.
_RATIO_FLOOR = 1.01
# The cut of a hop of transfer_exponents. Cut on the disk it is read on,
# the tail's tol governs the truncation, so a coarser cut would show in
# the exponents: at 1e-3 the worst exponent-fit row reads 2.8%.
_HOP_TOL = 1e-10
# Largest move of either exponent under the second Richardson level,
# relative to the exponent and to its real part; a larger one refuses a
# window that starts above the singular scale.
_ESTIMATE_BOUND = 0.01


def _matmul(a: tuple, b: tuple) -> tuple:
    """The product of two 2x2 matrices, each (m11, m12, m21, m22)."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


class Transfer:
    """The one hop of ``integrate``, read as transfer matrices in the basis
    (w, u w'). The hop holds the two series of ``fuchsian.taylor_basis``
    at its centre z0, so its columns are the solutions with (w, u w') =
    (1, 0) and (0, 1) at z0. ``matrix(u, v)`` is the hop's transfer from
    z0 to v times the inverse of its transfer to u, returned with its
    determinant, the quotient of theirs: the columns stay apart, so the
    determinant carries no cancellation however far the product's columns
    align. Only points within ``span`` of z0, the disk the hop's series
    are cut on, are read. ``max_residual`` is the larger relative ODE
    defect |w'' + p1 w' + p0 w| / (|w''| + |p1 w'| + |p0 w|) of the two
    columns at the end point, w'' taken from the local series (nan where
    every term underflows). Each point is read once, and w'' only at the
    end.
    """

    __slots__ = ("_pair", "_span", "_reads", "max_residual")

    def __init__(self, ode: fuchsian.RationalCoeffODE, pair: tuple, u_end: float,
                 span: float) -> None:
        self._pair, self._span, self._reads = pair, span, {}
        columns = [fuchsian.evaluate_with_derivatives(sol, u_end) for sol in pair]
        self._local(u_end, columns)
        defects = [fuchsian._defect(ode, u_end, *column) for column in columns]
        self.max_residual = max((d for d in defects if not math.isnan(d)), default=math.nan)

    def _local(self, z: complex, columns: list | None = None) -> tuple[tuple, complex]:
        """The hop's transfer from its centre to z, a point within its span,
        with its determinant, from both columns' (w, w', ...) at z, read
        here unless given; kept, so each point is read once."""
        if z not in self._reads:
            first, second = self._pair
            if abs(z - first.expansion_point) > self._span:
                raise ValueError(f"u = {z} is not on the march")
            (w1, dw1, *_), (w2, dw2, *_) = columns or [
                fuchsian.evaluate_with_derivatives(sol, z, 1) for sol in (first, second)]
            c = first.radius / first.expansion_point  # (w, u w') = (0, 1) is c times the second
            m = (w1, c * w2, z * dw1, c * z * dw2)
            self._reads[z] = m, m[0] * m[3] - m[1] * m[2]
        return self._reads[z]

    def matrix(self, u: float, v: float) -> tuple[tuple, complex]:
        """The transfer matrix from u to v, both within the hop's span, as
        (m11, m12, m21, m22), with its determinant."""
        (a, b, c, d), det_start = self._local(u)
        # the inverse of the transfer to u, back to the hop's centre
        out, det = (d / det_start, -b / det_start, -c / det_start, a / det_start), 1.0 / det_start
        end, det_end = self._local(v)
        out, det = _matmul(end, out), det * det_end
        if not (all(map(cmath.isfinite, out)) and cmath.isfinite(det)):
            raise OutOfDomainError(
                f"continuation from u = {u} to {v} left the floating-point range")
        return out, det


def integrate(ode: fuchsian.RationalCoeffODE, u0: float, u_end: float,
              tol: float = _HOP_TOL, span: float | None = None) -> Transfer:
    """One hop of a basis of psi'' + p1 psi' + p0 psi = 0 from u0 to u_end.

    The hop is ``fuchsian.taylor_basis`` at u0. Its radius is the
    distance to the nearest finite singular point, so the equation must
    have one. It is read on the disk |u - u0| <= span, half the radius
    (the trusted half disk) by default and never more, so u_end must lie
    within span of u0: then no singular point lies between u0 and u_end.
    A longer path is ``fuchsian.reach``'s. Each series is truncated where
    its terms on that disk fall below tol times the largest one, so tol
    bounds its relative error there, and a series cut by the order cap
    must settle on the same disk. The hop is returned as its
    ``Transfer``, which refuses reads farther than span from u0. The
    default span keeps the whole trusted half disk readable, beyond
    u_end; ``transfer_exponents`` passes the span its reads cover. u0 must
    be nonzero, since the basis (w, u w') degenerates at u = 0, and the
    interval must not be empty.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if u0 == 0:
        raise ValueError("a basis march starts away from u = 0")
    if u0 == u_end:
        raise ValueError("empty integration interval")
    radius = fuchsian._series_radius(ode, u0)
    if span is None:
        span = 0.5 * radius
    elif span > 0.5 * radius:
        raise OutOfDomainError(
            f"a span of {span:.6g} leaves the trusted half disk of the hop at {u0}, "
            f"radius {radius:.6g} to the nearest singular point")
    if abs(u_end - u0) > span:
        raise OutOfDomainError(
            f"u = {u_end} lies outside the span {span:.6g} of the hop at {u0}, "
            f"radius {radius:.6g} to the nearest singular point")
    disk = span / radius
    pair = fuchsian.taylor_basis(ode, u0, tol, disk)
    for series in (s for s in pair if len(s.coefficients) > fuchsian._MAX_ORDER):
        # cut by the order cap, not by its tail (see _SETTLED)
        sizes = [abs(c) * disk ** k for k, c in enumerate(series.coefficients)]
        if sizes[-1] > max(tol, _SETTLED) * max(sizes) or max(sizes) * _SETTLED > 1.0:
            raise ConvergenceError(
                f"the Taylor series at u = {series.expansion_point.real:.6g} do not settle "
                f"in {fuchsian._MAX_ORDER} terms: the solutions turn too fast for the hop")
    try:
        return Transfer(ode, pair, u_end, span)
    except (OverflowError, ZeroDivisionError):  # w'' out of range: a radius below about 1e-154
        raise OutOfDomainError(
            f"the hop from u = {u0} to {u_end} leaves the floating-point range") from None


def _piece_exponents(march: Transfer, u: float, v: float) -> list[complex]:
    """Both exponents of the transfer matrix from u to v, log(eigenvalue) /
    log(v/u), the smaller eigenvalue taken as the determinant over the
    larger."""
    (a, b, c, d), det = march.matrix(u, v)
    trace, root = a + d, cmath.sqrt((a - d) * (a - d) + 4.0 * b * c)
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


def singular_scale(ode: fuchsian.RationalCoeffODE) -> float:
    """The largest |u| of a finite singular point: above it the transfer
    matrices approach their limit at infinity, below it they need not."""
    return max((abs(r) for r, _, _ in ode.points), default=0.0)


def _hop(ode: fuchsian.RationalCoeffODE, hi: float, ratio: float) -> Transfer:
    """The hop that both pieces of the ratio are read off: centred at
    hi/ratio and read up to hi, its series cut at _HOP_TOL on that span."""
    centre = hi / ratio
    return integrate(ode, centre, hi, _HOP_TOL, span=hi - centre)


def _richardson(pieces: tuple, ratio: float) -> tuple[complex, complex]:
    """The pair's sum and squared difference with the O(1/u) term removed,
    (ratio x_b - x_a) / (ratio - 1), from the lower piece's exponents and
    the upper one's."""
    (sum_a, square_a), (sum_b, square_b) = ((a + b, (a - b) ** 2) for a, b in pieces)
    return (ratio * sum_b - sum_a) / (ratio - 1.0), (ratio * square_b - square_a) / (ratio - 1.0)


def _split(total: complex, square: complex) -> tuple[complex, complex]:
    """The pair with that sum and squared difference."""
    root = cmath.sqrt(square)
    return (total + root) / 2.0, (total - root) / 2.0


def transfer_exponents(ode: fuchsian.RationalCoeffODE,
                       window: tuple[float, float]) -> tuple[complex, complex]:
    """Both exponents at infinity, measured over the top of the window.

    In the basis (w, u w') the equation is u Y' = A(u) Y with A(u) tending
    to a constant whose eigenvalues are the exponents, so the transfer
    matrix over [u, r u] is r^A (1 + O(1/u)) and each of its eigenvalues
    gives an exponent, log(eigenvalue) / log r, complex pairs included
    (Coddington & Levinson, *Theory of ODEs*, ch. 4). With the ratio
    r = min(sqrt(hi/lo), _RATIO_CAP), the pieces [hi/r, hi] and
    [hi/r^2, hi/r] each give the pair, and one Richardson step,
    (r x_b - x_a) / (r - 1), removes the O(1/u) term from the pair's sum
    and from the square of its difference, leaving an O(1/u^2) remainder
    at u = hi/r^2. Both stay analytic in 1/u where the exponents meet (the
    Jordan block of a double root), where each exponent alone moves like
    u^(-1/2) and the step would leave that term. Both pieces are read off
    one basis hop (``integrate``) centred at hi/r, with span hi - hi/r
    and the cut _HOP_TOL: in the model equations every finite singular
    point is 0 or imaginary, so the radius there is hi/r and every read
    lies within r - 1 of it. The principal log wraps once the imaginary
    part turns an eigenvalue by pi, so r is first cut to the largest of r,
    r^(1/2), r^(1/4), ... at which the turn over [hi/_RATIO_FLOOR, hi],
    read off the first hop and scaled to r, stays below pi/2, and then
    further until it does on both pieces. A cut ratio r' takes one more hop,
    centred at hi/r' with span hi - hi/r'; read off the first hop, the
    cut pieces of ``exponents --g 37.6496 --window 429.789:8801.59 --eta
    0.176428`` miss by 6.8e-7, against 1.1e-8, and ``--g 60`` is refused
    by its estimate. On the hop the pieces of ratio r are read off, a
    second Richardson level from the pieces of ratio sqrt(r) removes the
    -C2 k(r)/hi^2 term; the move it makes on either exponent is the
    row's error estimate, judged where the window starts above
    ``singular_scale``. Below it the pieces follow the regime there, not
    the approach to infinity, which the command line warns of. Raises
    ValueError for a window narrower than a factor _RATIO_FLOOR^2,
    OutOfDomainError when no ratio down to _RATIO_FLOOR reads the turn
    below pi/2 or when the estimate passes _ESTIMATE_BOUND, and
    ConvergenceError when a hop's series do not settle (a pair that turns
    too fast for a hop): no wrapped or untrusted number is returned.
    """
    lo, hi = window
    ratio = min(math.sqrt(hi / lo), _RATIO_CAP)
    if not ratio >= _RATIO_FLOOR:
        raise ValueError(f"the window spans less than a factor {_RATIO_FLOOR ** 2:.6g}, "
                         "too narrow to measure the exponents over")
    built = ratio
    march = _hop(ode, hi, ratio)
    turn = max(abs(rho.imag) for rho in _piece_exponents(march, hi, hi / _RATIO_FLOOR))
    while ratio >= _RATIO_FLOOR:
        if turn * math.log(ratio) < 0.5 * math.pi:
            if ratio != built:
                march, built = _hop(ode, hi, ratio), ratio
            mid = hi / ratio
            pieces = (_piece_exponents(march, mid, mid / ratio),
                      _piece_exponents(march, hi, mid))
            turns = max(abs(rho.imag) for pair in pieces for rho in pair) * math.log(ratio)
            if turns < 0.5 * math.pi:
                level = _richardson(pieces, ratio)
                if lo >= singular_scale(ode):
                    _check_estimate(march, lo, hi, ratio, level)
                return _split(*level)
        ratio = math.sqrt(ratio)
    raise OutOfDomainError(
        "the exponents' imaginary part turns the transfer matrix's eigenvalues by pi/2 "
        f"or more over every piece down to a ratio {_RATIO_FLOOR:g}; its phase cannot be "
        "read unwrapped")


def _check_estimate(march: Transfer, lo: float, hi: float, ratio: float, level: tuple) -> None:
    """Refuse the exponents R = _split(*level) measured at a ratio r
    when a second Richardson level, S = (k(r) R(sqrt r) - k(sqrt r) R(r)) /
    (k(r) - k(sqrt r)) from the pieces of ratio sqrt(r) on the same hop,
    moves either, or its real part, by more than _ESTIMATE_BOUND of it."""
    half = math.sqrt(ratio)
    between = hi / half
    finer = _richardson((_piece_exponents(march, between, hi / ratio),
                         _piece_exponents(march, hi, between)), half)
    # one step at ratio r leaves -C2 k(r) / hi^2, k(r) = r (r^2 - 1) / (2 ln r)
    k, k_half = (r * (r * r - 1.0) / (2.0 * math.log(r)) for r in (ratio, half))
    measured = _split(*level)
    second = _split(*((k * f - k_half * c) / (k - k_half) for c, f in zip(level, finer)))
    # relative to the exponent and to its real part, which a row's deviation reads
    moves = [max(abs(s - x) / abs(x), abs((s - x).real) / abs(x.real)) if x.real else math.inf
             for x, s in zip(measured, paired(measured, second))]
    if not max(moves) <= _ESTIMATE_BOUND:
        width = math.sqrt(hi / lo)
        limit = ("their phase" if ratio < min(width, _RATIO_CAP) else
                 "the window's width sqrt(hi/lo)" if width < _RATIO_CAP else "the cap 2^(1/4)")
        raise OutOfDomainError(
            f"the exponents' error estimate, the relative move of a second Richardson "
            f"level over pieces of ratio {half:.6g}, is {max(moves):.2g}, past "
            f"{_ESTIMATE_BOUND:g}: the window's top u = {hi:.6g} lies too low for the "
            f"ratio that {limit} allows")


# The log-log fit of a sampled solution. No command calls it; the
# benchmark's tracer (perfbench/spans.py) wraps asymptotics.fit_exponent by
# name and cannot install without it, so it stays until that span retires.
class Trajectory:
    """psi sampled on a strictly increasing momentum grid; ``fit_exponent``
    reads every sample."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: list[float], values: list[complex]) -> None:
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("trajectory grid must be strictly increasing")
        if not all(map(cmath.isfinite, values)):
            raise ValueError("trajectory contains non-finite samples")
        self.grid, self.values = grid, values


class FitResult:
    __slots__ = ("exponent", "stderr")

    def __init__(self, exponent: float, stderr: float) -> None:
        self.exponent, self.stderr = exponent, stderr


_LN2 = math.log(2.0)


def fit_exponent(traj: Trajectory) -> FitResult:
    """Least-squares slope of log|psi| against log u over every sample of
    the trajectory.

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
