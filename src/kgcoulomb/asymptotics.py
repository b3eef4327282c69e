"""Numerical large-momentum behavior: the exponents at infinity measured
from the transfer matrices of basis marches.

The march (``integrate``) is analytic continuation by Taylor
re-expansion, the engine in ``fuchsian``: the model equations have
polynomial coefficients, so each local series comes from one banded
recurrence, truncated where its tail drops below the tolerance. Along
the real u-axis the radius of convergence grows like u, so [1, 1e4]
takes a few dozen hops. Each hop carries a basis of two solutions, read
as transfer matrices (``Transfer``). Everything is plain Python floats
and complex numbers.

The exponents are measured over the top of a window from the transfer
matrices of two pieces, both read off one hop marched down from the top
(``transfer_exponents``): their eigenvalues give both exponents, complex
pairs included, from the equation alone. This is the route of the
command line's ``exponents``.
"""

from __future__ import annotations

import cmath
import math
from operator import lt, mul, sub

from . import fuchsian
from .errors import ConvergenceError, OscillationError, OutOfDomainError

__all__ = [
    "integrate",
    "Transfer",
    "transfer_exponents",
    "paired",
    "Trajectory",
    "FitResult",
    "fit_exponent",
]

# order cap of each local series; at tol = 1e-16 the tail rule stops
# near order 55 on a disk limited by a singular point
_MAX_ORDER = 64
# A series of a basis march cut by the order cap counts as settled when
# its last term on the half disk is below the larger of tol and _SETTLED
# times its largest, and its largest below 1/_SETTLED times its value's
# order 1: the sums then lose at most half the digits of a double.
_SETTLED = 2.0 ** -26
# Largest ratio hi/lo of a measuring piece. Both pieces lie on one hop
# marched down from hi over [hi/sqrt(2), hi]: the singular point at 0 of
# every model equation leaves it the radius hi, so every read lies within
# 0.29 of the radius, well inside the trusted half disk, where the cut
# tail leaves almost no truncation error. The Richardson step leaves
# -C2 k(r)/hi^2, k(r) = r (r^2 - 1) / (2 ln r): 1.42 here, 4.33 at ratio 2.
# Over the exponent-fit draws of seeds 1-10 no row is worse than 6.9e-6 at
# the default tol and 7.1e-6 at tol 1e-3. Cap 2^(3/8) gives 8.3e-6 and
# 3.0e-4, and sqrt(2), whose pieces reach the half disk's edge, 1.0e-5
# and 0.26%. A wider piece aligns the transfer matrix's columns by the
# ratio to the power of the gap between the real parts; its small
# eigenvalue survives that only because the determinant is taken from the
# hop's columns, which stay apart.
_RATIO_CAP = 2.0 ** 0.25
# Smallest ratio of a measuring piece; the phase anchor is read over it.
_RATIO_FLOOR = 1.01


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
    is the largest relative ODE defect
    |w'' + p1 w' + p0 w| / (|w''| + |p1 w'| + |p0 w|) of either column
    where the first hop hands over and at the end, w'' taken from the
    local series (nan where not measured, or where every term
    underflows). Each (hop, point) is read once, and w'' only at those
    two points. A march of one hop, as that of ``transfer_exponents`` is,
    has no hand-over and is checked at its end alone.
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
            raise OutOfDomainError(
                f"continuation from u = {u.real} to {v.real} left the floating-point range")
        return out, det




def integrate(ode: fuchsian.RationalCoeffODE, u0: float, u_end: float,
              tol: float = 1e-10) -> Transfer:
    """March a basis of psi'' + p1 psi' + p0 psi = 0 from u0 to u_end.

    The hops of ``fuchsian.taylor_basis`` run from u0 toward u_end, each
    0.4 of the last radius of convergence further (the rule of
    ``fuchsian.reach``), until one's trusted half disk holds u_end. The
    radius is the distance to the nearest finite singular point; only an
    equation with none, an entire one, has it capped at the interval
    length. Each local series is truncated where
    its terms on the trusted half disk fall below tol times the largest
    one, so tol bounds the relative error per disk. The march is returned
    as its ``Transfer``. u0 must be nonzero, since the basis (w, u w')
    degenerates at u = 0, the interval must not be empty, and no singular
    point may lie on it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if u0 == 0:
        raise ValueError("a basis march starts away from u = 0")
    if u0 == u_end:
        raise ValueError("empty integration interval")
    lo, hi = min(u0, u_end), max(u0, u_end)
    blockers = [z for z, _, _ in ode.points if abs(z.imag) < 1e-9 * max(1.0, abs(z.real))
                and lo - 1e-12 <= z.real <= hi + 1e-12]
    if blockers:
        raise OutOfDomainError(
            f"integration interval [{lo}, {hi}] crosses singular point(s) "
            + ", ".join(f"{z.real:.6g}" for z in blockers))
    cap = math.inf if ode.points else abs(u_end - u0)
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
    r = min(sqrt(hi/lo), _RATIO_CAP), the pieces [hi/r, hi] and
    [hi/r^2, hi/r] each give the pair, [hi/sqrt(2), hi] for any window
    wider than a factor sqrt(2), and one Richardson step,
    (r x_b - x_a) / (r - 1), removes the O(1/u) term from the pair's sum
    and from the square of its difference, leaving an O(1/u^2) remainder
    at u = hi/r^2. Both stay analytic in 1/u where the exponents meet (the
    Jordan block of a double root), where each exponent alone moves like
    u^(-1/2) and the step would leave that term. Both pieces are read off
    one basis march (``integrate``) down from hi to hi/r^2. In the model
    equations every finite singular point is 0 or imaginary, so the
    radius at hi is hi and the march is one hop, every read within 0.29
    of its radius. The principal log wraps once the imaginary part turns
    an eigenvalue by pi, so r is first cut to the largest of r, r^(1/2),
    r^(1/4), ... at which the turn over [hi/_RATIO_FLOOR, hi], scaled to
    r, stays below pi/2, and then further until it does on both pieces; a
    cut r reads the same march. Raises
    ValueError for a window narrower than a factor _RATIO_FLOOR^2,
    OutOfDomainError when no ratio down to _RATIO_FLOOR reads the turn
    below pi/2, and ConvergenceError when a piece's series do not settle
    (a pair that turns too fast for a hop): no wrapped number is returned.
    """
    lo, hi = window
    ratio = min(math.sqrt(hi / lo), _RATIO_CAP)
    if not ratio >= _RATIO_FLOOR:
        raise ValueError(f"the window spans less than a factor {_RATIO_FLOOR ** 2:.6g}, "
                         "too narrow to measure the exponents over")
    march = integrate(ode, hi, hi / ratio ** 2, tol=tol)
    turn = max(abs(rho.imag) for rho in _piece_exponents(march, hi, hi / _RATIO_FLOOR))
    while ratio >= _RATIO_FLOOR:
        if turn * math.log(ratio) < 0.5 * math.pi:
            mid = hi / ratio
            pieces = (_piece_exponents(march, mid, mid / ratio),
                      _piece_exponents(march, hi, mid))
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
