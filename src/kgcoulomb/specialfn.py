"""Gauss hypergeometric and Heun machinery on the package's one
analytic-continuation engine, ``fuchsian.reach``.

``hyp2f1`` sums its power series directly for terminating parameters
(exactly, at any z, since a polynomial is valid everywhere) and for
|z| <= 1/2. Every other point is read off a chain of Taylor hops of the
hypergeometric equation from its exponent-0 Frobenius series at 0, the
2F1 series itself: the principal branch, on the plane cut along [1, inf).

The Heun side stores the parameter block of

    H'' + (c/xi + d/(xi - xi0) + e/(xi - 1)) H'
        + (a b xi + q) / (xi (xi - 1) (xi - xi0)) H = 0

and evaluates the local solution analytic at xi = 0 (normalized to
H(0) = 1) by Frobenius expansion, continued by the same hops past the
first disk of convergence; the hops are scaled, so the march comes as
close to xi = 1 (u -> infinity) as the grid asks. The series at 0 runs
only as far as its farthest read needs, and each point sums only the
prefix that the binade of its |xi| needs.

``hyp2f1``, ``heun_local`` and ``psi_ordinary`` take a point or a
sequence of points; one sweep (``_sweep``) serves a sequence, its points
sharing one chain of hops in one visit order: the real ray [0, inf)
first, ascending, then the other points by ascending modulus.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Sequence

from . import fuchsian
from .errors import ConvergenceError, KGCoulombError, OutOfDomainError, ParameterPoleError
from .physcore import CoulombSystem

_MAX_TERMS = 10_000
_TOL = 1e-15  # the direct series stops after two terms below this, relative


def _near_nonpositive_int(x: complex) -> int | None:
    """Round x to a nonpositive integer when it is within 1e-9 of one.

    The tolerance is generous on purpose: quantized energies computed in
    floating point put the terminating parameter within ~1e-11 of the
    exact integer, and missing the termination throws evaluation into a
    divergent-argument branch.
    """
    if abs(x.imag) > 1e-9:
        return None
    r = round(x.real)
    if r > 0 or abs(x.real - r) > 1e-9:
        return None
    return int(r)


def _series_2f1(a: complex, b: complex, c: complex, z: complex,
                n_cap: int | None = None, terms: list | None = None) -> complex:
    """The plain power series' sum at z, each term past the first appended
    to ``terms`` if given: n_cap of them (a polynomial), or until two
    successive terms fall below _TOL times the partial sum. Raises
    ConvergenceError when the sum cancels, polynomial or infinite series
    alike: terms above 1e6 times both its sum and 1 leave it fewer than 10
    correct digits (large parameters, such as b = 1/2 - w + mu near
    threshold, or a high level n summed at z near 2)."""
    term = total = 1.0 + 0j
    largest, small_streak = 1.0, 0
    for n in range(n_cap if n_cap is not None else _MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if terms is not None:
            terms.append(term)
        largest = max(largest, abs(term))
        if n_cap is None:
            small_streak = small_streak + 1 if abs(term) <= _TOL * max(abs(total), 1e-300) else 0
            if small_streak == 2:
                break
    else:
        if n_cap is None:
            raise ConvergenceError(
                f"hypergeometric series did not settle in {_MAX_TERMS} terms at z = {z}")
    if largest > 1e6 * max(abs(total), 1.0):
        raise ConvergenceError(f"the hypergeometric series at z = {z} cancels: terms "
                               f"reach {largest:.3g} against a sum of {abs(total):.3g}")
    return total


def _parameters(a: complex, b: complex, c: complex):
    """(a, b, c) as complex numbers, the number of terms past the first of a
    terminating series (else None) and whether c, a + b and a b are real;
    ParameterPoleError for c = 0, -1, ..., ConvergenceError past _MAX_TERMS terms."""
    a, b, c = complex(a), complex(b), complex(c)
    if _near_nonpositive_int(c) is not None:
        raise ParameterPoleError(f"2F1 pole: c = {c} is a nonpositive integer")
    stops = [-n for x in (a, b) if (n := _near_nonpositive_int(x)) is not None]
    if stops and min(stops) >= _MAX_TERMS:  # every double above 2^52 is an integer
        raise ConvergenceError(f"2F1 is a polynomial of degree {min(stops):.6g}, too long to sum")
    real = not (c.imag or (a + b).imag or (a * b).imag)
    return a, b, c, (min(stops) + 1 if stops else None), real


def hyp2f1(a: complex, b: complex, c: complex,
           z: complex | Sequence[complex]) -> complex | list[complex]:
    """Gauss 2F1(a, b; c; z), principal branch.

    ``z`` is a point or a 1-D sequence of points (a list of values in
    input order); real points of a real equation (real c, a + b and a b)
    give floats, and any complex point gives complex values. The direct
    series serves terminating parameters at any z and every z with |z| <=
    1/2; the other points share one continuation chain (``_sweep``).
    Raises ParameterPoleError when c is a nonpositive integer,
    OutOfDomainError for a point on the cut [1, inf) or not finite and
    ConvergenceError where a direct sum cancels, the error's ``index``
    being the point's position.
    """
    scalar = isinstance(z, numbers.Number)
    a, b, c, cap, real = _parameters(a, b, c)
    zero, *points = fuchsian._numbers(real, *((0, z) if scalar else (0, *z)))
    values, far = {}, []  # values by position
    for i, x in enumerate(points):
        if cap is None and abs(x) > 0.5:
            far.append(i)
            continue
        try:
            _check_target([], x)  # nan passes abs(x) > 0.5, and a terminating sum takes inf
            value = _series_2f1(a, b, c, complex(x), cap)
        except KGCoulombError as exc:
            exc.index = i
            raise
        values[i] = value.real if isinstance(x, float) else value  # a real equation, real x
    if far:  # the chain starts from the 2F1 series in 2z, summed at z = 1/2 until it settles
        terms = [1 + 0j]
        _series_2f1(a, b, c, 0.5, terms=terms)
        terms = [t.real for t in terms] if isinstance(zero, float) else terms
        series = fuchsian.FrobeniusSolution(zero, zero, tuple(terms), 1.0, 0.5)
        values.update(_sweep(hypergeometric_ode(a, b, c), series, points, far,
                             fuchsian._MAX_ORDER))
    return values[0] if scalar else [values[i] for i in range(len(points))]


def hypergeometric_ode(a: complex, b: complex, c: complex) -> fuchsian.RationalCoeffODE:
    """z(1-z) F'' + (c - (a+b+1) z) F' - a b F = 0 in normalized form."""
    den = (0j, 1 + 0j, -1 + 0j)  # z - z^2
    return fuchsian.RationalCoeffODE(
        p1_num=(c, -(a + b + 1.0)),
        p1_den=den,
        p0_num=(-a * b,),
        p0_den=den,
        points=((0, 1, 1), (1, 1, 1)),
    )


class HeunParams:
    """Parameter block (xi0, q, a, b, c, d, e) of the general Heun equation
    with singular points {0, xi0, 1, infinity}.

    The Fuchsian constraint a + b + 1 = c + d + e is checked on
    construction, as is xi0 staying away from the other finite points.
    """

    __slots__ = ("xi0", "q", "a", "b", "c", "d", "e")

    def __init__(self, xi0: complex, q: complex, a: complex, b: complex, c: complex,
                 d: complex, e: complex) -> None:
        self.xi0, self.q = xi0, q
        self.a, self.b, self.c, self.d, self.e = a, b, c, d, e
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d), abs(e))
        gap = a + b + 1.0 - (c + d + e)
        if abs(gap) > 1e-12 * scale:
            raise ValueError(
                f"parameters violate the Fuchsian constraint: a+b+1-(c+d+e) = {gap}")
        if abs(xi0) < 1e-12 or abs(xi0 - 1.0) < 1e-12:
            raise ValueError("xi0 must be distinct from the singular points 0 and 1")

    @property
    def fuchsian_residual(self) -> float:
        return abs(self.a + self.b + 1.0 - (self.c + self.d + self.e))


def heun_ode(params: HeunParams) -> fuchsian.RationalCoeffODE:
    """The general Heun equation as a RationalCoeffODE in xi."""
    p = params
    # denominator xi (xi - 1) (xi - xi0), expanded
    den = (0j, p.xi0, -(1.0 + p.xi0), 1 + 0j)
    # numerator of p1: c (xi-1)(xi-xi0) + d xi (xi-1) + e xi (xi-xi0)
    num = (p.c * p.xi0, -p.c * (1.0 + p.xi0) + p.d * (-1.0) + p.e * (-p.xi0), p.c + p.d + p.e)
    return fuchsian.RationalCoeffODE(num, den, (p.q, p.a * p.b), den,
                                     ((0, 1, 1), (1, 1, 1), (p.xi0, 1, 1)))


def _check_target(sings: list[complex], target: complex) -> None:
    """Refuse a target that is not finite, on a singular point s, or on the
    real axis past a real s as seen from 0, where the branch cut from s runs."""
    if not cmath.isfinite(target):
        raise OutOfDomainError(f"target {complex(target)} is not finite")
    for s in sings:
        if abs(target - s) < 1e-9:
            raise OutOfDomainError(f"target {complex(target)} sits on a singular point")
        if target.imag == 0 == s.imag and s.real * target.real > 0 and abs(s) < abs(target):
            raise OutOfDomainError(f"target {complex(target)} lies on the branch cut from {s}")


def _sweep(ode: fuchsian.RationalCoeffODE, series: fuchsian.FrobeniusSolution,
           targets: list[complex], visit: Sequence[int], order: int) -> dict:
    """{i: value} for each index i of ``visit``: the solution at targets[i]
    (``fuchsian.evaluate``), read off the first disk, from the current one
    on, of one chain of Taylor hops from ``series`` (the series at 0,
    analytic there) that holds it (``fuchsian.reach``, ``order`` terms);
    off ``series`` itself, its prefix cut to the top of the binade of |z|.

    The points are visited in one order, in one loop: those on the real
    ray [0, inf) first, ascending, then the others by ascending modulus,
    ties in the order given. While the chain stands on ``series``, a point
    in its half disk is one sum off its binade's cut: no restart or hop
    can happen there, and a singular point s is at least |s|/2 away and
    farther out than z, so the target check runs only where that is
    within its 1e-9. Every other point, one of that half disk on a hop
    too, is reached from the disk that held the last. A new chain starts
    from 0 when the next point z lies in the other open half-plane from
    the current centre c, or lies outside that disk and no farther out
    than c along c's direction (Re(z conj c) < |c|^2). A path toward z
    off the real axis that would pass a singular point s at less than
    half the distance of either end goes round it through s + i |z - s|
    on z's side, since an error made near s can grow by orders of
    magnitude on the way out. So every path stays in one closed
    half-plane, moving away from 0 and clear of the singular points, and
    a solution cut along the real axis keeps its principal branch. On a
    real ray every hop heads exactly +1 or -1, so points visited outward
    along it get the values each would get alone. A point's error carries
    i as its ``index``.
    """
    keys = [(0, z.real) if z.imag == 0 and z.real >= 0 else (1, abs(z)) for z in targets]
    visit = sorted(visit, key=keys.__getitem__)
    # every finite singular point but 0, where the series is analytic
    sings = [s.location for s in fuchsian.singular_points(ode)
             if s.location is not fuchsian.INFINITY and s.location != 0]
    values, half, binade = {}, 0.5 * series.radius, None
    chain, k = [series], 0
    try:
        for i in visit:
            z = targets[i]
            if not (r := abs(z)) <= half or k:  # inf and nan too, which _check_target refuses
                c = chain[k].expansion_point
                if c.imag * z.imag < 0 or (abs(z - c) > 0.5 * chain[k].radius
                                           and (z * c.conjugate()).real < abs(c) ** 2):
                    chain, k, c = [series], 0, series.expansion_point
                _check_target(sings, z)
                if not abs(z - c) <= 0.5 * chain[k].radius:
                    for s in sings if z.imag else ():
                        t = min(1.0, max(0.0, ((s - c) * (z - c).conjugate()).real
                                         / abs(z - c) ** 2))
                        if abs(c + t * (z - c) - s) < 0.5 * min(abs(z - s), abs(c - s)):
                            detour = s + math.copysign(abs(z - s), z.imag) * 1j
                            k = fuchsian.reach(ode, chain, detour, order, k)
                    k = fuchsian.reach(ode, chain, z, order, k)
                if k:
                    values[i] = fuchsian.evaluate(chain[k], z)
                    continue
            elif half < 1e-9:
                _check_target(sings, z)
            if (e := math.frexp(r)[1]) != binade:  # the series at 0, cut on the binade of |z|
                binade, cut = e, fuchsian._truncate(series, math.ldexp(1.0, e))
            values[i] = fuchsian.evaluate(cut, z)
    except KGCoulombError as exc:
        exc.index = i
        raise
    return values


def heun_local(params: HeunParams, xi: complex | Sequence[complex],
               order: int = fuchsian._MAX_ORDER) -> complex | list[complex]:
    """The local Heun solution analytic at xi = 0 with H(0) = 1.

    ``xi`` is a point or a 1-D sequence of points (a list of values in input
    order); real points of a real block (q, a b, c, d, e, xi0 real) give
    floats, its series and hops run in floats, and any complex point gives
    complex values. Points within half the first radius of convergence are
    single Frobenius sums; the others are reached by Taylor hops (``_sweep``:
    each hop a series in its scaled variable, of at most the given order,
    cut where its tail falls below double precision). Each value is its sum
    alone (``fuchsian.evaluate``). The series at 0 is cut on the top of the
    binade of the largest |xi|, the half disk at most, and a point read off
    it sums its prefix cut on the top of its own binade, as one call per
    point would; the sweep visits the real ray xi >= 0 first, ascending, so
    its points share one chain and get those values too.
    """
    scalar = isinstance(xi, numbers.Number)
    ode = heun_ode(params)
    origin, *targets = fuchsian._numbers(ode._real, *((0, xi) if scalar else (0, *xi)))
    top = math.ldexp(1.0, math.frexp(max(map(abs, targets), default=0.0))[1])
    series = fuchsian.frobenius_series(ode, origin, 0, order=order, read=top)
    values = _sweep(ode, series, targets, range(len(targets)), order)
    return values[0] if scalar else [values[i] for i in range(len(targets))]


# ---------------------------------------------------------------------------
# the closed-form bound-state wavefunction of the undeformed problem
# ---------------------------------------------------------------------------


def psi_ordinary(system: CoulombSystem,
                 u: float | Sequence[float]) -> complex | list[complex]:
    """Momentum-space bound-state solution of the undeformed problem,

        psi(u) = u^-1 (1 + i u / eps_tilde)^(-3/2 - mu)
                 * 2F1(3/2 + mu, 1/2 - w + mu; 2 mu + 1; 2/(1 + i u/eps_tilde)),

    with overall normalization fixed to 1, for every u > 0: at a quantized
    energy the hypergeometric factor terminates, off quantization
    ``hyp2f1`` continues it, visiting the argument's points outward
    (u descending). ``u`` is a point or a sequence, as for ``heun_local``;
    a point's error carries its position as ``index``: a terminating sum
    that cancels (a high level n at small u), a prefactor out of range.
    """
    scalar = isinstance(u, numbers.Number)
    us = [u] if scalar else list(u)
    mu, et = system.mu, system.eps_tilde
    for i, x in enumerate(us):
        if x <= 0:
            exc = OutOfDomainError("psi_ordinary needs u > 0")
            exc.index = i
            raise exc
    bases = [1.0 + 1j * x / et for x in us]
    f = hyp2f1(1.5 + mu, 0.5 - system.w + mu, 2.0 * mu + 1.0, [2.0 / base for base in bases])
    psi = []
    for i, (x, base, fx) in enumerate(zip(us, bases, f)):
        try:
            psi.append((1.0 / x) * base ** (-1.5 - mu) * fx)
        except (OverflowError, ZeroDivisionError):  # a complex power of a huge base
            exc = OutOfDomainError("the prefactor (1 + i u/eps)^(-3/2 - mu) leaves the range")
            exc.index = i
            raise exc from None
    return psi[0] if scalar else psi
