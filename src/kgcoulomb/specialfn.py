"""Gauss hypergeometric and Heun machinery.

``hyp2f1`` is a direct series implementation with a Pfaff-transformed
fallback, which together cover |z| < 1 and Re z < 1/2. Terminating
series are detected first and summed exactly, domain checks skipped,
since polynomial cases stay valid everywhere.

The Heun side stores the parameter block of

    H'' + (c/xi + d/(xi - xi0) + e/(xi - 1)) H'
        + (a b xi + q) / (xi (xi - 1) (xi - xi0)) H = 0

and evaluates the local solution analytic at xi = 0 (normalized to
H(0) = 1) by Frobenius expansion, continued by stepped Taylor
re-expansion (``fuchsian.reach``) when the target lies past the first
disk of convergence.
A whole grid is evaluated in one sweep: the series at 0 is built once,
and the points on the real ray xi > 0 share one chain of Taylor hops,
which gives the same values as marching to each point alone.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

from . import fuchsian
from .errors import ConvergenceError, KGCoulombError, OutOfDomainError, ParameterPoleError
from .physcore import CoulombSystem

__all__ = [
    "hyp2f1",
    "hyp2f1_with_derivatives",
    "hypergeometric_ode",
    "HeunParams",
    "heun_ode",
    "heun_local",
    "psi_ordinary",
    "psi_ordinary_with_derivative",
]

_MAX_TERMS = 10_000


def _near_nonpositive_int(x: complex, tol: float = 1e-9) -> int | None:
    """Round x to a nonpositive integer when it is within tol of one.

    The tolerance is generous on purpose: quantized energies computed in
    floating point put the terminating parameter within ~1e-11 of the
    exact integer, and missing the termination throws evaluation into a
    divergent-argument branch.
    """
    if abs(x.imag) > tol:
        return None
    r = round(x.real)
    if r > 0 or abs(x.real - r) > tol:
        return None
    return int(r)


def _series_2f1(a: complex, b: complex, c: complex, z: complex,
                n_cap: int | None, tol: float) -> complex:
    """Plain power series; n_cap forces termination for polynomial cases."""
    term = 1.0 + 0j
    total = term
    small_streak = 0
    limit = n_cap if n_cap is not None else _MAX_TERMS
    for n in range(limit):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if n_cap is None:
            if abs(term) <= tol * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak >= 2:
                    return total
            else:
                small_streak = 0
    if n_cap is not None:
        return total
    raise ConvergenceError(
        f"hypergeometric series did not settle in {_MAX_TERMS} terms at z = {z}")


def hyp2f1(a: complex, b: complex, c: complex, z: complex,
           tol: float = 1e-15) -> complex:
    """Gauss 2F1(a, b; c; z).

    Terminating series (a or b a nonpositive integer) are summed exactly
    for any z. Otherwise the direct series covers |z| < 1 and the Pfaff
    transformation covers |z/(z-1)| < 1; whichever argument is smaller
    is used. Raises ParameterPoleError when c is a nonpositive integer
    and OutOfDomainError outside both regions.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _near_nonpositive_int(c) is not None:
        raise ParameterPoleError(f"2F1 pole: c = {c} is a nonpositive integer")

    stops = [-n for x in (a, b) if (n := _near_nonpositive_int(x)) is not None]
    if stops:
        return _series_2f1(a, b, c, z, min(stops) + 1, tol)

    if z == 1:
        raise OutOfDomainError("2F1 evaluation at z = 1 is not supported")
    w = z / (z - 1.0)
    if abs(z) < 1.0 and abs(z) <= abs(w):
        return _series_2f1(a, b, c, z, None, tol)
    if abs(w) < 1.0:
        return (1.0 - z) ** (-a) * _series_2f1(a, c - b, c, w, None, tol)
    raise OutOfDomainError(
        f"z = {z} lies outside |z| < 1 and |z/(z-1)| < 1; no continuation path")


def hyp2f1_with_derivatives(a: complex, b: complex, c: complex,
                            z: complex) -> tuple[complex, complex, complex]:
    """(F, dF/dz, d2F/dz2).

    Terminating series are differentiated term by term (the parameter
    shift would leave the polynomial family and lose the everywhere
    convergence); otherwise the contiguous shift is used.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    stops = [-n for x in (a, b) if (n := _near_nonpositive_int(x)) is not None]
    if stops:
        coeff = 1.0 + 0j
        f0 = f1 = f2 = 0j
        for k in range(min(stops) + 1):
            zp = z ** (k - 2) if k >= 2 else 0j
            f2 += k * (k - 1) * coeff * zp
            f1 += k * coeff * (z ** (k - 1) if k >= 1 else 0j)
            f0 += coeff * z ** k
            coeff *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
        return f0, f1, f2
    f0 = hyp2f1(a, b, c, z)
    f1 = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z)
    f2 = a * (a + 1) * b * (b + 1) / (c * (c + 1)) * hyp2f1(a + 2, b + 2, c + 2, z)
    return f0, f1, f2


def hypergeometric_ode(a: complex, b: complex, c: complex) -> fuchsian.RationalCoeffODE:
    """z(1-z) F'' + (c - (a+b+1) z) F' - a b F = 0 in normalized form."""
    den = (0j, 1 + 0j, -1 + 0j)  # z - z^2
    return fuchsian.RationalCoeffODE(
        p1_num=(c, -(a + b + 1.0)),
        p1_den=den,
        p0_num=(-a * b,),
        p0_den=den,
        points=((0, 1, 1), (1, 1, 1)),
        label="hypergeometric",
    )


@dataclass(frozen=True)
class HeunParams:
    """Parameter block (xi0, q, a, b, c, d, e) of the general Heun equation
    with singular points {0, xi0, 1, infinity}.

    The Fuchsian constraint a + b + 1 = c + d + e is checked on
    construction, as is xi0 staying away from the other finite points.
    """

    xi0: complex
    q: complex
    a: complex
    b: complex
    c: complex
    d: complex
    e: complex

    def __post_init__(self) -> None:
        scale = max(1.0, abs(self.a), abs(self.b), abs(self.c), abs(self.d), abs(self.e))
        gap = self.a + self.b + 1.0 - (self.c + self.d + self.e)
        if abs(gap) > 1e-12 * scale:
            raise ValueError(
                f"parameters violate the Fuchsian constraint: a+b+1-(c+d+e) = {gap}")
        if abs(self.xi0) < 1e-12 or abs(self.xi0 - 1.0) < 1e-12:
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
                                     ((0, 1, 1), (1, 1, 1), (p.xi0, 1, 1)), label="heun")


def _value_at(sol: fuchsian.FrobeniusSolution, target: complex) -> tuple[complex, complex]:
    if target == complex(sol.expansion_point):
        # only reachable for exponent-0 series, whose leading
        # coefficients are the value and derivative at the center
        c = sol.coefficients
        return c[0], (c[1] if len(c) > 1 else 0j)
    w, dw, _ = fuchsian.evaluate_with_derivatives(sol, target)
    return w, dw


def _check_target(sings: list[complex], target: complex) -> None:
    if min((abs(target - s) for s in sings), default=math.inf) < 1e-9:
        raise OutOfDomainError(f"target {target} sits on a singular point")


def _finite_singular_points(ode: fuchsian.RationalCoeffODE) -> list[complex]:
    return [s.location for s in fuchsian.singular_points(ode)
            if s.location is not fuchsian.INFINITY]


def _march_to(ode: fuchsian.RationalCoeffODE, start: fuchsian.FrobeniusSolution,
              target: complex, order: int) -> tuple[complex, complex]:
    """(value, derivative) at target, marching by Taylor re-expansion
    along the straight segment from the start expansion point."""
    _check_target(_finite_singular_points(ode), target)
    chain = [start]
    return _value_at(chain[fuchsian.reach(ode, chain, target, order)], target)


def heun_local(params: HeunParams, xi: complex | Sequence[complex],
               order: int = 64) -> complex | list[complex]:
    """The local Heun solution analytic at xi = 0 with H(0) = 1.

    ``xi`` is a point (the result is a complex) or a 1-D sequence of
    points (the result is a list of values in input order). Points
    inside half the first radius of convergence are single Frobenius
    sums. The others are reached by stepped Taylor re-expansion along a
    straight path from 0 (``fuchsian.reach``, at the given order),
    stopping short of any singular point.

    One sweep serves a whole grid: points on the real ray xi > 0 are
    visited in ascending order along one chain of hops, each evaluated
    from the first hop whose trusted disk holds it. On that ray every
    hop heads in the direction exactly 1, so the hop centres do not
    depend on the target and the shared chain is the one each point
    would march alone; values are identical to one call per point. Any
    other point marches its own chain from 0.

    When a point cannot be reached, the raised error's ``index`` is its
    position in the input.
    """
    scalar = isinstance(xi, numbers.Number)
    targets = [complex(xi)] if scalar else [complex(x) for x in xi]
    ode = heun_ode(params)
    series = fuchsian.frobenius_series(ode, 0j, 0j, order=order)
    values = [0j] * len(targets)
    ray, off_ray = [], []
    for i, x in enumerate(targets):
        if abs(x) <= 0.5 * series.radius:
            values[i] = fuchsian.evaluate(series, x).value
        else:
            (ray if x.imag == 0 and x.real > 0 else off_ray).append(i)
    ray.sort(key=lambda i: targets[i].real)
    sings = _finite_singular_points(ode)
    chain, k = [series], 0
    try:
        for i in ray:
            _check_target(sings, targets[i])
            k = fuchsian.reach(ode, chain, targets[i], order, k)
            values[i] = _value_at(chain[k], targets[i])[0]
        for i in off_ray:
            values[i] = _march_to(ode, series, targets[i], order)[0]
    except KGCoulombError as exc:
        exc.index = i
        raise
    return values[0] if scalar else values


# ---------------------------------------------------------------------------
# the closed-form bound-state wavefunction of the undeformed problem
# ---------------------------------------------------------------------------


def _psi_ordinary_pieces(system: CoulombSystem, u: float):
    mu = system.mu
    et = system.eps_tilde
    base = 1.0 + 1j * u / et
    zarg = 2.0 / base
    a = 1.5 + mu
    b = 0.5 - system.w + mu
    c = 2.0 * mu + 1.0
    return mu, et, base, zarg, a, b, c


def psi_ordinary(system: CoulombSystem, u: float) -> complex:
    """Momentum-space bound-state solution of the undeformed problem,

        psi(u) = u^-1 (1 + i u / eps_tilde)^(-3/2 - mu)
                 * 2F1(3/2 + mu, 1/2 - w + mu; 2 mu + 1; 2/(1 + i u/eps_tilde)),

    with overall normalization fixed to 1. At a quantized energy the
    hypergeometric factor terminates and the formula is valid for all
    u > 0; off quantization it needs u > sqrt(3) * eps_tilde, where the
    argument enters a convergence region.
    """
    if u <= 0:
        raise OutOfDomainError("psi_ordinary needs u > 0")
    mu, _, base, zarg, a, b, c = _psi_ordinary_pieces(system, u)
    return (1.0 / u) * base ** (-1.5 - mu) * hyp2f1(a, b, c, zarg)


def psi_ordinary_with_derivative(system: CoulombSystem, u: float) -> tuple[complex, complex]:
    """(psi, dpsi/du), the derivative taken analytically through both
    the prefactor and the hypergeometric argument."""
    if u <= 0:
        raise OutOfDomainError("psi_ordinary needs u > 0")
    mu, et, base, zarg, a, b, c = _psi_ordinary_pieces(system, u)
    f0, f1, _ = hyp2f1_with_derivatives(a, b, c, zarg)
    power = base ** (-1.5 - mu)
    psi = (1.0 / u) * power * f0
    dbase = 1j / et
    dzarg = -2.0 / (base * base) * dbase
    dpsi = (-1.0 / (u * u)) * power * f0 \
        + (1.0 / u) * (-1.5 - mu) * power / base * dbase * f0 \
        + (1.0 / u) * power * f1 * dzarg
    return psi, dpsi
