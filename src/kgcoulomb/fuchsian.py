"""Second-order linear ODEs with rational coefficients.

The central object is ``RationalCoeffODE``, the equation

    w''(z) + p1(z) w'(z) + p0(z) w(z) = 0

with both coefficients stored as polynomial quotients. On top of it sit
a census of singular points, indicial exponents (including the point at
infinity through the pullback t = 1/z), Frobenius and Taylor series with
banded recurrences read off the polynomial data, and series evaluation
with derivatives and a defect check.

Exponents at infinity follow the convention w ~ z^sigma, so decaying
solutions carry negative sigma; the pullback exponent in t is -sigma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IrregularPointError, OutOfDomainError, ResonantExponentsError

__all__ = [
    "INFINITY",
    "RationalCoeffODE",
    "SingularPoint",
    "FrobeniusSolution",
    "EvalResult",
    "singular_points",
    "indicial_exponents",
    "frobenius_series",
    "taylor_series",
    "evaluate",
    "evaluate_with_derivatives",
    "residual",
]

_TRIM_TOL = 1e-13
_MATCH_TOL = 1e-7


class _InfinityType:
    """Singleton marker for the point at infinity."""

    _instance = None

    def __new__(cls) -> "_InfinityType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()

Point = Union[complex, _InfinityType]


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, ascending powers)
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[complex, ...]:
    c = [complex(x) for x in coeffs]
    scale = max((abs(x) for x in c), default=0.0)
    if scale == 0.0:
        return (0j,)
    while len(c) > 1 and abs(c[-1]) <= _TRIM_TOL * scale:
        c.pop()
    return tuple(c)


def _polyval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _polymul(a, b) -> tuple[complex, ...]:
    return _trim(npoly.polymul(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def _polyadd(a, b) -> tuple[complex, ...]:
    return _trim(npoly.polyadd(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def _polyscale(a, s: complex) -> tuple[complex, ...]:
    return tuple(complex(s) * complex(x) for x in a)


def _shift(coeffs, z0: complex) -> tuple[complex, ...]:
    """Taylor coefficients of the polynomial around z0 (synthetic division)."""
    work = [complex(x) for x in coeffs]
    n = len(work)
    out = []
    for _ in range(n):
        # divide by (z - z0): remainder is the next Taylor coefficient
        rem = 0j
        for i in reversed(range(len(work))):
            rem = rem * z0 + work[i]
        new = []
        acc = 0j
        for i in reversed(range(1, len(work))):
            acc = acc * z0 + work[i]
            new.append(acc)
        new.reverse()
        out.append(rem)
        work = new if new else [0j]
    return tuple(out)


def _vanish_order(coeffs, z0: complex) -> int:
    """Order of the zero of the polynomial at z0 (0 if no zero there)."""
    shifted = _shift(coeffs, z0)
    scale = max(abs(x) for x in shifted)
    if scale == 0.0:
        return len(shifted)
    for j, c in enumerate(shifted):
        if abs(c) > 1e-9 * scale:
            return j
    return len(shifted)


def _deflate(coeffs, z0: complex) -> tuple[complex, ...]:
    """Divide by (z - z0), discarding the remainder."""
    work = [complex(x) for x in coeffs]
    new = []
    acc = 0j
    for i in reversed(range(1, len(work))):
        acc = acc * z0 + work[i]
        new.append(acc)
    new.reverse()
    return tuple(new) if new else (0j,)


def _poly_roots(coeffs) -> list[complex]:
    c = _trim(coeffs)
    if len(c) == 1:
        return []
    arr = np.asarray(c, dtype=complex)
    darr = npoly.polyder(arr)
    out = []
    for r in npoly.polyroots(arr):
        r = complex(r)
        # Newton polish; a tiny derivative means a clustered root, where
        # polishing would drift, so leave those to the clustering pass
        for _ in range(2):
            dv = _polyval(darr, r)
            if abs(dv) < 1e-12:
                break
            step = _polyval(arr, r) / dv
            if abs(step) > 1e-2 * max(1.0, abs(r)):
                break
            r = r - step
        out.append(complex(r))
    return out


def _cluster(roots: list[complex], tol: float = _MATCH_TOL) -> list[tuple[complex, int]]:
    """Group near-coincident roots; returns (centroid, multiplicity) pairs."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(r - center) <= tol * max(1.0, abs(center)):
                cl.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def _same_point(a: complex, b: complex, tol: float = _MATCH_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _reversed_coeffs(coeffs) -> tuple[complex, ...]:
    return tuple(reversed(coeffs))


# ---------------------------------------------------------------------------
# the ODE container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalCoeffODE:
    """w'' + (p1_num/p1_den) w' + (p0_num/p0_den) w = 0.

    Coefficient tuples are ascending-power. Construction normalizes each
    quotient: trailing zeros trimmed, the denominator made monic, and
    common roots cancelled so pole orders read directly off the stored
    polynomials.
    """

    p1_num: tuple[complex, ...]
    p1_den: tuple[complex, ...]
    p0_num: tuple[complex, ...]
    p0_den: tuple[complex, ...]
    label: str = ""

    def __post_init__(self) -> None:
        n1, d1 = _normalize_quotient(self.p1_num, self.p1_den)
        n0, d0 = _normalize_quotient(self.p0_num, self.p0_den)
        object.__setattr__(self, "p1_num", n1)
        object.__setattr__(self, "p1_den", d1)
        object.__setattr__(self, "p0_num", n0)
        object.__setattr__(self, "p0_den", d0)

    def p1(self, z: complex) -> complex:
        return _polyval(self.p1_num, z) / _polyval(self.p1_den, z)

    def p0(self, z: complex) -> complex:
        return _polyval(self.p0_num, z) / _polyval(self.p0_den, z)

    # The census and the pullback depend only on the frozen polynomial
    # data, so each is computed once per equation; every re-centred
    # series reads the census for its radius.

    @cached_property
    def _census(self) -> tuple["SingularPoint", ...]:
        return _take_census(self)

    @cached_property
    def _pullback(self) -> "RationalCoeffODE":
        """The equation satisfied by W(t) = w(1/t) near t = 0.

        P1(t) = 2/t - p1(1/t)/t^2 and P0(t) = p0(1/t)/t^4.
        """
        n1, d1 = self.p1_num, self.p1_den
        m = (len(d1) - 1) - (len(n1) - 1) - 2
        rn1, rd1 = _reversed_coeffs(n1), _reversed_coeffs(d1)
        if m >= 0:
            num = _polyadd(_polyscale(rd1, 2.0), _polyscale(_polymul((0j,) * (m + 1) + (1 + 0j,), rn1), -1.0))
            den = _polymul((0j, 1 + 0j), rd1)
        else:
            num = _polyadd(_polymul((0j,) * (-m - 1) + (2 + 0j,), rd1), _polyscale(rn1, -1.0))
            den = _polymul((0j,) * (-m) + (1 + 0j,), rd1)

        n0, d0 = self.p0_num, self.p0_den
        e = (len(d0) - 1) - (len(n0) - 1) - 4
        rn0, rd0 = _reversed_coeffs(n0), _reversed_coeffs(d0)
        if e >= 0:
            num0 = _polymul((0j,) * e + (1 + 0j,), rn0) if e > 0 else rn0
            den0 = rd0
        else:
            num0 = rn0
            den0 = _polymul((0j,) * (-e) + (1 + 0j,), rd0)

        return RationalCoeffODE(num, den, num0, den0,
                                label=(self.label + "@infinity") if self.label else "pullback")


def _normalize_quotient(num, den):
    num = _trim(num)
    den = _trim(den)
    if len(den) == 1 and den[0] == 0:
        raise ValueError("coefficient denominator is identically zero")
    if len(num) == 1 and num[0] == 0:
        return (0j,), (1 + 0j,)
    # cancel shared roots
    for root, mult in _cluster(_poly_roots(den)):
        k = min(mult, _vanish_order(num, root))
        for _ in range(k):
            num = _deflate(num, root)
            den = _deflate(den, root)
    lead = den[-1]
    num = _polyscale(num, 1.0 / lead)
    den = _polyscale(den, 1.0 / lead)
    return _trim(num), _trim(den)


# ---------------------------------------------------------------------------
# local data at a point, census, indicial exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    location: Point
    kind: str  # "regular" or "irregular"
    pole_order_p1: int
    pole_order_p0: int
    exponents: tuple[complex, complex] | None  # None when irregular


def _quotient_local(num, den, z0: complex, weight: int) -> tuple[int, complex]:
    """Pole order of num/den at z0 and the limit of (z-z0)^weight * num/den."""
    kn = _vanish_order(num, z0)
    kd = _vanish_order(den, z0)
    order = kd - kn
    if kn + weight > kd:
        lim = 0j
    elif kn + weight == kd:
        ns = _shift(num, z0)
        ds = _shift(den, z0)
        lim = ns[kn] / ds[kd]
    else:
        lim = complex(math.inf, 0.0)
    return order, lim


def _sorted_pair(a: complex, b: complex) -> tuple[complex, complex]:
    """Descending by real part, ties broken by descending imaginary part."""
    pair = sorted([a, b], key=lambda s: (-s.real, -s.imag))
    return (pair[0], pair[1])


def _local_exponents(ode: RationalCoeffODE, z0: complex):
    """(pole orders, exponent pair or None) at a finite point."""
    o1, q1 = _quotient_local(ode.p1_num, ode.p1_den, z0, 1)
    o0, q0 = _quotient_local(ode.p0_num, ode.p0_den, z0, 2)
    if o1 > 1 or o0 > 2:
        return o1, o0, None
    q1, q0 = complex(q1), complex(q0)
    disc = cmath.sqrt((q1 - 1.0) ** 2 - 4.0 * q0)
    s1 = (-(q1 - 1.0) + disc) / 2.0
    s2 = (-(q1 - 1.0) - disc) / 2.0
    return o1, o0, _sorted_pair(s1, s2)


def singular_points(ode: RationalCoeffODE) -> list[SingularPoint]:
    """All finite singular points plus the point at infinity.

    Finite points are the denominator roots surviving normalization;
    infinity is always reported, classified through the pullback. Points
    are ordered by (real, imaginary), infinity last. Exponents at
    infinity use the z^sigma convention. The census is taken once per
    equation; each call returns a fresh list.
    """
    return list(ode._census)


def _take_census(ode: RationalCoeffODE) -> tuple[SingularPoint, ...]:
    locs: list[complex] = []
    for root, _ in _cluster(_poly_roots(ode.p1_den)) + _cluster(_poly_roots(ode.p0_den)):
        if not any(_same_point(root, other) for other in locs):
            locs.append(root)
    out = []
    for z0 in sorted(locs, key=lambda z: (z.real, z.imag)):
        o1, o0, exps = _local_exponents(ode, z0)
        if o1 <= 0 and o0 <= 0:
            continue  # removable; nothing singular survived normalization
        kind = "regular" if exps is not None else "irregular"
        out.append(SingularPoint(z0, kind, o1, o0, exps))

    o1, o0, exps = _local_exponents(ode._pullback, 0j)
    if exps is not None:
        exps = _sorted_pair(-exps[0], -exps[1])
    kind = "regular" if exps is not None else "irregular"
    out.append(SingularPoint(INFINITY, kind, o1, o0, exps))
    return tuple(out)


def indicial_exponents(ode: RationalCoeffODE, point: Point) -> tuple[complex, complex]:
    """The two indicial roots at a regular singular (or ordinary) point.

    At infinity the pair is returned in the w ~ z^sigma convention.
    Raises IrregularPointError when the point fails the pole-order test.
    """
    if point is INFINITY:
        inf = ode._census[-1]
        if inf.exponents is None:
            raise IrregularPointError(
                f"infinity is irregular: pullback pole orders "
                f"({inf.pole_order_p1}, {inf.pole_order_p0})")
        return inf.exponents
    z0 = complex(point)
    o1, o0, exps = _local_exponents(ode, z0)
    if exps is None:
        raise IrregularPointError(
            f"point {z0} is irregular: pole orders ({o1}, {o0})")
    return exps


# ---------------------------------------------------------------------------
# series solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusSolution:
    """A local solution sum_k c_k x^(rho+k) with x the local variable.

    For a finite expansion point x = z - z0 and rho is the indicial
    exponent there. For infinity x = 1/z and ``exponent`` stores sigma
    (the z^sigma convention), so the series is z^sigma * sum c_k z^-k.
    ``radius`` is the distance to the nearest other singular point in
    the local variable; evaluation refuses points at or beyond it.
    """

    expansion_point: Point
    exponent: complex
    coefficients: tuple[complex, ...]
    radius: float


def _series_triple(ode: RationalCoeffODE, z0: complex):
    """Polynomial triple (P2, P1, P0), shifted to z0, with
    P2 w'' + P1 w' + P0 w = 0 equivalent to the stored quotients."""
    p2 = _polymul(ode.p1_den, ode.p0_den)
    p1 = _polymul(ode.p1_num, ode.p0_den)
    p0 = _polymul(ode.p0_num, ode.p1_den)
    if z0 != 0:
        p2, p1, p0 = _shift(p2, z0), _shift(p1, z0), _shift(p0, z0)
    return p2, p1, p0


def _series_radius(ode: RationalCoeffODE, point: Point) -> float:
    sings = singular_points(ode)
    best = math.inf
    if point is INFINITY:
        for s in sings:
            if s.location is INFINITY:
                continue
            r = abs(s.location)
            if r > _MATCH_TOL:
                best = min(best, 1.0 / r)
        return best
    z0 = complex(point)
    for s in sings:
        if s.location is INFINITY or _same_point(s.location, z0):
            continue
        best = min(best, abs(s.location - z0))
    return best


def _recurrence(p2, p1, p0, kappa: int, rho: complex, order: int,
                seeds: list[complex]) -> list[complex]:
    """Run the banded recurrence c_m I(rho+m) = -sum_{k<m} c_k L(m, k).

    ``seeds`` supplies the leading coefficients (one for a Frobenius
    series, two for a Taylor series at an ordinary point); pivots for
    the seeded indices are never evaluated.
    """

    def a(j):
        return p2[j] if 0 <= j < len(p2) else 0j

    def b(j):
        return p1[j] if 0 <= j < len(p1) else 0j

    def d(j):
        return p0[j] if 0 <= j < len(p0) else 0j

    def pivot(s: complex) -> complex:
        return a(kappa) * s * (s - 1.0) + b(kappa - 1) * s + d(kappa - 2)

    # L(m, k) reads P2, P1, P0 at offsets m - k above kappa, kappa - 1,
    # kappa - 2, so it vanishes once m - k reaches the band width
    band = max(len(p2) - kappa, len(p1) - kappa + 1, len(p0) - kappa + 2)
    coeffs: list[complex] = list(seeds)
    for m in range(len(seeds), order + 1):
        acc = 0j
        for k in range(max(0, m - band + 1), m):
            s = rho + k
            term = (a(kappa + m - k) * s * (s - 1.0)
                    + b(kappa - 1 + m - k) * s
                    + d(kappa - 2 + m - k))
            if term != 0j and coeffs[k] != 0j:
                acc += coeffs[k] * term
        piv = pivot(rho + m)
        if piv == 0j:
            raise ResonantExponentsError(
                f"recurrence pivot vanished at series index {m}")
        coeffs.append(-acc / piv)
    return coeffs


def frobenius_series(ode: RationalCoeffODE, point: Point, exponent: complex,
                     order: int = 64) -> FrobeniusSolution:
    """Frobenius series at a regular singular point for the given exponent.

    The exponent is matched against the indicial pair and replaced by
    the exact root, so a few digits are enough to select a branch.
    Raises ResonantExponentsError when the other root sits a nonnegative
    integer above the requested one (vanishing pivot); the series for
    the larger root of a resonant pair is still available.
    """
    pair = indicial_exponents(ode, point)
    matched = None
    for cand in pair:
        if abs(cand - exponent) <= 1e-6 * (1.0 + abs(cand)):
            matched = cand
            break
    if matched is None:
        raise ValueError(
            f"exponent {exponent} does not match either indicial root {pair}")
    other = pair[0] if matched is pair[1] else pair[1]

    if point is INFINITY:
        rho = -matched
        rho_other = -other
        work = ode._pullback
        z0 = 0j
    else:
        rho, rho_other = matched, other
        work = ode
        z0 = complex(point)

    gap = rho_other - rho
    if abs(gap.imag) < 1e-9 and abs(gap.real - round(gap.real)) < 1e-9 and round(gap.real) >= 0:
        raise ResonantExponentsError(
            f"exponents {pair} differ by the nonnegative integer {round(gap.real)}; "
            "request the other branch or treat the log solution separately")

    p2, p1, p0 = _series_triple(work, z0)
    kappa = _vanish_order(p2, 0j)
    coeffs = _recurrence(p2, p1, p0, kappa, rho, order, [1 + 0j])
    return FrobeniusSolution(point, matched, tuple(coeffs), _series_radius(ode, point))


def taylor_series(ode: RationalCoeffODE, center: complex, value: complex,
                  derivative: complex, order: int = 64) -> FrobeniusSolution:
    """Power series at an ordinary point with given w(center), w'(center)."""
    center = complex(center)
    p2, p1, p0 = _series_triple(ode, center)
    kappa = _vanish_order(p2, 0j)
    if kappa != 0:
        raise ValueError(f"{center} is a singular point; taylor_series needs an ordinary one")
    coeffs = _recurrence(p2, p1, p0, 0, 0j, order, [complex(value), complex(derivative)])
    return FrobeniusSolution(center, 0j, tuple(coeffs), _series_radius(ode, center))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    value: complex
    error: float


def _local_coordinate(sol: FrobeniusSolution, z: complex) -> tuple[complex, complex]:
    """(x, rho) with the series reading x^rho * sum c_k x^k."""
    if sol.expansion_point is INFINITY:
        if z == 0:
            raise OutOfDomainError("cannot evaluate a series about infinity at z = 0")
        return 1.0 / complex(z), -sol.exponent
    return complex(z) - complex(sol.expansion_point), sol.exponent


def _series_sums(coeffs, x: complex):
    """sum c_k x^k and its first two derivatives with respect to x."""
    s0 = s1 = s2 = 0j
    for c in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s0
        s0 = s0 * x + c
    return s0, s1, s2


def _tail_estimate(sol: FrobeniusSolution, x: complex) -> float:
    n = len(sol.coefficients) - 1
    last = abs(sol.coefficients[n]) * abs(x) ** n
    if math.isfinite(sol.radius) and sol.radius > 0:
        ratio = abs(x) / sol.radius
    else:
        ratio = 0.5
    ratio = min(ratio, 0.999)
    return last * ratio / (1.0 - ratio)


def _check_domain(sol: FrobeniusSolution, x: complex) -> None:
    if abs(x) >= sol.radius:
        where = "1/z" if sol.expansion_point is INFINITY else "z - z0"
        raise OutOfDomainError(
            f"evaluation point has |{where}| = {abs(x):.6g} outside the series "
            f"disk of radius {sol.radius:.6g}")


def evaluate(sol: FrobeniusSolution, z: complex) -> EvalResult:
    """Value of the local solution at z, with a crude tail error estimate."""
    x, rho = _local_coordinate(sol, z)
    _check_domain(sol, x)
    s0, _, _ = _series_sums(sol.coefficients, x)
    if x == 0:
        if rho == 0:
            return EvalResult(sol.coefficients[0], 0.0)
        if rho.real > 0:
            return EvalResult(0j, 0.0)
        raise OutOfDomainError("series diverges at its own expansion point")
    head = x ** rho
    return EvalResult(head * s0, abs(head) * _tail_estimate(sol, x))


def evaluate_with_derivatives(sol: FrobeniusSolution, z: complex) -> tuple[complex, complex, complex]:
    """(w, w', w'') at z, derivatives taken with respect to z."""
    x, rho = _local_coordinate(sol, z)
    _check_domain(sol, x)
    if x == 0:
        raise OutOfDomainError("derivative evaluation needs a point away from the expansion center")
    s0, s1, s2 = _series_sums(sol.coefficients, x)
    w = x ** rho * s0
    dw_dx = x ** (rho - 1) * (rho * s0 + x * s1)
    d2w_dx2 = x ** (rho - 2) * (rho * (rho - 1.0) * s0 + 2.0 * rho * x * s1 + x * x * s2)
    if sol.expansion_point is INFINITY:
        t = x
        dw_dz = -t * t * dw_dx
        d2w_dz2 = t ** 4 * d2w_dx2 + 2.0 * t ** 3 * dw_dx
        return w, dw_dz, d2w_dz2
    return w, dw_dx, d2w_dx2


def residual(ode: RationalCoeffODE, sol: FrobeniusSolution, z: complex) -> float:
    """Relative defect |w'' + p1 w' + p0 w| / (|w''| + |p1 w'| + |p0 w|)."""
    w, dw, d2w = evaluate_with_derivatives(sol, z)
    terms = (d2w, ode.p1(z) * dw, ode.p0(z) * w)
    num = abs(sum(terms))
    den = sum(abs(t) for t in terms)
    if den == 0.0:
        return 0.0
    return num / den
