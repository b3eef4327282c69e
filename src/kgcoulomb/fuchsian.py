"""Second-order linear ODEs with rational coefficients.

The central object is ``RationalCoeffODE``, the equation

    w''(z) + p1(z) w'(z) + p0(z) w(z) = 0

with both coefficients stored as polynomial quotients. On top of it sit
a census of singular points, indicial exponents (including the point at
infinity through the pullback t = 1/z), Frobenius and Taylor series with
banded recurrences read off the polynomial data, and series evaluation
with derivatives and a defect check.

It also holds the one analytic-continuation engine of the package: a
chain of Taylor re-expansions (``reach``), each hop 0.4 of the last
radius of convergence along a straight path, with dense output from
every local disk (``evaluate_chain``). These equations are D-finite, so
every re-expansion is one banded recurrence; since the radius grows with
the distance from the finite singular points, the hop count grows only
logarithmically along a ray to infinity.

Two transforms act on raw coefficient quotients: ``substitute`` changes
the variable, z = a(t)/b(t) (the pullback is z = 1/t), and ``gauge``
peels off a prefactor, w = f^k v.

Exponents at infinity follow the convention w ~ z^sigma, so decaying
solutions carry negative sigma; the pullback exponent in t is -sigma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Union

from .errors import (ConvergenceError, IrregularPointError, OutOfDomainError,
                     ResonantExponentsError)

if TYPE_CHECKING:
    import numpy as np

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
    "reach",
    "evaluate",
    "evaluate_with_derivatives",
    "evaluate_chain",
    "residual",
    "substitute",
    "gauge",
]

_TRIM_TOL = 1e-13
_MATCH_TOL = 1e-7
_MAX_HOPS = 200
_ABERTH_MAX_ITER = 100
_EPS = 2.0 ** -52


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


def _polymul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _polyadd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return tuple(out)


def _polyscale(a, s) -> tuple:
    return tuple(s * x for x in a)


def _polyder(a) -> tuple:
    return tuple(k * a[k] for k in range(1, len(a)))


def _divide(coeffs, z0) -> tuple[list, complex]:
    """Quotient and remainder (the value at z0) of division by (z - z0)."""
    acc = 0j
    partial = []
    for c in reversed(coeffs):
        acc = acc * z0 + c
        partial.append(acc)
    remainder = partial.pop()
    return partial[::-1], remainder


def _shift(coeffs, z0: complex) -> tuple[complex, ...]:
    """Taylor coefficients of the polynomial around z0 (_divide repeated, inlined)."""
    work = [complex(x) for x in coeffs]
    out = []
    while work:
        acc = 0j
        partial = []
        for c in reversed(work):
            acc = acc * z0 + c
            partial.append(acc)
        out.append(partial.pop())
        work = partial[::-1]
    return tuple(out)


def _vanish_order(coeffs, z0: complex, shifted=None) -> int:
    """Order of the zero at z0: the j-th Taylor coefficient there (``shifted``,
    if at hand) is zero while below 4 n eps sum_k C(k, j) |c_k| |z0|^(k-j),
    twice Horner's rounding bound (as in _aberth); at 0 only exact zeros are."""
    if shifted is None:
        shifted = _shift(coeffs, z0)
    tol = 4.0 * (len(coeffs) - 1) * _EPS
    sizes = [abs(x) for x in coeffs]
    for j, c in enumerate(shifted):
        sizes, level = _divide(sizes, abs(z0))
        if abs(c) > tol * abs(level):
            return j
    return len(shifted)


def _deflate(coeffs, z0: complex) -> tuple[complex, ...]:
    """Divide by (z - z0), discarding the remainder; low-order exact zeros stay."""
    k = next((i for i, c in enumerate(coeffs) if c != 0), len(coeffs) - 1)
    quotient, _ = _divide(coeffs[k:], z0)
    return tuple([0j] * k + quotient) if quotient else (0j,)


def _poly_roots(coeffs) -> list[complex]:
    """All roots, repeated by multiplicity; exact zero roots come out as 0j."""
    c = list(_trim(coeffs))
    zeros = 0
    while len(c) > 1 and c[0] == 0:
        c.pop(0)
        zeros += 1
    dc = _polyder(c)
    out = [0j] * zeros
    for r, stalled in _aberth(c, dc):
        # Newton polish; near a multiple root (the iteration stalled
        # there, or the derivative is tiny) polishing would only follow
        # rounding noise, so leave those to the clustering pass
        for _ in range(2):
            dv = _polyval(dc, r)
            if stalled or abs(dv) < 1e-12:
                break
            step = _polyval(c, r) / dv
            if abs(step) > 1e-2 * max(1.0, abs(r)):
                break
            r = r - step
        out.append(r)
    return out


def _aberth(c, dc) -> list[tuple[complex, bool]]:
    """Roots of the polynomial c (derivative dc), constant term nonzero,
    by Aberth-Ehrlich simultaneous iteration (Aberth, Math. Comp. 27,
    1973), each approximation updated in place.

    The starting points lie on one circle per edge of the Newton polygon
    of the coefficients, so roots of very different moduli start near
    their own modulus. An approximation is final once its correction is
    below 1e-15 relative, or once corrections stop shrinking while the
    polynomial's value there is down to the rounding error of evaluating
    it: that is a multiple root, where corrections stall near sqrt(eps),
    and the stalled step is dropped. Returns (root, stalled) pairs.
    """
    n = len(c) - 1
    z = _newton_polygon_start(c)
    stalled = [False] * n
    # twice the rounding-error bound of Horner's rule, 2 n eps sum |c_k| |z|^k
    noise = 4.0 * n * _EPS
    sizes = [abs(x) for x in c]
    last = [math.inf] * n
    active = list(range(n))
    for _ in range(_ABERTH_MAX_ITER):
        still = []
        for k in active:
            zk = z[k]
            p = _polyval(c, zk)
            if p == 0:
                continue
            pull = 0j
            for j in range(n):
                if j != k:
                    pull += 1.0 / (zk - z[j])
            step = p / (_polyval(dc, zk) - p * pull)
            size = abs(step)
            if size >= last[k] and abs(p) <= noise * abs(_polyval(sizes, abs(zk))):
                stalled[k] = True  # the step follows rounding noise: drop it
                continue
            z[k] = zk - step
            if size <= 1e-15 * abs(z[k]):
                continue
            last[k] = size
            still.append(k)
        active = still
        if not active:
            break
    return list(zip(z, stalled))


def _newton_polygon_start(c) -> list[complex]:
    """Starting points: j - i roots on the circle of radius
    (|c_i| / |c_j|)^(1/(j - i)) for each edge (i, j) of the upper convex
    hull of the points (k, log|c_k|) (Bini, Numer. Algorithms 13, 1996)."""
    n = len(c) - 1
    hull: list[tuple[int, float]] = []
    for k, x in enumerate(c):
        if x == 0:
            continue
        pt = (k, math.log(abs(x)))
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (i1 - i0) * (pt[1] - l0) - (l1 - l0) * (pt[0] - i0) < 0:
                break
            hull.pop()
        hull.append(pt)
    z = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radius = math.exp((li - lj) / (j - i))
        for q in range(j - i):
            z.append(cmath.rect(radius, 2.0 * math.pi * (q / (j - i) + i / n) + 0.4))
    return z


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


# ---------------------------------------------------------------------------
# coefficient transforms on raw ((p1_num, p1_den), (p0_num, p0_den)) pairs;
# only +, - and * touch the coefficients, so sympy tables pass through too
# ---------------------------------------------------------------------------


def _polypow(p, k: int) -> tuple:
    return reduce(_polymul, [p] * k, (1,))


def _homogenize(p, a, b) -> tuple:
    """b^n p(a/b) = sum_k p_k a^k b^(n-k), n = len(p) - 1, by Horner's rule."""
    acc, bk = (p[-1],), (1,)
    for c in reversed(p[:-1]):
        bk = _polymul(bk, b)
        acc = _polyadd(_polymul(acc, a), _polyscale(bk, c))
    return acc


def _cancel_t(num, den) -> tuple[tuple, tuple]:
    """Strip the power of t that num and den share (exact zeros only)."""
    k = 0
    while k < min(len(num), len(den)) - 1 and num[k] == 0 and den[k] == 0:
        k += 1
    return num[k:], den[k:]


def substitute(pair, a, b):
    """The equation for W(t) = w(a(t)/b(t)), a and b polynomials in t.

    With z = a/b, E = a b' - a' b (so z' = -E/b^2) and N, D the
    numerators and denominators homogenized by b (b^deg N(a/b), ...):

        P1 = p1(z) z' - z''/z' = [(2 E b' - E' b) D1 - N1 E^2 b^m1] / (b E D1),
        P0 = p0(z) z'^2 = N0 E^2 b^m0 / D0,

    m1 = deg D1 - deg N1 - 1, m0 = deg D0 - deg N0 - 4; a negative power
    of b moves to the denominator, and shared powers of t cancel exactly.
    """
    (n1, d1), (n0, d0) = pair
    db = _polyder(b)
    e = _polyadd(_polymul(a, db), _polyscale(_polymul(_polyder(a), b), -1))
    e2 = _polymul(e, e)
    d1h = _homogenize(d1, a, b)
    bend = _polyadd(_polyscale(_polymul(e, db), 2), _polyscale(_polymul(_polyder(e), b), -1))
    m1, m0 = len(d1) - len(n1) - 1, len(d0) - len(n0) - 4
    s1, s0 = max(0, -m1), max(0, -m0)
    drift = _polymul(_polymul(_homogenize(n1, a, b), e2), _polypow(b, m1 + s1))
    num1 = _polyadd(_polymul(_polymul(bend, d1h), _polypow(b, s1)), _polyscale(drift, -1))
    den1 = _polymul(_polymul(_polymul(b, e), d1h), _polypow(b, s1))
    num0 = _polymul(_polymul(_homogenize(n0, a, b), e2), _polypow(b, m0 + s0))
    den0 = _polymul(_homogenize(d0, a, b), _polypow(b, s0))
    return _cancel_t(num1, den1), _cancel_t(num0, den0)


def gauge(pair, f, k: int):
    """The equation for v where w = f^k v, f a polynomial:

        Q1 = p1 + 2 k f'/f,
        Q0 = p0 + k p1 f'/f + k f''/f + k (k - 1) (f'/f)^2,

    both over C f^2, with C = D1 when p1 and p0 share their denominator
    and D0 D1 otherwise; shared powers of t cancel exactly in each.
    """
    (n1, common), (n0, d0) = pair
    if common != d0:
        common, n1, n0 = _polymul(d0, common), _polymul(n1, d0), _polymul(n0, common)
    df = _polyder(f)
    curve = _polyadd(_polyscale(_polymul(_polyder(df), f), k),
                     _polyscale(_polymul(df, df), k * (k - 1)))
    num1 = _polymul(_polyadd(_polymul(n1, f), _polyscale(_polymul(df, common), 2 * k)), f)
    num0 = _polyadd(_polymul(_polyadd(_polymul(n0, f), _polyscale(_polymul(n1, df), k)), f),
                    _polymul(curve, common))
    den = _polymul(common, _polymul(f, f))
    return _cancel_t(num1, den), _cancel_t(num0, den)


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
    def _products(self) -> tuple[tuple[complex, ...], ...]:
        """Unshifted (P2, P1, P0) of the polynomial form; see _series_triple."""
        pairs = ((self.p1_den, self.p0_den), (self.p1_num, self.p0_den), (self.p0_num, self.p1_den))
        return tuple(_trim(_polymul(x, y)) for x, y in pairs)

    @cached_property
    def _pullback(self) -> "RationalCoeffODE":
        """The equation satisfied by W(t) = w(1/t) near t = 0."""
        (n1, d1), (n0, d0) = substitute(
            ((self.p1_num, self.p1_den), (self.p0_num, self.p0_den)), (1,), (0, 1))
        return RationalCoeffODE(n1, d1, n0, d0,
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
    the local variable (or less, when capped); evaluation refuses points
    at or beyond it. With ``scale`` other than 1 the coefficients are
    those of the scaled variable, sum c_k (x/scale)^k.
    """

    expansion_point: Point
    exponent: complex
    coefficients: tuple[complex, ...]
    radius: float
    scale: float = 1.0


def _series_triple(ode: RationalCoeffODE, z0: complex):
    """Polynomial triple (P2, P1, P0), shifted to z0, with
    P2 w'' + P1 w' + P0 w = 0 equivalent to the stored quotients."""
    p2, p1, p0 = ode._products
    if z0 != 0:
        p2, p1, p0 = _shift(p2, z0), _shift(p1, z0), _shift(p0, z0)
    return p2, p1, p0


def _series_radius(ode: RationalCoeffODE, point: Point) -> float:
    sings = ode._census
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
                seeds: list[complex], tol: float | None = None) -> list[complex]:
    """Run the banded recurrence c_m I(rho+m) = -sum_{k<m} c_k L(m, k).

    ``seeds`` supplies the leading coefficients (one for a Frobenius
    series, two for a Taylor series at an ordinary point); pivots for
    the seeded indices are never evaluated. With ``tol`` the series
    stops before ``order`` once two successive terms on the half disk
    |x| <= 1/2, |c_m| / 2^m, fall below tol times the largest term.
    """
    # L(m, k) reads P2, P1, P0 at offsets j = m - k above kappa,
    # kappa - 1, kappa - 2, so it vanishes once j reaches the band width;
    # the tables hold those entries, zero-padded, for j = 0 .. band - 1
    band = max(len(p2) - kappa, len(p1) - kappa + 1, len(p0) - kappa + 2)

    def table(p, offset):
        return [p[offset + j] if 0 <= offset + j < len(p) else 0j for j in range(band)]

    a, b, d = table(p2, kappa), table(p1, kappa - 1), table(p0, kappa - 2)
    s_at = [rho + k for k in range(order + 1)]
    s_less_1 = [s - 1.0 for s in s_at]
    coeffs: list[complex] = list(seeds)
    largest = max(math.ldexp(abs(c), -k) for k, c in enumerate(coeffs)) if tol else 0.0
    quiet = 0
    for m in range(len(seeds), order + 1):
        acc = 0j
        for k in range(m - band + 1 if m >= band else 0, m):
            j = m - k
            s = s_at[k]
            term = a[j] * s * s_less_1[k] + b[j] * s + d[j]
            if term != 0j and coeffs[k] != 0j:
                acc += coeffs[k] * term
        s = s_at[m]
        piv = a[0] * s * s_less_1[m] + b[0] * s + d[0]
        if piv == 0j:
            raise ResonantExponentsError(
                f"recurrence pivot vanished at series index {m}")
        coeffs.append(-acc / piv)
        if tol is not None:
            size = math.ldexp(abs(coeffs[m]), -m)
            if size > largest:
                largest = size
            quiet = quiet + 1 if size <= tol * largest else 0
            if quiet == 2:
                break
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
    kappa = _vanish_order(work._products[0], z0, p2)
    coeffs = _recurrence(p2, p1, p0, kappa, rho, order, [1 + 0j])
    return FrobeniusSolution(point, matched, tuple(coeffs), _series_radius(ode, point))


def taylor_series(ode: RationalCoeffODE, center: complex, value: complex,
                  derivative: complex, order: int = 64, tol: float | None = None,
                  max_radius: float = math.inf) -> FrobeniusSolution:
    """Power series at an ordinary point with given w(center), w'(center).

    The radius is capped at ``max_radius``. With ``tol`` the series is
    built for marching: its coefficients are those of the scaled
    variable (z - center) / radius, so they neither overflow nor
    underflow however large the disk, and the order is chosen from the
    tail: the series stops once two successive terms on the trusted half
    disk fall below tol times the largest (at most ``order``). That
    needs a finite radius.
    """
    center = complex(center)
    p2, p1, p0 = _series_triple(ode, center)
    if not all(math.isfinite(abs(c)) for c in p2 + p1 + p0):
        raise OutOfDomainError(f"the equation's polynomial coefficients overflow at {center}")
    if _vanish_order(ode._products[0], center, p2) != 0:
        raise ValueError(f"{center} is a singular point; taylor_series needs an ordinary one")
    radius = min(_series_radius(ode, center), max_radius)
    seeds = [complex(value), complex(derivative)]
    scale = 1.0
    if tol is not None:
        if not math.isfinite(radius):
            raise ValueError("a tail-truncated series needs a finite radius; pass max_radius")
        # w(center + scale t) solves P2 w_tt + scale P1 w_t + scale^2 P0 w = 0;
        # the powers are built by products, which overflow to inf, not raise
        scale = radius

        def scaled(poly, power):
            out = []
            for c in poly:
                out.append(c * power)
                power *= scale
            return out

        p2, p1, p0 = scaled(p2, 1.0), scaled(p1, scale), scaled(p0, scale * scale)
        seeds[1] *= scale
    coeffs = _recurrence(p2, p1, p0, 0, 0j, order, seeds, tol)
    if tol is None and not all(math.isfinite(abs(c)) for c in coeffs):
        # unscaled coefficients grow like radius^-m, too fast near a singular point
        raise ValueError(f"the series at {center} (radius {radius:.3g}) overflows "
                         f"before order {len(coeffs) - 1}")
    return FrobeniusSolution(center, 0j, tuple(coeffs), radius, scale)


def reach(ode: RationalCoeffODE, chain: list[FrobeniusSolution], target: complex,
          order: int, first: int = 0, tol: float | None = None,
          max_radius: float = math.inf) -> int:
    """Index of the first series in ``chain``, from ``first`` on, whose
    trusted disk holds ``target``; hops are appended past the end as needed.

    ``chain`` starts with a series at the start point, analytic there
    (exponent 0). Each appended hop is the Taylor re-expansion 0.4 of the
    last radius further along the straight path toward the target that
    needed it, built by ``taylor_series`` with ``order``, ``tol`` and
    ``max_radius``. Each local series is trusted to half its own radius
    (the radius already measures the distance to the nearest singular
    point). On a real ray every hop heads in the direction exactly +1 or
    -1, so the hop centres do not depend on which target is asked for.
    """
    k = first
    while True:
        current = chain[k]
        center = complex(current.expansion_point)
        remaining = target - center
        if abs(remaining) <= 0.5 * current.radius:
            return k
        k += 1
        if k == _MAX_HOPS:
            raise ConvergenceError(
                f"analytic continuation toward {target} did not arrive in {_MAX_HOPS} "
                "hops (target too close to a singular point, or too far away?)")
        if k == len(chain):
            nxt = center + remaining / abs(remaining) * (0.4 * current.radius)
            w, dw, _ = evaluate_with_derivatives(current, nxt)
            try:
                chain.append(taylor_series(ode, nxt, w, dw, order, tol, max_radius))
            except ValueError as exc:
                raise OutOfDomainError(
                    f"continuation toward {target} stalls at {nxt}: {exc}") from exc


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


def _series_sums(coeffs, x, scale: float = 1.0):
    """sum c_k (x/scale)^k and its first two derivatives with respect to x.

    ``x`` may be an array, with ``coeffs`` then a sequence of arrays of
    the same shape (one per power).
    """
    if scale != 1.0:
        s0, s1, s2 = _series_sums(coeffs, x / scale)
        return s0, s1 / scale, s2 / (scale * scale)
    s0 = s1 = s2 = 0j
    for c in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s0
        s0 = s0 * x + c
    return s0, s1, s2


def _tail_estimate(sol: FrobeniusSolution, x: complex) -> float:
    n = len(sol.coefficients) - 1
    last = abs(sol.coefficients[n]) * (abs(x) / sol.scale) ** n
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
    s0, _, _ = _series_sums(sol.coefficients, x, sol.scale)
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
    s0, s1, s2 = _series_sums(sol.coefficients, x, sol.scale)
    w = x ** rho * s0
    dw_dx = x ** (rho - 1) * (rho * s0 + x * s1)
    d2w_dx2 = x ** (rho - 2) * (rho * (rho - 1.0) * s0 + 2.0 * rho * x * s1 + x * x * s2)
    if sol.expansion_point is INFINITY:
        t = x
        dw_dz = -t * t * dw_dx
        d2w_dz2 = t ** 4 * d2w_dx2 + 2.0 * t ** 3 * dw_dx
        return w, dw_dz, d2w_dz2
    return w, dw_dx, d2w_dx2


def evaluate_chain(chain: list[FrobeniusSolution], points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense output of a chain built by ``reach``: arrays (w, w', w'') at
    the points, each taken from the first series whose trusted disk (half
    its radius) holds it, all in one vectorised Horner pass.
    """
    import numpy as np

    points = np.asarray(points, dtype=complex)
    centres = np.array([complex(s.expansion_point) for s in chain])
    radii = np.array([s.radius for s in chain])
    held = np.abs(points[:, None] - centres[None, :]) <= 0.5 * radii[None, :]
    if not np.all(held.any(axis=1)):
        raise OutOfDomainError("a point lies outside every disk of the continuation chain")
    hop = held.argmax(axis=1)
    width = max(len(s.coefficients) for s in chain)
    table = np.zeros((len(chain), width), dtype=complex)
    for i, s in enumerate(chain):
        if s.exponent != 0:
            raise ValueError("evaluate_chain needs series analytic at their centres")
        table[i, :len(s.coefficients)] = s.coefficients
    scales = np.array([s.scale for s in chain])[hop]
    s0, s1, s2 = _series_sums(table[hop].T, (points - centres[hop]) / scales)
    return s0, s1 / scales, s2 / (scales * scales)


def residual(ode: RationalCoeffODE, sol: FrobeniusSolution, z: complex) -> float:
    """Relative defect |w'' + p1 w' + p0 w| / (|w''| + |p1 w'| + |p0 w|)."""
    w, dw, d2w = evaluate_with_derivatives(sol, z)
    terms = (d2w, ode.p1(z) * dw, ode.p0(z) * w)
    num = abs(sum(terms))
    den = sum(abs(t) for t in terms)
    if den == 0.0:
        return 0.0
    return num / den
