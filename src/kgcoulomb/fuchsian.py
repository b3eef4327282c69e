"""Second-order linear ODEs with rational coefficients.

The central object is ``RationalCoeffODE``, the equation

    w''(z) + p1(z) w'(z) + p0(z) w(z) = 0

with both coefficients stored as polynomial quotients, together with
the finite part of its Riemann scheme: the singular points and their
multiplicities in each denominator, exact data supplied by whoever
builds the equation (a Fuchsian equation is fixed by its singular
points and their exponents). Nothing here searches for roots. A
point's local record, its pole orders (the scheme's multiplicities)
and indicial exponents, is made once per equation and read by the
census, ``indicial_exponents`` and the Frobenius series; the record at
infinity is read off the top coefficients of the polynomial form below,
and the pullback t = 1/z, r going to 1/r, serves only the series at
infinity. On top sit Frobenius and Taylor series, and series evaluation
with derivatives and a defect check.

Every series comes from one banded recurrence read off the polynomial
form P2 w'' + P1 w' + P0 w = 0 of the equation, and its band is the
degree of that form. The form used is the one of least degree: P2 is
the least common multiple of the two denominators, of order
max(m1, m0) at a point with multiplicities m1 in p1's denominator and
m0 in p0's, since the Riemann scheme gives the factors they share.

Every series is taken in its scaled variable x / scale (a Frobenius
series in a power of two, a Taylor hop in its radius), so that its
coefficients stay in range however small or large its disk.

It also holds the one analytic-continuation engine of the package: a
chain of Taylor re-expansions (``reach``), each hop 0.4 of the last
radius of convergence along a straight path, read point by point as the
march reaches each one (``reach`` to the point, then ``evaluate`` on the
disk it returns). These equations are D-finite, so every re-expansion is
one banded recurrence; since the radius grows with the distance from the
finite singular points, the hop count grows only logarithmically along a
ray to infinity.

Two transforms act on raw coefficient quotients: ``substitute`` changes
the variable, z = a(t)/b(t) (the pullback is z = 1/t), and ``gauge``
peels off a prefactor, w = f^k v.

Exponents at infinity follow the convention w ~ z^sigma, so decaying
solutions carry negative sigma; the series at infinity is the pullback's
series in t = 1/z, with the exponent -sigma in t, evaluated at t.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, reduce

from .errors import (ConvergenceError, IrregularPointError, OutOfDomainError,
                     ResonantExponentsError)

__all__ = [
    "INFINITY",
    "RationalCoeffODE",
    "SingularPoint",
    "FrobeniusSolution",
    "singular_points",
    "indicial_exponents",
    "frobenius_series",
    "taylor_series",
    "taylor_basis",
    "reach",
    "evaluate",
    "evaluate_with_derivatives",
    "substitute",
    "gauge",
]

# hop budget of ``reach``: a fixed part, plus twice what a path away from
# the singular points needs (there each hop multiplies the distance covered
# by 1.4) per e-fold of |target - start| over the smaller of the first
# radius and the target's distance to the nearest singular point, so
# inward paths, and paths that close in on a singular point, where the
# radius shrinks, are covered as well as outward ones
_MAX_HOPS = 200
_HOPS_PER_E_FOLD = 2.0 / math.log(1.4)
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022  # the smallest normal double
_TAIL_TOL = 1e-16  # a Taylor hop's tail is cut at double precision by default


class _InfinityType:
    """Type of the marker INFINITY, the point at infinity."""

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinityType()


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, ascending powers)
# ---------------------------------------------------------------------------


def _horner(p: tuple, u):
    """p(u) for ascending coefficients p, in u's own type."""
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * u + c
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
    """Taylor coefficients of the polynomial around z0: the Horner table,
    _divide repeated in place (pass i leaves the i-th coefficient at i)."""
    work = [complex(x) for x in coeffs]
    n = len(work)
    for i in range(n):
        acc = 0j
        for k in range(n - 1, i - 1, -1):
            acc = acc * z0 + work[k]
            work[k] = acc
    return tuple(work)


def _vanish_order(coeffs, z0: complex) -> int:
    """Order of the zero at z0: the j-th Taylor coefficient there is zero
    while below 4 n eps sum_k C(k, j) |c_k| |z0|^(k-j), twice Horner's
    rounding bound; at 0 only exact zeros are."""
    shifted = _shift(coeffs, z0)
    tol = 4.0 * (len(coeffs) - 1) * _EPS
    sizes = [abs(x) for x in coeffs]
    for j, c in enumerate(shifted):
        sizes, level = _divide(sizes, abs(z0))
        if abs(c) > tol * abs(level):
            return j
    return len(shifted)


def _exact_zeros(coeffs) -> int:
    """Number of exactly zero low-order coefficients: the order of the zero at 0."""
    return next((i for i, c in enumerate(coeffs) if c != 0), len(coeffs))


def _deflate(coeffs, z0: complex) -> tuple[complex, ...]:
    """Divide by (z - z0), discarding the remainder; low-order exact zeros
    stay exact, and at z0 = 0 the division is exact."""
    if z0 == 0:
        return coeffs[1:]
    k = _exact_zeros(coeffs)
    quotient, _ = _divide(coeffs[k:], z0)
    return tuple([0j] * k + quotient)


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


def substitute(pair, a, b):
    """The equation for W(t) = w(a(t)/b(t)), a and b polynomials in t.

    With z = a/b, E = a b' - a' b (so z' = -E/b^2) and N, D the
    numerators and denominators homogenized by b (b^deg N(a/b), ...):

        P1 = p1(z) z' - z''/z' = [(2 E b' - E' b) D1 - N1 E^2 b^m1] / (b E D1),
        P0 = p0(z) z'^2 = N0 E^2 b^m0 / D0,

    m1 = deg D1 - deg N1 - 1, m0 = deg D0 - deg N0 - 4; a negative power
    of b moves to the denominator. Nothing is cancelled: RationalCoeffODE
    cancels common factors at the singular points it is given.
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
    return (num1, den1), (num0, den0)


def gauge(pair, f, k: int):
    """The equation for v where w = f^k v, f a polynomial:

        Q1 = p1 + 2 k f'/f,
        Q0 = p0 + k p1 f'/f + k f''/f + k (k - 1) (f'/f)^2,

    both over C f^2, with C = D1 when p1 and p0 share their denominator
    and D0 D1 otherwise. Each root of f enters both denominators twice
    over, through f^2; RationalCoeffODE cancels what the numerators share.
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
    return (num1, den), (num0, den)


# ---------------------------------------------------------------------------
# the ODE container
# ---------------------------------------------------------------------------


class RationalCoeffODE:
    """w'' + (p1_num/p1_den) w' + (p0_num/p0_den) w = 0 with its finite
    singular points.

    Coefficient tuples are ascending-power. ``points`` is the finite part
    of the Riemann scheme as the builder knows it: (r, m1, m0) triples,
    each root r of the denominators with its multiplicity in p1_den and in
    p0_den, so that each denominator is its top coefficient times the
    product of (z - r)^m. Points that are exactly equal are merged, their
    multiplicities added. Construction normalizes each quotient: exactly
    zero top coefficients dropped, factors common to numerator and
    denominator cancelled at the known roots (the numerator's zeros
    counted by ``_vanish_order``), and the denominator made monic; the
    stored ``points`` are sorted by (real, imaginary) and keep the
    multiplicities left after cancelling, so they are the pole orders.
    Singular points are never searched for numerically. A point's local
    record (``_local``) is made on its first request and kept.
    """

    def __init__(self, p1_num: tuple[complex, ...], p1_den: tuple[complex, ...],
                 p0_num: tuple[complex, ...], p0_den: tuple[complex, ...],
                 points: tuple[tuple[complex, int, int], ...], label: str = "") -> None:
        self.p1_num, self.p1_den, self.p0_num, self.p0_den = p1_num, p1_den, p0_num, p0_den
        self.points, self.label = points, label
        self._records: dict[complex, SingularPoint] = {}  # local records, see _local
        self.__post_init__()  # the normalization, a method of its own so it can be timed

    def __post_init__(self) -> None:
        merged: dict[complex, list[int]] = {}
        for r, m1, m0 in self.points:
            counts = merged.setdefault(complex(r), [0, 0])
            counts[0] += m1
            counts[1] += m0
        roots = sorted(merged, key=lambda z: (z.real, z.imag))
        n1, d1, k1 = _normalize_quotient(self.p1_num, self.p1_den, roots,
                                         [merged[r][0] for r in roots])
        n0, d0, k0 = _normalize_quotient(self.p0_num, self.p0_den, roots,
                                         [merged[r][1] for r in roots])
        self.p1_num, self.p1_den, self.p0_num, self.p0_den = n1, d1, n0, d0
        self.points = tuple((r, a, b) for r, a, b in zip(roots, k1, k0) if a or b)

    def p1(self, z):
        return _quotient(self.p1_num, self.p1_den, z)

    def p0(self, z):
        return _quotient(self.p0_num, self.p0_den, z)

    def _multiplicities(self, z0: complex) -> tuple[int, int]:
        """(m1, m0) of z0 in the denominators; (0, 0) off the known roots."""
        for r, m1, m0 in self.points:
            if r == z0:
                return m1, m0
        return 0, 0

    # The local data and the pullback depend only on the polynomial data,
    # which nothing changes after construction: each is computed once.

    def _local(self, z0: complex) -> "SingularPoint":
        """The local record at the finite point z0, made on the first request."""
        record = self._records.get(z0)
        if record is None:
            record = self._records[z0] = _local_record(self, z0)
        return record

    @cached_property
    def _infinity(self) -> "SingularPoint":
        """The point at infinity, read off the top coefficients of the
        least-degree form P2 w'' + P1 w' + P0 w = 0 (Ince, ch. XVI): with
        n = deg P2 and A, B, C the coefficients of z^n in P2, z^(n-1) in P1
        and z^(n-2) in P0, the pullback t = 1/z has p1 = (2 - B/A)/t + ...
        and p0 = (C/A)/t^2 + ..., each pole one order higher per degree
        that P1 or P0 has above that (B = 2A exactly cancels p1's). The
        pullback's record at t = 0 has these pole orders and, to rounding,
        these exponents, negated here into the z^sigma convention."""
        p2, p1, p0 = self._products
        n = len(p2) - 1
        a, b = p2[n], (p1[n - 1] if 0 < n <= len(p1) else 0j)
        c = p0[n - 2] if 1 < n <= len(p0) + 1 else 0j
        if a == 0:
            raise OutOfDomainError("the expansion at infinity is lost to rounding or overflow")
        m1 = len(p1) - n + 1 if any(p1) and len(p1) > n else int(2.0 * a != b)
        m0 = max(0, len(p0) - n + 3) if any(p0) else 0
        if m1 > 1 or m0 > 2:
            return SingularPoint(INFINITY, "irregular", m1, m0, None)
        s1, s2 = _indicial_roots(INFINITY, 2.0 - b / a if m1 else 0j, c / a if m0 == 2 else 0j)
        # 0j - s, not -s: a zero imaginary part stays +0.0
        return SingularPoint(INFINITY, "regular", m1, m0, _sorted_pair(0j - s1, 0j - s2))

    @cached_property
    def _products(self) -> tuple[tuple[complex, ...], ...]:
        """Unshifted (P2, P1, P0) of the least-degree polynomial form; see
        _series_triple. With g = prod (z - r)^min(m1, m0), the factor the
        monic denominators share, P2 = d1 (d0/g), P1 = n1 (d0/g) and
        P0 = n0 (d1/g): P2 has order max(m1, m0) at each point, not
        m1 + m0. The quotients d0/g and d1/g are multiplied out from the
        points in ascending modulus, not divided out of d0 and d1: a
        division loses the low-order coefficients, which carry the local
        data at a point lying far inside the others. Each factor, (d1, n1)
        together, d0/g, n0 and d1/g, is brought to its own binade by an
        exact power of two before the products are taken, and the two
        products are then brought to the smaller of their scales, so all
        three carry one power of two: the series are unchanged, and however
        far a singular point spreads the monic coefficients, the top
        coefficients, which carry the equation at large z, stay in range."""
        q1, q0 = (1.0,), (1.0,)  # become d1/g and d0/g
        for r, m1, m0 in sorted(self.points, key=lambda p: abs(p[0])):
            shared = min(m1, m0)
            q1 = reduce(_polymul, [(-r, 1.0)] * (m1 - shared), q1)
            q0 = reduce(_polymul, [(-r, 1.0)] * (m0 - shared), q0)
        e1, e0, f1, f0 = (_binade(c) for c in (self.p1_den + self.p1_num, q0,
                                                 self.p0_num, q1))
        top = max(e1 + e0, f1 + f0)
        a, b = _ldexp_poly(self.p1_den, -e1), _ldexp_poly(self.p1_num, -e1)
        q0 = _ldexp_poly(q0, -e0)
        p0 = _polymul(_ldexp_poly(self.p0_num, -f1), _ldexp_poly(q1, -f0))
        return (_ldexp_poly(_polymul(a, q0), e1 + e0 - top),
                _ldexp_poly(_polymul(b, q0), e1 + e0 - top),
                _ldexp_poly(p0, f1 + f0 - top))

    @cached_property
    def _pullback(self) -> "RationalCoeffODE":
        """The equation satisfied by W(t) = w(1/t) near t = 0, which only a
        Frobenius series at infinity needs. A root r != 0
        goes to 1/r with its multiplicities; the order of t = 0 in each
        denominator is its count of exactly zero low-order coefficients."""
        (n1, d1), (n0, d0) = substitute(
            ((self.p1_num, self.p1_den), (self.p0_num, self.p0_den)), (1,), (0, 1))
        points = [(1.0 / r, m1, m0) for r, m1, m0 in self.points if r != 0]
        points.append((0j, _exact_zeros(d1), _exact_zeros(d0)))
        return RationalCoeffODE(n1, d1, n0, d0, tuple(points),
                                label=(self.label + "@infinity") if self.label else "pullback")


def _normalize_quotient(num, den, roots, mults):
    """(num, den, multiplicities) with the factors (z - r) that num and
    den share cancelled at the known roots, and den monic."""
    num, den = _exact_top(num), _exact_top(den)
    if den == (0j,):
        raise ValueError("coefficient denominator is identically zero")
    if not all(math.isfinite(abs(c)) for c in num + den):
        raise OutOfDomainError("a coefficient of the equation left the floating-point range")
    if len(den) - 1 != sum(mults):
        raise OutOfDomainError(
            f"the singular data give {sum(mults)} roots to a denominator of degree "
            f"{len(den) - 1}: its top coefficient underflowed, or the data are wrong")
    if num == (0j,):
        return num, (1 + 0j,), [0] * len(mults)
    left = []
    for root, mult in zip(roots, mults):
        k = min(mult, _vanish_order(num, root))
        for _ in range(k):
            num = _deflate(num, root)
            den = _deflate(den, root)
        left.append(mult - k)
    lead = den[-1]
    return _polyscale(num, 1.0 / lead), _polyscale(den, 1.0 / lead), left


def _quotient(num, den, z: complex) -> complex:
    """num(z) / den(z); beyond |z| = 1 summed in t = 1/z on the reversed
    coefficients, so it stays in range where num(z) and den(z) would not."""
    z = complex(z)
    if abs(z) > 1.0:
        t = 1.0 / z
        return t ** (len(den) - len(num)) * _horner(num[::-1], t) / _horner(den[::-1], t)
    return _horner(num, z) / _horner(den, z)


def _binade(coeffs) -> int:
    """e with 2^e the binade of the largest coefficient: 2^(e-1) <= max |c| < 2^e
    (0 when every coefficient is zero)."""
    return math.frexp(max(abs(c) for c in coeffs))[1]


def _ldexp_poly(coeffs, e: int) -> tuple[complex, ...]:
    """The coefficients times 2^e, exactly unless a result leaves the normal range."""
    if e == 0:
        return tuple(complex(c) for c in coeffs)
    return tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                 for c in map(complex, coeffs))


def _exact_top(coeffs) -> tuple[complex, ...]:
    """The coefficients as complex numbers, exactly zero top ones dropped."""
    c = [complex(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


# ---------------------------------------------------------------------------
# local data at a point, census, indicial exponents
# ---------------------------------------------------------------------------


class SingularPoint:
    __slots__ = ("location", "kind", "pole_order_p1", "pole_order_p0", "exponents")

    def __init__(self, location: complex | _InfinityType, kind: str, pole_order_p1: int,
                 pole_order_p0: int, exponents: tuple[complex, complex] | None) -> None:
        self.location = location
        self.kind = kind  # "regular" or "irregular"
        self.pole_order_p1, self.pole_order_p0 = pole_order_p1, pole_order_p0
        self.exponents = exponents  # None when irregular


def _sorted_pair(a: complex, b: complex) -> tuple[complex, complex]:
    """Descending by real part, ties broken by descending imaginary part."""
    pair = sorted([a, b], key=lambda s: (-s.real, -s.imag))
    return (pair[0], pair[1])


def _leading_ratio(num, den, z0: complex, order: int) -> complex:
    """The limit of (z - z0)^order num/den at z0, a pole of that order:
    num(z0) over den's order-th Taylor coefficient there."""
    lead = _shift(den, z0)[order]
    if lead == 0:
        raise OutOfDomainError(f"the expansion at {z0} is lost to rounding or overflow")
    return _shift(num, z0)[0] / lead


def _local_record(ode: RationalCoeffODE, z0: complex) -> SingularPoint:
    """The local data at a finite point. The pole orders are the scheme's
    multiplicities (0 off it); at a regular singular or ordinary point the
    exponents are the roots of s (s - 1) + q1 s + q0 = 0, q1 and q0 the
    limits of (z - z0) p1 and (z - z0)^2 p0, zero below a full pole; a
    discriminant at the rounding level of its terms gives a double root."""
    m1, m0 = ode._multiplicities(z0)
    q1 = _leading_ratio(ode.p1_num, ode.p1_den, z0, 1) if m1 == 1 else 0j
    q0 = _leading_ratio(ode.p0_num, ode.p0_den, z0, 2) if m0 == 2 else 0j
    if m1 > 1 or m0 > 2:
        return SingularPoint(z0, "irregular", m1, m0, None)
    return SingularPoint(z0, "regular", m1, m0, _sorted_pair(*_indicial_roots(z0, q1, q0)))


def _indicial_roots(where, q1: complex, q0: complex) -> tuple[complex, complex]:
    """The roots of s (s - 1) + q1 s + q0 = 0; a discriminant at the
    rounding level of its terms gives a double root."""
    try:
        square, product = (q1 - 1.0) ** 2, 4.0 * q0
        d = square - product
        disc = cmath.sqrt(0j if abs(d) <= 16.0 * _EPS * (abs(square) + abs(product)) else d)
    except OverflowError as exc:
        raise OutOfDomainError(f"the exponents at {where} overflow") from exc
    return (-(q1 - 1.0) + disc) / 2.0, (-(q1 - 1.0) - disc) / 2.0


def singular_points(ode: RationalCoeffODE) -> list[SingularPoint]:
    """All finite singular points plus the point at infinity.

    Finite points are the builder's points surviving normalization, their
    multiplicities the pole orders; infinity is always reported, through
    the pullback. Points are ordered by (real, imaginary), infinity last.
    Exponents at infinity use the z^sigma convention. The records are
    the equation's shared ones; each call returns a fresh list.
    """
    return [ode._local(r) for r, _, _ in ode.points] + [ode._infinity]


def indicial_exponents(ode: RationalCoeffODE,
                       point: complex | _InfinityType) -> tuple[complex, complex]:
    """The two indicial roots at a regular singular (or ordinary) point.

    At infinity the pair is returned in the w ~ z^sigma convention.
    Raises IrregularPointError when the point fails the pole-order test.
    """
    rec = ode._infinity if point is INFINITY else ode._local(complex(point))
    if rec.exponents is None:
        where = ("infinity is irregular: pullback" if point is INFINITY
                 else f"point {complex(point)} is irregular:")
        raise IrregularPointError(
            f"{where} pole orders ({rec.pole_order_p1}, {rec.pole_order_p0})")
    return rec.exponents


# ---------------------------------------------------------------------------
# series solutions
# ---------------------------------------------------------------------------


class FrobeniusSolution:
    """A local solution sum_k c_k x^(rho+k) in x = z - z0, rho the
    indicial exponent at the expansion point z0.

    A series at infinity is the pullback's series about t = 0: z0 = 0,
    x = t = 1/z and rho = -sigma, sigma the exponent in the z^sigma
    convention, so it is evaluated at t, not at z. ``radius`` is the
    distance to the nearest other singular point (or less, when capped);
    evaluation refuses points at or beyond it. With ``scale`` other than
    1 the coefficients are those of the scaled variable, sum c_k (x/scale)^k.
    """

    __slots__ = ("expansion_point", "exponent", "coefficients", "radius", "scale")

    def __init__(self, expansion_point: complex, exponent: complex,
                 coefficients: tuple[complex, ...], radius: float, scale: float = 1.0) -> None:
        self.expansion_point, self.exponent = expansion_point, exponent
        self.coefficients, self.radius, self.scale = coefficients, radius, scale


def _series_triple(ode: RationalCoeffODE, z0: complex):
    """Polynomial triple (P2, P1, P0), shifted to z0, with
    P2 w'' + P1 w' + P0 w = 0 equivalent to the stored quotients: the
    least-degree form of RationalCoeffODE._products, so P2 vanishes to
    order max(m1, m0) at a singular point and not at all elsewhere."""
    p2, p1, p0 = ode._products
    if z0 != 0:
        p2, p1, p0 = _shift(p2, z0), _shift(p1, z0), _shift(p0, z0)
    return p2, p1, p0


def _series_radius(ode: RationalCoeffODE, z0: complex) -> float:
    """Distance from z0 to the nearest other finite singular point."""
    return min((abs(r - z0) for r, _, _ in ode.points if r != z0), default=math.inf)


def _recurrence(p2, p1, p0, kappa: int, rho: complex, order: int,
                seeds: list[complex], tol: float | None = None,
                second: list[complex] | None = None):
    """Run the banded recurrence c_m I(rho+m) = -sum_{k<m} c_k L(m, k).

    (p2, p1, p0) is the least-degree form shifted to the expansion point
    and kappa the order of p2 there, so the band, and the number of
    terms each coefficient costs, is about the degree of that form.
    ``seeds`` supplies the leading coefficients (one for a Frobenius
    series, two for a Taylor series at an ordinary point); pivots for
    the seeded indices are never evaluated. With ``tol`` the series
    stops before ``order`` once two successive terms on the half disk
    |x| <= 1/2, |c_m| / 2^m, fall below tol times the largest term.
    With ``second``, as many leading coefficients again, the same pass
    runs a second column: each L(m, k) is computed once for both, the
    series stops once both tails have, and the pair of coefficient lists
    is returned; each column has the bits it has alone, up to where that
    one would stop.
    """
    # L(m, k) reads P2, P1, P0 at offsets j = m - k above kappa,
    # kappa - 1, kappa - 2, so it vanishes once j reaches the band width;
    # the tables hold those entries, zero-padded, for j = 0 .. band - 1
    band = max(len(p2) - kappa, len(p1) - kappa + 1, len(p0) - kappa + 2)

    def table(p, offset):
        return [p[offset + j] if 0 <= offset + j < len(p) else 0j for j in range(band)]

    a, b, d = table(p2, kappa), table(p1, kappa - 1), table(p0, kappa - 2)
    off_diagonal = list(zip(range(1, band), a[1:], b[1:], d[1:]))
    coeffs: list[complex] = list(seeds)
    # scatter form: each new c_k adds c_k L(k + j, k) to the pending sum of
    # c_(k+j), for k + j <= order, so every sum still runs over ascending k
    pending = [0j] * (order + 1)
    two = second is not None
    other, waiting = (list(second), [0j] * (order + 1)) if two else ([], [])
    if tol is not None:
        largest = max(math.ldexp(abs(c), -k) for k, c in enumerate(coeffs))
        largest2 = max((math.ldexp(abs(c), -k) for k, c in enumerate(other)), default=0.0)
    quiet, quiet2 = 0, 0 if two else 2  # a missing column never holds the stop
    for m in range(order + 1):
        s = rho + m
        if m >= len(seeds):
            piv = a[0] * s * (s - 1.0) + b[0] * s + d[0]
            if piv == 0j:
                raise ResonantExponentsError(
                    f"recurrence pivot vanished at series index {m}")
            coeffs.append(-pending[m] / piv)
            if two:
                other.append(-waiting[m] / piv)
            if tol is not None:
                size = math.ldexp(abs(coeffs[m]), -m)
                if size > largest:
                    largest = size
                quiet = quiet + 1 if size <= tol * largest else 0
                if two:
                    size = math.ldexp(abs(other[m]), -m)
                    if size > largest2:
                        largest2 = size
                    quiet2 = quiet2 + 1 if size <= tol * largest2 else 0
                if quiet >= 2 and quiet2 >= 2:
                    break
        c = coeffs[m]
        if not two or other[m] == 0j:
            if c != 0j:
                s1 = s - 1.0
                rows = off_diagonal if m + band <= order + 1 else off_diagonal[:order - m]
                for j, aj, bj, dj in rows:
                    term = aj * s * s1 + bj * s + dj
                    if term != 0j:
                        pending[m + j] += c * term
        else:  # the second column, with the first where its coefficient is not zero
            s1 = s - 1.0
            rows = off_diagonal if m + band <= order + 1 else off_diagonal[:order - m]
            c2, both = other[m], c != 0j
            for j, aj, bj, dj in rows:
                term = aj * s * s1 + bj * s + dj
                if term != 0j:
                    if both:
                        pending[m + j] += c * term
                    waiting[m + j] += c2 * term
    return (coeffs, other) if two else coeffs


def frobenius_series(ode: RationalCoeffODE, point: complex | _InfinityType, exponent: complex,
                     order: int = 64) -> FrobeniusSolution:
    """Frobenius series at a regular singular point for the given exponent.

    The exponent is matched against the indicial pair and replaced by
    the exact root, so a few digits are enough to select a branch.
    Raises ResonantExponentsError when the other root sits a positive
    integer above the requested one (vanishing pivot); the series for
    the larger root of a resonant pair, and for a double root, is still
    available. Below radius 1 the coefficients are in x / scale, scale
    the power of two <= radius.
    At infinity it is the pullback's series at t = 0 for the exponent
    -sigma, t = 1/z, and its errors speak of the pullback.
    """
    if point is INFINITY:
        ode, point, exponent = ode._pullback, 0j, -exponent
    z0 = complex(point)
    pair = indicial_exponents(ode, z0)
    rho = next((cand for cand in pair if abs(cand - exponent) <= 1e-6 * (1.0 + abs(cand))),
               None)
    if rho is None:
        raise ValueError(
            f"exponent {exponent} does not match either indicial root {pair}")

    gap = (pair[0] if rho is pair[1] else pair[1]) - rho
    if abs(gap.imag) < 1e-9 and abs(gap.real - round(gap.real)) < 1e-9 and round(gap.real) > 0:
        raise ResonantExponentsError(
            f"exponents {pair} differ by the positive integer {round(gap.real)}; "
            "request the other branch or treat the log solution separately")

    p2, p1, p0 = _series_triple(ode, z0)
    kappa = max(ode._multiplicities(z0))  # the order of P2 at z0
    if not abs(p2[kappa]) >= _TINY:
        raise OutOfDomainError(
            f"the series recurrence at {z0} lost its leading coefficient to underflow")
    radius = _series_radius(ode, z0)
    # unscaled, the coefficients grow like radius^-k; a power of two scales exactly
    scale = math.ldexp(0.5, math.frexp(min(radius, 1.0))[1])
    p2, p1, p0 = _pow2_scaled_triple(p2, p1, p0, kappa, scale)
    coeffs = _recurrence(p2, p1, p0, kappa, rho, order, [1 + 0j])
    return FrobeniusSolution(z0, rho, tuple(coeffs), radius, scale)


def _pow2_scaled_triple(p2, p1, p0, kappa: int, scale: float):
    """The triple for w(z0 + scale y), P2 w_yy + scale P1 w_y + scale^2 P0 w
    = 0 with each polynomial in y, divided by the power of two that brings
    the pivot's coefficient P2[kappa] scale^kappa to [1/2, 1). With scale =
    mu 2^e, 1 <= mu < 2, each coefficient takes mu^k by products (rounded
    as scale^k by products is) and its power of two in one exact step, so
    only what is negligible next to the pivot can underflow, however small
    or large the scale. Raises OutOfDomainError when a coefficient leaves
    the range."""
    mu, e = math.frexp(scale)
    mu, e = 2.0 * mu, e - 1
    powers = [1.0]
    for _ in range(max(len(p2) - 1, len(p1), len(p0) + 1)):
        powers.append(powers[-1] * mu)
    top = math.frexp(abs(p2[kappa]) * powers[kappa])[1] + kappa * e

    def scaled(poly, offset):
        return [complex(math.ldexp(c.real * powers[k], k * e - top),
                        math.ldexp(c.imag * powers[k], k * e - top))
                for k, c in enumerate(poly, offset)]

    try:
        return scaled(p2, 0), scaled(p1, 1), scaled(p0, 2)
    except OverflowError as exc:
        raise OutOfDomainError(f"a series recurrence scaled by {scale:.3g} overflows") from exc


def _taylor_triple(ode: RationalCoeffODE, center: complex, max_radius: float):
    """(triple, radius) of a Taylor hop at an ordinary point: the triple
    shifted to center and scaled to the disk's radius, capped at
    ``max_radius``, which must leave it finite."""
    p2, p1, p0 = _series_triple(ode, center)
    if not all(math.isfinite(abs(c)) for c in p2 + p1 + p0):
        raise OutOfDomainError(f"the equation's polynomial coefficients overflow at {center}")
    if ode._multiplicities(center) != (0, 0):
        raise ValueError(f"{center} is a singular point; taylor_series needs an ordinary one")
    radius = min(_series_radius(ode, center), max_radius)
    if not math.isfinite(radius):
        raise ValueError("a Taylor series needs a finite radius; pass max_radius")
    return _pow2_scaled_triple(p2, p1, p0, 0, radius), radius


def taylor_series(ode: RationalCoeffODE, center: complex, value: complex,
                  derivative: complex, order: int = 64, tol: float = _TAIL_TOL,
                  max_radius: float = math.inf) -> FrobeniusSolution:
    """Power series at an ordinary point with given w(center), w'(center).

    The radius is capped at ``max_radius`` and must be finite. The
    coefficients are those of the scaled variable (z - center) / radius,
    so they neither overflow nor underflow however large or small the
    disk, and the order is chosen from the tail: the series stops once
    two successive terms on the trusted half disk fall below tol times
    the largest, at ``order`` at the latest.
    """
    center = complex(center)
    (p2, p1, p0), radius = _taylor_triple(ode, center, max_radius)
    seeds = [complex(value), complex(derivative) * radius]
    coeffs = _recurrence(p2, p1, p0, 0, 0j, order, seeds, tol)
    return FrobeniusSolution(center, 0j, tuple(coeffs), radius, radius)


def taylor_basis(ode: RationalCoeffODE, center: complex, order: int = 64,
                 tol: float = _TAIL_TOL, max_radius: float = math.inf
                 ) -> tuple[FrobeniusSolution, FrobeniusSolution]:
    """The two power series at an ordinary point with (w, radius w') equal
    to (1, 0) and to (0, 1) at the centre, as ``taylor_series`` builds
    them, both on one shifted, scaled triple and in one pass of the
    recurrence, cut where both tails are. The first has the bits of
    ``taylor_series(ode, center, 1, 0, ...)`` as far as that one goes.
    """
    center = complex(center)
    (p2, p1, p0), radius = _taylor_triple(ode, center, max_radius)
    pair = _recurrence(p2, p1, p0, 0, 0j, order, [1 + 0j, 0j], tol, second=[0j, 1 + 0j])
    return tuple(FrobeniusSolution(center, 0j, tuple(coeffs), radius, radius)
                 for coeffs in pair)


def reach(ode: RationalCoeffODE, chain: list[FrobeniusSolution], target: complex,
          order: int, first: int = 0, tol: float = _TAIL_TOL,
          max_radius: float = math.inf) -> int:
    """Index of the first series in ``chain``, from ``first`` on, whose
    trusted disk holds ``target``; hops are appended past the end as needed.

    ``chain`` starts with a series at the start point, analytic there
    (exponent 0). Each appended hop is the Taylor re-expansion 0.4 of the
    last radius further along the straight path toward the target that
    needed it, built by ``taylor_series`` in its scaled variable, its tail
    cut at ``tol``, ``order`` terms at most, its radius capped at
    ``max_radius``; the hop budget grows with log(|target - start| / the
    smaller of the first radius and the target's distance from the
    nearest singular point), so a long path is not cut short, outward
    or inward. Each local series is trusted to half its own radius (the
    radius already measures the distance to the nearest singular
    point). On a real ray every hop heads in the direction exactly +1 or
    -1, so the hop centres do not depend on which target is asked for.
    """
    k = first
    while True:
        current = chain[k]
        center = current.expansion_point
        remaining = target - center
        if abs(remaining) <= 0.5 * current.radius:
            return k
        k += 1
        if k >= _MAX_HOPS and k >= (budget := _hop_budget(ode, chain[0], target)):
            raise ConvergenceError(
                f"analytic continuation toward {target} did not arrive in {budget} "
                "hops (target too close to a singular point, or too far away?)")
        if k == len(chain):
            nxt = center + remaining / abs(remaining) * (0.4 * current.radius)
            w, dw, _ = evaluate_with_derivatives(current, nxt)
            try:
                chain.append(taylor_series(ode, nxt, w, dw, order, tol, max_radius))
            except ValueError as exc:
                raise OutOfDomainError(
                    f"continuation toward {target} stalls at {nxt}: {exc}") from exc


def _hop_budget(ode: RationalCoeffODE, origin: FrobeniusSolution, target: complex) -> int:
    """_MAX_HOPS plus _HOPS_PER_E_FOLD per e-fold of |target - start| over
    the smaller of the first radius and the target's distance from the
    nearest singular point (the first radius when the target is one)."""
    near = min((abs(target - r) for r, _, _ in ode.points), default=math.inf)
    spread = abs(target - origin.expansion_point) / (min(origin.radius, near) or origin.radius)
    return _MAX_HOPS + math.ceil(_HOPS_PER_E_FOLD * math.log(max(1.0, spread)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _local_coordinate(sol: FrobeniusSolution, z: complex) -> complex:
    """x = z - z0, refused at or beyond the series' radius."""
    x = complex(z) - sol.expansion_point
    if abs(x) >= sol.radius:
        raise OutOfDomainError(
            f"evaluation point has |z - z0| = {abs(x):.6g} outside the series "
            f"disk of radius {sol.radius:.6g}")
    return x


def _series_sums(coeffs, x, scale: float = 1.0, derivatives: int = 2):
    """sum c_k (x/scale)^k and its first ``derivatives`` derivatives with
    respect to x, 1 or 2 of them, as a tuple; with 0, the value's sum
    alone. Every count gives the value and its derivatives the same bits."""
    if scale != 1.0:
        x = x / scale
    s0 = s1 = s2 = 0j
    if not derivatives:
        for c in reversed(coeffs):
            s0 = s0 * x + c
        return s0
    for c in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s0
        s0 = s0 * x + c
    sums = (s0, s1, s2) if scale == 1.0 else (s0, s1 / scale, s2 / (scale * scale))
    return sums[:derivatives + 1]


def evaluate(sol: FrobeniusSolution, z: complex) -> complex:
    """Value of the local solution at z, from its value's sum alone (away
    from z0, the bits ``evaluate_with_derivatives`` gives)."""
    x, rho = _local_coordinate(sol, z), sol.exponent
    if x == 0:
        if rho == 0:
            return sol.coefficients[0]
        if rho.real > 0:
            return 0j
        raise OutOfDomainError("series diverges at its own expansion point")
    return x ** rho * _series_sums(sol.coefficients, x, sol.scale, derivatives=0)


def evaluate_with_derivatives(sol: FrobeniusSolution, z: complex,
                              derivatives: int = 2) -> tuple[complex, ...]:
    """(w, w', w'') at z, derivatives taken with respect to z; (w, w') with
    ``derivatives`` 1, the same bits."""
    x, rho = _local_coordinate(sol, z), sol.exponent
    if x == 0 and rho != 0:
        raise OutOfDomainError("derivative evaluation needs a point away from the expansion center")
    sums = _series_sums(sol.coefficients, x, sol.scale, derivatives)
    if x == 0:  # an analytic series at its own centre
        return sums
    s0, s1 = sums[0], sums[1]
    w = x ** rho * s0
    dw_dx = x ** (rho - 1) * (rho * s0 + x * s1)
    if derivatives == 1:
        return w, dw_dx
    d2w_dx2 = x ** (rho - 2) * (rho * (rho - 1.0) * s0 + 2.0 * rho * x * s1 + x * x * sums[2])
    return w, dw_dx, d2w_dx2


def _defect(ode: RationalCoeffODE, z: complex, w: complex, dw: complex, d2w: complex) -> float:
    """Relative defect |w'' + p1 w' + p0 w| / (|w''| + |p1 w'| + |p0 w|)
    at z; nan where every term is zero or a term leaves the range."""
    try:
        terms = (d2w, ode.p1(z) * dw, ode.p0(z) * w)
        size = sum(abs(x) for x in terms)
        return abs(sum(terms)) / size if size else math.nan
    except (OverflowError, ZeroDivisionError):  # a coefficient or term out of range at z
        return math.nan
