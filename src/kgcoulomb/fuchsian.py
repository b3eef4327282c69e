"""Second-order linear ODEs with rational coefficients.

The central object is ``RationalCoeffODE``, the equation

    w''(z) + p1(z) w'(z) + p0(z) w(z) = 0

with both coefficients kept as one polynomial form, together with
the finite part of its Riemann scheme: the singular points and their
multiplicities in each denominator, exact data supplied by whoever
builds the equation (a Fuchsian equation is fixed by its singular
points and their exponents). Nothing here searches for roots. A
point's local record, its pole orders and indicial exponents, is made
once per equation and read by the census, ``indicial_exponents`` and
the Frobenius series. On top sit Frobenius and Taylor series, and
series evaluation with derivatives and a defect check.

Every series comes from one banded recurrence read off the polynomial
form P2 w'' + P1 w' + P0 w = 0, the equation's only copy, and its band
is the degree of that form. The form used is the one of least degree:
P2 is the least common multiple of the two denominators, of order
max(m1, m0) at a point with multiplicities m1 in p1's denominator and
m0 in p0's, since the Riemann scheme gives the factors they share.
Every point, infinity included, is read off that one form (Ince,
ch. XVI), shifted to a finite point or reversed at infinity into the
equation for W(t) = w(1/t); its indicial polynomial is the pivot of the
recurrence there.

Every series is taken in its scaled variable x / scale (a Frobenius
series in a power of two, a Taylor hop in its radius), so that its
coefficients stay in range however small or large its disk.

It also holds the one analytic-continuation engine of the package:
Taylor re-expansions, each hop 0.4 of the last radius of convergence
along a straight path. ``reach`` is its one loop: it chains
``taylor_series`` hops, read point by point (``reach`` to the point,
then ``evaluate`` on the disk it returns). ``taylor_basis`` is a single
hop that carries a basis of two solutions, the one ``asymptotics``
reads. These equations are D-finite, so every re-expansion is one
banded recurrence; since the radius grows with the distance from the
finite singular points, the hop count grows only logarithmically along
a ray to infinity.

One transform acts on raw coefficient quotients: ``gauge`` peels off a
prefactor, w = f^k v.

Exponents at infinity follow the convention w ~ z^sigma, so decaying
solutions carry negative sigma; the series at infinity is a series in
t = 1/z, with the exponent -sigma in t, evaluated at t.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce

from .errors import (ConvergenceError, IrregularPointError, OutOfDomainError,
                     ResonantExponentsError)

# hop budget of ``reach`` (``_hop_budget``): a fixed part, plus twice what a
# path away from the singular points needs, each hop there multiplying the
# distance covered by 1.4, so that inward paths, and paths that close in on
# a singular point, where the radius shrinks, are covered as well
_MAX_HOPS = 200
_HOPS_PER_E_FOLD = 2.0 / math.log(1.4)
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022  # the smallest normal double
_TAIL_TOL = 1e-16  # a Taylor hop's tail is cut at double precision by default
_READ_TOL = 1e-20  # a series cut on the disk it is read on sums as the uncut one
_MAX_ORDER = 64  # order cap of every series: Frobenius, Taylor hop or basis hop


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


def _shift(coeffs, z0: complex) -> tuple[complex, ...]:
    """Taylor coefficients of the polynomial around z0: the Horner table of
    division by (z - z0), in place (pass i leaves the i-th coefficient at i)."""
    work = list(coeffs)
    n = len(work)
    for i in range(n):
        acc = 0  # 0 * z0 is 0.0 * z0 or 0j * z0: z0's arithmetic
        for k in range(n - 1, i - 1, -1):
            acc = acc * z0 + work[k]
            work[k] = acc
    return tuple(work)


def _vanish_order(coeffs, z0: complex) -> int:
    """Order of the zero at z0: the j-th Taylor coefficient there is zero
    while below 4 n eps sum_k C(k, j) |c_k| |z0|^(k-j), twice Horner's
    rounding bound; at 0 only exact zeros are. Pass j of the Horner table
    gives both, of the coefficients at z0 and of their sizes at |z0|, and
    the table stops at the first coefficient that does not vanish."""
    tol = 4.0 * (len(coeffs) - 1) * _EPS
    radius = abs(z0)
    work, sizes = [complex(x) for x in coeffs], [abs(x) for x in coeffs]
    n = len(work)
    for j in range(n):
        value = level = 0j
        for k in range(n - 1, j - 1, -1):
            value = value * z0 + work[k]
            level = level * radius + sizes[k]
            work[k], sizes[k] = value, level
        if abs(value) > tol * abs(level):
            return j
    return n


def _exact_zeros(coeffs) -> int:
    """Number of exactly zero low-order coefficients: the order of the zero at 0."""
    return next((i for i, c in enumerate(coeffs) if c != 0), len(coeffs))


def _deflate(coeffs, z0: complex) -> tuple[complex, ...]:
    """Divide by (z - z0) by Horner's rule, discarding the remainder (the
    value at z0); low-order exact zeros stay exact, and at z0 = 0 the
    division is exact."""
    if z0 == 0:
        return coeffs[1:]
    k = _exact_zeros(coeffs)
    acc, partial = 0j, []
    for c in reversed(coeffs[k:]):
        acc = acc * z0 + c
        partial.append(acc)
    return tuple([0j] * k + partial[-2::-1])


# ---------------------------------------------------------------------------
# the coefficient transform on raw ((p1_num, p1_den), (p0_num, p0_den)) pairs;
# only +, - and * touch the coefficients, so sympy tables pass through too
# ---------------------------------------------------------------------------


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
    singular points, kept as its least-degree polynomial form ``_triple``.

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
    record (``_local``) is made on its first request and kept. A real triple is floats (``_real``).
    """

    __slots__ = ("points", "_triple", "_real", "_records")

    def __init__(self, p1_num: tuple[complex, ...], p1_den: tuple[complex, ...],
                 p0_num: tuple[complex, ...], p0_den: tuple[complex, ...],
                 points: tuple[tuple[complex, int, int], ...]) -> None:
        self._records: dict = {}  # local records by point, see _local
        self.__post_init__(p1_num, p1_den, p0_num, p0_den, points)  # timed on its own

    def __post_init__(self, p1_num, p1_den, p0_num, p0_den, points) -> None:
        """The points left and the unshifted (P2, P1, P0) of the least-degree
        form (see _triple_at) from the normalized n1/d1 and n0/d0. With
        g = prod (z - r)^min(m1, m0), the factor the monic denominators
        share, P2 = d1 (d0/g), P1 = n1 (d0/g) and P0 = n0 (d1/g): P2 has
        order max(m1, m0) at each point, not m1 + m0. The quotients d0/g
        and d1/g are multiplied out from the points in ascending modulus,
        not divided out of d0 and d1: a division loses the low-order
        coefficients, which carry the local data at a point lying far
        inside the others. Each factor, (d1, n1) together, d0/g, n0 and
        d1/g, is brought to its own binade by an exact power of two before
        the products are taken, and the two products are then brought to
        the smaller of their scales, so all three carry one power of two:
        the series are unchanged, and however far a singular point spreads
        the monic coefficients, the top coefficients, which carry the
        equation at large z, stay in range."""
        merged: dict[complex, list[int]] = {}
        for r, m1, m0 in points:
            counts = merged.setdefault(complex(r), [0, 0])
            counts[0] += m1
            counts[1] += m0
        roots = sorted(merged, key=lambda z: (z.real, z.imag))
        n1, d1, k1 = _normalize_quotient(p1_num, p1_den, roots, [merged[r][0] for r in roots])
        n0, _, k0 = _normalize_quotient(p0_num, p0_den, roots, [merged[r][1] for r in roots])
        self.points = tuple((r, a, b) for r, a, b in zip(roots, k1, k0) if a or b)
        q1, q0 = (1.0,), (1.0,)  # become d1/g and d0/g
        for r, m1, m0 in sorted(self.points, key=lambda p: abs(p[0])):
            shared = min(m1, m0)
            q1 = reduce(_polymul, [(-r, 1.0)] * (m1 - shared), q1)
            q0 = reduce(_polymul, [(-r, 1.0)] * (m0 - shared), q0)
        # e with 2^(e-1) <= max |c| < 2^e (0 when every coefficient is zero)
        e1, e0, f1, f0 = (math.frexp(max(map(abs, c)))[1] for c in (d1 + n1, q0, n0, q1))
        top = max(e1 + e0, f1 + f0)
        a, b = _ldexp_poly(d1, -e1), _ldexp_poly(n1, -e1)
        q0 = _ldexp_poly(q0, -e0)
        p0 = _polymul(_ldexp_poly(n0, -f1), _ldexp_poly(q1, -f0))
        triple = (_ldexp_poly(_polymul(a, q0), e1 + e0 - top),
                  _ldexp_poly(_polymul(b, q0), e1 + e0 - top), _ldexp_poly(p0, f1 + f0 - top))
        self._real = not any(c.imag for p in triple for c in p)
        self._triple = tuple(tuple(c.real for c in p) for p in triple) if self._real else triple

    def p1(self, z):
        return _quotient(self._triple[1], self._triple[0], z)

    def p0(self, z):
        return _quotient(self._triple[2], self._triple[0], z)

    def _multiplicities(self, z0: complex) -> tuple[int, int]:
        """(m1, m0) of z0 in the denominators; (0, 0) off the known roots."""
        for r, m1, m0 in self.points:
            if r == z0:
                return m1, m0
        return 0, 0

    def _local(self, point) -> "SingularPoint":
        """The local record at a finite point or INFINITY, made on the first
        request and kept: it depends only on the triple and the points,
        which nothing changes after construction."""
        record = self._records.get(point)
        if record is None:
            record = self._records[point] = _local_record(self, point)
        return record


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
    """num(z) / den(z); beyond |z| = 1 the reversed sums in t = 1/z divided
    first, then times their power of t, so that each step stays in range."""
    z = complex(z)
    if abs(z) > 1.0:
        t = 1.0 / z
        return _horner(num[::-1], t) / _horner(den[::-1], t) * t ** (len(den) - len(num))
    return _horner(num, z) / _horner(den, z)


def _ldexp_poly(coeffs, e: int) -> tuple[complex, ...]:
    """The coefficients times 2^e, exactly unless a result leaves the normal range."""
    return tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                 for c in map(complex, coeffs))


def _numbers(real: bool, *zs) -> list:
    """The numbers in the arithmetic of an equation's series: floats if it is real and they are."""
    return [*map(float if real and not any(isinstance(z, complex) for z in zs) else complex, zs)]


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
    return tuple(sorted([a, b], key=lambda s: (-s.real, -s.imag)))


def _local_record(ode: RationalCoeffODE, point) -> SingularPoint:
    """The local data at a finite point or INFINITY. The pole orders are
    the scheme's multiplicities (0 off it); at infinity, in t = 1/z and
    with n = deg P2, p1's is deg P1 - n + 2 once deg P1 >= n, else 1 unless
    P1[n-1] = 2 P2[n] exactly, and p0's is deg P0 - n + 4, none below 1. At
    a regular point the exponents are the roots of the pivot on the
    triple of _triple_at, s (s - 1) + q1 s + q0 with q1 = P1[kappa-1] /
    P2[kappa] and q0 = P0[kappa-2] / P2[kappa], each zero below a full pole
    and complex (a float's ** 2 is C's pow, not a product); at infinity they
    are negated into the z^sigma convention. A finite point off the scheme
    within 4 eps |r| of a point r of it is refused: it is r, rounded, not an ordinary point."""
    if point is INFINITY:
        p2, p1, p0 = ode._triple
        n = len(p2) - 1
        if p2[n] == 0:
            raise OutOfDomainError("the expansion at infinity is lost to rounding or overflow")
        b = p1[n - 1] if 0 < n <= len(p1) else 0j
        m1 = len(p1) - n + 1 if any(p1) and len(p1) > n else int(2.0 * p2[n] != b)
        m0 = max(0, len(p0) - n + 3) if any(p0) else 0
    else:
        m1, m0 = ode._multiplicities(point)
        for r, _, _ in ode.points if not (m1 or m0) else ():
            if abs(point - r) <= 4.0 * _EPS * abs(r):
                raise OutOfDomainError(
                    f"{point} is within rounding of the singular point {r}; expand at {r} itself")
    if m1 > 1 or m0 > 2:
        return SingularPoint(point, "irregular", m1, m0, None)
    p2, p1, p0, kappa = _triple_at(ode, point)
    if (m1 == 1 or m0 == 2) and p2[kappa] == 0:
        raise OutOfDomainError(f"the expansion at {point} is lost to rounding or overflow")
    q1 = complex(p1[kappa - 1] / p2[kappa]) if m1 == 1 else 0j
    q0 = complex(p0[kappa - 2] / p2[kappa]) if m0 == 2 else 0j
    s1, s2 = _indicial_roots(point, q1, q0)
    if point is INFINITY:  # 0j - s, not -s: a zero imaginary part stays +0.0
        s1, s2 = 0j - s1, 0j - s2
    return SingularPoint(point, "regular", m1, m0, _sorted_pair(s1, s2))


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
    multiplicities the pole orders; infinity is always reported. Points
    are ordered by (real, imaginary), infinity last. Exponents at infinity
    use the z^sigma convention. The records are the equation's shared
    ones; each call returns a fresh list.
    """
    return [ode._local(r) for r, _, _ in ode.points] + [ode._local(INFINITY)]


def indicial_exponents(ode: RationalCoeffODE,
                       point: complex | _InfinityType) -> tuple[complex, complex]:
    """The two indicial roots at a regular singular (or ordinary) point.

    At infinity the pair is returned in the w ~ z^sigma convention.
    Raises IrregularPointError when the point fails the pole-order test.
    """
    rec = ode._local(point if point is INFINITY else complex(point))
    if rec.exponents is None:
        where = ("infinity is irregular: in t = 1/z," if point is INFINITY
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

    A series at infinity is a series about t = 0: z0 = 0, x = t = 1/z and
    rho = -sigma, sigma the exponent in the z^sigma convention, so it is
    evaluated at t, not at z. ``radius`` is the distance to the nearest
    other singular point, in t at infinity; evaluation refuses points at
    or beyond it. With ``scale`` other than 1 the coefficients are those
    of the scaled variable, sum c_k (x/scale)^k.
    """

    __slots__ = ("expansion_point", "exponent", "coefficients", "radius", "scale")

    def __init__(self, expansion_point: complex, exponent: complex,
                 coefficients: tuple[complex, ...], radius: float, scale: float = 1.0) -> None:
        self.expansion_point, self.exponent = expansion_point, exponent
        self.coefficients, self.radius, self.scale = coefficients, radius, scale


def _triple_at(ode: RationalCoeffODE, point):
    """(P2, P1, P0, kappa): the equation's ``_triple`` at a finite point
    or INFINITY, kappa the order of P2 there. At a finite point it is
    shifted there, kappa = max(m1, m0). At infinity, with A,
    B, C the coefficients of P2, P1, P0 reversed over n = deg P2 (A(t) =
    t^n P2(1/t)), W(t) = w(1/t) solves t^2 A W'' + (2 t A - B) W' +
    (C / t^2) W = 0 and kappa = 2, wherever infinity is regular, that is
    deg P1 < n and deg P0 < n - 1."""
    p2, p1, p0 = ode._triple
    if point is INFINITY:
        n, zero = len(p2) - 1, tuple(_numbers(ode._real, 0))
        a, b = p2[::-1], zero * (n + 1 - len(p1)) + p1[::-1]
        c = (zero * (n + 1 - len(p0)) + p0[::-1])[2:]
        return zero * 2 + a, _polyadd(zero + _polyscale(a, 2.0), _polyscale(b, -1.0)), c, 2
    if point != 0:
        p2, p1, p0 = _shift(p2, point), _shift(p1, point), _shift(p0, point)
    return p2, p1, p0, max(ode._multiplicities(point))


def _series_radius(ode: RationalCoeffODE, point) -> float:
    """Distance from the point to the nearest other finite singular point,
    in t = 1/z at infinity."""
    if point is INFINITY:
        return min((abs(1.0 / r) for r, _, _ in ode.points if r != 0), default=math.inf)
    return min((abs(r - point) for r, _, _ in ode.points if r != point), default=math.inf)


def _recurrence(p2, p1, p0, kappa: int, rho: complex, order: int,
                seeds: list[complex], tol: float | None = None,
                second: list[complex] | None = None, disk: float = 0.5):
    """Run the banded recurrence c_m I(rho+m) = -sum_{k<m} c_k L(m, k).

    (p2, p1, p0) is the least-degree form shifted to the expansion point
    and kappa the order of p2 there, so the band, and the number of
    terms each coefficient costs, is about the degree of that form.
    ``seeds`` supplies the leading coefficients (one for a Frobenius
    series, two for a Taylor series at an ordinary point); pivots for
    the seeded indices are never evaluated. With ``tol`` the series
    stops before ``order`` once two successive terms on the disk
    |x| <= ``disk``, |c_m| disk^m, fall below tol times the largest term;
    on the default half disk these sizes are |c_m| / 2^m exactly.
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
    zero = 0j if isinstance(rho, complex) else 0.0  # rho's arithmetic: floats for a real rho

    def table(p, offset):
        return [p[offset + j] if 0 <= offset + j < len(p) else zero for j in range(band)]

    a, b, d = table(p2, kappa), table(p1, kappa - 1), table(p0, kappa - 2)
    off_diagonal = list(zip(range(1, band), a[1:], b[1:], d[1:]))
    coeffs: list[complex] = list(seeds)
    # scatter form: each new c_k adds c_k L(k + j, k) to the pending sum of
    # c_(k+j), so every sum still runs over ascending k; the sums past
    # ``order`` are never read
    pending = [zero] * (order + band)
    two = second is not None
    other, waiting = (list(second), [zero] * (order + band)) if two else ([], [])
    if tol is not None:
        largest = max(abs(c) * disk ** k for k, c in enumerate(coeffs))
        largest2 = max((abs(c) * disk ** k for k, c in enumerate(other)), default=0.0)
    weight = disk ** len(seeds)  # disk^m, the term size per |c_m|
    quiet, quiet2 = 0, 0 if two else 2  # a missing column never holds the stop
    for m in range(order + 1):
        s = rho + m
        if m >= len(seeds):
            piv = a[0] * s * (s - 1.0) + b[0] * s + d[0]
            if piv == 0:
                raise ResonantExponentsError(
                    f"recurrence pivot vanished at series index {m}")
            coeffs.append(-pending[m] / piv)
            if two:
                other.append(-waiting[m] / piv)
            if tol is not None:
                size = abs(coeffs[m]) * weight
                if size > largest:
                    largest = size
                quiet = quiet + 1 if size <= tol * largest else 0
                if two:
                    size = abs(other[m]) * weight
                    if size > largest2:
                        largest2 = size
                    quiet2 = quiet2 + 1 if size <= tol * largest2 else 0
                if quiet >= 2 and quiet2 >= 2:
                    break
                weight *= disk
        c, c2 = coeffs[m], other[m] if two else zero
        nonzero, nonzero2 = c != 0, c2 != 0  # a zero adds nothing: each column keeps its bits
        if nonzero or nonzero2:
            s1 = s - 1.0
            for j, aj, bj, dj in off_diagonal:
                term = aj * s * s1 + bj * s + dj
                if term != 0:
                    if nonzero:
                        pending[m + j] += c * term
                    if nonzero2:
                        waiting[m + j] += c2 * term
    return (coeffs, other) if two else coeffs


def frobenius_series(ode: RationalCoeffODE, point: complex | _InfinityType, exponent: complex,
                     order: int = _MAX_ORDER, read: float | None = None) -> FrobeniusSolution:
    """Frobenius series at a regular singular point for the given exponent.

    The exponent is replaced by the nearer root of the indicial pair,
    which must lie within 1e-6 relative, so a few digits are enough to
    select a branch. Raises ResonantExponentsError when the other root
    sits a positive integer above the requested one (vanishing pivot);
    the series for the larger root of a resonant pair, and for a double
    root, is still available. Below radius 1 the coefficients are in
    x / scale, scale the power of two <= radius. At infinity it is the
    series in t = 1/z at t = 0, its exponent 0j - sigma for the root
    sigma of ``indicial_exponents``, and its errors speak of the
    exponents in t. With ``read`` it stops once two successive terms on
    |x| <= min(read, radius/2) fall below _READ_TOL times the largest.
    """
    if point is not INFINITY:
        point = _numbers(ode._real, point)[0]
    pair = indicial_exponents(ode, point)
    if point is INFINITY:  # the exponents in t = 1/z
        pair, exponent = (0j - pair[0], 0j - pair[1]), 0j - exponent
    rho = min(pair, key=lambda cand: abs(cand - exponent))
    if not abs(rho - exponent) <= 1e-6 * (1.0 + abs(rho)):
        raise ValueError(
            f"exponent {exponent} does not match either indicial root {pair}")

    gap = (pair[0] if rho is pair[1] else pair[1]) - rho
    if abs(gap.imag) < 1e-9 and abs(gap.real - round(gap.real)) < 1e-9 and round(gap.real) > 0:
        raise ResonantExponentsError(
            f"exponents {pair} differ by the positive integer {round(gap.real)}; "
            "request the other branch or treat the log solution separately")

    p2, p1, p0, kappa = _triple_at(ode, point)
    if not abs(p2[kappa]) >= _TINY:
        raise OutOfDomainError(
            f"the series recurrence at {complex(point)} lost its leading coefficient to underflow")
    radius = _series_radius(ode, point)
    # unscaled, the coefficients grow like radius^-k; a power of two scales exactly
    scale = math.ldexp(0.5, math.frexp(min(radius, 1.0))[1])
    p2, p1, p0 = _pow2_scaled_triple(p2, p1, p0, kappa, scale)
    rho, one = (rho.real, 1.0) if isinstance(point, float) and not rho.imag else (rho, 1 + 0j)
    coeffs = _recurrence(p2, p1, p0, kappa, rho, order, [one], read and _READ_TOL,
                         disk=min(read or 0.0, 0.5 * radius) / scale)
    z0 = 0j if point is INFINITY else point
    return FrobeniusSolution(z0, rho, tuple(coeffs), radius, scale)


def _truncate(sol: FrobeniusSolution, read: float) -> FrobeniusSolution:
    """The prefix of a ``frobenius_series`` series that ``read`` would have
    kept, the same bits: its stop, which only moves out as the disk grows,
    run over the terms made, so a read no smaller than its own keeps all."""
    coeffs, disk = sol.coefficients, read / sol.scale
    largest, weight, quiet, n = abs(coeffs[0]), disk, 0, len(coeffs)
    for m in range(1, n):
        size = abs(coeffs[m]) * weight
        largest, weight = size if size > largest else largest, weight * disk  # max, no call
        quiet = quiet + 1 if size <= _READ_TOL * largest else 0
        if quiet == 2:
            n = m + 1
            break
    return FrobeniusSolution(sol.expansion_point, sol.exponent, coeffs[:n], sol.radius, sol.scale)


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
                if isinstance(c, complex) else math.ldexp(c * powers[k], k * e - top)
                for k, c in enumerate(poly, offset)]

    try:
        return scaled(p2, 0), scaled(p1, 1), scaled(p0, 2)
    except OverflowError as exc:
        raise OutOfDomainError(f"a series recurrence scaled by {scale:.3g} overflows") from exc


def _taylor_triple(ode: RationalCoeffODE, center: complex):
    """(triple, radius) of a Taylor hop at an ordinary point: the triple
    shifted to center and scaled to the disk's radius, which the equation's
    finite singular points must leave finite."""
    p2, p1, p0, kappa = _triple_at(ode, center)
    if not all(math.isfinite(abs(c)) for c in p2 + p1 + p0):
        raise OutOfDomainError(f"the equation's polynomial coefficients overflow at {center}")
    if kappa:
        raise ValueError(f"{center} is a singular point; taylor_series needs an ordinary one")
    radius = _series_radius(ode, center)
    if not math.isfinite(radius):
        raise ValueError("a Taylor series needs a finite radius: a finite singular point")
    return _pow2_scaled_triple(p2, p1, p0, 0, radius), radius


def taylor_series(ode: RationalCoeffODE, center: complex, value: complex,
                  derivative: complex, order: int = _MAX_ORDER) -> FrobeniusSolution:
    """Power series at an ordinary point with given w(center), w'(center).

    The radius is the distance to the nearest finite singular point, so
    the equation must have one. The coefficients are those of the scaled
    variable (z - center) / radius, so they neither overflow nor
    underflow however large or small the disk, and the order is chosen
    from the tail: the series stops once two successive terms on the
    trusted half disk fall below double precision (_TAIL_TOL) times the
    largest, at ``order`` at the latest.
    """
    center, value, derivative, zero = _numbers(ode._real, center, value, derivative, 0)
    (p2, p1, p0), radius = _taylor_triple(ode, center)
    coeffs = _recurrence(p2, p1, p0, 0, zero, order, [value, derivative * radius], _TAIL_TOL)
    return FrobeniusSolution(center, zero, tuple(coeffs), radius, radius)


def taylor_basis(ode: RationalCoeffODE, center: complex, order: int = _MAX_ORDER,
                 tol: float = _TAIL_TOL,
                 disk: float = 0.5) -> tuple[FrobeniusSolution, FrobeniusSolution]:
    """The two power series at an ordinary point with (w, radius w') equal
    to (1, 0) and to (0, 1) at the centre, as ``taylor_series`` builds
    them, both on one shifted, scaled triple and in one pass of the
    recurrence, cut where both tails have fallen below tol on the disk
    |z - center| <= disk * radius, the trusted half disk by default. This
    is the one hop of ``asymptotics.integrate``; a path of hops is
    ``reach``'s. At the default tol and disk the first has the bits of
    ``taylor_series(ode, center, 1, 0, order)`` as far as that one goes.
    """
    center, zero, one = _numbers(ode._real, center, 0, 1)
    (p2, p1, p0), radius = _taylor_triple(ode, center)
    pair = _recurrence(p2, p1, p0, 0, zero, order, [one, zero], tol, second=[zero, one],
                       disk=disk)
    return tuple(FrobeniusSolution(center, zero, tuple(coeffs), radius, radius)
                 for coeffs in pair)


def reach(ode: RationalCoeffODE, chain: list[FrobeniusSolution], target: complex,
          order: int, first: int = 0) -> int:
    """Index of the first series in ``chain``, from ``first`` on, whose
    trusted disk holds ``target``; hops are appended past the end as needed.

    ``chain`` starts with a series at the start point, analytic there
    (exponent 0). Each appended hop is the Taylor re-expansion 0.4 of the
    last radius further along the straight path toward the target that
    needed it, built by ``taylor_series`` in its scaled variable, its tail
    cut at double precision, ``order`` terms at most, as many hops as
    ``_hop_budget`` allows. Each local series is trusted to half its own
    radius, the distance to the nearest singular point. On a real ray
    every hop heads exactly +1 or -1, so the hop centres do not depend
    on which target is asked for.
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
                f"analytic continuation toward {complex(target)} did not arrive in {budget} "
                "hops (target too close to a singular point, or too far away?)")
        if k == len(chain):
            nxt = center + remaining / abs(remaining) * (0.4 * current.radius)
            w, dw = evaluate_with_derivatives(current, nxt, 1)
            try:
                chain.append(taylor_series(ode, nxt, w, dw, order))
            except ValueError as exc:
                raise OutOfDomainError(f"continuation toward {complex(target)} stalls at "
                                       f"{complex(nxt)}: {exc}") from exc


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
    x = z - sol.expansion_point
    if abs(x) >= sol.radius:
        raise OutOfDomainError(
            f"evaluation point has |z - z0| = {abs(x):.6g} outside the series "
            f"disk of radius {sol.radius:.6g}")
    return x


def _series_sums(coeffs, x, scale: float = 1.0, derivatives: int = 2):
    """sum c_k (x/scale)^k and its first ``derivatives`` derivatives with
    respect to x, 1 or 2 of them, as a tuple; with 0, the value's sum
    alone. Every count gives the value and its derivatives the same bits,
    and sums only what it returns: with 1, no w'' sum divides by
    scale * scale, which underflows to 0 below a scale of about 1e-154."""
    if scale != 1.0:
        x = x / scale
    s0 = s1 = s2 = 0  # 0 * x is 0.0 * x or 0j * x: x's arithmetic
    if not derivatives:
        for c in reversed(coeffs):
            s0 = s0 * x + c
        return s0
    if derivatives == 1:
        for c in reversed(coeffs):
            s1 = s1 * x + s0
            s0 = s0 * x + c
        return (s0, s1) if scale == 1.0 else (s0, s1 / scale)
    for c in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s0
        s0 = s0 * x + c
    return (s0, s1, s2) if scale == 1.0 else (s0, s1 / scale, s2 / (scale * scale))


def _power(x, p):
    """x ** p as complex(x) ** p has it (integral p by products, not C's pow); real stays real."""
    y = x ** p if isinstance(x, complex) or not p else complex(x) ** p  # x ** 0 is exactly 1
    return y.real if isinstance(x, float) and not y.imag else y


def evaluate(sol: FrobeniusSolution, z: complex) -> complex:
    """Value of the local solution at z, from its value's sum alone (away
    from z0, the bits ``evaluate_with_derivatives`` gives)."""
    x, rho = _local_coordinate(sol, z), sol.exponent
    if x == 0:
        if rho == 0:
            return sol.coefficients[0]
        if rho.real > 0:
            return 0j if isinstance(x, complex) else 0.0
        raise OutOfDomainError("series diverges at its own expansion point")
    return _power(x, rho) * _series_sums(sol.coefficients, x, sol.scale, derivatives=0)


def evaluate_with_derivatives(sol: FrobeniusSolution, z: complex,
                              derivatives: int = 2) -> tuple[complex, ...]:
    """(w, w', w'') at z, derivatives taken with respect to z; (w, w') with
    ``derivatives`` 1, the same bits. At an analytic series' own centre
    they are its first coefficients, c0, c1 / scale and 2 c2 / scale^2."""
    x, rho = _local_coordinate(sol, z), sol.exponent
    if x == 0:
        if rho != 0:
            raise OutOfDomainError(
                "derivative evaluation needs a point away from the expansion center")
        zero = 0j if isinstance(x, complex) else 0.0
        c0, c1, c2 = (*sol.coefficients[:3], zero, zero)[:3]  # a shorter series pads with 0
        scale = sol.scale
        if derivatives == 1:
            return c0, c1 / scale
        return c0, c1 / scale, 2.0 * c2 / (scale * scale)
    sums = _series_sums(sol.coefficients, x, sol.scale, derivatives)
    s0, s1 = sums[0], sums[1]
    w = _power(x, rho) * s0
    dw_dx = _power(x, rho - 1) * (rho * s0 + x * s1)
    if derivatives == 1:
        return w, dw_dx
    d2w_dx2 = _power(x, rho - 2) * (rho * (rho - 1.0) * s0 + 2.0 * rho * x * s1 + x * x * sums[2])
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
