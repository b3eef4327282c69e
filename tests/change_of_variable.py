"""The change of variable z = a(t)/b(t) on raw coefficient quotients:
the independent reference the tests push equations through, to check the
record at infinity and both normal-form reductions against the model
tables.

It acts on ((p1_num, p1_den), (p0_num, p0_den)) pairs, the form
``fuchsian.gauge`` takes: the builders' raw tables, or an equation's
least-degree triple as ((P1, P2), (P0, P2)), since a RationalCoeffODE
keeps no quotients of its own. Only +, - and * touch the coefficients,
so sympy tables pass through too.
"""

from functools import reduce

from kgcoulomb.fuchsian import _polyadd, _polyder, _polymul, _polyscale


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
