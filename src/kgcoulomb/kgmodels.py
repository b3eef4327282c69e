"""Builders for the three momentum-space bound-state equations and the
parameter blocks and variable maps of their Heun normal forms.

All equations are radial s-wave equations in the dimensionless momentum
u = p/(mc), derived from the squared interaction form

    (E^2 R^2 + 2 Z e^2 E R + Z^2 e^4) psi = R^2 [(m^2 c^4 + c^2 p^2) psi]

with R the momentum-space position operator: the ordinary one for the
undeformed case, the minimal-length-deformed one at zero energy, and
the first-order (theta' = 2 theta) deformed one at general energy.

Each equation has one coefficient table, a ``_*_coeffs`` helper doing
plain scalar arithmetic on its inputs, so that exact (sympy) number
types pass through unchanged; the two helpers with complex coefficients
take the imaginary unit as an argument for the same reason. The public
builders wrap the tables into RationalCoeffODE values. The first-order
equation is tabulated for phi = u psi; its psi form is derived from that
table by ``fuchsian.gauge``. The normal-form maps are VariableMap
(num, den) pairs, which the tests' ``substitute``
(tests/change_of_variable.py) takes to push a normal form back to u.
"""

from __future__ import annotations

import cmath
import math
import warnings

from .errors import KGCoulombWarning, OutOfDomainError, ParameterPoleError
from .fuchsian import RationalCoeffODE, _horner, _polyadd, _polymul, _polyscale, gauge
from .physcore import CoulombSystem, DeformationParams
from .specialfn import HeunParams


class ConfluenceWarning(KGCoulombWarning):
    """Two singular points are about to collide (deformation too weak)."""


class VariableMap:
    """A change of independent variable x = num(u) / den(u), held as the
    polynomial pair (ascending powers) that the tests' ``substitute`` takes."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple) -> None:
        self.num, self.den = num, den

    def forward(self, u):
        """x(u) by Horner's rule in u's own type: a real u gives a float, and a
        list of points the list of their x, each with the bits it has alone."""
        if not isinstance(u, list):
            return _horner(self.num, u) / _horner(self.den, u)

        def horner(p):  # _horner's operations, in its order, on every point at once
            acc = [p[-1]] * len(u)
            for c in p[-2::-1]:
                acc = [a * x + c for a, x in zip(acc, u)]
            return acc
        return [a / b for a, b in zip(horner(self.num), horner(self.den))]


# ---------------------------------------------------------------------------
# raw coefficient quotients (pure scalar arithmetic, exact-type friendly)
# ---------------------------------------------------------------------------


def _ordinary_kg_coeffs(g, eta, imag=1j):
    """p1, p0 of the undeformed equation, as ((num, den), (num, den))."""
    eps2 = (1 - eta) * (1 + eta)
    den = (0, eps2, 0, 1)  # u (eps2 + u^2)
    p1_num = (2 * eps2, 2 * imag * g * eta, 6)
    p0_num = (2 * imag * g * eta, g * g + 6)
    return (p1_num, den), (p0_num, den)


def _deformed_zero_energy_coeffs(g, theta, theta_prime):
    """p1, p0 of the zero-energy deformed equation (real coefficients)."""
    th, tp = theta, theta_prime
    t = th + tp
    p1_num = (2, 0, 6 + 4 * th + 2 * tp, 0, 8 * th + 6 * tp)
    p1_den = (0, 1, 0, 1 + t, 0, t)  # u (1 + u^2) (1 + t u^2)
    p0_num = (6 + g * g, 0, 16 * th + 12 * tp, 0,
              10 * th * th + 16 * th * tp + 6 * tp * tp)
    p0_den = (1, 0, 1 + 2 * t, 0, t * t + 2 * t, 0, t * t)  # (1+u^2)(1+t u^2)^2
    return (p1_num, p1_den), (p0_num, p0_den)


def _first_order_phi_coeffs(g, eta, theta, imag=1j):
    """p1, p0 of the first-order deformed equation (theta' = 2 theta) for
    phi = u psi:

        (u^2+eps2)(1+6 theta u^2) phi''
          + {2 theta u (u^2+eps2) + 4u (1+6 theta u^2) + 2 i om (1+3 theta u^2)} phi'
          + {-2 theta (u^2+eps2) - 2 (1+6 theta u^2) + 4 (1+7 theta u^2)
             - 4 i om theta u + g^2} phi = 0.

    Its exponents at infinity are those of psi plus 1.
    """
    eps2 = (1 - eta) * (1 + eta)
    om = g * eta
    den = (eps2, 0, 1 + 6 * theta * eps2, 0, 6 * theta)  # (u^2+eps2)(1+6 theta u^2)
    p1_num = (2 * imag * om, 2 * theta * eps2 + 4, 6 * imag * om * theta, 26 * theta)
    p0_num = (2 + g * g - 2 * theta * eps2, -4 * imag * om * theta, 14 * theta)
    return (p1_num, den), (p0_num, den)


# ---------------------------------------------------------------------------
# public builders
# ---------------------------------------------------------------------------


def _with_mirror(*points) -> tuple:
    """Each singular point (r, m1, m0) together with (-r, m1, m0)."""
    return tuple(p for r, m1, m0 in points for p in ((r, m1, m0), (-r, m1, m0)))


def _require_bound_state(system: CoulombSystem) -> None:
    if system.eta >= 1.0:
        raise ValueError("no bound state at or above threshold: need 0 < eta < 1")


def build_ordinary_kg(system: CoulombSystem) -> RationalCoeffODE:
    """The undeformed momentum-space equation

        (eps2 + u^2) psi'' + (2 eps2/u + 2 i g eta + 6 u) psi'
            + (g^2 + 2 i g eta / u + 6) psi = 0.
    """
    _require_bound_state(system)
    (p1n, p1d), (p0n, p0d) = _ordinary_kg_coeffs(system.g, system.eta)
    points = ((0, 1, 1),) + _with_mirror((1j * system.eps_tilde, 1, 1))
    return RationalCoeffODE(p1n, p1d, p0n, p0d, points)


def build_deformed_zero_energy(g: float, params: DeformationParams) -> RationalCoeffODE:
    """The exact deformed equation at E = 0.

    Only the total strength theta + theta' and the split between them
    enter; g appears in a single additive term, which is why the
    large-u exponents are charge independent.
    """
    if params.total <= 0.0:
        raise ValueError(
            "theta + theta' must be positive; for the undeformed case use build_ordinary_kg")
    (p1n, p1d), (p0n, p0d) = _deformed_zero_energy_coeffs(
        g, params.theta, params.theta_prime)
    # u (1 + u^2) (1 + T u^2) and (1 + u^2) (1 + T u^2)^2; at T = 1 the
    # two pairs coincide and merge
    points = ((0, 1, 0),) + _with_mirror((1j, 1, 1), (1j / math.sqrt(params.total), 1, 2))
    return RationalCoeffODE(p1n, p1d, p0n, p0d, points)


def _first_order_points(system: CoulombSystem, theta: float) -> tuple:
    """The roots of (u^2 + eps2)(1 + 6 theta u^2), simple in both denominators."""
    return _with_mirror((1j * system.eps_tilde, 1, 1), (1j / math.sqrt(6.0 * theta), 1, 1))


def build_deformed_first_order_psi(system: CoulombSystem, theta: float) -> RationalCoeffODE:
    """The same first-order model written for psi directly, derived from
    the phi form by the gauge phi = u psi; its exponents at infinity are
    psi exponents, which is what the measured exponents compare against."""
    _require_bound_state(system)
    if theta <= 0.0:
        raise ValueError("theta must be positive; for theta = 0 use build_ordinary_kg")
    (p1n, p1d), (p0n, p0d) = gauge(_first_order_phi_coeffs(system.g, system.eta, theta), (0, 1), 1)
    # the gauge multiplies both denominators by u^2
    points = _first_order_points(system, theta) + ((0, 2, 2),)
    return RationalCoeffODE(p1n, p1d, p0n, p0d, points)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def to_heun(g: float, params: DeformationParams) -> tuple[HeunParams, VariableMap]:
    """Map the zero-energy deformed equation to Heun form.

    The compactification xi = T u^2 / (1 + T u^2) (T = theta + theta')
    sends u in [0, inf) to xi in [0, 1), and peeling off psi = (1 - xi) f
    leaves a four-point Fuchsian equation for f with singularities
    {0, xi0, 1, inf}, xi0 = T/(T-1). With r = theta/T and kq = g^2/4:

        c = 3/2, d = 2, e = 1/2 - r,
        q = -(3/2 + kq/(1 - T)),
        nu = sqrt((r - 1)^2 - 4 kq/(1 - T)),
        a = (3 - r - nu)/2, b = (3 - r + nu)/2.

    For theta = theta' this gives e = 0 (the xi = 1 singularity drops
    out) and the solution collapses to a hypergeometric function, which
    is the cross-check the heun-check command runs. The map returned is
    xi(u).
    """
    t = params.total
    if t <= 0.0:
        raise ValueError("theta + theta' must be positive")
    if abs(t - 1.0) < 1e-14:
        raise ParameterPoleError(
            "theta + theta' = 1 puts xi0 at infinity; the Heun form degenerates")
    xi0 = t / (t - 1.0)
    if min(abs(xi0), abs(xi0 - 1.0)) < 1e-12:
        raise ParameterPoleError(
            f"theta + theta' = {t:g} puts xi0 = {xi0:.6g} within 1e-12 of the singular "
            "point 0 or 1; the Heun form is confluent there")
    r = params.theta / t
    kq = g * g / 4.0
    nu = cmath.sqrt((r - 1.0) ** 2 - 4.0 * kq / (1.0 - t))
    hp = HeunParams(
        xi0=xi0,
        q=-(1.5 + kq / (1.0 - t)),
        a=(3.0 - r - nu) / 2.0,
        b=(3.0 - r + nu) / 2.0,
        c=1.5,
        d=2.0,
        e=0.5 - r,
    )
    return hp, VariableMap((0, 0, t), (1, 0, t))


class GenHeunParams:
    """Parameter block of the four-finite-point (generalized Heun)
    normal form of the first-order deformed equation,

        f'' + (c/x + d/(x-1) + e/(x-x1) + f/(x-x2)) f'
            + (a b x^2 + rho1 x + rho2) / (x (x-1) (x-x1) (x-x2)) f = 0.
    """

    __slots__ = ("a", "b", "rho1", "rho2", "c", "d", "e", "f", "x1", "x2")

    def __init__(self, a: complex, b: complex, rho1: complex, rho2: complex, c: complex,
                 d: complex, e: complex, f: complex, x1: complex, x2: complex) -> None:
        self.a, self.b, self.rho1, self.rho2, self.x1, self.x2 = a, b, rho1, rho2, x1, x2
        self.c, self.d, self.e, self.f = c, d, e, f
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
        if abs(self.fuchsian_residual) > 1e-14 * scale:
            raise ValueError(
                f"parameters violate the Fuchsian constraint by {self.fuchsian_residual}")
        if abs(x1 + x2 - 1.0) > 1e-12:
            raise ValueError("singular points must satisfy x1 + x2 = 1")

    @property
    def fuchsian_residual(self) -> float:
        return abs(self.a + self.b + 1.0 - (self.c + self.d + self.e + self.f))


def to_generalized_heun(system: CoulombSystem, theta: float) -> tuple[GenHeunParams, VariableMap]:
    """Map the first-order deformed equation (phi form) to its normal
    form via x = (1 - i sqrt(6 theta) u) / 2.

    The four finite singular points are {0, 1, x1, x2} with
    x1,2 = (1 +- sqrt(6 theta) eps_tilde)/2; they collide as theta -> 0,
    which triggers a ConfluenceWarning rather than an error since the
    map stays valid for any positive theta. The map returned is x(u).
    """
    _require_bound_state(system)
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    eps2 = (1.0 - system.eta) * (1.0 + system.eta)
    et = math.sqrt(eps2)
    dd = 1.0 - 6.0 * theta * eps2
    if abs(dd) < 1e-14:
        raise ParameterPoleError(
            "6 theta (1 - eta^2) = 1 is a pole of the exponent parameters c, d, e, f")
    s = math.sqrt(6.0 * theta)
    om = system.omega_tilde
    shift_cd = om * s / (2.0 * dd)
    shift_ef = om * (1.0 - 3.0 * theta * eps2) / (dd * et)
    x1, x2 = (1.0 + s * et) / 2.0, (1.0 - s * et) / 2.0
    if abs(x1 + x2 - 1.0) > 1e-12:
        raise OutOfDomainError(
            f"sqrt(6 theta) eps_tilde = {s * et:.3g} swamps 1 in x1,2 = (1 +- sqrt(6 theta) "
            "eps_tilde)/2: the normal form is lost to rounding")
    if s * et < 1e-2:
        warnings.warn(
            f"singular points x1, x2 are only {s * et:.3g} apart; "
            "the normal form is close to confluent", ConfluenceWarning, stacklevel=2)
    gp = GenHeunParams(
        a=1.0,
        b=7.0 / 3.0,
        rho1=-7.0 / 3.0 - om * s / 3.0,
        rho2=theta * eps2 / 2.0 + om * s / 6.0 + 1.0 / 12.0 - system.k / 4.0,
        c=1.0 / 6.0 + shift_cd,
        d=1.0 / 6.0 - shift_cd,
        e=2.0 + shift_ef,
        f=2.0 - shift_ef,
        x1=x1,
        x2=x2,
    )
    return gp, VariableMap((1.0, -1j * s), (2.0,))


def gen_heun_ode(params: GenHeunParams) -> RationalCoeffODE:
    """The normal-form equation of GenHeunParams as a RationalCoeffODE."""
    p = params
    # partial fractions sum_j coef_j / (x - x_j), put over one denominator
    num, den = (0,), (1,)
    for coef, pole in ((p.c, 0.0), (p.d, 1.0), (p.e, p.x1), (p.f, p.x2)):
        num = _polyadd(_polymul(num, (-pole, 1)), _polyscale(den, coef))
        den = _polymul(den, (-pole, 1))
    points = tuple((x, 1, 1) for x in (0, 1, p.x1, p.x2))
    return RationalCoeffODE(num, den, (p.rho2, p.rho1, p.a * p.b), den, points)
