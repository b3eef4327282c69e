"""Physical parameters and the handful of closed-form quantities derived
from them.

Everything downstream works in dimensionless momentum units: u = p/(mc),
energies as the ratio eta = E/(mc^2), and deformation strengths
theta = beta (mc)^2, theta' = beta' (mc)^2 taken from the modified
commutator [X, P] = i hbar (1 + beta P^2 + beta' X-ordered terms).
"""

from __future__ import annotations

import cmath
import math

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999


class DeformationParams:
    """Minimal-length deformation strengths in dimensionless form; fixed
    once constructed."""

    __slots__ = ("theta", "theta_prime")

    def __init__(self, theta: float, theta_prime: float) -> None:
        if theta < 0 or theta_prime < 0:
            raise ValueError("deformation strengths must be nonnegative")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_prime", theta_prime)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DeformationParams is immutable; cannot set {name!r}")

    @property
    def total(self) -> float:
        """theta + theta', the combination controlling large-u behavior."""
        return self.theta + self.theta_prime

    @property
    def omega1(self) -> float:
        """2*theta/(theta + theta')."""
        if self.total == 0.0:
            raise ValueError("omega1 undefined for an undeformed parameter set")
        return 2.0 * self.theta / self.total

    @property
    def omega2(self) -> float:
        """(theta + theta')/2."""
        return self.total / 2.0


def minimal_length(params: DeformationParams) -> float:
    """Smallest resolvable length implied by the deformed commutator in
    three spatial dimensions, sqrt(3 theta + theta'), in units of
    hbar/(mc)."""
    return math.sqrt(3 * params.theta + params.theta_prime)


def mu_of_coupling(g: float) -> complex:
    """sqrt(1/4 - g^2) with the branch that is positive imaginary past
    the critical coupling g = 1/2."""
    if g < 0:
        raise ValueError("coupling must be nonnegative")
    return cmath.sqrt(0.25 - g * g)


class CoulombSystem:
    """A spin-0 particle in the Coulomb field of coupling g = Z*alpha, at
    a trial energy eta.

    ``eta`` is E/(mc^2); bound states live in (0, 1), and eta = 1 is the
    threshold. The derived attributes are the combinations the momentum
    space equations are written in.
    """

    __slots__ = ("g", "eta")

    def __init__(self, g: float, eta: float = 0.5) -> None:
        if not g > 0.0:
            raise ValueError("coupling g must be positive")
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        self.g, self.eta = g, eta

    @property
    def k(self) -> float:
        """g^2, the square of the coupling."""
        return self.g * self.g

    @property
    def eps_tilde(self) -> float:
        """sqrt(1 - eta^2), the momentum-space inverse length scale."""
        return math.sqrt(max(0.0, (1.0 - self.eta) * (1.0 + self.eta)))

    @property
    def mu(self) -> complex:
        """sqrt(1/4 - g^2); imaginary once the coupling is supercritical."""
        return mu_of_coupling(self.g)

    @property
    def omega_tilde(self) -> float:
        """g*eta, the energy-weighted coupling."""
        return self.g * self.eta

    @property
    def w(self) -> float:
        """g*eta/sqrt(1 - eta^2); diverges at threshold."""
        if self.eta >= 1.0:
            raise ValueError("w undefined at threshold eta = 1")
        return self.omega_tilde / self.eps_tilde
