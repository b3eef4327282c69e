"""Bound-state energies of the undeformed problem.

Square integrability of the closed-form wavefunction forces its
hypergeometric factor to terminate, i.e.

    1/2 - g eta / sqrt(1 - eta^2) + mu(g) + n = 0,  n = 0, 1, 2, ...

which solves in closed form to eta = N / sqrt(N^2 + g^2) with
N = n + 1/2 + mu(g), i.e. a binding 1 - eta = g^2 / (S (S + N)) with
S = sqrt(N^2 + g^2). The root finder exists to machine-check that
derivation rather than trust it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import RootFindingError, SupercriticalCouplingError

__all__ = [
    "SpectrumLine",
    "quantization_residual",
    "binding_residual",
    "energy_closed_form",
    "solve_quantization",
]


@dataclass(frozen=True)
class SpectrumLine:
    n: int
    z: int | None
    eta: float
    residual: float
    binding: float  # 1 - eta, solved for directly


def _real_mu(g: float) -> float:
    if g < 0:
        raise ValueError("coupling must be nonnegative")
    if g > 0.5:
        raise SupercriticalCouplingError(
            f"coupling g = {g} exceeds 1/2: sqrt(1/4 - g^2) is imaginary and "
            "the square-integrability condition has no real solution")
    return math.sqrt(0.25 - g * g)


def quantization_residual(g: float, eta: float, n: int) -> float:
    """1/2 - g eta/sqrt(1-eta^2) + mu(g) + n: ``binding_residual`` at 1 - eta."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly inside (0, 1)")
    return binding_residual(g, 1.0 - eta, n)


def binding_residual(g: float, binding: float, n: int) -> float:
    """1/2 + mu(g) + n - g (1 - b)/sqrt(b (2 - b)), b = 1 - eta the binding;
    zero exactly at a bound state, however weakly bound."""
    mu = _real_mu(g)
    if not 0.0 < binding <= 1.0:
        raise ValueError("the binding must lie in (0, 1]")
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    return 0.5 + mu + n - g * (1.0 - binding) / math.sqrt(binding * (2.0 - binding))


def energy_closed_form(g: float, n: int) -> float:
    """eta = N / sqrt(N^2 + g^2), N = n + 1/2 + mu(g)."""
    mu = _real_mu(g)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    big_n = n + 0.5 + mu
    return big_n / math.sqrt(big_n * big_n + g * g)


def solve_quantization(g: float, n: int, z: int | None = None) -> SpectrumLine:
    """Root of the quantization residual, found independently of the
    closed form, in the binding b = 1 - eta: bisection in log b over
    (0, 1) to a tight bracket, then Newton.

    The residual is ``binding_residual``, strictly increasing in b (its
    derivative is g / (b (2 - b))^(3/2)), so the root is unique when it
    exists, and it keeps full relative precision for states bound by far
    less than the rounding of eta near 1 (hydrogen from n ~ 160 on). The
    line reports that residual at the root.
    """
    lo, hi = sys.float_info.min, 1.0
    f_lo, f_hi = binding_residual(g, lo, n), binding_residual(g, hi, n)
    if not (f_lo < 0.0 < f_hi):
        raise RootFindingError(
            f"no sign change in the binding on ({lo:.3g}, {hi}): residuals "
            f"({f_lo:.3g}, {f_hi:.3g}); this signals a parameter bug, not a missing state")
    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if binding_residual(g, mid, n) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * hi:
            break
    b = math.sqrt(lo) * math.sqrt(hi)
    for _ in range(4):
        step = binding_residual(g, b, n) * (b * (2.0 - b)) ** 1.5 / g
        b -= step
        if not 0.0 < b < 1.0:
            raise RootFindingError("Newton polish left the physical interval")
        if abs(step) < 1e-16 * b:
            break
    return SpectrumLine(n=n, z=z, eta=1.0 - b, binding=b, residual=binding_residual(g, b, n))
