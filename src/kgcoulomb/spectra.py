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

from .errors import RootFindingError, SupercriticalCouplingError
from .physcore import mu_of_coupling


class SpectrumLine:
    __slots__ = ("eta", "residual", "binding")

    def __init__(self, eta: float, residual: float, binding: float) -> None:
        self.eta, self.residual = eta, residual
        self.binding = binding  # 1 - eta, solved for directly


def _real_mu(g: float) -> float:
    if g > 0.5:
        raise SupercriticalCouplingError(
            f"coupling g = {g} exceeds 1/2: sqrt(1/4 - g^2) is imaginary and "
            "the square-integrability condition has no real solution")
    return mu_of_coupling(g).real


def binding_residual(g: float, binding: float, n: int) -> float:
    """The quantization residual 1/2 - g eta/sqrt(1 - eta^2) + mu(g) + n
    written in the binding b = 1 - eta, 1/2 + mu(g) + n - g (1 - b)/sqrt(b (2 - b));
    zero exactly at a bound state, however weakly bound."""
    mu = _real_mu(g)
    if not 0.0 < binding <= 1.0:
        raise ValueError("the binding must lie in (0, 1]")
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    return 0.5 + mu + n - g * (1.0 - binding) / math.sqrt(binding * (2.0 - binding))


def _level(g: float, n: int) -> tuple[float, float]:
    """N = n + 1/2 + mu(g) and S = sqrt(N^2 + g^2) of level n."""
    mu = _real_mu(g)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    big_n = n + 0.5 + mu
    return big_n, math.sqrt(big_n * big_n + g * g)


def energy_closed_form(g: float, n: int) -> float:
    """eta = N / S."""
    big_n, s = _level(g, n)
    return big_n / s


def binding_closed_form(g: float, n: int) -> float:
    """The binding 1 - eta = g^2 / (S (S + N)), which keeps full relative
    precision however weakly the level is bound."""
    big_n, s = _level(g, n)
    return g * g / (s * (s + big_n))


def solve_quantization(g: float, n: int) -> SpectrumLine:
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
        if g > 0.0:  # then f_hi > 0, and the root lies below lo
            raise RootFindingError(f"level n = {n} at g = {g:.6g} is bound by less than the "
                                   f"smallest normal double, {lo:.3g} m c^2")
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
    return SpectrumLine(eta=1.0 - b, binding=b, residual=binding_residual(g, b, n))
