"""Numerical large-momentum behavior: direct integration of the model
equations, log-log power-law fits, and the regularization verdict.

The dominant (fast-decaying) branch of a two-solution pair cannot be
reached by forward integration from generic data; any admixture of the
slow branch takes over. It is therefore seeded from the Frobenius
series about infinity and integrated backward, the standard trick for
recessive solutions. Generic forward integration conversely always
relaxes onto the subdominant branch, which is used deliberately here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fuchsian
from .errors import IntegrationError, OscillationError, OutOfDomainError
from .kgmodels import build_deformed_zero_energy, build_ordinary_kg
from .physcore import CoulombSystem, DeformationParams

__all__ = [
    "Trajectory",
    "FitResult",
    "RegularizationVerdict",
    "integrate",
    "fit_exponent",
    "dominant_branch",
    "subdominant_branch",
    "classify",
]


@dataclass(frozen=True)
class Trajectory:
    """psi and psi' sampled on a strictly increasing momentum grid."""

    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    ode_id: str

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("trajectory grid must be strictly increasing")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivatives))):
            raise ValueError("trajectory contains non-finite samples")


class FitResult(NamedTuple):
    exponent: float
    stderr: float


@dataclass(frozen=True)
class RegularizationVerdict:
    regime: str  # ordinary-subcritical | ordinary-supercritical | deformed
    dominant_exponent: complex
    subdominant_exponent: complex
    z_dependent: bool
    conclusion: str  # unique-selection | phase-ambiguous | regularized


def _real_singularities_on(ode: fuchsian.RationalCoeffODE,
                           lo: float, hi: float) -> list[complex]:
    out = []
    for s in fuchsian.singular_points(ode):
        if s.location is fuchsian.INFINITY:
            continue
        z = s.location
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and lo - 1e-12 <= z.real <= hi + 1e-12:
            out.append(z)
    return out


def integrate(ode: fuchsian.RationalCoeffODE, u0: float, psi0: complex,
              dpsi0: complex, u_end: float, tol: float = 1e-10,
              n_points: int = 400) -> Trajectory:
    """Integrate psi'' = -p1 psi' - p0 psi from u0 to u_end.

    The complex second-order equation is run as a real 4-dimensional
    first-order system under an adaptive high-order Runge-Kutta scheme
    with relative tolerance tol. The returned grid is ascending
    regardless of integration direction.
    """
    # imported here so that the CLI's other commands start without scipy
    from scipy.integrate import solve_ivp

    if tol <= 0:
        raise ValueError("tol must be positive")
    if u0 == u_end:
        raise ValueError("empty integration interval")
    lo, hi = min(u0, u_end), max(u0, u_end)
    blockers = _real_singularities_on(ode, lo, hi)
    if blockers:
        raise OutOfDomainError(
            f"integration interval [{lo}, {hi}] crosses singular point(s) "
            + ", ".join(f"{z.real:.6g}" for z in blockers))

    def rhs(u, y):
        psi = y[0] + 1j * y[1]
        dpsi = y[2] + 1j * y[3]
        d2 = -ode.p1(u) * dpsi - ode.p0(u) * psi
        return (y[2], y[3], d2.real, d2.imag)

    if lo > 0 and hi / lo > 50.0:
        grid = np.geomspace(u0, u_end, n_points)
    else:
        grid = np.linspace(u0, u_end, n_points)
    scale0 = max(abs(psi0), abs(dpsi0), 1e-30)
    sol = solve_ivp(
        rhs, (u0, u_end),
        [psi0.real, psi0.imag, dpsi0.real, dpsi0.imag],
        method="DOP853", rtol=tol, atol=1e-18 * scale0, t_eval=grid,
        dense_output=False)
    if not sol.success:
        raise IntegrationError(
            f"integrator stopped near u = {sol.t[-1] if len(sol.t) else u0}: {sol.message}")
    values = sol.y[0] + 1j * sol.y[1]
    derivs = sol.y[2] + 1j * sol.y[3]
    if u_end < u0:
        grid, values, derivs = grid[::-1], values[::-1], derivs[::-1]
    return Trajectory(grid=np.array(grid, dtype=float), values=values,
                      derivatives=derivs, ode_id=ode.label or "ode")


def fit_exponent(traj: Trajectory, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of log|psi| against log u over the window.

    Raises OscillationError when the amplitude is not a clean power law:
    either the local log-log slope changes sign more than twice, or the
    residuals around the fitted line oscillate with visible amplitude.
    Both are signatures of a complex exponent pair (supercritical
    Coulomb), where |psi| ~ u^re * |beat(im * log u)| and a single real
    slope would be meaningless.
    """
    lo, hi = window
    if not (traj.grid[0] <= lo < hi <= traj.grid[-1]):
        raise ValueError(
            f"window [{lo}, {hi}] is not inside the trajectory grid "
            f"[{traj.grid[0]}, {traj.grid[-1]}]")
    mask = (traj.grid >= lo) & (traj.grid <= hi)
    if np.count_nonzero(mask) < 8:
        raise ValueError("window contains fewer than 8 samples")
    amps = np.abs(traj.values[mask])
    if np.any(amps == 0.0):
        raise OscillationError("|psi| has zeros in the window (interference nodes)")
    x = np.log(traj.grid[mask])
    y = np.log(amps)
    local = np.diff(y) / np.diff(x)
    flips = int(np.count_nonzero(local[:-1] * local[1:] < 0.0))
    if flips > 2:
        raise OscillationError(
            f"log-log slope flips sign {flips} times over the window; "
            "the decay exponent is complex, not real")
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    # A complex exponent pair shows up as a beat: the detrended residual
    # swings through zero repeatedly instead of hugging the fit line.
    crossings = int(np.count_nonzero(resid[:-1] * resid[1:] < 0.0))
    swing = float(np.max(np.abs(resid)))
    if crossings >= 3 and swing > 0.02:
        raise OscillationError(
            f"detrended log amplitude oscillates (swing {swing:.3g}, "
            f"{crossings} zero crossings); the decay exponent is complex")
    dof = len(x) - 2
    stderr = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return FitResult(exponent=slope, stderr=stderr)


def dominant_branch(ode: fuchsian.RationalCoeffODE, window: tuple[float, float],
                    order: int = 48, tol: float = 1e-10) -> Trajectory:
    """Trajectory of the fastest-decaying solution over the window.

    Seeded from the Frobenius series about infinity at the upper window
    edge and integrated backward; the seed is rescaled to unit magnitude
    (the equations are linear, so shape is all that matters).
    """
    exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
    dominant = exps[1]  # sorted descending by real part: [1] decays fastest
    series = fuchsian.frobenius_series(ode, fuchsian.INFINITY, dominant, order=order)
    u_hi = window[1]
    w, dw, _ = fuchsian.evaluate_with_derivatives(series, u_hi)
    s = max(abs(w), abs(dw))
    return integrate(ode, u_hi, w / s, dw / s, window[0], tol=tol)


def subdominant_branch(ode: fuchsian.RationalCoeffODE, window: tuple[float, float],
                       u_seed: float = 1.0, tol: float = 1e-10) -> Trajectory:
    """Trajectory dominated by the slowest-decaying solution.

    Forward integration from a generic seed well below the window; the
    slow branch takes over long before the window starts, no series
    seeding required.
    """
    if u_seed >= window[0]:
        raise ValueError("seed point must sit below the fit window")
    return integrate(ode, u_seed, 1.0 + 0j, 0j, window[1], tol=tol)


def classify(g: float, deformation: DeformationParams | None = None,
             eta: float = 0.5) -> RegularizationVerdict:
    """Large-momentum verdict for the given coupling.

    Undeformed subcritical: two real decay rates, the faster one is
    selected uniquely. Undeformed supercritical (g > 1/2): the rates
    form a complex-conjugate pair, every combination decays equally fast
    and oscillates, leaving an arbitrary relative phase. Deformed: the
    rates are real and independent of g for any coupling, so the same
    selection works at every Z.
    """
    if deformation is not None and deformation.total > 0.0:
        ode = build_deformed_zero_energy(g, deformation)
        exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
        return RegularizationVerdict(
            regime="deformed",
            dominant_exponent=exps[1],
            subdominant_exponent=exps[0],
            z_dependent=False,
            conclusion="regularized",
        )
    ode = build_ordinary_kg(CoulombSystem(z=1, alpha=g, eta=eta))
    exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
    if g > 0.5:
        return RegularizationVerdict(
            regime="ordinary-supercritical",
            dominant_exponent=exps[0],
            subdominant_exponent=exps[1],
            z_dependent=True,
            conclusion="phase-ambiguous",
        )
    return RegularizationVerdict(
        regime="ordinary-subcritical",
        dominant_exponent=exps[1],
        subdominant_exponent=exps[0],
        z_dependent=True,
        conclusion="unique-selection",
    )
