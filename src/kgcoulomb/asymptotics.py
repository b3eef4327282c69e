"""Numerical large-momentum behavior: direct integration of the model
equations, log-log power-law fits, and the regularization verdict.

Integration is analytic continuation by Taylor re-expansion, the engine
in ``fuchsian``: the model equations have polynomial coefficients, so
each local series comes from one banded recurrence, truncated where its
tail drops below the tolerance, and every grid point is read off the
first local disk that holds it. Along the real u-axis the radius of
convergence grows like u, so [1, 1e4] takes a few dozen hops.

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
from typing import TYPE_CHECKING, NamedTuple

from . import fuchsian
from .errors import IntegrationError, OscillationError, OutOfDomainError
from .kgmodels import build_deformed_zero_energy, build_ordinary_kg
from .physcore import CoulombSystem, DeformationParams

if TYPE_CHECKING:
    import numpy as np

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
    """psi and psi' sampled on a strictly increasing momentum grid.

    ``hops`` counts the local Taylor series the samples were read from,
    the one at the start point included; ``max_residual`` is the largest
    relative ODE defect |psi'' + p1 psi' + p0 psi| / (|psi''| + |p1 psi'|
    + |p0 psi|) over the samples, psi'' taken from the local series (nan
    when not measured).
    """

    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    ode_id: str
    hops: int = 0
    max_residual: float = math.nan

    def __post_init__(self) -> None:
        import numpy as np

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


# order cap of each local series; at tol = 1e-16 the tail rule stops
# near order 55 on a disk limited by a singular point
_MAX_ORDER = 64


def _real_singularities_on(ode: fuchsian.RationalCoeffODE,
                           lo: float, hi: float) -> list[complex]:
    out = []
    for z, _, _ in ode.points:
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and lo - 1e-12 <= z.real <= hi + 1e-12:
            out.append(z)
    return out


def integrate(ode: fuchsian.RationalCoeffODE, u0: float, psi0: complex,
              dpsi0: complex, u_end: float, tol: float = 1e-10,
              n_points: int = 400) -> Trajectory:
    """Integrate psi'' = -p1 psi' - p0 psi from u0 to u_end.

    The solution is continued along the real axis by Taylor
    re-expansion (``fuchsian.reach``), each hop 0.4 of the local radius
    of convergence, capped at the interval length. Each local series is
    truncated where its terms on the trusted half disk fall below tol
    times the largest one, so tol bounds the relative error per disk.
    Every grid point is read off the first disk that holds it. The
    returned grid is ascending regardless of integration direction.
    """
    import numpy as np

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

    if lo > 0 and hi / lo > 50.0:
        grid = np.geomspace(u0, u_end, n_points)
    else:
        grid = np.linspace(u0, u_end, n_points)
    cap = hi - lo
    chain = [fuchsian.taylor_series(ode, u0, psi0, dpsi0, order=_MAX_ORDER, tol=tol,
                                    max_radius=cap)]
    fuchsian.reach(ode, chain, complex(grid[-1]), _MAX_ORDER, tol=tol, max_radius=cap)
    values, derivs, second = fuchsian.evaluate_chain(chain, grid)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
        raise IntegrationError(
            f"continuation from u = {u0} to {u_end} left the floating-point range")
    terms = (second, ode.p1(grid) * derivs, ode.p0(grid) * values)
    size = sum(np.abs(t) for t in terms)
    defect = np.abs(sum(terms)) / np.where(size > 0.0, size, 1.0)
    if u_end < u0:
        grid, values, derivs = grid[::-1], values[::-1], derivs[::-1]
    return Trajectory(grid=np.array(grid, dtype=float), values=values,
                      derivatives=derivs, ode_id=ode.label or "ode",
                      hops=len(chain), max_residual=float(defect.max()))


def fit_exponent(traj: Trajectory, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of log|psi| against log u over the window.

    Raises OscillationError when the amplitude is not a clean power law:
    either the local log-log slope changes sign more than twice, or the
    residuals around the fitted line oscillate with visible amplitude.
    Both are signatures of a complex exponent pair (supercritical
    Coulomb), where |psi| ~ u^re * |beat(im * log u)| and a single real
    slope would be meaningless.
    """
    import numpy as np

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
    edge, or further out where the edge lies outside the series' trusted
    disk (1/u at most half its radius), and integrated backward; the
    seed is rescaled to unit magnitude (the equations are linear, so
    shape is all that matters).
    """
    exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
    dominant = exps[1]  # sorted descending by real part: [1] decays fastest
    series = fuchsian.frobenius_series(ode, fuchsian.INFINITY, dominant, order=order)
    u_hi = max(window[1], 2.0 / series.radius)
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
