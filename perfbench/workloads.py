"""Seeded command lists for the three benchmark workloads.

``commands(workload, seed, seconds)`` is a pure function: the same
arguments give the same list on every machine and every commit. Its
length follows from ``seconds`` through a fixed per-workload constant
(``UNIT_SECONDS``), not from the clock, so two commits always run the
same work and the stdout hash covers all of it.

A list is made of units with a fixed composition, which keeps the share
of each kind of command, and of each known-failing region, the same for
every seed. Each parameter is drawn by Latin hypercube sampling across
the run: with n commands of one kind, each takes one of n equal strata
of the parameter's range, in random order. Every command still sees the
full range, but the run as a whole covers it evenly, which keeps the
run's total cost steady from seed to seed.

Draws cover the physical inputs the CLI accepts and should answer,
including the regions where it is known to fail today (``region`` on a
command; see ``REGIONS``). Those draws are not steered away from the
failure: whatever they return is checked and counted like any other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The CLI default for --alpha; used only to place draws in a physical region.
ALPHA = 1.0 / 137.035999

WORKLOADS = ("cold-cli", "heun-march", "exponent-fit")

# Seconds of --seconds per unit (see the _unit_* functions below). A
# unit takes about 8 s (cold-cli, heun-march) or 1 s (exponent-fit) on a
# quiet 2-CPU machine; heun-march and exponent-fit get more units than
# that, so that seed-to-seed spreads stay well inside the bounds.
UNIT_SECONDS = {"cold-cli": 7.5, "heun-march": 5.0, "exponent-fit": 1.25}
MIN_UNITS = 2

REGIONS = {
    "weak-binding": "spectrum range holding a state bound by less than 1e-9 m c^2, "
                    "below the root solver's bracket edge",
    "off-quantization": "ordinary wavefunction at an energy that is not a bound state, "
                        "where hyp2f1 has no continuation for small u",
    "xi-to-1": "deformed wavefunction window with hi >= 100, marching toward xi -> 1",
    "near-critical": "subcritical ordinary exponents whose window starts where the slow "
                     "admixture lo^(-2 mu), mu = sqrt(1/4 - g^2), is still above 0.08; "
                     "near g = 1/2 that is every window",
}


@dataclass(frozen=True)
class Command:
    kind: str  # spectrum | exponents | wavefunction-ordinary | wavefunction-deformed
    #            | params | heun-check
    argv: tuple[str, ...]
    region: str | None = None


class _Draws:
    """n stratified draws per parameter (one Latin hypercube column each)."""

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n = rng, n

    def lin(self, lo: float, hi: float) -> list[float]:
        strata = list(range(self.n))
        self.rng.shuffle(strata)
        return [lo + (hi - lo) * (s + self.rng.random()) / self.n for s in strata]

    def log(self, lo: float, hi: float) -> list[float]:
        return [math.exp(x) for x in self.lin(math.log(lo), math.log(hi))]

    def ints(self, lo: int, hi: int) -> list[int]:
        """Integers in [lo, hi]."""
        return [min(hi, int(x)) for x in self.lin(lo, hi + 1)]


def _num(x: float) -> str:
    return format(x, ".6g")


def _window(lo: float, hi: float) -> tuple[str, str]:
    return ("--window", f"{_num(lo)}:{_num(hi)}")


def _thetas(theta: float, theta_prime: float) -> tuple[str, ...]:
    return ("--theta", _num(theta), "--theta-prime", _num(theta_prime))


# ---------------------------------------------------------------------------
# one function per kind of command: n commands with stratified parameters
# ---------------------------------------------------------------------------


def _spectra(d: _Draws) -> list[Command]:
    return [Command("spectrum", ("spectrum", "--Z", str(z), "--n", f"{lo}..{lo + span}"))
            for z, lo, span in zip(d.ints(1, 68), d.ints(0, 30), d.ints(0, 8))]


def _spectra_weak(d: _Draws) -> list[Command]:
    # The top state of the range is bound by 1e-10..5e-10 m c^2:
    # binding ~ g^2 / (2 N^2), so N = g / sqrt(2 binding).
    out = []
    for z, binding, span in zip(d.ints(1, 10), d.log(1e-10, 5e-10), d.ints(0, 30)):
        hi = int(z * ALPHA / math.sqrt(2.0 * binding))
        out.append(Command("spectrum", ("spectrum", "--Z", str(z), "--n", f"{hi - span}..{hi}"),
                           "weak-binding"))
    return out


def _exponents(d: _Draws, model: str, example: bool = False) -> list[Command]:
    """exponents draws; ``example`` keeps the shape of the paper's example
    command: equal deformations and the default window 1e2:1e4."""
    out = []
    for z, theta, theta_prime, eta, lo, ratio in zip(
            d.ints(1, 137), d.log(0.01, 0.3), d.log(0.01, 0.3), d.lin(0.2, 0.9),
            d.log(30.0, 300.0), d.log(30.0, 300.0)):
        argv = ("exponents", "--model", model, "--Z", str(z))
        if model != "ordinary":
            argv += _thetas(theta, theta if example else theta_prime)
        if model != "deformed-zero-energy":
            argv += ("--eta", _num(eta))
        if example:
            lo = 100.0
        else:
            argv += _window(lo, lo * ratio)
        g = z * ALPHA
        # Forward integration from u = 1 leaves an admixture of the slow
        # branch that decays only as u^(-2 mu); the fit misses the analytic
        # exponent by more than 1% while it is still above ~0.1.
        near_critical = model == "ordinary" and g < 0.5 and lo ** (-2.0 * math.sqrt(0.25 - g * g)) > 0.08
        out.append(Command("exponents", argv, "near-critical" if near_critical else None))
    return out


def _ordinary_windows(d: _Draws) -> list[tuple[str, str]]:
    return [_window(lo, hi) for lo, hi in zip(d.log(0.01, 0.1), d.log(10.0, 1000.0))]


def _wavefunctions_ordinary(d: _Draws) -> list[Command]:
    return [Command("wavefunction-ordinary", ("wavefunction", "--model", "ordinary", "--Z", str(z),
                                              "--n", str(n), *w))
            for z, n, w in zip(d.ints(1, 68), d.ints(0, 5), _ordinary_windows(d))]


def _wavefunctions_off(d: _Draws) -> list[Command]:
    return [Command("wavefunction-ordinary", ("wavefunction", "--model", "ordinary",
                                              "--g", _num(g), "--eta", _num(eta), *w),
                    "off-quantization")
            for g, eta, w in zip(d.lin(0.05, 0.45), d.lin(0.3, 0.95), _ordinary_windows(d))]


def _wavefunctions_deformed(d: _Draws, hi_lo: float, hi_hi: float) -> list[Command]:
    out = []
    for theta, theta_prime, g, lo, hi in zip(d.log(0.01, 0.3), d.log(0.01, 0.3), d.lin(0.05, 0.9),
                                            d.log(0.01, 0.1), d.log(hi_lo, hi_hi)):
        argv = ("wavefunction", "--model", "deformed-zero-energy", *_thetas(theta, theta_prime),
                "--g", _num(g), *_window(lo, hi))
        out.append(Command("wavefunction-deformed", argv, "xi-to-1" if hi >= 100.0 else None))
    return out


def _params(d: _Draws) -> list[Command]:
    return [Command("params", ("params", "--model", "heun", *_thetas(t, tp), "--g", _num(g)))
            for t, tp, g in zip(d.log(0.01, 0.3), d.log(0.01, 0.3), d.lin(0.05, 0.9))]


def _heun_checks(d: _Draws) -> list[Command]:
    return [Command("heun-check", ("heun-check", *_thetas(t, t), "--g", _num(g)))
            for t, g in zip(d.log(0.01, 0.3), d.lin(0.05, 0.9))]


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def _interleave(columns: list[list[Command]]) -> list[Command]:
    """Unit i takes the i-th command of each column, in column order."""
    return [cmd for unit in zip(*columns) for cmd in unit]


def _unit_cold_cli(rng, units):
    # the five example commands of the paper, with the spectrum and the
    # ordinary wavefunction each drawn once inside a known-failing region
    d = _Draws(rng, units)
    return _interleave([_spectra(d), _spectra_weak(d),
                        _exponents(d, "deformed-zero-energy", example=True),
                        _wavefunctions_ordinary(d),
                        _exponents(d, "deformed-zero-energy", example=True),
                        _wavefunctions_off(d), _params(d), _heun_checks(d)])


def _unit_heun_march(rng, units):
    # one wide window marching toward xi -> 1, three narrow windows
    # inside the first series disk, one equal-deformation heun-check
    d = _Draws(rng, units)
    narrow = [_wavefunctions_deformed(d, 0.2, 1.0) for _ in range(3)]
    return _interleave([_wavefunctions_deformed(d, 100.0, 1000.0), narrow[0], _heun_checks(d),
                        narrow[1], narrow[2]])


def _unit_exponent_fit(rng, units):
    d = _Draws(rng, 4 * units)
    per_model = [_exponents(d, m) for m in ("ordinary", "deformed-zero-energy",
                                            "deformed-first-order")]
    return _interleave(per_model)


_UNITS = {
    "cold-cli": _unit_cold_cli,
    "heun-march": _unit_heun_march,
    "exponent-fit": _unit_exponent_fit,
}


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, round(seconds / UNIT_SECONDS[workload]))


def commands(workload: str, seed: int, seconds: float) -> list[Command]:
    """The run's command list; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    return _UNITS[workload](rng, units_for(workload, seconds))
