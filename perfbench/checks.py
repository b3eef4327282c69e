"""Correctness checks of CLI output against routes that share none of
its code path. They run after the timed region.

Each check returns the agreeing digits of every number it compares,
-log10 of the relative discrepancy capped at ``MAX_DIGITS``, and the
command passes when the fewest of them reaches the kind's
``REQUIRED_DIGITS``:

- spectrum: eta_closed and eta_solver against the closed form
  eta = N / sqrt(N^2 + g^2) evaluated by mpmath at 50 digits;
- heun-check: the heun column against the hypergeometric column;
- exponents: each fitted slope against re_analytic; rows flagged
  oscillatory are skipped when the analytic pair is complex and fail
  when it is real;
- ordinary wavefunction: four grid points against the closed form
  built on mpmath.hyp2f1 at 30 digits;
- deformed wavefunction: four grid points re-evaluated by heun_local
  at order 96. This is a self-consistency check of the series order
  only: it shares the Heun route with the command;
- params: fuchsian_residual at most 1e-12.
"""

from __future__ import annotations

import math

import mpmath

MAX_DIGITS = 16.0

REQUIRED_DIGITS = {
    "spectrum": 12.0,
    "heun-check": 10.0,
    "exponents": 2.0,  # the 1% of tests/test_acceptance.py criterion 3
    "wavefunction-ordinary": 10.0,
    "wavefunction-deformed": 8.0,
    "params": 12.0,
}


class CheckError(Exception):
    """The output could not be read or compared."""


def digits(value: complex, reference: complex) -> float:
    """Agreeing digits of value against reference, capped at MAX_DIGITS."""
    ref = abs(reference)
    err = abs(complex(value) - complex(reference))
    if err == 0.0:
        return MAX_DIGITS
    if ref == 0.0 or not math.isfinite(err):
        return 0.0
    return max(0.0, min(MAX_DIGITS, -math.log10(err / ref)))


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(meta, columns, rows) of the CLI's default CSV rendering."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("# ") and " = " in line:
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif line and not line.startswith("#"):
            rows.append(line.split(","))
    if columns is None or not rows or any(len(r) != len(columns) for r in rows):
        raise CheckError("output is not a complete CSV table")
    return meta, columns, rows


def _flags(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _column(columns, rows, name, conv=float) -> list:
    i = columns.index(name)
    return [conv(r[i]) for r in rows]


def _spectrum(argv, text):
    meta, columns, rows = parse_csv(text)
    with mpmath.workdps(50):
        g = mpmath.mpf(meta["g"])
        mu = mpmath.sqrt(mpmath.mpf(1) / 4 - g * g)
        out = []
        for n, closed, solver in zip(_column(columns, rows, "n", int),
                                     _column(columns, rows, "eta_closed"),
                                     _column(columns, rows, "eta_solver")):
            big_n = n + mpmath.mpf(1) / 2 + mu
            ref = complex(big_n / mpmath.sqrt(big_n * big_n + g * g))
            out += [digits(closed, ref), digits(solver, ref)]
    n_lo, _, n_hi = _flags(argv)["n"].partition("..")
    if _column(columns, rows, "n", int) != list(range(int(n_lo), int(n_hi or n_lo) + 1)):
        raise CheckError("spectrum rows do not cover the requested n range")
    return out


def _heun_check(argv, text):
    _, columns, rows = parse_csv(text)
    return [digits(h, f) for h, f in zip(_column(columns, rows, "heun"),
                                         _column(columns, rows, "hypergeometric"))]


def _exponents(argv, text):
    _, columns, rows = parse_csv(text)
    out = []
    for analytic, imag, fitted, osc in zip(_column(columns, rows, "re_analytic"),
                                           _column(columns, rows, "im_analytic"),
                                           _column(columns, rows, "fitted"),
                                           _column(columns, rows, "oscillatory", int)):
        if not osc:
            out.append(digits(fitted, analytic))
        elif imag == 0.0:  # flagged oscillatory, yet the exponent pair is real
            out.append(0.0)
    return out


_SAMPLE_INDICES = (0, 66, 133, 199)


def _psi_samples(columns, rows):
    u = _column(columns, rows, "u")
    re, im = _column(columns, rows, "re_psi"), _column(columns, rows, "im_psi")
    return [(u[i], complex(re[i], im[i])) for i in _SAMPLE_INDICES if i < len(u)]


def _wavefunction_ordinary(argv, text):
    meta, columns, rows = parse_csv(text)
    flags = _flags(argv)
    with mpmath.workdps(30):
        g = mpmath.mpf(meta["g"])
        mu = mpmath.sqrt(mpmath.mpf(1) / 4 - g * g)
        if "eta" in flags:
            eta = mpmath.mpf(flags["eta"])
            b = None
        else:  # at a bound state the series terminates exactly at -n
            big_n = int(flags.get("n", "0")) + mpmath.mpf(1) / 2 + mu
            eta = big_n / mpmath.sqrt(big_n * big_n + g * g)
            b = -int(flags.get("n", "0"))
        eps = mpmath.sqrt(1 - eta * eta)
        if b is None:
            b = mpmath.mpf(1) / 2 - g * eta / eps + mu
        out = []
        for u, psi in _psi_samples(columns, rows):
            base = 1 + 1j * mpmath.mpf(u) / eps
            ref = base ** (-mpmath.mpf(3) / 2 - mu) / u \
                * mpmath.hyp2f1(mpmath.mpf(3) / 2 + mu, b, 2 * mu + 1, 2 / base)
            out.append(digits(psi, complex(ref)))
    return out


def _wavefunction_deformed(argv, text):
    from kgcoulomb.kgmodels import to_heun
    from kgcoulomb.physcore import DeformationParams
    from kgcoulomb.specialfn import heun_local

    meta, columns, rows = parse_csv(text)
    hp, vmap = to_heun(float(meta["g"]), DeformationParams(float(meta["theta"]),
                                                           float(meta["theta_prime"])))
    out = []
    for u, psi in _psi_samples(columns, rows):
        xi = vmap.forward(u)
        out.append(digits(psi, (1.0 - xi) * heun_local(hp, xi, order=96)))
    return out


def _params(argv, text):
    _, columns, rows = parse_csv(text)
    table = {r[0]: float(r[1]) for r in rows}
    if "fuchsian_residual" not in table:
        raise CheckError("params output has no fuchsian_residual row")
    residual = table["fuchsian_residual"]
    return [MAX_DIGITS if residual == 0.0 else max(0.0, min(MAX_DIGITS, -math.log10(residual)))]


_CHECKS = {
    "spectrum": _spectrum,
    "heun-check": _heun_check,
    "exponents": _exponents,
    "wavefunction-ordinary": _wavefunction_ordinary,
    "wavefunction-deformed": _wavefunction_deformed,
    "params": _params,
}


def check(kind: str, argv, stdout: str) -> list[float]:
    """Agreeing digits of every number checked in one command's output."""
    return _CHECKS[kind](list(argv), stdout)


def passes(kind: str, found: list[float]) -> bool:
    if not found:  # only exponents may check nothing: a complex pair has no fit
        return kind == "exponents"
    return min(found) >= REQUIRED_DIGITS[kind]
