"""Command-line front end for the momentum-space Coulomb solvers.

Usage:
    kgcoulomb spectrum --Z 1 --n 0..5
    kgcoulomb exponents --model deformed-zero-energy --theta 0.05 --theta-prime 0.05
    kgcoulomb wavefunction --Z 1 --n 0 --window 0.01:100 --out psi.csv
    kgcoulomb params --model heun --g 0.2 --theta 0.05 --theta-prime 0.05
    kgcoulomb heun-check --g 0.2 --theta 0.05 --format json

Every subcommand writes a table to stdout (or to --out) in CSV,
JSON, or gnuplot-ready whitespace format.  Runs are deterministic:
on one machine the same configuration always produces byte-identical
output.  Across machines only ``exponents`` can differ, in the last
digits: its array work (``fuchsian.evaluate_chain``,
``asymptotics.integrate`` and ``fit_exponent``) runs on numpy ufuncs,
which numpy dispatches to AVX-512 kernels with fused multiply-add where
the CPU has them, and those round differently.  The other subcommands
never import numpy; they compute with Python floats and the C math
library alone.
Numbers are printed with 17 significant digits, locale-independent.

Configuration precedence: command-line flags > --config file >
built-in defaults.  The config file is a flat ``key = value`` text
file using the long flag names (without the leading dashes).

Exit codes: 0 on success, 1 on a usage or configuration error (a
non-finite or out-of-range number among them, e.g. ``--eta`` outside
(0, 1) or a ``--tol`` above 1e-3, too coarse for a 1% exponent fit), 2
on a physics-domain error (supercritical coupling, parameter pole,
evaluation outside a solution's domain, a result that left the
floating-point range). Warnings go to stderr as one
``kgcoulomb: warning:`` line each.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from .asymptotics import dominant_branch, fit_exponent, subdominant_branch
from .errors import (
    KGCoulombError,
    OscillationError,
    OutOfDomainError,
    UsageError,
)
from .fuchsian import INFINITY, indicial_exponents
from .kgmodels import (
    ConfluenceWarning,
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    to_generalized_heun,
    to_heun,
)
from .physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams, minimal_length
from .specialfn import heun_local, hyp2f1, psi_ordinary
from .spectra import energy_closed_form, solve_quantization

_WAVEFUNCTION_POINTS = 200
_HEUN_CHECK_POINTS = 50
# Largest relative tolerance that still supports a 1% exponent fit;
# above it the slow branch is flagged oscillatory more and more often.
_MAX_TOL = 1e-3


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _parse_n_range(text: str) -> tuple[int, int]:
    """Parse '0..5' or a bare integer into an inclusive (lo, hi) pair."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"cannot parse --n value {text!r}; expected e.g. '0' or '0..5'")
    if lo < 0:
        raise UsageError(f"--n must be nonnegative, got {lo}")
    if hi < lo:
        raise UsageError(f"empty --n range {text!r}")
    return lo, hi


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError(f"cannot parse --window value {text!r}; expected 'lo:hi'")
    if not 0.0 < lo < hi < math.inf:
        raise UsageError(f"empty or invalid window {text!r}; need 0 < lo < hi < inf")
    return lo, hi


_FORMATS = ("csv", "json", "gnuplot-dat")

# (type, help) per option, for the flags and the config file alike;
# config-file keys are the long flag names, so '--theta-prime' appears
# as 'theta-prime'.
_OPTIONS = {
    "Z": (int, "nuclear charge (default 1)"),
    "alpha": (float, f"coupling per unit charge (default {FINE_STRUCTURE_ALPHA:.12g})"),
    "eta": (float, "energy in rest-mass units, 0 < eta < 1"),
    "n": (str, "level index or inclusive range, e.g. '0' or '0..5'"),
    "theta": (float, "dimensionless deformation parameter"),
    "theta-prime": (float, "second deformation parameter"),
    "g": (float, "total coupling; overrides Z * alpha when given"),
    "model": (str, "model selector (see subcommand help)"),
    "tol": (float, "integrator tolerance"),
    "order": (int, "series truncation order"),
    "window": (str, "grid or fit window 'lo:hi'"),
    "format": (str, f"output format: {', '.join(_FORMATS)} (default csv)"),
    "out": (str, "output file (default stdout)"),
}


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("_", "-")
        val = val.strip()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = _OPTIONS[key][0](val)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value {val!r} for key {key!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via UsageError.

    The stock parser calls sys.exit(2) on bad flags; this package
    reserves exit code 2 for physics-domain failures, so usage
    problems must come back as exceptions and exit with code 1.
    """

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process (parse_args leaves no
    state on it)."""
    common = argparse.ArgumentParser(add_help=False)
    com = common.add_argument_group("common options")
    for key, (kind, text) in _OPTIONS.items():
        com.add_argument("--" + key, type=kind, default=None, help=text)
    com.add_argument("--config", type=str, default=None, help="flat key=value configuration file")

    parser = _Parser(prog="kgcoulomb",
                     description="Momentum-space Coulomb problem: spectra, exponents, "
                                 "wavefunctions, and special-function parameter blocks.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.add_parser("spectrum", parents=[common],
                   help="bound-state energies: closed form vs quantization root")
    sub.add_parser("exponents", parents=[common],
                   help="decay exponents at large momentum: analytic vs fitted")
    sub.add_parser("wavefunction", parents=[common],
                   help="sample psi(u) on a logarithmic grid")
    sub.add_parser("params", parents=[common],
                   help="derived parameter block of the reduced equation")
    sub.add_parser("heun-check", parents=[common],
                   help="equal-deformation consistency: local Heun vs hypergeometric")
    return parser


_DEFAULTS = {
    "spectrum": {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "n": "0..5", "format": "csv"},
    "exponents": {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "eta": 0.5, "model": "ordinary",
                  "tol": 1e-10, "order": 48, "window": "1e2:1e4", "format": "csv"},
    "wavefunction": {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "model": "ordinary",
                     "order": 64, "window": "0.01:100", "format": "csv"},
    "params": {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "eta": 0.5, "model": "heun",
               "theta": 0.05, "theta-prime": 0.0, "format": "csv"},
    "heun-check": {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "theta": 0.05,
                   "order": 64, "format": "csv"},
}


def _merge(args: argparse.Namespace) -> dict:
    """Apply precedence: flags > config file > per-command defaults."""
    if args.command is None:
        raise UsageError("a subcommand is required (spectrum, exponents, "
                         "wavefunction, params, heun-check)")
    cfg = dict(_DEFAULTS[args.command])
    cfg["command"] = args.command
    if args.config is not None:
        cfg.update(_read_config(args.config))
    for key, (kind, _) in _OPTIONS.items():
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            cfg[key] = flag
        if kind is float and cfg.get(key) is not None and not math.isfinite(cfg[key]):
            raise UsageError(f"--{key} must be a finite number, got {cfg[key]!r}")
    if not cfg["alpha"] > 0.0:
        raise UsageError("--alpha must be positive")
    if cfg.get("g") is not None and not cfg["g"] > 0.0:
        raise UsageError("--g must be positive")
    if cfg.get("eta") is not None and not 0.0 < cfg["eta"] < 1.0:
        raise UsageError(f"--eta must lie strictly between 0 and 1, got {cfg['eta']!r}")
    if cfg.get("format") not in _FORMATS:
        raise UsageError(f"unknown format {cfg.get('format')!r}")
    if cfg.get("tol") is not None and not 0.0 < cfg["tol"] <= _MAX_TOL:
        raise UsageError(f"--tol must be positive and at most {_MAX_TOL:g}, "
                         f"got {cfg['tol']:g}")
    if cfg.get("order") is not None and cfg["order"] < 4:
        raise UsageError("--order must be at least 4")
    if cfg.get("Z") is not None and cfg["Z"] < 1:
        raise UsageError("--Z must be a positive integer")
    return cfg


def _coupling(cfg: dict) -> float:
    g = cfg["g"] if cfg.get("g") is not None else cfg["Z"] * cfg["alpha"]
    if not math.isfinite(g * g):
        raise UsageError(f"coupling g = {g:g} is out of range: g^2 overflows")
    return g


def _system(cfg: dict, eta: float) -> CoulombSystem:
    # An explicit --g overrides the (Z, alpha) product; the library
    # only ever sees the product, so fold it into alpha with Z = 1.
    if cfg.get("g") is not None:
        return CoulombSystem(z=1, alpha=cfg["g"], eta=eta)
    return CoulombSystem(z=cfg["Z"], alpha=cfg["alpha"], eta=eta)


def _deformation(cfg: dict) -> DeformationParams:
    theta = cfg.get("theta")
    theta_prime = cfg.get("theta-prime", 0.0)
    if theta is None or not theta + theta_prime > 0.0:
        raise UsageError("deformed models need --theta, with theta + theta' positive")
    try:
        return DeformationParams(theta, theta_prime)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# table assembly and rendering
# ---------------------------------------------------------------------------


class _Table:
    def __init__(self, command: str, meta: dict, columns: list, rows: list):
        self.command = command
        self.meta = meta
        self.columns = columns
        self.rows = rows

    def check_finite(self) -> None:
        """Refuse a table holding inf or nan, which no input should print;
        None, an absent fit printed as nan, passes."""
        cells = list(self.meta.items())
        cells += [(name, cell) for row in self.rows for name, cell in zip(self.columns, row)]
        for name, cell in cells:
            if isinstance(cell, (int, float, complex)) and not math.isfinite(abs(cell)):
                raise OutOfDomainError(
                    f"{self.command} gives {name} = {cell}: the inputs take the "
                    "computation out of the floating-point range")


def _fmt(value) -> str:
    """Locale-independent cell text with full double precision."""
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(int(value))
    return format(float(value), ".17g")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points, i * step + lo, with hi set exactly (the
    formula of numpy.linspace)."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points, 10 ** (i * step + log10(lo)), with both ends
    set exactly (the formula of numpy.geomspace)."""
    grid = [10.0 ** x for x in _linspace(math.log10(lo), math.log10(hi), n)]
    grid[0], grid[-1] = lo, hi
    return grid


def _render(table: _Table, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "command": table.command,
            "meta": table.meta,
            "columns": table.columns,
            "rows": [dict(zip(table.columns, row)) for row in table.rows],
        }
        return json.dumps(doc, indent=2, allow_nan=False, default=str) + "\n"
    sep = "," if fmt == "csv" else " "
    lines = [f"# kgcoulomb {table.command}"]
    for key, val in table.meta.items():
        lines.append(f"# {key} = {_fmt(val)}")
    lines.append("# conventions: u = p / (m c) dimensionless, eta = E / (m c^2)")
    lines.append("# columns: " + sep.join(table.columns))
    for row in table.rows:
        lines.append(sep.join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: dict) -> _Table:
    """Closed-form energies against quantization-condition roots."""
    g = _coupling(cfg)
    n_lo, n_hi = _parse_n_range(cfg["n"])
    rows = []
    for n in range(n_lo, n_hi + 1):
        eta_closed = energy_closed_form(g, n)
        line = solve_quantization(g, n, z=cfg["Z"])
        agreement = abs(line.eta - eta_closed) / eta_closed
        rows.append([n, cfg["Z"], eta_closed, line.eta, agreement,
                     line.residual, line.binding])
    meta = {"Z": cfg["Z"], "alpha": cfg["alpha"], "g": g}
    columns = ["n", "Z", "eta_closed", "eta_solver", "agreement", "residual", "binding"]
    return _Table("spectrum", meta, columns, rows)


_EXPONENT_MODELS = ("ordinary", "deformed-zero-energy", "deformed-first-order")


def _exponent_ode(cfg: dict, g: float, eta: float):
    model = cfg["model"]
    if model == "ordinary":
        return build_ordinary_kg(_system(cfg, eta)), {}
    if model == "deformed-zero-energy":
        dp = _deformation(cfg)
        return build_deformed_zero_energy(g, dp), {"theta": dp.theta,
                                                   "theta_prime": dp.theta_prime}
    if model == "deformed-first-order":
        theta = cfg.get("theta")
        if theta is None or not theta > 0.0:
            raise UsageError("--theta > 0 is required for deformed-first-order")
        return build_deformed_first_order_psi(_system(cfg, eta), theta), {"theta": theta}
    raise UsageError(f"unknown exponents model {model!r}; choose from {_EXPONENT_MODELS}")


def cmd_exponents(cfg: dict) -> _Table:
    """Indicial exponents at infinity next to log-log fitted slopes.

    The supercritical ordinary case has a complex-conjugate exponent
    pair; |psi| then beats instead of following a power law, so the
    fit columns are reported as nan with the oscillatory flag set.
    That is a valid physics answer, not an error.
    """
    g = _coupling(cfg)
    eta = cfg["eta"]
    ode, extra_meta = _exponent_ode(cfg, g, eta)
    window = _parse_window(cfg["window"])
    exps = indicial_exponents(ode, INFINITY)
    labels = ("subdominant", "dominant")

    oscillatory = cfg["model"] == "ordinary" and g > 0.5
    fits = [None, None]
    if not oscillatory:
        try:
            sub = subdominant_branch(ode, window, tol=cfg["tol"])
        except ValueError as exc:  # window starts at or below the seed point
            raise UsageError(f"--window {cfg['window']}: {exc}")
        try:
            fits[0] = fit_exponent(sub, window)
            fits[1] = fit_exponent(
                dominant_branch(ode, window, order=cfg["order"], tol=cfg["tol"]), window)
        except OscillationError:
            oscillatory = True
            fits = [None, None]

    rows = []
    for label, exponent, fit in zip(labels, exps, fits):
        if fit is None:
            rows.append([label, exponent.real, exponent.imag, None, None, 1])
        else:
            deviation = abs(fit.exponent - exponent.real) / abs(exponent.real)
            rows.append([label, exponent.real, exponent.imag,
                         fit.exponent, deviation, 0])
    meta = {"model": cfg["model"], "g": g, "eta": eta,
            "window_lo": window[0], "window_hi": window[1], **extra_meta}
    columns = ["branch", "re_analytic", "im_analytic", "fitted", "deviation", "oscillatory"]
    return _Table("exponents", meta, columns, rows)


def cmd_wavefunction(cfg: dict) -> _Table:
    """Sample psi on a logarithmic momentum grid."""
    model = cfg["model"]
    lo, hi = _parse_window(cfg["window"])
    grid = _geomspace(lo, hi, _WAVEFUNCTION_POINTS)
    g = _coupling(cfg)

    if model == "ordinary":
        if cfg.get("eta") is not None:
            eta = cfg["eta"]
        else:
            n = _parse_n_range(cfg["n"])[0] if cfg.get("n") is not None else 0
            eta = energy_closed_form(g, n)
            if not eta < 1.0:
                raise OutOfDomainError(f"level n = {n} at g = {g:g} is bound by less than "
                                       "the rounding of eta = 1; no wavefunction to sample")
        system = _system(cfg, eta)
        meta = {"model": model, "g": g, "eta": eta}

        def sample(us: list[float]) -> list[complex]:
            out = []
            for i, u in enumerate(us):
                try:
                    out.append(psi_ordinary(system, u))
                except KGCoulombError as exc:
                    exc.index = i
                    raise
            return out

    elif model == "deformed-zero-energy":
        dp = _deformation(cfg)
        hp, vmap = to_heun(g, dp)
        meta = {"model": model, "g": g, "theta": dp.theta,
                "theta_prime": dp.theta_prime, "xi0": hp.xi0}

        def sample(us: list[float]) -> list[complex]:
            xis = [vmap.forward(u) for u in us]
            heun = heun_local(hp, xis, order=cfg["order"])
            return [(1.0 - xi) * h for xi, h in zip(xis, heun)]

    else:
        raise UsageError(f"unknown wavefunction model {model!r}; "
                         "choose 'ordinary' or 'deformed-zero-energy'")

    try:
        psis = sample(grid)
    except KGCoulombError as exc:
        u = grid[exc.index or 0]
        raise OutOfDomainError(
            f"wavefunction grid point u = {u:.6g} cannot be evaluated: {exc}")
    rows = [[u, psi.real, psi.imag, abs(psi)] for u, psi in zip(grid, psis)]
    columns = ["u", "re_psi", "im_psi", "abs_psi"]
    return _Table("wavefunction", meta, columns, rows)


def cmd_params(cfg: dict) -> _Table:
    """Dump the derived parameter block of the reduced equation."""
    model = cfg["model"]
    rows = []
    if model == "heun":
        g = _coupling(cfg)
        dp = _deformation(cfg)
        hp, _ = to_heun(g, dp)
        nu = hp.b - hp.a
        for name, value in (("omega1", dp.omega1), ("omega2", dp.omega2),
                            ("nu", nu), ("q", hp.q), ("xi0", hp.xi0),
                            ("a", hp.a), ("b", hp.b), ("c", hp.c),
                            ("d", hp.d), ("e", hp.e)):
            value = complex(value)
            rows.append([name, value.real, value.imag])
        rows.append(["fuchsian_residual", hp.fuchsian_residual, 0.0])
        meta = {"model": model, "g": g, "theta": dp.theta,
                "theta_prime": dp.theta_prime,
                "minimal_length_3d": minimal_length(dp)}
    elif model == "generalized-heun":
        theta = cfg.get("theta")
        if theta is None or not theta > 0.0:
            raise UsageError("--theta > 0 is required for generalized-heun")
        system = _system(cfg, cfg["eta"])
        ghp, _ = to_generalized_heun(system, theta)
        for name in ("a", "b", "rho1", "rho2", "c", "d", "e", "f", "x1", "x2"):
            value = complex(getattr(ghp, name))
            rows.append([name, value.real, value.imag])
        rows.append(["fuchsian_residual", ghp.fuchsian_residual, 0.0])
        meta = {"model": model, "g": system.g, "eta": system.eta, "theta": theta}
    else:
        raise UsageError(f"unknown params model {model!r}; "
                         "choose 'heun' or 'generalized-heun'")
    return _Table("params", meta, ["name", "re", "im"], rows)


def cmd_heun_check(cfg: dict) -> _Table:
    """Equal-deformation cross-check of the two evaluation routes.

    When the two deformation parameters coincide the middle regular
    point of the reduced equation becomes ordinary and the local
    solution collapses to a Gauss hypergeometric function of xi/xi0.
    The two code paths share no series code, so agreement here
    validates both.
    """
    g = _coupling(cfg)
    theta = cfg["theta"]
    theta_prime = cfg.get("theta-prime")
    if theta_prime is not None and theta_prime != theta:
        raise UsageError("the reduction to a hypergeometric function needs "
                         "equal deformation parameters; drop --theta-prime "
                         "or set it equal to --theta")
    dp = _deformation({**cfg, "theta-prime": theta})
    hp, _ = to_heun(g, dp)
    grid = _linspace(0.0, 0.4, _HEUN_CHECK_POINTS)
    rows = []
    worst = 0.0
    for xi, h in zip(grid, heun_local(hp, grid, order=cfg["order"])):
        f = hyp2f1(hp.a, hp.b, hp.c, xi / hp.xi0)
        diff = abs(h - f)
        worst = max(worst, diff)
        rows.append([xi, h.real, f.real, diff])
    meta = {"g": g, "theta": theta, "a": hp.a.real if isinstance(hp.a, complex) else hp.a,
            "b": hp.b.real if isinstance(hp.b, complex) else hp.b,
            "c": hp.c, "xi0": hp.xi0, "max_abs_diff": worst}
    return _Table("heun-check", meta, ["xi", "heun", "hypergeometric", "abs_diff"], rows)


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "exponents": cmd_exponents,
    "wavefunction": cmd_wavefunction,
    "params": cmd_params,
    "heun-check": cmd_heun_check,
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"kgcoulomb: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # setting a filter re-arms "default" warnings for every run
        warnings.simplefilter("default", ConfluenceWarning)
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            cfg = _merge(args)
            table = _DISPATCH[cfg["command"]](cfg)
            table.check_finite()
            _emit(_render(table, cfg["format"]), cfg.get("out"))
            return 0
        except UsageError as exc:
            print(f"kgcoulomb: usage error: {exc}", file=sys.stderr)
            return 1
        except KGCoulombError as exc:
            print(f"kgcoulomb: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
