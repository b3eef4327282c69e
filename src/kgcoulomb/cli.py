"""Command-line front end for the momentum-space Coulomb solvers.

Usage:
    kgcoulomb spectrum --Z 1 --n 0..5
    kgcoulomb exponents --model deformed-zero-energy --theta 0.05 --theta-prime 0.05
    kgcoulomb wavefunction --Z 1 --n 0 --window 0.01:100 --out psi.csv
    kgcoulomb params --model heun --g 0.2 --theta 0.05 --theta-prime 0.05
    kgcoulomb heun-check --g 0.2 --theta 0.05 --format json

Every subcommand writes a table to stdout (or to --out) in CSV,
JSON, or gnuplot-ready whitespace format.  Runs are deterministic:
the same configuration always produces byte-identical output.  Every
subcommand computes with Python floats and the C math library alone
(the package has no runtime dependency), so no CPU-specific array
kernel changes the last digits from one host to another.
Numbers are printed with 17 significant digits, locale-independent.

Each subcommand takes only the options it reads (``kgcoulomb <cmd>
--help`` lists them) plus --format, --out and --config; any other
option is a usage error.  Each --model refuses the options that its
entry of ``_COMMANDS`` does not list.  The coupling is either --g or the
product of --Z and --alpha, never both.  Configuration precedence:
command-line flags > --config file > built-in defaults.  The config
file is a flat ``key = value`` text file whose keys are the
subcommand's own long flag names (without the leading dashes).

One reader, ``_parse_args``, reads every argv, and no command imports
argparse.  The subcommand comes first; options follow as ``--key value``
or ``--key=value``, a key by its name or a unique prefix of it, and a
repeated key keeps its last value.  ``-h`` or ``--help`` prints the
subcommands, or a subcommand's options, and exits 0.  Any other argv (a
single-dash flag, ``--``, a stray token, a missing value) is a usage
error.

``exponents`` measures both exponents at infinity from the transfer
matrix over the top of the window (``asymptotics.transfer_exponents``)
and prints them next to the indicial exponents.

Exit codes: 0 on success, 1 on a usage or configuration error (a
non-finite or out-of-range number among them, e.g. ``--eta`` outside
(0, 1), an ``exponents --window`` narrower than a factor 1.0201, or a
``spectrum`` range of more than 10 000 levels), 2 on a physics-domain error
(supercritical coupling, parameter pole, evaluation outside a solution's
domain, a result that left the floating-point range, exponents whose
imaginary part turns too fast to measure or, for a window above the
singular scale, whose error estimate passes 1%). Warnings go to stderr as one
``kgcoulomb: warning:`` line each.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

from .asymptotics import paired, singular_scale, transfer_exponents
from .errors import (
    KGCoulombError,
    KGCoulombWarning,
    OutOfDomainError,
    RootFindingError,
    UsageError,
    WindowWarning,
)
from .fuchsian import INFINITY, indicial_exponents
from .kgmodels import (
    build_deformed_first_order_psi,
    build_deformed_zero_energy,
    build_ordinary_kg,
    to_generalized_heun,
    to_heun,
)
from .physcore import FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams, minimal_length
from .specialfn import heun_local, hyp2f1, psi_ordinary
from .spectra import binding_closed_form, energy_closed_form, solve_quantization

_WAVEFUNCTION_POINTS = 200
# Most levels one spectrum run solves (10 000 levels take under a second)
_MAX_LEVELS = 10_000
_HEUN_CHECK_POINTS = 50


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


_FORMATS = ("csv", "json", "gnuplot-dat")

# (type, help) per option, for the flags and the config file alike (but
# --config, a flag only), in the order --help lists them.
_OPTIONS = {
    "Z": (int, "nuclear charge (default 1)"),
    "alpha": (float, f"coupling per unit charge (default {FINE_STRUCTURE_ALPHA:.12g})"),
    "g": (float, "total coupling Z * alpha, given directly; excludes --Z and --alpha"),
    "eta": (float, "energy in rest-mass units, 0 < eta < 1"),
    "n": (str, "level index or inclusive range, e.g. '0' or '0..5'"),
    "model": (str, "model selector"),
    "theta": (float, "dimensionless deformation parameter"),
    "theta-prime": (float, "second deformation parameter"),
    "window": (str, "wavefunction grid or exponent window 'lo:hi'"),
    "format": (str, f"output format: {', '.join(_FORMATS)} (default csv)"),
    "out": (str, "output file (default stdout)"),
    "config": (str, "flat 'key = value' configuration file"),
}


def _options(command: str) -> list:
    """The options a subcommand takes under any of its models."""
    models = _COMMANDS[command][1]
    taken = {key for entry in models.values() for key in entry} | {"format", "out"}
    if None not in models:
        taken.add("model")
    return [key for key in _OPTIONS if key in taken]


def _value(key: str, text: str, origin: str = ""):
    """text as option key's type; the usage error names origin or --key."""
    kind = _OPTIONS[key][0]
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{origin or 'argument --' + key}: "
                         f"invalid {kind.__name__} value: {text!r}")


def _read_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _options(command):
            raise UsageError(f"{path}:{lineno}: {command} takes no configuration key {key!r}")
        values[key] = _value(key, val, f"{path}:{lineno}: key {key!r}")
    return values


def _parse_args(argv: list) -> tuple:
    """``COMMAND --key value ...`` as (command, {option: value}), each key an
    option name or a unique prefix of one, each value read by _value; at -h
    or --help, (command, None), command None before a subcommand. A value
    that starts with '-' is taken by a numeric option only, or after '='."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None, None
    if command not in _COMMANDS:
        raise UsageError(f"unknown subcommand {command!r}; choose from {', '.join(_COMMANDS)}"
                         if argv else f"a subcommand is required ({', '.join(_COMMANDS)})")
    names = (*_options(command), "config")
    flags, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        key, eq, value = token[2:].partition("=")
        if token[:2] != "--" or not key:
            raise UsageError(f"unrecognized argument {token!r}; give --key value or --key=value")
        if key not in names:
            matches = [name for name in names if name.startswith(key)]
            if len(matches) != 1:
                raise UsageError(f"ambiguous option: --{key} could match --" + ", --".join(matches)
                                 if matches else f"{command} takes no --{key}")
            key = matches[0]
        if not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and _OPTIONS[key][0] is str:
                raise UsageError(f"argument --{key}: expected one argument")
        flags[key] = _value(key, value)
    return command, flags


def _help(command: str | None) -> str:
    """The --help text: the subcommands, or a subcommand's options."""
    if command is None:
        rows = [(name, doc) for name, (doc, _, _) in _COMMANDS.items()]
    else:
        first, *rest = _COMMANDS[command][1]
        rows = [("--" + key, _OPTIONS[key][1]
                 + (f": {first} (default), {', '.join(rest)}" if key == "model" else ""))
                for key in (*_options(command), "config")]
    rows.append(("-h, --help", "show this help and exit"))
    return (f"usage: kgcoulomb {command or 'COMMAND'} [options]\n"
            + "".join(f"  {name:<15} {doc}\n" for name, doc in rows))


def _merge(command: str, flags: dict) -> dict:
    """Apply precedence: flags > config file > per-command defaults."""
    models = _COMMANDS[command][1]
    given = {**(_read_config(flags["config"], command) if "config" in flags else {}), **flags}
    if "g" in given and ("Z" in given or "alpha" in given):
        raise UsageError("--g is the coupling Z * alpha; give either --g or --Z/--alpha")
    model = given.get("model", next(iter(models)))
    if model not in models:
        raise UsageError(f"unknown {command} model {model!r}; "
                         f"choose from {', '.join(models)}")
    options = {**models[model], "model": model, "format": "csv", "out": None, "config": None}
    for key in given:
        if key not in options:
            raise UsageError(f"{command} --model {model} takes no --{key}")
    cfg = {key: val for key, val in options.items() if val is not None}
    if "g" in given:  # the coupling is g alone: no default Z or alpha enters
        del cfg["Z"], cfg["alpha"]
    cfg.update(given)
    for key, (kind, _) in _OPTIONS.items():
        if kind is float and key in cfg and not math.isfinite(cfg[key]):
            raise UsageError(f"--{key} must be a finite number, got {cfg[key]!r}")
    if "alpha" in cfg and not cfg["alpha"] > 0.0:
        raise UsageError("--alpha must be positive")
    if cfg.get("g") is not None and not cfg["g"] > 0.0:
        raise UsageError("--g must be positive")
    if cfg.get("eta") is not None and not 0.0 < cfg["eta"] < 1.0:
        raise UsageError(f"--eta must lie strictly between 0 and 1, got {cfg['eta']!r}")
    if cfg["format"] not in _FORMATS:
        raise UsageError(f"unknown format {cfg['format']!r}")
    if "Z" in cfg and cfg["Z"] < 1:
        raise UsageError("--Z must be a positive integer")
    return cfg


def _coupling(cfg: dict) -> float:
    g = cfg["g"] if cfg.get("g") is not None else cfg["Z"] * cfg["alpha"]
    if not math.isfinite(g * g):
        raise UsageError(f"coupling g = {g:g} is out of range: g^2 overflows")
    return g


def _deformation(cfg: dict) -> DeformationParams:
    theta = cfg.get("theta")
    theta_prime = cfg["theta-prime"]
    if theta is None or not theta + theta_prime > 0.0:
        raise UsageError("deformed models need --theta, with theta + theta' positive")
    try:
        return DeformationParams(theta, theta_prime)
    except ValueError as exc:
        raise UsageError(str(exc))


def _positive_theta(cfg: dict) -> float:
    """--theta, refused unless positive, for a model that reads no theta'."""
    theta = cfg.get("theta")
    if theta is None or not theta > 0.0:
        raise UsageError(f"--theta > 0 is required for {cfg['model']}")
    return theta


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt(command: str, name: str, value) -> str:
    """Locale-independent cell text with full double precision. None, an
    absent cell (spectrum's Z under --g), prints as nan; inf or nan, which
    no input should print, is refused."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OutOfDomainError(f"{command} gives {name} = {value}: the inputs take the "
                                   "computation out of the floating-point range")
        return format(value, ".17g")
    return "nan" if value is None else str(value)


def _render(command: str, meta: dict, columns: list, rows: list, fmt: str) -> str:
    """The table in fmt, meta checked and formatted by _fmt first. json
    dumps the raw cells; text puts a table of floats alone through one
    %.17g format. Any other table, text holding an n (inf or nan) or a
    refused dump walks its cells through _fmt, which refuses the first bad one."""
    sep = "," if fmt == "csv" else " "
    lines = [f"# kgcoulomb {command}",
             *[f"# {key} = {_fmt(command, key, val)}" for key, val in meta.items()],
             "# conventions: u = p / (m c) dimensionless, eta = E / (m c^2)",
             "# columns: " + sep.join(columns)]
    if fmt == "json":
        import json  # loaded only for the one format that needs it

        doc = {"command": command, "meta": meta, "columns": columns,
               "rows": [dict(zip(columns, row)) for row in rows]}
        try:
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError:  # a cell of inf or nan: the walk below refuses it
            pass
    cells = [cell for row in rows for cell in row]
    if set(map(type, cells)) == {float} and "n" not in (
            text := "\n".join([sep.join(["%.17g"] * len(columns))] * len(rows)) % (*cells,)):
        lines.append(text)
    else:
        lines += [sep.join([_fmt(command, name, cell) for name, cell in zip(columns, row)])
                  for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: dict) -> tuple[dict, list, list]:
    """Closed-form levels against quantization-condition roots;
    ``agreement`` compares the bindings 1 - eta, relative to the closed
    one. The range is all-or-nothing: a level the solver cannot hold
    refuses the run, and the diagnostic names the levels before it."""
    g = _coupling(cfg)
    n_lo, n_hi = _parse_n_range(cfg["n"])
    if n_hi - n_lo >= _MAX_LEVELS:
        raise UsageError(f"--n {cfg['n']} asks for {n_hi - n_lo + 1} levels; "
                         f"a run solves at most {_MAX_LEVELS}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        eta_closed = energy_closed_form(g, n)
        try:
            line = solve_quantization(g, n)
        except RootFindingError as exc:  # bound too weakly, and so is every later level
            solved = (f"the levels --n {n_lo}..{n - 1} solve" if n > n_lo
                      else f"no level of --n {cfg['n']} solves")
            raise RootFindingError(f"{exc}; {solved}")
        binding_closed = binding_closed_form(g, n)
        rows.append([n, cfg.get("Z"), eta_closed, line.eta,
                     abs(line.binding - binding_closed) / binding_closed,
                     line.residual, line.binding, binding_closed])
    meta = {**{key: cfg[key] for key in ("Z", "alpha") if key in cfg}, "g": g}
    return meta, ["n", "Z", "eta_closed", "eta_solver", "agreement", "residual", "binding",
                  "binding_closed"], rows


def _exponent_ode(cfg: dict, g: float, eta: float | None):
    model = cfg["model"]
    if model == "ordinary":
        return build_ordinary_kg(CoulombSystem(g, eta)), {}
    if model == "deformed-zero-energy":
        dp = _deformation(cfg)
        return build_deformed_zero_energy(g, dp), {"theta": dp.theta,
                                                   "theta_prime": dp.theta_prime}
    theta = _positive_theta(cfg)  # deformed-first-order
    return build_deformed_first_order_psi(CoulombSystem(g, eta), theta), {"theta": theta}


def cmd_exponents(cfg: dict) -> tuple[dict, list, list]:
    """Indicial exponents at infinity next to the exponents measured from
    the transfer matrix over the top of the window
    (``asymptotics.transfer_exponents``), each row the analytic exponent
    and the measured one nearest it: ``fitted`` and ``im_fitted`` are the
    measured real and imaginary parts, ``deviation`` the relative distance
    of the real parts. ``oscillatory`` flags a complex analytic pair, the
    supercritical ordinary case, where the solutions beat. A window that
    starts below the largest modulus of a finite singular point issues a
    WindowWarning: there the measured exponents need not follow the
    exponents at infinity.
    """
    g = _coupling(cfg)
    energy = {"eta": cfg["eta"]} if "eta" in cfg else {}
    ode, extra_meta = _exponent_ode(cfg, g, energy.get("eta"))
    window = _parse_window(cfg["window"])
    exps = indicial_exponents(ode, INFINITY)
    try:
        measured = paired(exps, transfer_exponents(ode, window))
    except ValueError as exc:  # a window too narrow to measure over
        raise UsageError(f"--window {cfg['window']}: {exc}")
    scale = singular_scale(ode)
    if window[0] < scale:
        warnings.warn(f"the window starts at u = {window[0]:.6g}, below the equation's "
                      f"singular scale {scale:.6g} (the largest |u| of a finite singular "
                      "point); the measured exponents there need not follow the exponents "
                      "at infinity", WindowWarning)

    oscillatory = int(exps[0].imag != 0.0)
    rows = []
    for label, exponent, rho in zip(("subdominant", "dominant"), exps, measured):
        fitted = rho.real + 0.0  # + 0.0: a zero part prints 0, not -0
        rows.append([label, exponent.real, exponent.imag, fitted,
                     abs(fitted - exponent.real) / abs(exponent.real), oscillatory,
                     rho.imag + 0.0])
    meta = {"model": cfg["model"], "g": g, **energy,
            "window_lo": window[0], "window_hi": window[1], **extra_meta}
    return meta, ["branch", "re_analytic", "im_analytic", "fitted", "deviation", "oscillatory",
                  "im_fitted"], rows


def cmd_wavefunction(cfg: dict) -> tuple[dict, list, list]:
    """Sample psi on a logarithmic momentum grid: the ordinary model at one
    level --n (default 0) or at a trial energy --eta, not both."""
    model = cfg["model"]
    lo, hi = _parse_window(cfg["window"])
    grid = _geomspace(lo, hi, _WAVEFUNCTION_POINTS)
    g = _coupling(cfg)

    if model == "ordinary":
        if cfg.get("eta") is not None:
            if cfg.get("n") is not None:
                raise UsageError("--n and --eta each fix the energy; give one of them")
            eta = cfg["eta"]
        else:
            n, n_hi = _parse_n_range(cfg["n"]) if cfg.get("n") is not None else (0, 0)
            if n_hi != n:
                raise UsageError(f"wavefunction samples one level, got --n {cfg['n']}")
            eta = energy_closed_form(g, n)
            if not eta < 1.0:
                raise OutOfDomainError(f"level n = {n} at g = {g:g} is bound by less than "
                                       "the rounding of eta = 1; no wavefunction to sample")
        sample = functools.partial(psi_ordinary, CoulombSystem(g, eta))
        meta = {"model": model, "g": g, "eta": eta}

    else:  # deformed-zero-energy
        dp = _deformation(cfg)
        hp, vmap = to_heun(g, dp)
        meta = {"model": model, "g": g, "theta": dp.theta,
                "theta_prime": dp.theta_prime, "xi0": hp.xi0}

        def sample(us: list[float]) -> list[complex]:
            xis = vmap.forward(us)
            heun = heun_local(hp, xis)
            return [(1.0 - xi) * h for xi, h in zip(xis, heun)]

    try:
        psis = sample(grid)
    except KGCoulombError as exc:
        u = grid[exc.index or 0]
        raise OutOfDomainError(
            f"wavefunction grid point u = {u:.6g} cannot be evaluated: {exc}")
    rows = [[u, psi.real, psi.imag, abs(psi)] for u, psi in zip(grid, psis)]
    return meta, ["u", "re_psi", "im_psi", "abs_psi"], rows


def cmd_params(cfg: dict) -> tuple[dict, list, list]:
    """Dump the derived parameter block of the reduced equation."""
    model = cfg["model"]
    g = _coupling(cfg)
    rows = []
    if model == "heun":
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
    else:  # generalized-heun
        theta = _positive_theta(cfg)
        ghp, _ = to_generalized_heun(CoulombSystem(g, cfg["eta"]), theta)
        for name in ("a", "b", "rho1", "rho2", "c", "d", "e", "f", "x1", "x2"):
            value = complex(getattr(ghp, name))
            rows.append([name, value.real, value.imag])
        rows.append(["fuchsian_residual", ghp.fuchsian_residual, 0.0])
        meta = {"model": model, "g": g, "eta": cfg["eta"], "theta": theta}
    return meta, ["name", "re", "im"], rows


def cmd_heun_check(cfg: dict) -> tuple[dict, list, list]:
    """Equal-deformation cross-check of the two evaluation routes.

    When the two deformation parameters coincide the singular point
    xi = 1 of the reduced equation becomes ordinary and the local
    solution collapses to a Gauss hypergeometric function of xi/xi0.
    Both sides run on the one continuation engine, each on its own
    equation, so agreement here checks the reduction: the Heun
    parameter block and its variable map. The engine itself is checked
    against mpmath in the tests.
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
    heun = heun_local(hp, grid)
    hyper = hyp2f1(hp.a, hp.b, hp.c, [xi / hp.xi0 for xi in grid])
    rows = [[xi, h.real, f.real, abs(h - f)] for xi, h, f in zip(grid, heun, hyper)]
    # a and b as float parts, which json and _fmt take; + 0.0: a zero part prints 0, not -0
    meta = {"g": g, "theta": theta, "re_a": hp.a.real + 0.0, "im_a": hp.a.imag + 0.0,
            "re_b": hp.b.real + 0.0, "im_b": hp.b.imag + 0.0, "c": hp.c, "xi0": hp.xi0,
            "max_abs_diff": max(row[3] for row in rows)}
    return meta, ["xi", "heun", "hypergeometric", "abs_diff"], rows


_COUPLING = {"Z": 1, "alpha": FINE_STRUCTURE_ALPHA, "g": None}

# Per subcommand: its help line, per model the options that model reads,
# each with its default (None: no default), and its handler, which returns
# the table as (meta, columns, rows). The first model is the default;
# the model None stands for a subcommand without --model. Every subcommand
# also takes --format, --out and --config; any other option, or one that the
# chosen model does not read, is a usage error.
_COMMANDS = {
    "spectrum": ("bound-state energies: closed form vs quantization root",
                 {None: {**_COUPLING, "n": "0..5"}}, cmd_spectrum),
    "exponents": ("decay exponents at large momentum: analytic vs measured", {
        "ordinary": {**_COUPLING, "eta": 0.5, "window": "1e2:1e4"},
        "deformed-zero-energy": {**_COUPLING, "theta": None, "theta-prime": 0.0,
                                 "window": "1e2:1e4"},
        # theta' = 2 theta in this model: theta-prime is taken and not read
        "deformed-first-order": {**_COUPLING, "eta": 0.5, "theta": None, "theta-prime": None,
                                 "window": "1e2:1e4"},
    }, cmd_exponents),
    "wavefunction": ("sample psi(u) on a logarithmic grid", {
        "ordinary": {**_COUPLING, "eta": None, "n": None, "window": "0.01:100"},
        "deformed-zero-energy": {**_COUPLING, "theta": None, "theta-prime": 0.0,
                                 "window": "0.01:100"},
    }, cmd_wavefunction),
    "params": ("derived parameter block of the reduced equation", {
        "heun": {**_COUPLING, "theta": 0.05, "theta-prime": 0.0},
        "generalized-heun": {**_COUPLING, "eta": 0.5, "theta": 0.05},
    }, cmd_params),
    "heun-check": ("equal-deformation consistency: local Heun vs hypergeometric",
                   {None: {**_COUPLING, "theta": 0.05, "theta-prime": None}},
                   cmd_heun_check),
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out file {out!r}: {exc}")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"kgcoulomb: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():
        # setting a filter re-arms "default" warnings for every run
        warnings.simplefilter("default", KGCoulombWarning)
        warnings.showwarning = _show_warning
        try:
            command, flags = _parse_args(argv)
            if flags is None:  # -h or --help
                sys.stdout.write(_help(command))
                return 0
            cfg = _merge(command, flags)
            meta, columns, rows = _COMMANDS[command][2](cfg)
            _emit(_render(command, meta, columns, rows, cfg["format"]), cfg.get("out"))
            return 0
        except UsageError as exc:
            print(f"kgcoulomb: usage error: {exc}", file=sys.stderr)
            return 1
        except KGCoulombError as exc:
            print(f"kgcoulomb: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
