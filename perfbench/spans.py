"""In-memory span tracing of calls into the kgcoulomb layers.

A ``Tracer`` replaces the public functions of the library modules with
wrappers that record one span per call: (id, parent id, name, start,
end). Every module of the package that holds the original object under
any name is patched, so ``cli``'s ``from .specialfn import heun_local``
and calls through module globals inside a module (``taylor_series`` ->
``singular_points``) are both caught. Spans stay in a list until the
run ends; ``aggregate`` turns them into per-layer call counts and self
times, a span's self time being its duration minus the time its child
spans cover.

Three counters are kept next to the spans because they measure wasted
or repeated work where it happens:

- ``census_odes``: the distinct ODEs handed to ``singular_points``;
- ``hops``: ``taylor_series`` calls made while a ``heun_local`` span is open;
- ``rhs_evals``: ``RationalCoeffODE.p0`` calls made while an
  ``integrate`` span is open (one per right-hand-side evaluation).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs wrapped in spans; the layer name is
# "<module>.<attribute>".
TRACED_FUNCTIONS = (
    ("cli", "main"),
    ("fuchsian", "singular_points"),
    ("fuchsian", "taylor_series"),
    ("fuchsian", "frobenius_series"),
    ("fuchsian", "evaluate"),
    ("fuchsian", "evaluate_with_derivatives"),
    ("fuchsian", "indicial_exponents"),
    ("specialfn", "heun_local"),
    ("specialfn", "hyp2f1"),
    ("specialfn", "psi_ordinary"),
    ("asymptotics", "integrate"),
    ("asymptotics", "fit_exponent"),
    ("spectra", "solve_quantization"),
    ("kgmodels", "to_heun"),
    ("kgmodels", "build_ordinary_kg"),
    ("kgmodels", "build_deformed_zero_energy"),
    ("kgmodels", "build_deformed_first_order_psi"),
)
# RationalCoeffODE normalisation (root finding, clustering, cancelling)
# runs in __post_init__ on every construction.
ODE_SPAN = "fuchsian.RationalCoeffODE"
ROOT_SPAN = "command"

LAYERS = tuple(f"{m}.{a}" for m, a in TRACED_FUNCTIONS) + (ODE_SPAN,)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.census_odes: set = set()
        self.merged_odes = 0
        self.hops = 0
        self.rhs_evals = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            opened[name] = opened.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened[name] -= 1
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        return traced

    def root(self, fn, *args, **kwargs):
        """Call fn inside a root span named ``command``."""
        return self._wrap(ROOT_SPAN, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the loaded kgcoulomb modules; ``uninstall`` undoes it."""
        import kgcoulomb.cli  # noqa: F401  (loads every library module)
        from kgcoulomb import fuchsian

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "kgcoulomb" or n.startswith("kgcoulomb."))]
        for mod_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"kgcoulomb.{mod_name}"], attr)
            fn = original
            if (mod_name, attr) == ("fuchsian", "singular_points"):
                fn = self._census(original)
            elif (mod_name, attr) == ("fuchsian", "taylor_series"):
                fn = self._counted(original, "specialfn.heun_local", "hops")
            wrapped = self._wrap(f"{mod_name}.{attr}", fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

        ode = fuchsian.RationalCoeffODE
        self._set(ode, "__post_init__", self._wrap(ODE_SPAN, ode.__post_init__))
        self._set(ode, "p0", self._counted(ode.p0, "asymptotics.integrate", "rhs_evals"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _census(self, fn):
        odes = self.census_odes

        @functools.wraps(fn)
        def census(ode, *args, **kwargs):
            odes.add(ode)
            return fn(ode, *args, **kwargs)

        return census

    def _counted(self, fn, inside: str, counter: str):
        opened = self._open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if opened.get(inside):
                setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return counted

    # -- output --------------------------------------------------------------

    @property
    def odes_seen(self) -> int:
        """Distinct ODEs passed to singular_points, merged children included."""
        return len(self.census_odes) + self.merged_odes

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "census_odes": len(self.census_odes),
                       "hops": self.hops, "rhs_evals": self.rhs_evals}, fh)

    def merge(self, path) -> None:
        """Append the spans and counters a traced child process dumped."""
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
        offset = len(self.spans)
        for sid, parent, name, start, end in doc["spans"]:
            self.spans.append((sid + offset, parent + offset if parent >= 0 else -1,
                               name, start, end))
        self.merged_odes += doc["census_odes"]
        self.hops += doc["hops"]
        self.rhs_evals += doc["rhs_evals"]


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the children's durations.

    Spans of one thread nest, so children never overlap and their
    durations can simply be subtracted.
    """
    own = {sid: end - start for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict[str, dict]:
    """{layer: {"calls": n, "self_s": seconds}} over all spans."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _, name, _, _ in spans:
        slot = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        slot["calls"] += 1
        slot["self_s"] += own[sid]
    return out
