"""The per-point sweep: the reference that ``specialfn._sweep`` is held to.

Every point walks the whole loop on its own: the restart test, the
target check, the reach test and, on the series at 0, the cut on its
binade. ``specialfn._sweep`` walks the same loop but reads a point of the
first half disk straight off its binade's cut while the chain stands on
the series at 0, with the target check only where that half disk is
below its 1e-9; so on any target list it must give the same values, bit
for bit, and raise the same error at the same point.
"""

import math

from kgcoulomb import fuchsian
from kgcoulomb.errors import KGCoulombError
from kgcoulomb.specialfn import _check_target


def sweep(ode, series, targets, visit, order):
    """(i, value) for each index i of ``visit``, in the sweep's visit order."""
    visit = sorted(visit, key=lambda i: (0, targets[i].real)
                   if targets[i].imag == 0 and targets[i].real >= 0 else (1, abs(targets[i])))
    sings = [s.location for s in fuchsian.singular_points(ode)
             if s.location is not fuchsian.INFINITY and s.location != 0]
    chain, k, cuts = [series], 0, {}
    for i in visit:
        z, disk = targets[i], chain[k]
        c = complex(disk.expansion_point)
        if c.imag * z.imag < 0 or (abs(z - c) > 0.5 * disk.radius
                                   and (z * c.conjugate()).real < abs(c) ** 2):
            chain, k, c = [series], 0, 0j
        try:
            _check_target(sings, z)
            if not abs(z - c) <= 0.5 * chain[k].radius:
                for s in sings if z.imag else ():
                    t = min(1.0, max(0.0, ((s - c) * (z - c).conjugate()).real / abs(z - c) ** 2))
                    if abs(c + t * (z - c) - s) < 0.5 * min(abs(z - s), abs(c - s)):
                        detour = s + math.copysign(abs(z - s), z.imag) * 1j
                        k = fuchsian.reach(ode, chain, detour, order, k)
                k = fuchsian.reach(ode, chain, z, order, k)
            disk = chain[k]
            if not k:
                e = math.frexp(abs(z))[1]
                disk = cuts[e] = cuts.get(e) or fuchsian._truncate(series, math.ldexp(1.0, e))
            yield i, fuchsian.evaluate(disk, z)
        except KGCoulombError as exc:
            exc.index = i
            raise
