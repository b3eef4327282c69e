"""Momentum-space bound states of the relativistic Coulomb problem,
with and without a minimal-length deformation.

The package exports no name of its own: import each from its module
(``from kgcoulomb.fuchsian import RationalCoeffODE``). Importing the
package loads all seven library modules."""

from . import asymptotics, errors, fuchsian, kgmodels, physcore, specialfn, spectra

__version__ = "0.1.0"
