"""Momentum-space bound states of the relativistic Coulomb problem,
with and without a minimal-length deformation."""

from .asymptotics import integrate
from .errors import (ConvergenceError, IrregularPointError,
                     KGCoulombError, KGCoulombWarning, OscillationError,
                     OutOfDomainError, ParameterPoleError, PhysicsDomainError,
                     ResonantExponentsError, RootFindingError,
                     SupercriticalCouplingError, UsageError, WindowWarning)
from .fuchsian import (INFINITY, FrobeniusSolution, RationalCoeffODE,
                       SingularPoint, evaluate, evaluate_with_derivatives,
                       frobenius_series, indicial_exponents, singular_points,
                       taylor_series)
from .kgmodels import (ConfluenceWarning, GenHeunParams, VariableMap,
                       build_deformed_first_order_psi,
                       build_deformed_zero_energy, build_ordinary_kg,
                       gen_heun_ode, to_generalized_heun, to_heun)
from .physcore import (FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams,
                       minimal_length, mu_of_coupling)
from .specialfn import HeunParams, heun_local, heun_ode, hyp2f1, hypergeometric_ode, psi_ordinary
from .spectra import SpectrumLine, binding_residual, energy_closed_form, solve_quantization

__version__ = "0.1.0"
