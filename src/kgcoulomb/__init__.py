"""Momentum-space bound states of the relativistic Coulomb problem,
with and without a minimal-length deformation."""

from .asymptotics import (FitResult, RegularizationVerdict, Trajectory, classify,
                          dominant_branch, fit_exponent, integrate,
                          subdominant_branch)
from .errors import (ConvergenceError, IntegrationError, IrregularPointError,
                     KGCoulombError, OscillationError, OutOfDomainError,
                     ParameterPoleError, PhysicsDomainError,
                     ResonantExponentsError, RootFindingError,
                     SupercriticalCouplingError, UsageError)
from .fuchsian import (INFINITY, EvalResult, FrobeniusSolution, RationalCoeffODE,
                       SingularPoint, evaluate, evaluate_with_derivatives,
                       frobenius_series, indicial_exponents, residual,
                       singular_points, taylor_series)
from .kgmodels import (ConfluenceWarning, GenHeunParams, VariableMap,
                       build_deformed_first_order, build_deformed_first_order_psi,
                       build_deformed_zero_energy, build_ordinary_kg,
                       gen_heun_ode, to_generalized_heun, to_heun)
from .physcore import (FINE_STRUCTURE_ALPHA, CoulombSystem, DeformationParams,
                       critical_Z, minimal_length, mu_of_coupling)
from .specialfn import (HeunParams, heun_local, heun_ode, hyp2f1,
                        hyp2f1_with_derivatives, hypergeometric_ode, psi_ordinary,
                        psi_ordinary_with_derivative)
from .spectra import (SpectrumLine, binding_residual, energy_closed_form,
                      quantization_residual, solve_quantization)

__version__ = "0.1.0"
