"""Exception types shared across the package.

The split matters for the command line tool: ``UsageError`` maps to exit
code 1 and every other ``KGCoulombError`` to exit code 2, a numerical method
that failed as well as input outside the physical domain (``PhysicsDomainError``).
Library callers can catch ``KGCoulombError`` to get everything at once.
Warnings derive from ``KGCoulombWarning``, which the CLI prints as one
``kgcoulomb: warning:`` line each.
"""


class KGCoulombError(Exception):
    """Base class for all errors raised by this package.

    ``index`` is the position of the offending point when the error
    comes from evaluating a whole grid in one call, else None.
    """

    index: int | None = None


class UsageError(KGCoulombError):
    """Bad arguments or argument combinations (CLI exit code 1)."""


class PhysicsDomainError(KGCoulombError):
    """Valid-looking input that lands outside the physical domain."""


class SupercriticalCouplingError(PhysicsDomainError):
    """Coupling Z*alpha exceeds 1/2, where the bound-state formulas turn complex."""


class ParameterPoleError(PhysicsDomainError):
    """Parameters sit exactly on a pole of a mapping (e.g. theta + theta' = 1)."""


class OutOfDomainError(PhysicsDomainError):
    """Evaluation point outside the validated domain of a series or grid."""


class OscillationError(PhysicsDomainError):
    """A power-law fit was requested on data that oscillates in sign."""


class ResonantExponentsError(KGCoulombError):
    """Frobenius exponents differ by a positive integer; the requested
    series would hit a vanishing pivot in the recurrence."""


class IrregularPointError(KGCoulombError):
    """A series expansion was requested at an irregular singular point."""


class ConvergenceError(KGCoulombError):
    """An iterative computation hit its term or iteration cap without settling."""


class IntegrationError(KGCoulombError):
    """An analytic continuation left the floating-point range."""


class RootFindingError(KGCoulombError):
    """Root refinement failed or a bracket could not be established."""


class KGCoulombWarning(UserWarning):
    """Base class for all warnings issued by this package."""


class WindowWarning(KGCoulombWarning):
    """An exponent-fit window starts below the equation's singular scale."""
