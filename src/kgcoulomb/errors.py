"""Exception types shared across the package.

Domain errors and numerical failures both derive from ``KGCoulombError``,
which library callers can catch to get everything at once. The command
line tool maps ``UsageError`` to exit code 1 and every other
``KGCoulombError`` to exit code 2.
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


class SupercriticalCouplingError(KGCoulombError):
    """Coupling Z*alpha exceeds 1/2, where the bound-state formulas turn complex."""


class ParameterPoleError(KGCoulombError):
    """Parameters sit exactly on a pole of a mapping (e.g. theta + theta' = 1)."""


class OutOfDomainError(KGCoulombError):
    """Evaluation point outside the validated domain of a series or grid."""


class OscillationError(KGCoulombError):
    """A power-law fit was requested on data that oscillates in sign."""


class ResonantExponentsError(KGCoulombError):
    """Frobenius exponents differ by a positive integer; the requested
    series would hit a vanishing pivot in the recurrence."""


class IrregularPointError(KGCoulombError):
    """A series expansion was requested at an irregular singular point."""


class ConvergenceError(KGCoulombError):
    """An iterative computation hit its term or iteration cap without settling."""


class RootFindingError(KGCoulombError):
    """Root refinement failed or a bracket could not be established."""


class KGCoulombWarning(UserWarning):
    """Base class for all warnings issued by this package."""


class WindowWarning(KGCoulombWarning):
    """An exponent-fit window starts below the equation's singular scale."""
