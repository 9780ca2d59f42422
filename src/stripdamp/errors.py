"""Exception types shared across the package."""


class StripDampError(Exception):
    """Base class for all package-specific errors."""


class DomainError(StripDampError, ValueError):
    """A coordinate lies outside the domain an operation is defined on."""


class ConfigError(StripDampError, ValueError):
    """Invalid run configuration. Carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "invalid configuration:\n" + "\n".join(
            f"  - {v}" for v in self.violations
        )
        super().__init__(msg)


class AdmissibilityError(StripDampError, ValueError):
    """Spectral parameter outside the admissible disk."""


class PreconditionError(StripDampError, ValueError):
    """A documented operation precondition is not met."""


class TruncationError(StripDampError, RuntimeError):
    """Half-line truncation too short; solution has not decayed at the cut."""


class ResolutionError(StripDampError, ValueError):
    """Grid too coarse for the requested frequency content."""


class RootFindError(StripDampError, RuntimeError):
    """An iteration (Newton, secant or Lanczos) failed to converge."""


class InstabilityError(StripDampError, RuntimeError):
    """Time stepper raised the energy beyond scheme tolerance or lost definiteness."""
