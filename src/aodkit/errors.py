"""Exception hierarchy for the toolkit.

Two user-facing families matter for the CLI exit-code contract:
``ConfigError`` (malformed configuration, exit code 2) and
``DomainError`` (valid configuration but physically or numerically
infeasible request, exit code 1).
"""

import operator


class AodkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AodkitError):
    """A request that is well-formed but cannot be satisfied."""


class ConfigError(AodkitError):
    """Malformed configuration or inconsistent run setup.

    Carries the full list of violations so a user can fix every
    problem in one pass instead of replaying the command.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else [message]

    def __str__(self):
        base = super().__str__()
        if len(self.violations) > 1 or (self.violations and self.violations[0] != base):
            return base + "\n  - " + "\n  - ".join(self.violations)
        return base


class ValidationError(DomainError):
    """A value passed directly to a library API is out of domain."""


class InvalidElementError(DomainError):
    """An optical element cannot be handled by the requested operation."""


class ResolutionError(DomainError):
    """A numerical grid is too coarse or too small for the requested field."""


class InfeasibleDesignError(DomainError):
    """A prism geometry that no ray can traverse.

    ``surface_index`` is the 1-based index of the offending refracting
    surface in beam order.
    """

    def __init__(self, message, surface_index):
        super().__init__(message)
        self.surface_index = surface_index


class TotalInternalReflectionError(InfeasibleDesignError):
    """Snell's law has no real solution at the given surface."""


class UnachievableTargetError(DomainError):
    """A solve target lies outside the achievable range on the bracket.

    ``achievable`` is the (min, max) of the quantity over the bracket.
    """

    def __init__(self, message, achievable):
        super().__init__(message)
        self.achievable = achievable


class TrainStructureError(ConfigError):
    """An optical train lacks the structure an operation requires."""


class OutOfRangeError(DomainError):
    """Requested targets fall outside the reachable steering range.

    ``indices`` lists the unreachable ion indices.
    """

    def __init__(self, message, indices):
        super().__init__(message)
        self.indices = tuple(indices)


class ConvergenceError(DomainError):
    """An iterative solve stopped without meeting its tolerance."""


class FitFailureError(DomainError):
    """A model fit did not converge or the data carry no usable signal."""


class UnbracketedMinimumError(DomainError):
    """A trace has no interior minimum to fit."""


class OutOfBandWarning(UserWarning):
    """A drive frequency lies outside the rated AOD band."""


def as_count(name, value, minimum):
    """``value`` as an int of at least ``minimum``; a float, a NaN or a
    string raises :class:`ValidationError` instead of being truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value
