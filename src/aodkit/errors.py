"""Exception hierarchy and the input checks shared by the toolkit.

Two user-facing families matter for the CLI exit-code contract:
``ConfigError`` (malformed configuration, exit code 2) and
``DomainError`` (valid configuration but physically or numerically
infeasible request, exit code 1).

Every range check on an input is one of :func:`finite`,
:func:`positive`, :func:`non_negative`, :func:`nonzero`,
:func:`in_range`, :func:`increasing_grid` and :func:`as_count`.  Each
takes the value's name and the value, returns the value (an array as a
float array) and otherwise raises :class:`ValidationError` with the
message ``"<name> <reason>, got <value>"``; a non-finite value always
gives the reason ``"must be finite"``.  The error keeps ``reason`` on
its own, so the config parser reports ``"<key path>: <reason>"``.
A valid Python or numpy scalar passes on plain comparisons; only arrays
go through numpy.
"""

import math
import operator

import numpy as np


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
    """A value passed directly to a library API is out of domain.

    ``reason`` is the message without the value's name and value.
    """

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = message if reason is None else reason


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


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

_SCALARS = (int, float, np.number)
_INF = math.inf


def _invalid(name, reason, value):
    return ValidationError(f"{name} {reason}, got {value}", reason)


# Each check passes a valid scalar on one comparison chain (NaN fails every
# comparison, and the infinite bounds reject +/-inf) and hands the rest to
# _check: a scalar that got there is invalid, an array is checked by numpy.
def _check(name, value, ok, reason):
    """``value`` as a float array when it is finite and ``ok`` holds for
    every element; otherwise a :class:`ValidationError` naming the first
    bad element.  ``reason`` says what ``ok`` asks, or formats it."""
    if isinstance(value, _SCALARS):
        bad = value
    else:
        value = np.asarray(value, dtype=float)
        good = ok(value) & np.isfinite(value)
        if good.all():
            return value
        bad = float(value[~good].flat[0])
    if not math.isfinite(bad):
        reason = "must be finite"
    raise _invalid(name, reason() if callable(reason) else reason, bad)


def finite(name, value):
    if isinstance(value, _SCALARS) and -_INF < value < _INF:
        return value
    return _check(name, value, lambda v: True, "must be finite")


def positive(name, value):
    if isinstance(value, _SCALARS) and 0.0 < value < _INF:
        return value
    return _check(name, value, lambda v: v > 0.0, "must be positive")


def non_negative(name, value):
    if isinstance(value, _SCALARS) and 0.0 <= value < _INF:
        return value
    return _check(name, value, lambda v: v >= 0.0, "must be >= 0")


def nonzero(name, value):
    if isinstance(value, _SCALARS) and -_INF < value < _INF and value != 0.0:
        return value
    return _check(name, value, lambda v: v != 0.0, "must be nonzero")


def in_range(name, value, lo, hi, ends="[]"):
    """``value`` between ``lo`` and ``hi``; ``ends`` marks each end closed
    (``[``, ``]``) or open (``(``, ``)``), as in ``"(]"``."""
    lo_open, hi_open = ends[0] == "(", ends[1] == ")"
    if (isinstance(value, _SCALARS) and lo <= value <= hi and -_INF < value < _INF
            and not (lo_open and value == lo or hi_open and value == hi)):
        return value
    return _check(name, value,
                  lambda v: (v > lo if lo_open else v >= lo) & (v < hi if hi_open else v <= hi),
                  lambda: f"must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}")


def increasing_grid(name, values, min_size):
    """``values`` as a finite, strictly increasing 1-D float array of at
    least ``min_size`` points."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_size:
        raise _invalid(name, f"must be a 1-D grid of >= {min_size} points",
                       f"shape {arr.shape}")
    finite(name, arr)
    steps = np.diff(arr)
    if not (steps > 0.0).all():
        i = int(np.argmin(steps > 0.0))
        raise _invalid(name, "must be strictly increasing", f"{arr[i + 1]} after {arr[i]}")
    return arr


def as_count(name, value, minimum):
    """``value`` as an int of at least ``minimum``; a bool, a float, a NaN
    or a string raises :class:`ValidationError` instead of being truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise _invalid(name, "must be an integer", repr(value)) from None
    if value < minimum:
        raise _invalid(name, f"must be >= {minimum}", value)
    return value
