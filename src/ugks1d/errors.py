"""Exception types and the argument rules shared across the package."""

import enum
import math
import numbers
from operator import index

# the largest count every float holds exactly: dx = 1/nx, the velocities and
# the step count t/dt are computed in floats
MAX_EXACT_COUNT = 2**53


class ConfigurationError(ValueError):
    """Invalid grid sizes, physical parameters, scenarios, or config files."""


class SolverError(RuntimeError):
    """A linear solve failed (non-convergence, zero pivot, or NaN) or a run blew up.

    ``best`` carries the last iterate when an iterative method gives up,
    so callers can inspect how far the solve got.
    """

    def __init__(self, message: str, *, best=None):
        super().__init__(message)
        self.best = best


def require_positive_finite(name: str, value) -> float:
    """The rule for every physical and mesh parameter: a real number, not a bool
    or a string, positive and finite (NaN fails value > 0); returned as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} expects float, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (number > 0 and math.isfinite(number)):
        raise ConfigurationError(f"{name} must be positive and finite, got {number}")
    return number


def require_count(name: str, value, low: int) -> int:
    """The rule for every count: an integer (numpy's pass; a bool or a float,
    10.0 included, does not) in [low, 2**53]; returned as an int."""
    try:
        count = index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ConfigurationError(f"{name} expects int, got {value!r}") from None
    if not low <= count <= MAX_EXACT_COUNT:
        raise ConfigurationError(f"{name} must be in [{low}, 2**53], got {count}")
    return count


def require_choice(kind: type[enum.Enum], name: str, value) -> enum.Enum:
    """The rule for every choice field: a member of ``kind`` or its value
    string, returned as the member."""
    try:
        return kind(value)  # a member passes through
    except ValueError:
        choices = ", ".join(member.value for member in kind)
        raise ConfigurationError(f"unknown {name} {value!r}; choose one of {choices}") from None
