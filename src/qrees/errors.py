"""Exception hierarchy shared across the package.

Every error carries the process exit code the command line tool maps it to,
so the CLI can stay a thin shell around the library.
"""

from __future__ import annotations


class QreesError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ProblemParseError(QreesError):
    """A problem file or polynomial string could not be parsed."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedCharacteristic(QreesError):
    """The requested operation needs characteristic zero."""

    exit_code = 3


class ChartSplitRequired(QreesError):
    """A center or coordinate change fell outside a single affine chart.

    Raised when the resolution driver needs a locus it cannot express in the
    current coordinates (a non-linear hypersurface of maximal contact, a
    non-rational point on a line, or a tie between incompatible centers).
    """

    exit_code = 4


class _TracedError(QreesError):
    """A resolution-driver error that carries the partial trace in `.trace`."""

    def __init__(self, message: str, trace: dict | None = None) -> None:
        super().__init__(message)
        self.trace = trace


class NotTerminated(_TracedError):
    """The resolution loop hit its step budget with singular points left."""

    exit_code = 5


class PreconditionError(QreesError):
    """Input violates a documented precondition (weights, divisors, point)."""

    exit_code = 6


def check_bound(name: str, value, least: int) -> None:
    """The one check on a search bound (a power, a cap, a step budget): a
    value below least raises PreconditionError."""
    if value < least:
        raise PreconditionError(f"{name} must be at least {least}, got {value}")


class InvariantNotDecreasing(_TracedError):
    """The maximum of the resolution invariant failed to strictly decrease
    from one driver step to the next.

    The invariant is meant to drop at every step, so this signals a defect in
    the driver or the invariant rather than bad input.
    """

    exit_code = 7
