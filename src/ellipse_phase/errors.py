"""Exception types shared across the package, each with its CLI exit code."""


class EllipsePhaseError(Exception):
    """Base class for all package-specific errors; exit 1 is a validation error."""

    exit_code = 1


class DegenerateLattice(EllipsePhaseError):
    """The periods are non-finite, too short, or too close to collinear to span a lattice."""


class AccuracyNotMet(EllipsePhaseError):
    """The evaluator cannot certify the requested relative error."""

    exit_code = 2


class PoleOrZeroHit(EllipsePhaseError):
    """A sample point landed on a zero or pole."""

    exit_code = 2


class UnbalancedDivisor(EllipsePhaseError):
    """Zero and pole counts differ, so no doubly periodic phase exists."""


class AbelViolation(EllipsePhaseError):
    """Divisor sums are not lattice-congruent; no periodic sigma quotient exists."""


class IllConditioned(EllipsePhaseError):
    """The period pair is too close to collinear for a stable solve."""


class ContourTooClose(EllipsePhaseError):
    """No contour offset kept the required distance from zeros and poles."""

    exit_code = 2


class IoFailure(EllipsePhaseError):
    """An output file could not be written."""

    exit_code = 3
