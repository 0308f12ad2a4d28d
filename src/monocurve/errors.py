"""Exception types shared across the package."""


class MonocurveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MonocurveError):
    """Malformed generators, vectors, or arguments."""


class InvalidPivotError(MonocurveError):
    """Apery pivot is not a member of the semigroup."""


class DegenerateInputError(MonocurveError):
    """Zero lattice vector where a binomial was expected."""


class InternalBoundError(MonocurveError):
    """A safety cap was exceeded; indicates a bug or absurd input."""


class OutOfRangeError(MonocurveError):
    """Arguments fall outside the hypotheses of the statement being tested,
    or the work they ask for is above a documented size cap."""


class HypothesisNotMetError(MonocurveError):
    """The family lacks the structure the theorem requires."""


class InsufficientDataError(MonocurveError):
    """Scan window too small for the requested analysis."""
