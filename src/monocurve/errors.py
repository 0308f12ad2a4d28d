"""Exception types shared across the package."""


class MonocurveError(Exception):
    """Base class for all errors raised by this package, and the error of a
    failed internal check or an exceeded safety cap."""


class InvalidInputError(MonocurveError):
    """Malformed generators, vectors or arguments: a pivot outside the
    semigroup, a zero vector, a scan too short for period detection."""


class OutOfRangeError(MonocurveError):
    """Arguments fall outside the hypotheses of the statement being tested,
    or the work they ask for is above a documented size cap."""


class HypothesisNotMetError(MonocurveError):
    """The family lacks the structure the theorem requires."""
