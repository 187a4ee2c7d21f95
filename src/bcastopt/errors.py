"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument is outside its admissible range."""


class PayoffDomainError(ValueError):
    """A payoff expression would leave its domain: some admissible draw
    gives a non-positive delay denominator."""


class PreconditionError(ValueError):
    """A model precondition does not hold for the given inputs (e.g. the
    delay-sensitivity condition or the revenue-bound hypothesis)."""


class ConvergenceError(RuntimeError):
    """The joint ascent did not settle within its iteration limit.

    Carries the iterate trace so callers can inspect the trajectory.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""


# The failures a run of a valid config may meet: a sweep records them in the
# point's error column, every other command exits 1. Anything else is a bug.
POINT_ERRORS = (ConvergenceError, PayoffDomainError)
