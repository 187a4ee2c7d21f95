"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class PayoffDomainError(ValueError):
    """A payoff expression would leave its domain: some admissible draw
    gives a non-positive delay denominator."""


class PreconditionError(ValueError):
    """A model precondition does not hold for the given inputs (e.g. the
    delay-sensitivity condition or the revenue-bound hypothesis)."""


class InvalidPermutationError(ValueError):
    """A schedule order is not a permutation of the catalog indices."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge, or an ascent step
    lowered the objective it is meant to raise.

    Carries the iterate trace so callers can inspect the trajectory.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""
