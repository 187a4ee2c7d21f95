"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument is outside its admissible range."""


class PayoffDomainError(ValueError):
    """A payoff expression would leave its domain: some admissible draw
    gives a non-positive delay denominator."""


class PreconditionError(ValueError):
    """A model precondition does not hold for the given inputs (e.g. the
    delay-sensitivity condition or the revenue-bound hypothesis)."""


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""
