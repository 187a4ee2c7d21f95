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


# The failures a run of a valid config may meet, that is, a draw that could
# leave a payoff's domain: a sweep records it in the point's error column,
# every other command exits 1. Anything else is a bug; the joint ascent
# always ends, so it adds none.
POINT_ERRORS = (PayoffDomainError,)
