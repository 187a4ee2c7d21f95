"""Two-region spectral-efficiency model.

A cell is split into an inner high-rate region and an outer low-rate
region. Unicast users get the rate of their own region; a broadcast
transmission must use the modulation of its worst user, so the common
broadcast rate drops to the low rate as soon as any broadcast user sits
in the outer region.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class RateModel:
    """Spectral efficiencies of the two regions.

    Attributes
    ----------
    r_high : float
        Spectral efficiency inside the good region.
    r_low : float
        Spectral efficiency in the degraded region, 0 < r_low <= r_high.
    prob_high : float
        Probability that a uniformly placed user falls in the good
        region (area fraction of the good region).
    """

    r_high: float
    r_low: float
    prob_high: float

    def __post_init__(self):
        if not (0.0 < self.r_low <= self.r_high):
            raise InvalidParameterError(
                f"need 0 < r_low <= r_high, got r_low={self.r_low}, r_high={self.r_high}"
            )
        if not (0.0 <= self.prob_high <= 1.0):
            raise InvalidParameterError(f"prob_high must be in [0, 1], got {self.prob_high}")

    @property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The two rate classes: the rates as a column ``(r_high, r_low)`` and
        their probabilities ``(prob_high, 1 - prob_high)``. Row 0 is the class of
        a placement uniform below ``prob_high`` (:func:`rates_from_uniforms`)."""
        return (np.array([[self.r_high], [self.r_low]]),
                np.array([self.prob_high, 1.0 - self.prob_high]))


def unicast_rate(model: RateModel) -> float:
    """Average unicast spectral efficiency: affine mix of the two regions."""
    return model.r_low + (model.r_high - model.r_low) * model.prob_high


def broadcast_rate(model: RateModel, n_broadcast_users: int) -> float:
    """Average broadcast spectral efficiency for a given broadcast group size.

    The broadcast link runs at the high rate only when every one of the
    ``n_broadcast_users`` independently placed users is in the good
    region, hence the ``prob_high ** n`` factor. Tends to ``r_low`` as
    the group grows.
    """
    if n_broadcast_users < 0:
        raise InvalidParameterError(
            f"broadcast user count must be >= 0, got {n_broadcast_users}"
        )
    p_all_high = model.prob_high ** n_broadcast_users
    return model.r_low + (model.r_high - model.r_low) * p_all_high


def fastest_rate(model: RateModel) -> float:
    """The highest rate a user can draw: ``r_high`` unless ``prob_high`` is 0."""
    return model.r_high if model.prob_high > 0.0 else model.r_low


def rates_from_uniforms(model: RateModel, u) -> np.ndarray:
    """Unicast rates of users placed by standard uniforms ``u``: a user is
    in the good region when their uniform is below ``prob_high``."""
    return np.where(u < model.prob_high, model.r_high, model.r_low)

