"""File catalog, Zipf request popularity, and per-file delay tolerance.

A file's aggregate delay tolerance is computed exactly from the
two-region rate model and the uniform delay-threshold distribution; no
random draws are involved. All quantities here are normalized: file
sizes are dimensionless fractions of the size unit, delay thresholds are
in slots, rates are in size-units per slot per frequency unit (see
``scenario.normalize`` for the mapping from physical units).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import RateModel, fastest_rate
from .errors import InvalidParameterError, PreconditionError

_PMF_TOL = 1e-12


def zipf_pmf(exponent: float, catalog_size: int) -> np.ndarray:
    """Truncated discrete power law over ranks 1..M: p_i = i^-gamma / H, H
    the normalizer, for an exponent gamma > 0 and M = ``catalog_size`` >= 1."""
    if not exponent > 0:
        raise InvalidParameterError(f"Zipf exponent must be > 0, got {exponent}")
    if catalog_size < 1:
        raise InvalidParameterError(f"catalog size must be >= 1, got {catalog_size}")
    ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


def aggregate_delay_tolerance(size, delay_lo, delay_hi,
                              rate_model: RateModel) -> float | np.ndarray:
    """Exact mean of 1 / (size - rate * threshold) over the user population,
    elementwise over scalars or 1-D arrays of files (a float for scalars).

    A user's rate class is a row of ``rate_model.classes`` (``r_high`` with
    probability ``prob_high``, else ``r_low``); the threshold is uniform on
    [delay_lo, delay_hi]. For a class of rate r, with d = size - r * delay_hi
    and x = r * (delay_hi - delay_lo) / d, the mean over the threshold is
    log1p(x) / (x * d), and 1 / d for a point mass (x = 0). The classes
    are mixed by their probabilities. ``math.log1p`` is applied per
    element because ``np.log1p`` can differ from it in the last bit.

    Raises PreconditionError, listing the offending files, unless
    size / r > delay_hi + 1 at the highest rate with positive probability:
    the delay-sensitivity condition, which keeps the unicast payoff
    defined for every user. That rate decides for every rate, since
    rounded division is monotone in the divisor.
    """
    scalar = np.ndim(size) == np.ndim(delay_lo) == np.ndim(delay_hi) == 0
    size, lo, hi = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (size, delay_lo, delay_hi)))
    top = fastest_rate(rate_model)
    bad = np.flatnonzero(~(size / top > hi + 1.0))
    if bad.size:
        listing = ", ".join(
            f"file {i + 1} (size/rate={float(size[i] / top)!r}, "
            f"needs > {float(hi[i] + 1.0)!r})"
            for i in bad[:8]
        )
        raise PreconditionError(
            f"delay-sensitivity condition fails for {bad.size} file(s): {listing}"
        )
    total = 0.0
    for (rate,), weight in zip(*rate_model.classes):
        if weight <= 0.0:
            continue
        d = size - rate * hi
        x = rate * (hi - lo) / d
        log1p_x = np.fromiter(map(math.log1p, x), np.float64, len(x))
        total = total + weight * np.divide(log1p_x, x * d, out=1.0 / d, where=x != 0.0)
    return float(total[0]) if scalar else total


def _check_files(sizes: np.ndarray, delay_lo: np.ndarray, delay_hi: np.ndarray):
    """Per-file checks, naming the first offending file (1-based)."""
    bad = np.flatnonzero(~(sizes > 0))
    if bad.size:
        raise InvalidParameterError(f"file {bad[0] + 1}: size must be > 0")
    bad = np.flatnonzero(~((0 < delay_lo) & (delay_lo <= delay_hi)))
    if bad.size:
        i = bad[0]
        raise InvalidParameterError(
            f"file {i + 1}: need 0 < delay_lo <= delay_hi, "
            f"got ({delay_lo[i]}, {delay_hi[i]})"
        )


@dataclass(frozen=True)
class FileCatalog:
    """Immutable catalog, one array entry per file, in any order (``build_catalog``
    ranks by popularity). ``processing_order``, the order the station serves
    requesters in, is by descending popularity, ties by ascending file index.

    ``delay_lo``/``delay_hi`` bound the per-user delay threshold
    distribution (uniform; a point mass when the bounds coincide), and
    ``theta`` holds the aggregate delay tolerances. Invariants (checked
    on construction): arrays non-empty and of one length, sizes positive,
    0 < delay_lo <= delay_hi, popularity sums to one, all tolerances
    positive; mean_size = sum(size * popularity).
    """

    sizes: np.ndarray
    popularity: np.ndarray
    theta: np.ndarray
    delay_lo: np.ndarray
    delay_hi: np.ndarray
    rate_model: RateModel
    mean_size: float = field(init=False)
    processing_order: np.ndarray = field(init=False)

    def __post_init__(self):
        names = ("sizes", "popularity", "theta", "delay_lo", "delay_hi")
        arrays = [np.array(getattr(self, name), dtype=np.float64) for name in names]
        sizes, pop, theta, lo, hi = arrays
        if len(sizes) == 0 or any(a.shape != (len(sizes),) for a in arrays):
            raise InvalidParameterError("catalog arrays must be non-empty and same length")
        _check_files(sizes, lo, hi)
        if np.any(pop < 0) or abs(pop.sum() - 1.0) > _PMF_TOL:
            raise InvalidParameterError(
                f"popularity must be a pmf (sum={pop.sum()!r})"
            )
        if np.any(theta <= 0):
            raise InvalidParameterError("aggregate delay tolerances must be positive")
        for name, value in zip(names, arrays):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "mean_size", float(sizes @ pop))
        object.__setattr__(self, "processing_order", np.argsort(-pop, kind="stable"))

    @property
    def size(self) -> int:
        return len(self.sizes)


def build_catalog(
    zipf_exponent: float,
    sizes,
    delay_lo,
    delay_hi,
    rate_model: RateModel,
) -> FileCatalog:
    """Construct a Zipf-popularity catalog of ``len(sizes)`` files with
    exact delay tolerances. ``delay_lo``/``delay_hi`` may be scalars
    (shared bounds) or per-file arrays. The tolerances come from one
    :func:`aggregate_delay_tolerance` call, which also rejects files that
    break the delay-sensitivity condition rather than clipping them, so
    the catalog is a deterministic function of the arguments.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    M = len(sizes)
    pop = zipf_pmf(zipf_exponent, M)
    lo = np.broadcast_to(np.asarray(delay_lo, dtype=np.float64), (M,))
    hi = np.broadcast_to(np.asarray(delay_hi, dtype=np.float64), (M,))
    _check_files(sizes, lo, hi)  # before the tolerances, which need lo <= hi
    theta = aggregate_delay_tolerance(sizes, lo, hi, rate_model)
    if M > 1 and not np.all(np.diff(pop) < 0):
        raise InvalidParameterError("Zipf popularity must be strictly decreasing")
    return FileCatalog(sizes=sizes, popularity=pop, theta=theta,
                       delay_lo=lo, delay_hi=hi, rate_model=rate_model)
