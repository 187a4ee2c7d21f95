"""File catalog, Zipf request popularity, and per-file delay tolerance.

A file's aggregate delay tolerance is computed exactly from the
two-region rate model and the uniform delay-threshold distribution; no
random draws are involved. All quantities here are normalized: file
sizes are dimensionless fractions of the size unit, delay thresholds are
in slots, rates are in size-units per slot per frequency unit (see
``scenario.normalize`` for the mapping from physical units).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import RateModel
from .errors import InvalidParameterError, PreconditionError

_PMF_TOL = 1e-12


@dataclass(frozen=True)
class ZipfParams:
    """Truncated discrete power-law popularity: p_i proportional to i^-exponent."""

    exponent: float
    catalog_size: int

    def __post_init__(self):
        if not self.exponent > 0:
            raise InvalidParameterError(f"Zipf exponent must be > 0, got {self.exponent}")
        if self.catalog_size < 1:
            raise InvalidParameterError(
                f"catalog size must be >= 1, got {self.catalog_size}"
            )


def zipf_pmf(params: ZipfParams) -> np.ndarray:
    """Popularity vector p_i = i^-gamma / H over ranks 1..M, H the normalizer."""
    ranks = np.arange(1, params.catalog_size + 1, dtype=np.float64)
    weights = ranks ** (-float(params.exponent))
    return weights / weights.sum()


@dataclass(frozen=True)
class FileSpec:
    """One catalog entry.

    ``delay_lo``/``delay_hi`` bound the per-user delay threshold
    distribution (uniform; a point mass when the bounds coincide).
    """

    index: int  # 1-based popularity rank
    size: float
    delay_lo: float
    delay_hi: float

    def __post_init__(self):
        if self.size <= 0:
            raise InvalidParameterError(f"file {self.index}: size must be > 0")
        if not (0 < self.delay_lo <= self.delay_hi):
            raise InvalidParameterError(
                f"file {self.index}: need 0 < delay_lo <= delay_hi, "
                f"got ({self.delay_lo}, {self.delay_hi})"
            )


def aggregate_delay_tolerance(file: FileSpec, rate_model: RateModel) -> float:
    """Exact mean of 1 / (size - rate * threshold) over the user population.

    A user's rate is ``r_high`` with probability ``prob_high`` and ``r_low``
    otherwise; the threshold is uniform on [delay_lo, delay_hi]. For a
    region of rate r, with d = size - r * delay_hi and
    x = r * (delay_hi - delay_lo) / d, the mean over the threshold is
    log1p(x) / (x * d), and 1 / d for a point mass (x = 0). The regions
    are mixed by their probabilities.

    Raises PreconditionError unless size / r > delay_hi + 1 for every rate
    with positive probability: the worst case of the delay-sensitivity
    condition, which keeps the unicast payoff defined for every user.
    """
    total = 0.0
    for rate, weight in ((rate_model.r_high, rate_model.prob_high),
                         (rate_model.r_low, 1.0 - rate_model.prob_high)):
        if weight <= 0.0:
            continue
        if not file.size / rate > file.delay_hi + 1.0:
            raise PreconditionError(
                f"delay-sensitivity violated for file {file.index}: size={file.size}, "
                f"rate={rate}, threshold={file.delay_hi} "
                f"(need size/rate > threshold + 1)"
            )
        d = file.size - rate * file.delay_hi
        x = rate * (file.delay_hi - file.delay_lo) / d
        total += weight * (1.0 / d if x == 0.0 else math.log1p(x) / (x * d))
    return total


@dataclass(frozen=True)
class FileCatalog:
    """Immutable catalog: sizes, popularity, aggregate delay tolerances.

    Invariants (checked on construction): popularity sums to one, all
    tolerances positive, mean_size = sum(size * popularity).
    """

    files: tuple[FileSpec, ...]
    popularity: np.ndarray
    theta: np.ndarray
    rate_model: RateModel
    sizes: np.ndarray = field(init=False)
    mean_size: float = field(init=False)

    def __post_init__(self):
        sizes = np.asarray([f.size for f in self.files], dtype=np.float64)
        pop = np.asarray(self.popularity, dtype=np.float64)
        theta = np.asarray(self.theta, dtype=np.float64)
        if not (len(sizes) == len(pop) == len(theta)) or len(sizes) == 0:
            raise InvalidParameterError("catalog arrays must be non-empty and same length")
        if np.any(pop < 0) or abs(pop.sum() - 1.0) > _PMF_TOL:
            raise InvalidParameterError(
                f"popularity must be a pmf (sum={pop.sum()!r})"
            )
        if np.any(theta <= 0):
            raise InvalidParameterError("aggregate delay tolerances must be positive")
        object.__setattr__(self, "popularity", pop)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "mean_size", float(sizes @ pop))

    @property
    def size(self) -> int:
        return len(self.files)

    @property
    def delay_lo(self) -> np.ndarray:
        return np.asarray([f.delay_lo for f in self.files])

    @property
    def delay_hi(self) -> np.ndarray:
        return np.asarray([f.delay_hi for f in self.files])

    @classmethod
    def from_arrays(cls, sizes, popularity, theta, rate_model,
                    delay_lo=None, delay_hi=None) -> "FileCatalog":
        """Build a catalog from explicit arrays (tests, hand-crafted cases).

        The aggregate tolerances are taken as given; callers are trusted
        to keep them consistent with the threshold bounds, which default
        to a point mass recovering ``theta`` only loosely.
        """
        sizes = np.asarray(sizes, dtype=np.float64)
        if delay_lo is None or delay_hi is None:
            # Point mass consistent with theta under a single-rate model:
            # theta = 1/(f - r*t)  =>  t = (f - 1/theta)/r.
            r = rate_model.r_high
            t = (sizes - 1.0 / np.asarray(theta, dtype=np.float64)) / r
            t = np.maximum(t, 1e-12)
            delay_lo = delay_hi = t
        files = tuple(
            FileSpec(index=i + 1, size=float(sizes[i]),
                     delay_lo=float(np.asarray(delay_lo)[i]),
                     delay_hi=float(np.asarray(delay_hi)[i]))
            for i in range(len(sizes))
        )
        return cls(files=files, popularity=popularity, theta=theta, rate_model=rate_model)


def build_catalog(
    zipf: ZipfParams,
    sizes,
    delay_lo,
    delay_hi,
    rate_model: RateModel,
) -> FileCatalog:
    """Construct a Zipf-popularity catalog with exact delay tolerances.

    ``delay_lo``/``delay_hi`` may be scalars (shared bounds) or per-file
    arrays. The delay-sensitivity condition is validated eagerly against
    the worst case (the highest rate with positive probability, the
    largest threshold); offending files are rejected rather than clipped.
    Each tolerance is then the exact :func:`aggregate_delay_tolerance` of
    its file, so the catalog is a deterministic function of the arguments.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    M = zipf.catalog_size
    if len(sizes) != M:
        raise InvalidParameterError(f"expected {M} sizes, got {len(sizes)}")
    lo = np.broadcast_to(np.asarray(delay_lo, dtype=np.float64), (M,))
    hi = np.broadcast_to(np.asarray(delay_hi, dtype=np.float64), (M,))

    top_rate = rate_model.r_high if rate_model.prob_high > 0.0 else rate_model.r_low
    worst = top_rate * (hi + 1.0)
    bad = np.flatnonzero(sizes <= worst)
    if bad.size:
        listing = ", ".join(
            f"file {i + 1} (size={sizes[i]:.6g}, needs > {worst[i]:.6g})" for i in bad[:8]
        )
        raise PreconditionError(
            f"delay-sensitivity condition fails for {bad.size} file(s): {listing}"
        )

    files = tuple(
        FileSpec(index=i + 1, size=float(sizes[i]),
                 delay_lo=float(lo[i]), delay_hi=float(hi[i]))
        for i in range(M)
    )
    theta = np.array([aggregate_delay_tolerance(f, rate_model) for f in files])
    pop = zipf_pmf(zipf)
    if M > 1 and not np.all(np.diff(pop) < 0):
        raise InvalidParameterError("Zipf popularity must be strictly decreasing")
    return FileCatalog(files=files, popularity=pop, theta=theta, rate_model=rate_model)


def sample_requests(catalog: FileCatalog, n_users: int, rng) -> np.ndarray:
    """Per-file request counts for ``n_users`` i.i.d. popularity draws.

    Deterministic for a fixed seed; counts sum to ``n_users``.
    """
    if n_users < 0:
        raise InvalidParameterError(f"user count must be >= 0, got {n_users}")
    gen = np.random.default_rng(rng)
    if n_users == 0:
        return np.zeros(catalog.size, dtype=np.int64)
    return gen.multinomial(n_users, catalog.popularity)


def catalog_to_csv(catalog: FileCatalog) -> str:
    """Catalog export with columns (i, f_i, p_i, theta_i)."""
    buf = io.StringIO()
    buf.write("i,f_i,p_i,theta_i\n")
    for i, f in enumerate(catalog.files):
        buf.write(
            f"{f.index},{f.size:.12g},{catalog.popularity[i]:.12g},{catalog.theta[i]:.12g}\n"
        )
    return buf.getvalue()
