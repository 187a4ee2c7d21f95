"""Revenue lower bound, closed-form optima, the price-aware scheduler,
coordinate maps, and the joint block-coordinate ascent.

The analytic objective is a lower bound on realized revenue, valid while
the price discount times any file size stays below one; prices never go
below ``price_validity_floor`` (at least Pu/2). A schedule enters the
bound only through the moments D = sum s theta f p and E = sum s theta
f^2 p (``bound_moments``): with k = r_u / (Wb r_b) the bound is
Pb N (F - k C(Pb)) + Pu (W - Wb) T, where C(Pb) = D - (Pu - Pb) E is the
Smith cost. The closed-form bandwidth/price optima are one-shot
approximations. Along each of its coordinates the bound has a
closed-form maximizer: the Smith order for the schedule,
``bound_argmax_bandwidth`` for the bandwidth and ``bound_argmax_price``
for the price. ``joint_optimize`` alternates these three, so no step
lowers the bound. ``optimal_schedule`` is the Smith order at the
operating-point price of its own demand moment, a fixed point the
iteration always reaches because that price stays in [floor, Pu].
Grid-search oracles in the validation suite measure how far each
approximation sits from the bound's true argmax; the measured gaps are
reported rather than hidden.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import RateModel, unicast_rate
from .demand import FileCatalog
from .errors import ConvergenceError, InvalidParameterError, PreconditionError
from .scheduler import (
    Schedule,
    bound_moments,
    check_bound_hypothesis,
    scheduled_demand_moment,
    smith_schedule,
    suboptimal_schedule,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 500
DEFAULT_FIXED_POINT_CAP = 1000
_VALIDITY_MARGIN = 1e-6
# A bound drop larger than this share of the revenue scale is not rounding.
_ASCENT_RTOL = 1e-12


@dataclass(frozen=True)
class CellConfig:
    """Normalized cell parameters.

    ``bandwidth`` counts frequency units, ``slots`` the time slots per
    interval; ``bc_cap_fraction`` caps the share of bandwidth the
    broadcast queue may take.
    """

    bandwidth: float
    slots: float
    n_users: int
    price_unicast: float
    rate_model: RateModel
    bc_cap_fraction: float = 1.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise InvalidParameterError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.slots <= 0:
            raise InvalidParameterError(f"slots must be > 0, got {self.slots}")
        if self.n_users < 0:
            raise InvalidParameterError(f"user count must be >= 0, got {self.n_users}")
        if self.price_unicast <= 0:
            raise InvalidParameterError(
                f"unicast price must be > 0, got {self.price_unicast}"
            )
        if not (0.0 < self.bc_cap_fraction <= 1.0):
            raise InvalidParameterError(
                f"bc_cap_fraction must be in (0, 1], got {self.bc_cap_fraction}"
            )

    @property
    def r_u(self) -> float:
        """Average unicast rate."""
        return unicast_rate(self.rate_model)

    @property
    def r_b(self) -> float:
        """Broadcast rate used in the analytic formulas: the large-group
        limit, i.e. the low-region rate."""
        return self.rate_model.r_low

    @property
    def bc_cap(self) -> float:
        return self.bc_cap_fraction * self.bandwidth

    @property
    def uc_only_revenue(self) -> float:
        return self.price_unicast * self.bandwidth * self.slots


@dataclass
class OptimizationResult:
    """Joint optimum: broadcast bandwidth, price, schedule, and metrics."""

    bc_bandwidth: float
    bc_price: float
    schedule: Schedule
    demand_moment: float
    gain_offset: float
    lower_bound: float
    gain: float
    iterations: int

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "bc_bandwidth": self.bc_bandwidth,
            "bc_price": self.bc_price,
            "schedule_order": (self.schedule.order + 1).tolist(),
            "demand_moment": self.demand_moment,
            "gain_offset": self.gain_offset,
            "lower_bound": self.lower_bound,
            "gain": self.gain,
            "iterations": self.iterations,
        }
        return json.dumps(payload, indent=indent)


def price_validity_floor(catalog: FileCatalog, cell: CellConfig) -> float:
    """Smallest admissible broadcast price, max(Pu/2, Pu - (1 - margin)/max f).

    The lower bound requires (Pu - Pb) * f_i < 1 for every file, and the
    closed-form price is never below Pu/2.
    """
    f_max = float(catalog.sizes.max())
    return max(0.5 * cell.price_unicast, cell.price_unicast - (1.0 - _VALIDITY_MARGIN) / f_max)


def lower_bound_revenue(
    catalog: FileCatalog, cell: CellConfig, price, bandwidth, schedule: Schedule,
) -> float | np.ndarray:
    """Analytic lower bound on average cell revenue.

    Pb * N * sum_i f_i p_i [1 - s_i theta_i r_u / (Wb r_b) * (1 - (Pu - Pb) f_i)]
    plus the fixed unicast term Pu (W - Wb) T, evaluated on the
    schedule's :func:`bound_moments` as Pb N (F - r_u/(Wb r_b) (D - (Pu - Pb) E)).
    Requires (Pu - Pb) f_i < 1 for all files and positive broadcast
    bandwidth (unless there are no users, in which case only the unicast
    term remains).

    Elementwise over arrays of ``price`` and ``bandwidth``, which
    broadcast against each other (a float for scalar inputs); a grid of
    G points costs O(M + G), and each point equals the scalar call bit
    for bit. Any grid point outside the hypothesis raises.
    """
    price = np.asarray(price, dtype=np.float64)
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    uc_term = cell.price_unicast * (cell.bandwidth - bandwidth) * cell.slots
    if cell.n_users == 0:
        value = np.broadcast_to(uc_term, np.broadcast_shapes(price.shape, bandwidth.shape))
        return value.copy() if value.ndim else float(value)
    if np.any(bandwidth <= 0):
        raise PreconditionError("broadcast bandwidth must be positive when users exist")
    check_bound_hypothesis(catalog, cell.price_unicast, price)
    d, e = bound_moments(catalog, schedule.s)
    cost = d - (cell.price_unicast - price) * e
    load = cell.r_u / (bandwidth * cell.r_b)
    value = price * cell.n_users * (catalog.mean_size - load * cost) + uc_term
    return value if value.ndim else float(value)


def closed_form_bandwidth(catalog: FileCatalog, cell: CellConfig) -> float:
    """One-shot bandwidth approximation min(N F / (4 Pu T), cap).

    Linear in the user count below the cap and independent of the
    broadcast rate and price.
    """
    return min(
        cell.n_users * catalog.mean_size / (4.0 * cell.price_unicast * cell.slots),
        cell.bc_cap,
    )


def price_pressure(catalog: FileCatalog, cell: CellConfig, demand_moment: float) -> float:
    """Demand pressure on the broadcast price, N r_b F^2 / (4 Pu T r_u S).

    Shared by the closed-form price (and through it the price-aware
    scheduler) and the revenue gain's saturation term.
    """
    return (
        cell.n_users * cell.r_b * catalog.mean_size ** 2
        / (4.0 * cell.price_unicast * cell.slots * cell.r_u * demand_moment)
    )


def closed_form_price(catalog: FileCatalog, cell: CellConfig, demand_moment: float) -> float:
    """One-shot price approximation min(0.5 (N r_b F^2 / (4 Pu T r_u S) + Pu), Pu).

    Always at least half the unicast price; non-decreasing in N.
    """
    if demand_moment <= 0:
        raise InvalidParameterError(f"demand moment must be > 0, got {demand_moment}")
    raw = 0.5 * (price_pressure(catalog, cell, demand_moment) + cell.price_unicast)
    return min(raw, cell.price_unicast)


def operating_point(catalog: FileCatalog, cell: CellConfig, schedule: Schedule):
    """Closed-form broadcast operating point for one (catalog, cell, schedule).

    The price is floored to the bound's validity region so revenue
    numbers stay well defined; returns (bandwidth, price, demand moment).
    """
    moment = scheduled_demand_moment(catalog, schedule)
    bandwidth = closed_form_bandwidth(catalog, cell)
    floor = price_validity_floor(catalog, cell)
    price = max(closed_form_price(catalog, cell, moment), floor)
    return bandwidth, price, moment


def optimal_schedule(
    catalog: FileCatalog, cell: CellConfig,
) -> tuple[Schedule, float, int]:
    """Price-aware scheduler: the Smith order at its own operating price.

    The weights w_i = theta_i p_i (1 - (Pu - Pb) f_i) are the Smith
    ratios at the :func:`operating_point` price Pb of the order they
    generate: the closed-form price of its demand moment S, floored to
    the bound's validity region. Starting from the suboptimal order,
    re-sort until the order repeats.

    The loop ends. With g = Pu - Pb the Smith order minimizes D - g E
    (:func:`bound_moments`), so a larger g >= 0 gives an order with no
    smaller E and hence no smaller D = S. The price lies in [floor, Pu]
    and is non-increasing in S, so g >= 0 is non-decreasing in S and the
    moments of successive orders move one way; an unchanged moment
    repeats the price and hence the order. ``DEFAULT_FIXED_POINT_CAP``
    only guards against near-ties at rounding level: reaching it raises
    ConvergenceError with the trace of moments.

    Returns (schedule, S, iterations), where S is the demand moment of
    the returned order.
    """
    current = suboptimal_schedule(catalog, cell.price_unicast)
    trace = []
    for it in range(1, DEFAULT_FIXED_POINT_CAP + 1):
        _, price, moment = operating_point(catalog, cell, current)
        trace.append(moment)
        nxt = smith_schedule(catalog, cell.price_unicast, price)
        if np.array_equal(nxt.order, current.order):
            return nxt, moment, it
        current = nxt
    raise ConvergenceError(
        f"price-aware scheduler found no fixed point in {DEFAULT_FIXED_POINT_CAP} iterations",
        trace=trace,
    )


def bound_argmax_bandwidth(
    catalog: FileCatalog, cell: CellConfig, price: float, schedule: Schedule,
) -> float:
    """Maximizer of the bound over bandwidth in (0, cap] at fixed price
    and schedule.

    Along the bandwidth the bound is A - B / Wb - Pu T Wb with
    B = Pb N (r_u / r_b) (D - (Pu - Pb) E), the schedule's Smith cost in
    its :func:`bound_moments`, so the argmax is sqrt(B / (Pu T)),
    projected onto the cap. Requires (Pu - Pb) f_i < 1 for every file.
    """
    if price <= 0:
        raise InvalidParameterError(f"price must be > 0, got {price}")
    check_bound_hypothesis(catalog, cell.price_unicast, price)
    d, e = bound_moments(catalog, schedule.s)
    cost = d - (cell.price_unicast - price) * e
    raw = math.sqrt(
        price * cell.n_users * cell.r_u * cost
        / (cell.r_b * cell.price_unicast * cell.slots)
    )
    return min(raw, cell.bc_cap)


def bound_argmax_price(
    catalog: FileCatalog, cell: CellConfig, bandwidth: float, schedule: Schedule,
) -> float:
    """Maximizer of the bound over price in [:func:`price_validity_floor`, Pu]
    at fixed bandwidth and schedule.

    Along the price the bound is a concave quadratic; with
    F = sum_i f_i p_i, k = r_u / (Wb r_b) and the schedule's
    :func:`bound_moments` D and E its vertex is (F - k (D - Pu E)) / (2 k E),
    projected onto that box.
    """
    if bandwidth <= 0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {bandwidth}")
    d, e = bound_moments(catalog, schedule.s)
    k = cell.r_u / (bandwidth * cell.r_b)
    raw = (catalog.mean_size - k * (d - cell.price_unicast * e)) / (2.0 * k * e)
    return min(max(raw, price_validity_floor(catalog, cell)), cell.price_unicast)


def gain_offset(catalog: FileCatalog, schedule: Schedule, demand_moment: float) -> float:
    """Offset G = 0.5 + sum(s theta p) / S in the revenue-gain formula."""
    if demand_moment <= 0:
        raise InvalidParameterError(f"demand moment must be > 0, got {demand_moment}")
    return 0.5 + float(schedule.s @ (catalog.theta * catalog.popularity)) / demand_moment


def revenue_gain(
    catalog: FileCatalog, cell: CellConfig, demand_moment: float, schedule: Schedule,
) -> float:
    """Closed-form revenue gain over a unicast-only cell.

    R = 1 + N F / (2 W T) * {min(N r_b F^2 / (4 Pu^2 T r_u S), 1) + 1 - G / Pu}.
    Equals 1 with no users; exceeds 1 whenever Pu > G and N > 0.
    """
    g = gain_offset(catalog, schedule, demand_moment)
    saturation = min(price_pressure(catalog, cell, demand_moment) / cell.price_unicast, 1.0)
    lever = cell.n_users * catalog.mean_size / (2.0 * cell.bandwidth * cell.slots)
    return 1.0 + lever * (saturation + 1.0 - g / cell.price_unicast)


def fixed_point_residuals(
    catalog: FileCatalog, cell: CellConfig, result: OptimizationResult,
) -> tuple[float, float]:
    """How far a result sits from the bound's projected coordinate argmaxes.

    Re-applies :func:`bound_argmax_bandwidth` and :func:`bound_argmax_price`
    (with the same projections ``joint_optimize`` uses) at the Smith order
    for the result's price and returns the absolute changes. Both are ~0
    at a genuine fixed point.
    """
    sched = smith_schedule(catalog, cell.price_unicast, result.bc_price)
    w = bound_argmax_bandwidth(catalog, cell, result.bc_price, sched)
    p = bound_argmax_price(catalog, cell, result.bc_bandwidth, sched)
    return abs(w - result.bc_bandwidth), abs(p - result.bc_price)


def joint_optimize(catalog: FileCatalog, cell: CellConfig) -> OptimizationResult:
    """Block-coordinate ascent of the bound over {schedule, bandwidth, price}.

    Each iteration takes the bound's exact maximizer along one coordinate
    at a time: the Smith order at the current price, then
    :func:`bound_argmax_bandwidth`, then :func:`bound_argmax_price`. The
    price box is [:func:`price_validity_floor`, Pu] so the bound stays
    defined and the price never leaves its admissible range. The ascent
    starts from the :func:`operating_point` of the suboptimal schedule,
    so the result's bound is never below that point's.

    The bound is evaluated after every iteration; a drop beyond rounding
    (relative ``_ASCENT_RTOL`` of the larger of the bound and the
    unicast-only revenue) raises ConvergenceError naming the iteration.
    Stops when consecutive (bandwidth, price) moves fall below
    ``DEFAULT_TOL``; raises ConvergenceError after ``DEFAULT_MAX_ITERS``
    iterations otherwise. Both errors carry the iterate trace
    of (bandwidth, price, bound) triples.
    """
    sched = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, moment = operating_point(catalog, cell, sched)
    if cell.n_users == 0:
        return OptimizationResult(
            bc_bandwidth=bandwidth,
            bc_price=price,
            schedule=sched,
            demand_moment=moment,
            gain_offset=gain_offset(catalog, sched, moment),
            lower_bound=cell.uc_only_revenue,
            gain=1.0,
            iterations=0,
        )

    bound = lower_bound_revenue(catalog, cell, price, bandwidth, sched)
    bandwidth = None
    trace = []
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        sched = smith_schedule(catalog, cell.price_unicast, price)
        new_bandwidth = bound_argmax_bandwidth(catalog, cell, price, sched)
        new_price = bound_argmax_price(catalog, cell, new_bandwidth, sched)
        new_bound = lower_bound_revenue(catalog, cell, new_price, new_bandwidth, sched)
        trace.append((new_bandwidth, new_price, new_bound))
        if new_bound < bound - _ASCENT_RTOL * max(abs(bound), cell.uc_only_revenue):
            raise ConvergenceError(
                f"revenue bound fell at iteration {it}: {bound!r} -> {new_bound!r}",
                trace=trace,
            )
        bound = new_bound
        if (
            bandwidth is not None
            and abs(new_bandwidth - bandwidth) < DEFAULT_TOL
            and abs(new_price - price) < DEFAULT_TOL
        ):
            bandwidth, price = new_bandwidth, new_price
            break
        bandwidth, price = new_bandwidth, new_price
    else:
        raise ConvergenceError(
            f"joint optimization did not converge in {DEFAULT_MAX_ITERS} iterations",
            trace=trace,
        )

    moment = scheduled_demand_moment(catalog, sched)
    return OptimizationResult(
        bc_bandwidth=bandwidth,
        bc_price=price,
        schedule=sched,
        demand_moment=moment,
        gain_offset=gain_offset(catalog, sched, moment),
        lower_bound=bound,
        gain=revenue_gain(catalog, cell, moment, sched),
        iterations=it,
    )
