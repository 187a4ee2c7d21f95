"""The paper's revenue bound, closed-form optima, the price-aware
scheduler, coordinate maps, and the joint block-coordinate ascent.

The analytic objective is the paper's bound on realized revenue, defined
while the price discount times any file size stays below one; prices
never go below ``price_validity_floor`` (at least Pu/2). It is not
always a lower bound: on small catalogs it was measured above the exact
E[Y] >= E[R] of ``payoff.expected_revenue``. A schedule enters the
bound only through the moments D = sum s theta f p and E = sum s theta
f^2 p (``bound_moments``): with k = r_u / (Wb r_b) the bound is
Pb N (F - k C(Pb)) + Pu (W - Wb) T, where C(Pb) = D - (Pu - Pb) E is the
Smith cost. The closed-form bandwidth/price optima are one-shot
approximations. Along each of its coordinates the bound has a
closed-form maximizer: the Smith order for the schedule,
``bound_argmax_bandwidth`` for the bandwidth and ``bound_argmax_price``
for the price. ``joint_optimize`` alternates these three while the
bound rises, so no step lowers it, and stops at the first step that does
not raise it. ``optimal_schedule`` is the Smith order at the
operating-point price of its own demand moment, reached by re-sorting
while that price rises, which it does at most finitely often.
Grid-search oracles in the validation suite measure how far each
approximation sits from the bound's true argmax; the measured gaps are
reported rather than hidden.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import unicast_rate
from .demand import FileCatalog
from .errors import InvalidParameterError, PreconditionError
from .scheduler import (
    Schedule,
    bound_moments,
    smith_cost_at,
    smith_schedule,
    suboptimal_schedule,
)

_VALIDITY_MARGIN = 1e-6
# A bound drop larger than this share of the revenue scale is not rounding.
_ASCENT_RTOL = 1e-12


@dataclass(frozen=True)
class CellConfig:
    """Normalized cell parameters.

    ``bandwidth`` counts frequency units, ``slots`` the time slots per
    interval; ``bc_cap_fraction`` caps the share of bandwidth the
    broadcast queue may take. The rates come from the catalog's
    ``rate_model``: r_u is its :func:`~bcastopt.channel.unicast_rate`
    and the broadcast plan rate r_b its low-region rate ``r_low``.
    """

    bandwidth: float
    slots: float
    n_users: int
    price_unicast: float
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

    def to_json(self) -> str:
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
        return json.dumps(payload, indent=2)


def price_validity_floor(catalog: FileCatalog, cell: CellConfig) -> float:
    """Smallest admissible broadcast price, max(Pu/2, Pu - (1 - margin)/max f).

    The bound requires (Pu - Pb) * f_i < 1 for every file, and the
    closed-form price is never below Pu/2.
    """
    f_max = float(catalog.sizes.max())
    return max(0.5 * cell.price_unicast, cell.price_unicast - (1.0 - _VALIDITY_MARGIN) / f_max)


def lower_bound_revenue(
    catalog: FileCatalog, cell: CellConfig, price, bandwidth, schedule: Schedule,
) -> float | np.ndarray:
    """The paper's analytic bound on average cell revenue.

    Pb * N * sum_i f_i p_i [1 - s_i theta_i r_u / (Wb r_b) * (1 - (Pu - Pb) f_i)]
    plus the fixed unicast term Pu (W - Wb) T, evaluated on the
    schedule's :func:`bound_moments` as Pb N (F - r_u/(Wb r_b) (D - (Pu - Pb) E)).
    Requires (Pu - Pb) f_i < 1 for all files and positive broadcast
    bandwidth (unless there are no users, in which case only the unicast
    term remains). It was measured above the exact E[Y] >= E[R] of
    ``payoff.expected_revenue`` on small catalogs (seven-cell M = 8, N = 100).

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
    cost = smith_cost_at(catalog, schedule.s, cell.price_unicast, price)
    load = unicast_rate(catalog.rate_model) / (bandwidth * catalog.rate_model.r_low)
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
    rates = catalog.rate_model
    return (
        cell.n_users * rates.r_low * catalog.mean_size ** 2
        / (4.0 * cell.price_unicast * cell.slots * unicast_rate(rates) * demand_moment)
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
    moment = bound_moments(catalog, schedule.s)[0]
    bandwidth = closed_form_bandwidth(catalog, cell)
    floor = price_validity_floor(catalog, cell)
    price = max(closed_form_price(catalog, cell, moment), floor)
    return bandwidth, price, moment


def optimal_schedule(catalog: FileCatalog, cell: CellConfig) -> Schedule:
    """Price-aware scheduler: the Smith order at its own operating price.

    The weights w_i = theta_i p_i (1 - (Pu - Pb) f_i) are the Smith
    ratios at the :func:`operating_point` price Pb of the order they
    generate. From the suboptimal order (the Smith order at Pu/2),
    re-sort at the current order's price while that price rises.

    With g = Pu - Pb the Smith order minimizes D - g E
    (:func:`bound_moments`), so a higher price gives an order with no
    larger E, hence no larger S = D and no lower operating price: the
    loop climbs a monotone map from its least point Pu/2 (Tarski, 1955).
    Its prices are those of finitely many orders and strictly rise, so
    it ends, at a repeated price: the fixed point. Should rounding make
    the price fall, the Smith order at the highest price is returned.
    """
    price = cell.price_unicast / 2.0
    current = suboptimal_schedule(catalog, cell.price_unicast)
    while (next_price := operating_point(catalog, cell, current)[1]) > price:
        price = next_price
        current = smith_schedule(catalog, cell.price_unicast, price)
    return current


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
    cost = smith_cost_at(catalog, schedule.s, cell.price_unicast, price)
    rates = catalog.rate_model
    raw = math.sqrt(
        price * cell.n_users * unicast_rate(rates) * cost
        / (rates.r_low * cell.price_unicast * cell.slots)
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
    k = unicast_rate(catalog.rate_model) / (bandwidth * catalog.rate_model.r_low)
    raw = (catalog.mean_size - k * (d - cell.price_unicast * e)) / (2.0 * k * e)
    return min(max(raw, price_validity_floor(catalog, cell)), cell.price_unicast)


def gain_offset(catalog: FileCatalog, schedule: Schedule) -> float:
    """Offset G = 0.5 + sum(s theta p) / S in the revenue-gain formula,
    with S the schedule's demand moment (:func:`bound_moments`)."""
    moment = bound_moments(catalog, schedule.s)[0]
    return 0.5 + float(schedule.s @ (catalog.theta * catalog.popularity)) / moment


def revenue_gain(catalog: FileCatalog, cell: CellConfig, schedule: Schedule) -> float:
    """Closed-form revenue gain over a unicast-only cell.

    R = 1 + N F / (2 W T) * {min(N r_b F^2 / (4 Pu^2 T r_u S), 1) + 1 - G / Pu}
    on the schedule's demand moment S and :func:`gain_offset` G. Equals 1
    with no users; exceeds 1 whenever Pu > G and N > 0.
    """
    moment = bound_moments(catalog, schedule.s)[0]
    saturation = min(price_pressure(catalog, cell, moment) / cell.price_unicast, 1.0)
    lever = cell.n_users * catalog.mean_size / (2.0 * cell.bandwidth * cell.slots)
    return 1.0 + lever * (saturation + 1.0 - gain_offset(catalog, schedule) / cell.price_unicast)


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

    Each step takes the bound's exact maximizer along one coordinate at a
    time: the Smith order at the current price, then
    :func:`bound_argmax_bandwidth`, then :func:`bound_argmax_price`. The
    price box is [:func:`price_validity_floor`, Pu] so the bound stays
    defined and the price never leaves its admissible range. The ascent
    starts from the :func:`operating_point` of the suboptimal schedule,
    so the result's bound is never below that point's.

    It steps while the bound rises and returns the iterate of the first
    step that does not raise it; ``iterations`` counts the steps, that
    last one included. Every earlier step raised the bound to a strictly
    larger double, and the bound stays below Pu N F + Pu W T, so the
    loop ends. Its limit is coordinatewise (Tseng, JOTA 2001), not
    necessarily the bound's global maximum. A drop beyond rounding
    (relative ``_ASCENT_RTOL`` of the larger of the bound and the
    unicast-only revenue) breaks the ascent's invariant and raises
    AssertionError naming the iteration and both bounds. With no users
    the starting point is returned after 0 iterations: its bound is the
    unicast-only revenue and its gain 1.
    """
    sched = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, sched)
    bound = lower_bound_revenue(catalog, cell, price, bandwidth, sched)
    it = 0
    rising = cell.n_users > 0
    while rising:
        it += 1
        sched = smith_schedule(catalog, cell.price_unicast, price)
        bandwidth = bound_argmax_bandwidth(catalog, cell, price, sched)
        price = bound_argmax_price(catalog, cell, bandwidth, sched)
        new_bound = lower_bound_revenue(catalog, cell, price, bandwidth, sched)
        if new_bound < bound - _ASCENT_RTOL * max(abs(bound), cell.uc_only_revenue):
            # every step is an exact coordinate maximizer, so a drop is a bug
            raise AssertionError(
                f"revenue bound fell at iteration {it}: {bound!r} -> {new_bound!r}")
        rising, bound = new_bound > bound, new_bound

    return OptimizationResult(
        bc_bandwidth=bandwidth,
        bc_price=price,
        schedule=sched,
        demand_moment=bound_moments(catalog, sched.s)[0],
        gain_offset=gain_offset(catalog, sched),
        lower_bound=bound,
        gain=revenue_gain(catalog, cell, sched),
        iterations=it,
    )
