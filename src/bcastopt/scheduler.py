"""Broadcast queue ordering.

The queue cost is a weighted-completion-size objective, so a Smith-rule
sort (weight over processing size, descending) is exactly optimal for a
fixed price. The price-aware "optimal" scheduler re-derives its weights
from the schedule they induce, which makes it a small fixed-point
iteration; the closed-form "suboptimal" scheduler freezes the price at
its lower boundary and needs no iteration.
"""
from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .demand import FileCatalog
from .errors import InvalidParameterError, InvalidPermutationError, PreconditionError

DEFAULT_FIXED_POINT_CAP = 1000


def _validate_order(order, n) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise InvalidPermutationError(
            f"order must be a permutation of 0..{n - 1}, got {order!r}"
        )
    return order


def cumulative_sizes(order, sizes) -> np.ndarray:
    """Completion size of each file under ``order``.

    Returned array is indexed by file: entry i is the total size
    transmitted once file i finishes, file i itself included.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    order = _validate_order(order, len(sizes))
    cum = np.cumsum(sizes[order])
    s = np.empty_like(cum)
    s[order] = cum
    return s


@dataclass
class Schedule:
    """A broadcast order plus the completion sizes it induces.

    ``order[k]`` is the (0-based) file transmitted in slot position k;
    ``s[i]`` is file i's completion size.
    """

    order: np.ndarray
    s: np.ndarray
    weights: np.ndarray | None = None
    converged: bool = True
    iterations: int = 1

    def __post_init__(self):
        self.order = _validate_order(self.order, len(self.s))

    @classmethod
    def from_order(cls, order, catalog: FileCatalog, weights=None, **kw) -> "Schedule":
        return cls(order=np.asarray(order, dtype=np.int64),
                   s=cumulative_sizes(order, catalog.sizes),
                   weights=weights, **kw)

    @property
    def one_based_order(self) -> np.ndarray:
        return self.order + 1


def _sort_descending(weights) -> np.ndarray:
    # Stable sort: ties broken by ascending file index.
    return np.argsort(-np.asarray(weights, dtype=np.float64), kind="stable")


def smith_weight_ratios(catalog: FileCatalog, price_unicast, price_broadcast) -> np.ndarray:
    """Per-file Smith ratios theta * p * (1 - (Pu - Pb) * f)."""
    gap = price_unicast - price_broadcast
    return catalog.theta * catalog.popularity * (1.0 - gap * catalog.sizes)


def smith_schedule(catalog: FileCatalog, price_unicast, price_broadcast) -> Schedule:
    """Exact best-response order for a fixed broadcast price (Smith's rule)."""
    w = smith_weight_ratios(catalog, price_unicast, price_broadcast)
    return Schedule.from_order(_sort_descending(w), catalog, weights=w)


def suboptimal_schedule(catalog: FileCatalog, price_unicast) -> Schedule:
    """Closed-form order: descending theta * p * (1 - Pu * f / 2).

    Equals the Smith order with the broadcast price frozen at half the
    unicast price, so it needs no knowledge of the cell.
    """
    return smith_schedule(catalog, price_unicast, price_unicast / 2.0)


def popularity_schedule(catalog: FileCatalog) -> Schedule:
    """Scheduler-off baseline: descending popularity."""
    w = catalog.popularity.astype(np.float64)
    return Schedule.from_order(_sort_descending(w), catalog, weights=w)


def smith_cost(order, catalog: FileCatalog, price_unicast, price_broadcast) -> float:
    """Weighted-completion objective sum_i s_i * theta_i * f_i * p_i * (1 - (Pu-Pb) f_i).

    Requires (Pu - Pb) * f_i < 1 for every file.
    """
    gap = price_unicast - price_broadcast
    bad = np.flatnonzero(gap * catalog.sizes >= 1.0)
    if bad.size:
        raise PreconditionError(
            f"(Pu - Pb) * f_i < 1 violated for files {list(bad + 1)} "
            f"(gap={gap}, sizes={catalog.sizes[bad]})"
        )
    s = cumulative_sizes(order, catalog.sizes)
    c = catalog.theta * catalog.sizes * catalog.popularity * (1.0 - gap * catalog.sizes)
    return float(s @ c)


def brute_force_best_order(catalog: FileCatalog, price_unicast, price_broadcast):
    """Exhaustive minimizer of :func:`smith_cost` over all orders.

    Independent oracle for small catalogs; cost grows factorially.
    Returns (best order, minimal cost).
    """
    n = catalog.size
    if n > 9:
        raise InvalidParameterError(f"brute force limited to 9 files, got {n}")
    gap = price_unicast - price_broadcast
    if np.any(gap * catalog.sizes >= 1.0):
        raise PreconditionError("(Pu - Pb) * f_i < 1 violated")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    c = catalog.theta * catalog.sizes * catalog.popularity * (1.0 - gap * catalog.sizes)
    completion = np.cumsum(catalog.sizes[perms], axis=1)
    costs = (completion * c[perms]).sum(axis=1)
    k = int(np.argmin(costs))
    return perms[k].copy(), float(costs[k])


def scheduled_demand_moment(catalog: FileCatalog, schedule: Schedule) -> float:
    """Schedule-weighted demand moment sum_i s_i * theta_i * f_i * p_i."""
    return float(schedule.s @ (catalog.theta * catalog.sizes * catalog.popularity))


def optimal_schedule(catalog: FileCatalog, cell, max_iters: int = DEFAULT_FIXED_POINT_CAP):
    """Price-aware scheduler: fixed point of the self-referential weights.

    Weights w_i = theta_i p_i {1 - (f_i/2)(Pu - N r_b F^2 / (4 Pu T r_u S))}
    depend on the demand moment S of the order they generate. Iterate
    from the closed-form order, re-sorting until stable. On oscillation
    the best order seen (by the revenue lower bound at its own
    closed-form operating point) is returned, flagged not converged.

    Returns (Schedule, S) where S is the demand moment of the returned order.
    """
    from .optimizer import lower_bound_revenue, operating_point, price_pressure

    def weights_for(moment: float) -> np.ndarray:
        pressure = price_pressure(catalog, cell, moment)
        bracket = 1.0 - (catalog.sizes / 2.0) * (cell.price_unicast - pressure)
        return catalog.theta * catalog.popularity * bracket

    current = suboptimal_schedule(catalog, cell.price_unicast)
    seen = {tuple(current.order)}
    best = current
    best_moment = scheduled_demand_moment(catalog, current)
    best_bound = None
    for it in range(1, max_iters + 1):
        moment = scheduled_demand_moment(catalog, current)
        w = weights_for(moment)
        nxt_order = _sort_descending(w)
        if np.array_equal(nxt_order, current.order):
            current.weights = w
            current.converged = True
            current.iterations = it
            return current, moment
        if best_bound is None:
            bandwidth, price, _ = operating_point(catalog, cell, current)
            best_bound = lower_bound_revenue(catalog, cell, price, bandwidth, current)
        nxt = Schedule.from_order(nxt_order, catalog, weights=w)
        bandwidth, price, nxt_moment = operating_point(catalog, cell, nxt)
        nxt_bound = lower_bound_revenue(catalog, cell, price, bandwidth, nxt)
        if nxt_bound > best_bound:
            best, best_moment, best_bound = nxt, nxt_moment, nxt_bound
        key = tuple(nxt_order)
        if key in seen:
            best.converged = False
            best.iterations = it
            return best, best_moment
        seen.add(key)
        current = nxt
    best.converged = False
    best.iterations = max_iters
    return best, best_moment


def schedule_to_csv(schedule: Schedule, catalog: FileCatalog) -> str:
    """Schedule export with columns (position, file, f_i, s_i, weight)."""
    buf = io.StringIO()
    buf.write("position,file,f_i,s_i,weight\n")
    weights = schedule.weights
    for pos, fidx in enumerate(schedule.order):
        w = "" if weights is None else f"{weights[fidx]:.12g}"
        buf.write(
            f"{pos + 1},{fidx + 1},{catalog.sizes[fidx]:.12g},{schedule.s[fidx]:.12g},{w}\n"
        )
    return buf.getvalue()
