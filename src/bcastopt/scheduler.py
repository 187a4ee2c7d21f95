"""Broadcast queue ordering.

The queue cost is a weighted-completion-size objective, so a Smith-rule
sort (weight over processing size, descending) is exactly optimal for a
fixed price. The closed-form "suboptimal" scheduler freezes the price at
its lower boundary and needs no iteration; the price-aware "optimal"
scheduler needs the revenue bound and lives in ``optimizer``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import FileCatalog
from .errors import InvalidParameterError, PreconditionError


def _validate_order(order, n) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise InvalidParameterError(
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


@dataclass(frozen=True)
class Schedule:
    """A broadcast order, the completion sizes it induces, and the
    weights it was sorted by.

    ``order[k]`` is the (0-based) file transmitted in slot position k;
    ``s[i]`` is file i's completion size.
    """

    order: np.ndarray
    s: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", _validate_order(self.order, len(self.s)))

    @classmethod
    def from_order(cls, order, catalog: FileCatalog, weights) -> "Schedule":
        return cls(order=order, s=cumulative_sizes(order, catalog.sizes), weights=weights)


def smith_weight_ratios(catalog: FileCatalog, price_unicast, price_broadcast) -> np.ndarray:
    """Per-file Smith ratios theta * p * (1 - (Pu - Pb) * f)."""
    gap = price_unicast - price_broadcast
    return catalog.theta * catalog.popularity * (1.0 - gap * catalog.sizes)


def smith_schedule(catalog: FileCatalog, price_unicast, price_broadcast) -> Schedule:
    """Exact best-response order for a fixed broadcast price (Smith's rule)."""
    w = smith_weight_ratios(catalog, price_unicast, price_broadcast)
    return Schedule.from_order(np.argsort(-w, kind="stable"), catalog, weights=w)


def suboptimal_schedule(catalog: FileCatalog, price_unicast) -> Schedule:
    """Closed-form order: descending theta * p * (1 - Pu * f / 2).

    Equals the Smith order with the broadcast price frozen at half the
    unicast price, so it needs no knowledge of the cell.
    """
    return smith_schedule(catalog, price_unicast, price_unicast / 2.0)


def popularity_schedule(catalog: FileCatalog) -> Schedule:
    """Scheduler-off baseline: the catalog's ``processing_order``."""
    return Schedule.from_order(catalog.processing_order, catalog, weights=catalog.popularity)


def check_bound_hypothesis(catalog: FileCatalog, price_unicast, price) -> None:
    """Raise PreconditionError unless (Pu - Pb) * f_i < 1 for every file,
    at every price of an array; names the files (1-based) and the first
    violating price. Rounding is monotone, so the largest file decides."""
    price = np.asarray(price, dtype=np.float64)
    gap = price_unicast - price
    bad = gap * catalog.sizes.max() >= 1.0
    if bad.any():
        point = np.unravel_index(np.argmax(bad), price.shape)
        files = np.flatnonzero(gap[point] * catalog.sizes >= 1.0) + 1
        raise PreconditionError(
            f"(Pu - Pb) * f_i < 1 violated for files {files.tolist()} "
            f"at price {price[point]}"
        )


def bound_moments(catalog: FileCatalog, s) -> tuple[float, float]:
    """Moments D = sum_i s_i theta_i f_i p_i and E = sum_i s_i theta_i f_i^2 p_i
    of completion sizes ``s``; the Smith cost at price Pb is D - (Pu - Pb) E."""
    tfp = catalog.theta * catalog.sizes * catalog.popularity
    return float(s @ tfp), float(s @ (tfp * catalog.sizes))


def smith_cost_at(catalog: FileCatalog, s, price_unicast, price):
    """Smith cost D - (Pu - Pb) E of completion sizes ``s`` (:func:`bound_moments`),
    elementwise over an array of prices Pb. Requires (Pu - Pb) * f_i < 1."""
    check_bound_hypothesis(catalog, price_unicast, price)
    d, e = bound_moments(catalog, s)
    return d - (price_unicast - price) * e


def smith_cost(order, catalog: FileCatalog, price_unicast, price_broadcast) -> float:
    """Weighted-completion objective sum_i s_i * theta_i * f_i * p_i * (1 - (Pu-Pb) f_i)
    of ``order``: its :func:`smith_cost_at`."""
    return smith_cost_at(catalog, cumulative_sizes(order, catalog.sizes),
                         price_unicast, price_broadcast)


def brute_force_best_order(catalog: FileCatalog, price_unicast, price_broadcast):
    """Exact minimizer of :func:`smith_cost` over all orders, found without
    Smith's rule.

    Independent oracle for small catalogs: a dynamic programme over the
    set R of files still to send (Held and Karp), O(2^n n) steps. Sending
    R starts at total - size(R), so
    best(R) = min_j [c_j (total - size(R) + f_j) + best(R - {j})]
    with c_j the file's Smith cost weight. Ties go to the smallest j, so of
    the orders the programme finds equally cheap it returns the first in
    itertools.permutations order. Returns (best order, its cost), the cost
    summed along the order as :func:`numpy.cumsum` and one row sum give it.
    """
    n = catalog.size
    if n > 9:
        raise InvalidParameterError(f"brute force limited to 9 files, got {n}")
    check_bound_hypothesis(catalog, price_unicast, price_broadcast)
    gap = price_unicast - price_broadcast
    c = catalog.theta * catalog.sizes * catalog.popularity * (1.0 - gap * catalog.sizes)
    f, w, total = catalog.sizes.tolist(), c.tolist(), float(catalog.sizes.sum())
    best, head = [0.0], [0]  # indexed by the bit mask of R: least cost, first file
    for rest in range(1, 1 << n):
        files = [j for j in range(n) if rest >> j & 1]
        start = total - sum(f[j] for j in files)
        cost, j = min((w[j] * (start + f[j]) + best[rest ^ 1 << j], j) for j in files)
        best.append(cost)
        head.append(j)
    order, rest = [], (1 << n) - 1
    while rest:
        order.append(head[rest])
        rest ^= 1 << head[rest]
    order = np.array(order, dtype=np.int64)
    return order, float((np.cumsum(catalog.sizes[order]) * c[order]).sum())
