"""Per-user payoffs, the service-assignment policy, and the Monte Carlo
revenue estimator.

A user's payoff grows with file size, falls logarithmically with the
delay beyond their threshold, and falls linearly with the bill. The
station assigns broadcast only to users whose broadcast payoff is at
least their unicast payoff, so no served user ever does worse than the
unicast default.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .channel import sample_user_rates
from .demand import FileCatalog, sample_requests
from .errors import InvalidParameterError, PayoffDomainError

# Per-user outcomes of :func:`assign_services`.
UNICAST, BROADCAST, UNSERVED = 0, 1, 2


@dataclass(frozen=True)
class PricePair:
    """Per-normalized-bit prices; broadcast is discounted, never premium."""

    unicast: float
    broadcast: float

    def __post_init__(self):
        if not (0.0 <= self.broadcast <= self.unicast):
            raise InvalidParameterError(
                f"need 0 <= broadcast <= unicast, got {self.broadcast}, {self.unicast}"
            )


def _check_delay_term(denom, expression: str):
    """Raise PayoffDomainError naming the first non-positive entry of ``denom``."""
    bad = np.ravel(denom <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise PayoffDomainError(
            f"delay term non-positive at element {k}: "
            f"{expression} = {float(np.ravel(denom)[k])!r}"
        )


def unicast_payoff(size, threshold, rate, price):
    """log((1 + f) / (f/r - t)) - Pu * f for a unicast download.

    Elementwise over numpy arrays (a float for scalar inputs). The
    download time f/r must exceed the threshold t, otherwise the payoff
    model does not apply and a domain error is raised.
    """
    denom = size / rate - threshold
    _check_delay_term(denom, "size/rate - threshold")
    value = np.log((1.0 + size) / denom) - price * size
    return value if np.ndim(value) else float(value)


def broadcast_payoff(size, threshold, bc_rate, completed_size, bandwidth, price):
    """log((1 + f) / (s/(Wb*rb) - t)) - Pb * f for a broadcast download.

    Elementwise over numpy arrays (a float for scalar inputs).
    ``completed_size`` is the cumulative queue size through this file,
    so s/(Wb*rb) is its completion delay; it must exceed the threshold.
    """
    if bandwidth <= 0:
        raise InvalidParameterError(f"broadcast bandwidth must be > 0, got {bandwidth}")
    denom = completed_size / (bandwidth * bc_rate) - threshold
    _check_delay_term(denom, "s/(Wb*rb) - threshold")
    value = np.log((1.0 + size) / denom) - price * size
    return value if np.ndim(value) else float(value)


def assign_services(demand, eligible, pool) -> np.ndarray:
    """Station-side assignment of users, taken in the given order.

    ``demand`` holds each user's unicast need in pool units (whole
    numbers >= 1), ``eligible`` whether their broadcast payoff is at
    least their unicast payoff, and ``pool`` the unicast capacity. A
    user gets UNICAST when their demand fits in what is left of the pool,
    because unicast pays more; otherwise BROADCAST if eligible, else
    UNSERVED. Users who would lose payoff on broadcast are never assigned
    it. The scan stops once the leftover is below every remaining demand.
    """
    demand = np.asarray(demand, dtype=np.float64)
    assigned = np.where(eligible, BROADCAST, UNSERVED).astype(np.int8)
    smallest_left = np.minimum.accumulate(demand[::-1])[::-1].tolist()
    remaining = pool
    for k, need in enumerate(demand.tolist()):
        if remaining < smallest_left[k]:
            break
        if need <= remaining:
            assigned[k] = UNICAST
            remaining -= need
    return assigned


@dataclass
class SimulationReport:
    """Monte Carlo estimate of realized cell revenue and policy statistics."""

    revenue_mean: float
    revenue_stderr: float
    bc_user_fraction: float
    payoff_guarantee_violations: int
    trials: int
    seed: int | None
    n_users: int
    uc_revenue: float
    uc_user_fraction: float
    unserved_user_fraction: float
    mean_payoff_policy: float
    mean_payoff_uc_baseline: float
    uc_demand_shortfall_trials: int
    unrequested_scheduled_mean: float
    bc_rate_realized_mean: float

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)


def simulate_revenue(
    catalog: FileCatalog,
    cell,
    prices: PricePair,
    bc_bandwidth: float,
    schedule,
    trials: int,
    seed=None,
) -> SimulationReport:
    """Estimate realized revenue under the assignment policy.

    Each trial redraws request counts, user positions, and delay
    thresholds. Users are processed in popularity order; each unicast
    grant consumes one frequency unit for ceil(f/r) slots out of the
    (W - Wb) * T pool (see :func:`assign_services`). Per-user broadcast
    payoffs are evaluated at the conservative plan rate ``cell.r_b`` (the
    low-region rate); the rate the broadcast group actually realizes, the
    lowest rate among its users, is reported separately.

    Revenue decomposes exactly as Pb * sum_i f_i * (broadcast count of i)
    plus the fixed unicast term Pu * (W - Wb) * T. Trials use independent
    child streams of ``seed``, so results do not depend on execution
    order.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not (0.0 <= bc_bandwidth <= cell.bandwidth):
        raise InvalidParameterError(
            f"broadcast bandwidth must lie in [0, W], got {bc_bandwidth}"
        )
    n_users = cell.n_users
    uc_revenue = prices.unicast * (cell.bandwidth - bc_bandwidth) * cell.slots
    uc_pool = (cell.bandwidth - bc_bandwidth) * cell.slots

    if n_users == 0:
        # Only the fixed unicast term remains; exact, zero variance.
        return SimulationReport(
            revenue_mean=uc_revenue, revenue_stderr=0.0, bc_user_fraction=0.0,
            payoff_guarantee_violations=0, trials=trials,
            seed=seed if isinstance(seed, int) or seed is None else None,
            n_users=0, uc_revenue=uc_revenue, uc_user_fraction=0.0,
            unserved_user_fraction=0.0, mean_payoff_policy=float("nan"),
            mean_payoff_uc_baseline=float("nan"), uc_demand_shortfall_trials=0,
            unrequested_scheduled_mean=float(catalog.size),
            bc_rate_realized_mean=float("nan"),
        )

    proc_order = np.argsort(-catalog.popularity, kind="stable")
    sizes = catalog.sizes
    lo = catalog.delay_lo
    hi = catalog.delay_hi
    s = schedule.s

    revenues = np.empty(trials)
    bc_frac = np.zeros(trials)
    uc_frac = np.zeros(trials)
    unserved_frac = np.zeros(trials)
    policy_payoffs = []
    baseline_payoffs = []
    violations = 0
    shortfall_trials = 0
    unrequested = np.zeros(trials)
    realized_rates = []

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(trials)
    for t, stream in enumerate(streams):
        gen = np.random.default_rng(stream)
        counts = sample_requests(catalog, n_users, gen)
        unrequested[t] = np.count_nonzero(counts == 0)
        ufile = np.repeat(proc_order, counts[proc_order])
        rate_u = sample_user_rates(catalog.rate_model, n_users, gen)
        thr = gen.uniform(lo[ufile], hi[ufile])
        f = sizes[ufile]

        try:
            payoff_uc = unicast_payoff(f, thr, rate_u, prices.unicast)
            if bc_bandwidth > 0.0:
                payoff_bc = broadcast_payoff(
                    f, thr, cell.r_b, s[ufile], bc_bandwidth, prices.broadcast
                )
                eligible = payoff_bc >= payoff_uc
            else:
                payoff_bc = np.full(n_users, -np.inf)
                eligible = np.zeros(n_users, dtype=bool)
        except PayoffDomainError as exc:
            raise PayoffDomainError(f"trial {t}: {exc}") from exc

        demand = np.ceil(f / rate_u)
        if demand.sum() < uc_pool:
            shortfall_trials += 1
        assigned = assign_services(demand, eligible, uc_pool)

        bc_mask = assigned == BROADCAST
        uc_mask = assigned == UNICAST
        served = bc_mask | uc_mask
        violations += int(np.count_nonzero(bc_mask & (payoff_bc < payoff_uc)))

        revenues[t] = uc_revenue + prices.broadcast * float(f[bc_mask].sum())
        bc_frac[t] = bc_mask.sum() / n_users
        uc_frac[t] = uc_mask.sum() / n_users
        unserved_frac[t] = 1.0 - bc_frac[t] - uc_frac[t]
        if served.any():
            realized = np.where(bc_mask, payoff_bc, payoff_uc)[served]
            policy_payoffs.append(realized.mean())
            baseline_payoffs.append(payoff_uc[served].mean())
        if bc_mask.any():
            realized_rates.append(float(rate_u[bc_mask].min()))

    if shortfall_trials:
        warnings.warn(
            f"unicast demand fell below capacity in {shortfall_trials}/{trials} trials; "
            "the fixed unicast revenue term still assumes a sold-out pool",
            stacklevel=2,
        )
    stderr = float(revenues.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(
        revenue_mean=float(revenues.mean()),
        revenue_stderr=stderr,
        bc_user_fraction=float(bc_frac.mean()),
        payoff_guarantee_violations=violations,
        trials=trials,
        seed=seed if isinstance(seed, int) or seed is None else None,
        n_users=n_users,
        uc_revenue=uc_revenue,
        uc_user_fraction=float(uc_frac.mean()),
        unserved_user_fraction=float(unserved_frac.mean()),
        mean_payoff_policy=float(np.mean(policy_payoffs)) if policy_payoffs else float("nan"),
        mean_payoff_uc_baseline=(
            float(np.mean(baseline_payoffs)) if baseline_payoffs else float("nan")
        ),
        uc_demand_shortfall_trials=shortfall_trials,
        unrequested_scheduled_mean=float(unrequested.mean()),
        bc_rate_realized_mean=(
            float(np.mean(realized_rates)) if realized_rates else float("nan")
        ),
    )
