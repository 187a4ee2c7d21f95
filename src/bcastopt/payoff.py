"""Per-user payoffs, the service-selection policy, and the Monte Carlo
revenue estimator.

A user's payoff grows with file size, falls logarithmically with the
delay beyond their threshold, and falls linearly with the bill. The
station assigns broadcast only to users whose broadcast payoff is at
least their unicast payoff, so no served user ever does worse than the
unicast default.
"""
from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .demand import FileCatalog
from .errors import InvalidParameterError, PayoffDomainError, PreconditionError


class Service(enum.Enum):
    UNICAST = "unicast"
    BROADCAST = "broadcast"


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


def unicast_payoff(size, threshold, rate, price, require_positive: bool = False) -> float:
    """log((1 + f) / (f/r - t)) - Pu * f for a unicast download.

    The download time f/r must exceed the threshold t, otherwise the
    payoff model does not apply and a domain error is raised. With
    ``require_positive`` the willing-to-pay condition (payoff > 0) is
    asserted as well.
    """
    denom = size / rate - threshold
    if denom <= 0:
        raise PayoffDomainError(
            f"unicast delay term non-positive: size/rate - threshold = {denom}"
        )
    value = math.log((1.0 + size) / denom) - price * size
    if require_positive and value <= 0:
        raise PreconditionError(f"unicast payoff not positive: {value}")
    return value


def broadcast_payoff(size, threshold, bc_rate, completed_size, bandwidth, price) -> float:
    """log((1 + f) / (s/(Wb*rb) - t)) - Pb * f for a broadcast download.

    ``completed_size`` is the cumulative queue size through this file,
    so s/(Wb*rb) is its completion delay; it must exceed the threshold.
    """
    if bandwidth <= 0:
        raise InvalidParameterError(f"broadcast bandwidth must be > 0, got {bandwidth}")
    denom = completed_size / (bandwidth * bc_rate) - threshold
    if denom <= 0:
        raise PayoffDomainError(
            f"broadcast delay term non-positive: s/(Wb*rb) - threshold = {denom}"
        )
    return math.log((1.0 + size) / denom) - price * size


def select_service(uc_payoff, bc_payoff, uc_capacity_remaining: bool) -> Service:
    """Station-side assignment for one user.

    Broadcast-eligible users (bc >= uc, ties included) still get unicast
    while unicast capacity lasts, because unicast pays more; they fall
    back to broadcast afterwards. Users who would lose payoff on
    broadcast are never assigned it.
    """
    if bc_payoff >= uc_payoff and not uc_capacity_remaining:
        return Service.BROADCAST
    return Service.UNICAST


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
    bc_plan_rate: float | None = None,
) -> SimulationReport:
    """Estimate realized revenue under the selection policy.

    Each trial redraws request counts, user positions, and delay
    thresholds. Users are processed in popularity order; each unicast
    grant consumes one frequency unit for ceil(f/r) slots out of the
    (W - Wb) * T pool. Per-user broadcast payoffs are evaluated at the
    conservative plan rate (the low-region rate by default); the rate the
    broadcast group actually realizes is reported separately.

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
    rm = catalog.rate_model
    n_users = cell.n_users
    plan_rate = cell.r_b if bc_plan_rate is None else bc_plan_rate
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
        counts = gen.multinomial(n_users, catalog.popularity)
        unrequested[t] = np.count_nonzero(counts == 0)
        ufile = np.repeat(proc_order, counts[proc_order])
        high = gen.random(n_users) < rm.prob_high
        rate_u = np.where(high, rm.r_high, rm.r_low)
        thr = gen.uniform(lo[ufile], hi[ufile])
        f = sizes[ufile]

        uc_denom = f / rate_u - thr
        if np.any(uc_denom <= 0):
            k = int(np.argmax(uc_denom <= 0))
            raise PayoffDomainError(
                f"trial {t}: unicast delay term non-positive for file "
                f"{ufile[k] + 1} (rate={rate_u[k]}, threshold={thr[k]})"
            )
        payoff_uc = np.log((1.0 + f) / uc_denom) - prices.unicast * f

        if bc_bandwidth > 0.0:
            bc_denom = s[ufile] / (bc_bandwidth * plan_rate) - thr
            if np.any(bc_denom <= 0):
                k = int(np.argmax(bc_denom <= 0))
                raise PayoffDomainError(
                    f"trial {t}: broadcast delay term non-positive for file "
                    f"{ufile[k] + 1} (completion={s[ufile[k]]}, threshold={thr[k]})"
                )
            payoff_bc = np.log((1.0 + f) / bc_denom) - prices.broadcast * f
            eligible = payoff_bc >= payoff_uc
        else:
            payoff_bc = np.full(n_users, -np.inf)
            eligible = np.zeros(n_users, dtype=bool)

        demand = np.ceil(f / rate_u)
        if demand.sum() < uc_pool:
            shortfall_trials += 1

        # 0 = unicast, 1 = broadcast, 2 = unserved
        assigned = np.full(n_users, 2, dtype=np.int8)
        remaining = uc_pool
        cut = n_users
        for k in range(n_users):
            if remaining < 1.0:
                cut = k
                break
            if demand[k] <= remaining:
                assigned[k] = 0
                remaining -= demand[k]
            else:
                assigned[k] = 1 if eligible[k] else 2
        if cut < n_users:
            assigned[cut:] = np.where(eligible[cut:], 1, 2)

        bc_mask = assigned == 1
        uc_mask = assigned == 0
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
            realized_rates.append(rm.r_high if bool(high[bc_mask].all()) else rm.r_low)

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
