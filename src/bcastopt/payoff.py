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

from .channel import rates_from_uniforms
from .demand import FileCatalog
from .errors import InvalidParameterError, PayoffDomainError

# Per-user outcomes of :func:`assign_services`.
UNICAST, BROADCAST, UNSERVED = 0, 1, 2

# User-trials :func:`simulate_revenue` evaluates in one vectorized block;
# keeps the block's (k, N) temporaries near one megabyte.
_BLOCK_USER_TRIALS = 2 ** 13


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


def _payoff(size, denom, price):
    """log((1 + f) / denom) - P * f, where ``denom`` is the download's delay
    beyond the user's threshold."""
    return np.log((1.0 + size) / denom) - price * size


def assign_services(demand, eligible, pool) -> np.ndarray:
    """Station-side assignment of users, taken in the given order.

    ``demand`` holds each user's unicast need in pool units (whole
    numbers >= 1), ``eligible`` whether their broadcast payoff is at
    least their unicast payoff, and ``pool`` the unicast capacity. A
    user gets UNICAST when their demand fits in what is left of the pool,
    because unicast pays more; otherwise BROADCAST if eligible, else
    UNSERVED. Users who would lose payoff on broadcast are never assigned
    it.

    Works on one trial, shape (N,), or on a block of trials, shape
    (k, N), every row starting from the same ``pool``. The greedy scan
    runs in phases: each grants the prefix of the still-active users
    whose cumulative demand fits, then drops the active users whose
    demand exceeds the new leftover. Demands are whole numbers, so the
    leftover is ``floor(pool)`` minus exact integer sums, which is what
    subtracting the grants one by one from ``pool`` decides.
    """
    demand = np.asarray(demand, dtype=np.float64)
    assigned = np.where(eligible, BROADCAST, UNSERVED).astype(np.int8)
    left = np.full(demand.shape[:-1] + (1,), np.floor(pool))
    active = demand <= left
    while active.any():
        reach = np.cumsum(np.where(active, demand, 0.0), axis=-1)
        grant = active & (reach <= left)
        assigned[grant] = UNICAST
        left -= np.where(grant, demand, 0.0).sum(axis=-1, keepdims=True)
        active &= ~grant & (demand <= left)
    return assigned


@dataclass
class SimulationReport:
    """Monte Carlo estimate of realized cell revenue and policy statistics.
    ``payoff_guarantee_violations`` is 0: the simulator asserts the guarantee."""

    revenue_mean: float
    revenue_stderr: float
    bc_user_fraction: float
    payoff_guarantee_violations: int
    trials: int
    seed: int | list[int] | None
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


def _expected_unrequested(popularity, n_users: int) -> float:
    """sum_i (1 - p_i)^N = sum_i exp(N log1p(-p_i)): files nobody requests."""
    if n_users == 0:
        return float(popularity.size)
    with np.errstate(divide="ignore"):  # p_i = 1: log1p(-1) = -inf, term 0
        return float(np.exp(n_users * np.log1p(-popularity)).sum())


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
    plus the fixed unicast term Pu * (W - Wb) * T. One generator,
    ``default_rng(seed)``, serves the call, and trials draw from it in
    trial order: request counts, then N rate and N threshold uniforms in
    one call. A report thus depends on the seed and N, not on the blocks.
    The unrequested-file count is its exact mean sum_i (1 - p_i)^N.

    Before any draw, both delay terms f_i/r - t and s_i/(Wb*rb) - t of
    every file with p_i > 0 are checked at the fastest rate of positive
    probability and the largest threshold a draw can give, u = 1 - 2**-53.
    Rounding is monotone, so every drawn term is at least the checked one:
    a PayoffDomainError naming the file is raised exactly when some draw
    could leave the payoff's domain, for every seed and trial count.

    Trials run in consecutive blocks of k = max(1, 2**13 // N), each one
    pass over (k, N) arrays. Per-trial sums are row sums with the entries
    outside the mask set to zero, so each equals the sum of that trial's
    zero-padded N-vector bit for bit. With Wb = 0 the broadcast delay is
    infinite, so nobody is eligible. Per-trial payoff means and realized
    rates fill (trials,) arrays; two boolean masks mark the trials that
    serve (broadcast to) somebody. A user assigned broadcast below their
    unicast payoff raises AssertionError.
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
    if isinstance(seed, np.random.SeedSequence) and not seed.spawn_key:
        # Its entropy rebuilds the stream: SeedSequence(report.seed).
        report_seed = np.asarray(seed.entropy).tolist()
    else:
        report_seed = seed if isinstance(seed, int) or seed is None else None
    nan = float("nan")
    unrequested = _expected_unrequested(catalog.popularity, n_users)
    if n_users == 0:
        # Only the fixed unicast term remains; exact, zero variance.
        return SimulationReport(
            revenue_mean=uc_revenue, revenue_stderr=0.0, bc_user_fraction=0.0,
            payoff_guarantee_violations=0, trials=trials, seed=report_seed,
            n_users=0, uc_revenue=uc_revenue, uc_user_fraction=0.0,
            unserved_user_fraction=0.0, mean_payoff_policy=nan,
            mean_payoff_uc_baseline=nan, uc_demand_shortfall_trials=0,
            unrequested_scheduled_mean=unrequested, bc_rate_realized_mean=nan,
        )

    proc_order = np.argsort(-catalog.popularity, kind="stable")
    lo = catalog.delay_lo
    span = catalog.delay_hi - lo
    with np.errstate(divide="ignore"):
        # With no broadcast bandwidth the queue never completes: delay inf.
        bc_delay = schedule.s / (bc_bandwidth * cell.r_b)
    # The domain check: the threshold expression below at Generator.random's
    # largest value, and the fastest rate of positive probability.
    t_max = lo + span * (1.0 - 2.0 ** -53)
    model = catalog.rate_model
    top_rate = model.r_high if model.prob_high > 0.0 else model.r_low
    requested = catalog.popularity > 0
    for name, delay in (("size/rate", catalog.sizes / top_rate), ("s/(Wb*rb)", bc_delay)):
        term = delay - t_max
        bad = np.flatnonzero(requested & (term <= 0))
        if bad.size:
            i = bad[0]
            raise PayoffDomainError(
                f"file {i + 1}: delay term non-positive at the largest threshold: "
                f"{name} - threshold = {float(term[i])!r}"
            )
    price = np.array([[prices.unicast], [prices.broadcast]])

    revenues, bc_frac, uc_frac = (np.empty(trials) for _ in range(3))
    # Per-trial means of the served users' policy and baseline payoffs and
    # the broadcast group's realized rate; only the trials the masks mark
    # (somebody served, somebody on broadcast) enter the final means.
    policy_payoffs, baseline_payoffs, realized_rates = (np.empty(trials) for _ in range(3))
    any_served, any_bc = (np.empty(trials, dtype=bool) for _ in range(2))
    shortfall_trials = 0

    gen = np.random.default_rng(seed)
    k = max(1, _BLOCK_USER_TRIALS // n_users)
    ufile_buf = np.empty((k, n_users), dtype=np.intp)
    # Each trial draws its N rate uniforms, then its N threshold uniforms.
    u_buf = np.empty((k, 2, n_users))
    # Each trial's unicast delay terms f/r - t, then its broadcast ones.
    terms_buf = np.empty((k, 2, n_users))
    for start in range(0, trials, k):
        block = slice(start, min(start + k, trials))
        rows = block.stop - start
        for j in range(rows):
            counts = gen.multinomial(n_users, catalog.popularity)
            ufile_buf[j] = np.repeat(proc_order, counts[proc_order])
            gen.random(out=u_buf[j])
        ufile, u, terms = ufile_buf[:rows], u_buf[:rows], terms_buf[:rows]
        rate_u = rates_from_uniforms(catalog.rate_model, u[:, 0])
        # numpy's uniform(lo, hi) is lo + (hi - lo) * u, element by element.
        thr = lo[ufile] + span[ufile] * u[:, 1]
        f = catalog.sizes[ufile]
        download = f / rate_u
        np.subtract(download, thr, out=terms[:, UNICAST])
        np.subtract(bc_delay[ufile], thr, out=terms[:, BROADCAST])
        with np.errstate(divide="ignore"):
            payoff = _payoff(f[:, None], terms, price)
        payoff_uc, payoff_bc = payoff[:, UNICAST], payoff[:, BROADCAST]

        demand = np.ceil(download)
        shortfall_trials += int(np.count_nonzero(demand.sum(axis=1) < uc_pool))
        assigned = assign_services(demand, payoff_bc >= payoff_uc, uc_pool)

        bc_mask = assigned == BROADCAST
        uc_mask = assigned == UNICAST
        served = bc_mask | uc_mask
        losers = bc_mask & (payoff_bc < payoff_uc)
        if losers.any():
            j, user = np.argwhere(losers)[0]
            raise AssertionError(f"payoff guarantee broken in trial {start + j}: user {user}")

        n_bc = np.count_nonzero(bc_mask, axis=1)
        n_served = np.count_nonzero(served, axis=1)
        any_bc[block] = n_bc > 0
        any_served[block] = n_served > 0
        bc_frac[block] = n_bc / n_users
        uc_frac[block] = np.count_nonzero(uc_mask, axis=1) / n_users
        revenues[block] = uc_revenue + prices.broadcast * np.where(bc_mask, f, 0.0).sum(axis=1)
        realized = np.where(bc_mask, payoff_bc, payoff_uc)
        per_served = np.maximum(n_served, 1)  # 0/1 where nobody is served; masked out
        policy_payoffs[block] = np.where(served, realized, 0.0).sum(axis=1) / per_served
        baseline_payoffs[block] = np.where(served, payoff_uc, 0.0).sum(axis=1) / per_served
        realized_rates[block] = np.where(bc_mask, rate_u, np.inf).min(axis=1)

    if shortfall_trials:
        warnings.warn(
            f"unicast demand fell below capacity in {shortfall_trials}/{trials} trials; "
            "the fixed unicast revenue term still assumes a sold-out pool",
            stacklevel=2,
        )
    mean_policy, mean_baseline, mean_rate = (
        float(values[mask].mean()) if mask.any() else nan
        for values, mask in ((policy_payoffs, any_served), (baseline_payoffs, any_served),
                             (realized_rates, any_bc))
    )
    stderr = float(revenues.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(
        revenue_mean=float(revenues.mean()),
        revenue_stderr=stderr,
        bc_user_fraction=float(bc_frac.mean()),
        payoff_guarantee_violations=0,
        trials=trials,
        seed=report_seed,
        n_users=n_users,
        uc_revenue=uc_revenue,
        uc_user_fraction=float(uc_frac.mean()),
        unserved_user_fraction=float((1.0 - bc_frac - uc_frac).mean()),
        mean_payoff_policy=mean_policy,
        mean_payoff_uc_baseline=mean_baseline,
        uc_demand_shortfall_trials=shortfall_trials,
        unrequested_scheduled_mean=unrequested,
        bc_rate_realized_mean=mean_rate,
    )
