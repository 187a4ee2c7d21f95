"""Per-user payoffs, the unicast grants, and the Monte Carlo revenue
estimator.

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

from .channel import fastest_rate, rates_from_uniforms
from .demand import FileCatalog
from .errors import InvalidParameterError, PayoffDomainError

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


def unicast_grants(demand, pool) -> np.ndarray:
    """Station-side unicast grants to users taken in the given order.

    ``demand`` holds each user's unicast need in pool units (whole
    numbers >= 1) and ``pool`` the unicast capacity. A user is granted
    unicast when their demand fits in what is left of the pool, because
    unicast pays more. The simulator broadcasts to the users without a
    grant whose broadcast payoff is at least their unicast payoff, so
    nobody is put on broadcast at a loss.

    Works on one trial, shape (N,), or on a block of trials, shape
    (k, N), every row starting from the same ``pool``. The greedy scan
    runs in phases: each grants the prefix of the still-active users
    whose cumulative demand fits, then drops the active users whose
    demand exceeds the new leftover. Demands are whole numbers, so the
    leftover is ``floor(pool)`` minus exact integer sums, which is what
    subtracting the grants one by one from ``pool`` decides.
    """
    demand = np.asarray(demand, dtype=np.float64)
    granted = np.zeros(demand.shape, dtype=bool)
    left = np.full(demand.shape[:-1] + (1,), np.floor(pool))
    active = demand <= left
    while active.any():
        reach = np.cumsum(np.where(active, demand, 0.0), axis=-1)
        grant = active & (reach <= left)
        granted |= grant
        left -= np.where(grant, demand, 0.0).sum(axis=-1, keepdims=True)
        active &= ~grant & (demand <= left)
    return granted


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

    def to_json(self) -> str:
        # JSON has no NaN: an undefined mean (no trial to average) is null.
        fields = {key: None if isinstance(value, float) and math.isnan(value) else value
                  for key, value in asdict(self).items()}
        return json.dumps(fields, indent=2, sort_keys=True)


def _expected_unrequested(popularity, n_users: int) -> float:
    """sum_i (1 - p_i)^N = sum_i exp(N log1p(-p_i)): files nobody requests."""
    if n_users == 0:
        return float(popularity.size)
    with np.errstate(divide="ignore"):  # p_i = 1: log1p(-1) = -inf, term 0
        return float(np.exp(n_users * np.log1p(-popularity)).sum())


def _thresholds(catalog, files, u):
    """Delay thresholds of users asking for ``files`` (an index, or ``...``
    for every file) at uniforms ``u``: numpy's uniform(lo, hi) is
    lo + (hi - lo) * u, element by element."""
    lo = catalog.delay_lo
    return lo[files] + (catalog.delay_hi - lo)[files] * u


def _draw_block(gen, popularity, proc_order, ufile, u):
    """Fill one block's draws in :func:`simulate_revenue`'s stream order:
    trial j's users' files (in ``proc_order``) into ``ufile[j]``, then
    its N rate and N threshold uniforms into ``u[j]``."""
    n_users = ufile.shape[1]
    for j in range(len(ufile)):
        counts = gen.multinomial(n_users, popularity)
        ufile[j] = np.repeat(proc_order, counts[proc_order])
        gen.random(out=u[j])


def _evaluate_block(catalog, prices, bc_delay, uc_pool, uc_revenue, ufile, u, start):
    """One block's statistics, a pure function of its draws: the count of
    trials whose unicast demand falls short of ``uc_pool``, and per trial
    (rows of a (6, k) array) the revenue, the broadcast and unicast
    fractions, the served users' mean policy and baseline payoffs, and the
    broadcast group's realized rate. ``start`` is the block's first trial."""
    rate_u = rates_from_uniforms(catalog.rate_model, u[:, 0])
    thr = _thresholds(catalog, ufile, u[:, 1])
    f = catalog.sizes[ufile]
    download = f / rate_u
    payoff_uc = _payoff(f, download - thr, prices.unicast)
    with np.errstate(divide="ignore"):  # Wb = 0: delay inf, payoff -inf
        payoff_bc = _payoff(f, bc_delay[ufile] - thr, prices.broadcast)

    demand = np.ceil(download)
    shortfall = int(np.count_nonzero(demand.sum(axis=1) < uc_pool))
    uc_mask = unicast_grants(demand, uc_pool)
    eligible = payoff_bc >= payoff_uc
    bc_mask = eligible & ~uc_mask
    served = eligible | uc_mask
    losers = bc_mask & (payoff_bc < payoff_uc)
    if losers.any():
        j, user = np.argwhere(losers)[0]
        raise AssertionError(f"payoff guarantee broken in trial {start + j}: user {user}")

    realized = np.where(bc_mask, payoff_bc, payoff_uc)
    per_served = np.maximum(np.count_nonzero(served, axis=1), 1)  # 0/1 is masked out
    return shortfall, np.stack([
        uc_revenue + prices.broadcast * np.where(bc_mask, f, 0.0).sum(axis=1),
        bc_mask.mean(axis=1),
        uc_mask.mean(axis=1),
        np.where(served, realized, 0.0).sum(axis=1) / per_served,
        np.where(served, payoff_uc, 0.0).sum(axis=1) / per_served,
        np.where(bc_mask, rate_u, np.inf).min(axis=1),
    ])


def simulate_revenue(
    catalog: FileCatalog,
    cell,
    prices: PricePair,
    bc_bandwidth: float,
    schedule,
    trials: int,
    seed=None,
) -> SimulationReport:
    """Estimate realized revenue under the unicast-first policy.

    Each trial redraws request counts, user positions, and delay
    thresholds. Users are processed in popularity order; each unicast
    grant consumes one frequency unit for ceil(f/r) slots out of the
    (W - Wb) * T pool (see :func:`unicast_grants`). A user without a
    grant is put on broadcast when eligible, that is when their broadcast
    payoff is at least their unicast payoff, and is left unserved
    otherwise. Broadcast payoffs are evaluated at the conservative plan
    rate rb = ``catalog.rate_model.r_low``, the low-region rate; the
    rate the broadcast group actually realizes, the lowest rate among
    its users, is reported separately.

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

    Trials run in consecutive blocks of k = max(1, 2**13 // N):
    :func:`_draw_block` makes a block's draws and :func:`_evaluate_block`
    computes its statistics in one pass over (k, N) arrays. Per-trial sums
    are row sums with the entries outside the mask set to zero, so each
    equals the sum of that trial's zero-padded N-vector bit for bit. With
    Wb = 0 the broadcast delay is infinite, so the broadcast payoff is -inf
    and nobody is eligible. Only trials with a nonzero served (broadcast)
    fraction enter the payoff (realized rate) means. A user on broadcast
    below their unicast payoff raises AssertionError.
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
    with np.errstate(divide="ignore"):
        # With no broadcast bandwidth the queue never completes: delay inf.
        bc_delay = schedule.s / (bc_bandwidth * catalog.rate_model.r_low)
    # The domain check: the threshold at Generator.random's largest value,
    # and the fastest rate of positive probability.
    t_max = _thresholds(catalog, ..., 1.0 - 2.0 ** -53)
    top_rate = fastest_rate(catalog.rate_model)
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

    stats = np.empty((6, trials))
    shortfall_trials = 0
    gen = np.random.default_rng(seed)
    k = max(1, _BLOCK_USER_TRIALS // n_users)
    ufile_buf = np.empty((k, n_users), dtype=np.intp)
    u_buf = np.empty((k, 2, n_users))
    for start in range(0, trials, k):
        stop = min(start + k, trials)
        ufile, u = ufile_buf[:stop - start], u_buf[:stop - start]
        _draw_block(gen, catalog.popularity, proc_order, ufile, u)
        shortfall, stats[:, start:stop] = _evaluate_block(
            catalog, prices, bc_delay, uc_pool, uc_revenue, ufile, u, start)
        shortfall_trials += shortfall
    revenues, bc_frac, uc_frac, policy_payoffs, baseline_payoffs, realized_rates = stats

    if shortfall_trials:
        warnings.warn(
            f"unicast demand fell below capacity in {shortfall_trials}/{trials} trials; "
            "the fixed unicast revenue term still assumes a sold-out pool",
            stacklevel=2,
        )
    any_bc = bc_frac > 0
    any_served = any_bc | (uc_frac > 0)
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
