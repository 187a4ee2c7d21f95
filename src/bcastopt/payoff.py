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


def _check_delay_term(denom, expression: str):
    """Raise PayoffDomainError naming the first non-positive entry of ``denom``."""
    bad = np.ravel(denom <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise PayoffDomainError(
            f"delay term non-positive at element {k}: "
            f"{expression} = {float(np.ravel(denom)[k])!r}"
        )


# The delay term of each service, as a payoff domain error names it.
_DELAY_TERMS = {UNICAST: "size/rate - threshold", BROADCAST: "s/(Wb*rb) - threshold"}


def _payoff(size, denom, price):
    """log((1 + f) / denom) - P * f, where ``denom`` is the download's delay
    beyond the user's threshold."""
    return np.log((1.0 + size) / denom) - price * size


def unicast_payoff(size, threshold, rate, price):
    """log((1 + f) / (f/r - t)) - Pu * f for a unicast download.

    Elementwise over numpy arrays (a float for scalar inputs). The
    download time f/r must exceed the threshold t, otherwise the payoff
    model does not apply and a domain error is raised.
    """
    denom = size / rate - threshold
    _check_delay_term(denom, _DELAY_TERMS[UNICAST])
    value = _payoff(size, denom, price)
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
    _check_delay_term(denom, _DELAY_TERMS[BROADCAST])
    value = _payoff(size, denom, price)
    return value if np.ndim(value) else float(value)


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
    order. The streams are spawned block by block; ``SeedSequence.spawn``
    hands out consecutive children, so trial t draws from the same child
    one ``spawn(trials)`` would give it.

    Trials run in consecutive blocks of k = max(1, 2**13 // N). Each
    trial of a block draws from its own stream, in trial order: its
    request counts, then N rate uniforms and N threshold uniforms in one
    call. Rates, thresholds, payoffs, assignment and statistics of the
    whole block are then one pass over (k, N) arrays. Per-trial sums are
    row sums of the (k, N) arrays with the entries outside the mask set
    to zero, so each equals the sum of that trial's zero-padded N-vector
    bit for bit. The delay terms of a block sit in one (k, 2, N) array,
    unicast before broadcast within each trial, so its first non-positive
    entry in C order is the payoff domain error a trial-by-trial loop
    meets first. With Wb = 0 the broadcast delay is infinite: the
    broadcast payoff is -inf and nobody is eligible. The per-trial payoff
    means and realized rates fill preallocated (trials,) arrays, and two
    boolean masks mark the trials that serve (broadcast to) somebody, so
    memory grows by a few bytes a trial. A user assigned broadcast below
    their unicast payoff raises AssertionError.
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
    report_seed = seed if isinstance(seed, int) or seed is None else None
    nan = float("nan")

    if n_users == 0:
        # Only the fixed unicast term remains; exact, zero variance.
        return SimulationReport(
            revenue_mean=uc_revenue, revenue_stderr=0.0, bc_user_fraction=0.0,
            payoff_guarantee_violations=0, trials=trials, seed=report_seed,
            n_users=0, uc_revenue=uc_revenue, uc_user_fraction=0.0,
            unserved_user_fraction=0.0, mean_payoff_policy=nan,
            mean_payoff_uc_baseline=nan, uc_demand_shortfall_trials=0,
            unrequested_scheduled_mean=float(catalog.size), bc_rate_realized_mean=nan,
        )

    proc_order = np.argsort(-catalog.popularity, kind="stable")
    sizes = catalog.sizes
    lo = catalog.delay_lo
    span = catalog.delay_hi - lo
    with np.errstate(divide="ignore"):
        # With no broadcast bandwidth the queue never completes: delay inf.
        bc_delay = schedule.s / (bc_bandwidth * cell.r_b)
    price = np.array([[prices.unicast], [prices.broadcast]])

    revenues, bc_frac, uc_frac, unrequested = (np.empty(trials) for _ in range(4))
    # Per-trial means of the served users' policy and baseline payoffs and
    # the broadcast group's realized rate; only the trials the masks mark
    # (somebody served, somebody on broadcast) enter the final means.
    policy_payoffs, baseline_payoffs, realized_rates = (np.empty(trials) for _ in range(3))
    any_served = np.empty(trials, dtype=bool)
    any_bc = np.empty(trials, dtype=bool)
    shortfall_trials = 0

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    k = max(1, _BLOCK_USER_TRIALS // n_users)
    ufile_buf = np.empty((k, n_users), dtype=np.intp)
    # Each trial draws its N rate uniforms, then its N threshold uniforms.
    u_buf = np.empty((k, 2, n_users))
    # Each trial's unicast delay terms f/r - t, then its broadcast ones.
    terms_buf = np.empty((k, 2, n_users))
    for start in range(0, trials, k):
        block = slice(start, min(start + k, trials))
        rows = block.stop - start
        for j, stream in enumerate(root.spawn(rows)):
            gen = np.random.default_rng(stream)
            counts = gen.multinomial(n_users, catalog.popularity)
            unrequested[start + j] = catalog.size - np.count_nonzero(counts)
            ufile_buf[j] = np.repeat(proc_order, counts[proc_order])
            gen.random(out=u_buf[j])
        ufile, u, terms = ufile_buf[:rows], u_buf[:rows], terms_buf[:rows]
        rate_u = rates_from_uniforms(catalog.rate_model, u[:, 0])
        # numpy's uniform(lo, hi) is lo + (hi - lo) * u, element by element.
        thr = lo[ufile] + span[ufile] * u[:, 1]
        f = sizes[ufile]
        download = f / rate_u
        np.subtract(download, thr, out=terms[:, UNICAST])
        np.subtract(bc_delay[ufile], thr, out=terms[:, BROADCAST])
        bad = terms <= 0
        if bad.any():
            # In C order the first bad entry is the one a trial-by-trial loop
            # meets first: by trial, then unicast before broadcast, then user.
            j, service, _ = np.unravel_index(np.argmax(bad), bad.shape)
            try:
                _check_delay_term(terms[j, service], _DELAY_TERMS[service])
            except PayoffDomainError as exc:
                raise PayoffDomainError(f"trial {start + j}: {exc}") from exc
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
        unrequested_scheduled_mean=float(unrequested.mean()),
        bc_rate_realized_mean=mean_rate,
    )
