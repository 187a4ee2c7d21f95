"""Per-user payoffs, the unicast grants, and two Monte Carlo estimators of
the same expected revenue: the full simulator, and one that computes the
eligible users' share exactly and samples only the unicast grants that
can take some of them.

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

# User-trials :func:`simulate_revenue` evaluates in one vectorized block. A float64
# (k, N) temporary is then 64 KiB, under the 128 KiB mmap threshold that cli.main's
# mallopt pins, so blocks reuse the heap (README, "Simulator blocks").
_BLOCK_USER_TRIALS = 2 ** 13
_U_MAX = 1.0 - 2.0 ** -53  # Generator.random's largest value
# Below t*, the band of eligibility thresholds within rounding of t*, relative to the
# scale of the terms t* is computed from (payoff_guarantee_gaps).
_T_STAR_RTOL = 1e-12


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


def _broadcast_delay(catalog, bc_bandwidth, schedule) -> np.ndarray:
    """Each file's broadcast completion delay s_i/(Wb*rb), after the payoff
    domain check that both revenue estimators and the guarantee check make
    before anything else.

    Both delay terms f_i/r - t and s_i/(Wb*rb) - t of every file with
    p_i > 0 are checked at the fastest rate of positive probability and the
    largest threshold a draw can give, at u = 1 - 2**-53. Rounding is
    monotone, so every drawn term is at least the checked one: a
    PayoffDomainError naming the file is raised exactly when some draw
    could leave the payoff's domain. With Wb = 0 the queue never
    completes, and the delay is inf.
    """
    with np.errstate(divide="ignore"):
        bc_delay = schedule.s / (bc_bandwidth * catalog.rate_model.r_low)
    t_max = _thresholds(catalog, ..., _U_MAX)
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
    return bc_delay


def _rate_classes(model):
    """The rates a user can draw, as a column (r_high, r_low), and their
    probabilities: row 0 is the class of a rate uniform below ``prob_high``."""
    return (np.array([[model.r_high], [model.r_low]]),
            np.array([model.prob_high, 1.0 - model.prob_high]))


def eligibility_threshold(catalog, prices: PricePair, bc_delay) -> np.ndarray:
    """The largest threshold t* at which a user is eligible for broadcast,
    per rate class (rows r_high, r_low) and file (columns).

    A user of file i at rate r with threshold t is eligible when their
    broadcast payoff is at least their unicast payoff. With g = (Pu - Pb) f_i
    and a = s_i/(Wb*rb) = ``bc_delay[i]``, that is exactly t <= t* =
    (f_i/r - e^-g a)/(1 - e^-g) for g > 0. At g = 0 the threshold cancels:
    t* is inf when f_i/r >= a and -inf otherwise. With Wb = 0 (a = inf)
    nobody is eligible, t* = -inf.
    """
    rates, _ = _rate_classes(catalog.rate_model)
    download = catalog.sizes / rates
    g = (prices.unicast - prices.broadcast) * catalog.sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(g > 0, (download - np.exp(-g) * bc_delay) / -np.expm1(-g),
                          np.where(download >= bc_delay, np.inf, -np.inf))
    return np.where(bc_delay < np.inf, t_star, -np.inf)


def _eligible_share(catalog, t_star) -> np.ndarray:
    """q = P(t <= t*) per class: clip((t* - lo)/(hi - lo), 0, 1) for the
    uniform threshold, and 1[t* >= lo] for a point mass (lo = hi)."""
    lo, hi = catalog.delay_lo, catalog.delay_hi
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.clip((t_star - lo) / span, 0.0, 1.0)
    return np.where(span > 0, share, t_star >= lo)


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


def _check_arguments(cell, bc_bandwidth, trials):
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not (0.0 <= bc_bandwidth <= cell.bandwidth):
        raise InvalidParameterError(
            f"broadcast bandwidth must lie in [0, W], got {bc_bandwidth}"
        )


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

    Before any draw, :func:`_broadcast_delay` checks the payoff domain: a
    PayoffDomainError naming the file is raised exactly when some draw
    could leave it, for every seed and trial count.

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
    _check_arguments(cell, bc_bandwidth, trials)
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
    bc_delay = _broadcast_delay(catalog, bc_bandwidth, schedule)
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


def payoff_guarantee_gaps(catalog: FileCatalog, prices: PricePair, bc_bandwidth: float,
                          schedule) -> np.ndarray:
    """Broadcast minus unicast payoff of each class's worst eligible user.

    A class is a (rate, file) pair with P(r) > 0, p_i > 0 and an eligible
    share q > 0 (see :func:`eligibility_threshold`). Where eligibility is
    partial (lo < t* < hi), the broadcast delay exceeds the download time,
    so the payoff gap falls as the threshold grows, and the class's worst
    eligible user has the marginal threshold. Each gap is evaluated with
    :func:`_payoff` at min(t*, t_max). t_max is the largest threshold a
    draw can give, where :func:`_broadcast_delay` (which raises
    PayoffDomainError first) has checked both delay terms. t* is taken
    ``_T_STAR_RTOL`` * (f/r + e^-g a)/(1 - e^-g) lower: t* is the rounded
    difference of those two terms over 1 - e^-g, so its error is a few
    ulps of that scale, and the payoffs of a user within it of t* tie to
    rounding. Every gap is >= 0 exactly when the closed-form eligibility
    puts no user beyond that rounding on broadcast below their unicast
    payoff.
    """
    bc_delay = _broadcast_delay(catalog, bc_bandwidth, schedule)
    rates, rate_prob = _rate_classes(catalog.rate_model)
    t_star = eligibility_threshold(catalog, prices, bc_delay)
    classes = ((rate_prob[:, None] > 0) & (catalog.popularity > 0)
               & (_eligible_share(catalog, t_star) > 0))
    f = catalog.sizes
    download = f / rates
    with np.errstate(divide="ignore", invalid="ignore"):  # outside the classes only
        g = (prices.unicast - prices.broadcast) * f
        scale = (download + np.exp(-g) * bc_delay) / -np.expm1(-g)
        t = np.where(np.isfinite(t_star), t_star - _T_STAR_RTOL * scale, t_star)
        t = np.minimum(t, _thresholds(catalog, ..., _U_MAX))
        gap = (_payoff(f, bc_delay - t, prices.broadcast)
               - _payoff(f, download - t, prices.unicast))
    return gap[classes]


@dataclass(frozen=True)
class RevenueEstimate:
    """Expected realized revenue E[R] = E[Y] + E[R - Y] (:func:`expected_revenue`).

    ``expected_y`` is exact; ``residual_mean`` and ``residual_stderr``
    estimate E[R - Y] from ``files_visited`` files' users. A certified point
    visits no file, and its residual and standard error are exactly 0.
    """

    expected_y: float
    residual_mean: float
    residual_stderr: float
    files_visited: int

    @property
    def revenue_mean(self) -> float:
        return self.expected_y + self.residual_mean


def _file_counts(gen, n_users: int, trials: int, popularity):
    """Each file's user counts in ``trials`` multinomial(``n_users``,
    ``popularity``) draws, yielded file by file in the given order as
    conditional binomials Bin(n_left, p_j / sum_{i >= j} p_i) (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. XI). The last file of
    positive popularity takes every user left."""
    tail = np.cumsum(popularity[::-1])[::-1]
    share = np.divide(popularity, tail, out=np.zeros_like(tail), where=tail > 0)
    left = np.full(trials, n_users)
    for p in np.minimum(share, 1.0):
        count = gen.binomial(left, p)
        left -= count
        yield count


def expected_revenue(
    catalog: FileCatalog,
    cell,
    prices: PricePair,
    bc_bandwidth: float,
    schedule,
    trials: int,
    seed=None,
) -> RevenueEstimate:
    """Estimate :func:`simulate_revenue`'s expected revenue by conditional
    Monte Carlo (Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V).

    Let Y = Pu (W - Wb) T + Pb sum_{eligible} f, the revenue if no eligible
    user were granted unicast. Eligibility depends on the user's own file,
    rate and threshold only, so E[Y] = Pu (W - Wb) T + Pb N sum_i p_i f_i
    sum_r P(r) q_i(r) exactly, with q from :func:`eligibility_threshold`.
    The residual R - Y = -Pb sum_{eligible and granted} f needs only users
    who can be granted, that is whose demand d = ceil(f/r) fits floor(pool).
    When no (rate, file) class is both eligible (q > 0) and fitting, R = Y
    in every trial: the point is certified and nothing is drawn.

    Otherwise the residual is sampled, vectorized over trials, from
    ``default_rng(seed)``. Files are visited in processing order up to K,
    the last one with an eligible and fitting class. Each file's user count
    comes from :func:`_file_counts`; each of its users draws a rate uniform,
    then an eligibility uniform (eligible below q). A user is granted when
    d <= l, the pool left, which then loses d. A trial leaves a file when l
    is below the file's smallest demand or its users run out, and the loop
    stops once every trial's l is below every demand left among files <= K.
    The standard error is the residual's alone. Arguments are checked as
    :func:`simulate_revenue` checks them, and with N = 0 the exact unicast
    term is returned, as there.
    """
    _check_arguments(cell, bc_bandwidth, trials)
    uc_revenue = prices.unicast * (cell.bandwidth - bc_bandwidth) * cell.slots
    pool = np.floor((cell.bandwidth - bc_bandwidth) * cell.slots)
    n_users = cell.n_users
    if n_users == 0:
        return RevenueEstimate(uc_revenue, 0.0, 0.0, 0)

    bc_delay = _broadcast_delay(catalog, bc_bandwidth, schedule)
    rates, rate_prob = _rate_classes(catalog.rate_model)
    share = _eligible_share(catalog, eligibility_threshold(catalog, prices, bc_delay))
    sizes, popularity = catalog.sizes, catalog.popularity
    expected_y = uc_revenue + prices.broadcast * n_users * float(
        (popularity * sizes) @ (rate_prob @ share))

    proc_order = np.argsort(-popularity, kind="stable")
    demand = np.ceil(sizes / rates)
    possible = (rate_prob[:, None] > 0) & (popularity > 0)
    smallest = np.where(possible, demand, np.inf).min(axis=0)[proc_order]
    hits = np.flatnonzero((possible & (share > 0) & (demand <= pool)).any(axis=0)[proc_order])
    if not hits.size:
        return RevenueEstimate(expected_y, 0.0, 0.0, 0)
    last = hits[-1]
    reach = np.minimum.accumulate(smallest[last::-1])[::-1]  # smallest demand left

    gen = np.random.default_rng(seed)
    counts = _file_counts(gen, n_users, trials, popularity[proc_order])
    left = np.full(trials, pool)
    residual = np.zeros(trials)
    visited = 0
    for pos, i in enumerate(proc_order[:last + 1]):
        if not (left >= reach[pos]).any():
            break
        visited += 1
        count = next(counts)
        while (active := (count > 0) & (left >= smallest[pos])).any():
            row = (gen.random(trials) >= catalog.rate_model.prob_high).astype(np.intp)
            need = demand[row, i]
            granted = active & (need <= left)
            left -= np.where(granted, need, 0.0)
            eligible = gen.random(trials) < share[row, i]
            residual -= np.where(granted & eligible, prices.broadcast * sizes[i], 0.0)
            count -= active
    stderr = float(residual.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RevenueEstimate(expected_y, float(residual.mean()), stderr, visited)
