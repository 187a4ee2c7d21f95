"""payoff.expected_revenue, E[R] as the exact E[Y] plus a residual sampled
from the users who can still be granted unicast, and
payoff.payoff_guarantee_gaps, the exact payoff-guarantee check of
``validate``.

The full simulator, ``simulate_revenue``, is the reference: every
comparison with it is within z of the two standard errors combined.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from bcastopt import payoff
from bcastopt.channel import RateModel
from bcastopt.demand import FileCatalog
from bcastopt.errors import PayoffDomainError, PreconditionError
from bcastopt.optimizer import (
    CellConfig,
    closed_form_price,
    lower_bound_revenue,
    operating_point,
)
from bcastopt.payoff import (
    PricePair,
    RevenueEstimate,
    expected_revenue,
    payoff_guarantee_gaps,
    simulate_revenue,
    unicast_grants,
)
from bcastopt.scenario import normalize, variant_schedule
from bcastopt.scheduler import popularity_schedule, suboptimal_schedule

from conftest import catalog_from, record_results

Z = 3.0  # agreement bound for one comparison


def _z(estimate: RevenueEstimate, report) -> float:
    se = math.hypot(estimate.residual_stderr, report.revenue_stderr)
    return (estimate.revenue_mean - report.revenue_mean) / se


def _tiny(delay_lo=0.5, delay_hi=2.0):
    """Three files at two rates, demands 6, 9, 4 (r_high) and 12, 18, 8
    (r_low), and an 18-unit pool at Wb = 1.3: file 2's r_low class is
    partly eligible (q = 0.747), file 1's fully, and every r_high class
    fits the pool but is not eligible."""
    rates = RateModel(r_high=0.1, r_low=0.05, prob_high=0.4)
    catalog = catalog_from(sizes=[0.6, 0.9, 0.4], popularity=[0.5, 0.3, 0.2],
                           theta=[1.0, 1.0, 1.0], rate_model=rates,
                           delay_lo=[delay_lo] * 3, delay_hi=[delay_hi] * 3)
    cell = CellConfig(bandwidth=6.0, slots=4, n_users=4, price_unicast=0.4)
    return catalog, cell, PricePair(0.4, 0.1), 1.3, popularity_schedule(catalog)


def _classes(catalog):
    model = catalog.rate_model
    return (np.array([model.r_high, model.r_low]),
            np.array([model.prob_high, 1.0 - model.prob_high]))


def _share_on_a_grid(catalog, prices, bc_bandwidth, schedule, points=20_000):
    """q per (rate, file) class from the payoffs themselves: the share of an
    even grid of thresholds on [lo, hi] where broadcast pays at least unicast."""
    rates, _ = _classes(catalog)
    lo, hi = catalog.delay_lo, catalog.delay_hi
    t = lo[:, None] + (hi - lo)[:, None] * (np.arange(points) + 0.5) / points
    f = catalog.sizes[:, None]
    a = schedule.s[:, None] / (bc_bandwidth * catalog.rate_model.r_low)
    return np.array([np.mean(payoff._payoff(f, a - t, prices.broadcast)
                             >= payoff._payoff(f, f / r - t, prices.unicast), axis=1)
                     for r in rates])


def test_matches_exhaustive_enumeration():
    # Every sequence of 4 users over the 6 (rate, file) classes, taken in
    # processing order, with its probability: the grants follow from the
    # demands, and a granted user of a class is eligible with probability q.
    catalog, cell, prices, bc_bandwidth, schedule = _tiny()
    rates, rate_prob = _classes(catalog)
    q = _share_on_a_grid(catalog, prices, bc_bandwidth, schedule)
    assert 0 < q[1, 1] < 1  # a partly eligible class
    demand = np.ceil(catalog.sizes / rates[:, None])
    pool = (cell.bandwidth - bc_bandwidth) * cell.slots
    sizes, popularity = catalog.sizes, catalog.popularity
    rank = np.argsort(np.argsort(-popularity, kind="stable"))

    expected_y = prices.unicast * pool + prices.broadcast * cell.n_users * float(
        (popularity * sizes) @ (rate_prob @ q))
    residual = 0.0
    classes = list(itertools.product(range(2), range(catalog.size)))
    for users in itertools.product(classes, repeat=cell.n_users):
        prob = math.prod(rate_prob[k] * popularity[i] for k, i in users)
        users = sorted(users, key=lambda c: rank[c[1]])
        granted = unicast_grants([demand[k, i] for k, i in users], pool)
        residual -= prob * prices.broadcast * sum(
            sizes[i] * q[k, i] for (k, i), g in zip(users, granted) if g)

    got = expected_revenue(catalog, cell, prices, bc_bandwidth, schedule, trials=20_000,
                           seed=3)
    assert got.expected_y == pytest.approx(expected_y, rel=1e-4)  # the grid's resolution
    assert got.residual_stderr > 0 and got.files_visited == 2
    assert abs(got.revenue_mean - expected_y - residual) <= Z * got.residual_stderr


def _validate_point(spec):
    """Check 4's arguments in ``run_validation``: the 8-file catalog at the
    largest sweep count, the suboptimal order and the raw closed-form price
    (the floored one where the bound is undefined there)."""
    small = dataclasses.replace(spec, file_count=min(spec.file_count, 8))
    catalog, cell, _ = normalize(small)
    cell = dataclasses.replace(cell, n_users=spec.sweep_users[-1] or 10)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, moment = operating_point(catalog, cell, schedule)
    raw_price = closed_form_price(catalog, cell, moment)
    try:
        lower_bound_revenue(catalog, cell, raw_price, bandwidth, schedule)
    except PreconditionError:
        raw_price = price
    return catalog, cell, PricePair(cell.price_unicast, raw_price), bandwidth, schedule


@pytest.mark.parametrize("seed", range(99251, 99259))
@pytest.mark.parametrize("config", ["single_cell_spec", "seven_cell_spec"])
def test_agrees_with_the_simulator_at_the_validate_point(request, config, seed):
    spec = dataclasses.replace(request.getfixturevalue(config), seed=seed)
    args = _validate_point(spec)
    stream = [seed, 0xA11D]
    got = expected_revenue(*args, trials=2000, seed=np.random.SeedSequence(stream))
    want = simulate_revenue(*args, trials=2000, seed=np.random.SeedSequence(stream))
    assert abs(_z(got, want)) <= Z


@pytest.mark.parametrize("variant", ["suboptimal", "none"])
@pytest.mark.parametrize("config", ["single_cell", "seven_cell"])
def test_agrees_with_the_simulator_at_the_sweep_points(request, config, variant):
    # Every shipped sweep point, for the bound-driven and the popularity
    # order, at the sweep's own streams: 36 comparisons, so each is held to
    # |z| <= 4 (a two-sided tail of 6e-5) rather than Z.
    spec = request.getfixturevalue(f"{config}_spec")
    catalog, base, _ = request.getfixturevalue(f"{config}_setup")
    for n in spec.sweep_users:
        cell = dataclasses.replace(base, n_users=n)
        schedule = variant_schedule(variant, catalog, cell)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
        stream = [spec.seed, int(round(spec.zipf_exponent * 1e6)), spec.file_count, n]
        got = expected_revenue(*args, trials=2000, seed=np.random.SeedSequence(stream))
        want = simulate_revenue(*args, trials=200, seed=np.random.SeedSequence(stream))
        assert abs(_z(got, want)) <= 4.0, n


def test_certified_point_draws_nothing(single_cell_setup, monkeypatch):
    # Single-cell N = 200: no eligible class fits the 4-unit pool, so R = Y
    # in every trial. The simulator's own draws show it: no user is both
    # granted and eligible.
    catalog, cell, _ = single_cell_setup
    cell = dataclasses.replace(cell, n_users=200)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
    grants = record_results(monkeypatch, payoff, "unicast_grants")
    payoffs = record_results(monkeypatch, payoff, "_payoff")
    simulate_revenue(*args, trials=300, seed=4)
    granted = np.concatenate(grants)
    eligible = np.concatenate(payoffs[1::2]) >= np.concatenate(payoffs[0::2])
    assert eligible.any() and not np.any(granted & eligible)

    def no_stream(*_):
        raise AssertionError("a certified point drew")

    monkeypatch.setattr(np.random, "default_rng", no_stream)
    got = expected_revenue(*args, trials=2000, seed=1)
    assert got == RevenueEstimate(got.expected_y, 0.0, 0.0, 0)
    assert got.revenue_mean == got.expected_y


def _chi_square_limit(dof):
    """Wilson-Hilferty approximation of the chi-square quantile at 1 - 1e-4."""
    z = 3.719
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def test_file_counts_have_the_multinomial_marginals():
    # Each file's count of N = 12 users over 5 files is Bin(N, p_j); the
    # conditional binomials spend every user.
    popularity = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    n_users, trials = 12, 20_000
    counts = np.array(list(payoff._file_counts(np.random.default_rng(2024), n_users, trials,
                                               popularity)))
    assert np.array_equal(counts.sum(axis=0), np.full(trials, n_users))
    for p, count in zip(popularity, counts):
        pmf = np.array([math.comb(n_users, k) * p ** k * (1 - p) ** (n_users - k)
                        for k in range(n_users + 1)])
        observed = np.bincount(count, minlength=n_users + 1).astype(float)
        # Pool the upper tail into one cell of expected count >= 5.
        cut = int(np.flatnonzero(trials * pmf >= 5)[-1])
        expected = np.append(trials * pmf[:cut], trials * pmf[cut:].sum())
        observed = np.append(observed[:cut], observed[cut:].sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat <= _chi_square_limit(len(expected) - 1), (p, stat)


def test_no_users_is_the_unicast_term():
    catalog, cell, prices, bc_bandwidth, schedule = _tiny()
    cell = dataclasses.replace(cell, n_users=0)
    got = expected_revenue(catalog, cell, prices, bc_bandwidth, schedule, trials=50, seed=1)
    want = simulate_revenue(catalog, cell, prices, bc_bandwidth, schedule, trials=50, seed=1)
    assert got == RevenueEstimate(want.revenue_mean, 0.0, 0.0, 0)


@pytest.mark.filterwarnings("ignore:unicast demand fell below capacity")
def test_no_broadcast_bandwidth_is_certified():
    # Wb = 0: the queue never completes, nobody is eligible, R = Y = Pu W T.
    catalog, cell, prices, _, schedule = _tiny()
    assert np.all(payoff.eligibility_threshold(catalog, prices, np.full(3, np.inf))
                  == -np.inf)
    got = expected_revenue(catalog, cell, prices, 0.0, schedule, trials=50, seed=1)
    want = simulate_revenue(catalog, cell, prices, 0.0, schedule, trials=50, seed=1)
    assert got == RevenueEstimate(cell.uc_only_revenue, 0.0, 0.0, 0)
    assert want.revenue_mean == want.uc_revenue == cell.uc_only_revenue
    assert payoff_guarantee_gaps(catalog, prices, 0.0, schedule).size == 0


@pytest.mark.filterwarnings("ignore:unicast demand fell below capacity")
@pytest.mark.parametrize("case", ["equal prices", "point mass", "no pool"])
def test_degenerate_cases_agree_with_the_simulator(case):
    catalog, cell, prices, bc_bandwidth, schedule = _tiny()
    if case == "equal prices":  # g = 0: the threshold cancels, q is 0 or 1
        prices = PricePair(0.4, 0.4)
    elif case == "point mass":  # lo = hi: q is 0 or 1
        catalog, *_ = _tiny(delay_lo=1.0, delay_hi=1.0)
    else:  # floor(pool) = 0: R = Y in every trial
        bc_bandwidth = 5.9
    t_star = payoff.eligibility_threshold(
        catalog, prices, schedule.s / (bc_bandwidth * catalog.rate_model.r_low))
    share = payoff._eligible_share(catalog, t_star)
    if case != "no pool":
        assert set(np.unique(share)) == {0.0, 1.0}
    if case == "equal prices":
        assert set(np.unique(t_star)) == {-np.inf, np.inf}
    got = expected_revenue(catalog, cell, prices, bc_bandwidth, schedule, trials=4000, seed=5)
    want = simulate_revenue(catalog, cell, prices, bc_bandwidth, schedule, trials=4000,
                            seed=5)
    assert (got.residual_stderr > 0) == (case != "no pool")
    assert abs(_z(got, want)) <= Z


def test_ties_are_eligible():
    # Eligibility is payoff_bc >= payoff_uc, so a tie is eligible: at g = 0
    # with f/r = s/(Wb rb) = 2 exactly, and at a point-mass threshold equal
    # to t*. Nobody fits the 1-unit pool, so every user is on broadcast.
    catalog = catalog_from([1.0], [1.0], [0.3], rate_model=RateModel(0.5, 0.5, 1.0),
                           delay_lo=[1.0], delay_hi=[1.0])
    cell = CellConfig(bandwidth=1.25, slots=4, n_users=7, price_unicast=0.4)
    args = (catalog, cell, PricePair(0.4, 0.4), 1.0, popularity_schedule(catalog))
    got = expected_revenue(*args, trials=20, seed=0)
    want = simulate_revenue(*args, trials=20, seed=0)
    assert want.bc_user_fraction == 1.0
    assert got == RevenueEstimate(got.expected_y, 0.0, 0.0, 0)
    assert got.expected_y == pytest.approx(want.revenue_mean, rel=1e-15)
    assert np.all(payoff._eligible_share(catalog, catalog.delay_lo[None, :]) == 1.0)


def _boundary_case(size, rate, bc_bandwidth):
    """One file on thresholds [0.5, 2] and a broadcast slice with Wb * rb =
    ``bc_bandwidth`` * ``rate``: at size 1 the delay of the term named in
    the test is 2, one ulp above the largest threshold."""
    catalog = catalog_from([size], [1.0], [0.3], rate_model=RateModel(rate, rate, 1.0),
                           delay_lo=[0.5], delay_hi=[2.0])
    cell = CellConfig(bandwidth=3.0, slots=4, n_users=40, price_unicast=0.4)
    return catalog, cell, PricePair(0.4, 0.1), bc_bandwidth, popularity_schedule(catalog)


@pytest.mark.parametrize("rate, bc_bandwidth, term", [
    (0.25, 2.0, "s/(Wb*rb)"),
    (0.5, 0.1, "size/rate"),
])
def test_one_domain_check_for_both_estimators(rate, bc_bandwidth, term):
    expected_revenue(*_boundary_case(1.0, rate, bc_bandwidth), trials=20, seed=0)
    args = _boundary_case(1.0 - 2.0 ** -53, rate, bc_bandwidth)
    messages = set()
    for run in (lambda: simulate_revenue(*args, trials=1, seed=0),
                lambda: expected_revenue(*args, trials=1, seed=0),
                lambda: payoff_guarantee_gaps(*args[:1], *args[2:])):
        with pytest.raises(PayoffDomainError) as exc:
            run()
        messages.add(str(exc.value))
    (message,) = messages
    assert message == ("file 1: delay term non-positive at the largest threshold: "
                       f"{term} - threshold = 0.0")


def test_guarantee_gaps_at_a_partly_eligible_class():
    catalog, _, prices, bc_bandwidth, schedule = _tiny()
    gaps = payoff_guarantee_gaps(catalog, prices, bc_bandwidth, schedule)
    assert gaps.size == 2 and np.all(gaps >= 0)
    # The partly eligible class is evaluated at its marginal user, where
    # both payoffs tie to within the rounding band.
    assert 0 <= gaps.min() <= 1e-9


def test_guarantee_gaps_hold_to_rounding_on_random_instances():
    # Broadcast delays put t* inside [lo, hi] for one rate of every file,
    # over a wide range of sizes, rates and price gaps.
    rng = np.random.default_rng(7)
    partial = 0
    for _ in range(500):
        f = rng.uniform(0.01, 5.0, 4)
        r = 10 ** rng.uniform(-3, 0)
        model = RateModel(r_high=r * rng.uniform(1, 3), r_low=r, prob_high=0.5)
        download = f / model.r_high
        lo = rng.uniform(0.01, 0.9) * download.min()
        hi = lo + (download.min() - lo) * rng.uniform(0.001, 0.99)
        prices = PricePair(2.6, max(0.0, 2.6 - 10 ** rng.uniform(-9, 0.4)))
        g = (prices.unicast - prices.broadcast) * f
        a = (download + rng.uniform(lo, hi, 4) * np.expm1(-g)) * np.exp(g)
        if np.any(a <= hi):
            continue
        catalog = FileCatalog(sizes=f, popularity=np.full(4, 0.25), theta=np.ones(4),
                              delay_lo=np.full(4, lo), delay_hi=np.full(4, hi),
                              rate_model=model)
        # A schedule whose completion sizes give exactly these delays.
        schedule = dataclasses.replace(popularity_schedule(catalog), s=a * model.r_low)
        share = payoff._eligible_share(catalog, payoff.eligibility_threshold(catalog, prices,
                                                                             a))
        partial += np.count_nonzero((share > 0) & (share < 1))
        assert np.all(payoff_guarantee_gaps(catalog, prices, 1.0, schedule) >= 0)
    assert partial > 1000


def test_paper_bound_exceeds_exact_expected_y_at_a_small_seven_cell_point(seven_cell_spec):
    # The paper's bound is not always a lower bound: on the 8-file seven-cell
    # catalog at N = 100 it exceeds E[Y], which is exact and at least E[R]
    # (the residual R - Y is never positive). No sampled number decides it.
    catalog, cell, _ = normalize(dataclasses.replace(seven_cell_spec, file_count=8))
    cell = dataclasses.replace(cell, n_users=100)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    assert (f"{price:.6f}", f"{bandwidth:.6f}") == ("1.514053", "2.226861")
    bound = lower_bound_revenue(catalog, cell, price, bandwidth, schedule)
    args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
    estimates = [expected_revenue(*args, trials=2, seed=seed) for seed in (0, 1)]
    assert estimates[0].expected_y == estimates[1].expected_y
    assert all(est.residual_mean <= 0 for est in estimates)
    assert (f"{bound:.3f}", f"{estimates[0].expected_y:.3f}") == ("263.892", "237.085")
    assert bound > estimates[0].expected_y
