import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastopt import payoff
from bcastopt.channel import RateModel, rates_from_uniforms
from bcastopt.errors import InvalidParameterError, PayoffDomainError
from bcastopt.optimizer import CellConfig, operating_point
from bcastopt.payoff import PricePair, SimulationReport, simulate_revenue, unicast_grants
from bcastopt.scheduler import popularity_schedule, suboptimal_schedule

from conftest import catalog_from, point_rate, record_results, traced_peak


class TestUnicastPayoff:
    """payoff._payoff with the unicast delay term f/r - t."""

    def test_hand_evaluation(self):
        # f = 3, t = 1, r = 1: denom = 2.
        value = payoff._payoff(3.0, 3.0 / 1.0 - 1.0, 0.1)
        assert value == pytest.approx(math.log(2.0) - 0.3, abs=1e-12)

    def test_break_even_price(self):
        price = math.log(2.0) / 3.0
        assert payoff._payoff(3.0, 3.0 / 1.0 - 1.0, price) == pytest.approx(0.0, abs=1e-12)

    def test_hand_values_on_arrays(self):
        sizes = np.array([3.0, 3.0, 6.0])
        denom = sizes / np.array([1.0, 1.0, 2.0]) - np.array([1.0, 1.0, 2.0])
        expected = [math.log(2.0) - 0.3, math.log(2.0) - 0.3, math.log(7.0) - 0.6]
        assert payoff._payoff(sizes, denom, 0.1) == pytest.approx(expected, abs=1e-12)


class TestBroadcastPayoff:
    """payoff._payoff with the broadcast delay term s/(Wb*rb) - t."""

    def test_degenerates_to_unicast(self):
        # With s = f, Wb * rb = r and equal prices the two expressions match.
        uc = payoff._payoff(3.0, 3.0 / 1.0 - 1.0, 0.1)
        bc = payoff._payoff(3.0, 3.0 / (2.0 * 0.5) - 1.0, 0.1)
        assert bc == pytest.approx(uc, abs=1e-12)

    def test_hand_evaluation(self):
        # f = 3, t = 1, s = 6, Wb * rb = 1: denom = 5.
        value = payoff._payoff(3.0, 6.0 / 1.0 - 1.0, 0.05)
        assert value == pytest.approx(math.log(0.8) - 0.15, abs=1e-12)

    def test_hand_values_on_arrays(self):
        denom = np.array([6.0, 3.0]) / 1.0 - np.array([1.0, 1.0])
        expected = [math.log(0.8) - 0.15, math.log(2.0) - 0.15]
        assert payoff._payoff(np.array([3.0, 3.0]), denom, 0.05) == pytest.approx(
            expected, abs=1e-12)


def _services(granted, eligible):
    """Each user's outcome as the simulator derives it from the unicast
    grants and broadcast eligibility: unicast if granted, else broadcast
    if eligible, else unserved."""
    return np.where(granted, "unicast", np.where(eligible, "broadcast", "unserved"))


def _assign(demand, eligible, pool):
    return _services(unicast_grants(demand, pool), eligible)


class TestSelectService:
    """Per-user service selection: :func:`unicast_grants` plus eligibility."""

    def test_unicast_wins_when_broadcast_pays_less(self):
        assert _assign([1.0], [0.5 >= 1.0], 5.0).tolist() == ["unicast"]

    def test_broadcast_after_capacity_exhausted(self):
        assert _assign([3.0, 3.0], [True, 1.5 >= 1.0], 3.0).tolist() == [
            "unicast", "broadcast"]

    def test_tie_prefers_unicast_while_capacity_lasts(self):
        assert _assign([2.0], [1.0 >= 1.0], 2.0).tolist() == ["unicast"]

    def test_no_broadcast_without_payoff_gain_even_when_full(self):
        assert _assign([3.0, 3.0], [True, 0.5 >= 1.0], 3.0).tolist() == [
            "unicast", "unserved"]

    @given(
        users=st.lists(
            st.tuples(st.floats(-50, 50, allow_nan=False),
                      st.floats(-50, 50, allow_nan=False),
                      st.integers(1, 6)),
            max_size=12,
        ),
        pool=st.floats(0, 40, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_broadcast_when_it_loses_payoff(self, users, pool):
        uc = np.array([u[0] for u in users])
        bc = np.array([u[1] for u in users])
        demand = np.array([u[2] for u in users], dtype=float)
        _check_policy(_assign(demand, bc >= uc, pool), uc, bc, demand, pool)

    @given(
        block=st.integers(0, 12).flatmap(lambda n: st.lists(
            st.lists(
                st.tuples(st.floats(-50, 50, allow_nan=False),
                          st.floats(-50, 50, allow_nan=False),
                          st.integers(1, 6)),
                min_size=n, max_size=n,
            ),
            min_size=1, max_size=4,
        )),
        pool=st.floats(0, 40, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_broadcast_when_it_loses_payoff_in_blocks(self, block, pool):
        uc, bc, demand = (
            np.array([[u[i] for u in row] for row in block], dtype=float) for i in range(3)
        )
        granted = unicast_grants(demand, pool)
        assert granted.shape == demand.shape and granted.dtype == bool
        choice = _services(granted, bc >= uc)
        for row_choice, row_uc, row_bc, row_demand in zip(choice, uc, bc, demand):
            _check_policy(row_choice, row_uc, row_bc, row_demand, pool)
            assert np.array_equal(
                row_choice, _reference_assignment(row_demand, row_bc >= row_uc, pool))


def _check_policy(choice, uc, bc, demand, pool):
    """One trial's assignment keeps the payoff guarantee and leaves nobody
    off unicast who would still fit."""
    assert not np.any((choice == "broadcast") & (bc < uc))
    assert np.all((choice == "unserved") == ((choice != "unicast") & (bc < uc)))
    # A user left off unicast had no room for it, even at the end.
    leftover = pool - demand[choice == "unicast"].sum()
    assert leftover >= 0
    assert np.all(demand[choice != "unicast"] > leftover)


def _reference_assignment(demand, eligible, pool):
    """The simulator's former per-user loop, which stopped only when less
    than one unit of pool was left."""
    n = len(demand)
    assigned = np.full(n, "unserved", dtype=object)
    remaining = pool
    cut = n
    for k in range(n):
        if remaining < 1.0:
            cut = k
            break
        if demand[k] <= remaining:
            assigned[k] = "unicast"
            remaining -= demand[k]
        else:
            assigned[k] = "broadcast" if eligible[k] else "unserved"
    if cut < n:
        assigned[cut:] = np.where(eligible[cut:], "broadcast", "unserved")
    return assigned


class TestAssignServices:
    """Service assignment: the unicast grants, then eligibility."""

    def test_leftover_below_every_remaining_demand(self):
        # Two grants leave 1.5 units: at least one, but too few for a 5.
        demand = np.array([2.0, 2.0, 5.0, 5.0, 5.0])
        eligible = np.array([False, True, True, False, True])
        granted = unicast_grants(demand, 5.5)
        assert granted.tolist() == [True, True, False, False, False]
        got = _services(granted, eligible)
        assert got.tolist() == ["unicast", "unicast", "broadcast", "unserved", "broadcast"]
        assert np.array_equal(got, _reference_assignment(demand, eligible, 5.5))

    def test_matches_reference_loop_on_random_cases(self):
        stuck = 0  # cases whose leftover is >= 1 but fits no remaining demand
        for demand, eligible, pool in _random_cases(rows=None):
            got = _assign(demand, eligible, pool)
            stuck += _check_against_reference(got, demand, eligible, pool)
        assert stuck > 100

    @pytest.mark.parametrize("rows", [1, 4])
    def test_block_rows_match_reference_loop(self, rows):
        stuck = 0
        for demand, eligible, pool in _random_cases(rows):
            got = _assign(demand, eligible, pool)
            assert got.shape == demand.shape
            for row in zip(got, demand, eligible):
                stuck += _check_against_reference(*row, pool)
        assert stuck > 100 * rows


def _random_cases(rows):
    """Random (demand, eligible, pool) cases of ``rows`` trials sharing one
    pool (one trial of shape (n,) when ``rows`` is None). Some pools are
    whole numbers or end in .5."""
    rng = np.random.default_rng(11)
    shape = () if rows is None else (rows,)
    for _ in range(3000):
        n = int(rng.integers(0, 60))
        demand = np.ceil(rng.uniform(0.01, rng.uniform(0.5, 34.0), shape + (n,)))
        eligible = rng.random(shape + (n,)) < rng.random()
        pool = float(rng.uniform(0.0, 1.2) * demand.sum(axis=-1).mean()) if n else 2.0
        if rng.random() < 0.3:
            pool = float(np.floor(pool)) + float(rng.choice([0.0, 0.5]))
        yield demand, eligible, pool


def _check_against_reference(got, demand, eligible, pool):
    """Assert one trial's assignment equals the reference loop; return
    whether its leftover is >= 1 yet fits no remaining demand."""
    assert np.array_equal(got, _reference_assignment(demand, eligible, pool))
    leftover = pool - demand[got == "unicast"].sum()
    return bool(leftover >= 1.0 and np.any(got != "unicast"))


def _oracle_cell(n_users):
    return CellConfig(bandwidth=3.0, slots=4, n_users=n_users, price_unicast=0.4)


def _oracle_catalog():
    # Point-mass thresholds and a single region make every draw deterministic.
    return catalog_from(
        sizes=[5.0, 4.0, 3.0], popularity=[0.5, 0.3, 0.2], theta=[0.25, 0.3, 0.4],
        rate_model=point_rate(0.5), delay_lo=[1.0, 1.0, 1.0], delay_hi=[1.0, 1.0, 1.0],
    )


class TestSimulateRevenue:
    def test_no_users_gives_exact_fixed_revenue(self):
        catalog = _oracle_catalog()
        cell = _oracle_cell(0)
        report = simulate_revenue(catalog, cell, PricePair(0.4, 0.1), 1.0,
                                  popularity_schedule(catalog), trials=50, seed=1)
        assert report.revenue_mean == 0.4 * (3.0 - 1.0) * 4
        assert report.revenue_stderr == 0.0
        assert report.bc_user_fraction == 0.0
        assert report.unrequested_scheduled_mean == 3.0  # sum_i (1 - p_i)^0 = M

    def test_unrequested_mean_hand_value(self):
        # M = 2, N = 1: the one user requests exactly one of the two files.
        catalog = catalog_from(
            sizes=[5.0, 4.0], popularity=[0.7, 0.3], theta=[0.3, 0.3],
            rate_model=point_rate(0.5), delay_lo=[1.0, 1.0], delay_hi=[1.0, 1.0],
        )
        report = simulate_revenue(catalog, _oracle_cell(1), PricePair(0.4, 0.1), 1.0,
                                  popularity_schedule(catalog), trials=3, seed=0)
        assert report.unrequested_scheduled_mean == pytest.approx(1.0, abs=1e-15)

    def test_unrequested_mean_matches_sampled_count(self, single_cell_setup):
        # The exact mean against the per-trial count M - count_nonzero(counts)
        # on the M = 2000 catalog.
        catalog, cell, _ = single_cell_setup
        cell = dataclasses.replace(cell, n_users=200)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        report = simulate_revenue(catalog, cell, PricePair(cell.price_unicast, price),
                                  bandwidth, schedule, trials=1, seed=0)
        gen = np.random.default_rng(4)
        sampled = np.array([
            catalog.size - np.count_nonzero(gen.multinomial(200, catalog.popularity))
            for _ in range(2000)
        ])
        stderr = sampled.std(ddof=1) / math.sqrt(sampled.size)
        assert abs(sampled.mean() - report.unrequested_scheduled_mean) <= 4 * stderr

    def test_zero_broadcast_price_leaves_only_unicast_term(self):
        catalog = _oracle_catalog()
        cell = _oracle_cell(12)
        report = simulate_revenue(catalog, cell, PricePair(0.4, 0.0), 1.0,
                                  popularity_schedule(catalog), trials=40, seed=2)
        assert report.revenue_mean == pytest.approx(0.4 * 2.0 * 4, abs=1e-12)
        assert report.bc_user_fraction > 0  # users are still assigned, just free

    def test_revenue_decomposition_single_file(self):
        catalog = catalog_from([4.0], [1.0], [0.3], rate_model=point_rate(0.5),
                               delay_lo=[1.0], delay_hi=[1.0])
        cell = CellConfig(bandwidth=3.0, slots=4, n_users=9, price_unicast=0.4)
        prices = PricePair(0.4, 0.2)
        report = simulate_revenue(catalog, cell, prices, 1.0,
                                  popularity_schedule(catalog), trials=7, seed=3)
        bc_users_mean = report.bc_user_fraction * cell.n_users
        expected = report.uc_revenue + prices.broadcast * 4.0 * bc_users_mean
        assert report.revenue_mean == pytest.approx(expected, rel=1e-12)

    def test_matches_exhaustive_enumeration(self):
        # Oracle: with all randomness degenerate, revenue depends only on the
        # request profile; enumerate all 3^5 profiles with their probabilities
        # and apply the policy (popularity first, unicast while it fits,
        # broadcast only when it pays at least the unicast payoff).
        catalog = _oracle_catalog()
        cell = _oracle_cell(5)
        prices = PricePair(0.4, 0.1)
        bandwidth = 1.0
        schedule = popularity_schedule(catalog)

        sizes, p = catalog.sizes, catalog.popularity
        rate = 0.5
        threshold = 1.0
        u = np.log((1 + sizes) / (sizes / rate - threshold)) - prices.unicast * sizes
        completion = schedule.s / (bandwidth * rate)
        b = np.log((1 + sizes) / (completion - threshold)) - prices.broadcast * sizes
        eligible = b >= u
        demand = np.ceil(sizes / rate)
        pool = (cell.bandwidth - bandwidth) * cell.slots

        expected = 0.0
        for profile in itertools.product(range(3), repeat=5):
            prob = float(np.prod(p[list(profile)]))
            counts = np.bincount(profile, minlength=3)
            remaining = pool
            bc_revenue = 0.0
            for i in np.argsort(-p, kind="stable"):
                for _ in range(counts[i]):
                    if remaining >= 1.0 and demand[i] <= remaining:
                        remaining -= demand[i]
                    elif eligible[i]:
                        bc_revenue += prices.broadcast * sizes[i]
            expected += prob * (prices.unicast * pool + bc_revenue)

        report = simulate_revenue(catalog, cell, prices, bandwidth, schedule,
                                  trials=4000, seed=17)
        assert report.revenue_mean == pytest.approx(
            expected, abs=3 * report.revenue_stderr + 1e-9
        )

    def test_payoff_guarantee_holds_across_trials(self):
        catalog = _oracle_catalog()
        cell = _oracle_cell(40)
        report = simulate_revenue(catalog, cell, PricePair(0.4, 0.15), 1.2,
                                  popularity_schedule(catalog), trials=300, seed=5)
        assert report.payoff_guarantee_violations == 0
        assert report.mean_payoff_policy >= report.mean_payoff_uc_baseline

    def test_deterministic_for_fixed_seed(self):
        catalog = _oracle_catalog()
        cell = _oracle_cell(25)
        kw = dict(trials=60, seed=99)
        a = simulate_revenue(catalog, cell, PricePair(0.4, 0.1), 1.0,
                             popularity_schedule(catalog), **kw)
        b = simulate_revenue(catalog, cell, PricePair(0.4, 0.1), 1.0,
                             popularity_schedule(catalog), **kw)
        assert a.revenue_mean == b.revenue_mean
        assert a.revenue_stderr == b.revenue_stderr
        assert a.bc_user_fraction == b.bc_user_fraction

    def test_report_serializes_required_fields(self):
        import json

        catalog = _oracle_catalog()
        report = simulate_revenue(catalog, _oracle_cell(10), PricePair(0.4, 0.1),
                                  1.0, popularity_schedule(catalog), trials=5, seed=0)
        payload = json.loads(report.to_json())
        for key in ("revenue_mean", "revenue_stderr", "bc_user_fraction",
                    "payoff_guarantee_violations", "trials", "seed"):
            assert key in payload
        assert payload["payoff_guarantee_violations"] == 0

    def test_broadcast_before_threshold_is_domain_error(self):
        # Wb * rb = 12.5, so file 1 (s = 5) completes at 0.4 slots, before
        # every user's threshold of 1 slot. No draw decides it.
        catalog = _oracle_catalog()
        cell = CellConfig(bandwidth=30.0, slots=4, n_users=5, price_unicast=0.4)
        for trials, seed in ((3, 0), (500, 9)):
            with pytest.raises(PayoffDomainError) as exc:
                simulate_revenue(catalog, cell, PricePair(0.4, 0.1), 25.0,
                                 popularity_schedule(catalog), trials=trials, seed=seed)
            assert str(exc.value) == (
                f"file 1: delay term non-positive at the largest threshold: "
                f"s/(Wb*rb) - threshold = {5.0 / 12.5 - 1.0!r}")

    def test_download_before_threshold_is_domain_error(self):
        # f / r = 10 slots, below the 20-slot threshold.
        catalog = catalog_from([5.0], [1.0], [0.25], rate_model=point_rate(0.5),
                               delay_lo=[20.0], delay_hi=[20.0])
        with pytest.raises(PayoffDomainError) as exc:
            simulate_revenue(catalog, _oracle_cell(3), PricePair(0.4, 0.1), 1.0,
                             popularity_schedule(catalog), trials=3, seed=0)
        assert str(exc.value) == (
            "file 1: delay term non-positive at the largest threshold: "
            "size/rate - threshold = -10.0")

    def test_invalid_arguments_rejected(self):
        catalog = _oracle_catalog()
        sched = popularity_schedule(catalog)
        with pytest.raises(InvalidParameterError):
            simulate_revenue(catalog, _oracle_cell(5), PricePair(0.4, 0.1), 1.0,
                             sched, trials=0, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_revenue(catalog, _oracle_cell(5), PricePair(0.4, 0.1), 99.0,
                             sched, trials=5, seed=0)
        with pytest.raises(InvalidParameterError):
            PricePair(1.0, 1.5)


def _reference_simulation(catalog, cell, prices, bc_bandwidth, schedule, trials, seed):
    """The simulator as one loop iteration per trial, the way it ran before
    trials were evaluated in blocks, with the per-user allocation loop.
    One generator serves every trial, in trial order. Payoffs come from
    the formula written out here, and every delay term drawn must be
    positive. Per-trial sums run over the trial's N users with the entries
    outside the mask set to zero."""
    n_users = cell.n_users
    uc_revenue = prices.unicast * (cell.bandwidth - bc_bandwidth) * cell.slots
    uc_pool = (cell.bandwidth - bc_bandwidth) * cell.slots
    nan = float("nan")
    if n_users == 0:
        return SimulationReport(
            uc_revenue, 0.0, 0.0, 0, trials, seed, 0, uc_revenue, 0.0, 0.0, nan, nan,
            0, float(catalog.size), nan,
        )
    proc_order = np.argsort(-catalog.popularity, kind="stable")
    lo, hi = catalog.delay_lo, catalog.delay_hi
    model = catalog.rate_model
    revenues, bc_frac, uc_frac, unserved_frac = (np.zeros(trials) for _ in range(4))
    policy, baseline, rates = [], [], []
    violations = shortfall = 0
    gen = np.random.default_rng(seed)
    for t in range(trials):
        counts = gen.multinomial(n_users, catalog.popularity)
        ufile = np.repeat(proc_order, counts[proc_order])
        rate_u = np.where(gen.random(n_users) < model.prob_high, model.r_high, model.r_low)
        thr = gen.uniform(lo[ufile], hi[ufile])
        f = catalog.sizes[ufile]
        uc_term = f / rate_u - thr
        assert np.all(uc_term > 0), f"trial {t}: a drawn download ends before its threshold"
        payoff_uc = np.log((1.0 + f) / uc_term) - prices.unicast * f
        if bc_bandwidth > 0.0:
            bc_term = schedule.s[ufile] / (bc_bandwidth * model.r_low) - thr
            assert np.all(bc_term > 0), f"trial {t}: a drawn broadcast ends before its threshold"
            payoff_bc = np.log((1.0 + f) / bc_term) - prices.broadcast * f
            eligible = payoff_bc >= payoff_uc
        else:
            payoff_bc = np.full(n_users, -np.inf)
            eligible = np.zeros(n_users, dtype=bool)
        demand = np.ceil(f / rate_u)
        if demand.sum() < uc_pool:
            shortfall += 1
        assigned = _reference_assignment(demand, eligible, uc_pool)
        bc_mask = assigned == "broadcast"
        uc_mask = assigned == "unicast"
        served = bc_mask | uc_mask
        violations += int(np.count_nonzero(bc_mask & (payoff_bc < payoff_uc)))
        revenues[t] = uc_revenue + prices.broadcast * float(np.where(bc_mask, f, 0.0).sum())
        bc_frac[t] = bc_mask.sum() / n_users
        uc_frac[t] = uc_mask.sum() / n_users
        unserved_frac[t] = 1.0 - bc_frac[t] - uc_frac[t]
        if served.any():
            realized = np.where(bc_mask, payoff_bc, payoff_uc)
            policy.append(np.where(served, realized, 0.0).sum() / served.sum())
            baseline.append(np.where(served, payoff_uc, 0.0).sum() / served.sum())
        if bc_mask.any():
            rates.append(float(rate_u[bc_mask].min()))
    if shortfall:
        warnings.warn(f"unicast demand fell below capacity in {shortfall}/{trials} trials")
    with np.errstate(divide="ignore"):  # p_i = 1: log1p(-1) = -inf, term 0
        unrequested = float(np.exp(n_users * np.log1p(-catalog.popularity)).sum())
    return SimulationReport(
        revenue_mean=float(revenues.mean()),
        revenue_stderr=(
            float(revenues.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        ),
        bc_user_fraction=float(bc_frac.mean()),
        payoff_guarantee_violations=violations,
        trials=trials,
        seed=seed,
        n_users=n_users,
        uc_revenue=uc_revenue,
        uc_user_fraction=float(uc_frac.mean()),
        unserved_user_fraction=float(unserved_frac.mean()),
        mean_payoff_policy=float(np.mean(policy)) if policy else nan,
        mean_payoff_uc_baseline=float(np.mean(baseline)) if baseline else nan,
        uc_demand_shortfall_trials=shortfall,
        unrequested_scheduled_mean=unrequested,
        bc_rate_realized_mean=float(np.mean(rates)) if rates else nan,
    )


def _matches_trial_loop_at_operating_point(catalog, cell, n_users=150, trials=100, seed=13):
    """Simulate at the suboptimal operating point and compare with the
    trial loop field by field; returns the report."""
    cell = dataclasses.replace(cell, n_users=n_users)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
    got = simulate_revenue(*args, trials=trials, seed=seed)
    _assert_same_report(got, _reference_simulation(*args, trials=trials, seed=seed))
    return got


def _assert_same_report(got, want):
    for field in dataclasses.fields(SimulationReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b or (math.isnan(a) and math.isnan(b)), (field.name, a, b)


def _recorded(run):
    """Call ``run`` and return its result with the messages it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [str(w.message) for w in caught]


class TestSimulateBlocks:
    """Block evaluation reproduces the trial-by-trial loop bit for bit."""

    @pytest.mark.parametrize("n_users, trials, bc_bandwidth, cell_bandwidth", [
        # 2**13 // 300 = 27 trials a block: 27 + 27 + 6; a 100-unit cell
        # serves users on unicast, on broadcast and not at all
        (300, 60, None, 100.0),
        (9000, 3, None, None),  # N > 2**13: one trial a block
        (200, 1, None, None),   # a single trial
        (150, 40, 0.0, None),   # no broadcast slice
        (0, 5, None, None),     # no users
        (50, 333, None, None),  # 2**13 // 50 = 163: 163 + 163 + 7
    ])
    def test_matches_trial_loop(self, single_cell_setup, n_users, trials, bc_bandwidth,
                                cell_bandwidth):
        catalog, cell, _ = single_cell_setup
        cell = dataclasses.replace(cell, n_users=n_users)
        if cell_bandwidth is not None:
            cell = dataclasses.replace(cell, bandwidth=cell_bandwidth)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        if bc_bandwidth is not None:
            bandwidth = bc_bandwidth
        args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
        got = simulate_revenue(*args, trials=trials, seed=71)
        _assert_same_report(got, _reference_simulation(*args, trials=trials, seed=71))
        if cell_bandwidth is not None:
            assert min(got.bc_user_fraction, got.uc_user_fraction,
                       got.unserved_user_fraction) > 0

    @pytest.mark.filterwarnings("ignore:unicast demand fell below capacity")
    @pytest.mark.parametrize("n_users", [1, 50, 300, 1400, 8192])
    def test_block_temporaries_stay_under_the_mmap_threshold(self, single_cell_setup,
                                                              monkeypatch, n_users):
        # cli.main's mallopt pins glibc's mmap threshold at 128 KiB; a float64
        # (k, N) temporary at or above it would be mapped and faulted in
        # afresh for every block (README, "Simulator blocks").
        catalog, cell, _ = single_cell_setup
        cell = dataclasses.replace(cell, n_users=n_users)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        real, shapes = payoff._evaluate_block, []

        def spy(*args):
            shapes.append(args[5].shape)  # ufile, one row of N users per trial
            return real(*args)

        monkeypatch.setattr(payoff, "_evaluate_block", spy)
        simulate_revenue(catalog, cell, PricePair(cell.price_unicast, price), bandwidth,
                         schedule, trials=payoff._BLOCK_USER_TRIALS // n_users + 1, seed=3)
        assert max(k * n for k, n in shapes) * np.dtype(np.float64).itemsize < 128 << 10

    def test_memory_per_trial_is_a_few_slots(self, single_cell_setup):
        # Per trial the simulator keeps six 8-byte statistics, and two mask
        # bytes after the last block; one stream serves every trial.
        catalog, cell, _ = single_cell_setup
        cell = dataclasses.replace(cell, n_users=200)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
        simulate_revenue(*args, trials=50, seed=3)
        small = traced_peak(lambda: simulate_revenue(*args, trials=1000, seed=3))
        large = traced_peak(lambda: simulate_revenue(*args, trials=8000, seed=3))
        assert (large - small) / 7000 <= 64

    def test_rows_without_broadcast_or_served_users(self, single_cell_setup, monkeypatch):
        # 3 users in an 8-unit cell with half of it on broadcast: in the one
        # block of 300 trials, some rows serve nobody and some broadcast to
        # nobody, so their masked sums are empty next to non-empty ones.
        catalog, cell0, _ = single_cell_setup
        cell = dataclasses.replace(cell0, bandwidth=8.0, n_users=3)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        _, price, _ = operating_point(catalog, cell, schedule)
        args = (catalog, cell, PricePair(cell.price_unicast, price), 4.0, schedule)
        grants = record_results(monkeypatch, payoff, "unicast_grants")
        payoffs = record_results(monkeypatch, payoff, "_payoff")
        got = simulate_revenue(*args, trials=300, seed=5)
        _assert_same_report(got, _reference_simulation(*args, trials=300, seed=5))
        (granted,), (payoff_uc, payoff_bc) = grants, payoffs
        assert granted.shape == (300, 3)
        assigned = _services(granted, payoff_bc >= payoff_uc)
        n_bc = np.count_nonzero(assigned == "broadcast", axis=1)
        n_served = np.count_nonzero(assigned != "unserved", axis=1)
        assert 0 < np.count_nonzero(n_bc == 0) < 300
        assert 0 < np.count_nonzero(n_served == 0) < 300

    def test_point_mass_thresholds_match_trial_loop(self, single_cell_setup):
        catalog, cell, _ = single_cell_setup
        hi = catalog.delay_hi.copy()
        hi[::2] = catalog.delay_lo[::2]
        catalog = dataclasses.replace(catalog, delay_hi=hi)
        assert np.any(catalog.delay_lo == hi) and np.any(catalog.delay_lo < hi)
        _matches_trial_loop_at_operating_point(catalog, cell)

    @pytest.mark.parametrize("prob_high", [0.0, 1.0])
    def test_single_region_rates_match_trial_loop(self, single_cell_setup, prob_high):
        catalog, cell, _ = single_cell_setup
        rates = dataclasses.replace(catalog.rate_model, prob_high=prob_high)
        catalog = dataclasses.replace(catalog, rate_model=rates)
        got = _matches_trial_loop_at_operating_point(catalog, cell)
        rate = rates.r_high if prob_high == 1.0 else rates.r_low
        assert got.bc_rate_realized_mean == pytest.approx(rate, rel=1e-12)

    def test_shortfall_trials_and_warning_match_trial_loop(self, single_cell_setup):
        # A 40-unit cell with 5 users: about half the trials leave pool unsold.
        catalog, cell0, _ = single_cell_setup
        cell = dataclasses.replace(cell0, bandwidth=40.0, n_users=5)
        schedule = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, _ = operating_point(catalog, cell, schedule)
        args = (catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule)
        got, got_warned = _recorded(lambda: simulate_revenue(*args, trials=2000, seed=8))
        want, want_warned = _recorded(
            lambda: _reference_simulation(*args, trials=2000, seed=8))
        _assert_same_report(got, want)
        assert 0 < got.uc_demand_shortfall_trials < 2000
        assert len(got_warned) == len(want_warned) == 1
        assert f"{got.uc_demand_shortfall_trials}/2000 trials" in got_warned[0]
        assert want_warned[0] in got_warned[0]


@pytest.mark.parametrize("setup, n_users", [("single_cell_setup", 200),
                                             ("seven_cell_setup", 700)])
def test_eligibility_is_the_closed_form_threshold(request, setup, n_users):
    # A user is eligible (payoff_bc >= payoff_uc) exactly when their threshold
    # t <= t* = (f/r - e^-g a)/(1 - e^-g), g = (Pu - Pb) f, a = s/(Wb rb):
    # t* is read from payoff.eligibility_threshold's (rate, file) table.
    # Users with t within rounding of t* are counted apart, not passed.
    catalog, cell, _ = request.getfixturevalue(setup)
    cell = dataclasses.replace(cell, n_users=n_users)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    prices = PricePair(cell.price_unicast, price)
    trials = 100
    ufile, u = np.empty((trials, n_users), dtype=np.intp), np.empty((trials, 2, n_users))
    proc_order = np.argsort(-catalog.popularity, kind="stable")
    payoff._draw_block(np.random.default_rng(21), catalog.popularity, proc_order, ufile, u)

    bc_delay = schedule.s / (bandwidth * catalog.rate_model.r_low)
    rate = rates_from_uniforms(catalog.rate_model, u[:, 0])
    lo = catalog.delay_lo
    t = lo[ufile] + (catalog.delay_hi - lo)[ufile] * u[:, 1]
    f, a = catalog.sizes[ufile], bc_delay[ufile]
    eligible = (payoff._payoff(f, a - t, prices.broadcast)
                >= payoff._payoff(f, f / rate - t, prices.unicast))
    g = (prices.unicast - prices.broadcast) * f
    assert g.min() > 0
    row = (u[:, 0] >= catalog.rate_model.prob_high).astype(np.intp)  # 0: r_high
    t_star = payoff.eligibility_threshold(catalog, prices, bc_delay)[row, ufile]
    scale = (f / rate + np.exp(-g) * a) / -np.expm1(-g)
    near = np.abs(t - t_star) <= 1e-9 * scale
    below = t <= t_star
    assert np.count_nonzero(near) <= 1e-4 * near.size
    assert np.array_equal(eligible[~near], below[~near])
    # Not decided by the file alone: some files have users on both sides.
    assert any(0 < below[ufile == i].mean() < 1 for i in np.unique(ufile))

    # The simulator's own eligibility: with an empty unicast pool nobody is
    # granted, so its broadcast fraction is the eligible fraction.
    _, stats = payoff._evaluate_block(catalog, prices, bc_delay, 0.0, 0.0, ufile, u, 0)
    clean = ~near.any(axis=1)
    assert clean.any()
    assert np.array_equal(stats[1][clean], below.mean(axis=1)[clean])


# Generator.random's largest value, and the largest threshold it gives on
# [0.5, 2]: one ulp below 2, so no draw reaches delay_hi.
_U_MAX = 1.0 - 2.0 ** -53
assert 0.5 + 1.5 * _U_MAX == 2.0 - 2.0 ** -52


def _boundary_case(size, rate, bc_bandwidth, n_users=40):
    """One file on thresholds [0.5, 2], users at ``rate`` and a broadcast
    slice with Wb * rb = ``bc_bandwidth`` * ``rate``."""
    catalog = catalog_from([size], [1.0], [0.3], rate_model=point_rate(rate),
                           delay_lo=[0.5], delay_hi=[2.0])
    cell = CellConfig(bandwidth=3.0, slots=4, n_users=n_users, price_unicast=0.4)
    return catalog, cell, PricePair(0.4, 0.1), bc_bandwidth, popularity_schedule(catalog)


class TestDomainCheck:
    """The payoff domain is checked once, at the largest threshold a draw
    can give and the fastest rate a user can draw."""

    @pytest.mark.parametrize("rate, bc_bandwidth, term", [
        (0.25, 2.0, "s/(Wb*rb)"),  # broadcast completes at s / 0.5 = 2 * size
        (0.5, 0.1, "size/rate"),   # download takes size / 0.5 = 2 * size
    ])
    def test_boundary_is_exact(self, rate, bc_bandwidth, term):
        # size = 1: the delay is 2, one ulp above the largest threshold, so
        # the term is the smallest positive value it can take there.
        args = _boundary_case(1.0, rate, bc_bandwidth)
        got = simulate_revenue(*args, trials=200, seed=4)
        _assert_same_report(got, _reference_simulation(*args, trials=200, seed=4))
        assert math.isfinite(got.mean_payoff_policy)
        assert math.isfinite(got.mean_payoff_uc_baseline)
        # One ulp less: the delay equals the largest threshold.
        with pytest.raises(PayoffDomainError) as exc:
            simulate_revenue(*_boundary_case(_U_MAX, rate, bc_bandwidth),
                             trials=1, seed=0)
        assert str(exc.value) == (
            f"file 1: delay term non-positive at the largest threshold: "
            f"{term} - threshold = 0.0")

    @pytest.mark.parametrize("rare", [0.0, 1e-13])
    def test_file_nobody_can_request_is_exempt(self, rare):
        # File 2 downloads in 10 slots, before its 20-slot threshold.
        catalog = catalog_from(
            sizes=[5.0, 5.0], popularity=[1.0 - rare, rare], theta=[0.3, 0.3],
            rate_model=point_rate(0.5), delay_lo=[1.0, 20.0], delay_hi=[1.0, 20.0],
        )
        args = (catalog, _oracle_cell(20), PricePair(0.4, 0.1), 1.0,
                popularity_schedule(catalog))
        if rare:
            with pytest.raises(PayoffDomainError, match=r"^file 2: .* size/rate - "):
                simulate_revenue(*args, trials=5, seed=0)
        else:
            got = simulate_revenue(*args, trials=5, seed=0)
            _assert_same_report(got, _reference_simulation(*args, trials=5, seed=0))

    @pytest.mark.parametrize("prob_high", [0.0, 1e-9])
    def test_rate_nobody_can_draw_is_exempt(self, prob_high):
        # f / r_high = 1 slot, before the 2-slot threshold; f / r_low = 10.
        rates = RateModel(r_high=1.0, r_low=0.1, prob_high=prob_high)
        catalog = catalog_from([1.0], [1.0], [0.3], rate_model=rates,
                               delay_lo=[2.0], delay_hi=[2.0])
        args = (catalog, _oracle_cell(20), PricePair(0.4, 0.1), 0.1,
                popularity_schedule(catalog))
        if prob_high:
            with pytest.raises(PayoffDomainError, match=r"size/rate - threshold = -1\.0$"):
                simulate_revenue(*args, trials=5, seed=0)
        else:
            got = simulate_revenue(*args, trials=5, seed=0)
            _assert_same_report(got, _reference_simulation(*args, trials=5, seed=0))

    @given(
        files=st.lists(
            st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 1.0), st.floats(0.05, 3.0),
                      st.floats(0.0, 2.0)),
            min_size=1, max_size=4,
        ).filter(lambda fs: sum(f[1] for f in fs) > 0),
        r_low=st.floats(0.05, 2.0),
        r_ratio=st.floats(1.0, 3.0),
        prob_high=st.sampled_from([0.0, 0.5, 1.0]),
        wb_share=st.sampled_from([0.0, 0.25, 1.0]),
        n_users=st.integers(1, 30),
        trials=st.integers(1, 4),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_check_raises_or_every_drawn_term_is_positive(
            self, files, r_low, r_ratio, prob_high, wb_share, n_users, trials, seed):
        sizes, weights, lo, span = (np.array(column) for column in zip(*files))
        catalog = catalog_from(
            sizes, weights / weights.sum(), np.ones(len(files)),
            rate_model=RateModel(r_high=r_low * r_ratio, r_low=r_low, prob_high=prob_high),
            delay_lo=lo, delay_hi=lo + span,
        )
        # rb = r_low is no user's rate above, so the broadcast term alone
        # fails only with Wb > 1: the full share of the 4-unit cell.
        cell = CellConfig(bandwidth=4.0, slots=3, n_users=n_users, price_unicast=0.4)
        args = (catalog, cell, PricePair(0.4, 0.1), 4.0 * wb_share,
                popularity_schedule(catalog))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # unsold unicast pool
            try:
                got = simulate_revenue(*args, trials=trials, seed=seed)
            except PayoffDomainError:
                return
            # The reference asserts that every term it draws is positive.
            _assert_same_report(got, _reference_simulation(*args, trials=trials, seed=seed))


@pytest.mark.parametrize("seed, reported", [
    (3, 3), (None, None), (np.random.SeedSequence([3, 5]), [3, 5]),
    (np.random.SeedSequence(3).spawn(1)[0], None),  # entropy alone does not rebuild it
])
def test_report_seed_rebuilds_the_stream(seed, reported):
    catalog = _oracle_catalog()
    args = (catalog, _oracle_cell(10), PricePair(0.4, 0.1), 1.0, popularity_schedule(catalog))
    report = simulate_revenue(*args, trials=5, seed=seed)
    assert report.seed == reported
    if isinstance(reported, list):
        again = simulate_revenue(*args, trials=5, seed=np.random.SeedSequence(report.seed))
        assert again.to_json() == report.to_json()
