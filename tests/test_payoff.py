import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastopt import payoff
from bcastopt.errors import InvalidParameterError, PayoffDomainError
from bcastopt.optimizer import CellConfig, operating_point
from bcastopt.payoff import (
    BROADCAST,
    UNICAST,
    UNSERVED,
    PricePair,
    SimulationReport,
    assign_services,
    broadcast_payoff,
    simulate_revenue,
    unicast_payoff,
)
from bcastopt.scheduler import popularity_schedule, suboptimal_schedule

from conftest import catalog_from, point_rate, traced_peak


class TestUnicastPayoff:
    def test_hand_evaluation(self):
        value = unicast_payoff(size=3.0, threshold=1.0, rate=1.0, price=0.1)
        assert isinstance(value, float)
        assert value == pytest.approx(math.log(2.0) - 0.3, abs=1e-12)

    def test_break_even_price(self):
        price = math.log(2.0) / 3.0
        assert unicast_payoff(3.0, 1.0, 1.0, price) == pytest.approx(0.0, abs=1e-12)

    def test_zero_denominator_is_domain_error(self):
        with pytest.raises(PayoffDomainError):
            unicast_payoff(3.0, 3.0, 1.0, 0.1)

    def test_hand_values_on_arrays(self):
        values = unicast_payoff(np.array([3.0, 3.0, 6.0]), np.array([1.0, 1.0, 2.0]),
                                np.array([1.0, 1.0, 2.0]), 0.1)
        expected = [math.log(2.0) - 0.3, math.log(2.0) - 0.3, math.log(7.0) - 0.6]
        assert values == pytest.approx(expected, abs=1e-12)

    def test_domain_error_names_first_offending_element(self):
        with pytest.raises(PayoffDomainError, match="element 1:.* = -1.0"):
            unicast_payoff(np.array([3.0, 3.0, 3.0]), np.array([1.0, 4.0, 3.0]), 1.0, 0.1)


class TestBroadcastPayoff:
    def test_degenerates_to_unicast(self):
        # With s = f, Wb * rb = r and equal prices the two expressions match.
        uc = unicast_payoff(3.0, 1.0, 1.0, 0.1)
        bc = broadcast_payoff(3.0, 1.0, bc_rate=0.5, completed_size=3.0,
                              bandwidth=2.0, price=0.1)
        assert bc == pytest.approx(uc, abs=1e-12)

    def test_hand_evaluation(self):
        value = broadcast_payoff(3.0, 1.0, bc_rate=1.0, completed_size=6.0,
                                 bandwidth=1.0, price=0.05)
        assert value == pytest.approx(math.log(0.8) - 0.15, abs=1e-12)

    def test_hand_values_on_arrays(self):
        values = broadcast_payoff(np.array([3.0, 3.0]), np.array([1.0, 1.0]), bc_rate=1.0,
                                  completed_size=np.array([6.0, 3.0]), bandwidth=1.0,
                                  price=0.05)
        expected = [math.log(0.8) - 0.15, math.log(2.0) - 0.15]
        assert values == pytest.approx(expected, abs=1e-12)

    def test_zero_denominator_is_domain_error(self):
        with pytest.raises(PayoffDomainError):
            broadcast_payoff(3.0, 1.0, bc_rate=1.0, completed_size=1.0,
                             bandwidth=1.0, price=0.05)
        with pytest.raises(PayoffDomainError, match="element 2"):
            broadcast_payoff(3.0, np.array([1.0, 2.0, 6.0]), 1.0, 6.0, 1.0, 0.05)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(InvalidParameterError):
            broadcast_payoff(3.0, 1.0, 1.0, 6.0, bandwidth=0.0, price=0.05)


class TestSelectService:
    """Per-user service selection, as made by :func:`assign_services`."""

    def test_unicast_wins_when_broadcast_pays_less(self):
        assert assign_services([1.0], [0.5 >= 1.0], 5.0).tolist() == [UNICAST]

    def test_broadcast_after_capacity_exhausted(self):
        assert assign_services([3.0, 3.0], [True, 1.5 >= 1.0], 3.0).tolist() == [
            UNICAST, BROADCAST]

    def test_tie_prefers_unicast_while_capacity_lasts(self):
        assert assign_services([2.0], [1.0 >= 1.0], 2.0).tolist() == [UNICAST]

    def test_no_broadcast_without_payoff_gain_even_when_full(self):
        assert assign_services([3.0, 3.0], [True, 0.5 >= 1.0], 3.0).tolist() == [
            UNICAST, UNSERVED]

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
        _check_policy(assign_services(demand, bc >= uc, pool), uc, bc, demand, pool)

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
        choice = assign_services(demand, bc >= uc, pool)
        assert choice.shape == demand.shape
        for row_choice, row_uc, row_bc, row_demand in zip(choice, uc, bc, demand):
            _check_policy(row_choice, row_uc, row_bc, row_demand, pool)
            assert np.array_equal(
                row_choice, _reference_assignment(row_demand, row_bc >= row_uc, pool))


def _check_policy(choice, uc, bc, demand, pool):
    """One trial's assignment keeps the payoff guarantee and leaves nobody
    off unicast who would still fit."""
    assert not np.any((choice == BROADCAST) & (bc < uc))
    assert np.all((choice == UNSERVED) == ((choice != UNICAST) & (bc < uc)))
    # A user left off unicast had no room for it, even at the end.
    leftover = pool - demand[choice == UNICAST].sum()
    assert leftover >= 0
    assert np.all(demand[choice != UNICAST] > leftover)


def _reference_assignment(demand, eligible, pool):
    """The simulator's former per-user loop, which stopped only when less
    than one unit of pool was left."""
    n = len(demand)
    assigned = np.full(n, UNSERVED, dtype=np.int8)
    remaining = pool
    cut = n
    for k in range(n):
        if remaining < 1.0:
            cut = k
            break
        if demand[k] <= remaining:
            assigned[k] = UNICAST
            remaining -= demand[k]
        else:
            assigned[k] = BROADCAST if eligible[k] else UNSERVED
    if cut < n:
        assigned[cut:] = np.where(eligible[cut:], BROADCAST, UNSERVED)
    return assigned


class TestAssignServices:
    def test_leftover_below_every_remaining_demand(self):
        # Two grants leave 1.5 units: at least one, but too few for a 5.
        demand = np.array([2.0, 2.0, 5.0, 5.0, 5.0])
        eligible = np.array([False, True, True, False, True])
        got = assign_services(demand, eligible, 5.5)
        assert got.tolist() == [UNICAST, UNICAST, BROADCAST, UNSERVED, BROADCAST]
        assert np.array_equal(got, _reference_assignment(demand, eligible, 5.5))

    def test_matches_reference_loop_on_random_cases(self):
        stuck = 0  # cases whose leftover is >= 1 but fits no remaining demand
        for demand, eligible, pool in _random_cases(rows=None):
            got = assign_services(demand, eligible, pool)
            stuck += _check_against_reference(got, demand, eligible, pool)
        assert stuck > 100

    @pytest.mark.parametrize("rows", [1, 4])
    def test_block_rows_match_reference_loop(self, rows):
        stuck = 0
        for demand, eligible, pool in _random_cases(rows):
            got = assign_services(demand, eligible, pool)
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
    leftover = pool - demand[got == UNICAST].sum()
    return bool(leftover >= 1.0 and np.any(got != UNICAST))


def _oracle_cell(n_users):
    return CellConfig(
        bandwidth=3.0, slots=4, n_users=n_users, price_unicast=0.4,
        rate_model=point_rate(0.5),
    )


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
        cell = CellConfig(bandwidth=3.0, slots=4, n_users=9, price_unicast=0.4,
                          rate_model=point_rate(0.5))
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
        completion = schedule.s / (bandwidth * cell.r_b)
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
        # every user's threshold of 1 slot.
        catalog = _oracle_catalog()
        cell = CellConfig(bandwidth=30.0, slots=4, n_users=5, price_unicast=0.4,
                          rate_model=point_rate(0.5))
        with pytest.raises(PayoffDomainError, match=r"trial 0: .*s/\(Wb\*rb\) - threshold"):
            simulate_revenue(catalog, cell, PricePair(0.4, 0.1), 25.0,
                             popularity_schedule(catalog), trials=3, seed=0)

    def test_download_before_threshold_is_domain_error(self):
        # f / r = 10 slots, below the 20-slot threshold.
        catalog = catalog_from([5.0], [1.0], [0.25], rate_model=point_rate(0.5),
                               delay_lo=[20.0], delay_hi=[20.0])
        with pytest.raises(PayoffDomainError, match=r"trial 0: .*size/rate - threshold"):
            simulate_revenue(catalog, _oracle_cell(3), PricePair(0.4, 0.1), 1.0,
                             popularity_schedule(catalog), trials=3, seed=0)

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
    Per-trial sums run over the trial's N users with the entries outside
    the mask set to zero."""
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
    revenues, bc_frac, uc_frac, unserved_frac, unrequested = (
        np.zeros(trials) for _ in range(5)
    )
    policy, baseline, rates = [], [], []
    violations = shortfall = 0
    for t, stream in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        gen = np.random.default_rng(stream)
        counts = gen.multinomial(n_users, catalog.popularity)
        unrequested[t] = np.count_nonzero(counts == 0)
        ufile = np.repeat(proc_order, counts[proc_order])
        rate_u = np.where(gen.random(n_users) < model.prob_high, model.r_high, model.r_low)
        thr = gen.uniform(lo[ufile], hi[ufile])
        f = catalog.sizes[ufile]
        try:
            payoff_uc = unicast_payoff(f, thr, rate_u, prices.unicast)
            if bc_bandwidth > 0.0:
                payoff_bc = broadcast_payoff(f, thr, cell.r_b, schedule.s[ufile],
                                             bc_bandwidth, prices.broadcast)
                eligible = payoff_bc >= payoff_uc
            else:
                payoff_bc = np.full(n_users, -np.inf)
                eligible = np.zeros(n_users, dtype=bool)
        except PayoffDomainError as exc:
            raise PayoffDomainError(f"trial {t}: {exc}") from exc
        demand = np.ceil(f / rate_u)
        if demand.sum() < uc_pool:
            shortfall += 1
        assigned = _reference_assignment(demand, eligible, uc_pool)
        bc_mask = assigned == BROADCAST
        uc_mask = assigned == UNICAST
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
        unrequested_scheduled_mean=float(unrequested.mean()),
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

    def test_memory_per_trial_is_a_few_slots(self, single_cell_setup):
        # Per trial the simulator keeps seven 8-byte statistics; trial
        # streams are spawned one block at a time.
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
        assign, blocks = payoff.assign_services, []

        def spy(demand, eligible, pool):
            blocks.append(assign(demand, eligible, pool))
            return blocks[-1]

        monkeypatch.setattr(payoff, "assign_services", spy)
        got = simulate_revenue(*args, trials=300, seed=5)
        _assert_same_report(got, _reference_simulation(*args, trials=300, seed=5))
        (assigned,) = blocks
        assert assigned.shape == (300, 3)
        n_bc = np.count_nonzero(assigned == BROADCAST, axis=1)
        n_served = np.count_nonzero(assigned != UNSERVED, axis=1)
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

    def test_domain_error_names_the_trial_loops_first_failure(self):
        # File 3 completes on broadcast before its 2-slot threshold; file 2
        # downloads in 6 slots, before its 7-slot threshold. Both are rare.
        # With this seed, trial 6 (second block of four) is the first to
        # request either, only file 3, and trial 7 requests file 2: evaluating
        # the block's unicast terms first would name trial 7 instead.
        n_users, trials, seed = 2048, 24, 28
        catalog = catalog_from(
            sizes=[5.0, 3.0, 4.0], popularity=[1 - 0.45 / 2048, 0.3 / 2048, 0.15 / 2048],
            theta=[0.3, 0.3, 0.3], rate_model=point_rate(0.5),
            delay_lo=[0.1, 7.0, 2.0], delay_hi=[0.1, 7.0, 2.0],
        )
        cell = CellConfig(bandwidth=30.0, slots=4, n_users=n_users, price_unicast=0.4,
                          rate_model=point_rate(0.5))
        k = payoff._BLOCK_USER_TRIALS // n_users
        counts = np.array([
            np.random.default_rng(stream).multinomial(n_users, catalog.popularity)
            for stream in np.random.SeedSequence(seed).spawn(trials)
        ])
        first = int(np.flatnonzero(counts[:, 1:].any(axis=1))[0])
        assert (k, first) == (4, 6)
        assert counts[6, 1] == 0 < counts[6, 2] and counts[7, 1] > 0

        args = (catalog, cell, PricePair(0.4, 0.1), 20.0, popularity_schedule(catalog))
        with pytest.raises(PayoffDomainError) as want:
            _reference_simulation(*args, trials=trials, seed=seed)
        with pytest.raises(PayoffDomainError) as got:
            simulate_revenue(*args, trials=trials, seed=seed)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("trial 6: ")
        assert "s/(Wb*rb) - threshold" in str(got.value)

    def test_domain_error_names_unicast_before_broadcast_within_a_trial(self):
        # One trial, r = 0.5 and Wb * rb = 1. File 0 (popular, first in the
        # queue, so at the low user indices) downloads in 10 slots but
        # completes on broadcast at slot 5, before its 6-slot threshold; file
        # 1 (rarer, higher indices) downloads in 1 slot, before its 2-slot
        # threshold, but completes on broadcast at slot 5.5. The trial loop
        # checks all unicast terms before any broadcast term, so it names
        # file 1's first user, not user 0.
        catalog = catalog_from(
            sizes=[5.0, 0.5], popularity=[0.7, 0.3], theta=[0.3, 0.3],
            rate_model=point_rate(0.5), delay_lo=[6.0, 2.0], delay_hi=[6.0, 2.0],
        )
        cell = CellConfig(bandwidth=30.0, slots=4, n_users=8, price_unicast=0.4,
                          rate_model=point_rate(0.5))
        (stream,) = np.random.SeedSequence(1).spawn(1)
        counts = np.random.default_rng(stream).multinomial(8, catalog.popularity)
        assert counts.tolist() == [5, 3]

        args = (catalog, cell, PricePair(0.4, 0.1), 2.0, popularity_schedule(catalog))
        with pytest.raises(PayoffDomainError) as want:
            _reference_simulation(*args, trials=1, seed=1)
        with pytest.raises(PayoffDomainError) as got:
            simulate_revenue(*args, trials=1, seed=1)
        assert str(got.value) == str(want.value) == (
            "trial 0: delay term non-positive at element 5: size/rate - threshold = -1.0")
