import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastopt.errors import InvalidParameterError, PayoffDomainError
from bcastopt.optimizer import CellConfig
from bcastopt.payoff import (
    BROADCAST,
    UNICAST,
    UNSERVED,
    PricePair,
    assign_services,
    broadcast_payoff,
    simulate_revenue,
    unicast_payoff,
)
from bcastopt.scheduler import popularity_schedule

from conftest import catalog_from, point_rate


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
        choice = assign_services(demand, bc >= uc, pool)
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
        rng = np.random.default_rng(11)
        stuck = 0  # cases whose leftover is >= 1 but fits no remaining demand
        for _ in range(3000):
            n = int(rng.integers(0, 60))
            demand = np.ceil(rng.uniform(0.01, rng.uniform(0.5, 34.0), n))
            eligible = rng.random(n) < rng.random()
            pool = float(rng.uniform(0.0, 1.2) * demand.sum()) if n else 2.0
            if rng.random() < 0.3:
                pool = float(np.floor(pool)) + float(rng.choice([0.0, 0.5]))
            got = assign_services(demand, eligible, pool)
            assert np.array_equal(got, _reference_assignment(demand, eligible, pool))
            leftover = pool - demand[got == UNICAST].sum()
            stuck += bool(leftover >= 1.0 and np.any(got != UNICAST))
        assert stuck > 100


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
