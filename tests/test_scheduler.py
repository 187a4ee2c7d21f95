import itertools
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcastopt import optimizer
from bcastopt.cli import main
from bcastopt.errors import InvalidParameterError, PreconditionError
from bcastopt.optimizer import (
    CellConfig,
    closed_form_price,
    lower_bound_revenue,
    operating_point,
    optimal_schedule,
    price_validity_floor,
)
from bcastopt.scenario import load_spec, normalize
from bcastopt.scheduler import (
    Schedule,
    bound_moments,
    brute_force_best_order,
    cumulative_sizes,
    popularity_schedule,
    smith_cost,
    smith_schedule,
    smith_weight_ratios,
    suboptimal_schedule,
)

from conftest import (
    catalog_from,
    high_pressure_instances,
    point_rate,
    random_instance,
    traced_peak,
)


class TestCumulativeSizes:
    def test_single_file(self):
        assert cumulative_sizes([0], [2.0]).tolist() == [2.0]

    def test_running_sum_out_of_order(self):
        # file 2 first: completes at 5, then file 1 completes at 8
        s = cumulative_sizes([1, 0], [3.0, 5.0])
        assert s.tolist() == [8.0, 5.0]

    def test_unit_sizes(self):
        assert cumulative_sizes([0, 1, 2], [1.0, 1.0, 1.0]).tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("order", [[0, 0], [0, 2], [0], [1, 2, 0, 1]])
    def test_invalid_permutations_rejected(self, order):
        with pytest.raises(InvalidParameterError):
            cumulative_sizes(order, [1.0, 1.0])

    def test_strictly_increasing_along_order(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(1, 12)
            sizes = rng.uniform(0.1, 3.0, n)
            order = rng.permutation(n)
            s = cumulative_sizes(order, sizes)
            along = s[order]
            assert np.all(np.diff(along) > 0)
            assert along[0] == pytest.approx(sizes[order[0]])
            assert along[-1] == pytest.approx(sizes.sum())


class TestSuboptimalSchedule:
    def test_popularity_dominates_for_identical_sizes(self):
        catalog = catalog_from([0.1, 0.1], [0.6, 0.4], [1.0, 1.0])
        sched = suboptimal_schedule(catalog, 2.0)
        assert sched.weights == pytest.approx([0.54, 0.36])
        assert sched.order.tolist() == [0, 1]

    def test_delay_tolerance_dominates(self):
        catalog = catalog_from([0.1, 0.1], [0.5, 0.5], [1.0, 2.0])
        sched = suboptimal_schedule(catalog, 2.0)
        assert sched.order.tolist() == [1, 0]

    def test_identical_files_keep_index_order(self):
        catalog = catalog_from([0.2] * 4, [0.25] * 4, [1.0] * 4)
        sched = suboptimal_schedule(catalog, 2.0)
        assert sched.order.tolist() == [0, 1, 2, 3]

    def test_invariant_under_tolerance_rescaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(n))
            catalog = catalog_from(rng.uniform(0.05, 0.6, n), p, rng.uniform(0.5, 9.0, n))
            scale = float(rng.uniform(0.01, 100.0))
            scaled = catalog_from(catalog.sizes, p, catalog.theta * scale)
            a = suboptimal_schedule(catalog, 2.6).order
            b = suboptimal_schedule(scaled, 2.6).order
            assert np.array_equal(a, b)


class TestSmithCost:
    def test_two_file_enumeration_by_hand(self):
        # theta/popularity chosen so the completion weights are [3, 1]
        catalog = catalog_from([1.0, 2.0], [0.5, 0.5], [6.0, 1.0])
        assert smith_cost([0, 1], catalog, 1.0, 1.0) == pytest.approx(6.0)
        assert smith_cost([1, 0], catalog, 1.0, 1.0) == pytest.approx(11.0)
        sched = smith_schedule(catalog, 1.0, 1.0)
        assert sched.order.tolist() == [0, 1]

    def test_single_file(self):
        catalog = catalog_from([0.5], [1.0], [4.0])
        expected = 0.5 * 4.0 * 0.5 * 1.0 * (1.0 - 0.5 * 0.5)
        assert smith_cost([0], catalog, 1.0, 0.5) == pytest.approx(expected)

    def test_hypothesis_violation_rejected(self):
        catalog = catalog_from([0.9], [1.0], [4.0])
        with pytest.raises(PreconditionError):
            smith_cost([0], catalog, 2.6, 1.0)

    def test_hypothesis_message_names_files_and_price(self):
        catalog = catalog_from([0.2, 0.6, 0.5], [0.5, 0.3, 0.2], [2.0, 2.0, 2.0])
        expected = r"files \[2, 3\] at price 0.5$"
        with pytest.raises(PreconditionError, match=expected):
            smith_cost([0, 1, 2], catalog, 2.5, 0.5)
        with pytest.raises(PreconditionError, match=expected):
            brute_force_best_order(catalog, 2.5, 0.5)

    def test_equal_prices_reduce_weights_to_theta_p(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(n))
            catalog = catalog_from(rng.uniform(0.1, 0.9, n), p, rng.uniform(0.5, 5.0, n))
            w = smith_weight_ratios(catalog, 2.6, 2.6)
            assert w == pytest.approx(catalog.theta * catalog.popularity)

    def test_smith_order_attains_brute_force_minimum(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            sizes = rng.uniform(0.05, 0.9, n)
            catalog = catalog_from(sizes, p, rng.uniform(0.3, 8.0, n))
            pu = float(rng.uniform(0.5, 3.0))
            pb = float(rng.uniform(max(0.0, pu - 0.9 / sizes.max()), pu))
            sched = smith_schedule(catalog, pu, pb)
            _, best = brute_force_best_order(catalog, pu, pb)
            assert smith_cost(sched.order, catalog, pu, pb) == pytest.approx(best, abs=1e-12)


def _itertools_best_order(catalog, pu, pb):
    """Smith-cost minimizer by a plain loop over itertools.permutations."""
    sizes = catalog.sizes.tolist()
    c = (catalog.theta * catalog.sizes * catalog.popularity
         * (1.0 - (pu - pb) * catalog.sizes)).tolist()
    best_order, best_cost = None, float("inf")
    for order in itertools.permutations(range(catalog.size)):
        done = cost = 0.0
        for i in order:
            done += sizes[i]
            cost += done * c[i]
        if cost < best_cost:
            best_order, best_cost = order, cost
    return list(best_order), best_cost


def _one_array_costs(catalog, pu, pb):
    """All n! orders as rows, in itertools.permutations order, and the Smith
    cost of each, summed along the row the way the oracle sums its order.
    Row costs are taken one leading file at a time, which leaves their bits
    as they are and keeps the float temporaries near 3 MB at n = 9."""
    n = catalog.size
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int8, count=n * math.factorial(n)).reshape(-1, n)
    c = catalog.theta * catalog.sizes * catalog.popularity * (1.0 - (pu - pb) * catalog.sizes)
    return perms, np.concatenate([(np.cumsum(catalog.sizes[rows], axis=1) * c[rows]).sum(axis=1)
                                  for rows in np.split(perms, n)])


def _duplicated_catalog(n):
    """n files in equal pairs (0, 1), (2, 3), ...; with odd n the last file
    is alone. Sizes, tolerances and popularity are dyadic with few bits,
    so every completion size and cost is exact in any summation order."""
    pair = np.arange(n) // 2
    sizes = np.array([0.5, 0.25, 0.375, 0.125])[pair % 4]
    theta = np.array([1.0, 2.0, 0.75, 3.0])[pair % 4]
    weights = np.ones(n)
    surplus = 2 ** int(np.ceil(np.log2(n))) - n
    if n % 2:
        weights[-1] += surplus
    else:
        weights[:2] += surplus / 2
    return catalog_from(sizes, weights / weights.sum(), theta)


class TestBruteForce:
    def test_matches_itertools_search(self):
        rng = np.random.default_rng(41)
        sizes_seen = set()
        for _ in range(12):
            catalog, cell = random_instance(rng, m_lo=1, m_hi=8)
            pu = cell.price_unicast
            pb = float(rng.uniform(pu / 2.0, pu))
            order, cost = brute_force_best_order(catalog, pu, pb)
            want_order, want_cost = _itertools_best_order(catalog, pu, pb)
            assert order.tolist() == want_order
            assert cost == pytest.approx(want_cost, rel=1e-12, abs=1e-15)
            perms, costs = _one_array_costs(catalog, pu, pb)
            k = int(np.argmin(costs))
            assert order.tolist() == perms[k].tolist() and cost == costs[k]
            sizes_seen.add(catalog.size)
        assert 8 in sizes_seen

    def test_matches_one_array_search_at_the_file_limit(self):
        catalog, cell = random_instance(np.random.default_rng(9), m_lo=9, m_hi=9)
        pu = cell.price_unicast
        order, cost = brute_force_best_order(catalog, pu, 0.75 * pu)
        perms, costs = _one_array_costs(catalog, pu, 0.75 * pu)
        k = int(np.argmin(costs))
        assert order.dtype == np.int64 and order.tolist() == perms[k].tolist()
        assert cost == costs[k]

    def test_more_than_nine_files_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="brute force limited to 9 files, got 10"):
            brute_force_best_order(_duplicated_catalog(10), 1.0, 0.5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ties_resolve_to_the_first_minimizer(self, n):
        # Swapping two equal files leaves the cost bit for bit, so for n > 1
        # every minimizer has a twin, often one with another leading file.
        catalog = _duplicated_catalog(n)
        order, cost = brute_force_best_order(catalog, 1.0, 0.5)
        want_order, want_cost = _itertools_best_order(catalog, 1.0, 0.5)
        perms, costs = _one_array_costs(catalog, 1.0, 0.5)
        k = int(np.argmin(costs))
        assert order.tolist() == want_order == perms[k].tolist()
        assert cost == want_cost == costs[k]
        assert np.count_nonzero(costs == cost) >= (2 if n > 1 else 1)

    def test_memory_stays_below_one_chunk_per_copy(self):
        # One n!-row array and its float copies take 7.7 MB at n = 8; the
        # subset programme holds three lists of 2^n entries.
        catalog, cell = random_instance(np.random.default_rng(5), m_lo=8, m_hi=8)
        pu = cell.price_unicast
        brute_force_best_order(catalog, pu, 0.75 * pu)
        peak = traced_peak(lambda: brute_force_best_order(catalog, pu, 0.75 * pu))
        assert peak < 2_000_000


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_adjacent_exchange_never_improves_smith_order(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    sizes = np.array(data.draw(st.lists(
        st.floats(min_value=0.05, max_value=0.9), min_size=n, max_size=n)))
    theta = np.array(data.draw(st.lists(
        st.floats(min_value=0.2, max_value=9.0), min_size=n, max_size=n)))
    raw = np.array(data.draw(st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n)))
    p = raw / raw.sum()
    catalog = catalog_from(sizes, p, theta)
    pu = data.draw(st.floats(min_value=0.5, max_value=3.0))
    pb = data.draw(st.floats(min_value=0.0, max_value=1.0)) * pu
    if (pu - pb) * sizes.max() >= 1.0:
        pb = max(pb, pu - 0.9 / sizes.max())
    sched = smith_schedule(catalog, pu, pb)
    base = smith_cost(sched.order, catalog, pu, pb)
    for k in range(n - 1):
        swapped = sched.order.copy()
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        assert smith_cost(swapped, catalog, pu, pb) >= base - 1e-12


def smith_order_at_own_price(catalog, cell, moment):
    """The Smith order at the operating-point price of ``moment``: the
    closed-form price, floored to the bound's validity region."""
    price = max(closed_form_price(catalog, cell, moment), price_validity_floor(catalog, cell))
    return smith_schedule(catalog, cell.price_unicast, price).order


def capped_fixed_point(catalog, cell):
    """The scheduler's reference: from the suboptimal order, the Smith
    order at the current order's operating price until the order
    repeats, at most 1000 times."""
    current = suboptimal_schedule(catalog, cell.price_unicast)
    for _ in range(1000):
        price = operating_point(catalog, cell, current)[1]
        nxt = smith_schedule(catalog, cell.price_unicast, price)
        if np.array_equal(nxt.order, current.order):
            return nxt
        current = nxt
    raise AssertionError("no fixed point in 1000 re-sorts")


def unfloored_fixed_point(catalog, cell):
    """Smith orders at the closed-form price without the validity floor,
    iterated from the suboptimal order until the order repeats."""
    current = suboptimal_schedule(catalog, cell.price_unicast)
    while True:
        price = closed_form_price(catalog, cell, bound_moments(catalog, current.s)[0])
        nxt = smith_schedule(catalog, cell.price_unicast, price)
        if np.array_equal(nxt.order, current.order):
            return nxt
        current = nxt


class TestOptimalSchedule:
    def _cell(self, n_users=50, slots=20, bandwidth=6.0, price=2.6):
        return CellConfig(bandwidth=bandwidth, slots=slots, n_users=n_users,
                          price_unicast=price)

    def test_equal_sizes_match_suboptimal_in_one_pass(self):
        catalog = catalog_from([0.3] * 5, [0.35, 0.25, 0.2, 0.15, 0.05],
                               [2.0, 5.0, 1.0, 7.0, 3.0])
        cell = self._cell()
        sched = optimal_schedule(catalog, cell)
        assert np.array_equal(sched.order, suboptimal_schedule(catalog, 2.6).order)

    def test_fixed_point_is_self_consistent(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            catalog, cell = random_instance(rng)
            sched = optimal_schedule(catalog, cell)
            # re-sorting by the weights computed from the order's moment
            # reproduces the returned order
            resorted = np.argsort(-sched.weights, kind="stable")
            assert np.array_equal(resorted, sched.order)

    def test_fixed_point_above_the_unicast_price(self, single_cell_setup):
        # The implied price (Pu + pressure) / 2 exceeds Pu in both cases
        # (pressure 3.9 Pu and 10.9 Pu); the order is the Smith order at
        # the operating-point price of its own moment, here capped at Pu.
        catalog, cell = list(high_pressure_instances(1000, 409))[-1]
        assert (catalog.size, cell.n_users, cell.slots) == (26, 22599, 19)
        shipped, shipped_cell, _ = single_cell_setup
        for catalog, cell in ((catalog, cell),
                              (shipped, replace(shipped_cell, n_users=100_000, slots=1))):
            sched = optimal_schedule(catalog, cell)
            moment = bound_moments(catalog, sched.s)[0]
            assert closed_form_price(catalog, cell, moment) == cell.price_unicast
            assert np.array_equal(sched.order, smith_order_at_own_price(catalog, cell, moment))

    def test_fixed_point_on_high_pressure_draws(self):
        for catalog, cell in high_pressure_instances(2024, 200):
            sched = optimal_schedule(catalog, cell)
            moment = bound_moments(catalog, sched.s)[0]
            assert np.array_equal(sched.order, smith_order_at_own_price(catalog, cell, moment))

    def test_matches_the_capped_loop_while_the_price_rises(self, request, monkeypatch):
        # A few hundred draws of the high-pressure generator and the shipped
        # catalogs at every sweep N and N = 10^4 to 10^6, at T = 1, 3 and 30.
        instances = [inst for seed in range(1000, 1004)
                     for inst in high_pressure_instances(seed, 75)]
        for setup in ("single_cell", "seven_cell"):
            spec = request.getfixturevalue(f"{setup}_spec")
            catalog, cell0, _ = request.getfixturevalue(f"{setup}_setup")
            instances += [(catalog, replace(cell0, n_users=n, slots=t))
                          for n in (*spec.sweep_users, 10**4, 10**5, 10**6)
                          for t in (1, 3, 30)]
        prices = []

        def spy(catalog, cell, schedule):
            point = operating_point(catalog, cell, schedule)
            prices.append(point[1])
            return point

        monkeypatch.setattr(optimizer, "operating_point", spy)
        for catalog, cell in instances:
            prices[:] = [cell.price_unicast / 2.0]
            sched = optimal_schedule(catalog, cell)
            reference = capped_fixed_point(catalog, cell)
            for field in ("order", "s", "weights"):
                assert np.array_equal(getattr(sched, field), getattr(reference, field))
            # each re-sort raises the price, and the last one repeats it
            assert all(a < b for a, b in zip(prices[:-2], prices[1:-1]))
            assert prices[-1] == prices[-2]

    def test_falling_price_returns_the_order_at_the_highest_price(self, monkeypatch):
        # The order of the two files flips between the last two prices, so
        # the result tells the highest price from the last one.
        catalog = catalog_from([0.9, 0.1], [0.6, 0.4], [1.0 / 0.6, 1.1])
        cell = self._cell(price=2.0)
        prices = iter([1.2, 1.4, 1.3])
        calls = []

        def rising_twice_then_falling(catalog, cell, schedule):
            calls.append(schedule)
            return 1.0, next(prices), 1.0

        monkeypatch.setattr(optimizer, "operating_point", rising_twice_then_falling)
        sched = optimal_schedule(catalog, cell)
        assert len(calls) == 3
        highest = smith_schedule(catalog, 2.0, 1.4)
        for field in ("order", "s", "weights"):
            assert np.array_equal(getattr(sched, field), getattr(highest, field))
        assert not np.array_equal(sched.order, smith_schedule(catalog, 2.0, 1.3).order)

    def test_no_worse_than_suboptimal_at_its_own_price(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            catalog, cell = random_instance(rng)
            sched = optimal_schedule(catalog, cell)
            price = operating_point(catalog, cell, sched)[1]
            sub = suboptimal_schedule(catalog, cell.price_unicast)
            cost_opt = smith_cost(sched.order, catalog, cell.price_unicast, price)
            cost_sub = smith_cost(sub.order, catalog, cell.price_unicast, price)
            assert cost_opt <= cost_sub + 1e-12

    @pytest.mark.parametrize("setup", ["single_cell", "seven_cell"])
    def test_weighs_at_the_operating_price_on_shipped_points(self, request, setup):
        spec = request.getfixturevalue(f"{setup}_spec")
        catalog, cell0, _ = request.getfixturevalue(f"{setup}_setup")
        for n in spec.sweep_users:
            cell = replace(cell0, n_users=n)
            sched = optimal_schedule(catalog, cell)
            bandwidth, price, _ = operating_point(catalog, cell, sched)
            assert np.array_equal(
                sched.order, smith_schedule(catalog, cell.price_unicast, price).order)
            # the bound at the operating point is no lower than that of the
            # unfloored fixed point at its own operating point
            old = unfloored_fixed_point(catalog, cell)
            old_bandwidth, old_price, _ = operating_point(catalog, cell, old)
            assert (lower_bound_revenue(catalog, cell, price, bandwidth, sched)
                    >= lower_bound_revenue(catalog, cell, old_price, old_bandwidth, old))

    def test_zero_users_reduces_to_suboptimal(self):
        catalog = catalog_from([0.3, 0.2], [0.7, 0.3], [2.0, 3.0])
        cell = self._cell(n_users=0)
        sched = optimal_schedule(catalog, cell)
        assert np.array_equal(sched.order, suboptimal_schedule(catalog, 2.6).order)


class TestScheduleExport:
    def test_csv_columns_and_rows(self, small_config, capsys):
        catalog = normalize(load_spec(small_config))[0]
        assert main(["schedule", small_config, "--scheduler", "none"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,file,f_i,s_i,weight"
        assert len(lines) == catalog.size + 1 == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"  # Zipf: file 1 is the most popular
        sched = popularity_schedule(catalog)
        # printed at 12 significant digits
        assert [float(v) for v in first[2:]] == pytest.approx(
            [catalog.sizes[0], sched.s[0], sched.weights[0]], rel=1e-11)

    def test_schedule_requires_valid_permutation(self):
        with pytest.raises(InvalidParameterError):
            Schedule(order=np.array([0, 0]), s=np.array([1.0, 2.0]),
                     weights=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("field", ["order", "s", "weights"])
    def test_schedule_is_frozen(self, field):
        sched = popularity_schedule(catalog_from([0.3, 0.2], [0.4, 0.6], [2.0, 3.0]))
        with pytest.raises(FrozenInstanceError):
            setattr(sched, field, None)
