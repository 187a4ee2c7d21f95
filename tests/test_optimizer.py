import json
from dataclasses import replace

import numpy as np
import pytest

from bcastopt.channel import RateModel
import bcastopt.optimizer as optimizer
from bcastopt.errors import ConvergenceError, InvalidParameterError, PreconditionError
from bcastopt.optimizer import (
    CellConfig,
    bound_argmax_bandwidth,
    bound_argmax_price,
    closed_form_bandwidth,
    closed_form_price,
    fixed_point_residuals,
    gain_offset,
    joint_optimize,
    lower_bound_revenue,
    price_validity_floor,
    revenue_gain,
)
from bcastopt.scheduler import (
    cumulative_sizes,
    popularity_schedule,
    scheduled_demand_moment,
    smith_cost,
    smith_schedule,
    suboptimal_schedule,
)

from conftest import catalog_from, point_rate, random_instance


def _single_file_setup(size=0.5, theta=2.0, price_unicast=1.0, n_users=10,
                       bandwidth=4.0, slots=3, rate=1.0):
    catalog = catalog_from([size], [1.0], [theta], rate_model=point_rate(rate))
    cell = CellConfig(bandwidth=bandwidth, slots=slots, n_users=n_users,
                      price_unicast=price_unicast, rate_model=point_rate(rate))
    return catalog, cell, popularity_schedule(catalog)


class TestLowerBoundRevenue:
    def test_zero_broadcast_price_leaves_unicast_term(self):
        catalog, cell, sched = _single_file_setup()
        value = lower_bound_revenue(catalog, cell, price=0.0, bandwidth=2.0, schedule=sched)
        assert value == pytest.approx(1.0 * (4.0 - 2.0) * 3, abs=1e-12)

    def test_hand_evaluation(self):
        # 0.5*10*0.5*[1 - (0.5*2/2)(1 - 0.25)] + 1*2*3 = 7.5625
        catalog, cell, sched = _single_file_setup()
        value = lower_bound_revenue(catalog, cell, price=0.5, bandwidth=2.0, schedule=sched)
        assert value == pytest.approx(7.5625, abs=1e-12)

    def test_hypothesis_violation_names_files(self):
        catalog, cell, sched = _single_file_setup(size=0.6, price_unicast=2.5)
        with pytest.raises(PreconditionError) as err:
            lower_bound_revenue(catalog, cell, price=0.5, bandwidth=2.0, schedule=sched)
        assert "1" in str(err.value)

    def test_no_users_reduces_to_fixed_term(self):
        catalog, cell, sched = _single_file_setup(n_users=0)
        assert lower_bound_revenue(catalog, cell, 0.5, 0.0, sched) == pytest.approx(12.0)

    def test_positive_bandwidth_required_with_users(self):
        catalog, cell, sched = _single_file_setup()
        with pytest.raises(PreconditionError):
            lower_bound_revenue(catalog, cell, 0.5, 0.0, sched)


class TestLowerBoundOnGrids:
    """The bound evaluated over arrays equals scalar calls point by point."""

    @pytest.mark.parametrize("m_lo, m_hi", [(3, 8), (130, 300)])
    def test_grids_equal_scalar_calls(self, m_lo, m_hi):
        rng = np.random.default_rng(53)
        for _ in range(10):
            catalog, cell = random_instance(rng, m_lo=m_lo, m_hi=m_hi)
            sched = suboptimal_schedule(catalog, cell.price_unicast)
            floor = price_validity_floor(catalog, cell)
            w_grid = np.linspace(cell.bc_cap / 400, cell.bc_cap, 400)
            p_grid = np.linspace(floor, cell.price_unicast, 400)
            price = float(rng.uniform(floor, cell.price_unicast))
            bandwidth = float(rng.uniform(cell.bc_cap / 400, cell.bc_cap))

            def bound(p, w):
                return lower_bound_revenue(catalog, cell, p, w, sched)

            assert np.array_equal(bound(price, w_grid), [bound(price, w) for w in w_grid])
            assert np.array_equal(bound(p_grid, bandwidth),
                                  [bound(p, bandwidth) for p in p_grid])
            both = bound(p_grid[::20, None], w_grid[::20])
            assert both.shape == (20, 20)
            assert np.array_equal(
                both, [[bound(p, w) for w in w_grid[::20]] for p in p_grid[::20]])

    def test_scalars_give_float(self):
        catalog, cell, sched = _single_file_setup()
        for price, bandwidth in ((0.5, 2.0), (np.float64(0.5), np.array(2.0))):
            value = lower_bound_revenue(catalog, cell, price, bandwidth, sched)
            assert type(value) is float
            assert value == pytest.approx(7.5625, abs=1e-12)

    def test_one_invalid_grid_point_names_its_files(self):
        catalog = catalog_from([0.2, 0.6, 0.5], [0.5, 0.3, 0.2], [2.0, 2.0, 2.0])
        cell = CellConfig(bandwidth=4.0, slots=3, n_users=10, price_unicast=2.5,
                          rate_model=point_rate(1.0))
        sched = popularity_schedule(catalog)
        # (Pu - Pb) f_i >= 1 at Pb = 0.5 for files 2 and 3 only.
        grid = np.array([2.0, 1.5, 0.5, 2.5])
        with pytest.raises(PreconditionError, match=r"files \[2, 3\] at price 0.5$"):
            lower_bound_revenue(catalog, cell, grid, 2.0, sched)
        assert np.all(np.isfinite(lower_bound_revenue(catalog, cell, grid[:2], 2.0, sched)))

    def test_nonpositive_bandwidth_on_grid_rejected(self):
        catalog, cell, sched = _single_file_setup()
        with pytest.raises(PreconditionError):
            lower_bound_revenue(catalog, cell, 0.5, np.array([2.0, 1.0, 0.0]), sched)

    def test_no_users_gives_unicast_term_per_point(self):
        catalog, cell, sched = _single_file_setup(n_users=0)
        values = lower_bound_revenue(catalog, cell, np.array([0.1, 0.5, 0.9]), 1.0, sched)
        assert values.tolist() == [1.0 * (4.0 - 1.0) * 3] * 3
        values = lower_bound_revenue(catalog, cell, 0.5, np.array([0.0, 1.0, 2.0]), sched)
        assert values.tolist() == [12.0, 9.0, 6.0]


def _per_file_bound(catalog, cell, price, bandwidth, schedule):
    """The bound as a per-file sum: the reference for the moments form."""
    price = np.asarray(price, dtype=np.float64)
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    gap = (cell.price_unicast - price)[..., None]
    load = schedule.s * catalog.theta * cell.r_u / (bandwidth[..., None] * cell.r_b)
    bracket = 1.0 - load * (1.0 - gap * catalog.sizes)
    bc_term = price * cell.n_users * (catalog.sizes * catalog.popularity * bracket).sum(axis=-1)
    return bc_term + cell.price_unicast * (cell.bandwidth - bandwidth) * cell.slots


def _per_file_smith_cost(order, catalog, pu, pb):
    s = cumulative_sizes(order, catalog.sizes)
    c = catalog.theta * catalog.sizes * catalog.popularity * (1.0 - (pu - pb) * catalog.sizes)
    return float(s @ c)


def _per_file_price_vertex(catalog, cell, bandwidth, schedule):
    a = schedule.s * catalog.theta * cell.r_u / (bandwidth * cell.r_b)
    fp = catalog.sizes * catalog.popularity
    return float((fp * (1.0 - a * (1.0 - cell.price_unicast * catalog.sizes))).sum()) / (
        2.0 * float((a * catalog.sizes * fp).sum())
    )


class TestMomentsForm:
    """The bound and its maps, written on the moments D and E, agree with
    the per-file expressions they replaced."""

    @staticmethod
    def _draws():
        rng = np.random.default_rng(808)
        for m_lo, m_hi in ((3, 8), (3, 8), (20, 60)):
            for _ in range(15):
                catalog, cell = random_instance(rng, m_lo=m_lo, m_hi=m_hi)
                floor = price_validity_floor(catalog, cell)
                prices = np.concatenate(
                    [[floor, cell.price_unicast],
                     rng.uniform(floor, cell.price_unicast, 6)])
                bandwidths = np.linspace(cell.bc_cap / 7, cell.bc_cap, 7)
                yield catalog, cell, prices, bandwidths

    def test_bound_on_scalars_and_grids(self):
        for catalog, cell, prices, bandwidths in self._draws():
            for sched in (suboptimal_schedule(catalog, cell.price_unicast),
                          smith_schedule(catalog, cell.price_unicast, prices[0])):
                for price in prices:
                    for w in bandwidths:
                        assert lower_bound_revenue(catalog, cell, price, w, sched) == \
                            pytest.approx(float(_per_file_bound(catalog, cell, price, w, sched)),
                                          rel=1e-12)
                grid = lower_bound_revenue(catalog, cell, prices[:, None], bandwidths, sched)
                assert grid.shape == (len(prices), len(bandwidths))
                assert grid == pytest.approx(
                    _per_file_bound(catalog, cell, prices[:, None], bandwidths, sched),
                    rel=1e-12)

    def test_smith_cost(self):
        for catalog, cell, prices, _ in self._draws():
            pu = cell.price_unicast
            orders = (suboptimal_schedule(catalog, pu).order,
                      popularity_schedule(catalog).order)
            for pb in prices:
                for order in orders:
                    assert smith_cost(order, catalog, pu, pb) == pytest.approx(
                        _per_file_smith_cost(order, catalog, pu, pb), rel=1e-12)

    def test_price_vertex(self):
        seen = set()
        for catalog, cell, prices, bandwidths in self._draws():
            sched = smith_schedule(catalog, cell.price_unicast, prices[0])
            floor = price_validity_floor(catalog, cell)
            for w in bandwidths:
                raw = _per_file_price_vertex(catalog, cell, w, sched)
                got = bound_argmax_price(catalog, cell, w, sched)
                want = min(max(raw, floor), cell.price_unicast)
                assert got == pytest.approx(want, rel=1e-12)
                seen.add("floor" if raw < floor
                         else "unicast" if raw > cell.price_unicast else "interior")
        assert seen == {"floor", "unicast", "interior"}

    def test_floor_is_half_unicast_price_for_small_files(self):
        catalog = catalog_from([0.1, 0.3, 0.2], [0.5, 0.3, 0.2], [2.0, 2.0, 2.0])
        cell = CellConfig(bandwidth=4.0, slots=3, n_users=10, price_unicast=2.6,
                          rate_model=point_rate(1.0))
        # Pu - 1/max f = 2.6 - 3.33 < 0, so only the Pu/2 floor is left
        assert price_validity_floor(catalog, cell) == 1.3


class TestClosedFormBandwidth:
    def test_zero_users(self):
        catalog, cell, _ = _single_file_setup(n_users=0)
        assert closed_form_bandwidth(catalog, cell) == 0.0

    def test_arithmetic(self):
        catalog, cell, _ = _single_file_setup(price_unicast=2.6, n_users=100,
                                              bandwidth=1000.0, slots=120)
        assert closed_form_bandwidth(catalog, cell) == pytest.approx(50.0 / 1248.0, abs=1e-15)

    def test_cap_binds_for_large_populations(self):
        catalog = catalog_from([0.5], [1.0], [2.0])
        cell = CellConfig(bandwidth=4.0, slots=3, n_users=10**6, price_unicast=2.6,
                          rate_model=point_rate(1.0), bc_cap_fraction=0.6)
        assert closed_form_bandwidth(catalog, cell) == pytest.approx(2.4)

    def test_exactly_linear_below_cap(self):
        catalog = catalog_from([0.37], [1.0], [2.0])
        for n in (1, 13, 250, 4096):
            cell_n = CellConfig(bandwidth=1e9, slots=7, n_users=n, price_unicast=1.7,
                                rate_model=point_rate(1.0))
            cell_2n = CellConfig(bandwidth=1e9, slots=7, n_users=2 * n, price_unicast=1.7,
                                 rate_model=point_rate(1.0))
            assert closed_form_bandwidth(catalog, cell_2n) == 2.0 * closed_form_bandwidth(catalog, cell_n)


class TestClosedFormPrice:
    def test_zero_users_gives_half_unicast(self):
        catalog, cell, _ = _single_file_setup(n_users=0, price_unicast=2.6)
        assert closed_form_price(catalog, cell, 0.01) == pytest.approx(1.3)

    def test_clamp_boundary_exact(self):
        # N rb F^2 == 4 Pu^2 T ru S  =>  price lands exactly on Pu.
        catalog = catalog_from([0.5], [1.0], [2.0])
        cell = CellConfig(bandwidth=10.0, slots=5, n_users=4, price_unicast=2.0,
                          rate_model=point_rate(1.0))
        assert closed_form_price(catalog, cell, 0.0125) == pytest.approx(2.0, abs=1e-12)

    def test_arithmetic_with_two_region_rates(self):
        # hand value: 0.5 * (2.5 / 17.82144 + 2.6) ~= 1.37014
        model = RateModel(r_high=2.4, r_low=1.0, prob_high=0.428 / 1.4)
        catalog = catalog_from([0.5], [1.0], [2.0], rate_model=model)
        cell = CellConfig(bandwidth=100.0, slots=120, n_users=10, price_unicast=2.6,
                          rate_model=model)
        assert cell.r_u == pytest.approx(1.428, abs=1e-12)
        assert cell.r_b == 1.0
        assert closed_form_price(catalog, cell, 0.01) == pytest.approx(1.3701400, abs=1e-4)

    def test_non_decreasing_in_users(self):
        catalog = catalog_from([0.4], [1.0], [3.0])
        values = []
        for n in range(0, 2000, 50):
            cell = CellConfig(bandwidth=10.0, slots=9, n_users=n, price_unicast=2.2,
                              rate_model=point_rate(1.0))
            values.append(closed_form_price(catalog, cell, 0.7))
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(1.1 <= v <= 2.2 for v in values)

    def test_degenerate_moment_rejected(self):
        catalog, cell, _ = _single_file_setup()
        with pytest.raises(InvalidParameterError):
            closed_form_price(catalog, cell, 0.0)


def _grid_check(values_at, grid, found):
    """``found`` beats every grid point and sits within one step of the
    grid argmax (the bound is concave along each coordinate)."""
    values = [values_at(x) for x in grid]
    best = int(np.argmax(values))
    scale = max(abs(values[best]), 1.0)
    assert values_at(found) >= values[best] - 1e-12 * scale
    assert abs(found - grid[best]) <= (grid[1] - grid[0]) * (1 + 1e-9)


def _closed_form_bound(catalog, cell):
    sub = suboptimal_schedule(catalog, cell.price_unicast)
    floor = price_validity_floor(catalog, cell)
    pb = min(max(closed_form_price(catalog, cell, scheduled_demand_moment(catalog, sub)),
                 floor), cell.price_unicast)
    return lower_bound_revenue(catalog, cell, pb, closed_form_bandwidth(catalog, cell), sub)


class TestBoundCoordinateArgmax:
    def test_bandwidth_map_matches_grid_argmax(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            catalog, cell = random_instance(rng)
            floor = price_validity_floor(catalog, cell)
            price = float(rng.uniform(floor, cell.price_unicast))
            sched = smith_schedule(catalog, cell.price_unicast, price)
            found = bound_argmax_bandwidth(catalog, cell, price, sched)
            assert 0.0 < found < cell.bc_cap  # interior on these draws
            grid = np.linspace(cell.bc_cap / 2000, cell.bc_cap, 2000)
            _grid_check(lambda w: lower_bound_revenue(catalog, cell, price, w, sched),
                        grid, found)
            # a cap below the stationary point binds, and the map lands on it
            capped = replace(cell, bc_cap_fraction=0.5 * found / cell.bandwidth)
            found_capped = bound_argmax_bandwidth(catalog, capped, price, sched)
            assert found_capped == capped.bc_cap
            grid = np.linspace(capped.bc_cap / 2000, capped.bc_cap, 2000)
            _grid_check(lambda w: lower_bound_revenue(catalog, capped, price, w, sched),
                        grid, found_capped)

    def test_price_map_matches_grid_argmax(self):
        rng = np.random.default_rng(42)
        seen = set()
        for _ in range(30):
            catalog, cell = random_instance(rng)
            floor = price_validity_floor(catalog, cell)
            sched = smith_schedule(catalog, cell.price_unicast, floor)
            wb = float(rng.uniform(0.05, 1.0)) * cell.bc_cap
            found = bound_argmax_price(catalog, cell, wb, sched)
            assert floor <= found <= cell.price_unicast
            seen.add("floor" if found == floor
                     else "unicast" if found == cell.price_unicast else "interior")
            grid = np.linspace(floor, cell.price_unicast, 2000)
            _grid_check(lambda p: lower_bound_revenue(catalog, cell, p, wb, sched),
                        grid, found)
        assert seen == {"floor", "unicast", "interior"}

    def test_price_vertex_by_hand(self):
        # s = f = 0.5, theta = 2: a = 1 / Wb, and the broadcast term is
        # N * 0.5 Pb [1 - a (1 - (2.5 - Pb) 0.5)] = N * 0.5 Pb (1 + a / 4 - a Pb / 2),
        # whose vertex is Pb = Wb + 0.25. The box is [Pu/2, Pu] = [1.25, 2.5].
        catalog, cell, sched = _single_file_setup(price_unicast=2.5)
        assert price_validity_floor(catalog, cell) == 1.25
        assert bound_argmax_price(catalog, cell, 1.25, sched) == pytest.approx(1.5)
        assert bound_argmax_price(catalog, cell, 0.5, sched) == 1.25  # vertex 0.75
        assert bound_argmax_price(catalog, cell, 1e6, sched) == 2.5

    def test_degenerate_inputs_rejected(self):
        catalog, cell, sched = _single_file_setup()
        with pytest.raises(InvalidParameterError):
            bound_argmax_bandwidth(catalog, cell, 0.0, sched)
        with pytest.raises(InvalidParameterError):
            bound_argmax_price(catalog, cell, 0.0, sched)
        bad_catalog, bad_cell, bad_sched = _single_file_setup(size=0.6, price_unicast=2.5)
        with pytest.raises(PreconditionError):
            bound_argmax_bandwidth(bad_catalog, bad_cell, 0.5, bad_sched)


class TestJointOptimizeAscent:
    def test_bound_never_decreases_along_iterates(self, monkeypatch):
        rng = np.random.default_rng(43)
        for _ in range(20):
            catalog, cell = random_instance(rng)
            # a zero tolerance never converges, so the error hands back every iterate
            with monkeypatch.context() as patched:
                patched.setattr(optimizer, "DEFAULT_TOL", 0.0)
                patched.setattr(optimizer, "DEFAULT_MAX_ITERS", 12)
                with pytest.raises(ConvergenceError, match="did not converge") as err:
                    joint_optimize(catalog, cell)
            bounds = [b for _, _, b in err.value.trace]
            assert len(bounds) == 12

            def rounding(x):
                return 1e-12 * max(abs(x), cell.uc_only_revenue)

            closed = _closed_form_bound(catalog, cell)
            assert bounds[0] >= closed - rounding(closed)
            assert all(b1 >= b0 - rounding(b0) for b0, b1 in zip(bounds, bounds[1:]))
            result = joint_optimize(catalog, cell)
            assert result.lower_bound >= bounds[0]

    def test_downhill_step_raises_naming_iteration(self, monkeypatch):
        rng = np.random.default_rng(44)
        catalog, cell = random_instance(rng)
        true_map = optimizer.bound_argmax_bandwidth
        calls = []

        def bad_on_third(catalog, cell, price, schedule):
            calls.append(price)
            w = true_map(catalog, cell, price, schedule)
            return w * 1e-3 if len(calls) == 3 else w

        monkeypatch.setattr(optimizer, "bound_argmax_bandwidth", bad_on_third)
        monkeypatch.setattr(optimizer, "DEFAULT_TOL", 0.0)
        with pytest.raises(ConvergenceError, match="iteration 3") as err:
            joint_optimize(catalog, cell)
        trace = err.value.trace
        assert len(trace) == 3
        assert all(len(step) == 3 for step in trace)
        assert trace[2][2] < trace[1][2]


class TestJointOptimize:
    def test_no_users_boundary(self):
        catalog, cell, _ = _single_file_setup(n_users=0, price_unicast=2.0)
        result = joint_optimize(catalog, cell)
        assert result.bc_bandwidth == 0.0
        assert result.bc_price == pytest.approx(1.0)  # half the unicast price
        assert result.lower_bound == pytest.approx(cell.uc_only_revenue)
        assert result.gain == 1.0

    def test_fixed_point_and_dominance_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            catalog, cell = random_instance(rng)
            result = joint_optimize(catalog, cell)
            res_w, res_p = fixed_point_residuals(catalog, cell, result)
            assert res_w <= 1e-9
            assert res_p <= 1e-9
            # the exact fixed point does at least as well as the one-shot
            # closed forms, both evaluated where the bound is defined
            sub = suboptimal_schedule(catalog, cell.price_unicast)
            floor = price_validity_floor(catalog, cell)
            wb = closed_form_bandwidth(catalog, cell)
            pb = min(max(closed_form_price(
                catalog, cell, scheduled_demand_moment(catalog, sub)), floor),
                cell.price_unicast)
            closed_bound = lower_bound_revenue(catalog, cell, pb, wb, sub)
            assert result.lower_bound >= closed_bound - 1e-9

    def test_result_serializes(self):
        rng = np.random.default_rng(15)
        catalog, cell = random_instance(rng)
        payload = json.loads(joint_optimize(catalog, cell).to_json())
        for key in ("bc_bandwidth", "bc_price", "lower_bound", "gain",
                    "schedule_order", "iterations"):
            assert key in payload

    def test_price_stays_in_admissible_range(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            catalog, cell = random_instance(rng)
            result = joint_optimize(catalog, cell)
            assert cell.price_unicast / 2 - 1e-12 <= result.bc_price <= cell.price_unicast
            assert 0.0 <= result.bc_bandwidth <= cell.bc_cap + 1e-12


class TestRevenueGain:
    def test_no_users_gives_unity(self):
        catalog, cell, sched = _single_file_setup(n_users=0)
        assert revenue_gain(catalog, cell, 1.0, sched) == 1.0

    def test_saturated_bracket_by_hand(self):
        # G == Pu makes the bracket collapse to the saturated term alone:
        # with one file, G = 0.5 + 1/f, so f = 1/(Pu - 0.5) pins G = Pu;
        # a large population saturates the min() at 1, leaving 1 + NF/(2WT).
        pu = 2.6
        size = 1.0 / (pu - 0.5)
        catalog = catalog_from([size], [1.0], [3.0])
        cell = CellConfig(bandwidth=5.0, slots=2, n_users=400, price_unicast=pu,
                          rate_model=point_rate(1.0))
        sched = popularity_schedule(catalog)
        moment = scheduled_demand_moment(catalog, sched)
        assert gain_offset(catalog, sched, moment) == pytest.approx(pu, abs=1e-12)
        expected = 1.0 + cell.n_users * catalog.mean_size / (2.0 * 5.0 * 2)
        assert revenue_gain(catalog, cell, moment, sched) == pytest.approx(expected, abs=1e-12)

    def test_exceeds_unity_when_price_beats_offset(self):
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(200):
            catalog, cell = random_instance(rng)
            sched = suboptimal_schedule(catalog, cell.price_unicast)
            moment = scheduled_demand_moment(catalog, sched)
            if cell.price_unicast > gain_offset(catalog, sched, moment) and cell.n_users > 0:
                assert revenue_gain(catalog, cell, moment, sched) > 1.0
                checked += 1
        assert checked > 0

    def test_degenerate_moment_rejected(self):
        catalog, cell, sched = _single_file_setup()
        with pytest.raises(InvalidParameterError):
            revenue_gain(catalog, cell, 0.0, sched)


class TestBoundShape:
    def test_unimodal_along_axis_lines(self):
        # Along bandwidth lines the bound is A - B/w - C*w (at most one
        # interior maximum); along price lines it is a concave parabola.
        rng = np.random.default_rng(23)
        for _ in range(200):
            catalog, cell = random_instance(rng)
            sched = suboptimal_schedule(catalog, cell.price_unicast)
            floor = price_validity_floor(catalog, cell)
            w_grid = np.linspace(cell.bc_cap / 50, cell.bc_cap, 50)
            p_grid = np.linspace(floor, cell.price_unicast, 50)
            # one grid call; TestLowerBoundOnGrids pins it to the scalar calls
            values = lower_bound_revenue(catalog, cell, p_grid[None, :], w_grid[:, None], sched)
            for line in list(values) + list(values.T):
                interior_maxima = sum(
                    1 for k in range(1, len(line) - 1)
                    if line[k] > line[k - 1] and line[k] > line[k + 1]
                )
                assert interior_maxima <= 1


class TestCellConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(bandwidth=0.0, slots=1, n_users=1, price_unicast=1.0),
            dict(bandwidth=1.0, slots=0, n_users=1, price_unicast=1.0),
            dict(bandwidth=1.0, slots=1, n_users=-1, price_unicast=1.0),
            dict(bandwidth=1.0, slots=1, n_users=1, price_unicast=0.0),
            dict(bandwidth=1.0, slots=1, n_users=1, price_unicast=1.0, bc_cap_fraction=0.0),
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(InvalidParameterError):
            CellConfig(rate_model=point_rate(1.0), **kw)

    def test_validity_floor(self):
        catalog = catalog_from([0.99], [1.0], [2.0])
        cell = CellConfig(bandwidth=4.0, slots=3, n_users=10, price_unicast=2.6,
                          rate_model=point_rate(1.0))
        floor = price_validity_floor(catalog, cell)
        assert floor == pytest.approx(2.6 - 1.0 / 0.99, abs=1e-4)
        assert (2.6 - floor) * 0.99 < 1.0
