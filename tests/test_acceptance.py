"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the per-criterion
lines. Several checks are expected to fail against this implementation;
they are kept at full strength rather than loosened, and the README's
"Known deviations" section explains each measured gap.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from bcastopt.channel import RateModel, broadcast_rate, unicast_rate
from bcastopt.demand import build_catalog, zipf_pmf
from bcastopt.optimizer import (
    CellConfig,
    closed_form_bandwidth,
    closed_form_price,
    fixed_point_residuals,
    joint_optimize,
    lower_bound_revenue,
    price_validity_floor,
)
from bcastopt.payoff import PricePair, simulate_revenue
from bcastopt.scenario import run_sweep
from bcastopt.scheduler import (
    bound_moments,
    brute_force_best_order,
    popularity_schedule,
    smith_cost,
    smith_schedule,
    suboptimal_schedule,
)

from conftest import catalog_from, point_rate, random_instance


def _report(criterion, ok, detail):
    print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def single_cell_sweep(single_cell_spec):
    return run_sweep(single_cell_spec)


@pytest.fixture(scope="module")
def seven_cell_sweep(seven_cell_spec):
    return run_sweep(seven_cell_spec)


def test_criterion_01_scheduling_optimality():
    """Smith order attains the exact permutation-search minimum, 100 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.05, 1.0, n)
        p = raw / raw.sum()
        sizes = rng.uniform(0.05, 0.9, n)
        theta = rng.uniform(0.3, 8.0, n)
        catalog = catalog_from(sizes, p, theta)
        pu = float(rng.uniform(0.5, 3.0))
        pb = float(rng.uniform(max(0.0, pu - 0.95 / sizes.max()), pu))
        sched = smith_schedule(catalog, pu, pb)
        best_order, _ = brute_force_best_order(catalog, pu, pb)
        mine = smith_cost(sched.order, catalog, pu, pb)
        best = smith_cost(best_order, catalog, pu, pb)
        assert mine <= best  # zero tolerance
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 10.0,
            f"100/100 instances exactly optimal in {elapsed:.1f}s (< 10s)")


def _small_size_instance(rng, scale=1.0):
    m = int(rng.integers(3, 11))
    sizes = rng.uniform(0.005, 0.05, size=m)
    r_low = float(sizes.min()) / 1.3 / 3.0
    model = RateModel(r_high=1.4 * r_low, r_low=r_low, prob_high=0.3)
    gamma = float(rng.uniform(0.5, 1.5))
    rng.integers(2**31)  # unused draw; keeps the stream, so every instance, fixed
    catalog = build_catalog(
        gamma, sizes=sizes, delay_lo=0.1, delay_hi=0.3, rate_model=model,
    )
    cell = CellConfig(
        bandwidth=float(rng.uniform(5, 50)), slots=int(rng.integers(5, 61)),
        n_users=int(rng.integers(20, 2001)), price_unicast=2.6,
    )
    if scale != 1.0:
        catalog = catalog_from(
            catalog.sizes * scale, catalog.popularity, catalog.theta / scale,
            RateModel(model.r_high * scale, model.r_low * scale, model.prob_high),
            delay_lo=catalog.delay_lo, delay_hi=catalog.delay_hi,
        )
    return catalog, cell


def _grid_errors(catalog, cell, points=10_000):
    sched = suboptimal_schedule(catalog, cell.price_unicast)
    moment = bound_moments(catalog, sched.s)[0]
    wb_hat = closed_form_bandwidth(catalog, cell)
    pb_hat = closed_form_price(catalog, cell, moment)
    wgrid = np.linspace(cell.bc_cap / points, cell.bc_cap, points)
    lw = lower_bound_revenue(catalog, cell, pb_hat, wgrid, sched)
    wb_grid = float(wgrid[int(np.argmax(lw))])
    wstep = float(wgrid[1] - wgrid[0])
    # the closed-form price lives in [Pu/2, Pu]; search that admissible range
    plo = cell.price_unicast / 2.0
    pgrid = np.linspace(plo, cell.price_unicast, points)
    lp = lower_bound_revenue(catalog, cell, pgrid, wb_hat, sched)
    pb_grid = float(pgrid[int(np.argmax(lp))])
    pstep = float(pgrid[1] - pgrid[0])
    w_err, w_tol = abs(wb_hat - wb_grid), 2 * wstep + 0.05 * abs(wb_grid)
    p_err, p_tol = abs(pb_hat - pb_grid), 2 * pstep + 0.05 * abs(pb_grid)
    return (w_err, w_tol, w_err / abs(wb_grid)), (p_err, p_tol, p_err / max(abs(pb_grid), 1e-30))


@pytest.fixture(scope="module")
def closed_form_grid_errors():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    rows = []
    for _ in range(50):
        state = rng.bit_generator.state
        catalog, cell = _small_size_instance(rng)
        w_full, p_full = _grid_errors(catalog, cell)
        rng.bit_generator.state = state
        catalog_s, cell_s = _small_size_instance(rng, scale=0.1)
        w_scaled, p_scaled = _grid_errors(catalog_s, cell_s)
        rows.append((w_full, p_full, w_scaled, p_scaled))
    return rows, time.perf_counter() - start


def test_criterion_02_closed_form_price_vs_grid(closed_form_grid_errors):
    rows, elapsed = closed_form_grid_errors
    misses = [p for (_, p, _, _) in rows if p[0] > p[1]]
    grown = [(p, ps) for (_, p, _, ps) in rows if ps[2] >= p[2] and p[2] > 0]
    ok = not misses and not grown and elapsed < 60.0
    _report(
        "2 (price)", ok,
        f"{50 - len(misses)}/50 within tolerance, relative error shrinks on "
        f"{50 - len(grown)}/50 instances under 10x size scaling ({elapsed:.0f}s)",
    )


def test_criterion_02_closed_form_bandwidth_vs_grid(closed_form_grid_errors):
    rows, elapsed = closed_form_grid_errors
    misses = [w for (w, _, _, _) in rows if w[0] > w[1]]
    rel = np.mean([w[2] for (w, _, _, _) in rows])
    rel_scaled = np.mean([ws[2] for (_, _, ws, _) in rows])
    ok = not misses and rel_scaled < rel and elapsed < 60.0
    _report(
        "2 (bandwidth)", ok,
        f"{50 - len(misses)}/50 within tolerance; mean relative error {rel:.2f} "
        f"-> {rel_scaled:.2f} under 10x size scaling (expected to shrink). "
        "The one-shot bandwidth form is not the bound's argmax; see README "
        "'Known deviations'.",
    )


@pytest.fixture(scope="module")
def joint_optimize_runs(single_cell_setup):
    rng = np.random.default_rng(3003)
    instances = [random_instance(rng) for _ in range(40)]
    catalog, cell0, _ = single_cell_setup
    instances.append((catalog, replace(cell0, n_users=200)))
    runs = []
    for cat, cell in instances:
        result = joint_optimize(cat, cell)
        sub = suboptimal_schedule(cat, cell.price_unicast)
        floor = price_validity_floor(cat, cell)
        wb = closed_form_bandwidth(cat, cell)
        pb = min(max(closed_form_price(cat, cell, bound_moments(cat, sub.s)[0]),
                     floor), cell.price_unicast)
        closed = (lower_bound_revenue(cat, cell, pb, wb, sub)
                  if cell.n_users > 0 and wb > 0 else None)
        runs.append((cat, cell, result, closed))
    return runs


def test_criterion_03_fixed_point_consistency(joint_optimize_runs):
    worst = 0.0
    for cat, cell, result, _ in joint_optimize_runs:
        res_w, res_p = fixed_point_residuals(cat, cell, result)
        worst = max(worst, res_w, res_p)
    _report("3 (fixed point)", worst <= 1e-9,
            f"{len(joint_optimize_runs)} instances: worst residual of the "
            f"projected coordinate updates {worst:.2e} (<= 1e-9)")


def test_criterion_03_dominates_closed_forms(joint_optimize_runs):
    losses = [
        (result.lower_bound, closed)
        for _, _, result, closed in joint_optimize_runs
        if closed is not None and result.lower_bound < closed - 1e-9
    ]
    _report(
        "3 (dominance)", not losses,
        f"joint optimum beats the one-shot closed forms on "
        f"{len(joint_optimize_runs) - len(losses)}/{len(joint_optimize_runs)} instances; "
        "the optimizer is a coordinate ascent of the bound started from the "
        "closed-form point, so every step must keep or raise the bound.",
    )


def test_criterion_04_lower_bound_validity(single_cell_sweep):
    rows = {r["N"]: r for r in single_cell_sweep.rows}
    detail = []
    ok = True
    for n in (50, 100, 200):
        row = rows[n]
        assert row["error"] == ""
        slack = row["L0_mc_mean"] - (row["L"] - 3 * row["L0_mc_stderr"])
        ok &= slack >= 0
        detail.append(f"N={n}: slack {slack:.3g}")
    _report(4, ok, "MC revenue >= bound - 3se at " + "; ".join(detail))


def test_criterion_05_payoff_guarantee(single_cell_sweep):
    total = sum(r.get("payoff_guarantee_violations", 0) for r in single_cell_sweep.rows)
    _report(5, total == 0,
            f"{total} (rate, file) classes below their unicast payoff (hard zero)")


def test_criterion_06_gain_band_and_monotonicity(single_cell_sweep):
    gains = single_cell_sweep.column("gain_mc")
    ns = single_cell_sweep.column("N")
    at_200 = gains[ns.index(200)]
    in_band = 1.20 <= at_200 <= 1.45
    increasing = all(a < b for a, b in zip(gains, gains[1:]))
    _report("6 (band+monotone)", in_band and increasing,
            f"gain at N=200 is {at_200:.3f} (band [1.20, 1.45]); "
            f"gains over N={ns}: {[f'{g:.3f}' for g in gains]} strictly increasing: "
            f"{increasing}")


def test_criterion_06_scheduler_margin(single_cell_spec, single_cell_setup):
    catalog, cell0, _ = single_cell_setup
    cell = replace(cell0, n_users=200)
    seed = np.random.SeedSequence([single_cell_spec.seed, 1_000_000, 2000, 200])
    means = {}
    for name, sched in (("suboptimal", suboptimal_schedule(catalog, cell.price_unicast)),
                        ("none", popularity_schedule(catalog))):
        from bcastopt.scenario import operating_point

        wb, pb, _ = operating_point(catalog, cell, sched)
        means[name] = simulate_revenue(
            catalog, cell, PricePair(cell.price_unicast, pb), wb, sched,
            trials=single_cell_spec.trials, seed=seed,
        ).revenue_mean
    margin = means["suboptimal"] - means["none"]
    _report(
        "6 (scheduler margin)", margin > 0,
        f"closed-form scheduler vs popularity baseline at N=200: margin "
        f"{margin / cell.uc_only_revenue:+.3f} of baseline revenue (expected "
        "positive). The bound-driven order loses realized revenue to the "
        "popularity order here; see README 'Known deviations'.",
    )


def test_criterion_07_bandwidth_trajectory(seven_cell_sweep, seven_cell_setup):
    rows = seven_cell_sweep
    wbs = rows.column("W_b_star")
    ns = rows.column("N")
    catalog, cell, _ = seven_cell_setup
    cap = cell.bc_cap
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(wbs, wbs[1:]))
    capped = [n for n, w in zip(ns, wbs) if abs(w - cap) < 1e-9]
    eventually_capped = bool(capped) and all(
        abs(w - cap) < 1e-9 for n, w in zip(ns, wbs) if n >= capped[0]
    )
    # exact crossing of the linear closed form onto the cap
    kink = cap * 4 * cell.price_unicast * cell.slots / catalog.mean_size
    kink_ok = 0.75 * 770 <= kink <= 1.25 * 770
    ok = non_decreasing and eventually_capped and kink_ok
    _report("7 (bandwidth)", ok,
            f"W_b* non-decreasing: {non_decreasing}, constant at cap from "
            f"N={capped[0] if capped else 'never'}; exact cap crossing at "
            f"N={kink:.0f} (band [577, 963])")


def test_criterion_07_price_trajectory(seven_cell_sweep, seven_cell_setup):
    rows = seven_cell_sweep
    pbs = rows.column("P_b_star")
    _, cell, _ = seven_cell_setup
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(pbs, pbs[1:]))
    reaches_cap = abs(pbs[-1] - cell.price_unicast) < 1e-9
    _report(
        "7 (price)", non_decreasing and reaches_cap,
        f"P_b* non-decreasing: {non_decreasing}; terminal value {pbs[-1]:.4f} vs "
        f"cap {cell.price_unicast} (reaches cap: {reaches_cap}). The one-shot "
        "price stays pinned at the bound-validity floor for every feasible "
        "catalog; see README 'Known deviations'.",
    )


def test_criterion_07_terminal_gain(seven_cell_sweep, seven_cell_terminal_point):
    gains = seven_cell_sweep.column("gain_mc")
    ns = seven_cell_sweep.column("N")
    terminal = gains[ns.index(1400)]
    _, _, report = seven_cell_terminal_point
    _report(
        "7 (terminal gain)", terminal >= 5.0,
        f"simulated revenue gain at N=1400 is {terminal:.2f} (needs >= 5). "
        f"Eligibility binds, not revenue: {100 * report.bc_user_fraction:.1f}% of "
        f"users are on broadcast and {100 * report.unserved_user_fraction:.1f}% are "
        "unserved, their broadcast payoff below their unicast payoff; see README "
        "'Known deviations'.",
    )


@pytest.fixture(scope="module")
def sensitivity_gains(single_cell_spec):
    """gain_mc at N = 200 per (gamma, M): the shipped catalog, then each
    parameter changed alone."""
    spec = replace(single_cell_spec, sweep_users=(200,), trials=1000)

    def gain(gamma, m):
        return run_sweep(replace(spec, zipf_exponent=gamma, file_count=m)).rows[0]["gain_mc"]

    return {point: gain(*point) for point in ((1.0, 2000), (0.5, 2000), (1.0, 4000))}


def test_criterion_08_zipf_exponent_direction(sensitivity_gains):
    base = sensitivity_gains[1.0, 2000]
    low_gamma = sensitivity_gains[0.5, 2000]
    decreases = base < low_gamma
    _report(
        "8 (zipf exponent)", decreases,
        f"gain at N=200: {low_gamma:.3f} (gamma=0.5) vs {base:.3f} (gamma=1.0); "
        "doubling the exponent was expected to decrease the gain but increases "
        "it: stronger popularity concentration helps broadcast; see README "
        "'Known deviations'.",
    )


def test_criterion_08_catalog_size_direction(sensitivity_gains):
    base = sensitivity_gains[1.0, 2000]
    large_m = sensitivity_gains[1.0, 4000]
    _report("8 (catalog size)", large_m < base,
            f"gain at N=200: {base:.3f} (M=2000) -> {large_m:.3f} (M=4000), "
            "larger catalogs dilute common requests")


class TestCriterion09Properties:
    """Randomized property battery, >= 1000 cases per property."""

    def _light_instance(self, rng):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.05, 1.0, n)
        sizes = rng.uniform(0.05, 0.9, n)
        theta = rng.uniform(0.2, 9.0, n)
        r_low = float(rng.uniform(0.01, 1.0))
        model = RateModel(r_low * float(rng.uniform(1.0, 3.0)), r_low,
                          float(rng.uniform(0.0, 1.0)))
        catalog = catalog_from(sizes, raw / raw.sum(), theta, rate_model=model)
        cell = CellConfig(
            bandwidth=float(rng.uniform(2, 30)), slots=int(rng.integers(2, 200)),
            n_users=int(rng.integers(1, 3000)), price_unicast=float(rng.uniform(0.5, 3.0)),
            bc_cap_fraction=float(rng.uniform(0.3, 1.0)),
        )
        return catalog, cell

    def test_bound_unimodal_on_grid(self):
        rng = np.random.default_rng(9001)
        cross_checked = 0
        for _ in range(1000):
            catalog, cell = self._light_instance(rng)
            sched = suboptimal_schedule(catalog, cell.price_unicast)
            floor = price_validity_floor(catalog, cell)
            a = unicast_rate(catalog.rate_model) / catalog.rate_model.r_low
            c1 = float(sched.s @ (catalog.theta * catalog.sizes * catalog.popularity))
            c2 = float(sched.s @ (catalog.theta * catalog.sizes**2 * catalog.popularity))
            w = np.linspace(cell.bc_cap / 50, cell.bc_cap, 50)[:, None]
            p = np.linspace(floor, cell.price_unicast, 50)[None, :]
            grid = (p * cell.n_users
                    * (catalog.mean_size - (a / w) * (c1 - (cell.price_unicast - p) * c2))
                    + cell.price_unicast * (cell.bandwidth - w) * cell.slots)
            if cross_checked < 25:
                i, j = rng.integers(0, 50, size=2)
                direct = lower_bound_revenue(catalog, cell, float(p[0, j]),
                                             float(w[i, 0]), sched)
                assert direct == pytest.approx(grid[i, j], rel=1e-9)
                cross_checked += 1
            for axis in (0, 1):
                lines = grid if axis == 0 else grid.T
                interior = (lines[:, 1:-1] > lines[:, :-2]) & (lines[:, 1:-1] > lines[:, 2:])
                assert int(interior.sum(axis=1).max()) <= 1
        _report("9 (bound unimodality)", True,
                "1000 instances: at most one interior maximum along every "
                "axis-aligned grid line")

    def test_price_monotone_in_users(self):
        rng = np.random.default_rng(9002)
        for _ in range(1000):
            catalog, cell = self._light_instance(rng)
            moment = float(rng.uniform(0.05, 20.0))
            n2 = cell.n_users + int(rng.integers(1, 2000))
            p1 = closed_form_price(catalog, cell, moment)
            p2 = closed_form_price(catalog, replace(cell, n_users=n2), moment)
            assert p2 >= p1
            assert cell.price_unicast / 2 <= p1 <= cell.price_unicast
        _report("9 (price monotone in N)", True, "1000 cases non-decreasing")

    def test_bandwidth_linear_in_users(self):
        rng = np.random.default_rng(9003)
        for _ in range(1000):
            catalog, cell = self._light_instance(rng)
            uncapped = replace(cell, bandwidth=1e12, bc_cap_fraction=1.0)
            one = closed_form_bandwidth(catalog, uncapped)
            two = closed_form_bandwidth(catalog, replace(uncapped, n_users=2 * cell.n_users))
            assert two == 2.0 * one
        _report("9 (bandwidth linearity)", True, "1000 cases exactly linear below cap")

    def test_broadcast_rate_limits(self):
        rng = np.random.default_rng(9004)
        for _ in range(1000):
            r_low = float(rng.uniform(0.05, 2.0))
            model = RateModel(r_low + float(rng.uniform(0.01, 2.0)), r_low,
                              float(rng.uniform(0.0, 0.999)))
            rates = [broadcast_rate(model, n) for n in range(1, 15)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
            assert rates[0] == pytest.approx(unicast_rate(model))
            assert broadcast_rate(model, 10**6) == pytest.approx(model.r_low, abs=1e-9)
        _report("9 (broadcast rate limit)", True,
                "1000 models: non-increasing to the low-region rate")

    def test_zipf_normalization_and_concentration(self):
        rng = np.random.default_rng(9005)
        for _ in range(1000):
            g1, g2 = np.sort(rng.uniform(0.01, 4.0, size=2))
            m = int(10 ** rng.uniform(0.0, 5.0))
            p1 = zipf_pmf(float(g1), m)
            p2 = zipf_pmf(float(g2), m)
            assert abs(p1.sum() - 1.0) < 1e-12
            assert abs(p2.sum() - 1.0) < 1e-12
            assert p2[0] >= p1[0]
        _report("9 (zipf pmf)", True,
                "1000 cases normalized to 1e-12 with concentration monotone in the exponent")

    def test_schedule_exchange_property(self):
        rng = np.random.default_rng(9006)
        for _ in range(1000):
            catalog, cell = self._light_instance(rng)
            pu = cell.price_unicast
            pb = float(rng.uniform(max(0.0, pu - 0.95 / catalog.sizes.max()), pu))
            sched = smith_schedule(catalog, pu, pb)
            base = smith_cost(sched.order, catalog, pu, pb)
            for k in range(len(sched.order) - 1):
                swapped = sched.order.copy()
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                assert smith_cost(swapped, catalog, pu, pb) >= base - 1e-12
        _report("9 (exchange property)", True,
                "1000 instances: no adjacent swap improves the Smith order")

    def test_end_to_end_csv_determinism(self, single_cell_spec):
        spec = replace(single_cell_spec, sweep_users=(0, 10), file_count=8,
                       theta_samples=3000, trials=40)
        outputs = {run_sweep(spec).to_csv() for _ in range(3)}
        assert len(outputs) == 1
        _report("9 (csv determinism)", True,
                "three sweep runs of the same spec are byte-identical")
