"""Self-tests of the benchmark's checks and span accounting.

    PYTHONPATH=src python3 -m pytest bench -q

Each check must accept a genuine output and reject a deliberately
corrupted copy of it; the separate policy simulator must agree with
``bcastopt.simulate_revenue`` on a small spec.
"""
import configparser
import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from spans import patch, span_totals  # noqa: E402

from bcastopt.payoff import PricePair, simulate_revenue  # noqa: E402
from bcastopt.scenario import (  # noqa: E402
    load_spec, normalize, operating_point, run_sweep, run_validation,
)
from bcastopt.scheduler import suboptimal_schedule  # noqa: E402

CONFIG = BENCH.parent / "configs" / "single_cell.cfg"
USERS = (25, 50, 100, 150, 200)  # the cap is reached between 100 and 150


@pytest.fixture(scope="module")
def small_spec():
    return replace(load_spec(str(CONFIG)), file_count=40, theta_samples=2000,
                   sweep_users=USERS, trials=200)


@pytest.fixture(scope="module")
def sweep(small_spec):
    rows = json.loads(run_sweep(small_spec).to_json())["rows"]
    catalog, _, _ = normalize(small_spec)
    facts = dict(checks.config_facts(CONFIG), users=USERS)
    return rows, checks.catalog_arrays(checks.catalog_record(catalog)), facts


@pytest.fixture(scope="module")
def validation():
    spec = load_spec(str(CONFIG))
    report = json.loads(run_validation(spec).to_json())
    catalog, _, _ = normalize(replace(spec, file_count=8, theta_samples=20_000))
    exit_code = 2 if any(e["status"] == "FAIL" for e in report["entries"]) else 0
    return (report["entries"], exit_code,
            checks.catalog_arrays(checks.catalog_record(catalog)), checks.config_facts(CONFIG))


def test_policy_simulator_agrees_with_simulate_revenue(small_spec):
    catalog, cell, _ = normalize(small_spec)
    cell = replace(cell, n_users=60)
    schedule = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    report = simulate_revenue(catalog, cell, PricePair(cell.price_unicast, price), bandwidth,
                              schedule, trials=3000, seed=1)
    cat = checks.catalog_arrays(checks.catalog_record(catalog))
    facts = checks.config_facts(CONFIG)
    s = checks.suboptimal_completion(cat, facts["Pu"])
    np.testing.assert_array_equal(s, schedule.s)
    mean, se = checks.policy_revenue(cat, s, facts, 60, price, bandwidth, 3000, seed=2)
    assert se > 0
    assert abs(mean - report.revenue_mean) <= 4 * np.hypot(se, report.revenue_stderr)


def test_sweep_checks_accept_real_output(sweep):
    rows, cat, facts = sweep
    problems, whole = checks.check_sweep(rows, facts)
    assert whole == [] and all(p == [] for p in problems.values()), problems
    assert checks.check_policy_point(rows[-1], cat, facts, 3, 2000) == []


def _row(rows, n):
    return next(r for r in rows if r["N"] == n)


@pytest.mark.parametrize("n, corrupt", [
    (25, lambda r, f: r.update(L0_mc_mean=f["Pu"] * (f["W"] - r["W_b_star"]) * f["T"]
                               + r["P_b_star"] * r["N"] + 1.0)),
    (50, lambda r, f: r.update(L0_mc_mean=f["Pu"] * (f["W"] - r["W_b_star"]) * f["T"] - 1.0)),
    (100, lambda r, f: r.update(gain_mc=r["gain_mc"] * 1.001)),
    (50, lambda r, f: r.update(W_b_star=r["W_b_star"] * 1.01)),
    (200, lambda r, f: r.update(W_b_star=r["W_b_star"] * 0.99)),
    (150, lambda r, f: r.update(P_b_star=f["Pu"] * 0.45)),
    (150, lambda r, f: r.update(P_b_star=f["Pu"] * 1.01)),
    (100, lambda r, f: r.update(L=r["L0_mc_mean"] + 4 * r["L0_mc_stderr"])),
    (200, lambda r, f: r.update(payoff_guarantee_violations=1)),
    (25, lambda r, f: r.pop("payoff_guarantee_violations")),
    (150, lambda r, f: r.update(error="PayoffDomainError: x")),
])
def test_sweep_checks_reject_corruption(sweep, n, corrupt):
    rows, _, facts = sweep
    rows = copy.deepcopy(rows)
    corrupt(_row(rows, n), facts)
    problems, _ = checks.check_sweep(rows, facts)
    assert problems[n], n
    assert all(p == [] for k, p in problems.items() if k != n)


def test_sweep_checks_reject_missing_and_extra_rows(sweep):
    rows, _, facts = sweep
    problems, whole = checks.check_sweep([r for r in rows if r["N"] != 100], facts)
    assert problems[100] == ["missing row"] and whole == []
    problems, whole = checks.check_sweep(rows + [dict(rows[0], N=7)], facts)
    assert whole


def test_policy_check_rejects_shifted_revenue(sweep):
    rows, cat, facts = sweep
    row = dict(rows[-1])
    row["L0_mc_mean"] += 10 * row["L0_mc_stderr"] + 0.5
    assert checks.check_policy_point(row, cat, facts, 3, 2000)


def test_validation_checks_accept_real_output(validation):
    entries, exit_code, cat, facts = validation
    problems, whole = checks.check_validation(entries, exit_code, cat, facts)
    assert whole == [] and all(p == [] for p in problems.values()), problems


def _flip(entry):
    entry["status"] = "PASS" if entry["status"] == "FAIL" else "FAIL"


def _shift_argmax(entry):
    got = re.search(r"grid argmax (\S+) ", entry["detail"]).group(1)
    entry["detail"] = entry["detail"].replace(f"grid argmax {got}",
                                              f"grid argmax {float(got) * 0.9:.6g}")


def _shift_bound(entry):
    got = re.search(r"vs bound (\S+) ", entry["detail"]).group(1)
    entry["detail"] = entry["detail"].replace(f"vs bound {got}", f"vs bound {float(got) + 1:.6g}")


@pytest.mark.parametrize("check, corrupt", [
    ("closed_form_bandwidth_vs_grid", _flip),
    ("closed_form_price_vs_grid", _flip),
    ("closed_form_bandwidth_vs_grid", _shift_argmax),
    ("closed_form_price_vs_grid", _shift_argmax),
    ("smith_vs_bruteforce", lambda e: e.update(status="FAIL")),
    ("fixed_point_consistency", lambda e: e.update(status="FAIL")),
    ("payoff_guarantee", lambda e: e.update(status="FAIL")),
    ("lower_bound_mc", _shift_bound),
    ("lower_bound_mc", lambda e: e.update(status="SKIPPED")),
])
def test_validation_checks_reject_corruption(validation, check, corrupt):
    entries, _, cat, facts = validation
    entries = copy.deepcopy(entries)
    corrupt(next(e for e in entries if e["check"] == check))
    exit_code = 2 if any(e["status"] == "FAIL" for e in entries) else 0
    problems, _ = checks.check_validation(entries, exit_code, cat, facts)
    assert problems[check]
    assert all(p == [] for k, p in problems.items() if k != check)


def test_validation_checks_reject_missing_entry_and_wrong_exit_code(validation):
    entries, exit_code, cat, facts = validation
    problems, whole = checks.check_validation(entries[1:], exit_code, cat, facts)
    assert problems[entries[0]["check"]] and whole
    _, whole = checks.check_validation(entries, 2 - exit_code, cat, facts)
    assert whole


def test_span_totals_count_nested_spans_once():
    spans = [
        ["scenario.sweep", 0.0, 10.0, -1],
        ["scheduler.schedule", 1.0, 3.0, 0],
        ["scheduler.schedule", 1.5, 2.5, 1],   # a schedule built by another one
        ["payoff.simulate", 4.0, 9.0, 0],
    ]
    t = span_totals(spans)
    assert t["scheduler.schedule_s"] == 2.0 and t["scheduler.schedule_calls"] == 1
    assert t["scheduler.total_s"] == 2.0 and t["scheduler.self_s"] == 2.0
    assert t["scenario.sweep_self_s"] == 3.0 and t["scenario.calls"] == 1
    assert t["payoff.simulate_s"] == 5.0


def test_missing_function_is_skipped():
    assert patch("scenario", "no_such_function", lambda fn: fn) is False


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_workload_config_copy_changes_only_the_listed_values(tmp_path):
    shipped = "configs/seven_cell.cfg"
    path = run.workload_configs("seven-cell-sweep", tmp_path)[shipped]
    assert path.parent == tmp_path
    before, after = configparser.ConfigParser(), configparser.ConfigParser()
    before.read(run.ROOT / shipped)
    after.read(path)
    changes = run.CONFIG_CHANGES["seven-cell-sweep"]
    assert before.sections() == after.sections()
    for section in before.sections():
        assert dict(after[section]) == {
            key: changes.get((section, key), value) for key, value in before[section].items()}
    spec = load_spec(str(path))
    assert (spec.theta_samples, spec.trials) == (10_000, 200)
    assert run.workload_configs("single-cell-sweep", tmp_path) == {
        "configs/single_cell.cfg": run.ROOT / "configs" / "single_cell.cfg"}
