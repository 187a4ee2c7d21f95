"""The benchmark's independent checks accept what the package prints.

``bench/checks.py`` recomputes every validation entry and sweep row from
the config and the catalog the run built. This suite loads it read-only (no
bytecode is written next to it) and feeds it the in-process
``validate --format json`` output of both shipped configs and the sweep
rows of a small single-cell spec and of two seven-cell points, so a
change to the package that breaks the benchmark's contract fails here
too. With a broken eligibility threshold the rows' payoff-guarantee
count must make the benchmark's row check fail.
"""
import importlib.util
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import bcastopt.payoff as payoff
import bcastopt.scenario as scenario
from bcastopt.cli import main

from conftest import CONFIG_DIR, REPO, record_results

SINGLE_CELL = CONFIG_DIR / "single_cell.cfg"
USERS = (25, 50, 100, 150, 200)  # the bandwidth cap binds from 150 on
SEVEN_CELL = CONFIG_DIR / "seven_cell.cfg"
SEVEN_CELL_USERS = (700, 1400)


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", REPO / "bench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("config", ["single_cell", "seven_cell"])
def test_validation_report_passes_bench_checks(checks, config, monkeypatch, capsys):
    path = CONFIG_DIR / f"{config}.cfg"
    built = []
    real = scenario.normalize

    def keep_catalog(*args, **kwargs):
        result = real(*args, **kwargs)
        built.append(result[0])
        return result

    monkeypatch.setattr(scenario, "normalize", keep_catalog)
    rc = main(["validate", str(path), "--format", "json"])
    entries = json.loads(capsys.readouterr().out)["entries"]

    cat = checks.catalog_arrays(checks.catalog_record(built[0]))
    problems, report = checks.check_validation(entries, rc, cat, checks.config_facts(path))
    assert report == []
    assert problems == {name: [] for name in checks.VALIDATION_CHECKS}


def _sweep_rows(spec):
    return json.loads(scenario.run_sweep(spec).to_json())["rows"]


@pytest.fixture(scope="module")
def small_spec():
    return replace(scenario.load_spec(str(SINGLE_CELL)), file_count=40, sweep_users=USERS,
                   trials=200)


def test_sweep_rows_pass_bench_checks(checks, small_spec):
    rows = _sweep_rows(small_spec)
    facts = dict(checks.config_facts(SINGLE_CELL), users=USERS)
    problems, report = checks.check_sweep(rows, facts)
    assert report == []
    assert problems == {n: [] for n in USERS}

    catalog, _, _ = scenario.normalize(small_spec)
    cat = checks.catalog_arrays(checks.catalog_record(catalog))
    assert checks.check_policy_point(rows[-1], cat, facts, 3, 2000) == []


def test_repeated_sweep_axes_give_no_duplicate_rows(checks, small_spec):
    users = (50, 25, 50, 25)
    spec = replace(small_spec, sweep_users=users)
    rows = _sweep_rows(spec)
    problems, report = checks.check_sweep(rows, dict(checks.config_facts(SINGLE_CELL),
                                                     users=users))
    assert report == []
    assert problems == {25: [], 50: []}
    assert [row["N"] for row in rows] == [25, 50]


def test_seven_cell_rows_pass_bench_checks(checks, monkeypatch):
    # At these points some users are both granted unicast and eligible for
    # broadcast (a few hundred user-trials each), so the grants decide who
    # is broadcast to; the spies count them.
    grants = record_results(monkeypatch, payoff, "unicast_grants")
    payoffs = record_results(monkeypatch, payoff, "_payoff")
    spec = replace(scenario.load_spec(str(SEVEN_CELL)), sweep_users=SEVEN_CELL_USERS,
                   trials=200)
    rows = _sweep_rows(spec)
    monkeypatch.undo()

    # Each row's payoff_guarantee_gaps call adds two per-class calls, of
    # shape (2, M); the simulator's block calls come in (unicast, broadcast)
    # pairs of shape (k, N).
    overlap = dict.fromkeys(SEVEN_CELL_USERS, 0)
    blocks = [p for p in payoffs if p.shape[1] in overlap]
    for granted, uc, bc in zip(grants, blocks[0::2], blocks[1::2], strict=True):
        overlap[granted.shape[1]] += int(np.count_nonzero(granted & (bc >= uc)))
    assert min(overlap.values()) > 0, overlap

    facts = dict(checks.config_facts(SEVEN_CELL), users=SEVEN_CELL_USERS)
    problems, report = checks.check_sweep(rows, facts)
    assert report == []
    assert problems == {n: [] for n in SEVEN_CELL_USERS}
    catalog, _, _ = scenario.normalize(spec)
    cat = checks.catalog_arrays(checks.catalog_record(catalog))
    for row in rows:
        assert checks.check_policy_point(row, cat, facts, 3, 200) == []


def test_shifted_eligibility_threshold_is_flagged_in_sweep_rows(checks, small_spec,
                                                                monkeypatch):
    # A t* 50 slots too high calls users eligible whose broadcast payoff is
    # below their unicast payoff. The rows count such (rate, file) classes
    # with the exact check, and the benchmark's row check flags every row
    # that has an eligible class.
    real = payoff.eligibility_threshold
    monkeypatch.setattr(payoff, "eligibility_threshold", lambda *args: real(*args) + 50.0)
    gaps = record_results(monkeypatch, scenario, "payoff_guarantee_gaps")
    rows = _sweep_rows(replace(small_spec, trials=20))
    monkeypatch.undo()

    assert [row["N"] for row in rows] == list(USERS)
    problems, _ = checks.check_sweep(rows, dict(checks.config_facts(SINGLE_CELL), users=USERS))
    counts = []
    for row in rows:
        broken = row["payoff_guarantee_violations"]
        assert type(broken) is int and broken > 0, row
        assert f"payoff-guarantee violations: {broken}" in problems[row["N"]]
        counts.append(broken)
    # One exact check per row, each with eligible classes.
    assert all(g.size for g in gaps)
    assert [int(np.count_nonzero(g < 0)) for g in gaps] == counts
