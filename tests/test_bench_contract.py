"""The benchmark's independent checks accept what the package prints.

``bench/checks.py`` recomputes every validation entry from the config and
the catalog the run built. This suite loads it read-only (no bytecode is
written next to it) and feeds it the in-process ``validate --format json``
output of both shipped configs, so a change to the package that breaks the
benchmark's contract fails here too.
"""
import importlib.util
import json
import sys

import pytest

import bcastopt.scenario as scenario
from bcastopt.cli import main

from conftest import CONFIG_DIR, REPO


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
