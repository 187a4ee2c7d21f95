import argparse
import configparser
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcastopt.cli as cli
import bcastopt.optimizer as optimizer
import bcastopt.payoff as payoff
import bcastopt.scenario as scenario
from bcastopt.cli import build_parser, main
from bcastopt.errors import (
    POINT_ERRORS,
    ConfigError,
    PayoffDomainError,
    PreconditionError,
)
from bcastopt.scenario import (
    ExperimentSpec,
    load_spec,
    normalize,
    operating_point,
    run_sweep,
    run_validation,
)
from bcastopt.optimizer import price_validity_floor
from bcastopt.scheduler import suboptimal_schedule

from conftest import CONFIG_DIR, REPO, SMALL_CONFIG, traced_peak


@pytest.fixture(scope="module")
def small_spec(small_config):
    return load_spec(small_config)


def _shipped_keys():
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "single_cell.cfg")
    return [key for section in parser.sections() for key in parser[section]]


# One fault at a time in configs/single_cell.cfg: the key removed (None),
# or its value replaced by each string.
FAULTS = (None, "xx", "0", "-1", "nan")
SHIPPED_KEYS = _shipped_keys()


def _messages(section, key, zero, minus_one, nan):
    return (f"missing [{section}] {key} in {{path}}",
            f"bad value for [{section}] {key}: 'xx'", zero, minus_one, nan)


def _positive_float(section, key):
    return _messages(section, key, *(f"{key} must be positive and finite, got {v}"
                                     for v in ("0.0", "-1.0", "nan")))


def _positive_int(section, key):
    return _messages(section, key, f"{key} must be positive and finite, got 0",
                     f"{key} must be positive and finite, got -1",
                     f"bad value for [{section}] {key}: 'nan'")


def _not_a_scheduler(value):
    return ("schedulers must be a non-empty list of ('optimal', 'suboptimal', 'none'), "
            f"got ({value!r},)")


# The ConfigError message of each fault in FAULTS order; "" means the
# config still loads. {path} stands for the repr of the config path.
FAULT_MESSAGES = {
    "name": ("", "", "", "", ""),
    "bandwidth_mhz": _positive_float("cell", "bandwidth_mhz"),
    "uc_grant_mhz": _positive_float("cell", "uc_grant_mhz"),
    "interval_minutes": _positive_float("cell", "interval_minutes"),
    "slots_per_interval": _positive_int("cell", "slots_per_interval"),
    "r_high_bps_hz": _positive_float("cell", "r_high_bps_hz"),
    "r_low_degradation": _messages(
        "cell", "r_low_degradation", "", "r_low_degradation must be in [0, 1), got -1.0",
        "r_low_degradation must be in [0, 1), got nan"),
    "area_ratio_low_to_high": _messages(
        "cell", "area_ratio_low_to_high", "",
        "area_ratio_low_to_high must be >= 0, got -1.0",
        "area_ratio_low_to_high must be >= 0, got nan"),
    "bc_cap_fraction": ("", "bad value for [cell] bc_cap_fraction: 'xx'",
                        "bc_cap_fraction must be in (0, 1], got 0.0",
                        "bc_cap_fraction must be in (0, 1], got -1.0",
                        "bc_cap_fraction must be in (0, 1], got nan"),
    "file_count": _positive_int("catalog", "file_count"),
    "zipf_exponent": _positive_float("catalog", "zipf_exponent"),
    "size_min_mb": _positive_float("catalog", "size_min_mb"),
    "size_max_mb": _positive_float("catalog", "size_max_mb"),
    "theta_min_s": _positive_float("catalog", "theta_min_s"),
    "theta_max_s": _positive_float("catalog", "theta_max_s"),
    "theta_samples": ("",) + _positive_int("catalog", "theta_samples")[1:],
    "unicast_price": _positive_float("pricing", "unicast_price"),
    "users": _messages("sweep", "users", "",
                       "users must be a non-empty list of at most 10000 counts >= 0, "
                       "got (-1,)",
                       "bad value for [sweep] users: 'nan'"),
    "schedulers": ("",) + tuple(_not_a_scheduler(v) for v in FAULTS[1:]),
    "trials": _positive_int("simulation", "trials"),
    "seed": _messages("simulation", "seed", "", "seed must be >= 0, got -1",
                      "bad value for [simulation] seed: 'nan'"),
}


class TestLoadSpec:
    def test_shipped_single_cell_config(self):
        spec = load_spec(str(CONFIG_DIR / "single_cell.cfg"))
        assert spec.name == "single-cell"
        assert spec.bandwidth_mhz == 10.0
        assert spec.sweep_users == (50, 100, 150, 200)
        assert spec.schedulers == ("suboptimal",)
        assert spec.r_low_bps_hz == pytest.approx(1.32)

    def test_range_and_list_user_syntax(self, tmp_path):
        for users, expected in (("100:300:100", (100, 200, 300)), ("4,2", (2, 4))):
            path = tmp_path / "u.cfg"
            path.write_text(SMALL_CONFIG.replace("users = 0,5,10", f"users = {users}"))
            assert load_spec(str(path)).sweep_users == expected

    def test_users_are_one_sorted_axis(self, tmp_path):
        specs = []
        for users in ("200,50,50", "50,200"):
            path = tmp_path / "u.cfg"
            path.write_text(SMALL_CONFIG.replace("users = 0,5,10", f"users = {users}"))
            specs.append(load_spec(str(path)))
        assert specs[0].sweep_users == specs[1].sweep_users == (50, 200)
        assert run_sweep(specs[0]).rows == run_sweep(specs[1]).rows
        assert dataclasses.replace(specs[0], sweep_users=(10, 0, 10)).sweep_users == (0, 10)

    @pytest.mark.parametrize("stop", ["100000000000", "10000000000000000000"])
    def test_huge_user_range_is_a_config_error_that_builds_nothing(self, tmp_path, stop):
        # 10**11 counts would take terabytes if built; 10**19 has no len().
        path = tmp_path / "u.cfg"
        path.write_text(SMALL_CONFIG.replace("users = 0,5,10", f"users = 0:{stop}:1"))
        message = ("users must be a non-empty list of at most 10000 counts >= 0, "
                   f"got range(0, {int(stop) + 1})")

        def load():
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                load_spec(str(path))

        assert traced_peak(load) < 1 << 20

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_spec("/nonexistent/nope.cfg")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(SMALL_CONFIG.replace("unicast_price = 2.6", ""))
        with pytest.raises(ConfigError, match="unicast_price"):
            load_spec(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace("trials = 30", "trials = many"))
        with pytest.raises(ConfigError):
            load_spec(str(path))

    def test_low_rate_is_no_config_key(self, tmp_path):
        # The low-region rate is derived from r_low_degradation only.
        path = tmp_path / "rates.cfg"
        path.write_text(SMALL_CONFIG.replace("r_low_degradation = 0.45",
                                             "r_low_degradation = 0.45\nr_low_bps_hz = 1.5"))
        with pytest.raises(ConfigError) as exc:
            load_spec(str(path))
        assert str(exc.value) == f"unknown key [cell] r_low_bps_hz in {str(path)!r}"

    def test_low_rate_derives_from_degradation(self, small_spec):
        assert small_spec.r_low_bps_hz == 2.4 * (1.0 - 0.45)
        for degradation in (1.0, -0.5, float("nan")):
            with pytest.raises(ConfigError) as exc:
                dataclasses.replace(small_spec, r_low_degradation=degradation)
            assert str(exc.value) == f"r_low_degradation must be in [0, 1), got {degradation}"

    def test_unknown_scheduler(self, tmp_path):
        path = tmp_path / "sched.cfg"
        path.write_text(SMALL_CONFIG.replace("schedulers = suboptimal", "schedulers = magic"))
        with pytest.raises(ConfigError, match="magic"):
            load_spec(str(path))

    @pytest.mark.parametrize("old, new, message", [
        ("users = 0,5,10", "users = 1:5", "bad value for [sweep] users: '1:5'"),
        ("users = 0,5,10", "users = 1:5:0", "bad value for [sweep] users: '1:5:0'"),
        ("users = 0,5,10", "users = 1:5:-1",
         "users must be a non-empty list of at most 10000 counts >= 0, got ()"),
        ("users = 0,5,10", "users = 5:1:-1",
         "users must be a non-empty list of at most 10000 counts >= 0, got ()"),
        ("users = 0,5,10", "users = 5:1:1",
         "users must be a non-empty list of at most 10000 counts >= 0, got range(5, 2)"),
        ("size_min_mb = 160", "size_min_mb = 700", "size_min_mb must not exceed size_max_mb"),
        ("theta_min_s = 0.6", "theta_min_s = 7", "theta_min_s must not exceed theta_max_s"),
        ("bc_cap_fraction = 0.6", "bc_cap_fration = 0.6",
         "unknown key [cell] bc_cap_fration in {path}"),
        ("[simulation]", "[simulaton]", "unknown key [simulaton] trials in {path}"),
        ("schedulers = suboptimal", "schedulers = suboptimal\nzipf_exponents = 0.5",
         "unknown key [sweep] zipf_exponents in {path}"),
        ("schedulers = suboptimal", "schedulers = suboptimal\nfile_counts = 4000",
         "unknown key [sweep] file_counts in {path}"),
    ], ids=["range-of-two", "zero-step", "negative-step", "descending-range", "empty-range",
            "sizes-reversed",
            "thresholds-reversed", "misspelt-key", "unknown-section", "retired-zipf-axis",
            "retired-file-count-axis"])
    def test_load_error_messages(self, tmp_path, old, new, message):
        assert old in SMALL_CONFIG
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace(old, new))
        with pytest.raises(ConfigError) as exc:
            load_spec(str(path))
        assert str(exc.value) == message.format(path=repr(str(path)))

    def test_byte_order_mark_is_no_text(self, tmp_path):
        plain = CONFIG_DIR / "single_cell.cfg"
        path = tmp_path / "single_cell.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_spec(str(path)) == load_spec(str(plain))

    def test_optional_keys_take_their_defaults(self, tmp_path):
        path = tmp_path / "bare.cfg"
        text = SMALL_CONFIG
        for line in ("name = small", "bc_cap_fraction = 0.6", "theta_samples = 2000",
                     "schedulers = suboptimal"):
            text = text.replace(line + "\n", "")
        path.write_text(text)
        spec = load_spec(str(path))
        assert (spec.name, spec.bc_cap_fraction, spec.theta_samples, spec.schedulers) == (
            "bare", 1.0, 100_000, ("suboptimal",))

    def test_readme_lists_exactly_the_keys_load_spec_reads(self):
        # Each key takes the parenthesized remark that closes its group; a
        # remark ends at a ")" before a comma or the end of a line.
        block = (REPO / "README.md").read_text().split("### Config format")[1].split("```")[1]
        remarks, pending, section = {}, [], None
        for header, remark, key in re.findall(
                r"\[(\w+)\]|\(([^#]*?)\)(?=,|[ \t]*(?:#|$))|#.*|(\w+)", block, re.M):
            if header:
                section = header
            elif remark:
                remarks.update(dict.fromkeys(pending, " ".join(remark.split())))
                pending = []
            elif key:
                pending.append((section, key))
        declared = {(f.metadata["section"], f.metadata["key"] or f.name): f.metadata
                    for f in dataclasses.fields(ExperimentSpec)}
        assert not pending and remarks.keys() == declared.keys()
        for where, meta in declared.items():
            remark = remarks[where]
            assert meta["rule"] is None or meta["rule"][0] in remark, (where, remark)
            assert ("optional" in remark) == (meta["default"] is not None), (where, remark)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("key", SHIPPED_KEYS)
    def test_one_fault_per_key(self, tmp_path, key, fault):
        text = (CONFIG_DIR / "single_cell.cfg").read_text()
        line = "" if fault is None else f"{key} = {fault}\n"
        text, count = re.subn(rf"^{key} = .*\n", line, text, flags=re.M)
        assert count == 1
        path = tmp_path / "fault.cfg"
        path.write_text(text)
        expected = FAULT_MESSAGES[key][FAULTS.index(fault)].format(path=repr(str(path)))
        if not expected:
            load_spec(str(path))
            return
        with pytest.raises(ConfigError) as exc:
            load_spec(str(path))
        assert str(exc.value) == expected
        if expected.startswith(f"{key} must be positive and finite"):
            spec = load_spec(str(CONFIG_DIR / "single_cell.cfg"))
            value = type(getattr(spec, key))(fault)
            with pytest.raises(ConfigError) as exc:
                dataclasses.replace(spec, **{key: value})
            assert str(exc.value) == expected


class TestNormalize:
    def test_single_cell_units(self, single_cell_spec):
        catalog, cell, scheme = normalize(single_cell_spec)
        assert cell.bandwidth == pytest.approx(4.0)
        assert scheme.frequency_unit_mhz == 2.5
        assert scheme.size_unit_mb == pytest.approx(634.0 / 0.99)
        # the largest admissible file normalizes to 0.99; all draws sit below
        assert 0.99 * scheme.size_unit_mb == pytest.approx(634.0)
        assert 0.0 < catalog.sizes.max() <= 0.99
        assert np.all(catalog.sizes < 1.0)

    def test_seven_cell_bandwidth(self, seven_cell_spec):
        _, cell, scheme = normalize(seven_cell_spec)
        assert cell.bandwidth == pytest.approx(28.0)
        assert scheme.normalized_bandwidth == pytest.approx(28.0)

    def test_deterministic_catalog(self, small_spec):
        a, _, _ = normalize(small_spec)
        b, _, _ = normalize(small_spec)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.theta, b.theta)

    def test_scheme_serializes(self, small_spec):
        _, _, scheme = normalize(small_spec)
        payload = json.loads(scheme.to_json())
        assert payload["slots_per_interval"] == 3
        assert payload["rate_scale"] > 0

    def test_delay_sensitivity_violation_is_a_config_error(self, small_spec):
        with pytest.raises(ConfigError) as exc:
            normalize(dataclasses.replace(small_spec, theta_max_s=600.0))
        assert str(exc.value) == (
            "normalized parameters violate the delay-sensitivity condition: "
            "delay-sensitivity condition fails for 3 file(s): "
            "file 2 (size/rate=11.204996247998178, needs > 16.0), "
            "file 5 (size/rate=8.335265216977765, needs > 16.0), "
            "file 6 (size/rate=6.9559460757209965, needs > 16.0)")

    def test_operating_point_respects_floor_and_cap(self, small_spec):
        from dataclasses import replace

        catalog, cell, _ = normalize(small_spec)
        cell = replace(cell, n_users=10)
        sched = suboptimal_schedule(catalog, cell.price_unicast)
        bandwidth, price, moment = operating_point(catalog, cell, sched)
        assert 0.0 <= bandwidth <= cell.bc_cap
        assert price >= price_validity_floor(catalog, cell)
        assert price >= cell.price_unicast / 2
        assert price <= cell.price_unicast
        assert (cell.price_unicast - price) * catalog.sizes.max() < 1.0


_SIZE_BOUNDS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(a=_SIZE_BOUNDS, b=_SIZE_BOUNDS)
@example(a=160.0, b=160.0)
@example(a=5e-324, b=5e-324)
@example(a=5e-324, b=634.0)
@example(a=1e-300, b=1e300)
@example(a=1.0, b=1.7976931348623157e308)
@settings(max_examples=200, deadline=None)
def test_normalized_sizes_lie_in_the_unit_interval(small_spec, a, b):
    # Positive, finite bounds, equal ones and tiny minimums included: every
    # normalized size is in (0, 1), or normalize names the fault.
    spec = dataclasses.replace(small_spec, size_min_mb=min(a, b), size_max_mb=max(a, b))
    try:
        catalog, _, _ = normalize(spec)
    except ConfigError:
        return
    assert np.all((0.0 < catalog.sizes) & (catalog.sizes < 1.0))


class TestRunSweep:
    def test_unknown_variant_has_no_schedule(self, small_spec):
        catalog, cell, _ = normalize(small_spec)
        with pytest.raises(ConfigError) as exc:
            scenario.variant_schedule("magic", catalog, cell)
        assert str(exc.value) == "unknown scheduler variant 'magic'"

    def test_byte_identical_reruns(self, small_spec):
        a = run_sweep(small_spec).to_csv()
        b = run_sweep(small_spec).to_csv()
        assert a == b

    def test_zero_user_row_is_exact(self, small_spec):
        result = run_sweep(small_spec)
        row = next(r for r in result.rows if r["N"] == 0)
        assert row["error"] == ""
        assert row["gain_mc"] == 1.0
        assert row["R_analytic"] == 1.0
        assert row["W_b_star"] == 0.0

    def test_rows_ordered_by_n_with_expected_columns(self, small_spec):
        result = run_sweep(small_spec)
        assert [r["N"] for r in result.rows] == [0, 5, 10]
        header = result.to_csv().splitlines()[0]
        assert header.split(",") == list(scenario.SWEEP_COLUMNS)

    def test_bandwidth_denormalizes_within_physical_cap(self, small_spec):
        result = run_sweep(small_spec)
        for row in result.rows:
            if row["error"]:
                continue
            mhz = row["W_b_star"] * result.scheme.frequency_unit_mhz
            assert mhz <= small_spec.bc_cap_fraction * small_spec.bandwidth_mhz + 1e-9

    def test_programming_error_propagates(self, small_spec, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(scenario, "lower_bound_revenue", broken)
        with pytest.raises(TypeError, match="injected bug"):
            run_sweep(small_spec)

    def test_precondition_error_propagates(self, small_spec, monkeypatch):
        # A valid spec never breaks the bound hypothesis at the operating
        # point, so a PreconditionError there is a bug, not a row error.
        def broken(*args, **kwargs):
            raise PreconditionError("injected violation")

        monkeypatch.setattr(scenario, "lower_bound_revenue", broken)
        with pytest.raises(PreconditionError, match="injected violation"):
            run_sweep(small_spec)

    def test_broken_payoff_guarantee_propagates(self, small_spec, monkeypatch):
        # An AssertionError from inside the simulator is a bug, not a row
        # error: it ends the sweep.
        def broken_grants(demand, pool):
            raise AssertionError("injected broken invariant")

        monkeypatch.setattr(payoff, "unicast_grants", broken_grants)
        with pytest.raises(AssertionError, match="injected broken invariant"):
            run_sweep(small_spec)

    def test_repeated_users_and_schedulers_give_one_row_each(self, small_config, tmp_path):
        text = pathlib.Path(small_config).read_text()
        text = text.replace("users = 0,5,10", "users = 10,5,5,0,10")
        text = text.replace("schedulers = suboptimal", "schedulers = suboptimal,none,suboptimal")
        path = tmp_path / "repeated.cfg"
        path.write_text(text)
        spec = load_spec(str(path))
        assert dataclasses.replace(spec, schedulers=("none", "optimal", "none")).schedulers == (
            "none", "optimal")
        rows = run_sweep(spec).rows
        assert [(r["scheduler_variant"], r["N"]) for r in rows] == [
            ("suboptimal", 0), ("suboptimal", 5), ("suboptimal", 10),
            ("none", 0), ("none", 5), ("none", 10),
        ]

    def test_readme_deviation_5_numbers_match_the_seven_cell_point(
            self, seven_cell_setup, seven_cell_terminal_point):
        # Every number README deviation 5 quotes, recomputed to its printed
        # digits from the point `bcastopt simulate` evaluates at that N.
        text = (REPO / "README.md").read_text()
        text = " ".join(text.split("5. **Terminal seven-cell gain.**")[1]
                        .split("6. **")[0].split())

        def quoted(pattern):
            return re.search(pattern, text).group(1)

        cell, row, report = seven_cell_terminal_point
        assert quoted(r"At N=(\d+) ") == quoted(r"--n (\d+)`") == str(cell.n_users)
        catalog = seven_cell_setup[0]
        price = row["P_b_star"]
        cap = ((price * catalog.mean_size * cell.n_users + report.uc_revenue)
               / cell.uc_only_revenue)
        for pattern, value in [
            (r"`Pb = ([\d.]+)`", price),
            (r"mean file size is ([\d.]+)\.", catalog.mean_size),
            (r"allow a gain of ([\d.]+) over", cap),
            (r"reports ([\d.]+) % of users on broadcast", 100 * report.bc_user_fraction),
            (r"([\d.]+) % on unicast", 100 * report.uc_user_fraction),
            (r"([\d.]+) % unserved", 100 * report.unserved_user_fraction),
            (r"simulated gain of ([\d.]+)\.", row["gain_mc"]),
        ]:
            printed = quoted(pattern)
            assert f"{value:.{len(printed.split('.')[1])}f}" == printed, pattern

    def test_readme_deviations_3_and_6_quote_exact_expected_gains(self, single_cell_spec):
        # Deviations 3 and 6 quote expected gains at certified single-cell
        # points, where expected_revenue draws nothing: exact and seed-free.
        text = " ".join((REPO / "README.md").read_text()
                        .split("3. **Scheduler margin.**")[1].split("`bcastopt validate")[0].split())
        deviation_3, deviation_6 = text.split("4. **")[0], text.split("6. **")[1]

        def exact_gain(gamma, n_users, variant):
            spec = dataclasses.replace(single_cell_spec, zipf_exponent=float(gamma))
            catalog, cell, _ = normalize(spec)
            cell = dataclasses.replace(cell, n_users=int(n_users))
            schedule = scenario.variant_schedule(variant, catalog, cell)
            bandwidth, price, _ = operating_point(catalog, cell, schedule)
            estimate = payoff.expected_revenue(
                catalog, cell, payoff.PricePair(cell.price_unicast, price), bandwidth,
                schedule, trials=spec.trials, seed=spec.seed)
            assert (estimate.files_visited, estimate.residual_mean,
                    estimate.residual_stderr) == (0, 0.0, 0.0)
            return estimate.revenue_mean / cell.uc_only_revenue

        n_3, bound_order, popularity_order = re.search(
            r"point, N = (\d+): its expected gain is ([\d.]+) against ([\d.]+)\.",
            deviation_3).groups()
        low, high, n_6, at_low, at_high = re.search(
            r"exponent from ([\d.]+) to ([\d.]+) \*increases\* the expected gain of the "
            r"bound-optimal order at single-cell N = (\d+), from ([\d.]+) to ([\d.]+) ",
            deviation_6).groups()
        assert n_3 == n_6 == str(single_cell_spec.sweep_users[-1])
        assert single_cell_spec.zipf_exponent == float(high)
        for printed, value in [
            (bound_order, exact_gain(high, n_3, "suboptimal")),
            (popularity_order, exact_gain(high, n_3, "none")),
            (at_low, exact_gain(low, n_6, "suboptimal")),
            (at_high, exact_gain(high, n_6, "suboptimal")),
        ]:
            assert f"{value:.{len(printed.split('.')[1])}f}" == printed

    def test_exact_payoff_guarantee_holds_at_every_shipped_sweep_point(
            self, single_cell_spec, single_cell_setup, seven_cell_spec, seven_cell_setup):
        # The check that fills each row's payoff_guarantee_violations, at
        # every N of both shipped sweeps and with each scheduler variant.
        # The smallest gap, 2.0e-12 (seven-cell, N = 200), is a class whose
        # t* lies within the check's rounding band.
        for spec, (catalog, cell, _) in ((single_cell_spec, single_cell_setup),
                                         (seven_cell_spec, seven_cell_setup)):
            for variant in scenario.SCHEDULER_VARIANTS:
                for n in spec.sweep_users:
                    cell_n = dataclasses.replace(cell, n_users=n)
                    schedule = scenario.variant_schedule(variant, catalog, cell_n)
                    bandwidth, price, _ = operating_point(catalog, cell_n, schedule)
                    gaps = payoff.payoff_guarantee_gaps(
                        catalog, payoff.PricePair(cell.price_unicast, price), bandwidth,
                        schedule)
                    assert gaps.size and gaps.min() >= 0, (spec.name, variant, n)


@pytest.mark.parametrize("error", POINT_ERRORS, ids=lambda error: error.__name__)
class TestPointErrors:
    """Each reportable failure, raised at N = 5 only: a sweep records it in
    that row and goes on, and a one-point command exits 1 with one line."""

    @pytest.fixture(autouse=True)
    def fail_at_five(self, monkeypatch, error):
        real = optimizer.operating_point

        def failing(catalog, cell, schedule):
            if cell.n_users == 5:
                raise error("injected at N=5")
            return real(catalog, cell, schedule)

        # the sweep's evaluate_point and joint_optimize both take this step
        monkeypatch.setattr(scenario, "operating_point", failing)
        monkeypatch.setattr(optimizer, "operating_point", failing)

    def test_sweep_records_it_in_the_row(self, small_spec, error):
        errors = {row["N"]: row["error"] for row in run_sweep(small_spec).rows}
        assert errors == {0: "", 5: f"{error.__name__}: injected at N=5", 10: ""}

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_one_point_command_exits_with_one_error_line(self, small_config, capsys, command,
                                                         error):
        assert main([command, small_config, "--n", "10"]) == 0
        capsys.readouterr()
        assert main([command, small_config, "--n", "5"]) == 1
        assert capsys.readouterr() == ("", "error: injected at N=5\n")


class TestRunValidation:
    def test_battery_statuses_and_oracle_checks(self, small_spec):
        report = run_validation(small_spec)
        by_name = {e["check"]: e for e in report.entries}
        assert set(by_name) == {
            "smith_vs_bruteforce", "closed_form_bandwidth_vs_grid",
            "closed_form_price_vs_grid", "fixed_point_consistency",
            "lower_bound_mc", "payoff_guarantee",
        }
        assert all(e["status"] in ("PASS", "FAIL", "SKIPPED") for e in report.entries)
        assert by_name["smith_vs_bruteforce"]["status"] == "PASS"
        assert by_name["fixed_point_consistency"]["status"] == "PASS"
        assert by_name["payoff_guarantee"]["status"] == "PASS"

    def test_hypothesis_gate_reports_skip(self, small_spec):
        # The raw closed-form price sits deep in the discount region here,
        # so the bound hypothesis fails and the check must say so.
        report = run_validation(small_spec)
        entry = next(e for e in report.entries if e["check"] == "lower_bound_mc")
        assert entry["status"] == "SKIPPED"
        assert ">= 1" in entry["detail"]

    def test_skipped_report_is_byte_stable(self, small_spec):
        # SHA-256 of both renderings of the SKIPPED report above, which no
        # shipped config reaches; re-recorded when check 5 became the exact
        # per-class payoff check (its detail line is the only change).
        report = run_validation(small_spec)
        digests = [hashlib.sha256(text.encode()).hexdigest()
                   for text in (report.to_text(), report.to_json())]
        assert digests == [
            "e498ede28f2faa71c6bfaf184313ff69d2783c8c5d15a74c7affef847090b154",
            "66b52e6436e7d45846fa1600778050507c75f513fb14b0e9d65b957d9ee438a6",
        ]

    def test_smith_above_the_oracle_minimum_fails(self, small_spec, monkeypatch):
        real = scenario.brute_force_best_order

        def cheaper(*args):
            order, cost = real(*args)
            return order, cost - 1.0

        monkeypatch.setattr(scenario, "brute_force_best_order", cheaper)
        report = run_validation(small_spec)
        entry = next(e for e in report.entries if e["check"] == "smith_vs_bruteforce")
        assert entry["status"] == "FAIL" and not report.all_passed
        smith, best = map(float, re.fullmatch(r"smith (\S+) > brute force (\S+)",
                                              entry["detail"]).groups())
        assert smith - best == pytest.approx(1.0)

    def test_fixed_point_residual_above_tolerance_fails(self, small_spec, monkeypatch):
        monkeypatch.setattr(scenario, "fixed_point_residuals", lambda *args: (2e-9, 0.0))
        report = run_validation(small_spec)
        entry = next(e for e in report.entries if e["check"] == "fixed_point_consistency")
        assert entry == {"check": "fixed_point_consistency", "status": "FAIL",
                         "detail": "residuals (2.00e-09, 0.00e+00) exceed 1e-9"}
        assert not report.all_passed

    def test_shifted_eligibility_threshold_fails_the_payoff_guarantee(self, capsys,
                                                                      monkeypatch):
        # A t* 50 slots too high calls users eligible whose broadcast payoff
        # is below their unicast payoff; check 5 finds them at the classes'
        # marginal thresholds.
        path = str(CONFIG_DIR / "single_cell.cfg")

        def validate():
            code = main(["validate", path, "--format", "json"])
            entries = json.loads(capsys.readouterr().out)["entries"]
            return code, next(e for e in entries if e["check"] == "payoff_guarantee")

        assert validate()[1]["status"] == "PASS"
        real = payoff.eligibility_threshold
        monkeypatch.setattr(payoff, "eligibility_threshold", lambda *args: real(*args) + 50.0)
        code, entry = validate()
        assert (code, entry["status"]) == (2, "FAIL")
        broken, total = map(int, re.match(r"(\d+) of (\d+) eligible", entry["detail"]).groups())
        assert 0 < broken <= total
        assert "; smallest gap -" in entry["detail"]

    def test_readme_check_4_numbers_match_small_seven_cell_points(self, seven_cell_spec):
        # README "Validation" quotes check 4 at seven-cell N = 100, where the
        # bound exceeds E[R], and its slack at N = 200 and 300.
        text = (REPO / "README.md").read_text()
        text = " ".join(text.split("**Check 4 at small seven-cell N.**")[1]
                        .split("- **5.")[0].split())
        entries = {}
        for n in (100, 200, 300):
            report = run_validation(dataclasses.replace(seven_cell_spec, sweep_users=(n,)))
            entries[n] = next(e for e in report.entries if e["check"] == "lower_bound_mc")
        assert entries[100]["status"] == "FAIL"
        assert f"FAILs with `{entries[100]['detail']}`" in text
        slacks = re.search(r"At N = 200 and 300 it passes, with slack ([\d.]+) and ([\d.]+)\.",
                           text).groups()
        for n, slack in zip((200, 300), slacks):
            assert entries[n]["status"] == "PASS"
            assert entries[n]["detail"].endswith(f"(slack {slack} at +3se)")

    def test_text_rendering(self, small_spec):
        report = run_validation(small_spec)
        text = report.to_text()
        assert "validation report" in text
        assert "smith_vs_bruteforce" in text


# Each subcommand's options besides the config path and -o/--output.
CLI_OPTIONS = {
    "optimize": {"--seed", "--beta", "--n"},
    "sweep": {"--seed", "--beta", "--scheduler", "--format", "--trials"},
    "simulate": {"--seed", "--beta", "--scheduler", "--n", "--trials"},
    "schedule": {"--seed", "--scheduler", "--n", "--catalog"},
    "validate": {"--seed", "--beta", "--format"},
}


def _declared_options():
    """Each subcommand's options, mapped to their choices (None if free)."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt: action.choices for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help", "-o", "--output")}
            for name, p in sub.choices.items()}


class TestCliSurface:
    def test_each_subcommand_declares_exactly_its_options(self):
        declared = {name: set(options) for name, options in _declared_options().items()}
        assert declared == CLI_OPTIONS
        assert sum(len(opts) for opts in declared.values()) == 20

    def test_readme_table_lists_exactly_the_parser_options(self):
        table = (REPO / "README.md").read_text().split("| subcommand | options |")[1]
        listed = {}
        for name, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", table.split("\n\n")[0], re.M):
            listed[name] = dict(re.findall(r"`(--[\w-]+)(?: \{([\w,]+)\})?`", cell))
        declared = _declared_options()
        assert {name: set(opts) for name, opts in listed.items()} == {
            name: set(opts) for name, opts in declared.items()}
        for name, opts in listed.items():
            for opt, choices in opts.items():
                # the table spells out the --format choices, whose first is the default
                if choices or opt == "--format":
                    assert choices.split(",") == list(declared[name][opt]), (name, opt)

    @pytest.mark.parametrize("command, option, value", [
        ("optimize", "--scheduler", "optimal"),
        ("optimize", "--format", "csv"),
        ("simulate", "--format", "json"),
        ("schedule", "--format", "json"),
        ("schedule", "--beta", "0.05"),
        ("validate", "--scheduler", "none"),
        ("validate", "--n", "5"),
    ])
    def test_unread_options_are_rejected(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "any.cfg", option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def _simulate_args(config, n_users):
    """The simulate_revenue arguments of ``bcastopt simulate CONFIG --n N``."""
    spec = load_spec(config)
    catalog, cell, _ = normalize(spec)
    cell = dataclasses.replace(cell, n_users=n_users)
    schedule = scenario.variant_schedule(spec.schedulers[0], catalog, cell)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    return catalog, cell, payoff.PricePair(cell.price_unicast, price), bandwidth, schedule


class TestCli:
    def test_sweep_writes_csv(self, small_config, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", small_config, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N,W_b_star")
        assert len(lines) == 4

    def test_sweep_json_format(self, small_config, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", small_config, "-o", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "small"
        assert len(payload["rows"]) == 3

    def test_optimize_emits_json(self, small_config, capsys):
        assert main(["optimize", small_config, "--n", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] >= 1
        assert 0 <= payload["bc_bandwidth"]

    def test_simulate_emits_report(self, small_config, capsys):
        assert main(["simulate", small_config, "--n", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 30

    def test_simulate_without_users_prints_strict_json(self, small_config, capsys):
        # RFC 8259 has no NaN token: the means over no trial print as null.
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert main(["simulate", small_config, "--n", "0"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [payload[key] for key in ("mean_payoff_policy", "mean_payoff_uc_baseline",
                                         "bc_rate_realized_mean")] == [None] * 3

    def test_schedule_and_catalog_csv(self, small_config, tmp_path):
        out = tmp_path / "schedule.csv"
        assert main(["schedule", small_config, "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "position,file,f_i,s_i,weight"
        out2 = tmp_path / "catalog.csv"
        assert main(["schedule", small_config, "--catalog", "-o", str(out2)]) == 0
        assert out2.read_text().splitlines()[0] == "i,f_i,p_i,theta_i"

    def test_catalog_export_builds_no_schedule(self, small_config, capsys, monkeypatch):
        def no_schedule(*args):
            raise PayoffDomainError("no schedule expected")

        monkeypatch.setattr(cli, "variant_schedule", no_schedule)
        assert main(["schedule", small_config, "--scheduler", "optimal", "--catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,f_i,p_i,theta_i" and len(lines) == 7
        assert main(["schedule", small_config, "--scheduler", "optimal"]) == 1
        assert capsys.readouterr().err == "error: no schedule expected\n"

    def test_validate_exit_code_tracks_report(self, small_config, capsys):
        rc = main(["validate", small_config])
        text = capsys.readouterr().out
        assert rc in (0, 2)
        assert ("FAIL" in text) == (rc == 2)

    def test_validate_format_text_is_the_default(self, small_config, capsys):
        main(["validate", small_config])
        default = capsys.readouterr().out
        main(["validate", small_config, "--format", "text"])
        assert capsys.readouterr().out == default
        assert default.startswith("validation report: small\n")

    def test_validate_rejects_csv_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["validate", "any.cfg", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_seed_override_changes_sweep(self, small_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", small_config, "-o", str(a)]) == 0
        assert main(["sweep", small_config, "-o", str(b), "--seed", "123"]) == 0
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("edit, argv", [
        (None, ["optimize", "--beta", "1.5"]),
        (None, ["sweep", "--beta", "0"]),
        (("bc_cap_fraction = 0.6", "bc_cap_fraction = 1.5"), ["sweep"]),
        (("area_ratio_low_to_high = 9", "area_ratio_low_to_high = -1"), ["simulate"]),
        (None, ["optimize", "--n", "-1"]),
        (None, ["simulate", "--n", "-5"]),
        (("seed = 7", "seed = -3"), ["sweep"]),
        (None, ["validate", "--seed", "-1"]),
        (None, ["sweep", "--seed", "-1"]),
        (None, ["simulate", "--seed", "-1"]),
        (("[experiment]\n", ""), ["optimize"]),
        (("[simulation]", "[sweep]"), ["optimize"]),
        (("name = small", "name = 100% small"), ["optimize"]),
        (("schedulers = suboptimal", "schedulers ="), ["simulate"]),
        (("schedulers = suboptimal", "schedulers = ,"), ["schedule"]),
        (("schedulers = suboptimal", "schedulers ="), ["sweep"]),
        (("bandwidth_mhz = 10", "bandwidth_mhz = nan"), ["optimize"]),
        (("bandwidth_mhz = 10", "bandwidth_mhz = inf"), ["optimize"]),
        (("unicast_price = 2.6", "unicast_price = inf"), ["optimize"]),
        (("area_ratio_low_to_high = 9", "area_ratio_low_to_high = nan"), ["simulate"]),
    ], ids=["beta-above-one", "beta-zero", "cap-fraction-in-config",
            "negative-area-ratio", "negative-n-optimize", "negative-n-simulate",
            "negative-seed-in-config", "negative-seed-validate", "negative-seed-sweep",
            "negative-seed-simulate", "no-section-header", "duplicate-section",
            "bare-percent", "no-schedulers-simulate", "no-schedulers-schedule",
            "no-schedulers-sweep", "nan-bandwidth", "inf-bandwidth", "inf-price",
            "nan-area-ratio"])
    def test_bad_inputs_exit_with_one_error_line(self, small_config, tmp_path, capsys,
                                                 edit, argv):
        path = small_config
        if edit is not None:
            text = pathlib.Path(small_config).read_text()
            assert edit[0] in text
            path = tmp_path / "bad.cfg"
            path.write_text(text.replace(edit[0], edit[1]))
        command, *options = argv
        assert main([command, str(path), *options]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @staticmethod
    def _single_cell_with(tmp_path, old, new):
        text = (CONFIG_DIR / "single_cell.cfg").read_text()
        assert old in text
        path = tmp_path / "edited.cfg"
        path.write_text(text.replace(old, new))
        return str(path)

    @pytest.mark.parametrize("old, new, argv", [
        ("zipf_exponent = 1.0", "zipf_exponent = 200", ["sweep", "--trials", "2"]),
        ("zipf_exponent = 1.0", "zipf_exponent = 200", ["schedule", "--catalog"]),
        ("zipf_exponent = 1.0", "zipf_exponent = 1e-13", ["sweep", "--trials", "2"]),
        ("zipf_exponent = 1.0", "zipf_exponent = 1e-13", ["schedule", "--catalog"]),
    ], ids=["200-sweep", "200-catalog", "1e-13-sweep", "1e-13-catalog"])
    def test_flat_zipf_popularity_exits_with_one_error_line(self, tmp_path, capsys, old, new,
                                                            argv):
        # i^-gamma underflows to 0 (large gamma), or rounds to equal values
        # (tiny gamma), within the 2000 files of the single-cell catalog.
        assert main([*argv, self._single_cell_with(tmp_path, old, new)]) == 1
        assert capsys.readouterr() == (
            "", "error: Zipf popularity must be strictly decreasing\n")

    @pytest.mark.parametrize("old, new", [
        ("size_min_mb = 160", "size_min_mb = 30"),
        ("zipf_exponent = 1.0", "zipf_exponent = 200"),
        ("zipf_exponent = 1.0", "zipf_exponent = 1e-13"),
        ("zipf_exponent = 1.0", "zipf_exponent = 1000"),
    ], ids=["size-min-30", "200", "1e-13", "1000"])
    def test_validate_rejects_what_the_full_catalog_rejects(self, tmp_path, capsys, old, new):
        # The battery's 8-file catalog builds in the first three cases (at
        # gamma = 1000, i^-gamma underflows from i = 3 on); the config's own
        # 2000-file catalog fails a delay-sensitivity or Zipf check in all four.
        path = self._single_cell_with(tmp_path, old, new)
        assert main(["schedule", path, "--catalog"]) == 1
        rejected = capsys.readouterr().err
        assert main(["validate", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == rejected and err.count("error:") == 1

    def test_closed_pipe_exits_quietly(self):
        # The reader is gone before the CLI writes, so its write raises
        # BrokenPipeError, which main answers with exit status 0.
        with subprocess.Popen(
                [sys.executable, "-m", "bcastopt.cli", "schedule", "--catalog",
                 str(CONFIG_DIR / "single_cell.cfg")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(REPO / "src"))) as proc:
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_pipe_closed_mid_output_exits_quietly(self):
        # The seven-cell catalog CSV is larger than a pipe's buffer, so the
        # CLI is still writing when the reader closes the pipe after 20 bytes.
        # The read is unbuffered, or it would drain the pipe; the CLI's stdout
        # is buffered, as by default: an unbuffered one drops a short write.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
                [sys.executable, "-m", "bcastopt.cli", "schedule",
                 str(CONFIG_DIR / "seven_cell.cfg"), "--catalog"],
                bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(env, PYTHONPATH=str(REPO / "src"))) as proc:
            assert proc.stdout.read(20) == b"i,f_i,p_i,theta_i\n1,"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_warning_is_one_line(self, capsys):
        # At N = 5 the seven-cell unicast pool outlasts the demand in some
        # trials, so simulate warns: one line on stderr, as main prints an
        # error, and stdout is the report the library computes. Main's
        # handler ends with the command, so a caller's stays in place.
        config = str(CONFIG_DIR / "seven_cell.cfg")
        proc = subprocess.run(
            [sys.executable, "-m", "bcastopt.cli", "simulate", config, "--n", "5"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert proc.returncode == 0
        with pytest.warns(UserWarning, match="unicast demand fell below capacity") as caught:
            report = payoff.simulate_revenue(
                *_simulate_args(config, 5), trials=load_spec(config).trials,
                seed=np.random.SeedSequence(json.loads(proc.stdout)["seed"]))
        assert proc.stdout == report.to_json() + "\n"
        assert proc.stderr == f"warning: {caught[0].message}\n"
        assert f" {report.uc_demand_shortfall_trials}/2000 trials;" in proc.stderr

        shown = warnings.showwarning
        assert main(["simulate", config, "--n", "5"]) == 0
        assert capsys.readouterr() == (proc.stdout, proc.stderr)
        assert warnings.showwarning is shown

    def test_simulate_report_names_its_stream(self, small_config, capsys):
        # The report's seed is the entropy of the sweep's stream for the
        # point, SeedSequence([seed, round(gamma * 1e6), M, N]); it rebuilds
        # that stream and the report.
        assert main(["simulate", small_config, "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["seed"] == [7, 1_000_000, 6, 10]
        report = payoff.simulate_revenue(
            *_simulate_args(small_config, 10), trials=load_spec(small_config).trials,
            seed=np.random.SeedSequence(json.loads(out)["seed"]))
        assert report.to_json() + "\n" == out

    @pytest.mark.parametrize("shipped", [False, True], ids=["small", "single_cell"])
    def test_simulate_equals_the_sweep_row(self, small_config, capsys, shipped):
        # One evaluator and one seed derivation: simulate --n N reports the
        # sweep row's Monte Carlo numbers at N.
        path = str(CONFIG_DIR / "single_cell.cfg") if shipped else small_config
        seed = load_spec(path).seed
        assert main(["sweep", path, "--trials", "40", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) > 1 and not any(row["error"] for row in rows)
        for row in rows:
            assert main(["simulate", path, "--n", str(row["N"]), "--trials", "40"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["seed"] == [seed, round(row["gamma"] * 1e6), row["file_count"],
                                      row["N"]]
            assert (report["revenue_mean"], report["revenue_stderr"]) == (
                row["L0_mc_mean"], row["L0_mc_stderr"])

    @pytest.fixture
    def slow_users_config(self, tmp_path):
        # With 60 s thresholds, once N >= 500 a file near the head of the
        # seven-cell broadcast queue completes before its slowest users'
        # thresholds.
        text = (CONFIG_DIR / "seven_cell.cfg").read_text()
        assert "theta_max_s = 6.0\n" in text
        path = tmp_path / "slow_users.cfg"
        path.write_text(text.replace("theta_max_s = 6.0\n", "theta_max_s = 60\n"))
        return str(path)

    def test_simulate_payoff_domain_error_exits_with_one_error_line(self, slow_users_config,
                                                                    capsys):
        lines = set()
        for trials in ("20", "3"):
            assert main(["simulate", slow_users_config, "--trials", trials]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            lines.add(line)
        (line,) = lines
        assert line.startswith("error: file ")
        assert "at the largest threshold: s/(Wb*rb) - threshold = -" in line
        # The check runs before any draw: any stream and trial count meet it.
        args = _simulate_args(slow_users_config, max(load_spec(slow_users_config).sweep_users))
        for seed, trials in ((0, 1), (5, 200)):
            with pytest.raises(PayoffDomainError) as exc:
                payoff.simulate_revenue(*args, trials=trials, seed=seed)
            assert line == f"error: {exc.value}"

    def test_validate_payoff_domain_error_exits_with_one_error_line(self, slow_users_config,
                                                                    capsys):
        # Check 4 estimates the revenue at the largest user count, whose
        # payoff domain fails: validate reports no FAIL entry but the error.
        assert main(["validate", slow_users_config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: file ")
        assert "at the largest threshold: s/(Wb*rb) - threshold = -" in line

    def test_validate_payoff_domain_error_without_check_4(self, slow_users_config, capsys,
                                                         monkeypatch):
        # With the bound undefined, check 4 is skipped and check 5 meets the
        # domain error at the floored price: the same one line.
        assert main(["validate", slow_users_config]) == 1
        line = capsys.readouterr().err
        real = scenario.lower_bound_revenue

        def undefined_at_a_point(catalog, cell, price, bandwidth, schedule):
            if np.ndim(price) == np.ndim(bandwidth) == 0:  # check 4's one call
                raise PreconditionError("injected")
            return real(catalog, cell, price, bandwidth, schedule)

        monkeypatch.setattr(scenario, "lower_bound_revenue", undefined_at_a_point)
        monkeypatch.setattr(scenario, "expected_revenue", None)  # not called
        assert main(["validate", slow_users_config]) == 1
        assert capsys.readouterr() == ("", line)

    def test_sweep_records_domain_errors_in_the_same_rows_at_two_seeds(self, slow_users_config,
                                                                       capsys):
        failing = []
        for seed in ("99251", "11"):
            assert main(["sweep", slow_users_config, "--trials", "3", "--seed", seed,
                         "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert all(r["error"].startswith("PayoffDomainError: file ")
                       for r in rows if r["error"])
            failing.append([r["N"] for r in rows if r["error"]])
        assert failing[0] == failing[1] == list(range(500, 1500, 100))

    @pytest.mark.parametrize("config, argv", [
        ("slow_users_config", ["sweep", "--trials", "3"]),
        ("small_config", ["schedule"]),
        ("small_config", ["schedule", "--catalog"]),
    ], ids=["sweep-with-error-rows", "schedule", "catalog"])
    def test_every_csv_is_rectangular(self, request, capsys, config, argv):
        command, *options = argv
        assert main([command, request.getfixturevalue(config), *options]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert rows and all(len(row) == len(header) for row in rows)
        if command == "sweep":
            assert any(row[header.index("error")] for row in rows)

    @pytest.mark.parametrize("target, code", [("missing/out.csv", errno.ENOENT),
                                              (".", errno.EISDIR)],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output_exits_with_one_error_line(self, small_config, tmp_path,
                                                         capsys, target, code):
        path = str(tmp_path / target)
        assert main(["schedule", small_config, "-o", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write output file {path!r}: {os.strerror(code)}\n")

    def test_unwritable_output_fails_before_the_sweep(self, small_config, tmp_path, capsys,
                                                      monkeypatch):
        calls = []

        def spy(spec):
            calls.append(spec)
            return scenario.run_sweep(spec)

        monkeypatch.setattr(cli, "run_sweep", spy)
        path = str(tmp_path / "missing" / "x.csv")
        assert main(["sweep", small_config, "-o", path]) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: cannot write output file {path!r}: {os.strerror(errno.ENOENT)}\n")

    def test_failed_run_leaves_the_output_empty(self, small_config, tmp_path, capsys):
        out = tmp_path / "out.json"
        out.write_text("old\n")
        assert main(["optimize", small_config, "--n", "-1", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: user count must be >= 0, got --n -1\n"
        assert out.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["schedule", "--catalog"], ["simulate"]],
                             ids=["write-fails", "close-fails"])
    def test_failed_write_exits_with_one_error_line(self, capsys, argv):
        # The 2000-row catalog overflows the file's buffer, so its write
        # fails; the simulation report fits, so the flush at close fails.
        command, *options = argv
        config = str(CONFIG_DIR / "single_cell.cfg")
        assert main([command, config, *options, "-o", "/dev/full"]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write output file '/dev/full': {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "single_cell.cfg", "--n", "10", "--trials", "20"],
        ["schedule", "seven_cell.cfg", "--catalog"],
    ], ids=["small", "larger-than-buffer"])
    def test_failed_stdout_write_exits_with_one_error_line(self, argv, unbuffered):
        # A small report fails only at the flush, the catalog CSV already in
        # its write; with or without a buffer, one line and exit status 1.
        command, config, *options = argv
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bcastopt.cli", command, str(CONFIG_DIR / config),
                 *options],
                stdout=full, stderr=subprocess.PIPE, timeout=60,
                env=dict(env, PYTHONPATH=str(REPO / "src")))
        assert proc.returncode == 1
        assert proc.stderr.decode() == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    def test_command_os_error_is_not_relabelled(self, small_config, tmp_path, monkeypatch):
        def broken(spec):
            raise OSError(errno.EIO, "injected")

        monkeypatch.setattr(cli, "run_sweep", broken)
        out = tmp_path / "out.csv"
        with pytest.raises(OSError, match="injected"):
            main(["sweep", small_config, "-o", str(out)])
        assert out.read_text() == ""

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[cell]\nbandwidth_mhz = 10\n")
        assert main(["sweep", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["schedule", "--catalog"], ["sweep"], ["validate"]])
    @pytest.mark.parametrize("stop", ["10000", "100000000000", "10000000000000000000"])
    def test_too_many_user_counts_exit_with_one_error_line(self, tmp_path, capsys, command,
                                                            stop):
        # 0:10000:1 holds 10001 counts, one past the cap.
        path = tmp_path / "users.cfg"
        path.write_text(SMALL_CONFIG.replace("users = 0,5,10", f"users = 0:{stop}:1"))
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: users must be a non-empty list of at most 10000 "
                                f"counts >= 0, got range(0, {int(stop) + 1})\n")

    def test_undecodable_config_exits_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe[cell]\n")
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot decode config file {str(path)!r} as UTF-8: "
                                "invalid start byte at byte 0\n")


@pytest.fixture(scope="module")
def drawn_config(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.cfg"


@given(gamma=st.floats(min_value=-16.0, max_value=3.0).map(lambda e: 10.0 ** e),
       file_count=st.integers(min_value=1, max_value=200))
@example(gamma=200.0, file_count=200)
@example(gamma=1e-13, file_count=200)
@settings(max_examples=100, deadline=None)
def test_accepted_catalog_config_prints_a_csv_or_one_error_line(drawn_config, gamma,
                                                                file_count):
    # gamma is log-uniform over [1e-16, 1e3]; a catalog the model cannot
    # build is a config error, never a traceback.
    text = (CONFIG_DIR / "single_cell.cfg").read_text()
    text = re.sub(r"^zipf_exponent = .*$", f"zipf_exponent = {gamma!r}", text, flags=re.M)
    text = re.sub(r"^file_count = .*$", f"file_count = {file_count}", text, flags=re.M)
    drawn_config.write_text(text)
    assert load_spec(str(drawn_config)).zipf_exponent == gamma
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["schedule", str(drawn_config), "--catalog"])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and len(out.getvalue().splitlines()) == file_count + 1
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


# Words of a [sweep] value: integers of any size (a range is never built),
# floats with nan and inf, variant names and junk. A separator follows
# each word, so that no two integers merge.
_SWEEP_WORDS = st.one_of(
    st.integers().map(str), st.floats().map(repr),
    st.sampled_from(scenario.SCHEDULER_VARIANTS + ("magic", "xx", "", "1e", "0x10", " ")))


@given(key=st.sampled_from(("users", "schedulers")),
       words=st.lists(st.tuples(_SWEEP_WORDS, st.sampled_from(",:")), max_size=5))
@example(key="users", words=[("-1", ",")])
@example(key="users", words=[("5", ":"), ("1", ":"), ("1", ",")])
@example(key="users", words=[("0", ":"), ("100000000000", ":"), ("1", ",")])
@example(key="users", words=[("0", ":"), ("10000000000000000000", ":"), ("1", ",")])
@example(key="schedulers", words=[("magic", ",")])
@settings(max_examples=200, deadline=None)
def test_sweep_key_errors_name_the_key(drawn_config, key, words):
    value = "".join(word + sep for word, sep in words)[:-1]
    text = re.sub(rf"^{key} = .*\n", "", SMALL_CONFIG, flags=re.M)
    drawn_config.write_text(text.replace("[sweep]\n", f"[sweep]\n{key} = {value}\n"))
    try:
        load_spec(str(drawn_config))
    except ConfigError as exc:
        assert str(exc).startswith((f"{key} ", f"bad value for [sweep] {key}:")), str(exc)
