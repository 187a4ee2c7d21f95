import argparse
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

import bcastopt.payoff as payoff
import bcastopt.scenario as scenario
from bcastopt.cli import build_parser, main
from bcastopt.errors import (
    ConfigError,
    ConvergenceError,
    PayoffDomainError,
    PreconditionError,
)
from bcastopt.scenario import (
    load_spec,
    normalize,
    operating_point,
    run_sweep,
    run_validation,
)
from bcastopt.optimizer import price_validity_floor
from bcastopt.scheduler import suboptimal_schedule

from conftest import CONFIG_DIR

SMALL_CONFIG = """
[experiment]
name = small

[cell]
bandwidth_mhz = 10
uc_grant_mhz = 2.5
interval_minutes = 2
slots_per_interval = 3
r_high_bps_hz = 2.4
r_low_degradation = 0.45
area_ratio_low_to_high = 9
bc_cap_fraction = 0.6

[catalog]
file_count = 6
zipf_exponent = 1.0
size_min_mb = 160
size_max_mb = 634
theta_min_s = 0.6
theta_max_s = 6.0
theta_samples = 2000

[pricing]
unicast_price = 2.6

[sweep]
users = 0,5,10
schedulers = suboptimal

[simulation]
trials = 30
seed = 7
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def small_spec(small_config):
    return load_spec(small_config)


class TestLoadSpec:
    def test_shipped_single_cell_config(self):
        spec = load_spec(str(CONFIG_DIR / "single_cell.cfg"))
        assert spec.name == "single-cell"
        assert spec.bandwidth_mhz == 10.0
        assert spec.sweep_users == (50, 100, 150, 200)
        assert spec.schedulers == ("suboptimal",)
        assert spec.r_low_bps_hz == pytest.approx(1.32)

    def test_range_and_list_user_syntax(self, tmp_path):
        for users, expected in (("100:300:100", (100, 200, 300)), ("4,2", (4, 2))):
            path = tmp_path / "u.cfg"
            path.write_text(SMALL_CONFIG.replace("users = 0,5,10", f"users = {users}"))
            assert load_spec(str(path)).sweep_users == expected

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

    def _spec_with_rates(self, tmp_path, rates):
        path = tmp_path / "rates.cfg"
        path.write_text(SMALL_CONFIG.replace("r_low_degradation = 0.45", rates))
        return load_spec(str(path))

    def test_low_rate_given_directly(self, tmp_path):
        spec = self._spec_with_rates(tmp_path, "r_low_bps_hz = 1.5")
        assert (spec.r_high_bps_hz, spec.r_low_bps_hz) == (2.4, 1.5)

    def test_low_rate_wins_over_degradation(self, tmp_path):
        # An out-of-range degradation is never read when the rate is given.
        spec = self._spec_with_rates(tmp_path, "r_low_bps_hz = 1.5\nr_low_degradation = 7")
        assert spec.r_low_bps_hz == 1.5

    def test_low_rate_above_high_rate(self, tmp_path):
        with pytest.raises(ConfigError, match="r_low_bps_hz must not exceed r_high_bps_hz"):
            self._spec_with_rates(tmp_path, "r_low_bps_hz = 2.5")

    def test_unknown_scheduler(self, tmp_path):
        path = tmp_path / "sched.cfg"
        path.write_text(SMALL_CONFIG.replace("schedulers = suboptimal", "schedulers = magic"))
        with pytest.raises(ConfigError, match="magic"):
            load_spec(str(path))


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


class TestRunSweep:
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

    def test_failed_point_is_recorded_and_sweep_continues(self, small_spec, monkeypatch):
        real = scenario.simulate_revenue

        def flaky(catalog, cell, *args, **kwargs):
            if cell.n_users == 5:
                raise ConvergenceError("injected failure")
            return real(catalog, cell, *args, **kwargs)

        monkeypatch.setattr(scenario, "simulate_revenue", flaky)
        result = run_sweep(small_spec)
        by_n = {r["N"]: r for r in result.rows}
        assert "injected failure" in by_n[5]["error"]
        assert by_n[0]["error"] == "" and by_n[10]["error"] == ""

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
        # An assignment that broadcasts every user also broadcasts those
        # whose broadcast payoff is below their unicast payoff.
        def broadcast_everyone(demand, eligible, pool):
            assert not np.all(eligible)
            return np.full(np.shape(demand), payoff.BROADCAST, dtype=np.int8)

        monkeypatch.setattr(payoff, "assign_services", broadcast_everyone)
        with pytest.raises(AssertionError, match="payoff guarantee broken in trial 0"):
            run_sweep(small_spec)

    def test_repeated_users_and_schedulers_give_one_row_each(self, small_config, tmp_path):
        text = pathlib.Path(small_config).read_text()
        text = text.replace("users = 0,5,10", "users = 10,5,5,0,10")
        text = text.replace("schedulers = suboptimal", "schedulers = suboptimal,none,suboptimal")
        path = tmp_path / "repeated.cfg"
        path.write_text(text)
        rows = run_sweep(load_spec(str(path))).rows
        assert [(r["scheduler_variant"], r["N"]) for r in rows] == [
            ("suboptimal", 0), ("suboptimal", 5), ("suboptimal", 10),
            ("none", 0), ("none", 5), ("none", 10),
        ]

    def test_variant_axes_expand_rows(self, small_config):
        text = pathlib.Path(small_config).read_text()
        text = text.replace("[simulation]", "zipf_exponents = 0.5\n\n[simulation]")
        path = pathlib.Path(small_config).parent / "variants.cfg"
        path.write_text(text)
        result = run_sweep(load_spec(str(path)))
        gammas = {row["gamma"] for row in result.rows}
        assert gammas == {1.0, 0.5}


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
        # shipped config reaches; recorded before check 4 was rewritten.
        report = run_validation(small_spec)
        digests = [hashlib.sha256(text.encode()).hexdigest()
                   for text in (report.to_text(), report.to_json())]
        assert digests == [
            "1e7965bd4adf17fae752d501e30dca2cb64e37748470911f68a0eb1fc7cb0655",
            "d370ae050eb7ff907dbdcea2b88cd46d95b373049c3d771a962571eed39a4793",
        ]

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


class TestCliSurface:
    def test_each_subcommand_declares_exactly_its_options(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {opt for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help", "-o", "--output")}
            for name, p in sub.choices.items()
        }
        assert declared == CLI_OPTIONS
        assert sum(len(opts) for opts in declared.values()) == 20

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
    schedule = scenario._variant_schedule(spec.schedulers[0], catalog, cell)
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
        assert payload["payoff_guarantee_violations"] == 0
        assert payload["trials"] == 30

    def test_schedule_and_catalog_csv(self, small_config, tmp_path):
        out = tmp_path / "schedule.csv"
        assert main(["schedule", small_config, "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "position,file,f_i,s_i,weight"
        out2 = tmp_path / "catalog.csv"
        assert main(["schedule", small_config, "--catalog", "-o", str(out2)]) == 0
        assert out2.read_text().splitlines()[0] == "i,f_i,p_i,theta_i"

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
        (("schedulers = suboptimal", "schedulers = suboptimal\nzipf_exponents = -0.5"),
         ["sweep"]),
        (("schedulers = suboptimal", "schedulers = suboptimal\nfile_counts = 0"), ["sweep"]),
        (("schedulers = suboptimal", "schedulers = suboptimal\nzipf_exponents = nan"),
         ["sweep"]),
        (("bandwidth_mhz = 10", "bandwidth_mhz = nan"), ["optimize"]),
        (("bandwidth_mhz = 10", "bandwidth_mhz = inf"), ["optimize"]),
        (("unicast_price = 2.6", "unicast_price = inf"), ["optimize"]),
        (("area_ratio_low_to_high = 9", "area_ratio_low_to_high = nan"), ["simulate"]),
    ], ids=["beta-above-one", "beta-zero", "cap-fraction-in-config",
            "negative-area-ratio", "negative-n-optimize", "negative-n-simulate",
            "negative-seed-in-config", "negative-seed-validate", "negative-seed-sweep",
            "negative-seed-simulate", "no-section-header", "duplicate-section",
            "bare-percent", "no-schedulers-simulate", "no-schedulers-schedule",
            "no-schedulers-sweep", "negative-zipf-variant", "zero-file-count-variant",
            "nan-zipf-variant", "nan-bandwidth", "inf-bandwidth", "inf-price",
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

    def test_simulate_report_names_its_stream(self, small_config, capsys):
        # The report's seed is the entropy of the stream cmd_simulate builds,
        # SeedSequence([seed, N]); it rebuilds that stream and the report.
        assert main(["simulate", small_config, "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["seed"] == [7, 10]
        report = payoff.simulate_revenue(
            *_simulate_args(small_config, 10), trials=load_spec(small_config).trials,
            seed=np.random.SeedSequence(json.loads(out)["seed"]))
        assert report.to_json() + "\n" == out

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

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[cell]\nbandwidth_mhz = 10\n")
        assert main(["sweep", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
