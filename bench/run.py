#!/usr/bin/env python3
"""Benchmark of the bcastopt command line, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each round runs the workload's CLI commands one after another, each in a
fresh single-threaded Python process started from the repository root, and
rounds repeat while the next one still fits in ``--seconds``. ``--seed`` is
passed to every command as ``--seed`` (``seven-cell-sweep`` and ``validate``
rounds cover several consecutive seeds, see SEEDS_PER_ROUND). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced processes and
the object holds the per-layer metrics of the traced ones. Every output is
checked (checks.py) outside the timed region; ``attempted`` and ``failed``
count sweep rows and validation entries. See bench/README.md.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from spans import LAYERS, span_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
DEFAULT_SEED = 99251
SETUP_PROBES = 10
POLICY_SEED_TAG = 0xBE7C  # the policy check's own stream, apart from the CLI's

WORKLOADS = {
    "single-cell-sweep": (("sweep", "configs/single_cell.cfg"),),
    "seven-cell-sweep": (("sweep", "configs/seven_cell.cfg"),),
    "validate": (("validate", "configs/single_cell.cfg"),
                 ("validate", "configs/seven_cell.cfg")),
}
# The simulator's per-user unicast allocation loop runs up to twice as long
# for some catalogs (and operating points) as for others, and the catalog
# comes from the seed. A round therefore covers this many consecutive seeds,
# so that a run's time does not hinge on one draw.
SEEDS_PER_ROUND = {"seven-cell-sweep": 12, "validate": 8}
# Values a workload changes in its copy of a shipped config. Twelve seven-cell
# sweeps a round only fit in a run with a lighter tolerance estimate (the full
# 100k draws per file are timed by single-cell-sweep) and fewer trials per
# point; the simulator still does about two thirds of the work.
CONFIG_CHANGES = {
    "seven-cell-sweep": {("catalog", "theta_samples"): "10000",
                         ("simulation", "trials"): "200"},
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "demand.build_catalog_s": "s",
    "demand.tolerance_s": "s",
    "demand.tolerance_calls": "count",
    "scenario.normalize_s": "s",
    "scenario.normalize_calls": "count",
    "payoff.simulate_s": "s",
    "payoff.simulate_calls": "count",
    "payoff.user_trials": "count",
    "payoff.user_trials_per_s": "1/s",
    "optimizer.lower_bound_s": "s",
    "optimizer.lower_bound_calls": "count",
    "scheduler.brute_force_s": "s",
    "optimizer.joint_optimize_s": "s",
    "optimizer.joint_optimize_iterations": "count",
    "scheduler.schedule_s": "s",
    "scheduler.schedule_calls": "count",
    "scenario.operating_point_s": "s",
    "scenario.sweep_self_s": "s",
    "scenario.validation_self_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("total_s", "s"), ("self_s", "s"), ("calls", "count"))},
}
# One thread per process: the workloads are sequential, and BLAS thread
# pools would only add start-up work and run-to-run noise.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(mode, cli_args, result_path) -> dict:
    """One CLI process: wall time from spawn to exit, peak RSS, and what
    child.py recorded."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(result_path), *cli_args]
    with open(result_path.with_suffix(".stderr"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **ENV},
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        tail = result_path.with_suffix(".stderr").read_text()[-2000:]
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a result:\n{tail}")
    if record["exit_code"] != proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)}: exit code {proc.returncode}, CLI returned "
                           f"{record['exit_code']}")
    record["wall_s"] = end - start
    record["setup_s"] = record["setup_end"] - start
    record["rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def workload_configs(workload, workdir) -> dict:
    """Each shipped config of the workload -> the file its commands read:
    the shipped file, or a copy in ``workdir`` with CONFIG_CHANGES applied."""
    changes = CONFIG_CHANGES.get(workload, {})
    configs = {}
    for _, config in WORKLOADS[workload]:
        configs[config] = ROOT / config
        if changes:
            cp = configparser.ConfigParser(interpolation=None)
            cp.read(ROOT / config)
            for (section, key), value in changes.items():
                cp.set(section, key, value)
            configs[config] = workdir / Path(config).name
            with open(configs[config], "w") as fh:
                cp.write(fh)
    return configs


def invocations(workload, seed, configs) -> list:
    """(command, config file, CLI seed) of each process of a round, in order."""
    return [(command, configs[config], seed + k)
            for k in range(SEEDS_PER_ROUND.get(workload, 1))
            for command, config in WORKLOADS[workload]]


def run_round(workload, seed, configs, mode, workdir, index) -> dict:
    calls = []
    for i, (command, config, cli_seed) in enumerate(invocations(workload, seed, configs)):
        out = workdir / f"{index}-{i}.out.json"
        record = run_child(mode, [command, str(config), "--seed", str(cli_seed),
                                  "--format", "json", "-o", str(out)],
                           workdir / f"{index}-{i}.json")
        record["output"] = out.read_text() if out.exists() else None
        calls.append(record)
    return {
        "mode": mode,
        "calls": calls,
        "wall_s": sum(c["wall_s"] for c in calls),
        "rss_mb": max(c["rss_mb"] for c in calls),
    }


def setup_samples(workload, seed, configs, workdir) -> list:
    """Set-up times of processes that stop once the config is parsed; the
    first probe only warms the bytecode and file caches."""
    command, config, cli_seed = invocations(workload, seed, configs)[0]
    args = [command, str(config), "--seed", str(cli_seed)]
    samples = [run_child("setup", args, workdir / f"setup-{k}.json")["setup_s"]
               for k in range(SETUP_PROBES + 1)]
    return samples[1:]


def run_rounds(workload, seed, configs, seconds, trace, workdir) -> list:
    modes = ("plain", "trace") if trace else ("plain",)
    rounds, start = [], time.monotonic()
    while True:
        for mode in modes:
            rounds.append(run_round(workload, seed, configs, mode, workdir, len(rounds)))
        elapsed = time.monotonic() - start
        if elapsed * (1 + len(modes) / len(rounds)) > seconds:
            return rounds


def check_rounds(workload, seed, configs, rounds) -> tuple[int, int, list, list]:
    """(attempted, failed, problems of the run as a whole, problems of single
    operations). Every round is checked; the independent policy simulation
    runs once, on the first sweep of the first round."""
    attempted = failed = 0
    report, failures = [], []
    for r, rnd in enumerate(rounds):
        for i, ((command, config, cli_seed), call) in enumerate(
                zip(invocations(workload, seed, configs), rnd["calls"])):
            facts = checks.config_facts(config)
            if call["output"] != rounds[0]["calls"][i]["output"]:
                report.append(f"round {r}: {command} {config} seed {cli_seed}: output "
                              "differs from round 0")
            cat = checks.catalog_arrays(call.get("catalog", {}))
            if command == "sweep":
                rows = json.loads(call["output"])["rows"] if call["output"] else []
                problems, whole = checks.check_sweep(rows, facts)
                if call["exit_code"] != 0:
                    whole.append(f"exit code {call['exit_code']}")
                n = max(facts["users"])
                row = next((x for x in rows if x.get("N") == n), None)
                if r == 0 and i == 0 and row is not None and not problems[n]:
                    problems[n] += checks.check_policy_point(
                        row, cat, facts, np.random.SeedSequence([cli_seed, POLICY_SEED_TAG]),
                        facts["trials"])
            else:
                entries = json.loads(call["output"])["entries"] if call["output"] else []
                problems, whole = checks.check_validation(entries, call["exit_code"], cat, facts)
            attempted += len(problems)
            failed += sum(1 for p in problems.values() if p)
            report += [f"round {r}: {config} seed {cli_seed}: {w}" for w in whole]
            failures += [f"round {r}: {config} seed {cli_seed}: {k}: {'; '.join(p)}"
                         for k, p in problems.items() if p]
    return attempted, failed, report, failures


def end_to_end(rounds, setups) -> dict:
    plain = [r for r in rounds if r["mode"] == "plain"]
    setups = setups + [c["setup_s"] for r in plain for c in r["calls"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }


def per_layer(rounds) -> dict:
    walls = {mode: statistics.median(r["wall_s"] for r in rounds if r["mode"] == mode)
             for mode in ("plain", "trace")}
    per_round = []
    for rnd in (r for r in rounds if r["mode"] == "trace"):
        totals = {k: 0 if unit == "count" else 0.0 for k, unit in PER_LAYER.items()}
        for call in rnd["calls"]:
            for source in (span_totals(call["spans"]), call["counts"]):
                for key, value in source.items():
                    if key in totals:
                        totals[key] += value
        if totals["payoff.simulate_s"] > 0:
            totals["payoff.user_trials_per_s"] = (
                totals["payoff.user_trials"] / totals["payoff.simulate_s"])
        totals["trace.overhead_s"] = walls["trace"] - walls["plain"]
        per_round.append(totals)
    return {k: statistics.median(t[k] for t in per_round) for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "bcastopt" / "cli.py"]
    needed += [ROOT / config for _, config in WORKLOADS[args.workload]]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"bench: missing {', '.join(missing)}\n")
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="bench-", dir=WORK))
    try:
        configs = workload_configs(args.workload, workdir)
        setups = setup_samples(args.workload, args.seed, configs, workdir)
        rounds = run_rounds(args.workload, args.seed, configs, args.seconds, args.trace,
                            workdir)
        attempted, failed, report, failures = check_rounds(args.workload, args.seed, configs,
                                                           rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (report + failures)[:20]:
        sys.stderr.write(f"check: {line}\n")
    if args.trace:
        values, units = per_layer(rounds), PER_LAYER
    else:
        values, units = end_to_end(rounds, setups), END_TO_END
    sys.stderr.write(
        f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"walls={[round(r['wall_s'], 3) for r in rounds]}\n")
    result = {
        "correct": not report,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
