"""Command-line entry points.

Subcommands: optimize, sweep, simulate, schedule, validate. Each takes a
config file; see the repository README for the format. Exit code 0 on
success, 1 on configuration, convergence or payoff-domain errors, 2 on
validation failures.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .demand import catalog_to_csv
from .errors import ConfigError, ConvergenceError, PayoffDomainError
from .optimizer import joint_optimize
from .payoff import PricePair, simulate_revenue
from .scenario import (
    SCHEDULER_VARIANTS,
    _variant_schedule,
    load_spec,
    normalize,
    operating_point,
    run_sweep,
    run_validation,
)
from .scheduler import schedule_to_csv


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc.strerror}") from exc


def _apply_overrides(spec, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "beta", None) is not None:
        updates["bc_cap_fraction"] = args.beta
    if getattr(args, "scheduler", None):
        updates["schedulers"] = (args.scheduler,)
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    return replace(spec, **updates) if updates else spec


def _resolved_cell(spec, args):
    n = args.n if args.n is not None else max(spec.sweep_users)
    if n < 0:
        raise ConfigError(f"user count must be >= 0, got --n {n}")
    catalog, cell, scheme = normalize(spec)
    return catalog, replace(cell, n_users=n), scheme


def cmd_optimize(args) -> int:
    spec = _apply_overrides(load_spec(args.config), args)
    catalog, cell, scheme = _resolved_cell(spec, args)
    result = joint_optimize(catalog, cell)
    _write(result.to_json() + "\n", args.output)
    sys.stderr.write(f"normalization: {scheme.to_json(indent=None)}\n")
    return 0


def cmd_sweep(args) -> int:
    spec = _apply_overrides(load_spec(args.config), args)
    result = run_sweep(spec)
    text = result.to_json() if args.format == "json" else result.to_csv()
    _write(text, args.output)
    return 0


def cmd_simulate(args) -> int:
    spec = _apply_overrides(load_spec(args.config), args)
    catalog, cell, _ = _resolved_cell(spec, args)
    variant = spec.schedulers[0]
    schedule = _variant_schedule(variant, catalog, cell)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    report = simulate_revenue(
        catalog, cell, PricePair(cell.price_unicast, price), bandwidth, schedule,
        trials=spec.trials, seed=np.random.SeedSequence([spec.seed, cell.n_users]),
    )
    _write(report.to_json() + "\n", args.output)
    return 0


def cmd_schedule(args) -> int:
    spec = _apply_overrides(load_spec(args.config), args)
    catalog, cell, _ = _resolved_cell(spec, args)
    variant = spec.schedulers[0]
    schedule = _variant_schedule(variant, catalog, cell)
    if args.catalog:
        _write(catalog_to_csv(catalog), args.output)
    else:
        _write(schedule_to_csv(schedule, catalog), args.output)
    return 0


def cmd_validate(args) -> int:
    spec = _apply_overrides(load_spec(args.config), args)
    report = run_validation(spec)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    _write(text, args.output)
    return 0 if report.all_passed else 2


# Every option a subcommand accepts is one its cmd_* function reads.
_OPTIONS = {
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--beta": dict(type=float, default=None,
                   help="override the broadcast bandwidth cap fraction"),
    "--scheduler": dict(choices=SCHEDULER_VARIANTS, default=None,
                        help="override the scheduler variant"),
    "--n": dict(type=int, default=None, help="user count (default: largest sweep point)"),
    "--trials": dict(type=int, default=None, help="override the trial count"),
    "--catalog": dict(action="store_true",
                      help="emit the catalog CSV instead of the schedule"),
}
_COMMANDS = (
    ("optimize", cmd_optimize, "joint optimum at one user count",
     ("--seed", "--beta", "--n")),
    ("sweep", cmd_sweep, "run the user-count sweep",
     ("--seed", "--beta", "--scheduler", "--trials")),
    ("simulate", cmd_simulate, "Monte Carlo revenue at one user count",
     ("--seed", "--beta", "--scheduler", "--n", "--trials")),
    ("schedule", cmd_schedule, "emit the broadcast schedule as CSV",
     ("--seed", "--scheduler", "--n", "--catalog")),
    ("validate", cmd_validate, "run the oracle battery",
     ("--seed", "--beta")),
)
# Output formats of the subcommands that offer a choice; the first is the default.
_FORMATS = {"sweep": ("csv", "json"), "validate": ("text", "json")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcastopt",
        description="Broadcast bandwidth / pricing / scheduling optimizer and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config file")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        if name in _FORMATS:
            p.add_argument("--format", choices=_FORMATS[name], default=_FORMATS[name][0])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConvergenceError, PayoffDomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
