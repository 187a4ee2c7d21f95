"""Command-line entry points.

Subcommands: optimize, sweep, simulate, schedule, validate. Each takes a
config file; see the repository README for the format. Exit code 0 on
success, 1 on a configuration error, a payoff-domain error or an
output file or stdout that cannot be written, 2 on validation failures.
A warning a command raises is one ``warning: ...`` line on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys
import warnings
from dataclasses import replace

from .errors import ConfigError, PayoffDomainError
from .optimizer import joint_optimize
from .scenario import (
    MAX_USERS,
    SCHEDULER_VARIANTS,
    csv_text,
    evaluate_point,
    load_spec,
    normalize,
    run_sweep,
    run_validation,
    variant_schedule,
)


def _open_output(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    with _unwritable(path):
        return open(path, "w")


@contextlib.contextmanager
def _unwritable(path: str | None):
    """A failed open, write or close of the output file, or write or flush
    of stdout (``path`` None), is one error line. Stdout is then pointed at
    the null device, so the exit flush of what it could not take is quiet;
    a closed pipe there is no error, and main answers it."""
    try:
        yield
    except OSError as exc:
        if path is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                raise
        target = "stdout" if path is None else f"output file {path!r}"
        raise ConfigError(f"cannot write {target}: {exc.strerror}") from exc


def _apply_overrides(spec, args):
    updates = dict(seed=args.seed, bc_cap_fraction=getattr(args, "beta", None),
                   scheduler=getattr(args, "scheduler", None),
                   trials=getattr(args, "trials", None))
    return replace(spec, **{k: v for k, v in updates.items() if v is not None})


def _resolved_cell(spec, args):
    n = args.n if args.n is not None else spec.sweep_users[-1]
    if not 0 <= n <= MAX_USERS:
        raise ConfigError(f"user count must be in [0, {MAX_USERS}], got --n {n}")
    catalog, cell, scheme = normalize(spec)
    return catalog, replace(cell, n_users=n), scheme


def cmd_optimize(spec, args) -> tuple[str, int]:
    catalog, cell, scheme = _resolved_cell(spec, args)
    result = joint_optimize(catalog, cell)
    sys.stderr.write(f"normalization: {scheme.to_json()}\n")
    return result.to_json() + "\n", 0


def cmd_sweep(spec, args) -> tuple[str, int]:
    result = run_sweep(spec)
    return (result.to_json() if args.format == "json" else result.to_csv()), 0


def cmd_simulate(spec, args) -> tuple[str, int]:
    catalog, cell, _ = _resolved_cell(spec, args)
    _, report = evaluate_point(spec, catalog, cell)
    return report.to_json() + "\n", 0


def cmd_schedule(spec, args) -> tuple[str, int]:
    catalog, cell, _ = _resolved_cell(spec, args)
    if args.catalog:  # needs no schedule, so a failing scheduler cannot block it
        rows = zip(range(1, catalog.size + 1), catalog.sizes, catalog.popularity, catalog.theta)
        return csv_text(("i", "f_i", "p_i", "theta_i"), rows), 0
    schedule = variant_schedule(spec.scheduler, catalog, cell)
    rows = ((position, i + 1, catalog.sizes[i], schedule.s[i], schedule.weights[i])
            for position, i in enumerate(schedule.order, start=1))
    return csv_text(("position", "file", "f_i", "s_i", "weight"), rows), 0


def cmd_validate(spec, args) -> tuple[str, int]:
    report = run_validation(spec)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    return text, 0 if report.all_passed else 2


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
    args = build_parser().parse_args(argv)
    if sys.platform == "linux":
        # glibc's M_TRIM_THRESHOLD (-1) at 64 MB: reuse the heap the simulator's
        # blocks free rather than fault it back in (README, "Simulator blocks").
        getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)(-1, 64 << 20)
    path = None if args.output in (None, "-") else args.output
    try:
        spec = _apply_overrides(load_spec(args.config), args)
        output = _open_output(path)
        with output as out, warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            text, code = args.func(spec, args)
            with _unwritable(path), output:  # closes a file, so a failed flush is caught
                out.write(text)
                out.flush()  # stdout too, so a full device fails here and not at exit
        return code
    except (ConfigError, PayoffDomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
