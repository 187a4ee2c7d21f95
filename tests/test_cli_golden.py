"""Golden outputs: the CLI prints the same bytes for the shipped configs.

Performance work must not change what ``bcastopt`` prints (acceptance
criterion 9). These digests are the SHA-256 of stdout. The ``sweep`` and
``validate`` digests were recorded before the simulator and the bound
grids were vectorized; the ``schedule`` digests were recorded before the
catalog and the schedule became plain values; the ``validate-text`` and
single-cell ``simulate`` digests were recorded before the revenue bound
was rewritten on the schedule's two moments. The ``optimize`` digests
were re-recorded with that rewrite: it moved ``lower_bound`` in the last
digit (at most 1.8e-16 relative) and nothing else.

The seven-cell ``simulate`` digest was re-recorded when the simulator's
per-trial sums became masked row sums over all N users:
``revenue_stderr`` moved by 2.2e-16 relative and nothing else. The
``schedule-optimal`` and ``sweep-optimal`` digests of both configs were
re-recorded when the price-aware scheduler began to weigh each order at
the operating-point price (the closed-form price floored to the bound's
validity region) instead of the unfloored closed-form price.

The ten digests that print Monte Carlo numbers (``sweep``,
``sweep-optimal``, ``simulate``, ``validate`` and ``validate-text`` on
both configs) were re-recorded when the simulator began to draw every
trial of a call from one ``default_rng(seed)`` stream, in trial order,
instead of from one spawned ``SeedSequence`` child per trial. The draws
changed, so the simulated means, standard errors and fractions moved
within their sampling error. ``unrequested_scheduled_mean`` became the
exact expectation sum_i (1 - p_i)^N. The ``optimize`` and ``schedule``
digests did not move.

The two ``simulate`` digests were re-recorded when the report began to
name its stream: ``seed`` changed from ``null`` to the entropy
``[99251, 100]`` of the ``SeedSequence([seed, N])`` that ``simulate``
builds, and nothing else moved. The two ``optimize`` digests were
re-recorded when the always-true ``converged`` key was dropped from the
result; every other line is unchanged. A change that alters the output
on purpose updates them and says why in CHANGES.md.
"""
import hashlib
import warnings

import pytest

from bcastopt.cli import main

from conftest import CONFIG_DIR

GOLDEN = {
    ("single_cell", "sweep"): (
        0, "6eeeb1fa3820750872255c567c43da511b59cc109ad0876ec4fbbdc8a102dc6a"),
    ("single_cell", "validate"): (
        2, "4e66850659e378e00a6248a279e5d71fbfc3af9f0e76be8cdc857ce9da046150"),
    ("seven_cell", "sweep"): (
        0, "444563a998e0e8447d4aec4725b82dc40c0f3cc7024c5140ad7a6f0fa49ff7d3"),
    ("seven_cell", "validate"): (
        0, "0c17693b524e6039fe3d5d46c1873c4352749d2bf98e5d0b2b3bc78fbd16c20a"),
    ("single_cell", "validate-text"): (
        2, "20832737936da36d98a0ead5d5b6a712c91ab222aa1584c1320d69dcc53d3da8"),
    ("seven_cell", "validate-text"): (
        0, "584abf72b2d8f5402cd2b743228c23badc95a99959e1a3ffee59b2a72809a469"),
    ("single_cell", "simulate"): (
        0, "6043098007b2965ca36f52441db9a222fa7868e94bde41cee3c523105b5ad511"),
    ("seven_cell", "simulate"): (
        0, "6db8eb45d9ca2aeb9869658f628b53845e945e6827630e3405b1b992961c8635"),
    ("single_cell", "optimize"): (
        0, "beddecb9a0778d26de0326b2305e5fdbac8358c0d13105e6c86f4befd8f6a90b"),
    ("seven_cell", "optimize"): (
        0, "f533550f79c9684d6606f578fd1ed2461cb4245c1849d71398a1266951e7fd6f"),
    ("single_cell", "schedule"): (
        0, "67322de6e54108bb62d7527f8dd2431d5911c7ee51099f9a4e9770c57605f1a2"),
    ("seven_cell", "schedule"): (
        0, "67322de6e54108bb62d7527f8dd2431d5911c7ee51099f9a4e9770c57605f1a2"),
    ("single_cell", "schedule-optimal"): (
        0, "78bf586e98406cf53bd5e9bcb75c9df0494d3e0772e1b6969f17175b7df58455"),
    ("seven_cell", "schedule-optimal"): (
        0, "78bf586e98406cf53bd5e9bcb75c9df0494d3e0772e1b6969f17175b7df58455"),
    ("single_cell", "schedule-catalog"): (
        0, "2716ded3001e9370f9b2a2a77cf840b1c81ef5a912df2de58d8d5f5c0b037233"),
    ("single_cell", "sweep-optimal"): (
        0, "fe3190a62c8efe3f98056a443c45950577f0618cfa7ab7b8bb563a60c9268342"),
    ("seven_cell", "sweep-optimal"): (
        0, "58ebfb53945ba0cef171ec5086f5e7eac1bf5c5e3700d5f8f571df7668ccdf7e"),
}
ARGS = {
    "sweep": ["sweep", "--trials", "40"],
    "sweep-optimal": ["sweep", "--scheduler", "optimal", "--trials", "20"],
    "validate": ["validate", "--format", "json"],
    "validate-text": ["validate"],
    "simulate": ["simulate", "--n", "100", "--trials", "200"],
    "optimize": ["optimize"],
    "schedule": ["schedule"],
    "schedule-optimal": ["schedule", "--scheduler", "optimal"],
    "schedule-catalog": ["schedule", "--catalog"],
}


@pytest.mark.parametrize("config, case", sorted(GOLDEN))
def test_stdout_matches_recorded_digest(capsys, config, case):
    command, *options = ARGS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, str(CONFIG_DIR / f"{config}.cfg"), *options])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[config, case]
