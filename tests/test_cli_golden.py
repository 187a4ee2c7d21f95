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
result; every other line is unchanged.

The two ``simulate`` digests were re-recorded again when ``simulate``
began to evaluate its point through the sweep's own evaluator, with the
sweep's seed derivation ``SeedSequence([seed, round(gamma * 1e6), M,
N])`` instead of ``SeedSequence([seed, N])``: its report now equals the
sweep row's at the same N. ``seed`` became ``[99251, 1000000, 2000,
100]``, and the draws changed, so the simulated means, standard errors
and fractions moved within their sampling error (``revenue_mean`` by
z = 1.35 single-cell and 1.39 seven-cell). The other 15 digests did not
move.

The four ``validate`` and ``validate-text`` digests were re-recorded when
check 4 began to compare the bound with E[R] as the exact E[Y] plus a
residual sampled only from the users who can still be granted unicast
(``payoff.expected_revenue``), instead of a full simulation, and check 5
became the exact per-class check ``payoff.payoff_guarantee_gaps`` instead
of a count of simulated violations. Only those two lines moved; the exit
codes and the other 13 digests did not. A change that alters the output
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
        2, "a65976e33f4b55f503db3a9420358c745954e6552280a67ff659af2cffbc01cc"),
    ("seven_cell", "sweep"): (
        0, "444563a998e0e8447d4aec4725b82dc40c0f3cc7024c5140ad7a6f0fa49ff7d3"),
    ("seven_cell", "validate"): (
        0, "a68e7ec3bf3b6ed78fbdfdc399379847fc8a1146a053e761f24b186ba88ccf03"),
    ("single_cell", "validate-text"): (
        2, "b04b46db564d6e1632f456e8836615767f85a6a833f09d597fba1f6553a8811f"),
    ("seven_cell", "validate-text"): (
        0, "3269e859a74dd446f979a66e36e3e2f96548368b77d1a6204f6c6613796ff675"),
    ("single_cell", "simulate"): (
        0, "fa3c965cddf63561630ac9d4f6853f0a3aa23430ba3a999e8be2a811399e1269"),
    ("seven_cell", "simulate"): (
        0, "2a7fd6c9b240fbf5686fbd7350d94a3ddedd5aded0b2d81d6efa1329138305f0"),
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
