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
validity region) instead of the unfloored closed-form price. A change
that alters the output on purpose updates them and says why in
CHANGES.md.
"""
import hashlib
import warnings

import pytest

from bcastopt.cli import main

from conftest import CONFIG_DIR

GOLDEN = {
    ("single_cell", "sweep"): (
        0, "e355398263db81c86bc399787c07d645ab154228ef0274a75bba03ebc8fc7be5"),
    ("single_cell", "validate"): (
        2, "683bcc29f0c9eb95f2316a6da9d6ca1dd24d74e19931e77ea1e3fb7d922c07e6"),
    ("seven_cell", "sweep"): (
        0, "16f68fa1cfc7dd6750a1a0b64ea7baab3e86073c4727c2b3b1348a58d6c76edd"),
    ("seven_cell", "validate"): (
        0, "96b4b025e370d26773e3172917d9b87b1662f304e792e859d5045e14f153afbd"),
    ("single_cell", "validate-text"): (
        2, "893a186daaf25e5c552827b521dd01053ca1894da71ee79b16c172871054a428"),
    ("seven_cell", "validate-text"): (
        0, "3edbc8fcaa31f33fcf105f6564921cc3503bfb53ca2e5f612f472ad0af6e7cdf"),
    ("single_cell", "simulate"): (
        0, "2caff7aa4dca246a72b8061e8929cf356a9e3af466bb590e6d1e0ccd3e81fc1b"),
    ("seven_cell", "simulate"): (
        0, "0e1382b61c3825054ff493823fdd04b0c73f03ebc07ef824419bbf1d1ef3ddb0"),
    ("single_cell", "optimize"): (
        0, "019aebdaaf81f84956ab98075f6dec9b872ed1b39bf4abc120ba57b9fd6f3cad"),
    ("seven_cell", "optimize"): (
        0, "5b37b78b5be278f900fdf3aa907ca2067291689aa9097ba7efad0a7b347a7685"),
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
        0, "1072050554b0f725c831970117d69460269615769e95ef4a65f2d5aed7009ce1"),
    ("seven_cell", "sweep-optimal"): (
        0, "3368e458e0b2b30aae5ae0c148edb45085e70a0139347eee6d1752940444049e"),
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
