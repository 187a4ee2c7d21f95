"""Golden outputs: the CLI prints the same bytes for the shipped configs.

Performance work must not change what ``bcastopt`` prints (acceptance
criterion 9). These digests are the SHA-256 of stdout. The ``sweep`` and
``validate`` digests were recorded before the simulator and the bound
grids were vectorized; the ``schedule`` digests were recorded before the
catalog and the schedule became plain values; the ``simulate`` and
``validate-text`` digests were recorded before the revenue bound was
rewritten on the schedule's two moments. The ``optimize`` digests were
re-recorded with that rewrite: it moved ``lower_bound`` in the last
digit (at most 1.8e-16 relative) and nothing else. The ``sweep-optimal``
digests were recorded before the price-aware scheduler took the capped
closed-form price. A change that alters the output on purpose updates
them and says why in CHANGES.md.
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
        0, "b97217e37499d206a12cf67a98af3bb828e13d2ee1e978fc1f5986daf79794b4"),
    ("single_cell", "optimize"): (
        0, "019aebdaaf81f84956ab98075f6dec9b872ed1b39bf4abc120ba57b9fd6f3cad"),
    ("seven_cell", "optimize"): (
        0, "5b37b78b5be278f900fdf3aa907ca2067291689aa9097ba7efad0a7b347a7685"),
    ("single_cell", "schedule"): (
        0, "67322de6e54108bb62d7527f8dd2431d5911c7ee51099f9a4e9770c57605f1a2"),
    ("seven_cell", "schedule"): (
        0, "67322de6e54108bb62d7527f8dd2431d5911c7ee51099f9a4e9770c57605f1a2"),
    ("single_cell", "schedule-optimal"): (
        0, "041d87a7f0c41e657695292b584dc61b58d8cbc85559ac66d84ea9a54a812e23"),
    ("seven_cell", "schedule-optimal"): (
        0, "dd73eb9d205e6cf7c6caf459cf8778ce9fc53d837783932a7e6a3138b2708969"),
    ("single_cell", "schedule-catalog"): (
        0, "2716ded3001e9370f9b2a2a77cf840b1c81ef5a912df2de58d8d5f5c0b037233"),
    ("single_cell", "sweep-optimal"): (
        0, "877398e5d00540682d2c01561447f7a40c974e96d0cc14f88d11109c8838549e"),
    ("seven_cell", "sweep-optimal"): (
        0, "3fbe7d7d03258ede101c5069d212806623aeee0a33c6dc6093715e2209df07ad"),
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
