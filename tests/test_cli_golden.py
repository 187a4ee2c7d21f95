"""Golden outputs: the CLI prints the same bytes for the shipped configs.

Performance work must not change what ``bcastopt`` prints (acceptance
criterion 9). These digests are the SHA-256 of stdout. The ``sweep`` and
``validate`` digests were recorded before the simulator and the bound
grids were vectorized; the ``optimize`` and ``schedule`` digests were
recorded before the catalog and the schedule became plain values. A
change that alters the output on purpose updates them and says why in
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
    ("single_cell", "optimize"): (
        0, "4d9fc14ca77baaa60630d2d956ad5fffea39649f7946f7bb2c90fc526c6423b0"),
    ("seven_cell", "optimize"): (
        0, "e8aa6f36353e7e88a9fcdbb2d1ff056734c3b04d6486681bac84a22b2bd572cc"),
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
}
ARGS = {
    "sweep": ["sweep", "--trials", "40"],
    "validate": ["validate", "--format", "json"],
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
