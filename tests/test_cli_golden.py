"""Golden outputs: the CLI prints the same bytes for the shipped configs.

Performance work must not change what ``bcastopt`` prints (acceptance
criterion 9). These digests are the SHA-256 of stdout recorded before the
simulator and the bound grids were vectorized. A change that alters the
output on purpose updates them and says why in CHANGES.md.
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
}
ARGS = {"sweep": ["--trials", "40"], "validate": ["--format", "json"]}


@pytest.mark.parametrize("config, command", sorted(GOLDEN))
def test_stdout_matches_recorded_digest(capsys, config, command):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, str(CONFIG_DIR / f"{config}.cfg"), *ARGS[command]])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[config, command]
