"""Byte-for-byte output of the whole verification battery.

The files under tests/data/ are the stdout of these commands as first
recorded; a refactor of the suites must reproduce them exactly.
"""

from pathlib import Path

import pytest

from bihermite.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("verify_all_manifest_exact.json", ["--seed-manifest"], 0),
    ("verify_all_manifest_float.json", ["--seed-manifest", "--backend", "float"], 0),
    ("verify_all_manifest_alpha_5_13_seed_7.json", ["--seed-manifest", "--alpha", "5/13", "--seed", "7"], 0),
    ("verify_all_manifest_alpha_20_29_seed_42.json", ["--seed-manifest", "--alpha", "20/29", "--seed", "42"], 0),
    ("verify_all_theta_0.json", ["--theta", "0", "--format", "json"], 1),
]


@pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_all_output_is_byte_identical(capsys, name, argv, code):
    assert main(["verify", "all", *argv]) == code
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_verify_repmat_failure_output_is_byte_identical(capsys):
    # float seed 203 fails the inverse law at level 5: pins the failure list
    assert main(["verify", "repmat", "--seed", "203", "--backend", "float", "--format", "json"]) == 1
    assert capsys.readouterr().out == (DATA / "verify_repmat_seed_203_float.json").read_text()
