"""Byte-for-byte output of the whole verification battery and of the
commands that print the library's families and operators.

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
    # float seed 203 failed the inverse law at level 5 under FLOAT_TOL; at the
    # dyadic value of its matrices every law holds, and the failure list is empty
    assert main(["verify", "repmat", "--seed", "203", "--backend", "float", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_repmat_seed_203_float.json").read_text()


# key order and CSV header of the table, the dual family's index order on both
# backends, and the theta == gamma branch of the Q/P suite
PRINTED = [
    ("hermite_table_lmax_3.txt", ["hermite", "--table", "--Lmax", "3"]),
    ("hermite_table_lmax_3.json", ["hermite", "--table", "--Lmax", "3", "--format", "json"]),
    ("hermite_table_lmax_3.csv", ["hermite", "--table", "--Lmax", "3", "--format", "csv"]),
    ("dual_L2_alpha_3_5.txt", ["dual", "--L", "2", "--alpha", "3/5"]),
    ("dual_L2_alpha_3_5.json", ["dual", "--L", "2", "--alpha", "3/5", "--format", "json"]),
    ("dual_L2_alpha_0.3_float.txt", ["dual", "--L", "2", "--alpha", "0.3", "--backend", "float"]),
    (
        "dual_L2_alpha_0.3_float.json",
        ["dual", "--L", "2", "--alpha", "0.3", "--backend", "float", "--format", "json"],
    ),
    (
        "verify_qp_theta_gamma_3_5_exact.json",
        ["verify", "qp", "--theta", "3/5", "--gamma", "3/5", "--format", "json"],
    ),
    (
        "verify_qp_theta_gamma_3_5_float.json",
        ["verify", "qp", "--theta", "3/5", "--gamma", "3/5", "--backend", "float", "--format", "json"],
    ),
]


@pytest.mark.parametrize("name, argv", PRINTED, ids=[p[0] for p in PRINTED])
def test_printed_output_is_byte_identical(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()
