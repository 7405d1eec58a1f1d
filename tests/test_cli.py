import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bihermite import cli, deform
from bihermite.cli import main
from bihermite.coeffs import FLOAT_TOL, Coeff
from bihermite.deform import GL2
from bihermite.poly import BiPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hermite_pretty(capsys):
    code, out, _ = run(capsys, "hermite", "2", "1")
    assert code == 0
    assert "z^2 z~ - 2 z" in out
    assert "sqrt(2)" in out


def test_hermite_json_round_trip(capsys):
    code, out, _ = run(capsys, "hermite", "2", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    poly = BiPoly.from_json_dict(obj)
    assert poly == BiPoly({(2, 1): Coeff(1), (1, 0): Coeff(-2)})
    assert obj["normalizer_sq"] == 2


def test_hermite_json_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "hermite", "3", "2", "--format", "json")
    _, out2, _ = run(capsys, "hermite", "3", "2", "--format", "json")
    assert out1 == out2


def test_hermite_table_csv(capsys):
    code, out, _ = run(capsys, "hermite", "--table", "--Lmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,z,zbar,re,im"
    assert "1,1,1,1,1,0" in lines  # the z zbar term of H[1,1]


def test_real_hermite(capsys):
    code, out, _ = run(capsys, "real-hermite", "3")
    assert code == 0 and "8 x1^3 - 12 x1" in out


def test_deform_alpha(capsys):
    code, out, _ = run(capsys, "deform", "1", "0", "--alpha", "3/5")
    assert code == 0 and "3/5 z - 4/5i z~" in out


def test_deform_diagonal_scaling(capsys):
    code, out, _ = run(capsys, "deform", "1", "1", "--g", "2", "0", "0", "3")
    assert code == 0 and "6 z z~ - 6" in out


def test_deform_identity(capsys):
    code, out, _ = run(capsys, "deform", "2", "2", "--g", "1", "0", "0", "1", "--format", "json")
    from bihermite.hermite import hermite_sum

    assert code == 0
    assert BiPoly.from_json_dict(json.loads(out)) == hermite_sum(2, 2)


def test_deform_singular_matrix_fails(capsys):
    code, _, err = run(capsys, "deform", "1", "0", "--g", "1", "2", "2", "4")
    assert code == 2 and "singular" in err


def test_deform_decimal_rejected_in_exact_mode(capsys):
    # exact mode reads every number flag as a p/q rational
    for argv in [
        ("deform", "1", "0", "--g", "0.5", "0", "0", "1"),
        ("deform", "1", "0", "--g", "1e-3", "0", "0", "1"),
        ("deform", "1", "0", "--alpha", "0.6"),
        ("verify", "qp", "--theta", "0.6"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and "float" in err, argv


def test_repmat_identity(capsys):
    code, out, _ = run(capsys, "repmat", "--L", "2", "--g", "1", "0", "0", "1", "--format", "json")
    obj = json.loads(out)
    assert obj["L"] == 2
    assert obj["rows"][0][0]["re"] == "1" and obj["rows"][0][1]["re"] == "0"


def test_repmat_diagonal(capsys):
    code, out, _ = run(capsys, "repmat", "--L", "2", "--g", "2", "0", "0", "3")
    rows = out.strip().splitlines()
    assert rows == ["[9, 0, 0]", "[0, 6, 0]", "[0, 0, 4]"]


def test_repmat_alpha_level_one(capsys):
    code, out, _ = run(capsys, "repmat", "--L", "1", "--alpha", "3/5")
    rows = out.strip().splitlines()
    assert rows == ["[3/5, -4/5i]", "[4/5i, 3/5]"]


def test_dual_family_command(capsys):
    code, out, _ = run(capsys, "dual", "--L", "1", "--alpha", "3/5", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["dual_matrix_consistent"] is True


def test_dual_family_command_float_routes_agree_to_rounding(capsys):
    argv = ["dual", "--L", "3", "--alpha", "0.3", "--backend", "float", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["dual_matrix_consistent"] is True


def test_genfun_complex(capsys):
    code, out, _ = run(capsys, "genfun", "complex", "--order", "2", "--format", "json")
    obj = json.loads(out)
    by_key = {(e["u"], e["ubar"]): BiPoly.from_json_dict(e) for e in obj["coefficients"]}
    assert by_key[(1, 1)] == BiPoly.z() * BiPoly.zbar() - BiPoly.one()


def test_genfun_real(capsys):
    code, out, _ = run(capsys, "genfun", "real", "--order", "2", "--format", "json")
    obj = json.loads(out)
    from bihermite.poly import RealPoly

    by_key = {(e["u"], e["ubar"]): RealPoly.from_json_dict(e) for e in obj["coefficients"]}
    assert by_key[(1, 0)] == 2 * RealPoly.x1()


def test_genfun_deformed_requires_matrix(capsys):
    code, _, err = run(capsys, "genfun", "deformed", "--order", "2")
    assert code == 2 and "--alpha or --g" in err


def test_csv_limited_to_coefficient_tables(capsys):
    for argv in (
        ("genfun", "complex"),
        ("dual", "--L", "2", "--alpha", "3/5"),
        ("lie-report", "--alpha", "3/5"),
        ("verify", "orthonormal", "--Lmax", "2"),
        ("verify", "all"),
    ):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (2, "") and "csv output is limited to coefficient tables" in err, argv


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "orthonormal", "--Lmax", "4")
    assert code == 0 and "PASS" in out


def test_verify_eigen_fails_with_one_failing_case(monkeypatch, capsys):
    walk = deform._level_walk

    def broken(g, radical):
        # the triangular case's level-2 matrix with its trace moved by 1, in
        # a copy of the walk's columns
        for L, columns in enumerate(walk(g, radical)):
            if (g, L) == (GL2(2, 1, 0, 3), 2):
                columns = [tuple(list(m) for m in c) for c in columns]
                columns[0][0][0] += 1
            yield columns

    monkeypatch.setattr(deform, "_level_walk", broken)
    code, out, _ = run(capsys, "verify", "eigen", "--Lmax", "2", "--format", "json")
    obj = json.loads(out)
    assert code == 1 and obj["summary"] == "eigenvalue structure: fail"
    assert [c for c in obj["cases"] if c["status"] != "pass"] == [
        {"case": "triangular", "L": 2, "status": "fail"}
    ]


def test_verify_eigen_reports_a_declined_case_as_an_error_at_each_level(monkeypatch, capsys):
    # a double eigenvalue on the float backend: the check declines for all levels
    monkeypatch.setattr(cli, "_EIGEN_CASES", (("defective", GL2(2, 1, -1, 4)),))
    code, out, _ = run(capsys, "verify", "eigen", "--Lmax", "1", "--backend", "float", "--format", "json")
    assert code == 1 and [c["status"] for c in json.loads(out)["cases"]] == ["error", "error"]


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "biorth", "--alpha", "3/5", "--Lmax", "2", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["status"] == "pass" and obj["violations"] == []
    assert obj["Lmax"] == 2


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_lie_float_theta_one(capsys):
    code, out, _ = run(capsys, "verify", "lie", "--alpha", "1/sqrt2", "--backend", "float")
    assert code == 0 and "heisenberg_plus_u1" in out


def test_verify_alpha_sqrt2_rejected_in_exact_mode(capsys):
    code, _, err = run(capsys, "verify", "lie", "--alpha", "1/sqrt2")
    assert code == 2 and "float" in err


def test_float_backend_does_not_change_pass_fail(capsys):
    code_exact, _, _ = run(capsys, "verify", "biorth", "--alpha", "3/5", "--Lmax", "2")
    code_float, _, _ = run(
        capsys, "verify", "biorth", "--alpha", "3/5", "--Lmax", "2", "--backend", "float"
    )
    assert code_exact == code_float == 0


def test_float_backend_whole_battery(capsys):
    # the repmat laws at level 5 have matrix entries around 1e3, which is
    # exactly where an absolute float tolerance would give a false failure
    code, out, _ = run(capsys, "verify", "all", "--backend", "float")
    assert code == 0 and "FAIL" not in out


def test_verify_qp(capsys):
    code, out, _ = run(capsys, "verify", "qp", "--theta", "3/5", "--gamma", "16/15")
    assert code == 0


def test_seed_manifest_single_document(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed-manifest")
    obj = json.loads(out)
    assert code == 0 and obj["status"] == "pass"
    assert set(obj["battery"]) == {
        "orthonormal",
        "biorth",
        "repmat",
        "eigen",
        "intertwine",
        "ncqm",
        "qp",
        "lie",
    }


def test_lie_report_command(capsys):
    code, out, _ = run(capsys, "lie-report", "--alpha", "3/5", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["class"] == "su2_plus_u1"
    code, out, _ = run(capsys, "lie-report", "--alpha", "3/5", "--basis", "Z")
    assert code == 0 and "class su2_plus_u1" in out


def test_lie_report_undeformed(capsys):
    code, out, _ = run(capsys, "lie-report", "--basis", "J", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["class"] == "su2_plus_u1"
    assert obj["basis"] == ["J1", "J2", "J3", "J4"]


def test_verify_negative_lmax_is_an_error(capsys):
    code, out, _ = run(capsys, "verify", "all", "--Lmax", "-1", "--format", "json")
    obj = json.loads(out)
    assert code == 1
    for suite in ("orthonormal", "biorth", "repmat", "eigen", "intertwine"):
        assert obj[suite]["status"] == "error", suite
    code, _, err = run(capsys, "verify", "repmat", "--Lmax", "-1")
    assert code == 2 and "Lmax" in err


@pytest.mark.parametrize("suite", ["ncqm", "qp", "lie"])
def test_verify_suite_without_levels_rejects_lmax(capsys, suite):
    # these suites have no levels, and a given --Lmax was silently ignored
    code, out, err = run(capsys, "verify", suite, "--Lmax", "3")
    assert (code, out) == (2, "") and f"verify {suite} takes no --Lmax" in err


def test_verify_all_applies_lmax_to_the_level_suites(capsys):
    code, out, _ = run(capsys, "verify", "all", "--Lmax", "3", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and all(rep["status"] == "pass" for rep in obj.values())
    for suite in ("orthonormal", "biorth", "repmat", "intertwine"):
        assert obj[suite]["Lmax"] == 3, suite
    assert max(case["L"] for case in obj["eigen"]["cases"]) == 3


@pytest.mark.parametrize(
    "argv",
    [("hermite", "--table", "--Lmax", "14"), ("verify", "ncqm", "--format", "json")],
    ids=["table", "verify"],
)
def test_closed_output_pipe_exits_141_without_traceback(argv):
    # the read end is closed before the command starts, so its first write,
    # or the flush of a short output, meets a broken pipe, as under `| head`
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bihermite.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_verify_theta_zero_keeps_the_battery(capsys):
    code, out, _ = run(capsys, "verify", "all", "--theta", "0", "--format", "json")
    obj = json.loads(out)
    assert code == 1 and obj["qp"]["status"] == "error" and "theta" in obj["qp"]["summary"]
    assert all(rep["status"] == "pass" for name, rep in obj.items() if name != "qp")
    code, _, err = run(capsys, "verify", "qp", "--theta", "0", "--backend", "float")
    assert code == 2 and "theta" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "gamma, message", [("2", "gamma = 1/theta is excluded"), ("3", "must be nonnegative")]
)
def test_verify_qp_validates_kappa_alike_on_both_backends(capsys, backend, gamma, message):
    # kappa = 1 - gamma*theta at theta = 1/2: zero, then negative
    code, out, err = run(capsys, "verify", "qp", "--theta", "1/2", "--gamma", gamma, "--backend", backend)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("genfun", "deformed", "--alpha", "0.6", "--order", "4", "--format", "json"),
        ("dual", "--L", "3", "--alpha", "0.3", "--format", "json"),
        ("deform", "2", "1", "--alpha", "0.6", "--format", "csv"),
    ],
    ids=["genfun", "dual", "deform-csv"],
)
def test_float_json_has_no_signed_zero(capsys, argv):
    code, out, _ = run(capsys, *argv, "--backend", "float")
    assert code == 0 and (argv[-1] == "csv" or json.loads(out))
    assert not re.search(r"-0\.0\b", out)  # a negative zero, not -0.05


def test_parameter_must_be_real(capsys):
    code, _, err = run(capsys, "deform", "1", "0", "--alpha", "3/5i")
    assert code == 2 and "not a real number" in err


def test_float_parameter_beyond_float_range_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "qp", "--theta", "1e400", "--backend", "float")
    assert code == 2 and "beyond float range" in err
    code, out, _ = run(capsys, "verify", "all", "--alpha", "1e400", "--backend", "float", "--format", "json")
    obj = json.loads(out)
    assert code == 1 and obj["lie"]["status"] == "error" and obj["orthonormal"]["status"] == "pass"


@pytest.mark.parametrize(
    "g, message",
    [pytest.param(("nan", "0", "0", "1"), "not a finite number", id="nan-not a finite number"),
     pytest.param(("inf", "0", "0", "1"), "not a finite number", id="inf-not a finite number"),
     pytest.param(("1e400", "0", "0", "1"), "beyond float range", id="1e400-beyond float range"),
     pytest.param(("1e308+1e308", "0", "0", "1"), "beyond float range",
                  id="1e308+1e308-beyond float range"),
     # singular, but its determinant inf - inf is nan
     pytest.param(("1e308",) * 4, "not a finite number", id="1e308 singular-not a finite number")],
)
def test_nonfinite_float_matrix_entry_is_an_input_error(capsys, g, message):
    code, out, err = run(capsys, "deform", "1", "0", "--g", *g, "--backend", "float")
    assert code == 2 and out == "" and message in err
    argv = ("repmat", "--L", "2", "--g", *g, "--backend", "float", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("fmt", ["json", "pretty", "csv"])
@pytest.mark.parametrize(
    "argv",
    [("repmat", "--L", "2", "--g", "1", "1e308", "0", "1"),
     ("dual", "--L", "2", "--g", "1", "1e308", "0", "1"),
     ("deform", "2", "0", "--g", "1e200", "0", "0", "1"),
     ("genfun", "deformed", "--order", "2", "--g", "1e200", "0", "0", "1")],
    ids=["repmat", "dual", "deform", "genfun"],
)  # fmt: skip
def test_nonfinite_float_result_is_an_input_error(capsys, argv, fmt):
    # finite entries whose products overflow: inf, and nan from inf - inf
    code, out, err = run(capsys, *argv, "--backend", "float", "--format", fmt)
    assert code == 2 and out == "" and "float result is not a finite number" in err


def test_float_determinant_underflow_is_an_input_error(capsys):
    g = ("1e-200", "0", "0", "1e-200")
    code, out, err = run(capsys, "deform", "1", "0", "--g", *g, "--backend", "float")
    assert code == 2 and out == "" and "float determinant underflows to zero" in err
    assert "singular" not in err


@pytest.mark.parametrize(
    "argv, name",
    [(("genfun", "complex", "--order", "-1"), "order"),
     (("genfun", "real", "--order", "-1"), "order"),
     (("hermite", "--table", "--Lmax", "-1"), "Lmax")],
)
def test_negative_size_in_an_output_command_is_an_input_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and name in err


def test_alpha_and_g_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deform", "2", "3", "--alpha", "3/5", "--g", "1", "0", "0", "1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_verify_eigen_runs_on_the_requested_backend(capsys, monkeypatch, backend):
    seen = []
    check = cli.eigenvalue_structure_check

    def recording(g, Lmax, *args, **kwargs):
        rep = check(g, Lmax, *args, **kwargs)
        seen.append((g.is_exact(), rep.payload["mode"], rep.payload.get("tolerance")))
        return rep

    monkeypatch.setattr(cli, "eigenvalue_structure_check", recording)
    code, _, _ = run(capsys, "verify", "eigen", "--backend", backend, "--Lmax", "8")
    assert code == 0 and len(seen) == 3
    if backend == "float":
        assert all(not exact and mode == "float" and tol == FLOAT_TOL for exact, mode, tol in seen)
    else:
        assert all(exact for exact, _, _ in seen)
        assert {mode for _, mode, _ in seen} == {"exact-power-sums"}
        assert all(tol is None for _, _, tol in seen)


def _parse(parser, argv):
    """What parse_args prints, the exit status it ends with (None when it
    returns) and the namespace it returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, out.getvalue(), err.getvalue(), vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None


PARSE_CASES = [
    ["-h"],
    [],
    ["--bogus"],
    ["--format", "xml"],
    ["1", "2", "3"],
    ["2", "--table", "--Lmax", "x"],
    ["--L", "2", "--alpha", "3/5", "--g", "1", "0", "0", "1"],
    ["--L", "2", "--format", "csv", "--backend", "float"],
    ["deformed", "--order", "3", "--g", "1", "0", "0", "1"],
    ["nope"],
    ["all", "--Lmax", "2", "--seed-manifest"],
    ["lie", "--theta", "1/2", "--seed"],
    ["--basis", "Q"],
    ["--alpha", "3/5", "--basis", "Z", "extra"],
]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_subparser_parses_like_the_full_parser(command):
    full, one = cli.build_parser(), cli.build_parser(command)
    other = next(name for name in cli.COMMANDS if name != command)
    assert f"(choose from '{command}')" in _parse(one, [other])[2]
    for rest in PARSE_CASES:
        argv = [command, *rest]
        assert _parse(one, argv) == _parse(full, argv), argv


@pytest.mark.parametrize("argv", [["-h"], [], ["nope"], ["--format", "json", "verify", "qp"]])
def test_without_a_leading_command_every_subparser_is_built(capsys, argv):
    expected = _parse(cli.build_parser(), argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == expected[:3]


def test_main_builds_the_named_command_only(monkeypatch, capsys):
    build = cli.build_parser
    built = []

    def recording(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["verify", "ncqm", "--format", "json"]) == 0
    assert built == ["verify"] and json.loads(capsys.readouterr().out)["status"] == "pass"
