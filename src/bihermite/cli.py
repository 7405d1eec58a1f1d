"""Command-line surface: print polynomials, matrices and series, and run the
verification suites with a pass/fail exit code.

Exact mode takes rational input only ("3/5", "-4/5i", "1/2+1/3i"); decimals
need --backend float.  --format json is the machine format; csv is limited
to coefficient tables; pretty writes z and z~ for the conjugate pair.
Verification subcommands exit 0 exactly when every assertion passed.
Input errors exit 2, and a reader that closes the output early (`| head`)
ends the command with exit status 141, 128 plus SIGPIPE, and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .coeffs import Coeff, parse_coeff
from .deform import (
    GL2,
    AlphaPoint,
    alpha_matrix,
    biorthogonality_check,
    deformed_generating_series,
    deformed_hermite,
    dual_family,
    eigenvalue_structure_check,
    intertwine_check,
    rep_laws_check,
    rep_matrix,
)
from .hermite import (
    _check_lmax,
    generating_series_complex,
    generating_series_real,
    hermite_sum,
    normalizer_sq,
    orthonormality_check,
    real_hermite,
)
from .lie import (
    basis_change,
    bilinear_generators,
    classify,
    lie_report,
    rescale,
    structure_constants,
)
from .ncqm import ncqm_commutator_suite, qp_representation_suite
from .report import Report, Tally


def parse_number(text: str, exact: bool) -> Fraction | float:
    """A real number in parse_coeff's grammar: a Fraction ("3/5"), or a float
    ("0.6", "1e-3") on the float backend."""
    value = parse_coeff(text, exact)
    if not value.is_real():
        raise ValueError(f"{text!r} is not a real number")
    return value.re


def parse_alpha(text: str, exact: bool) -> AlphaPoint:
    if text.strip() in ("1/sqrt2", "sqrt(1/2)"):
        if exact:
            raise ValueError("alpha = 1/sqrt2 is irrational; pass --backend float")
        return AlphaPoint.make(0.5**0.5)
    return AlphaPoint.make(parse_number(text, exact))


def parse_gl2(args) -> GL2:
    if args.alpha is not None:
        return alpha_matrix(parse_alpha(args.alpha, args.exact))
    if args.g is not None:
        return GL2(*(parse_coeff(tok, args.exact) for tok in args.g))
    raise ValueError("pass either --alpha or --g g11 g12 g21 g22")


def emit(obj, fmt: str, pretty_text: str, csv_rows=None):
    """Print obj as JSON, csv_rows as CSV or pretty_text.  A float result
    that is not finite has no JSON form, and on every format it raises
    before anything prints."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("a float result is not a finite number") from None
    if fmt == "json":
        print(text)
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("csv output is limited to coefficient tables")
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        print(pretty_text)


def _csv_rows(p) -> list:
    """Coefficient table of a polynomial: its exponent columns, then re and im."""
    return [(*p.KEYS, "re", "im")] + [(*key, str(c.re), str(c.im)) for key, c in p.sorted_terms()]


def _hermite_entry(m: int, n: int):
    """H[m,n] with its record and its pretty line."""
    h = hermite_sum(m, n)
    record = {"m": m, "n": n, "normalizer_sq": normalizer_sq(m, n), **h.to_json_dict()}
    return h, record, f"H[{m},{n}] = {h.pretty()}   (normalizer sqrt({normalizer_sq(m, n)}))"


def cmd_hermite(args) -> int:
    if not args.table:
        h, record, line = _hermite_entry(args.m, args.n)
        emit(record, args.format, line, csv_rows=_csv_rows(h))
        return 0
    _check_lmax(args.Lmax)
    records, lines, rows = [], [], [("m", "n", "z", "zbar", "re", "im")]
    # ordered by total degree, then by m
    for total in range(args.Lmax + 1):
        for m in range(total + 1):
            h, record, line = _hermite_entry(m, total - m)
            records.append(record)
            lines.append(line)
            rows += [(m, total - m, *row) for row in _csv_rows(h)[1:]]
    emit(records, args.format, "\n".join(lines), csv_rows=rows)
    return 0


def cmd_real_hermite(args) -> int:
    h = real_hermite(args.n)
    payload = {"n": args.n, **h.to_json_dict()}
    emit(payload, args.format, f"H_{args.n} = {h.pretty()}", csv_rows=_csv_rows(h))
    return 0


def cmd_deform(args) -> int:
    g = parse_gl2(args)
    m, n = args.m, args.n
    h = deformed_hermite(g, m, n)
    payload = {"m": m, "n": n, "normalizer_sq": normalizer_sq(m, n), **h.to_json_dict()}
    emit(payload, args.format, f"Hg[{m},{n}] = {h.pretty()}", csv_rows=_csv_rows(h))
    return 0


def cmd_repmat(args) -> int:
    g = parse_gl2(args)
    M = rep_matrix(g, args.L)
    pretty = "\n".join("[" + ", ".join(str(c) for c in row) + "]" for row in M.entries)
    emit(M.to_json(), args.format, pretty)
    return 0


def cmd_dual(args) -> int:
    g = parse_gl2(args)
    fam = dual_family(g, args.L)
    payload = {
        "L": args.L,
        "dual_matrix_consistent": fam.consistent,
        "g_dual": [c.to_json_value() for c in fam.g_dual.entries()],
        "polys": [{"m": args.L - j, "n": j, **p.to_json_dict()} for j, p in enumerate(fam.polys)],
        "matrix": fam.matrix_direct.to_json(),
    }
    pretty_lines = [f"dual family at level {args.L} (matrix routes consistent: {fam.consistent})"]
    pretty_lines += [f"Hdual[{args.L - j},{j}] = {p.pretty()}" for j, p in enumerate(fam.polys)]
    emit(payload, args.format, "\n".join(pretty_lines))
    return 0


def cmd_genfun(args) -> int:
    N = args.order
    if args.kind == "complex":
        series = generating_series_complex(N)
    elif args.kind == "real":
        series = generating_series_real(N)
    else:
        series = deformed_generating_series(parse_gl2(args), N)
    pretty_lines = [f"{args.kind} generating series, total order <= {N}"]
    pretty_lines += [f"u^{j} ubar^{k}: {poly.pretty()}" for (j, k), poly in series.sorted_terms()]
    payload = {"order": N, "kind": args.kind, "coefficients": series.to_json_dict()["terms"]}
    emit(payload, args.format, "\n".join(pretty_lines))
    return 0


def _random_rational_gl2(rng: random.Random, exact: bool) -> GL2:
    while True:
        entries = [
            Coeff(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(4)
        ]
        if not exact:
            entries = [c.to_float() for c in entries]
        try:
            return GL2(*entries)
        except ValueError:
            continue


def _on_backend(g: GL2, args) -> GL2:
    """g, or its float copy on the float backend."""
    return g if args.exact else GL2(*(c.to_float() for c in g.entries()))


def _verify_repmat(args) -> Report:
    rng = random.Random(args.seed)
    g = _random_rational_gl2(rng, args.exact)
    h = _random_rational_gl2(rng, args.exact)
    rep = rep_laws_check(g, h, args.Lmax)
    rep.payload = {"Lmax": args.Lmax, "seed": args.seed, **rep.payload}
    return rep


# the three matrices of `verify eigen`, built once
_EIGEN_CASES = (
    ("diagonal", GL2.diagonal(2, 3)),
    ("triangular", GL2(2, 1, 0, 3)),
    ("generic", GL2(Coeff(1, 2), Coeff(Fraction(3, 7)), Coeff(Fraction(-1, 3)), Coeff(2, -1))),
)


def _verify_eigen(args) -> Report:
    t = Tally()
    sub = []
    for name, g in _EIGEN_CASES:
        rep = eigenvalue_structure_check(_on_backend(g, args), args.Lmax)
        failed = {f["L"] for f in rep.payload.get("failures", ())}
        for L in range(args.Lmax + 1):
            status = "error" if rep.status == "error" else "fail" if L in failed else "pass"
            sub.append({"case": name, "L": L, "status": status})
            t.check(status == "pass", sub[-1])
    return t.report("eigenvalue structure", {"cases": sub})


def _verify_qp(args) -> Report:
    return qp_representation_suite(*(parse_number(x, args.exact) for x in (args.theta, args.gamma)))


def _point(args) -> AlphaPoint:
    return parse_alpha("3/5" if args.alpha is None else args.alpha, args.exact)


def _matrix(args) -> GL2:
    return alpha_matrix(_point(args))


# suite name -> (default --Lmax, runner(args)), in `verify all` order.
# Runners call the library through module globals, so whatever rebinds
# those (a tracer, a test) sees every call.
VERIFY_SUITES = {
    "orthonormal": (6, lambda a: orthonormality_check(a.Lmax)),
    "biorth": (4, lambda a: biorthogonality_check(_matrix(a), a.Lmax)),
    "repmat": (5, _verify_repmat),
    "eigen": (4, _verify_eigen),
    "intertwine": (5, lambda a: intertwine_check(_matrix(a), a.Lmax)),
    "ncqm": (None, lambda a: ncqm_commutator_suite(_point(a))),
    "qp": (None, _verify_qp),
    "lie": (None, lambda a: lie_report(_point(a))),
}


def run_suite(name: str, args) -> Report:
    if name not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return VERIFY_SUITES[name][1](args)


def cmd_verify(args) -> int:
    run_all = args.suite == "all"
    names = list(VERIFY_SUITES) if run_all else [args.suite]
    if not run_all and args.Lmax is not None and VERIFY_SUITES[args.suite][0] is None:
        raise ValueError(f"verify {args.suite} takes no --Lmax")
    reports = {}
    for name in names:
        ns = argparse.Namespace(**vars(args))
        if ns.Lmax is None:
            ns.Lmax = VERIFY_SUITES[name][0]
        try:
            reports[name] = run_suite(name, ns)
        except (ValueError, ZeroDivisionError) as exc:
            if not run_all:
                raise
            # one broken suite must not mask the others in the battery
            reports[name] = Report("error", f"{name}: {exc}")
    all_ok = all(r.ok for r in reports.values())
    if args.seed_manifest:
        doc = {
            "battery": {name: reports[name].to_json() for name in names},
            "backend": args.backend,
            "status": "pass" if all_ok else "fail",
        }
        emit(doc, "json", "")
    else:
        doc = {name: rep.to_json() for name, rep in reports.items()}
        lines = [f"[{r.status.upper():5s}] {name}: {r.summary}" for name, r in reports.items()]
        emit(doc if run_all else doc[args.suite], args.format, "\n".join(lines))
    return 0 if all_ok else 1


def cmd_lie_report(args) -> int:
    point = None if args.alpha is None else parse_alpha(args.alpha, args.exact)
    if args.basis == "report":
        rep = lie_report(point)
        emit(rep.to_json(), args.format, f"[{rep.status.upper()}] {rep.summary}")
        return 0 if rep.ok else 1
    jb = bilinear_generators(point)
    basis = {"J": jb, "X": basis_change(jb)}.get(args.basis)
    if basis is None:
        basis = rescale(basis_change(jb))
    sc = structure_constants(basis)
    klass = classify(sc)
    payload = {**sc.to_json(), "class": klass}
    pretty = [f"basis {args.basis}, class {klass}"]
    for (i, j) in sorted(sc.table):
        coords = ", ".join(
            f"{c} {name}" for c, name in zip(sc.table[(i, j)], sc.names) if c
        )
        pretty.append(f"[{sc.names[i]}, {sc.names[j]}] = {coords or '0'}")
    emit(payload, args.format, "\n".join(pretty))
    return 0


def _add_common(p, backend=True):
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    if backend:
        p.add_argument("--backend", choices=("exact", "float"), default="exact")


def _add_matrix_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", help="rational deformation parameter, e.g. 3/5")
    group.add_argument(
        "--g", nargs=4, metavar=("G11", "G12", "G21", "G22"), help="matrix entries, e.g. 3/5 4/5i -4/5i 3/5"
    )


def _hermite_args(p):
    p.add_argument("m", type=int, nargs="?", default=0)
    p.add_argument("n", type=int, nargs="?", default=0)
    p.add_argument("--table", action="store_true", help="emit every H with m+n <= --Lmax")
    p.add_argument("--Lmax", type=int, default=6)
    _add_common(p, backend=False)
    p.set_defaults(func=cmd_hermite)


def _real_hermite_args(p):
    p.add_argument("n", type=int)
    _add_common(p, backend=False)
    p.set_defaults(func=cmd_real_hermite)


def _deform_args(p):
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    _add_matrix_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_deform)


def _level_args(func):
    def add(p):
        p.add_argument("--L", type=int, required=True)
        _add_matrix_args(p)
        _add_common(p)
        p.set_defaults(func=func)

    return add


def _genfun_args(p):
    p.add_argument("kind", choices=("complex", "real", "deformed"))
    p.add_argument("--order", type=int, default=6)
    _add_matrix_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_genfun)


def _verify_args(p):
    p.add_argument("suite", choices=(*VERIFY_SUITES, "all"))
    p.add_argument("--alpha")
    p.add_argument("--theta", default="3/5")
    p.add_argument("--gamma", default="16/15")
    p.add_argument("--Lmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seed-manifest",
        action="store_true",
        help="dump the whole battery as one JSON document",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)


def _lie_report_args(p):
    p.add_argument("--alpha", help="deformation parameter; omit for the undeformed set")
    p.add_argument("--basis", choices=("J", "X", "Z", "report"), default="report")
    _add_common(p)
    p.set_defaults(func=cmd_lie_report)


# command -> (help, function adding its arguments), in `bihermite -h` order
COMMANDS = {
    "hermite": ("print H[m,n] (or the whole table)", _hermite_args),
    "real-hermite": ("print the degree-n real Hermite polynomial", _real_hermite_args),
    "deform": ("print the deformed polynomial Hg[m,n]", _deform_args),
    "repmat": ("print the level-L matrix M(g, L)", _level_args(cmd_repmat)),
    "dual": ("print the dual family at level L", _level_args(cmd_dual)),
    "genfun": ("print generating-series coefficients", _genfun_args),
    "verify": ("run a verification suite (exit 0 iff pass)", _verify_args),
    "lie-report": ("structure constants and algebra class", _lie_report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The bihermite parser.  When command names a subcommand, only its
    subparser is built; otherwise (-h, no command, an unknown one) all are."""
    ap = argparse.ArgumentParser(
        prog="bihermite",
        description="Exact complex Hermite families, matrix deformations, and their verification suites.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # the usage line lists every command, however many subparsers are built
    listed = None if len(names) > 1 else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=listed)
    for name in names:
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # the one reading of --backend; the library reads the backend off the values
    args.exact = getattr(args, "backend", "exact") == "exact"
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so that the flush
        # at exit cannot fail again, and exit as a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
