"""Mutation census of the verdict sites: every mutant must be killed by a
tier-1 test.

Each row of MUTANTS replaces one exact text under src/ with another.  Most
force one verdict to pass (its comparison replaced by True, or a value
compared with itself); the rest break a piece of arithmetic that a verdict
rests on.  A mutant is killed when pytest fails under it.

    python tools/verdict_census.py                      # every mutant
    python tools/verdict_census.py biorth-pass gram-no-conj

Each mutant is applied to its own temporary copy of the repository (all of
it but .git, so tools/ and demos/ are there for the tests that read them).
``pytest -x`` runs the mutant's own test files first, which kills it in a
second or two, and only when they pass the whole of tests/.  So a survivor
costs one full tier-1 run.  Before any mutant, the whole of tests/ runs on an
unmutated copy and must pass: a copy in which the tests fail anyway would
count every mutant as killed.  Mutants run one at a time.  A mutant that only
the whole of tests/ kills is reported as "killed*", so its listed test files
can be corrected.  The exit status is 1 when the unmutated copy fails, when a
mutant survives, when its text does not occur exactly once in its file, or
when pytest stops for another reason than a failed test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to src/bihermite
    old: str
    new: str
    name: str
    tests: tuple  # test files that should kill it, run first


MUTANTS = (
    # -- each verdict forced to pass ------------------------------------
    Mutant(
        "hermite.py",
        't.compare(row.get(j, ZERO), want, {"m": m, "n": n, "k": k, "l": l})',
        't.compare(want, want, {"m": m, "n": n, "k": k, "l": l})',
        "orthonormality-pass",
        ("tests/test_hermite.py",),
    ),
    Mutant(
        "hermite.py",
        't.compare(got, want, {"m": m, "n": n})',
        't.compare(want, want, {"m": m, "n": n})',
        "real-orthogonality-pass",
        ("tests/test_hermite.py",),
    ),
    Mutant(
        "deform.py",
        't.compare(got, want, {"L": L, "M": M, "n": n, "k": k})',
        't.compare(want, want, {"L": L, "M": M, "n": n, "k": k})',
        "biorth-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "consistent = _biorth_pairings(g, L).get((L, L)) == want",
        "consistent = True",
        "dual-consistent-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "_biorth_pairings(g, L).get((L, L))",
        "_biorth_pairings(g, L).get((L, 0))",
        "dual-block-wrong-level",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "t.check(image == hermite_sum(m, n),",
        "t.check(True,",
        "intertwine-monomial-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "t.check(_combination(column, basis) == raised[k],",
        "t.check(True,",
        "intertwine-operator-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        '"action": raised == [_combination(c, hermite) for c in MG],',
        '"action": True,',
        "action-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        '"identity": M1 == _scalar_columns(unit, n),',
        '"identity": True,',
        "identity-law-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        '"product": [matvec(rows, c) for c in MH] == MGH,',
        '"product": True,',
        "product-law-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        '"adjoint": left == right,',
        '"adjoint": True,',
        "adjoint-law-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        '"inverse": [matvec(_rows(M_adj), c) for c in MG] == _scalar_columns(det_L, n),',
        '"inverse": True,',
        "adjugate-law-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "ok = x == y or close(",
        "ok = True or close(",
        "eigen-exact-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "close(_make(*x, 1, exact), _make(*y, 1, exact))",
        "True",
        "eigen-float-pass",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "ncqm.py",
        'ok = t.compare(got, want, {"relation": name})',
        'ok = t.compare(want, want, {"relation": name})',
        "ncqm-check-pass",
        ("tests/test_ncqm.py",),
    ),
    Mutant(
        "ncqm.py",
        'ok = t.compare(image, BiPoly.zero(), {"relation": relation})',
        'ok = t.compare(BiPoly.zero(), BiPoly.zero(), {"relation": relation})',
        "ncqm-vacuum-pass",
        ("tests/test_ncqm.py",),
    ),
    Mutant(
        "ncqm.py",
        "if th == ga:",
        "if False:",
        "qp-modified-bosons-skipped",
        ("tests/test_ncqm.py",),
    ),
    Mutant(
        "lie.py",
        "jacobi = t.check(sc.jacobi_ok(),",
        "jacobi = t.check(True,",
        "lie-jacobi-pass",
        ("tests/test_lie.py",),
    ),
    Mutant(
        "lie.py",
        "closed = t.check(sc.closed,",
        "closed = t.check(True,",
        "lie-closure-pass",
        ("tests/test_lie.py",),
    ),
    Mutant(
        "lie.py",
        "t.check(final_class == expected,",
        "t.check(True,",
        "lie-class-pass",
        ("tests/test_lie.py",),
    ),
    Mutant(
        "cli.py",
        't.check(status == "pass", sub[-1])',
        "t.check(True, sub[-1])",
        "verify-eigen-pass",
        ("tests/test_cli.py",),
    ),
    # -- the pairs left uncompared -----------------------------------------
    Mutant(
        "poly.py",
        "for diff in by_diff:",
        "for diff in list(by_diff)[:1]:",
        "gram-first-sector-only",
        ("tests/test_poly.py",),
    ),
    Mutant(
        "hermite.py",
        "paired = row if i in row else sorted([*row, i])",
        "paired = row",
        "orthonormality-diagonal-dropped",
        ("tests/test_hermite.py",),
    ),
    Mutant(
        "deform.py",
        "elif L == M:",
        "elif False:",
        "biorth-diagonal-dropped",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "hermite.py",
        "t.checks += unpaired",
        "t.checks += unpaired - 1",
        "orthonormality-count-off-by-one",
        ("tests/test_hermite.py",),
    ),
    Mutant(
        "deform.py",
        "t.checks += absent",
        "t.checks += absent + 1",
        "biorth-count-off-by-one",
        ("tests/test_deform.py",),
    ),
    # -- the primitive itself -------------------------------------------
    Mutant(
        "report.py",
        'status = "pass" if self.checks and not self.failures else "fail"',
        'status = "pass" if not self.failures else "fail"',
        "tally-vacuous-pass",
        ("tests/test_report.py",),
    ),
    Mutant(
        "report.py",
        "if coeffs.close(got, want):",
        "if True:",
        "tally-compare-pass",
        ("tests/test_report.py",),
    ),
    # -- the arithmetic under the verdicts --------------------------------
    Mutant(
        "poly.py",
        "(a - b, a, pc.conj())",
        "(a - b, a, pc)",
        "gram-no-conj",
        ("tests/test_deform.py", "tests/test_poly.py"),
    ),
    Mutant(
        "deform.py",
        "([_conj(c) for c in dual[::-1]], fam[::-1])",
        "(dual[::-1], fam[::-1])",
        "biorth-dual-unconjugated",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "terms[L, M].append((i - start[L], j - start[M], c.a))",
        "terms[L, M].append((i - start[L], j - start[M] - 1, c.a))",
        "biorth-gram-column-shifted",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "return WeylOp({ad1: g.g11, ad2: g.g21}), WeylOp({ad1: g.g12, ad2: g.g22})",
        "return WeylOp({ad1: g.g12, ad2: g.g22}), WeylOp({ad1: g.g11, ad2: g.g21})",
        "raising-swapped",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "m = M[r, k]",
        "m = M[k, r]",
        "level-basis-transposed",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "det_L = times(det_L, det)",
        "det_L = det_L",
        "adjugate-det-power-one",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "det_L = times(det_L, det)",
        "det_L = times(det_L, det) if L else det_L",
        "adjugate-det-power-lags",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "left = [tuple(list(map(mul, w, m)) for m in c) for c in MG_dagger]",
        "left = [tuple(list(m) for m in c) for c in MG_dagger]",
        "adjoint-weights-dropped",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "return qg, (GL2(*(c * qg for c in g.entries())) if qg != 1 else g)",
        "return qg, g",
        "walk-uncleared",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "q = qd**L * qg**M",
        "q = qd ** max(L - 1, 0) * qg**M",
        "biorth-scale-lags",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "sum(map(mul, p, ws))",
        "sum(p)",
        "biorth-weight-dropped",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "columns = [_times_linear(columns[0], g12, g22, times)] + [",
        "columns = [_times_linear(columns[0], g22, g12, times)] + [",
        "walk-column-zero-swapped",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "_times_linear(c, g11, g21, times) for c in columns",
        "_times_linear(c, g21, g21, times) for c in columns",
        "walk-column-k-g21-for-g11",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "+ [(ar * y + ai * x) + (br * v + bi * u) for x, y, u, v in pairs]",
        "+ [(ar * y - ai * x) + (br * v + bi * u) for x, y, u, v in pairs]",
        "walk-gaussian-imaginary-sign",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "deform.py",
        "if any([c.q != 1 or c.b or c.c or c.d for c in p.terms.values()]):",
        "if False:",
        "integral-terms-unchecked",
        ("tests/test_deform.py",),
    ),
    # -- a float entry read at its exact value ----------------------------
    Mutant(
        "deform.py",
        "Coeff(Fraction(c.a), Fraction(c.b))",
        "Coeff(Fraction(c.a).limit_denominator(), Fraction(c.b))",
        "dyadic-slot-rounded",
        ("tests/test_backend_contract.py", "tests/test_deform.py"),
    ),
    Mutant(
        "deform.py",
        "Coeff(Fraction(c.a), Fraction(c.b))",
        "Coeff(Fraction(c.a), 0)",
        "dyadic-imaginary-dropped",
        ("tests/test_backend_contract.py", "tests/test_deform.py"),
    ),
    Mutant(
        "deform.py",
        "return GL2(*(c if c.exact else Coeff(Fraction(c.a), Fraction(c.b)) for c in g.entries()))",
        "return g",
        "float-walked-on-float",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "weyl.py",
        "lowered.append(((a, b - 1), c * -b))",
        "lowered.append(((a, b - 1), c * b))",
        "raise-derivative-sign",
        ("tests/test_deform.py",),
    ),
    Mutant(
        "weyl.py",
        "return a._like(_normal_ordered(a, b, True)) - b._like(_normal_ordered(b, a, True))",
        "return a._like(_normal_ordered(a, b, True)) + b._like(_normal_ordered(b, a, True))",
        "commutator-ba-sign",
        ("tests/test_weyl.py",),
    ),
    Mutant(
        "weyl.py",
        "if contracted_only and j1 == j2 == 0:",
        "if contracted_only and j1 == 0:",
        "commutator-skip-widened",
        ("tests/test_weyl.py",),
    ),
    Mutant(
        "linalg.py",
        "coeffs[c] = work[r][nv + t]",
        "coeffs[c] = work[r][nv]",
        "brackets-read-first-column",
        ("tests/test_lie.py",),
    ),
    Mutant(
        "linalg.py",
        "toeplitz = tuple([x] + m for x, m in zip(a, w))",
        "toeplitz = tuple([x] + [-y for y in m] for x, m in zip(a, w))",
        "charpoly-toeplitz-sign",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "linalg.py",
        "Q ** (n - k)",
        "Q**k",
        "charpoly-rescale-power",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "linalg.py",
        "out.insert(0, -(j * m[j - 1] + x))",
        "out.insert(0, -(j * m[j - 1] - x))",
        "newton-sums-sign",
        ("tests/test_linalg.py", "tests/test_deform.py"),
    ),
    Mutant(
        "coeffs.py",
        "a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),",
        "a1 * a2 - b1 * b2 + 2 * (c1 * c2 + d1 * d2),",
        "mul-sqrt2-sign",
        ("tests/test_coeffs.py",),
    ),
    Mutant(
        "coeffs.py",
        "self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d, q1, self.exact",
        "self.a - other.a, self.b - other.b, self.c + other.c, self.d - other.d, q1, self.exact",
        "sub-radical-sign",
        ("tests/test_coeffs.py",),
    ),
    Mutant(
        "coeffs.py",
        "self.b * s1 - other.b * s2,",
        "self.b * s1 + other.b * s2,",
        "sub-cross-imaginary-sign",
        ("tests/test_coeffs.py",),
    ),
    Mutant(
        "coeffs.py",
        "sa += (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)) * w",
        "sa += (a1 * a2 - b1 * b2 + 2 * (c1 * c2 + d1 * d2)) * w",
        "sum-kernel-sqrt2-sign",
        ("tests/test_coeffs.py", "tests/test_poly.py"),
    ),
)


def _pytest(cwd: Path, paths) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    return done.returncode


def _copy(work: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    shutil.copytree(ROOT, work, ignore=ignore)
    return work


def run_mutant(mutant: Mutant, work: Path) -> str:
    """'killed' (by its own test files), 'killed*' (only by the whole of
    tests/), 'survived', or why the mutant could not be judged."""
    target = work / "src" / "bihermite" / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return f"old text occurs {text.count(mutant.old)} times"
    target.write_text(text.replace(mutant.old, mutant.new))
    for outcome, paths in (("killed", mutant.tests), ("killed*", ("tests",))):
        code = _pytest(work, paths)
        if code == 1:
            return outcome
        if code != 0:
            return f"pytest exit status {code}"
    return "survived"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="verdict-census-") as tmp:
        start = time.perf_counter()
        code = _pytest(_copy(Path(tmp) / "unmutated"), ("tests",))
        took = time.perf_counter() - start
        print(f"{'passed' if code == 0 else 'FAILED':10s} {took:6.1f} s  unmutated copy", flush=True)
        if code != 0:
            print(f"the unmutated copy fails its tests (pytest exit status {code})", file=sys.stderr)
            return 1
        outcomes = []
        for mutant in chosen:
            start = time.perf_counter()
            work = _copy(Path(tmp) / mutant.name)
            outcomes.append(run_mutant(mutant, work))
            shutil.rmtree(work)
            took = time.perf_counter() - start
            print(f"{outcomes[-1]:10s} {took:6.1f} s  {mutant.name}", flush=True)
    killed = sum(o in ("killed", "killed*") for o in outcomes)
    late = outcomes.count("killed*")
    print(f"{killed} of {len(chosen)} mutants killed, {late} of them only by the whole of tests/")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
