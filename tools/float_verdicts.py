"""The float false-fail sets of the seeded level checks, as JSON.

A float check that compares under close's tolerance fails a claim that holds
exactly when rounding leaves a comparison outside it.  Which draws fail
depends on the order in which a route rounds.  The eigenvalue check is the
one level check left on that route; the representation laws and the
biorthogonality pairings are decided at the dyadic value of the float input,
so their sets must stay empty.  The expected output is committed as
tools/float_verdicts.json, and a change is checked against it:

    PYTHONPATH=src python tools/float_verdicts.py | diff -u tools/float_verdicts.json -

A change that moves a verdict on purpose rewrites that file and says so.

It prints one object with three sets, each a map from a seed or an alpha to
what failed there; a draw that passes is left out:

    repmat     `verify repmat --backend float` failure lists, seeds 0-2999
               at --Lmax 5 and seeds 0-199 at --Lmax 8;
    eigen      eigenvalue_structure_check failures, Lmax 8, on the float g
               that `verify repmat` draws first for seeds 0-399;
    biorth     `verify biorth --backend float` violations at the alphas
               k/100, k = 1..99, at --Lmax 4 and 8.

It needs only the standard library and bihermite, and takes about 20 s on
one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

from bihermite import cli
from bihermite.deform import eigenvalue_structure_check


def _verify(*argv) -> dict:
    """The JSON report of one float `bihermite verify` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", *argv, "--backend", "float", "--format", "json"])
    return json.loads(out.getvalue())


def repmat(seeds, Lmax) -> dict:
    runs = ((seed, _verify("repmat", "--seed", str(seed), "--Lmax", str(Lmax))) for seed in seeds)
    return {str(seed): rep["failures"] for seed, rep in runs if rep["status"] != "pass"}


def eigen(seeds, Lmax) -> dict:
    found = {}
    for seed in seeds:
        rep = eigenvalue_structure_check(cli._random_rational_gl2(random.Random(seed), False), Lmax)
        if rep.status != "pass":
            found[str(seed)] = {"status": rep.status, "failures": rep.payload.get("failures", [])}
    return found


def biorth(alphas, Lmax) -> dict:
    runs = ((alpha, _verify("biorth", "--alpha", alpha, "--Lmax", str(Lmax))) for alpha in alphas)
    return {alpha: rep["violations"] for alpha, rep in runs if rep["status"] != "pass"}


def main() -> int:
    verdicts = {
        "repmat": {
            "Lmax 5, seeds 0-2999": repmat(range(3000), 5),
            "Lmax 8, seeds 0-199": repmat(range(200), 8),
        },
        "eigen": {"Lmax 8, seeds 0-399": eigen(range(400), 8)},
        "biorth": {
            f"Lmax {Lmax}, alphas k/100": biorth([str(k / 100) for k in range(1, 100)], Lmax)
            for Lmax in (4, 8)
        },
    }
    json.dump(verdicts, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
