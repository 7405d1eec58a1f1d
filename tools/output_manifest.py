"""Exit status and sha256 of stdout for a fixed list of bihermite invocations.

Goldens keep the full text of a few outputs; this keeps a digest of many, so
that a change which moves any printed value, a float bit in a failing run or
an exact entry at a deep level, shows as a changed line.  The expected output
is committed as tools/output_manifest.json, and a change is checked against
it:

    PYTHONPATH=src python tools/output_manifest.py | diff -u tools/output_manifest.json -

A change that moves an output on purpose rewrites that file and names each
changed invocation.  To read one invocation's output, pass its key:

    PYTHONPATH=src python tools/output_manifest.py --show "verify biorth --alpha 0.7 --backend float --format json"

Each invocation runs in-process through cli.main.  The manifest maps its
argv, joined by spaces, to {"status": exit status, "stdout": sha256 hex},
one invocation a line.  No output carries a timing field, so the digest is
of the whole of stdout.  It needs only the standard library and bihermite,
and takes about 2 s on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from bihermite import cli

LEVEL_SUITES = ("orthonormal", "biorth", "repmat", "eigen", "intertwine")
BACKENDS = ("exact", "float")
FORMATS = ("pretty", "json")


def invocations() -> list:
    """The argv lists, in manifest order."""
    runs = []
    # every verify suite, on both backends and in both formats
    for suite in LEVEL_SUITES:
        for Lmax in range(13):
            for backend in BACKENDS:
                for fmt in FORMATS:
                    runs.append(["verify", suite, "--Lmax", str(Lmax), "--backend", backend, "--format", fmt])
    for suite in ("ncqm", "qp", "lie"):
        for backend in BACKENDS:
            for fmt in FORMATS:
                runs.append(["verify", suite, "--backend", backend, "--format", fmt])
    # float runs that print the values they compare
    runs += [
        ["verify", "biorth", "--alpha", "0.7", "--Lmax", "4", "--backend", "float", "--format", fmt]
        for fmt in FORMATS
    ]
    runs.append(["verify", "biorth", "--alpha", "0.68", "--Lmax", "4", "--backend", "float", "--format", "json"])
    runs += [
        ["verify", "repmat", "--seed", seed, "--backend", "float", "--format", "json"]
        for seed in ("203", "237", "291", "377")
    ]
    runs.append(["verify", "intertwine", "--alpha", "0.7", "--Lmax", "8", "--backend", "float", "--format", "json"])
    # the whole battery as one document, at two seeds and alphas
    for backend in BACKENDS:
        for point in ([], ["--alpha", "5/13", "--seed", "7"]):
            runs.append(["verify", "all", "--seed-manifest", "--backend", backend, *point])
    runs.append(["verify", "all", "--seed-manifest", "--backend", "float", "--alpha", "0.7", "--seed", "203"])
    # the print commands
    for backend in BACKENDS:
        point = ["--alpha", "3/5" if backend == "exact" else "0.6", "--backend", backend]
        g = ["--g", "1/2+1/3i", "2", "1/4i", "3", "--backend", backend]
        runs += [["dual", "--L", str(L), *point, "--format", "json"] for L in range(7)]
        runs.append(["dual", "--L", "3", *g, "--format", "pretty"])
        for fmt in FORMATS:
            runs += [
                ["repmat", "--L", "4", *point, "--format", fmt],
                ["repmat", "--L", "3", *g, "--format", fmt],
                ["deform", "2", "1", *point, "--format", fmt],
                ["deform", "1", "2", *g, "--format", fmt],
                ["genfun", "deformed", "--order", "4", *point, "--format", fmt],
            ]
        runs.append(["deform", "2", "2", *point, "--format", "csv"])
    # float duals whose consistency was once decided under a fixed tolerance
    runs += [["dual", "--L", "4", "--alpha", "0.05", "--backend", "float", "--format", fmt] for fmt in FORMATS]
    runs.append(["dual", "--L", "8", "--alpha", "0.5", "--backend", "float", "--format", "json"])
    runs += [
        ["hermite", "--table", "--Lmax", "4", "--format", fmt] for fmt in (*FORMATS, "csv")
    ]
    runs += [
        ["real-hermite", "5", "--format", "json"],
        ["genfun", "complex", "--order", "4", "--format", "json"],
        ["genfun", "real", "--order", "4", "--format", "json"],
        ["lie-report", "--alpha", "3/5", "--basis", "X", "--format", "json"],
        ["lie-report", "--alpha", "0.6", "--backend", "float", "--format", "json"],
    ]
    # input errors, which exit 2 and print nothing, and a battery that
    # reports one broken suite
    runs += [
        ["verify", "biorth", "--Lmax", "-1"],
        ["repmat", "--L", "2", "--g", "1", "2", "2", "4"],
        ["repmat", "--L", "2", "--g", "1", "1e308", "0", "1", "--backend", "float"],
        ["deform", "1", "0", "--g", "1e-200", "0", "0", "1e-200", "--backend", "float"],
        ["deform", "1", "0", "--alpha", "0.6"],
        ["verify", "lie", "--alpha=-0.7071067811865476", "--backend", "float"],
        ["verify", "all", "--alpha", "1e400", "--backend", "float", "--format", "json"],
    ]
    return runs


def run(argv) -> tuple:
    """(exit status, stdout) of one in-process cli.main call; a usage error,
    which argparse raises as SystemExit, gives its exit status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def main(argv) -> int:
    if argv[:1] == ["--show"]:
        if len(argv) != 2:
            print('usage: output_manifest.py [--show "ARGV"]', file=sys.stderr)
            return 2
        status, out = run(argv[1].split())
        sys.stdout.write(out)
        print(f"exit status {status}, sha256 {hashlib.sha256(out.encode()).hexdigest()}", file=sys.stderr)
        return 0
    lines = []
    for args in invocations():
        status, out = run(args)
        record = {"status": status, "stdout": hashlib.sha256(out.encode()).hexdigest()}
        lines.append(f" {json.dumps(' '.join(args))}: {json.dumps(record)}")
    print("{\n" + ",\n".join(lines) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
