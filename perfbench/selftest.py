"""Self-test of the benchmark's correctness checks: a wrong result must fail.

    python3 perfbench/selftest.py

Run from the repository root.  It runs one real pass of the battery_float
workload (seed 0), the oracle's library outputs and one traced invocation,
shows that the checks pass on them (fail_share 0), then feeds the checks one
deliberately wrong result at a time and shows that fail_share rises above 0
for each.  Exits 1 if a wrong result goes unnoticed or a right one is refused.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def _edit_stdout(result: dict, edit) -> dict:
    bad = copy.deepcopy(result)
    doc = json.loads(bad["stdout"])
    edit(doc)
    bad["stdout"] = json.dumps(doc)
    return bad


def _bump(entry: list[str]) -> list[str]:
    return [str(Fraction(entry[0]) + Fraction(1, 7)), *entry[1:]]


def corruptions(results: list[dict], outputs: dict):
    """(label, invocation results, oracle outputs) with exactly one thing wrong."""
    battery, limit, biorth = results

    def set_status(doc):
        doc["battery"]["repmat"]["status"] = "fail"

    def set_class(doc):
        doc["class"] = "su2_plus_u1"

    def drop_pair(doc):
        n = checks.biorth_pairings(workloads.BATTERY_BIORTH_LMAX)
        doc["summary"] = doc["summary"].replace(f"({n} pairings)", f"({n - 1} pairings)")

    yield "suite reports fail", [_edit_stdout(battery, set_status), limit, biorth], outputs
    yield "wrong lie class at theta = 1", [battery, _edit_stdout(limit, set_class), biorth], outputs
    yield "biorth skipped a pairing", [battery, limit, _edit_stdout(biorth, drop_pair)], outputs
    yield "invocation crashed", [None, limit, biorth], outputs
    yield "nonzero exit status", [battery, {**limit, "rc": 1}, biorth], outputs

    bad = copy.deepcopy(outputs)
    rows = bad["rep_matrix"]["8"]
    rows[3][5] = _bump(rows[3][5])
    yield "rep_matrix entry off by 1/7", results, bad

    bad = copy.deepcopy(outputs)
    key = next(iter(bad["hermite_sum"]))
    terms = bad["hermite_sum"][key]
    terms[0] = terms[0][:2] + _bump(terms[0][2:])
    yield "hermite_sum coefficient off by 1/7", results, bad

    bad = copy.deepcopy(outputs)
    key = next(iter(bad["hermite_sum"]))
    bad["hermite_sum"][key] = bad["hermite_sum"][key][1:]
    yield "hermite_sum term missing", results, bad


def trace_corruptions(trace):
    """(label, arrays of a span file) with exactly one span broken."""
    parent = trace["parent"]
    child = int(np.flatnonzero(parent >= 0)[0])
    root = int(np.flatnonzero(parent < 0)[-1])

    bad = {k: v.copy() for k, v in trace.items()}
    bad["t1"][child] = 0.0
    yield "span left open", bad

    bad = {k: v.copy() for k, v in trace.items()}
    bad["t1"][child] = bad["t1"][parent[child]] + 1e-3
    yield "child span ends after its parent", bad

    bad = {k: v.copy() for k, v in trace.items()}
    bad["window"][1] = bad["t1"][root] - 1e-3
    yield "root span ends after the call", bad


def trace_caught(trace) -> checks.Tally:
    summary = spans.summarize([str(n) for n in trace["names"]], trace["parent"], trace["name"],
                              trace["t0"], trace["t1"], *trace["window"])
    tally = checks.Tally()
    checks.check_trace("traced lie", summary, tally)
    return tally


def tally_for(invs, results, inputs, outputs) -> checks.Tally:
    tally = checks.Tally()
    for inv, res in zip(invs, results):
        checks.check_invocation(inv, res, tally)
    checks.check_oracle(inputs, outputs, tally)
    return tally


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    root = Path.cwd()
    if not (root / "src" / "bihermite" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    ctx = run.Context(root, argparse.Namespace(workload="battery_float", seed=SEED))
    invs = workloads.make_pass("battery_float", SEED, 0)
    results = [ctx.run_worker({"type": "cli", "argv": inv["argv"]}) for inv in invs]
    inputs = workloads.micro_inputs(SEED)
    outputs = ctx.run_worker({"type": "outputs", "inputs": inputs})["outputs"]
    trace_file = ctx.build / "traces" / "selftest.npz"
    ctx.run_worker({"type": "cli", "argv": invs[1]["argv"], "trace": 1, "trace_file": str(trace_file)})
    with np.load(trace_file) as npz:
        trace = dict(npz)

    ok = True
    base = tally_for(invs, results, inputs, outputs)
    print(f"real results: fail_share {base.fail_share:g} ({base.failed}/{base.attempted})")
    ok &= base.failed == 0
    for label, res, out in corruptions(results, outputs):
        t = tally_for(invs, res, inputs, out)
        caught = t.fail_share > 0
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: {label}: fail_share {t.fail_share:g} "
              f"({t.failed}/{t.attempted})")
    t = trace_caught(trace)
    print(f"real trace: fail_share {t.fail_share:g} ({t.failed}/{t.attempted})")
    ok &= t.failed == 0
    for label, bad in trace_corruptions(trace):
        t = trace_caught(bad)
        caught = t.fail_share > 0
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: {label}: fail_share {t.fail_share:g} "
              f"({t.failed}/{t.attempted})")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
