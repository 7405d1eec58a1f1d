"""The library surface that perfbench/ reads stays in place.

Every ``bh.<name>`` and ``linalg.<name>`` that the layer microbenchmarks
read resolves, and the oracle job of an untraced benchmark run, the library
outputs on the seed-0 inputs at levels up to 8, runs and agrees with sympy.
So a change to the library cannot break ``perfbench/run.py`` unnoticed.  The
tests import from perfbench/ and change nothing in it.
"""

import ast
import sys
from pathlib import Path

import pytest

import bihermite
from bihermite import linalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/ importable, and its modules dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def _names_read(owner: str) -> set:
    """Every attribute that micro.py reads directly off the name owner."""
    tree = ast.parse((PERFBENCH / "micro.py").read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    }


def test_every_library_name_the_microbenchmarks_read_resolves(perfbench):
    import micro

    assert micro.bh is bihermite and micro.linalg is linalg
    for owner, module in (("bh", bihermite), ("linalg", linalg)):
        names = _names_read(owner)
        assert names, owner
        assert sorted(n for n in names if not hasattr(module, n)) == [], owner


def test_the_oracle_job_runs_and_agrees_with_sympy(perfbench):
    pytest.importorskip("sympy")
    import checks
    import micro
    import workloads

    inputs = workloads.micro_inputs(0)
    # the levels an untraced run hands the oracle
    inputs["rep_levels"] = [L for L in inputs["rep_levels"] if L <= 8]
    outputs = micro.outputs(inputs)
    assert sorted(outputs["rep_matrix"], key=int) == [str(L) for L in inputs["rep_levels"]]
    tally = checks.Tally()
    checks.check_oracle(inputs, outputs, tally)
    assert tally.failures == []
    assert tally.attempted == len(inputs["rep_levels"]) + len(inputs["hermite_pairs"])
