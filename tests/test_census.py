"""The mutation census of tools/verdict_census.py cannot go stale silently:
each mutant's old text occurs exactly once under src/, in the file it names."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _census():
    path = ROOT / "tools" / "verdict_census.py"
    spec = importlib.util.spec_from_file_location("verdict_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_text_occurs_once_under_src():
    mutants = _census().MUTANTS
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "bihermite").glob("*.py")}
    counts = {
        m.name: {name: text.count(m.old) for name, text in sources.items() if m.old in text}
        for m in mutants
    }
    assert counts == {m.name: {m.file: 1} for m in mutants}
    assert len({m.name for m in mutants}) == len(mutants) >= 21
    assert all(m.new != m.old and m.tests for m in mutants)
    assert all((ROOT / path).is_file() for m in mutants for path in m.tests)
