"""Correctness checks on the library's outputs, run outside the timed region.

Every check is one attempt; a check fails when the output is wrong, missing,
or the invocation raised.  ``fail_share`` is failed / attempted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

PAIRINGS = re.compile(r"\((\d+) pairings\)")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def biorth_pairings(lmax: int) -> int:
    """Every (dual, deformed) pair over all levels up to lmax."""
    n = (lmax + 1) * (lmax + 2) // 2
    return n * n


def reports_of(inv: dict, result: dict) -> dict:
    """Suite name -> report JSON from one invocation's stdout."""
    doc = json.loads(result["stdout"])
    if "battery" in doc:  # --seed-manifest document
        return doc["battery"]
    (suite,) = inv["expect"]["suites"]
    return {suite: doc}


def check_invocation(inv: dict, result: dict | None, tally: Tally):
    """Every suite passes, lie classifies as expected, biorth pairs every pair."""
    expect = inv["expect"]
    label = " ".join(inv["argv"])
    reports = {}
    crashed = result is None or result.get("error") or result.get("rc") not in (0, 1)
    if not crashed:
        try:
            reports = reports_of(inv, result)
        except (ValueError, KeyError, TypeError):
            reports = {}
    tally.check(not crashed and result.get("rc") == 0, f"{label}: exit status")
    for suite in expect["suites"]:
        rep = reports.get(suite, {})
        tally.check(rep.get("status") == "pass", f"{label}: suite {suite} did not pass")
    if expect.get("lie_class"):
        got = reports.get("lie", {}).get("class")
        tally.check(got == expect["lie_class"], f"{label}: lie class {got}, want {expect['lie_class']}")
    if expect.get("biorth_lmax") is not None:
        rep = reports.get("biorth", {})
        m = PAIRINGS.search(rep.get("summary", ""))
        want = biorth_pairings(expect["biorth_lmax"])
        got = int(m.group(1)) if m else None
        tally.check(got == want, f"{label}: biorth pairings {got}, want {want}")


def check_trace(label: str, summary: dict | None, tally: Tally):
    """The spans of one traced call account for its wall time: every span
    closed, nested in its parent (a root in the call), none with less time
    than its children, so no untraced remainder is negative."""
    summary = summary or {}
    for key in ("open_spans", "escaped_spans", "negative_self_spans"):
        n = summary.get(key)
        tally.check(n == 0, f"{label}: trace has {n} {key.replace('_', ' ')}")
    rest = summary.get("untraced_s")
    tally.check(rest is not None and rest >= 0, f"{label}: traced spans exceed the call ({rest} s left)")


def _fractions(parts) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return tuple(Fraction(p) for p in parts)


def check_oracle(inputs: dict, outputs: dict | None, tally: Tally):
    """Library rep_matrix entries and hermite_sum polynomials against sympy."""
    import oracle

    outputs = outputs or {}
    for L in inputs["rep_levels"]:
        got = outputs.get("rep_matrix", {}).get(str(L))
        ok = got is not None
        if ok:
            want = oracle.rep_matrix_entries(inputs["g"], L)
            ok = len(got) == L + 1 and all(
                len(got[r]) == L + 1 and _fractions(got[r][k]) == (*want[r][k], 0, 0)
                for r in range(L + 1)
                for k in range(L + 1)
            )
        tally.check(ok, f"oracle: rep_matrix(g, {L}) differs from sympy")
    for m, n in inputs["hermite_pairs"]:
        got = outputs.get("hermite_sum", {}).get(f"{m},{n}")
        ok = got is not None
        if ok:
            want = oracle.hermite_terms(m, n)
            terms = {(a, b): _fractions(rest) for a, b, *rest in got}
            ok = terms == {mono: (c, 0, 0, 0) for mono, c in want.items()}
        tally.check(ok, f"oracle: hermite_sum({m}, {n}) differs from sympy")
