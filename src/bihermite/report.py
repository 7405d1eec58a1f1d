"""Uniform result object for the verification suites, and the tally that
decides it."""

from __future__ import annotations

from . import coeffs

__all__ = ["Report", "Tally"]


class Report:
    """Outcome of one verification suite.

    status is "pass", "fail" or "error"; payload is the machine-readable
    JSON body, summary the one-line human text.
    """

    __slots__ = ("status", "summary", "payload")

    def __init__(self, status: str, summary: str, payload: dict | None = None):
        self.status, self.summary = status, summary
        self.payload = {} if payload is None else payload

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"status": self.status, "summary": self.summary, **self.payload}


class Tally:
    """Counts the checks of one suite and keeps the record of each failed
    one, in order.  A suite passes only when it made at least one check and
    none failed."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def check(self, ok, where) -> bool:
        """Count one check; where is its failure record, kept unless ok."""
        self.checks += 1
        if not ok:
            self.failures.append(where)
        return ok

    def compare(self, got, want, where: dict) -> bool:
        """Check coeffs.close(got, want); a failure records where with the two
        sides as the strings "value" and "expected", formatted only then."""
        self.checks += 1
        if coeffs.close(got, want):
            return True
        self.failures.append({**where, "value": str(got), "expected": str(want)})
        return False

    def report(self, title: str, payload: dict, note: str = "") -> Report:
        """The suite's Report; its summary reads "{title}: {status}{note}"."""
        status = "pass" if self.checks and not self.failures else "fail"
        return Report(status, f"{title}: {status}{note}", payload)
