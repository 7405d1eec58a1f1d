"""Uniform result object for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Report"]


@dataclass
class Report:
    """Outcome of one verification suite.

    status is "pass", "fail" or "error"; payload is the machine-readable
    JSON body, summary the one-line human text.
    """

    status: str
    summary: str
    payload: dict = field(default_factory=dict)

    @classmethod
    def verdict(cls, ok: bool, title: str, payload: dict, note: str = "") -> Report:
        """A pass report when ok, else a fail report; the summary reads
        "{title}: {status}{note}"."""
        status = "pass" if ok else "fail"
        return cls(status, f"{title}: {status}{note}", payload)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"status": self.status, "summary": self.summary, **self.payload}
