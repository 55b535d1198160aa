"""Diagnostic reports shared by the CLI and the oracle suites."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError


@dataclass
class Report:
    """Outcome of a validation or oracle run.

    status is "ok" or "error"; an error report must say where and why.
    counts carry named totals (elements seen, instances checked, ...).
    """

    status: str
    diagnostics: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise DomainError(f"unknown report status {self.status!r}")
        if self.status == "error" and not self.diagnostics:
            raise DomainError("an error report needs at least one diagnostic")

    @classmethod
    def ok(cls, counts=None, diagnostics=None) -> "Report":
        return cls("ok", list(diagnostics or []), dict(counts or {}))

    @classmethod
    def failure(cls, location: str, message: str, counts=None) -> "Report":
        return cls("error", [(location, message)], dict(counts or {}))

    @property
    def is_ok(self) -> bool:
        return self.status == "ok"

    def to_text(self) -> str:
        lines = [f"status: {self.status}"]
        for name in sorted(self.counts):
            lines.append(f"count {name}: {self.counts[name]}")
        for location, message in self.diagnostics:
            lines.append(f"note {location}: {message}")
        return "\n".join(lines)
