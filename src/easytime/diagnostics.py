"""Diagnostics shared by the language checker, compiler and runtime."""

from __future__ import annotations

from collections import namedtuple

ERROR = "error"
WARNING = "warning"


# severity is ERROR or WARNING
class Diagnostic(namedtuple("Diagnostic", "severity code message line column", defaults=(0, 0))):
    __slots__ = ()

    def render(self, filename: str = "<input>") -> str:
        return (
            f"{filename}:{self.line}:{self.column}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Stable ordering by source position; unpositioned entries first."""
    return sorted(diagnostics, key=lambda d: (d.line, d.column))
