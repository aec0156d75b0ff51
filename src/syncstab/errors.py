"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` (stable, upper snake
case) next to the human-readable message, so callers — the CLI in particular —
can branch on failure class without string matching.
"""
from __future__ import annotations

from dataclasses import dataclass


class SyncstabError(Exception):
    """Base class for all errors raised by this package."""

    code: str = "ERROR"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ConfigSyntaxError(SyncstabError):
    """Malformed config text (tokenization / shape of a line)."""

    code = "CONFIG_SYNTAX"

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Violation:
    """One semantic problem found while validating a parsed system.

    Plain value object: ``code`` is stable and machine-readable, ``message``
    says what is wrong in terms of the offending names.
    """

    code: str
    message: str


class SpecValidationError(SyncstabError):
    """A parsed system failed semantic validation; carries all violations."""

    code = "SPEC_INVALID"

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(f"[{v.code}] {v.message}" for v in violations)
        super().__init__(f"invalid system description: {lines}")


class NetworkError(SyncstabError):
    """Susceptance-matrix assembly or reduction failed."""


class PowerFlowError(SyncstabError):
    """Steady-state solution failed or left the trusted region."""


class AnalysisError(SyncstabError):
    """Frequency-domain analysis could not produce a meaningful result."""
