"""Exception hierarchy for the XML toolkit."""

from __future__ import annotations

from repro.util.validation import DocumentError


class XmlError(DocumentError):
    """Base class for all XML toolkit errors."""


class XmlSyntaxError(XmlError):
    """Raised when the input is not well-formed XML.

    Carries the 1-based line and column of the offending character so
    callers can point users at the problem.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class XmlValidationError(XmlError):
    """Raised when a well-formed document violates its DTD."""
