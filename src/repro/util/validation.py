"""Argument-validation helpers.

Every public entry point of the library validates its inputs with these
functions so that misuse fails fast with a clear message instead of
producing silently wrong simulation results.
"""

from __future__ import annotations

import math
from typing import Any


class DocumentError(Exception):
    """A document's source cannot be read (malformed markup).

    The XML toolkit's errors derive from it, so a layer that must not
    import the toolkit (the socket server) can still tell a document
    that does not parse from a request that is bad.
    """


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that *value* is a probability in ``[0, 1]``.

    Returns the value unchanged so it can be used inline::

        self.alpha = check_probability(alpha, "alpha")
    """
    value = _check_finite_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def check_fraction(value: float, name: str = "fraction") -> float:
    """Validate that *value* lies in the open-closed interval ``(0, 1]``."""
    value = _check_finite_number(value, name)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be within (0, 1], got {value!r}")
    return float(value)


def check_positive(value: float, name: str = "value") -> float:
    """Validate that *value* is a finite number strictly greater than zero."""
    value = _check_finite_number(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str = "value") -> int:
    """Validate that *value* is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_range(value: float, low: float, high: float, name: str = "value") -> float:
    """Validate that *value* lies in the closed interval ``[low, high]``."""
    value = _check_finite_number(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must be within [{low}, {high}], got {value!r}")
    return float(value)


def _check_finite_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)
