"""Shared low-level helpers used across the :mod:`repro` packages.

This package deliberately contains only dependency-free utilities:
argument validation, byte/bit manipulation, and small statistics
helpers used by the simulation harness.  Nothing in here knows about
documents, packets, or channels.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.util.validation": (
        "check_fraction",
        "check_positive",
        "check_positive_int",
        "check_probability",
        "check_range",
    ),
    "repro.util.bitops": ("chunk_bytes", "pad_to_multiple", "xor_bytes"),
    "repro.util.stats": (
        "RunningStats",
        "confidence_interval",
        "mean",
        "population_variance",
        "sample_stdev",
    ),
})

__all__ = [
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_range",
    "chunk_bytes",
    "pad_to_multiple",
    "xor_bytes",
    "RunningStats",
    "confidence_interval",
    "mean",
    "population_variance",
    "sample_stdev",
]
