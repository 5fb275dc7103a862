"""Analytic model of fault-tolerant transmission (paper §4.1–4.2):
negative binomial packet counts, the minimal-N planner, and the EWMA
adaptive-redundancy controller.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.analysis.negbinom": (
        "cdf",
        "expectation",
        "pmf",
        "pmf_series",
        "survival",
        "variance",
    ),
    "repro.analysis.planner": (
        "PlannerPoint",
        "gamma_band",
        "gamma_versus_alpha",
        "minimal_cooked_packets",
        "redundancy_ratio",
        "stall_probability",
        "sweep",
    ),
    "repro.analysis.ewma": ("AdaptiveRedundancyController", "EwmaEstimator"),
    "repro.analysis.response": (
        "caching_expected_time",
        "expected_response_time",
        "nocaching_expected_time",
    ),
})

__all__ = [
    "pmf",
    "cdf",
    "survival",
    "expectation",
    "variance",
    "pmf_series",
    "minimal_cooked_packets",
    "redundancy_ratio",
    "PlannerPoint",
    "sweep",
    "gamma_versus_alpha",
    "gamma_band",
    "stall_probability",
    "EwmaEstimator",
    "AdaptiveRedundancyController",
    "expected_response_time",
    "caching_expected_time",
    "nocaching_expected_time",
]
