"""repro.browse — browsing strategies built on the serving layers.

* :mod:`repro.browse.summarize` — the summary-first baseline the paper
  compares against (§2, refs [5, 14]): a lead-in summary, then the whole
  document, against one multi-resolution transfer;
* :mod:`repro.browse.cluster` — hierarchically linked pages as one
  :class:`DocumentCluster` whose profile drives prefetching (§1, §6).

Layering: this package sits above :mod:`repro.core`, :mod:`repro.prep`
and :mod:`repro.transport`, which it drives; ``repro.core`` never
imports it (``tools/check_layering.py``), so the SC substrate the
server runs stays free of the transport session.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.browse.summarize": (
        "SummaryFirstResult",
        "build_summary",
        "multiresolution_browse",
        "summary_first_browse",
    ),
    "repro.browse.cluster": ("ClusterError", "DocumentCluster"),
})

__all__ = [
    "build_summary",
    "summary_first_browse",
    "multiresolution_browse",
    "SummaryFirstResult",
    "DocumentCluster",
    "ClusterError",
]
