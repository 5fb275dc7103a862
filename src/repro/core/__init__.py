"""The paper's primary contribution: structural characteristics,
information-content measures, and multi-resolution transmission
scheduling.

Layering: ``repro.core`` imports only the standard library,
:mod:`repro.util`, :mod:`repro.text`, :mod:`repro.xmlkit`,
:mod:`repro.obs` and itself (``tools/check_layering.py``), so the serve
path's SC build and scoring never pull in a transport or a cache.  The
browsing strategies that drive whole transfers live in
:mod:`repro.browse`.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.core.lod": ("ALL_LODS", "LOD"),
    "repro.core.structure": ("OrganizationalUnit", "StructuralCharacteristic"),
    "repro.core.query": ("Query",),
    "repro.core.information": (
        "ContentMeasure",
        "ModifiedQueryIC",
        "ProportionalIC",
        "QueryIC",
        "StaticIC",
        "TfIdfIC",
        "annotate_sc",
    ),
    "repro.core.pipeline": (
        "DocumentRecognizer",
        "KeywordExtractorStage",
        "LemmatizerStage",
        "SCGeneratorStage",
        "SCPipeline",
        "WordFilterStage",
        "build_sc",
    ),
    "repro.core.multires": (
        "ScheduledSegment",
        "TransmissionSchedule",
        "best_first_schedule",
        "conventional_schedule",
    ),
    "repro.core.intuition": ("IntuitionModel", "annotate_intuition"),
})

__all__ = [
    "LOD",
    "ALL_LODS",
    "OrganizationalUnit",
    "StructuralCharacteristic",
    "Query",
    "ContentMeasure",
    "StaticIC",
    "QueryIC",
    "ModifiedQueryIC",
    "ProportionalIC",
    "TfIdfIC",
    "annotate_sc",
    "DocumentRecognizer",
    "LemmatizerStage",
    "WordFilterStage",
    "KeywordExtractorStage",
    "SCGeneratorStage",
    "SCPipeline",
    "build_sc",
    "ScheduledSegment",
    "TransmissionSchedule",
    "best_first_schedule",
    "conventional_schedule",
    "IntuitionModel",
    "annotate_intuition",
]
