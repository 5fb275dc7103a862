"""repro.prep — on-demand content preparation behind a two-tier cache.

The package owns everything between "here is a document" and "here are
cooked packets ready for the §4.2 transfer protocol":

* :class:`~repro.prep.request.PrepRequest` /
  :class:`~repro.prep.request.TransferSettings` — the canonical
  request objects replacing per-module keyword sprawl;
* :class:`~repro.prep.prepare.DocumentSender` /
  :class:`~repro.prep.prepare.PreparedDocument` — the schedule →
  packets step;
* :class:`~repro.prep.service.PreparationService` — lazy pipeline +
  measure + schedule + cook behind SC-tier (compact SCs) and
  cooked-tier byte-budget LRU caches with single-flight miss
  deduplication.

Layering: prep sits above ``core``/``coding``/``obs`` and below
``transport``/``net``/``prototype`` — it never imports a transport.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.prep.cache import MISS, ByteBudgetLRU
from repro.prep.diskstore import DiskCookedStore
from repro.prep.prepare import DocumentSender, PreparedDocument
from repro.prep.request import DeliveryMode, PrepRequest, TransferSettings
from repro.prep.service import (
    DEFAULT_COOKED_BUDGET,
    DEFAULT_SC_BUDGET,
    PreparationService,
    UnknownDocumentError,
    content_digest,
)

__all__ = [
    "ByteBudgetLRU",
    "DEFAULT_COOKED_BUDGET",
    "DEFAULT_SC_BUDGET",
    "DeliveryMode",
    "DiskCookedStore",
    "DocumentSender",
    "MISS",
    "PreparationService",
    "PrepRequest",
    "PreparedDocument",
    "TransferSettings",
    "UnknownDocumentError",
    "content_digest",
    "default_service",
    "prepare",
]

_default_service: Optional[PreparationService] = None


def default_service() -> PreparationService:
    """The process-wide service backing :func:`prepare` (lazy singleton)."""
    global _default_service
    if _default_service is None:
        _default_service = PreparationService()
    return _default_service


def prepare(
    document: Union[str, Path],
    request: Optional[PrepRequest] = None,
    *,
    html: bool = False,
    service: Optional[PreparationService] = None,
    **request_fields,
) -> PreparedDocument:
    """One-shot preparation: document in, cooked packets out.

    *document* may be a :class:`~pathlib.Path` (or a string naming an
    existing file), or raw markup.  Request parameters come either as
    a :class:`PrepRequest` or as its keyword fields (``query=...``,
    ``lod=...``); repeated calls against the default service hit the
    cache.
    """
    if request is not None and request_fields:
        raise TypeError("pass either request= or its keyword fields, not both")
    if request is None:
        request = PrepRequest(**request_fields)
    svc = service if service is not None else default_service()
    if isinstance(document, Path):
        document_id = svc.add_path(document, html=html)
    else:
        text = str(document)
        candidate = Path(text)
        is_markup = text.lstrip().startswith("<")
        if not is_markup and candidate.is_file():
            document_id = svc.add_path(candidate, html=html)
        elif is_markup:
            document_id = f"inline-{content_digest(text, html=html)[:12]}"
            svc.add_document(document_id, text, html=html)
        else:
            raise ValueError(
                f"document must be markup or an existing file, got {text!r}"
            )
    return svc.prepare(document_id, request)
