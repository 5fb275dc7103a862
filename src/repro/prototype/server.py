"""Server-side prototype components (Figure 1, right half).

``DatabaseGateway`` fronts the document store: one
:class:`~repro.prep.service.PreparationService`, whose SC tier holds
each document's structure as a frozen
:class:`~repro.core.compact.CompactSC` ("the SC is created by deriving
the information content of each organizational unit", §3.3).  Ingest
builds the SC once; the gateway keeps no tree and no second copy of
the source.  ``DocumentTransmitterService`` is the servant the browser
invokes, a thin adapter over the same service, which ranks the
requested document's units by the query-appropriate measure, cooks the
packet stream, and caches the result — repeated fetches with the same
parameters reuse the cooked bytes instead of re-running annotation and
encode per request.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.pipeline import SCPipeline
from repro.core.structure import StructuralCharacteristic
from repro.prep.prepare import PreparedDocument
from repro.prep.request import PrepRequest
from repro.prep.service import PreparationService
from repro.prototype.messages import FetchManifest, FetchRequest, UnitDescriptor
from repro.util.validation import DocumentError


class DatabaseGateway:
    """Document store: a thin front over one :class:`PreparationService`."""

    def __init__(self, pipeline: Optional[SCPipeline] = None) -> None:
        self._pipeline = pipeline if pipeline is not None else SCPipeline()
        self._service = PreparationService(pipeline=self._pipeline)

    def put(self, document_id: str, xml_source: str) -> StructuralCharacteristic:
        """Store an XML document and build its SC immediately; a source
        that is not a well-formed paper raises and is not kept."""
        self._service.add_document(document_id, xml_source)
        try:
            return self._service.sc_for(document_id)
        except (DocumentError, ValueError):
            self._service.remove(document_id)
            raise

    def sc(self, document_id: str) -> StructuralCharacteristic:
        """The caller's own SC of *document_id*, backed by the SC tier's
        compact form until its tree is first read.

        Raises :class:`~repro.prep.service.UnknownDocumentError` (a
        :class:`KeyError`) for an unknown id.
        """
        return self._service.sc_for(document_id)

    @property
    def pipeline(self) -> SCPipeline:
        return self._pipeline

    @property
    def service(self) -> PreparationService:
        """The preparation service that holds every document."""
        return self._service

    def __contains__(self, document_id: str) -> bool:
        return document_id in self._service

    def __len__(self) -> int:
        return len(self._service)


class DocumentTransmitterService:
    """The servant behind the ORB name ``"transmitter"``.

    Parameters
    ----------
    gateway:
        The document store; its preparation service does the work.
    packet_size:
        Default packet size for requests that don't name one.
    """

    def __init__(self, gateway: DatabaseGateway, packet_size: int = 256) -> None:
        self._service = gateway.service
        self._packet_size = packet_size

    @property
    def service(self) -> PreparationService:
        return self._service

    def fetch(self, request: FetchRequest) -> Tuple[FetchManifest, PreparedDocument]:
        """Prepare one document for transmission per *request*."""
        prep = self.prep_request(request)
        prepared = self._service.prepare(request.document_id, prep)
        return self._manifest(prepared), prepared

    def prep_request(self, request: FetchRequest) -> PrepRequest:
        """Translate a prototype :class:`FetchRequest` to the prep API."""
        return PrepRequest(
            lod=request.lod_name,
            measure=request.measure,
            query=request.query_text,
            gamma=request.gamma,
            packet_size=(
                request.packet_size
                if request.packet_size is not None
                else self._packet_size
            ),
        )

    @staticmethod
    def _manifest(prepared: PreparedDocument) -> FetchManifest:
        units = []
        offset = 0
        for segment in prepared.segments or ():
            units.append(
                UnitDescriptor(
                    label=segment.label,
                    offset=offset,
                    size=segment.size,
                    content=segment.content,
                )
            )
            offset += segment.size
        return FetchManifest(
            document_id=prepared.document_id,
            measure=prepared.measure,
            total_bytes=offset,
            m=prepared.m,
            n=prepared.n,
            units=units,
        )
