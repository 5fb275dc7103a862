"""Network mode for the prototype broker (Figure 1 over real sockets).

The in-process :class:`~repro.prototype.broker.ObjectRequestBroker`
already hosts the server half of the paper's prototype — the
``transmitter`` servant that ranks, schedules, and cooks a document
per request.  :class:`BrokerDocumentStore` hands its delivery to the
asyncio network layer: it adapts the servant to the
:class:`~repro.net.server.NetServer` store contract, so every
networked fetch is one broker invocation and flows through the
registered interceptor chain (tracing and compression interceptors
see networked fetches too).

The store plugs into the same server builder as any other store; that
is how ``repro net serve --via-broker`` runs::

    broker = build_prototype(...)          # gateway + transmitter + ORB
    store = BrokerDocumentStore(broker)
    server = build_server(WorkerConfig(port=0, reuse_port=False), store)
    await server.start()
    ... clients fetch over TCP ...
    await server.stop()

(:func:`~repro.net.workers.build_server` and
:class:`~repro.net.workers.WorkerConfig` live in :mod:`repro.net.workers`.)
"""

from __future__ import annotations

from typing import Optional

from repro.prep import PreparedDocument, PrepRequest
from repro.prototype.broker import ObjectRequestBroker
from repro.prototype.messages import FetchRequest


class BrokerDocumentStore:
    """Adapts the ORB's ``transmitter`` servant to the net-store contract.

    Each ``prepare`` is one broker invocation of ``transmitter.fetch``
    — the document is prepared per request with the connection's LOD,
    query, and redundancy (falling back to the store's default
    :class:`PrepRequest`), exactly like an in-process browse.  The
    transmitter's preparation service caches the cooked result, so
    repeated identical requests share one build.  An unknown document
    raises the gateway's :class:`KeyError`.
    """

    def __init__(
        self,
        broker: ObjectRequestBroker,
        *,
        request: Optional[PrepRequest] = None,
    ) -> None:
        self.broker = broker
        self.request = request if request is not None else PrepRequest()

    def prepare(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> PreparedDocument:
        """Net-store ``prepare``: cook per the connection's parameters."""
        if request is None:
            request = self.request
        fetch = FetchRequest(
            document_id=document_id,
            query_text=request.query,
            lod_name=request.lod,
            gamma=request.gamma,
            packet_size=request.packet_size,
            measure=request.measure,
        )
        _manifest, prepared = self.broker.invoke("transmitter", "fetch", fetch)
        return prepared
