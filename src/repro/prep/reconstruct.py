"""The inverse of cooking: intact frames back into document bytes.

Every receiver — the unicast :class:`~repro.net.client.NetClient`, the
broadcast :class:`~repro.broadcast.receiver.CarouselReceiver` — ends a
transfer the same way: M intact cooked payloads go through the codec's
``reconstruct``.  This module is the layering shim that names that
step for the receivers, living in :mod:`repro.prep` because prep owns
the cook and therefore its inverse (and because the layering DAG lets
both ``repro.net`` and ``repro.broadcast`` import prep, while neither
may import the other).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.coding.packets import Frame, decode_frame
from repro.coding.rs import codec_for

__all__ = ["Frame", "parse_frame", "reconstruct_payload"]


def parse_frame(wire: bytes) -> Frame:
    """CRC-check one raw cooked frame (re-export of ``decode_frame``)."""
    return decode_frame(wire)


def reconstruct_payload(
    m: int,
    n: int,
    original_size: int,
    intact: Dict[int, bytes],
    *,
    systematic: bool = True,
    backend: Optional[object] = None,
) -> bytes:
    """Decode *intact* (sequence → payload) into the original bytes.

    Requires at least M intact payloads; the codec raises otherwise.
    Byte-identical across receivers: the decode is a pure function of
    the geometry and the intact set, so a carousel receiver holding any
    M packets reproduces exactly the unicast result.
    """
    return codec_for(m, n, systematic, backend).reconstruct(intact, original_size)
