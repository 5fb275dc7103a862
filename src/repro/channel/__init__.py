"""repro.channel — the one seeded channel-model core.

The paper's premise is a *weakly-connected* channel: "occasional
disconnection during transmission ... is common" (§4).  Every layer
that needs adversarial channel conditions — the event-level
:class:`~repro.protocol.FaultInjector`, the byte-level
:class:`~repro.net.chaos.ChaosProxy`, and the timing-aware
:class:`~repro.transport.channel.WirelessChannel` family — consults
one of the models defined here, so a seeded schedule means the same
thing at every layer:

* :class:`IIDModel` — independent per-frame drop/corrupt/disconnect
  (the paper's i.i.d. α, in a fixed draw order);
* :class:`GilbertElliottModel` — two-state bursty corruption, with
  :meth:`~GilbertElliottModel.matched_to_alpha` for apples-to-apples
  stationary loss;
* :class:`TraceModel` — time-varying bandwidth / handoff / outage
  schedules loaded from a small JSON trace format.

Layering: this package sits *below* :mod:`repro.protocol` in the
import DAG — it may use only the standard library, :mod:`repro.util`,
and :mod:`repro.obs` (enforced by ``tools/check_layering.py``).
"""

from repro.channel.model import (
    CORRUPT,
    DISCONNECT,
    DROP,
    PASS,
    VERDICTS,
    ChannelModel,
    GilbertElliottModel,
    IIDModel,
    RecordingModel,
    matched_transitions,
    stationary_alpha,
    stationary_bad_probability,
)
from repro.channel.spec import parse_model_spec
from repro.channel.trace import TraceModel, TraceSegment

__all__ = [
    "PASS",
    "DROP",
    "CORRUPT",
    "DISCONNECT",
    "VERDICTS",
    "ChannelModel",
    "IIDModel",
    "GilbertElliottModel",
    "TraceModel",
    "TraceSegment",
    "RecordingModel",
    "parse_model_spec",
    "stationary_alpha",
    "stationary_bad_probability",
    "matched_transitions",
]
