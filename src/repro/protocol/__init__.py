"""repro.protocol — the sans-IO §4.2 transfer protocol engine.

One pure state machine (:class:`TransferEngine`) owns the paper's
transfer decision logic; the transport session, the oracle-mode
simulator, and the broker prototype are thin drivers around it.  See
``docs/architecture.md`` for the layering diagram.

This package must stay I/O-free: it may import only :mod:`repro.obs`
(for the telemetry bridge) and the standard library.  The layering
lint (``tools/check_layering.py``) enforces this in CI.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): the engine's users do not load the fault injector,
# and through it the channel models.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.protocol.bridge": ("TelemetryBridge",),
    "repro.protocol.engine": ("DEFAULT_MAX_ROUNDS", "DEFAULT_ROUND_TIMEOUT", "TransferEngine"),
    "repro.protocol.events": (
        "Decoded",
        "EarlyStop",
        "Effect",
        "Failed",
        "FrameCorrupt",
        "FrameDelivered",
        "FrameLost",
        "InputEvent",
        "RenderPrefix",
        "RoundEnded",
        "SendRound",
        "Stalled",
        "TERMINAL_EFFECTS",
    ),
    "repro.protocol.faults": ("FaultInjector",),
})

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_ROUND_TIMEOUT",
    "TransferEngine",
    "TelemetryBridge",
    "FaultInjector",
    "FrameDelivered",
    "FrameCorrupt",
    "FrameLost",
    "RoundEnded",
    "InputEvent",
    "SendRound",
    "RenderPrefix",
    "Stalled",
    "EarlyStop",
    "Decoded",
    "Failed",
    "Effect",
    "TERMINAL_EFFECTS",
]
