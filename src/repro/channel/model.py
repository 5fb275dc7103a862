"""Seeded channel models: one verdict vocabulary for every layer.

A :class:`ChannelModel` answers one question per frame — what does the
channel do to it? — with one of four verdicts: :data:`PASS` (deliver
untouched), :data:`DROP` (silently lost), :data:`CORRUPT` (arrives
damaged, caught by the frame CRC), or :data:`DISCONNECT` (the link is
severed / a disconnection window opens).  Consumers map the verdicts
onto their own medium: the event-level injector rewrites typed engine
events, the byte-level proxy swallows or garbles wire messages, the
simulated wireless channel turns them into deliveries with air time.

Because every consumer calls :meth:`~ChannelModel.decide` exactly once
per frame and the models draw only from their own seeded RNG, a seeded
model instance produces the *same* verdict schedule no matter which
layer consumes it — the cross-layer parity the chaos suite pins.

Counter semantics are uniform: ``dropped`` counts frames lost outright
(including those swallowed inside a disconnection window), ``corrupted``
counts damaged frames, and ``disconnects`` counts severed-link events —
a ``DISCONNECT`` verdict is *not* a drop.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

#: The four verdicts a :class:`ChannelModel` can return for one frame.
PASS = "pass"
DROP = "drop"
CORRUPT = "corrupt"
DISCONNECT = "disconnect"

#: All verdicts, in severity order.
VERDICTS = (PASS, CORRUPT, DROP, DISCONNECT)


def _check_probability(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be a probability, got {p}")
    return p


class ChannelModel:
    """Base class: seeded per-frame verdicts plus a bandwidth view.

    Subclasses implement :meth:`decide`; the base owns the uniform
    counters and the optional time/bandwidth view
    (:attr:`bandwidth_kbps` / :meth:`transmission_time`) that
    timing-aware consumers — the simulated wireless channels — read.
    Models whose bandwidth never varies may leave
    :attr:`bandwidth_kbps` ``None`` and let the consumer use its own.
    """

    def __init__(self, *, bandwidth_kbps: Optional[float] = None) -> None:
        if bandwidth_kbps is not None and bandwidth_kbps <= 0:
            raise ValueError(
                f"bandwidth_kbps must be positive, got {bandwidth_kbps}"
            )
        #: Current link bandwidth in kbit/s, or ``None`` when the model
        #: has no opinion (time-varying models update this per frame).
        self.bandwidth_kbps = bandwidth_kbps
        self.passed = 0
        self.dropped = 0
        self.corrupted = 0
        self.disconnects = 0

    # -- verdicts ----------------------------------------------------------

    def decide(self) -> str:
        """Consume the schedule for one frame and return its verdict."""
        raise NotImplementedError

    @property
    def disconnected(self) -> bool:
        """True while a disconnection window is swallowing frames."""
        return False

    # -- counters ----------------------------------------------------------

    @property
    def frames(self) -> int:
        """Total frames decided so far."""
        return self.passed + self.dropped + self.corrupted + self.disconnects

    def counters(self) -> Dict[str, int]:
        """The uniform counter snapshot every consumer exposes."""
        return {
            "frames": self.frames,
            "passed": self.passed,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "disconnects": self.disconnects,
        }

    def reset_counters(self) -> None:
        self.passed = 0
        self.dropped = 0
        self.corrupted = 0
        self.disconnects = 0

    def _record(self, verdict: str) -> str:
        if verdict is PASS:
            self.passed += 1
        elif verdict is DROP:
            self.dropped += 1
        elif verdict is CORRUPT:
            self.corrupted += 1
        else:
            self.disconnects += 1
        return verdict

    # -- time/bandwidth view ----------------------------------------------

    def transmission_time(
        self, size_bytes: int, default_bandwidth_kbps: Optional[float] = None
    ) -> float:
        """Air time of *size_bytes* at the model's current bandwidth.

        Falls back to *default_bandwidth_kbps* when the model carries
        no bandwidth of its own.
        """
        bandwidth = self.bandwidth_kbps
        if bandwidth is None:
            bandwidth = default_bandwidth_kbps
        if bandwidth is None or bandwidth <= 0:
            raise ValueError("no bandwidth configured for this model")
        return size_bytes * 8.0 / (bandwidth * 1000.0)


class IIDModel(ChannelModel):
    """Independent per-frame drop/corrupt/disconnect (the paper's α).

    Draw order is fixed — disconnect, then drop, then corrupt, each
    drawn only when its probability is positive — so seeded schedules
    and the protocol golden fixtures replay bit-for-bit.

    Parameters
    ----------
    rng:
        Dedicated seeded RNG; one draw per positive-probability fault
        class per frame, never shared with the consumer's own RNG.
    drop / corrupt / disconnect:
        Per-frame probabilities.
    outage_events:
        Length of a disconnection window in frames: a ``DISCONNECT``
        verdict is followed by ``outage_events - 1`` unconditional
        ``DROP`` verdicts.
    always_draw_corrupt:
        Legacy draw discipline of the simulated
        :class:`~repro.transport.channel.WirelessChannel`, which burns
        one corruption draw per undropped frame even at α = 0.  Keeps
        seeded transport schedules byte-exact; leave False elsewhere.
    """

    def __init__(
        self,
        *,
        rng: Optional[random.Random] = None,
        drop: float = 0.0,
        corrupt: float = 0.0,
        disconnect: float = 0.0,
        outage_events: int = 0,
        always_draw_corrupt: bool = False,
        bandwidth_kbps: Optional[float] = None,
    ) -> None:
        for name, p in (("drop", drop), ("corrupt", corrupt), ("disconnect", disconnect)):
            _check_probability(name, p)
        if outage_events < 0:
            raise ValueError(f"outage_events must be >= 0, got {outage_events}")
        super().__init__(bandwidth_kbps=bandwidth_kbps)
        self.rng = rng if rng is not None else random.Random(0)
        self.drop = drop
        self.corrupt = corrupt
        self.disconnect = disconnect
        self.outage_events = outage_events
        self.always_draw_corrupt = always_draw_corrupt
        self._outage_left = 0

    @property
    def disconnected(self) -> bool:
        return self._outage_left > 0

    def decide(self) -> str:
        if self._outage_left > 0:
            self._outage_left -= 1
            return self._record(DROP)
        rng = self.rng
        if self.disconnect > 0.0 and rng.random() < self.disconnect:
            self._outage_left = max(0, self.outage_events - 1)
            return self._record(DISCONNECT)
        if self.drop > 0.0 and rng.random() < self.drop:
            return self._record(DROP)
        if (self.corrupt > 0.0 or self.always_draw_corrupt) and (
            rng.random() < self.corrupt
        ):
            return self._record(CORRUPT)
        return self._record(PASS)

    def __repr__(self) -> str:
        return (
            f"IIDModel(drop={self.drop:g}, corrupt={self.corrupt:g}, "
            f"disconnect={self.disconnect:g}, outage_events={self.outage_events})"
        )


# -- Gilbert–Elliott stationary math (the single implementation) -----------


def stationary_bad_probability(good_to_bad: float, bad_to_good: float) -> float:
    """Long-run fraction of time a two-state chain spends in BAD."""
    _check_probability("good_to_bad", good_to_bad)
    _check_probability("bad_to_good", bad_to_good)
    if good_to_bad + bad_to_good == 0:
        raise ValueError("the chain must be able to change state")
    return good_to_bad / (good_to_bad + bad_to_good)


def stationary_alpha(
    good_alpha: float, bad_alpha: float, good_to_bad: float, bad_to_good: float
) -> float:
    """The chain's stationary corruption rate α*."""
    _check_probability("good_alpha", good_alpha)
    _check_probability("bad_alpha", bad_alpha)
    pi_bad = stationary_bad_probability(good_to_bad, bad_to_good)
    return pi_bad * bad_alpha + (1.0 - pi_bad) * good_alpha


def matched_transitions(
    alpha: float,
    burst_length: float = 5.0,
    good_alpha: float = 0.02,
    bad_alpha: float = 0.95,
) -> Tuple[float, float]:
    """Transition probabilities whose stationary rate equals *alpha*.

    Solves for ``(good_to_bad, bad_to_good)`` given the desired mean
    burst length (``1 / bad_to_good``) and the per-state corruption
    rates.  Requires ``good_alpha < alpha < bad_alpha``.  This is the
    one matched-α implementation: both the transport channel's
    ``matched_to_alpha`` and :meth:`GilbertElliottModel.matched_to_alpha`
    call it.
    """
    _check_probability("alpha", alpha)
    if not good_alpha < alpha < bad_alpha:
        raise ValueError(
            f"alpha must lie strictly between good_alpha ({good_alpha}) "
            f"and bad_alpha ({bad_alpha})"
        )
    if burst_length < 1.0:
        raise ValueError("burst_length must be >= 1 packet")
    bad_to_good = 1.0 / burst_length
    # π_bad from the stationary-rate equation.
    pi_bad = (alpha - good_alpha) / (bad_alpha - good_alpha)
    good_to_bad = bad_to_good * pi_bad / (1.0 - pi_bad)
    if good_to_bad > 1.0:
        raise ValueError(
            "burst_length too short for the requested alpha; increase it"
        )
    return good_to_bad, bad_to_good


class GilbertElliottModel(ChannelModel):
    """Two-state bursty corruption (GOOD/BAD fade model).

    Per frame: corrupt with ``good_alpha`` or ``bad_alpha`` depending
    on the state, then flip the state with ``good_to_bad`` /
    ``bad_to_good`` — exactly two RNG draws per frame.  Hand the same
    ``rng`` to a :class:`~repro.transport.channel.ModelChannel` and
    the model's decisions and the channel's byte garbling share one
    stream.
    """

    def __init__(
        self,
        *,
        rng: Optional[random.Random] = None,
        good_alpha: float = 0.02,
        bad_alpha: float = 0.95,
        good_to_bad: float = 0.05,
        bad_to_good: float = 0.3,
        start_in_bad: bool = False,
        bandwidth_kbps: Optional[float] = None,
    ) -> None:
        _check_probability("good_alpha", good_alpha)
        _check_probability("bad_alpha", bad_alpha)
        _check_probability("good_to_bad", good_to_bad)
        _check_probability("bad_to_good", bad_to_good)
        if good_to_bad + bad_to_good == 0:
            raise ValueError("the chain must be able to change state")
        super().__init__(bandwidth_kbps=bandwidth_kbps)
        self.rng = rng if rng is not None else random.Random(0)
        self.good_alpha = good_alpha
        self.bad_alpha = bad_alpha
        self.good_to_bad = good_to_bad
        self.bad_to_good = bad_to_good
        self.in_bad_state = start_in_bad
        #: instrumentation: frames decided while in the BAD state.
        self.bad_frames = 0

    @classmethod
    def matched_to_alpha(
        cls,
        alpha: float,
        burst_length: float = 5.0,
        bad_alpha: float = 0.95,
        good_alpha: float = 0.02,
        rng: Optional[random.Random] = None,
        start_in_bad: bool = False,
        bandwidth_kbps: Optional[float] = None,
    ) -> "GilbertElliottModel":
        """A bursty model whose stationary corruption rate equals *alpha*."""
        good_to_bad, bad_to_good = matched_transitions(
            alpha, burst_length, good_alpha=good_alpha, bad_alpha=bad_alpha
        )
        return cls(
            rng=rng,
            good_alpha=good_alpha,
            bad_alpha=bad_alpha,
            good_to_bad=good_to_bad,
            bad_to_good=bad_to_good,
            start_in_bad=start_in_bad,
            bandwidth_kbps=bandwidth_kbps,
        )

    @property
    def stationary_bad_probability(self) -> float:
        return stationary_bad_probability(self.good_to_bad, self.bad_to_good)

    @property
    def stationary_alpha(self) -> float:
        return stationary_alpha(
            self.good_alpha, self.bad_alpha, self.good_to_bad, self.bad_to_good
        )

    def expected_burst_length(self) -> float:
        """Mean number of consecutive frames spent in one BAD visit."""
        if self.bad_to_good == 0:
            return float("inf")
        return 1.0 / self.bad_to_good

    def decide(self) -> str:
        if self.in_bad_state:
            self.bad_frames += 1
        probability = self.bad_alpha if self.in_bad_state else self.good_alpha
        corrupted = self.rng.random() < probability
        # State transition applies after the frame (per-frame steps).
        if self.in_bad_state:
            if self.rng.random() < self.bad_to_good:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.good_to_bad:
                self.in_bad_state = True
        return self._record(CORRUPT if corrupted else PASS)

    def __repr__(self) -> str:
        return (
            f"GilbertElliottModel(alpha*={self.stationary_alpha:.3f}, "
            f"burst~{self.expected_burst_length():.1f})"
        )


class RecordingModel(ChannelModel):
    """Wraps any model and records its verdict schedule.

    Used by the cross-layer parity suite (and handy when debugging a
    chaos run): ``recorder.verdicts`` is the exact sequence the wrapped
    model produced, no matter which layer consumed it.  All counters
    and views delegate to the wrapped model.
    """

    def __init__(self, inner: ChannelModel) -> None:
        # Deliberately no super().__init__(): all state lives on the
        # wrapped model; the wrapper only keeps the verdict log.
        self.inner = inner
        self.verdicts: List[str] = []

    def decide(self) -> str:
        verdict = self.inner.decide()
        self.verdicts.append(verdict)
        return verdict

    @property
    def disconnected(self) -> bool:
        return self.inner.disconnected

    @property
    def bandwidth_kbps(self) -> Optional[float]:  # type: ignore[override]
        return self.inner.bandwidth_kbps

    @property
    def frames(self) -> int:
        return self.inner.frames

    def counters(self) -> Dict[str, int]:
        return self.inner.counters()

    def reset_counters(self) -> None:
        self.inner.reset_counters()
        self.verdicts.clear()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
