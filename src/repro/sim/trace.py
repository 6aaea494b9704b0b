"""Message tracing for debugging protocol runs.

Attach a :class:`MessageTrace` to a :class:`~repro.sim.network.SimNetwork`
and every sent message is recorded as a :class:`TraceEvent` in a bounded
ring buffer. Filters select by server, message type, or time window, and
:meth:`render` produces the compact timeline that makes protocol debugging
bearable::

    trace = MessageTrace.attach(exp.network, capacity=10_000)
    ...run the experiment...
    print(trace.render(between=(4_000, 4_200), types=("Prepare", "Promise")))

Tracing wraps the network's send path non-invasively, so it can be attached
to any already-built experiment.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.omni.messages import Envelope
from repro.sim.network import SimNetwork


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One sent (or dropped) message.

    ``kind`` is the payload type name for sends, or ``drop:<reason>``
    when the link model discarded the message (``link_down``, ``loss``,
    ``in_flight_cut``); for drops ``detail`` still describes the payload,
    so timelines show what vanished and why. ``trace_id`` is the causal
    trace carried by the message's envelope, when present.
    """

    at_ms: float
    src: int
    dst: int
    kind: str
    detail: str
    trace_id: str = ""

    def __str__(self) -> str:
        line = (f"{self.at_ms:10.1f}ms  {self.src}->{self.dst}  "
                f"{self.kind:<16s} {self.detail}")
        if self.trace_id:
            line += f"  ~{self.trace_id}"
        return line


def _trace_id_of(msg: Any) -> str:
    """The envelope's causal trace id, when the message carries one."""
    ctx = getattr(msg, "trace", None)
    return ctx.trace_id if ctx is not None else ""


def _describe(msg: Any) -> Tuple[str, str]:
    """(kind, one-line detail) for any protocol message."""
    payload = msg.payload if isinstance(msg, Envelope) else msg
    kind = type(payload).__name__
    fields = []
    for attr in ("n", "term", "ballot", "view", "round", "seq",
                 "decided_idx", "log_idx", "sync_idx", "prev_idx",
                 "leader_commit", "trimmed_idx", "config_id",
                 "from_idx", "to_idx"):
        value = getattr(payload, attr, None)
        if value is not None:
            fields.append(f"{attr}={value}")
    entries = getattr(payload, "entries", None)
    if entries is None:
        entries = getattr(payload, "suffix", None)
    if entries is not None:
        fields.append(f"|entries|={len(entries)}")
    return kind, " ".join(fields)


class MessageTrace:
    """A bounded ring buffer of sent messages."""

    def __init__(self, capacity: int = 10_000):
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._enabled = True
        self._network: Optional[SimNetwork] = None
        self._original_send = None
        self._wrapper = None
        self._original_drop = None
        self._drop_wrapper = None

    # -- attachment ----------------------------------------------------------

    @classmethod
    def attach(cls, network: SimNetwork, capacity: int = 10_000) -> "MessageTrace":
        """Wrap ``network.send`` so every message is recorded, and hook the
        network's drop callback so link drops appear as ``drop:<reason>``
        events.

        Keep the returned trace and call :meth:`detach` to restore the
        original send path. Traces stack; detach in reverse attach order.
        """
        trace = cls(capacity=capacity)
        original = network.send
        original_drop = network.drop_callback

        def traced_send(src: int, dst: int, msg: Any) -> None:
            trace.record(network.now, src, dst, msg)
            original(src, dst, msg)

        def traced_drop(at_ms: float, src: int, dst: int, msg: Any,
                        reason: str) -> None:
            trace.record_drop(at_ms, src, dst, msg, reason)
            if original_drop is not None:
                original_drop(at_ms, src, dst, msg, reason)

        network.send = traced_send  # type: ignore[method-assign]
        network.drop_callback = traced_drop
        trace._network = network
        trace._original_send = original
        trace._wrapper = traced_send
        trace._original_drop = original_drop
        trace._drop_wrapper = traced_drop
        return trace

    def detach(self) -> None:
        """Restore the network's original ``send``, stopping the trace.

        Raises :class:`RuntimeError` when another wrapper was attached on
        top of this one and is still active (detach LIFO), or when the
        trace was never attached. Idempotent once detached.
        """
        if self._network is None:
            return
        if self._network.send is not self._wrapper:
            raise RuntimeError(
                "cannot detach: network.send was wrapped again after this "
                "trace attached (detach the newer wrapper first)"
            )
        self._network.send = self._original_send  # type: ignore[method-assign]
        if self._network.drop_callback is self._drop_wrapper:
            self._network.drop_callback = self._original_drop
        self._network = None
        self._original_send = None
        self._wrapper = None
        self._original_drop = None
        self._drop_wrapper = None

    @property
    def attached(self) -> bool:
        return self._network is not None

    def record(self, at_ms: float, src: int, dst: int, msg: Any) -> None:
        if not self._enabled:
            return
        kind, detail = _describe(msg)
        self._events.append(
            TraceEvent(at_ms, src, dst, kind, detail, _trace_id_of(msg)))

    def record_drop(self, at_ms: float, src: int, dst: int, msg: Any,
                    reason: str) -> None:
        """Record a message the link model discarded (kind ``drop:<reason>``)."""
        if not self._enabled:
            return
        kind, detail = _describe(msg)
        self._events.append(TraceEvent(
            at_ms, src, dst, f"drop:{reason}", f"{kind} {detail}".rstrip(),
            _trace_id_of(msg)))

    def pause(self) -> None:
        self._enabled = False

    def resume(self) -> None:
        self._enabled = True

    # -- querying --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        involving: Optional[int] = None,
        types: Optional[Sequence[str]] = None,
        between: Optional[Tuple[float, float]] = None,
    ) -> List[TraceEvent]:
        """Filtered view of the recorded events, oldest first."""
        out = []
        for event in self._events:
            if src is not None and event.src != src:
                continue
            if dst is not None and event.dst != dst:
                continue
            if involving is not None and involving not in (event.src, event.dst):
                continue
            if types is not None and event.kind not in types:
                continue
            if between is not None and not (between[0] <= event.at_ms < between[1]):
                continue
            out.append(event)
        return out

    def counts_by_type(self) -> Counter:
        """Message volume per type — a quick profile of a run."""
        return Counter(event.kind for event in self._events)

    def render(self, limit: int = 100, **filters) -> str:
        """A printable timeline of the (filtered) last ``limit`` events."""
        selected = self.events(**filters)[-limit:]
        if not selected:
            return "(no matching events)"
        return "\n".join(str(event) for event in selected)
