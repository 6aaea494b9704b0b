"""The cluster health observatory: connectivity matrix + gray failures.

Omni-Paxos's central claim is that *connectivity*, not mere liveness,
decides who can lead (paper section 5.2): BLE only elects quorum-connected
servers. This module makes that connectivity state observable:

- :class:`ConnectivityMatrix` assembles each server's per-round
  :class:`~repro.obs.events.HeartbeatViewReported` view into an N×N
  believed-link-state matrix with per-link freshness. Server ``a``
  believes the link to ``b`` is up exactly when ``b``'s reply made it into
  ``a``'s last closed heartbeat round — which requires *both* directions
  (request out, reply back), so the matrix is comparable to the network's
  full-duplex ground truth, and disagreement between the two is itself a
  first-class metric (:func:`matrix_disagreements`).
- :class:`GrayFailureDetector` scores each peer from per-link RTT EWMAs
  and heartbeat-beacon inter-arrival jitter. A *gray-failed* peer — e.g. a
  server running on a 100×-slowed clock — still answers heartbeat requests
  promptly (replies are message-driven, not timer-driven), so the QC flag
  and the matrix stay green; what gives it away is the stretched interval
  between its *own* outgoing beacons and the inflated RTTs it induces. The
  detector emits :class:`~repro.obs.events.PeerDegraded` /
  :class:`~repro.obs.events.PeerRecovered`, deliberately distinct from the
  crash/partition vocabulary (fail-slow ≠ fail-stop: docs/CHAOS.md).
- :class:`HealthMonitor` is a registry sink that folds the health event
  stream into a live snapshot for the ``repro-obs watch`` dashboard.

Everything here is passive bookkeeping over events the protocols already
emit; nothing feeds back into protocol decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import (
    EventRecord,
    HeartbeatViewReported,
    PeerDegraded,
    PeerRecovered,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: Ground truth shape: ``{(a, b): both_directions_up}`` over ordered pairs.
GroundTruth = Dict[Tuple[int, int], bool]


def ground_truth_from_network(network: Any,
                              pids: Sequence[int]) -> GroundTruth:
    """The network's actual link state as a believed-up-comparable dict.

    ``network`` needs ``is_up(a, b)`` (directed); a server only *hears* a
    peer when both directions work — the heartbeat request must arrive and
    the reply must return — so the truth for ``(a, b)`` is full duplex.
    Works for :class:`~repro.sim.network.SimNetwork` unchanged.
    """
    truth: GroundTruth = {}
    for a in pids:
        for b in pids:
            if a != b:
                truth[(a, b)] = bool(
                    network.is_up(a, b) and network.is_up(b, a)
                )
    return truth


@dataclass
class LinkBelief:
    """One server's latest believed state of one directed link."""

    up: bool
    #: Registry timestamp of the view that produced this belief.
    at_ms: float
    #: Heartbeat round the belief came from.
    round: int


class ConnectivityMatrix:
    """N×N believed-link-state matrix assembled from heartbeat views.

    Row ``a``, column ``b`` answers "does server ``a`` currently believe
    it can exchange heartbeats with ``b``?" — with per-link freshness so a
    silent server's last claims visibly go stale instead of lingering as
    facts.
    """

    def __init__(self, stale_after_ms: Optional[float] = None):
        #: Latest full view per reporting server.
        self.views: Dict[int, HeartbeatViewReported] = {}
        #: When each server last reported.
        self.reported_at: Dict[int, float] = {}
        self._stale_after_ms = stale_after_ms

    def observe(self, view: HeartbeatViewReported, at_ms: float) -> None:
        self.views[view.pid] = view
        self.reported_at[view.pid] = at_ms

    def pids(self) -> Tuple[int, ...]:
        """Every server seen as reporter or peer, sorted."""
        seen = set(self.views)
        for view in self.views.values():
            seen.update(view.peers_heard)
        return tuple(sorted(seen))

    def believes_up(self, a: int, b: int) -> Optional[bool]:
        """``a``'s belief about the link to ``b``; None when ``a`` has
        never reported (no basis for a claim either way)."""
        if a == b:
            return True
        view = self.views.get(a)
        if view is None:
            return None
        return b in view.peers_heard

    def belief(self, a: int, b: int) -> Optional[LinkBelief]:
        view = self.views.get(a)
        if view is None or a == b:
            return None
        return LinkBelief(
            up=b in view.peers_heard,
            at_ms=self.reported_at[a],
            round=view.round,
        )

    def freshness_ms(self, pid: int, now_ms: float) -> Optional[float]:
        """How long ago ``pid`` last reported, or None if never."""
        at = self.reported_at.get(pid)
        return None if at is None else now_ms - at

    def is_stale(self, pid: int, now_ms: float) -> bool:
        if self._stale_after_ms is None:
            return False
        age = self.freshness_ms(pid, now_ms)
        return age is None or age > self._stale_after_ms

    def as_dict(self) -> Dict[int, Tuple[int, ...]]:
        """``{reporter: sorted peers it believes reachable}``."""
        return {
            pid: tuple(sorted(view.peers_heard))
            for pid, view in sorted(self.views.items())
        }


def matrix_disagreements(
    matrix: ConnectivityMatrix,
    truth: GroundTruth,
    now_ms: Optional[float] = None,
) -> List[Tuple[int, int, Optional[bool], bool]]:
    """Links where belief and ground truth differ.

    Returns ``(a, b, believed, actual)`` tuples — ``believed`` is None for
    servers that never reported. Stale reporters (when the matrix has a
    staleness bound and ``now_ms`` is given) are skipped: a claim known to
    be outdated is lag, not disagreement.
    """
    out: List[Tuple[int, int, Optional[bool], bool]] = []
    for (a, b), actual in sorted(truth.items()):
        if now_ms is not None and matrix.is_stale(a, now_ms):
            continue
        believed = matrix.believes_up(a, b)
        if believed is None or believed != bool(actual):
            out.append((a, b, believed, bool(actual)))
    return out


@dataclass
class PeerScore:
    """The gray-failure detector's running state for one peer."""

    #: EWMA of the interval between the peer's heartbeat beacons (ms).
    beacon_interval_ewma: Optional[float] = None
    last_beacon_at: Optional[float] = None
    #: EWMA of measured request->reply RTTs to the peer (ms).
    rtt_ewma: Optional[float] = None
    #: Smallest RTT EWMA ever seen — the healthy baseline.
    rtt_baseline: Optional[float] = None
    degraded: bool = False
    #: Last computed observed/expected ratio and which signal tripped it.
    score: float = 0.0
    reason: str = ""


class GrayFailureDetector:
    """Score peers from beacon jitter and RTT EWMAs; flag fail-slow peers.

    Two independent signals, both ratios of observed over expected:

    - **Beacon interval**: each peer broadcasts a heartbeat request every
      ``expected_interval_ms`` *by its own clock*. A peer whose clock (or
      scheduler, or GC, or disk) runs slow stretches that interval at
      every observer, even though its message-driven replies stay prompt —
      precisely the gray failure that heartbeat liveness misses.
    - **RTT**: the request->reply round trip per link, compared against
      the smallest EWMA ever seen on that link (the healthy baseline), so
      a delay spike registers without any configured latency model. Both
      sides of the ratio are floored at ``min_rtt_floor_ms`` so
      sub-floor scheduling noise (a loaded event loop, localhost jitter)
      can never trip the detector — only spikes past
      ``degraded_factor × floor`` register on fast links.

    A peer is flagged ``degraded`` when either ratio reaches
    ``degraded_factor`` and cleared when the worst ratio falls back under
    ``recover_factor`` (hysteresis so a borderline peer doesn't flap).
    """

    def __init__(
        self,
        pid: int,
        expected_interval_ms: float,
        degraded_factor: float = 3.0,
        recover_factor: float = 1.5,
        alpha: float = 0.3,
        min_rtt_floor_ms: float = 5.0,
        interval_cap_factor: float = 10.0,
    ):
        self.pid = pid
        self.expected_interval_ms = expected_interval_ms
        self.degraded_factor = degraded_factor
        self.recover_factor = recover_factor
        self.alpha = alpha
        self.min_rtt_floor_ms = min_rtt_floor_ms
        self.interval_cap_factor = interval_cap_factor
        self.peers: Dict[int, PeerScore] = {}
        self._obs: MetricsRegistry = NULL_REGISTRY

    def bind(self, registry: MetricsRegistry) -> None:
        """Emit events/metrics into ``registry`` from now on."""
        self._obs = registry

    # -- signal intake -------------------------------------------------------

    def observe_beacon(self, peer: int, now_ms: float) -> None:
        """A heartbeat request from ``peer`` arrived at ``now_ms``."""
        state = self.peers.setdefault(peer, PeerScore())
        last = state.last_beacon_at
        state.last_beacon_at = now_ms
        if last is None:
            return
        # Cap the sample: a total beacon *gap* (partition, crash) would
        # otherwise land as one enormous interval and keep the peer
        # flagged long after the link heals. Gray failure is stretched-
        # but-present beacons; an outright silence is the fail-stop
        # detectors' job, so one sample may pull the EWMA at most
        # ``interval_cap_factor`` past expected.
        interval = min(now_ms - last,
                       self.interval_cap_factor * self.expected_interval_ms)
        if state.beacon_interval_ewma is None:
            state.beacon_interval_ewma = interval
        else:
            state.beacon_interval_ewma += self.alpha * (
                interval - state.beacon_interval_ewma
            )
        self._rescore(peer, state)

    def observe_rtt(self, peer: int, rtt_ms: float) -> None:
        """A measured request->reply round trip to ``peer``."""
        state = self.peers.setdefault(peer, PeerScore())
        if state.rtt_ewma is None:
            state.rtt_ewma = rtt_ms
        else:
            state.rtt_ewma += self.alpha * (rtt_ms - state.rtt_ewma)
        floored = max(state.rtt_ewma, self.min_rtt_floor_ms)
        if state.rtt_baseline is None or floored < state.rtt_baseline:
            state.rtt_baseline = floored
        self._rescore(peer, state)

    # -- scoring -------------------------------------------------------------

    def _ratios(self, state: PeerScore) -> List[Tuple[float, str]]:
        out: List[Tuple[float, str]] = []
        if state.beacon_interval_ewma is not None:
            out.append((
                state.beacon_interval_ewma / self.expected_interval_ms,
                "heartbeat_interval",
            ))
        if state.rtt_ewma is not None and state.rtt_baseline is not None:
            out.append((
                max(state.rtt_ewma, self.min_rtt_floor_ms)
                / state.rtt_baseline,
                "rtt",
            ))
        return out

    def _rescore(self, peer: int, state: PeerScore) -> None:
        ratios = self._ratios(state)
        if not ratios:
            return
        score, reason = max(ratios)
        state.score = score
        if not state.degraded and score >= self.degraded_factor:
            state.degraded = True
            state.reason = reason
            if self._obs.enabled:
                self._obs.emit(PeerDegraded(
                    pid=self.pid, peer=peer, score=round(score, 3),
                    reason=reason,
                ))
                self._obs.counter("repro_peer_degraded_total",
                                  pid=self.pid, peer=peer).inc()
                self._obs.gauge("repro_peer_degraded",
                                pid=self.pid, peer=peer).set(1.0)
        elif state.degraded and score <= self.recover_factor:
            state.degraded = False
            state.reason = ""
            if self._obs.enabled:
                self._obs.emit(PeerRecovered(
                    pid=self.pid, peer=peer, score=round(score, 3),
                ))
                self._obs.gauge("repro_peer_degraded",
                                pid=self.pid, peer=peer).set(0.0)

    # -- accessors -----------------------------------------------------------

    def degraded_peers(self) -> Tuple[int, ...]:
        return tuple(sorted(
            peer for peer, s in self.peers.items() if s.degraded
        ))

    def score_of(self, peer: int) -> float:
        state = self.peers.get(peer)
        return state.score if state is not None else 0.0

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """JSON-safe per-peer state (for ``status()`` and the admin API)."""
        return {
            peer: {
                "degraded": s.degraded,
                "score": round(s.score, 3),
                "reason": s.reason,
                "beacon_interval_ewma_ms": (
                    None if s.beacon_interval_ewma is None
                    else round(s.beacon_interval_ewma, 3)
                ),
                "rtt_ewma_ms": (
                    None if s.rtt_ewma is None else round(s.rtt_ewma, 3)
                ),
            }
            for peer, s in sorted(self.peers.items())
        }


@dataclass
class DegradedState:
    """Latest degradation verdict one observer holds about one peer."""

    score: float
    reason: str


class HealthMonitor:
    """A registry sink that folds health events into a live snapshot.

    Attach with ``registry.add_sink(monitor)``; the matrix and degraded
    map then track the run as it happens — this is what the ``repro-obs
    watch`` dashboard and the sim harness's cluster-level ``status()``
    read. Non-health events pass through untouched (and uncounted), so the
    monitor can share a registry with the JSON-lines exporter.
    """

    def __init__(self, stale_after_ms: Optional[float] = None):
        self.matrix = ConnectivityMatrix(stale_after_ms=stale_after_ms)
        #: ``{observer: {peer: DegradedState}}`` — currently-degraded only.
        self.degraded: Dict[int, Dict[int, DegradedState]] = {}
        self.last_at_ms = 0.0

    def record(self, record: EventRecord) -> None:
        event = record.event
        if isinstance(event, HeartbeatViewReported):
            self.matrix.observe(event, record.at_ms)
            self.last_at_ms = record.at_ms
        elif isinstance(event, PeerDegraded):
            self.degraded.setdefault(event.pid, {})[event.peer] = (
                DegradedState(score=event.score, reason=event.reason)
            )
            self.last_at_ms = record.at_ms
        elif isinstance(event, PeerRecovered):
            holders = self.degraded.get(event.pid)
            if holders is not None:
                holders.pop(event.peer, None)
                if not holders:
                    del self.degraded[event.pid]
            self.last_at_ms = record.at_ms

    def degraded_pairs(self) -> List[Tuple[int, int, DegradedState]]:
        return [
            (observer, peer, state)
            for observer, peers in sorted(self.degraded.items())
            for peer, state in sorted(peers.items())
        ]

    def replay(self, records: Sequence[EventRecord]) -> None:
        """Fold an already-exported event list (post-hoc watch mode)."""
        for record in records:
            self.record(record)
