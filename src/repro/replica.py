"""The driving interface every protocol replica implements.

The simulator (:mod:`repro.sim`) and the asyncio runtime
(:mod:`repro.runtime`) drive protocol instances exclusively through this
interface, so Omni-Paxos, Raft, Multi-Paxos and VR are all interchangeable
in every experiment harness.

The contract is sans-io and pull-based:

- the harness calls :meth:`tick` regularly (timer resolution) and
  :meth:`on_message` for each delivered message,
- after any call the harness drains :meth:`take_outbox` and delivers the
  ``(dst, message)`` pairs subject to the network model,
- decided entries are drained with :meth:`take_decided` as
  ``(global_index, entry)`` pairs.

A replica may defer *building* messages until :meth:`take_outbox`: a
proposal is accepted, appended or refused inside :meth:`propose`, but it
is on the wire only after the next hand-out. Every leader replicates
this way — one ``AcceptDecide`` / ``AppendEntries`` / ``P2a`` per
follower for everything proposed since the last hand-out — so a driver
that hands out less often gets fewer, larger messages, and one that hands
out after every call (the simulator) gets one message per proposal.

A runtime with a thread to spare for the disk hands out through
:meth:`ReplicaHooks.take_ready` instead: the same output split at the
storage's fsync, so it can run the fsync off its event loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.health import GrayFailureDetector
from repro.obs.registry import Instrumented


@dataclass(slots=True)
class Ready:
    """One hand-out split at the disk, in the shape of etcd raft's
    ``Ready``/``Advance``.

    The caller sends ``early`` now. It runs every callable in ``fsyncs``
    (on any thread: each only waits for a disk), then, back on its own
    thread, calls ``synced`` and only after that lets ``outbox`` and
    ``decided`` out, each message behind whatever an earlier hand-out
    still holds for the same destination. With no ``fsyncs`` nothing is
    owed: ``outbox`` and ``decided`` leave at once, unless an earlier
    hand-out still waits on its fsync, and then they wait with it.
    After :meth:`Replica.crash` the caller drops every hand-out still
    waiting, ``synced`` included.
    """

    early: Sequence[Tuple[int, Any]] = ()
    outbox: Sequence[Tuple[int, Any]] = ()
    decided: Sequence[Tuple[int, Any]] = ()
    fsyncs: Tuple[Callable[[], None], ...] = ()
    synced: Optional[Callable[[], None]] = None


class ReplicaHooks(Instrumented):
    """The optional hooks a driver calls, each with a working default:
    ``set_observability(registry)`` (from ``Instrumented``: keep the
    registry, tell no one), :meth:`queue_depths`, :attr:`gray_detector`,
    :meth:`take_ready`.

    On a base of :class:`Replica`, not in its body: ``benchmarks/e2e``
    checks that its proxies override every function defined *there*, and
    they do not know these yet (ROADMAP 2(e)). So a proxy gets the
    defaults, and a proxied replica hands out synchronously.
    """

    def take_ready(self) -> Ready:
        """Everything to hand out, as a :class:`Ready`. Default: the
        synchronous hand-out, :meth:`Replica.take_outbox` then
        :meth:`Replica.take_decided`, with no fsync owed."""
        replica: Replica = self  # type: ignore[assignment]
        outbox = replica.take_outbox()
        return Ready(outbox=outbox, decided=replica.take_decided())

    def queue_depths(self) -> Dict[str, int]:
        """Instantaneous depths of the staging queues by name, sampled by
        a driver with a series collector attached (see
        :func:`repro.obs.prof.sample_queue_depths`). Default: none."""
        return {}

    @property
    def gray_detector(self) -> Optional[GrayFailureDetector]:
        """The detector a driver feeds measured peer round-trip times
        (``observe_rtt``), or None when the protocol keeps none."""
        return None


class Replica(ReplicaHooks, ABC):
    """A protocol replica the experiment harnesses can drive. A driver
    calls nothing that this class and :class:`ReplicaHooks` do not declare;
    what is optional is the three hooks there and :meth:`status` below."""

    @property
    @abstractmethod
    def pid(self) -> int:
        """This server's unique positive id."""

    @property
    @abstractmethod
    def members(self) -> Tuple[int, ...]:
        """Current configuration member pids (including this server)."""

    @property
    @abstractmethod
    def is_leader(self) -> bool:
        """True when this server currently acts as the leader."""

    @property
    @abstractmethod
    def leader_pid(self) -> Optional[int]:
        """Best-known leader pid, or None if unknown."""

    @abstractmethod
    def start(self, now_ms: float) -> None:
        """Arm timers; called once before any tick."""

    @abstractmethod
    def tick(self, now_ms: float) -> None:
        """Advance protocol timers to ``now_ms``."""

    @abstractmethod
    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        """Handle one message delivered from peer ``src``."""

    @abstractmethod
    def propose(self, entry: Any, now_ms: float) -> None:
        """Submit a client entry for replication.

        Implementations buffer or forward when not the leader; they raise
        :class:`repro.errors.StoppedError` / :class:`repro.errors.NotLeaderError`
        only when the entry cannot possibly be handled here.
        """

    def propose_batch(self, entries: List[Any], now_ms: float) -> None:
        """Submit several entries at once.

        Protocols override this to append the batch in one step; the
        default just loops over :meth:`propose`.
        """
        for entry in entries:
            self.propose(entry, now_ms)

    @abstractmethod
    def take_outbox(self) -> List[Tuple[int, Any]]:
        """Drain pending outgoing ``(dst, message)`` pairs, building the
        ones that replicate what was proposed since the last call."""

    @abstractmethod
    def take_decided(self) -> List[Tuple[int, Any]]:
        """Drain newly decided ``(global_index, entry)`` pairs."""

    # -- introspection (optional override) ---------------------------------

    def status(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of this replica's health view.

        The admin endpoint and the sim harness surface this verbatim;
        protocols override it to add their connectivity/ballot view. The
        default reports only the interface-level facts.
        """
        return {
            "pid": self.pid,
            "protocol": type(self).__name__,
            "phase": "leader" if self.is_leader else "follower",
            "leader": self.leader_pid if self.leader_pid is not None else 0,
        }

    # -- failure handling (optional overrides) -----------------------------

    def on_session_drop(self, peer: int, now_ms: float) -> None:
        """A transport session to ``peer`` dropped and was re-established."""

    def crash(self) -> None:
        """The server lost its volatile state (the harness stops driving it)."""

    def recover(self, now_ms: float) -> None:
        """Restart after a crash, reloading persistent state."""
