"""Log migration for reconfiguration (paper section 6).

When a stop-sign ends configuration ``c_i``, servers that join ``c_{i+1}``
without the full replicated log must fetch the missing prefix before their
BLE / Sequence Paxos instances may start. The paper's key idea is that this
migration happens *in the service layer*, decoupled from log replication, so
a joiner can pull different segments **in parallel from any server** that has
decided them — not just the leader.

:class:`MigrationPlan` implements the joiner side as a small sans-io state
machine with per-donor flow control: each donor serves a bounded window of
outstanding chunks, chunks that time out or come back partial rotate to the
next donor. Two strategies are provided:

- ``"parallel"`` — chunks spread across all known donors (Figure 6b);
- ``"leader"`` — every chunk requested from a single designated donor
  (Figure 6a); used by the ablation benchmark to isolate the benefit of
  parallel migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, MigrationError, StorageError
from repro.omni.messages import LogPullRequest, LogSegment

PARALLEL = "parallel"
LEADER_ONLY = "leader"
_STRATEGIES = (PARALLEL, LEADER_ONLY)


@dataclass
class _Chunk:
    """One range of the global log to fetch. ``from_idx`` advances as data
    arrives; the chunk is done when it reaches ``to_idx``."""

    from_idx: int
    to_idx: int
    donor: Optional[int] = None
    deadline: float = 0.0

    @property
    def done(self) -> bool:
        return self.from_idx >= self.to_idx

    @property
    def outstanding(self) -> bool:
        return self.donor is not None and not self.done


class MigrationPlan:
    """Joiner-side log migration state machine.

    The caller owns communication: it drains :meth:`take_outbox` for
    ``(dst, LogPullRequest)`` pairs, feeds in :meth:`on_segment`, and calls
    :meth:`tick` so timed-out chunks rotate to the next donor. Once
    :meth:`complete` is true, :meth:`collected_entries` yields the fetched
    range in order.
    """

    def __init__(
        self,
        config_id: int,
        from_idx: int,
        to_idx: int,
        donors: Sequence[int],
        strategy: str = PARALLEL,
        chunk_entries: int = 10_000,
        retry_ms: float = 1_000.0,
        window_per_donor: int = 2,
    ):
        if strategy not in _STRATEGIES:
            raise ConfigError(f"unknown migration strategy {strategy!r}")
        if to_idx < from_idx:
            raise ConfigError("migration range must not be negative")
        if chunk_entries <= 0 or window_per_donor <= 0:
            raise ConfigError("chunk_entries and window must be positive")
        if not donors and to_idx > from_idx:
            raise MigrationError("no donors available for log migration")
        self._config_id = config_id
        self._from_idx = from_idx
        self._to_idx = to_idx
        self._strategy = strategy
        self._retry_ms = retry_ms
        self._window = window_per_donor
        self._donors: List[int] = list(dict.fromkeys(donors))
        self._rotate_at = 0
        self._chunks: List[_Chunk] = [
            _Chunk(lo, min(lo + chunk_entries, to_idx))
            for lo in range(from_idx, to_idx, chunk_entries)
        ]
        self._entries: Dict[int, Any] = {}
        self._outbox: List[Tuple[int, LogPullRequest]] = []
        self._started = False
        self.segments_received = 0
        self.retries = 0

    # ------------------------------------------------------------------

    @property
    def config_id(self) -> int:
        return self._config_id

    @property
    def target_len(self) -> int:
        return self._to_idx

    @property
    def donors(self) -> Tuple[int, ...]:
        return tuple(self._donors)

    def complete(self) -> bool:
        return all(chunk.done for chunk in self._chunks)

    def progress(self) -> float:
        """Fraction of the target range already fetched, in [0, 1]."""
        total = self._to_idx - self._from_idx
        if total == 0:
            return 1.0
        missing = sum(c.to_idx - c.from_idx for c in self._chunks if not c.done)
        return 1.0 - missing / total

    # ------------------------------------------------------------------

    def start(self, now_ms: float) -> None:
        """Issue the initial window of pull requests."""
        if self._started:
            return
        self._started = True
        self._fill_windows(now_ms)

    def add_donor(self, pid: int) -> None:
        """Register another server that completed the join (paper: a newly
        added server that finished migration can itself serve segments)."""
        if pid not in self._donors:
            self._donors.append(pid)

    def remove_donor(self, pid: int) -> None:
        """Stop using a donor (e.g. observed dead); outstanding chunks
        rotate away at their next timeout."""
        if pid in self._donors and len(self._donors) > 1:
            self._donors.remove(pid)

    def on_segment(self, src: int, seg: LogSegment, now_ms: float) -> None:
        """Absorb a donor's reply and keep its pipeline full."""
        if seg.config_id != self._config_id:
            return
        self.segments_received += 1
        for offset, entry in enumerate(seg.entries):
            idx = seg.from_idx + offset
            if self._from_idx <= idx < self._to_idx:
                self._entries[idx] = entry
        served_to = seg.from_idx + len(seg.entries)
        for chunk in self._chunks:
            if chunk.done or chunk.from_idx != seg.from_idx:
                continue
            if served_to <= chunk.from_idx:
                # No progress: the donor has not decided this range yet.
                # Hold the chunk until its deadline, then rotate (avoids a
                # tight re-request loop between donors that all lack data).
                chunk.deadline = now_ms + self._retry_ms
                break
            chunk.from_idx = min(served_to, chunk.to_idx)
            if chunk.done:
                chunk.donor = None
            else:
                # Partial: this donor served what it had; try another for
                # the remainder right away.
                self.retries += 1
                self._request(chunk, self._next_donor(exclude=src), now_ms)
            break
        self._fill_windows(now_ms)

    def tick(self, now_ms: float) -> None:
        """Rotate chunks whose request timed out to another donor."""
        if not self._started:
            return
        for chunk in self._chunks:
            if chunk.outstanding and now_ms >= chunk.deadline:
                self.retries += 1
                self._request(chunk, self._next_donor(exclude=chunk.donor),
                              now_ms)
        self._fill_windows(now_ms)

    def take_outbox(self) -> List[Tuple[int, LogPullRequest]]:
        out, self._outbox = self._outbox, []
        return out

    def collected_entries(self) -> Tuple[Any, ...]:
        """The fetched range ``[from_idx, to_idx)`` in order.

        Raises :class:`MigrationError` if called before :meth:`complete`.
        """
        if not self.complete():
            raise MigrationError(f"migration only {self.progress():.0%} complete")
        return tuple(self._entries[i] for i in range(self._from_idx, self._to_idx))

    # ------------------------------------------------------------------

    def _active_donors(self) -> List[int]:
        if self._strategy == LEADER_ONLY:
            return self._donors[:1]
        return self._donors

    def _next_donor(self, exclude: Optional[int] = None) -> int:
        donors = self._active_donors()
        if len(donors) > 1 and exclude is not None:
            donors = [d for d in donors if d != exclude]
        self._rotate_at += 1
        return donors[self._rotate_at % len(donors)]

    def _outstanding_at(self, donor: int) -> int:
        return sum(1 for c in self._chunks if c.outstanding and c.donor == donor)

    def _fill_windows(self, now_ms: float) -> None:
        """Assign unassigned chunks to donors with spare window slots."""
        for donor in self._active_donors():
            spare = self._window - self._outstanding_at(donor)
            if spare <= 0:
                continue
            for chunk in self._chunks:
                if spare <= 0:
                    break
                if not chunk.done and chunk.donor is None:
                    self._request(chunk, donor, now_ms)
                    spare -= 1

    def _request(self, chunk: _Chunk, donor: int, now_ms: float) -> None:
        chunk.donor = donor
        chunk.deadline = now_ms + self._retry_ms
        self._outbox.append(
            (donor, LogPullRequest(self._config_id, chunk.from_idx, chunk.to_idx))
        )


def serve_pull_request(req: LogPullRequest,
                       read: Callable[[int, int], Sequence[Any]],
                       max_entries: int) -> Optional[LogSegment]:
    """Donor-side handler: answer a pull request from the decided log, read
    through ``read(from_idx, to_idx)`` with slice semantics.

    A donor that has not decided up to ``req.to_idx`` yet serves what it has
    and marks the segment incomplete — the paper notes segments "can even be
    fetched from servers that have not reached the SS in c_i yet". The
    request is a peer's input: a negative or inverted range, or one this
    donor compacted, is served nothing (``None``); a segment carries at most
    ``max_entries`` entries (honest joiners ask for exactly that many).
    """
    lo, hi = req.from_idx, req.to_idx
    if lo < 0 or hi < lo:
        return None
    try:
        entries = tuple(read(lo, min(hi, lo + max_entries)))
    except StorageError:
        return None
    return LogSegment(req.config_id, lo, entries,
                      complete=lo + len(entries) >= hi)
