"""Property-based chaos tests for the baseline protocols.

The baselines must uphold the same core safety property as Omni-Paxos —
decided/committed logs across servers are prefix-ordered and never retract —
under randomized link cuts, heals, crashes and proposals. (Their *liveness*
differs under partial connectivity, which is the paper's point; safety must
not.) Below them, the one property of a single server: Raft's closed-form
commit index equals what the scan it replaced would have committed.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.raft import (
    RaftConfig,
    RaftConfigChange,
    RaftLog,
    RaftReplica,
    RaftSlot,
)
from repro.omni.entry import Command
from repro.sim.harness import ExperimentConfig, build_experiment

actions = st.lists(
    st.one_of(
        st.tuples(st.just("propose"), st.integers(1, 5)),
        st.tuples(st.just("cut"),
                  st.tuples(st.integers(1, 5), st.integers(1, 5))),
        st.tuples(st.just("heal"), st.just(0)),
        st.tuples(st.just("crash"), st.integers(1, 5)),
        st.tuples(st.just("recover"), st.integers(1, 5)),
        st.tuples(st.just("advance"), st.integers(1, 8)),
    ),
    min_size=5,
    max_size=30,
)


class PrefixChecker:
    """Asserts per-index agreement and no retraction across servers.

    A restarted Raft server legitimately *re-emits* its committed prefix
    (the commit index is volatile in the spec; applied state is rebuilt by
    replay), so the property checked is the one that must never break:
    the same log index always carries the same command — at one server over
    time, and across any two servers.
    """

    def __init__(self, cluster):
        self.maps = {pid: {} for pid in cluster.pids}
        cluster.on_decided(self._observe)

    def _observe(self, pid, idx, entry, now):
        if isinstance(entry, Command):
            key = (entry.client_id, entry.seq)
        else:
            key = ("special", repr(entry))
        seen = self.maps[pid].get(idx)
        assert seen is None or seen == key, \
            f"server {pid} retracted index {idx}: {seen} -> {key}"
        self.maps[pid][idx] = key

    def check_prefixes(self):
        pids = sorted(self.maps)
        for i, a in enumerate(pids):
            for b in pids[i + 1:]:
                common = self.maps[a].keys() & self.maps[b].keys()
                for idx in common:
                    assert self.maps[a][idx] == self.maps[b][idx], \
                        f"servers {a} and {b} disagree at index {idx}"


def run_chaos(protocol, action_list, seed):
    cfg = ExperimentConfig(protocol=protocol, num_servers=5,
                           election_timeout_ms=50.0, seed=seed,
                           initial_leader=3)
    exp = build_experiment(cfg)
    checker = PrefixChecker(exp.cluster)
    seq = itertools.count()
    crashed = set()
    for action, arg in action_list:
        if action == "propose" and arg not in crashed:
            try:
                exp.cluster.propose(
                    arg, Command(b"c", client_id=7, seq=next(seq)))
            except Exception:
                pass
        elif action == "cut":
            a, b = arg
            if a != b:
                exp.cluster.set_link(a, b, False)
        elif action == "heal":
            exp.cluster.heal_all_links()
        elif action == "crash" and arg not in crashed and len(crashed) < 2:
            exp.cluster.crash(arg)
            crashed.add(arg)
        elif action == "recover" and arg in crashed:
            exp.cluster.recover(arg)
            crashed.discard(arg)
        elif action == "advance":
            exp.cluster.run_for(arg * 25.0)
        checker.check_prefixes()
    exp.cluster.heal_all_links()
    for pid in list(crashed):
        exp.cluster.recover(pid)
    exp.cluster.run_for(2_000)
    checker.check_prefixes()
    return checker


class TestRaftSafetyUnderChaos:
    @given(action_list=actions, seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_order(self, action_list, seed):
        run_chaos("raft", action_list, seed)


class TestMultiPaxosSafetyUnderChaos:
    @given(action_list=actions, seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_order(self, action_list, seed):
        run_chaos("multipaxos", action_list, seed)


class TestVRSafetyUnderChaos:
    @given(action_list=actions, seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_order(self, action_list, seed):
        run_chaos("vr", action_list, seed)


# --------------------------------------------------------------------------
# Raft's commit rule: the order statistic agrees with the scan it replaced
# --------------------------------------------------------------------------

LEADER = 1


@dataclass(frozen=True)
class LeaderState:
    """Everything ``RaftReplica._maybe_commit`` reads."""

    term: int
    log_terms: Tuple[int, ...]   # term of entry 1, 2, ... (non-decreasing)
    base: int                    # entries covered by the snapshot
    commit_idx: int
    voters: Tuple[int, ...]      # may leave the leader out
    match: Dict[int, int]        # peers may be missing
    pending: Optional[Tuple[int, Tuple[int, ...]]]


def scan_commit_idx(s: LeaderState) -> int:
    """The scan ``_maybe_commit`` was until PR 21, as a pure function:
    walk down from the end of the log, stop at the snapshot or at an entry
    of an older term, take the first index both majorities hold."""
    log_len = len(s.log_terms)

    def committed_by(idx, voter_set):
        count = 0
        for pid in voter_set:
            match = log_len if pid == LEADER else s.match.get(pid, 0)
            if match >= idx:
                count += 1
        return count >= len(voter_set) // 2 + 1

    for idx in range(log_len, s.commit_idx, -1):
        if idx <= s.base:
            break
        if s.log_terms[idx - 1] != s.term:
            break
        if s.pending is not None and idx > s.pending[0]:
            if not committed_by(idx, s.pending[1]):
                continue
        if committed_by(idx, s.voters):
            return idx
    return s.commit_idx


def leader_in(s: LeaderState) -> RaftReplica:
    """A real leader put into state ``s``."""
    leader = RaftReplica(RaftConfig(pid=LEADER, voters=(1, 2, 3),
                                    initial_leader=LEADER))
    leader.start(0.0)
    assert leader.is_leader
    leader._term = s.term
    leader._log = RaftLog()
    leader._log.extend(
        RaftSlot(term, RaftConfigChange(s.pending[1])
                 if s.pending is not None and idx == s.pending[0]
                 else Command(b"c", client_id=7, seq=idx))
        for idx, term in enumerate(s.log_terms, start=1))
    if s.base:
        leader._log.install(s.base, s.log_terms[s.base - 1])
    leader._commit_idx = s.commit_idx
    leader._applied_idx = max(s.commit_idx, s.base)
    leader._voters = s.voters
    leader._match_idx = dict(s.match)
    leader._pending_config = s.pending
    return leader


voter_sets = st.lists(st.integers(1, 7), min_size=1, max_size=5,
                      unique=True).map(tuple)


@st.composite
def leader_states(draw):
    term = draw(st.integers(1, 3))
    # Sorted draws from 1..term: a stale-term stretch, then a current-term
    # tail, either of which may be empty.
    log_terms = tuple(sorted(draw(
        st.lists(st.integers(1, term), max_size=10))))
    log_len = len(log_terms)
    return LeaderState(
        term=term,
        log_terms=log_terms,
        base=draw(st.integers(0, log_len)),
        commit_idx=draw(st.integers(0, log_len)),
        voters=draw(voter_sets),
        match=draw(st.dictionaries(st.integers(2, 7),
                                   st.integers(0, log_len + 2), max_size=6)),
        pending=draw(st.none() | st.tuples(st.integers(1, max(log_len, 1)),
                                           voter_sets)),
    )


class TestRaftCommitRule:
    @given(state=leader_states())
    # Pinned so each part of the rule fails by name, not by luck.
    # Past a pending change both majorities count; the disjoint new set
    # holds nothing, so commit stops AT the change (drop `max(P, ...)`).
    @example(state=LeaderState(1, (1, 1, 1, 1), 0, 0, (1, 2, 3), {2: 4},
                               (2, (4, 5, 6))))
    # The new majority lags the old one past the change (drop the new
    # set's statistic).
    @example(state=LeaderState(1, (1, 1, 1, 1), 0, 0, (1, 2, 3),
                               {2: 4, 4: 3, 5: 3}, (1, (4, 5, 6))))
    # A majority holds an entry of an older term (drop the term check).
    @example(state=LeaderState(2, (1, 1, 2), 0, 0, (1, 2, 3), {2: 2}, None))
    # The majority's index is inside the snapshot (drop that check).
    @example(state=LeaderState(1, (1, 1, 1), 2, 0, (1, 2, 3), {2: 2}, None))
    # The leader is not a voter: its own log does not count.
    @example(state=LeaderState(1, (1, 1, 1), 0, 1, (2, 3), {2: 3, 3: 2},
                               None))
    @settings(max_examples=500, deadline=None)
    def test_order_statistic_agrees_with_the_scan(self, state):
        leader = leader_in(state)
        leader._maybe_commit()
        assert leader.commit_idx == scan_commit_idx(state)
