"""Property-based tests (hypothesis) for the core invariants.

The crown jewels are the Sequence Consensus properties under randomized
partial-connectivity schedules:

- SC1 (validity): decided logs contain only proposed commands,
- SC2 (uniform agreement): decided logs across servers are prefix-ordered,
- SC3 (integrity): a server's decided log only ever grows.

plus ballot-order properties (LE3), a model-based storage test, migration
completeness under arbitrary donor behaviour, and KV determinism.
"""

import itertools
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.omni.ballot import BOTTOM, Ballot
from repro.omni.entry import Command
from repro.omni.invariants import check_all
from repro.omni.reconfig import MigrationPlan, serve_pull_request
from repro.errors import StorageError
from repro.omni.storage import FileStorage, InMemoryStorage
from repro.kv.store import KVCommand, KVStateMachine, encode_command

from tests.conftest import build_omni_cluster

# ---------------------------------------------------------------------------
# Ballot properties (LE3)
# ---------------------------------------------------------------------------

ballots = st.builds(
    Ballot,
    n=st.integers(min_value=0, max_value=1000),
    priority=st.integers(min_value=0, max_value=10),
    pid=st.integers(min_value=1, max_value=50),
)


class TestBallotProperties:
    @given(ballots, ballots)
    def test_total_order(self, a, b):
        assert (a < b) + (a > b) + (a == b) == 1

    @given(ballots, ballots)
    def test_bump_dominates_both(self, a, b):
        bumped = a.bump(b)
        assert bumped > a or bumped.n > a.n
        assert bumped > b
        assert bumped.pid == a.pid

    @given(ballots)
    def test_real_ballots_beat_bottom(self, b):
        assert b > BOTTOM or b == BOTTOM

    @given(st.lists(ballots, min_size=2, max_size=20))
    def test_max_is_unique_winner(self, bs):
        top = max(bs)
        assert all(b <= top for b in bs)


# ---------------------------------------------------------------------------
# Storage: model-based
# ---------------------------------------------------------------------------

storage_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 100)),
        st.tuples(st.just("truncate"), st.integers(0, 30)),
        st.tuples(st.just("decide"), st.integers(0, 30)),
    ),
    max_size=40,
)


class TestStorageModel:
    @given(storage_ops)
    @settings(max_examples=60)
    def test_matches_list_model(self, ops):
        storage = InMemoryStorage()
        model = []
        decided = 0
        counter = itertools.count()
        for op, arg in ops:
            if op == "append":
                storage.append_entry(("e", arg, next(counter)))
                model.append(("e", arg, counter))
                model[-1] = storage.get_entry(storage.log_len() - 1)
            elif op == "truncate":
                idx = decided + arg
                storage.truncate_suffix(idx)
                del model[idx:]
            else:  # decide
                target = min(decided + arg, len(model))
                if target > decided:
                    storage.set_decided_idx(target)
                    decided = target
            assert storage.log_len() == len(model)
            assert list(storage.get_entries(0, len(model))) == model
            assert storage.get_decided_idx() == decided


# One view: FileStorage is InMemoryStorage plus a journal, so any call
# sequence — refused calls included — leaves the two equal, across re-opens.
indices = st.integers(0, 40)
journal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append_entries"), st.lists(
            st.builds(Command, st.binary(max_size=8), st.integers(0, 9),
                      st.integers(0, 999)), max_size=4)),
        st.tuples(st.just("append_entry"), st.text(max_size=4)),
        st.tuples(st.just("truncate_suffix"), indices),
        st.tuples(st.just("set_decided_idx"), indices),
        st.tuples(st.just("compact_prefix"), indices),
        st.tuples(st.just("set_snapshot"), st.dictionaries(
            st.text(max_size=3), st.integers(), max_size=3), indices),
        st.tuples(st.just("install_snapshot"), st.just({"k": 1}), indices),
        st.tuples(st.just("set_promise"), ballots),
        st.tuples(st.just("set_accepted_round"), ballots),
        st.tuples(st.just("reopen")),
    ),
    max_size=30,
)


def storage_view(storage):
    first = storage.compacted_idx()
    return (first, storage.log_len(),
            storage.get_entries(first, storage.log_len()),
            storage.get_snapshot(), storage.get_promise(),
            storage.get_accepted_round(), storage.get_decided_idx())


class TestOneStorageView:
    @given(journal_ops)
    @settings(max_examples=60, deadline=None)
    def test_file_storage_equals_in_memory_storage(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "wal.bin")
            memory, file = InMemoryStorage(), FileStorage(path)
            staged = 0
            for name, *args in ops:
                if name == "reopen":
                    file.close()
                    file, staged = FileStorage(path), 0
                else:
                    try:
                        getattr(memory, name)(*args)
                    except StorageError as refusal:
                        with pytest.raises(StorageError) as same:
                            getattr(file, name)(*args)
                        assert str(same.value) == str(refusal)
                        # A refused call stages nothing.
                        assert file.sync() == staged
                        staged = 0
                    else:
                        getattr(file, name)(*args)
                        staged += 1
                        if name == "install_snapshot":  # several records
                            file.sync()
                            staged = 0
                assert storage_view(file) == storage_view(memory)
            file.close()
            reopened = FileStorage(path)
            assert storage_view(reopened) == storage_view(memory)
            reopened.close()


# ---------------------------------------------------------------------------
# Migration completeness under arbitrary donor behaviour
# ---------------------------------------------------------------------------

class TestMigrationProperties:
    @given(
        total=st.integers(min_value=0, max_value=400),
        chunk=st.integers(min_value=1, max_value=64),
        donor_progress=st.lists(
            st.integers(min_value=0, max_value=400), min_size=2, max_size=5
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_eventually_complete_and_correct(self, total, chunk,
                                             donor_progress, data):
        """No matter how much each donor has decided at first, as long as
        one donor eventually has everything, migration completes with the
        exact range."""
        log = [f"entry-{i}" for i in range(total)]
        donors = list(range(2, 2 + len(donor_progress)))
        have = dict(zip(donors, donor_progress))
        have[donors[-1]] = total  # one donor has the full log
        plan = MigrationPlan(
            config_id=1, from_idx=0, to_idx=total, donors=donors,
            chunk_entries=chunk, retry_ms=10.0,
        )
        now = 0.0
        plan.start(now)
        for _round in range(400):
            if plan.complete():
                break
            requests = plan.take_outbox()
            for dst, req in requests:
                decided = log[:have[dst]]
                seg = serve_pull_request(
                    req, lambda lo, hi: decided[lo:hi], chunk)
                plan.on_segment(dst, seg, now)
            now += 20.0
            plan.tick(now)
        assert plan.complete()
        assert list(plan.collected_entries()) == log


# ---------------------------------------------------------------------------
# KV determinism
# ---------------------------------------------------------------------------

kv_commands = st.lists(
    st.one_of(
        st.builds(KVCommand, op=st.just("put"),
                  key=st.sampled_from("abc"), value=st.text(max_size=3)),
        st.builds(KVCommand, op=st.just("delete"), key=st.sampled_from("abc")),
        st.builds(KVCommand, op=st.just("get"), key=st.sampled_from("abc")),
    ),
    max_size=30,
)


class TestKVProperties:
    @given(kv_commands)
    def test_replicas_deterministic(self, cmds):
        machines = [KVStateMachine() for _ in range(3)]
        for machine in machines:
            for i, cmd in enumerate(cmds):
                machine.apply(encode_command(cmd, client_id=1, seq=i), i)
        assert machines[0].snapshot() == machines[1].snapshot()
        assert machines[1].snapshot() == machines[2].snapshot()

    @given(kv_commands, st.lists(st.integers(0, 29), max_size=10))
    def test_duplicate_deliveries_ignored(self, cmds, dup_positions):
        """Replaying any prefix commands (client retries) never changes
        the state: exactly-once via sessions."""
        reference = KVStateMachine()
        for i, cmd in enumerate(cmds):
            reference.apply(encode_command(cmd, client_id=1, seq=i), i)
        replayed = KVStateMachine()
        idx = 0
        for i, cmd in enumerate(cmds):
            replayed.apply(encode_command(cmd, client_id=1, seq=i), idx)
            idx += 1
            for pos in dup_positions:
                if pos <= i:
                    replayed.apply(
                        encode_command(cmds[pos], client_id=1, seq=pos), idx)
                    idx += 1
        assert replayed.snapshot() == reference.snapshot()


# ---------------------------------------------------------------------------
# Sequence Consensus under random partial connectivity (the big one)
# ---------------------------------------------------------------------------

def _proposed_commands(client_log):
    return {(c.client_id, c.seq) for c in client_log}


class SCChecker:
    """Tracks SC1-SC3 across a run."""

    def __init__(self, servers):
        self.servers = servers
        self.decided_prefixes = {pid: () for pid in servers}
        self.proposed = set()

    def propose(self, sim, pid, command):
        self.proposed.add((command.client_id, command.seq))
        try:
            sim.propose(pid, command)
        except Exception:
            pass  # not a leader / retired: fine

    def check(self):
        logs = {}
        for pid, server in self.servers.items():
            log = server.read_log()
            # SC3: the decided log only grows, and the old prefix persists.
            old = self.decided_prefixes[pid]
            assert log[:len(old)] == old, f"SC3 violated at {pid}"
            self.decided_prefixes[pid] = log
            logs[pid] = log
            # SC1: only proposed commands (and stop-signs) decide.
            for entry in log:
                if isinstance(entry, Command):
                    assert (entry.client_id, entry.seq) in self.proposed, \
                        "SC1 violated"
        # SC2: all logs prefix-ordered.
        ordered = sorted(logs.values(), key=len)
        for shorter, longer in zip(ordered, ordered[1:]):
            assert longer[:len(shorter)] == shorter, "SC2 violated"


actions = st.lists(
    st.one_of(
        st.tuples(st.just("propose"), st.integers(1, 5)),
        st.tuples(st.just("cut"),
                  st.tuples(st.integers(1, 5), st.integers(1, 5))),
        st.tuples(st.just("heal"), st.just(0)),
        st.tuples(st.just("crash"), st.integers(1, 5)),
        st.tuples(st.just("recover"), st.integers(1, 5)),
        st.tuples(st.just("advance"), st.integers(1, 10)),
    ),
    min_size=5,
    max_size=40,
)


class TestSequenceConsensusProperties:
    @given(actions=actions, seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sc_invariants_under_chaos(self, actions, seed):
        sim, servers = build_omni_cluster(5, hb_period_ms=50.0,
                                          initial_leader=3)
        checker = SCChecker(servers)
        seq = itertools.count()
        crashed = set()
        for action, arg in actions:
            if action == "propose":
                target = arg if arg not in crashed else None
                if target:
                    checker.propose(
                        sim, target,
                        Command(b"p", client_id=9, seq=next(seq)))
            elif action == "cut":
                a, b = arg
                if a != b:
                    sim.set_link(a, b, False)
            elif action == "heal":
                sim.heal_all_links()
            elif action == "crash" and arg not in crashed and \
                    len(crashed) < 2:
                sim.crash(arg)
                crashed.add(arg)
            elif action == "recover" and arg in crashed:
                sim.recover(arg)
                crashed.discard(arg)
            elif action == "advance":
                sim.run_for(arg * 25.0)
            checker.check()
            check_all(srv for pid, srv in servers.items()
                      if pid not in crashed)
        # Heal everything and let the cluster converge.
        sim.heal_all_links()
        for pid in list(crashed):
            sim.recover(pid)
        sim.run_for(3_000)
        checker.check()
        # After healing, with a leader established, all servers converge to
        # the same decided length.
        if sim.leaders():
            lengths = {srv.global_log_len for srv in servers.values()}
            sim.run_for(2_000)
            final = {srv.global_log_len for srv in servers.values()}
            assert len(final) == 1, f"no convergence after heal: {final}"
