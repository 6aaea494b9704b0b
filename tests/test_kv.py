"""Tests for the replicated key-value store substrate."""

import pytest

from repro.kv.store import (
    KVCommand,
    KVError,
    KVStateMachine,
    ReplicatedKVStore,
    decode_command,
    encode_command,
    kv_snapshotter,
)
from repro.omni.entry import Command

from tests.conftest import build_omni_cluster, run_until_leader


def _entries(*payloads):
    return [Command(p, client_id=7, seq=0) for p in payloads]


#: Decided entries of the wrong shape: a payload that is not an object, a
#: field that is not a string, a payload that is not bytes, a sequence
#: number that is not an int.
MISSHAPEN = _entries(
    b"[1]", b'"x"', b"null",
    b'{"op": "put", "key": 5, "value": "1"}',
    b'{"op": "put", "key": "k", "value": 1}',
    b'{"op": "cas", "key": "k", "value": "1", "expected": 0}',
    '{"op": "get", "key": "k"}',
) + [Command(b'{"op": "get", "key": "k"}', client_id=7, seq="0")]
#: Every decided entry the state machine must skip without raising.
UNDECODABLE = _entries(b"not json", b"\xff", b'{"op": "put"}') + MISSHAPEN


class TestCommandValidation:
    def test_unknown_op(self):
        with pytest.raises(KVError):
            KVCommand("frobnicate", "k")

    def test_put_needs_value(self):
        with pytest.raises(KVError):
            KVCommand("put", "k")

    def test_cas_needs_value(self):
        with pytest.raises(KVError):
            KVCommand("cas", "k", expected="old")


class TestCodec:
    def test_roundtrip_put(self):
        cmd = KVCommand("put", "color", "blue")
        assert decode_command(encode_command(cmd)) == cmd

    def test_roundtrip_cas(self):
        cmd = KVCommand("cas", "k", value="new", expected="old")
        assert decode_command(encode_command(cmd)) == cmd

    def test_session_fields_preserved(self):
        entry = encode_command(KVCommand("get", "k"), client_id=7, seq=3)
        assert (entry.client_id, entry.seq) == (7, 3)

    def test_malformed_payload_raises(self):
        with pytest.raises(KVError):
            decode_command(Command(data=b"not json"))

    def test_missing_field_raises(self):
        with pytest.raises(KVError):
            decode_command(Command(data=b'{"op": "put"}'))

    @pytest.mark.parametrize("entry", MISSHAPEN)
    def test_misshapen_entry_raises_kv_error(self, entry):
        with pytest.raises(KVError):
            decode_command(entry)


class TestStateMachine:
    def apply(self, machine, cmd, idx=0, client=0, seq=0):
        return machine.apply(encode_command(cmd, client, seq), idx)

    def test_put_get(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"))
        result = self.apply(m, KVCommand("get", "a"), idx=1)
        assert result.value == "1"
        assert result.ok

    def test_get_missing(self):
        m = KVStateMachine()
        result = self.apply(m, KVCommand("get", "nope"))
        assert result.value is None
        assert not result.ok

    def test_delete(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"))
        result = self.apply(m, KVCommand("delete", "a"), idx=1)
        assert result.ok
        assert m.lookup("a") is None

    def test_delete_missing_not_ok(self):
        m = KVStateMachine()
        result = self.apply(m, KVCommand("delete", "ghost"))
        assert not result.ok

    def test_cas_success(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"))
        result = self.apply(m, KVCommand("cas", "a", value="2", expected="1"),
                            idx=1)
        assert result.ok
        assert m.lookup("a") == "2"

    def test_cas_failure_returns_current(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"))
        result = self.apply(m, KVCommand("cas", "a", value="9", expected="7"),
                            idx=1)
        assert not result.ok
        assert result.value == "1"
        assert m.lookup("a") == "1"

    def test_cas_on_missing_key(self):
        m = KVStateMachine()
        result = self.apply(m, KVCommand("cas", "a", value="1", expected=None))
        assert result.ok  # expected None matches absent key
        assert m.lookup("a") == "1"

    def test_session_dedup(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"), client=1, seq=0)
        dup = self.apply(m, KVCommand("put", "a", "2"), client=1, seq=0)
        assert dup is None
        assert m.lookup("a") == "1"

    def test_sessions_independent(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"), client=1, seq=0)
        result = self.apply(m, KVCommand("put", "a", "2"), client=2, seq=0)
        assert result is not None
        assert m.lookup("a") == "2"

    def test_client_zero_never_deduped(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"), client=0, seq=0)
        result = self.apply(m, KVCommand("put", "a", "2"), client=0, seq=0)
        assert result is not None

    @pytest.mark.parametrize("entry", UNDECODABLE)
    def test_undecodable_entry_changes_nothing(self, entry):
        m = KVStateMachine()
        assert m.apply(entry, 0) is None
        assert m.to_snapshot() == {"data": {}, "sessions": {}}
        # The client's genuine command at the same seq still applies.
        genuine = encode_command(KVCommand("put", "k", "v"), 7, 0)
        assert m.apply(genuine, 1).ok
        assert kv_snapshotter([entry, genuine], None) == m.to_snapshot()

    def test_snapshot_is_copy(self):
        m = KVStateMachine()
        self.apply(m, KVCommand("put", "a", "1"))
        snap = m.snapshot()
        snap["a"] = "tampered"
        assert m.lookup("a") == "1"

    def test_determinism_across_replicas(self):
        ops = [
            KVCommand("put", "x", "1"),
            KVCommand("cas", "x", value="2", expected="1"),
            KVCommand("put", "y", "5"),
            KVCommand("delete", "x"),
        ]
        machines = [KVStateMachine() for _ in range(3)]
        for m in machines:
            for i, op in enumerate(ops):
                m.apply(encode_command(op, 1, i), i)
        snaps = [m.snapshot() for m in machines]
        assert snaps[0] == snaps[1] == snaps[2]


class TestReplicatedStore:
    def _wire(self, sim, servers):
        """Attach one store per server, fed by the cluster's observer."""
        stores = {p: ReplicatedKVStore(servers[p], client_id=p)
                  for p in servers}
        sim.on_decided(lambda pid, idx, e, now: stores[pid].ingest(idx, e))
        return stores

    def test_submit_and_result_through_cluster(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self._wire(sim, servers)
        seq = stores[leader].submit(KVCommand("put", "k", "v"), sim.now)
        sim.run_for(100)
        assert stores[leader].result(seq).ok
        assert all(store.lookup("k") == "v" for store in stores.values())

    def test_all_replicas_apply_same_state(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self._wire(sim, servers)
        for i in range(10):
            stores[leader].submit(KVCommand("put", f"k{i}", str(i)), sim.now)
            sim.run_for(20)
        sim.run_for(200)
        snaps = [store.machine.snapshot() for store in stores.values()]
        assert snaps[0] == snaps[1] == snaps[2]
        assert len(snaps[0]) == 10

    def test_stopsign_skipped_by_store(self):
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        stores = self._wire(sim, servers)
        stores[leader].submit(KVCommand("put", "k", "v"), sim.now)
        sim.run_for(100)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(2000)  # must not crash on the StopSign entry
        assert stores[leader].lookup("k") == "v"
