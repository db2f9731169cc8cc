"""Read committed's batch reads: one lock-table visit per chunk of keys.

``read_nodes_many``, ``read_relationships_many`` and ``relationships_of_many``
probe the object cache under the lock table's mutex instead of taking one
short shared lock per key.  The tests below pin that this is equivalent to
the per-key guard: a key another transaction write-locked is not served
from the cache (the read blocks and sees the committed outcome), only the
guarded per-key path fills the cache, retained exclusive locks survive, the
own-write overlay matches the point reads, and deadlocks end the same way.
"""

import random
import sys
import threading
import time

import pytest

from repro.errors import DeadlockError
from repro.graph.entity import Direction, EntityKey, NodeData, RelationshipData
from repro.graph.store_manager import StoreManager
from repro.locking import lock_manager as lock_manager_module
from repro.locking.lock_manager import PROBE_CHUNK, LockManager, LockMode
from repro.locking.rc_manager import ReadCommittedEngine


@pytest.fixture
def engine():
    store = StoreManager(None)
    rc = ReadCommittedEngine(store, lock_timeout=5.0)
    yield rc
    store.close()


def create_node(engine, labels=("Person",), **props):
    txn = engine.begin()
    node_id = engine.allocate_node_id()
    txn.put_node(NodeData(node_id, frozenset(labels), props), create=True)
    txn.commit()
    return node_id


def create_relationship(engine, start, end, rel_type="KNOWS", **props):
    txn = engine.begin()
    rel_id = engine.allocate_relationship_id()
    txn.put_relationship(RelationshipData(rel_id, rel_type, start, end, props), create=True)
    txn.commit()
    return rel_id


def batch_values(engine, node_ids):
    txn = engine.begin(read_only=True)
    try:
        return [node.properties["value"] for node in txn.read_nodes_many(node_ids)]
    finally:
        txn.commit()


def run_in_thread(target):
    """Start ``target`` on a daemon thread; returns (thread, results, done)."""
    results, done = [], threading.Event()

    def body():
        try:
            results.append(target())
        except Exception as exc:  # surfaced by the caller
            results.append(exc)
        done.set()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, results, done


class TestProbeSharedMany:
    def test_probe_serves_unlocked_and_own_keys_only(self):
        locks = LockManager(default_timeout=1.0)
        free, own, shared, foreign = (EntityKey.node(i) for i in range(4))
        locks.acquire(1, own, LockMode.EXCLUSIVE)
        locks.acquire(2, shared, LockMode.SHARED)
        locks.acquire(2, foreign, LockMode.EXCLUSIVE)
        probed = []

        def probe(key):
            probed.append(key)
            return key.entity_id

        missing = object()
        result = locks.probe_shared_many(1, [free, own, shared, foreign], probe, missing)
        assert result == [0, 1, 2, missing]
        assert probed == [free, own, shared]  # the write-locked key is not read
        assert locks.holders_of(own) == {1: LockMode.EXCLUSIVE}
        assert locks.holders_of(free) == {}  # no holder was registered

    def test_probe_miss_is_missing_and_counts_no_grant(self):
        locks = LockManager()
        missing = object()
        before = locks.stats.as_dict()
        keys = [EntityKey.node(i) for i in range(5)]
        result = locks.probe_shared_many(7, keys, lambda key: key.entity_id or None, missing)
        assert result == [missing, 1, 2, 3, 4]
        after = locks.stats.as_dict()
        assert after["acquisitions"] - before["acquisitions"] == 4
        assert after["immediate_grants"] - before["immediate_grants"] == 4
        assert after["waits"] == before["waits"]

    def test_mutex_is_taken_once_per_chunk(self):
        locks = LockManager()
        real = locks._mutex
        entered = []

        class CountingMutex:
            def __enter__(self):
                entered.append(1)
                return real.__enter__()

            def __exit__(self, *exc):
                return real.__exit__(*exc)

        locks._mutex = CountingMutex()
        keys = [EntityKey.node(i) for i in range(2 * PROBE_CHUNK + 1)]
        result = locks.probe_shared_many(1, keys, lambda key: key)
        assert result == keys
        assert len(entered) == 3

    def test_lock_calls_allocate_an_entry_only_for_a_new_resource(self, monkeypatch):
        created = []

        class CountingEntry(lock_manager_module._LockEntry):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lock_manager_module, "_LockEntry", CountingEntry)
        locks = LockManager()
        key = EntityKey.node(1)
        locks.acquire(1, key, LockMode.EXCLUSIVE)
        assert locks.try_acquire(1, key, LockMode.EXCLUSIVE)
        locks.acquire(1, key, LockMode.SHARED)
        with locks.shared_guard(1, key):
            pass
        assert not locks.try_acquire(2, key, LockMode.EXCLUSIVE)
        assert len(created) == 1


class TestForeignExclusiveLocks:
    def test_batch_read_blocks_then_sees_the_commit(self, engine):
        node_ids = [create_node(engine, value=1) for _ in range(3)]
        assert batch_values(engine, node_ids) == [1, 1, 1]  # all cached now
        writer = engine.begin()
        writer.put_node(writer.read_node(node_ids[1]).with_property("value", 2))
        thread, seen, done = run_in_thread(lambda: batch_values(engine, node_ids))
        time.sleep(0.15)
        assert not done.is_set()  # blocked on the X lock, not served from cache
        writer.commit()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert seen == [[1, 2, 1]]  # no stale read

    def test_batch_read_after_rollback_returns_the_old_value(self, engine):
        node_ids = [create_node(engine, value=1) for _ in range(3)]
        assert batch_values(engine, node_ids) == [1, 1, 1]
        writer = engine.begin()
        writer.put_node(writer.read_node(node_ids[2]).with_property("value", 99))
        thread, seen, done = run_in_thread(lambda: batch_values(engine, node_ids))
        time.sleep(0.15)
        assert not done.is_set()
        writer.rollback()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert seen == [[1, 1, 1]]  # no dirty read

    def test_expand_blocks_behind_a_relationship_writer(self, engine):
        a, b = create_node(engine), create_node(engine)
        rel_id = create_relationship(engine, a, b, weight=1)

        def weights():
            txn = engine.begin(read_only=True)
            try:
                [rels] = txn.relationships_of_many([a])
                return [rel.properties["weight"] for rel in rels]
            finally:
                txn.commit()

        assert weights() == [1]
        writer = engine.begin()
        writer.put_relationship(
            writer.read_relationship(rel_id).with_property("weight", 2)
        )
        thread, seen, done = run_in_thread(weights)
        time.sleep(0.15)
        assert not done.is_set()
        writer.commit()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert seen == [[2]]

    def test_own_exclusive_lock_is_piggybacked_not_dropped(self, engine):
        a, b = create_node(engine, value=1), create_node(engine, value=2)
        assert batch_values(engine, [a]) == [1]  # a cached, b not
        txn = engine.begin()
        rel_id = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(rel_id, "KNOWS", a, b), create=True)
        nodes = txn.read_nodes_many([a, b])
        assert [node.properties["value"] for node in nodes] == [1, 2]
        for node_id in (a, b):
            holders = engine.locks.holders_of(EntityKey.node(node_id))
            assert holders == {txn.txn_id: LockMode.EXCLUSIVE}
        assert not engine.locks.try_acquire(
            txn.txn_id + 1000, EntityKey.node(a), LockMode.EXCLUSIVE
        )
        txn.rollback()


class TestFillRule:
    def test_batch_misses_fill_only_through_the_guarded_path(self, engine):
        node_ids = [create_node(engine, value=i) for i in range(6)]
        engine.cache.clear()
        guarded = []
        original = engine.locks.shared_guard

        def recording_guard(txn_id, key, **kwargs):
            guarded.append(key)
            return original(txn_id, key, **kwargs)

        engine.locks.shared_guard = recording_guard
        assert batch_values(engine, node_ids) == list(range(6))
        keys = [EntityKey.node(node_id) for node_id in node_ids]
        assert guarded == keys  # every miss went through the shared guard
        assert all(key in engine.cache for key in keys)
        guarded.clear()
        hits = engine.cache.stats.hits
        assert batch_values(engine, node_ids) == list(range(6))
        assert guarded == []  # every hit was served by the batch probe
        assert engine.cache.stats.hits == hits + len(node_ids)

    def test_batch_grants_show_in_the_lock_statistics(self, engine):
        node_ids = [create_node(engine, value=i) for i in range(4)]
        batch_values(engine, node_ids)  # fill
        before = engine.locks.stats.as_dict()
        batch_values(engine, node_ids)
        after = engine.locks.stats.as_dict()
        assert after["acquisitions"] - before["acquisitions"] == len(node_ids)
        assert after["immediate_grants"] - before["immediate_grants"] == len(node_ids)


class TestOwnWriteOverlay:
    def test_read_nodes_many_returns_own_writes(self, engine):
        kept, updated, deleted = (create_node(engine, value=1) for _ in range(3))
        txn = engine.begin()
        created = engine.allocate_node_id()
        txn.put_node(NodeData(created, frozenset({"New"}), {"value": 5}), create=True)
        txn.put_node(txn.read_node(updated).with_property("value", 2))
        txn.delete_node(deleted)
        nodes = txn.read_nodes_many([kept, updated, deleted, created, kept])
        assert nodes == [txn.read_node(node_id) for node_id in (kept, updated, deleted, created, kept)]
        assert [node and node.properties["value"] for node in nodes] == [1, 2, None, 5, 1]
        txn.rollback()

    def test_relationships_of_many_overlays_created_and_deleted(self, engine):
        a, b, c = create_node(engine), create_node(engine), create_node(engine)
        kept = create_relationship(engine, a, b, "KNOWS")
        dropped = create_relationship(engine, a, c, "KNOWS")
        doomed_rel = create_relationship(engine, b, c, "LIKES")
        txn = engine.begin()
        created = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(created, "LIKES", c, a), create=True)
        txn.delete_relationship(dropped)
        txn.delete_relationship(doomed_rel)
        txn.delete_node(c)  # detached: its last relationships are gone
        txn.delete_relationship(created)
        result = txn.relationships_of_many([a, b, c])
        assert [[rel.rel_id for rel in rels] for rels in result] == [[kept], [kept], []]
        assert txn.read_nodes_many([c]) == [None]
        txn.rollback()
        txn = engine.begin()
        created = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(created, "LIKES", c, a), create=True)
        txn.delete_relationship(dropped)
        result = txn.relationships_of_many([a, c], Direction.INCOMING)
        assert [[rel.rel_id for rel in rels] for rels in result] == [[created], [doomed_rel]]
        txn.rollback()


def reference_relationships(txn, all_rel_ids, node_id, direction, rel_types):
    """Point-read reference: every visible relationship touching the node."""
    result = []
    for rel_id in sorted(all_rel_ids):
        rel = txn.read_relationship(rel_id)
        if rel is None or not direction.matches(node_id, rel.start_node, rel.end_node):
            continue
        if rel_types and rel.rel_type not in rel_types:
            continue
        result.append(rel)
    return result


@pytest.mark.parametrize("seed", [3, 11])
def test_batch_expand_equals_per_node_reads_on_a_random_graph(engine, seed):
    rng = random.Random(seed)
    nodes = [create_node(engine, value=i) for i in range(40)]
    rel_ids = set()
    txn = engine.begin()
    for _ in range(PROBE_CHUNK + 150):  # more candidates than one probe chunk
        rel_id = engine.allocate_relationship_id()
        start, end = rng.choice(nodes), rng.choice(nodes)  # self-loops included
        txn.put_relationship(
            RelationshipData(rel_id, rng.choice("ABC"), start, end), create=True
        )
        rel_ids.add(rel_id)
    txn.commit()
    engine.cache.clear()
    txn = engine.begin()
    for rel_id in rng.sample(sorted(rel_ids), 20):
        txn.delete_relationship(rel_id)
    for rel_id in rng.sample(sorted(rel_ids), 10):
        rel = txn.read_relationship(rel_id)
        if rel is not None:
            txn.put_relationship(rel.with_property("touched", True))
    for _ in range(15):
        rel_id = engine.allocate_relationship_id()
        txn.put_relationship(
            RelationshipData(rel_id, rng.choice("ABC"), rng.choice(nodes), rng.choice(nodes)),
            create=True,
        )
        rel_ids.add(rel_id)
    batch = nodes + rng.sample(nodes, 10)  # repeated ids share candidates
    for direction in Direction:
        for rel_types in (None, ["A"], ["B", "C"], ["missing"]):
            many = txn.relationships_of_many(batch, direction, rel_types)
            assert many == [txn.relationships_of(n, direction, rel_types) for n in batch]
            assert many == [
                reference_relationships(txn, rel_ids, n, direction, rel_types)
                for n in batch
            ]
    txn.rollback()


class TestDeadlock:
    def _setup(self, engine):
        a, b = create_node(engine, value=1), create_node(engine, value=1)
        assert batch_values(engine, [a, b]) == [1, 1]  # both cached
        reader = engine.begin()
        reader.put_node(reader.read_node(a).with_property("value", 2))  # X on a
        writer = engine.begin()
        writer.put_node(writer.read_node(b).with_property("value", 2))  # X on b
        return a, b, reader, writer

    def test_batch_reader_closing_the_cycle_is_the_victim(self, engine):
        a, b, reader, writer = self._setup(engine)
        thread, outcome, done = run_in_thread(
            lambda: engine.locks.acquire(writer.txn_id, EntityKey.node(a), LockMode.EXCLUSIVE)
        )
        time.sleep(0.15)
        assert not done.is_set()  # the writer waits for the reader's X on a
        with pytest.raises(DeadlockError):
            reader.read_nodes_many([a, b])
        reader.rollback()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert outcome == [None]
        writer.commit()

    def test_writer_closing_the_cycle_is_the_victim(self, engine):
        a, b, reader, writer = self._setup(engine)
        thread, outcome, done = run_in_thread(lambda: reader.read_nodes_many([a, b]))
        time.sleep(0.15)
        assert not done.is_set()  # the batch read waits for the writer's X on b
        with pytest.raises(DeadlockError):
            engine.locks.acquire(writer.txn_id, EntityKey.node(a), LockMode.EXCLUSIVE)
        writer.rollback()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        [nodes] = outcome
        assert [node.properties["value"] for node in nodes] == [2, 1]  # own write, old b
        reader.commit()


def test_batch_readers_never_see_uncommitted_or_stale_values(engine):
    """The threaded no-dirty/no-stale check, read through the batch API:
    writers bump disjoint nodes and hang relationships off a hub; a batch
    reader must never see a rolled-back value or one older than what was
    acknowledged before its read began."""
    writers, per_writer, rounds = 3, 4, 60
    node_ids = [create_node(engine, value=0) for _ in range(writers * per_writer)]
    hub = create_node(engine)
    acked = {node_id: 0 for node_id in node_ids}
    rels_acked = {}
    errors = []
    stop = threading.Event()
    POISON = -1

    def writer(index):
        rng = random.Random(index)
        owned = node_ids[index::writers]
        try:
            for _ in range(rounds):
                node_id = rng.choice(owned)
                txn = engine.begin()
                txn.put_node(txn.read_node(node_id).with_property("value", POISON))
                txn.rollback()
                txn = engine.begin()
                value = acked[node_id] + 1
                txn.put_node(txn.read_node(node_id).with_property("value", value))
                rel_id = engine.allocate_relationship_id()
                txn.put_relationship(
                    RelationshipData(rel_id, "TOUCHED", hub, node_id), create=True
                )
                txn.commit()
                acked[node_id] = value
                rels_acked[rel_id] = node_id
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def reader(seed):
        rng = random.Random(100 + seed)
        try:
            while not stop.is_set():
                sample = rng.sample(node_ids, 5)
                floors = [acked[node_id] for node_id in sample]
                rel_floor = set(rels_acked)
                txn = engine.begin(read_only=True)
                values = [node.properties["value"] for node in txn.read_nodes_many(sample)]
                hub_rels, *_ = txn.relationships_of_many([hub] + sample)
                txn.commit()
                for node_id, value, floor in zip(sample, values, floors):
                    if value == POISON:
                        errors.append(AssertionError(f"dirty read of {node_id}"))
                    elif value < floor:
                        errors.append(AssertionError(
                            f"stale read of {node_id}: {value} < acked {floor}"
                        ))
                if not rel_floor <= {rel.rel_id for rel in hub_rels}:
                    errors.append(AssertionError("stale adjacency of the hub"))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    writer_threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
    reader_threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave probes and commits densely
    try:
        for thread in writer_threads + reader_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=60)
        stop.set()
        for thread in reader_threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writer_threads + reader_threads)
    assert not errors, errors[:3]
    assert batch_values(engine, node_ids) == [acked[node_id] for node_id in node_ids]
    txn = engine.begin(read_only=True)
    [hub_rels] = txn.relationships_of_many([hub])
    txn.commit()
    assert sorted(rel.rel_id for rel in hub_rels) == sorted(rels_acked)
    assert engine.cache.stats.hits > 0
