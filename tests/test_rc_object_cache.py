"""Coherence of the read-committed engine's object and adjacency caches.

Read committed fills its caches only under the entity's shared lock and a
commit invalidates what it wrote while still holding its exclusive locks, so
a cached value must never be older than the newest committed one a reader
could lock, and never a value that was not committed.  Each test below pins
one half of that contract.
"""

import random
import sys
import threading
import time

import pytest

from repro import GraphDatabase, IsolationLevel
from repro.errors import StorageError
from repro.graph.entity import Direction, EntityKey, NodeData, RelationshipData
from repro.graph.store_manager import StoreManager
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


def create_relationship(engine, start, end, rel_type="KNOWS"):
    txn = engine.begin()
    rel_id = engine.allocate_relationship_id()
    txn.put_relationship(RelationshipData(rel_id, rel_type, start, end), create=True)
    txn.commit()
    return rel_id


def set_value(engine, node_id, value):
    txn = engine.begin()
    txn.put_node(txn.read_node(node_id).with_property("value", value))
    txn.commit()


def read_value(engine, node_id):
    txn = engine.begin(read_only=True)
    try:
        return txn.read_node(node_id).properties["value"]
    finally:
        txn.commit()


def adjacency(engine, node_id):
    txn = engine.begin(read_only=True)
    try:
        return sorted(rel.rel_id for rel in txn.relationships_of(node_id))
    finally:
        txn.commit()


def assert_caches_match_store(engine):
    store = engine.store
    for key, cached in engine.cache.items():
        if isinstance(cached, NodeData):
            assert cached == store.read_node(key.entity_id), key
        else:
            assert cached == store.read_relationship(key.entity_id), key
    for node_id, rel_ids in engine.adjacency_cache.items():
        if store.node_exists(node_id):
            assert rel_ids == tuple(sorted(store.node_relationship_ids(node_id)))
        else:
            assert rel_ids == ()


class TestEntityCache:
    def test_point_reads_fill_and_hit(self, engine):
        node_id = create_node(engine, value=1)
        assert read_value(engine, node_id) == 1
        assert EntityKey.node(node_id) in engine.cache
        hits = engine.cache.stats.hits
        assert read_value(engine, node_id) == 1
        assert engine.cache.stats.hits == hits + 1

    def test_read_after_commit_sees_new_value(self, engine):
        node_id = create_node(engine, value=1)
        reader = engine.begin(read_only=True)
        assert reader.read_node(node_id).properties["value"] == 1  # cached now
        set_value(engine, node_id, 2)
        # Same transaction (an unrepeatable read, as RC permits) and a new one.
        assert reader.read_node(node_id).properties["value"] == 2
        reader.commit()
        assert read_value(engine, node_id) == 2

    def test_reader_blocks_behind_writer_instead_of_reading_cache(self, engine):
        node_id = create_node(engine, value=1)
        assert read_value(engine, node_id) == 1  # the old value is cached
        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("value", 2))
        seen = []
        done = threading.Event()

        def reader():
            seen.append(read_value(engine, node_id))
            done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.15)
        assert not done.is_set()  # blocked on the X lock, not served from cache
        writer.commit()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert seen == [2]

    def test_rollback_leaves_cache_valid(self, engine):
        node_id = create_node(engine, value=1)
        assert read_value(engine, node_id) == 1
        writer = engine.begin()
        writer.put_node(writer.read_node(node_id).with_property("value", 99))
        writer.rollback()
        assert engine.cache.peek(EntityKey.node(node_id)).properties["value"] == 1
        assert read_value(engine, node_id) == 1
        assert_caches_match_store(engine)

    def test_deleted_node_id_reuse_returns_the_new_entity(self, engine):
        node_id = create_node(engine, labels=("Old",), value=1)
        assert read_value(engine, node_id) == 1
        txn = engine.begin()
        txn.delete_node(node_id)
        txn.commit()
        assert engine.begin().read_node(node_id) is None
        reused = create_node(engine, labels=("New",), value=2)
        assert reused == node_id  # read committed recycles ids
        txn = engine.begin(read_only=True)
        node = txn.read_node(node_id)
        assert node.labels == frozenset({"New"})
        assert node.properties["value"] == 2
        txn.commit()

    def test_deleted_relationship_id_reuse_returns_the_new_entity(self, engine):
        a, b, c = (create_node(engine) for _ in range(3))
        rel_id = create_relationship(engine, a, b, "OLD")
        assert engine.begin().read_relationship(rel_id).rel_type == "OLD"
        txn = engine.begin()
        txn.delete_relationship(rel_id)
        txn.commit()
        reused = create_relationship(engine, b, c, "NEW")
        assert reused == rel_id
        rel = engine.begin().read_relationship(rel_id)
        assert (rel.rel_type, rel.start_node, rel.end_node) == ("NEW", b, c)
        assert adjacency(engine, a) == []
        assert adjacency(engine, c) == [rel_id]

    def test_scans_probe_but_never_fill(self, engine):
        node_ids = [create_node(engine, value=i) for i in range(5)]
        create_relationship(engine, node_ids[0], node_ids[1])
        engine.cache.clear()
        txn = engine.begin(read_only=True)
        assert sorted(node.node_id for node in txn.iter_nodes()) == node_ids
        assert len(list(txn.iter_relationships())) == 1
        assert len(engine.cache) == 0
        txn.read_node(node_ids[2])  # a locked point read does fill
        assert sorted(node.node_id for node in txn.iter_nodes()) == node_ids
        txn.commit()
        assert len(engine.cache) == 1


class TestAdjacencyCache:
    def test_create_and_delete_update_both_endpoints(self, engine):
        a, b, c = (create_node(engine) for _ in range(3))
        assert adjacency(engine, a) == [] and adjacency(engine, b) == []
        assert adjacency(engine, c) == []
        rel_id = create_relationship(engine, a, b)
        assert adjacency(engine, a) == [rel_id]
        assert adjacency(engine, b) == [rel_id]
        assert c in engine.adjacency_cache  # an untouched node keeps its entry
        txn = engine.begin()
        txn.delete_relationship(rel_id)
        txn.commit()
        assert adjacency(engine, a) == []
        assert adjacency(engine, b) == []
        assert_caches_match_store(engine)

    def test_property_update_keeps_adjacency_cached(self, engine):
        a, b = create_node(engine, value=0), create_node(engine)
        rel_id = create_relationship(engine, a, b)
        assert adjacency(engine, a) == [rel_id]
        set_value(engine, a, 1)
        assert a in engine.adjacency_cache
        assert adjacency(engine, a) == [rel_id]

    def test_own_uncommitted_relationships_overlay_the_cache(self, engine):
        a, b = create_node(engine), create_node(engine)
        first = create_relationship(engine, a, b)
        assert adjacency(engine, a) == [first]
        txn = engine.begin()
        second = engine.allocate_relationship_id()
        txn.put_relationship(RelationshipData(second, "LIKES", b, a), create=True)
        txn.delete_relationship(first)
        assert [rel.rel_id for rel in txn.relationships_of(a)] == [second]
        assert [r.rel_id for r in txn.relationships_of(a, Direction.OUTGOING)] == []
        txn.rollback()
        assert adjacency(engine, a) == [first]

    def test_stale_walk_is_not_cached(self, engine):
        """A walk that raced a commit (epoch moved) must not be inserted."""
        a, b = create_node(engine), create_node(engine)
        store = engine.store
        original = store.node_relationship_ids

        def walk_then_commit(node_id, direction=Direction.BOTH):
            result = original(node_id, direction)
            store.node_relationship_ids = original
            create_relationship(engine, a, b)  # commits mid-fill
            return result

        store.node_relationship_ids = walk_then_commit
        txn = engine.begin(read_only=True)
        assert txn.relationships_of(a) == []  # the pre-commit walk
        txn.commit()
        assert a not in engine.adjacency_cache
        assert len(adjacency(engine, a)) == 1


class TestFailedApply:
    def test_group_flush_failpoint_leaves_no_stale_entry(self):
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.READ_COMMITTED,
            failpoints={"store.group_flush": "nth(2):error"},  # the second commit
        )
        with db.transaction() as tx:
            node = tx.create_node(["Account"], {"value": 1})
        engine = db.engine
        key = EntityKey.node(node.id)
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node.id).get("value") == 1
        assert key in engine.cache
        tx = db.transaction()
        tx.set_node_property(node.id, "value", 2)
        with pytest.raises(StorageError):
            tx.commit()
        assert key not in engine.cache  # invalidated in the failure path too
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node.id).get("value") == 1
        with db.transaction() as tx:
            tx.set_node_property(node.id, "value", 3)
        with db.transaction(read_only=True) as tx:
            assert tx.get_node(node.id).get("value") == 3
        assert_caches_match_store(engine)
        db.close()

    def test_partial_apply_invalidates_every_written_key(self, engine):
        first, second = create_node(engine, value=1), create_node(engine, value=1)
        assert read_value(engine, first) == 1 and read_value(engine, second) == 1
        store = engine.store
        original = store._apply_operation
        applied = []

        def fail_after_first(operation):
            if applied:
                raise StorageError("injected apply failure")
            original(operation)
            applied.append(operation)

        store._apply_operation = fail_after_first
        txn = engine.begin()
        txn.put_node(txn.read_node(first).with_property("value", 2))
        txn.put_node(txn.read_node(second).with_property("value", 2))
        with pytest.raises(StorageError):
            txn.commit()
        store._apply_operation = original
        # Whatever reached the store is what readers see: nothing stale.
        assert len(applied) == 1
        assert sorted([read_value(engine, first), read_value(engine, second)]) == [1, 2]
        assert_caches_match_store(engine)


class TestConcurrentCoherence:
    def test_readers_never_see_uncommitted_or_stale_values(self, engine):
        """Writers own disjoint nodes and bump them monotonically; a reader
        must never see a rolled-back value (a dirty read) nor a value older
        than one already acknowledged before its read began (a stale cache).
        """
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
                for round_no in range(1, rounds + 1):
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
                    node_id = rng.choice(node_ids)
                    floor = acked[node_id]
                    rel_floor = set(rels_acked)
                    txn = engine.begin(read_only=True)
                    value = txn.read_node(node_id).properties["value"]
                    hub_rels = {rel.rel_id for rel in txn.relationships_of(hub)}
                    txn.commit()
                    if value == POISON:
                        errors.append(AssertionError(f"dirty read of {node_id}"))
                    elif value < floor:
                        errors.append(AssertionError(
                            f"stale read of {node_id}: {value} < acked {floor}"
                        ))
                    if not rel_floor <= hub_rels:
                        errors.append(AssertionError("stale adjacency of the hub"))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        writer_threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        reader_threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave fills and commits densely
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
        for node_id in node_ids:
            assert read_value(engine, node_id) == acked[node_id]
        assert adjacency(engine, hub) == sorted(rels_acked)
        assert_caches_match_store(engine)
        assert engine.cache.stats.hits > 0


class TestStatisticsAndSizing:
    def test_statistics_expose_the_rc_object_cache(self):
        db = GraphDatabase.in_memory(isolation=IsolationLevel.READ_COMMITTED)
        with db.transaction() as tx:
            a = tx.create_node(["Person"], {"name": "a"})
            b = tx.create_node(["Person"], {"name": "b"})
            tx.create_relationship(a, b, "KNOWS")
        for _ in range(3):
            db.execute("MATCH (p:Person)-[:KNOWS]->(f) RETURN p.name, f.name")
        stats = db.statistics()["object_cache"]
        assert set(stats) == {
            "hits", "misses", "evictions", "inserts", "hit_ratio",
            "adjacency_hits", "adjacency_misses",
        }
        assert stats["hit_ratio"] > 0.5
        assert stats["adjacency_hits"] > 0 and stats["adjacency_misses"] > 0
        db.close()

    def test_version_cache_capacity_sizes_both_caches(self):
        db = GraphDatabase.in_memory(
            isolation=IsolationLevel.READ_COMMITTED, version_cache_capacity=4
        )
        with db.transaction() as tx:
            nodes = [tx.create_node(["P"], {"i": i}) for i in range(10)]
        with db.transaction(read_only=True) as tx:
            for node in nodes:
                assert tx.get_node(node.id).get("i") == nodes.index(node)
                tx.get_node(node.id).degree()
        engine = db.engine
        assert engine.cache.capacity == engine.adjacency_cache.capacity == 4
        assert len(engine.cache) <= 4 and len(engine.adjacency_cache) <= 4
        assert db.statistics()["object_cache"]["evictions"] > 0
        db.close()
