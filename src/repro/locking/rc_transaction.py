"""Read-committed transactions (the Neo4j baseline).

This is the behaviour the paper sets out to improve: reads take a short shared
lock (released as soon as the value has been read) and writes take long
exclusive locks held until commit.  Because nothing is retained about what a
transaction has read, two reads of the same entity inside one transaction can
observe different committed values (unrepeatable reads) and repeated predicate
scans can observe different result sets (phantom reads).  The anomaly
experiments E1 and E2 measure exactly this.

Committed state is served from the engine's object cache (see
:mod:`repro.locking.rc_manager` for the coherence rules): point reads fill
it inside their shared guard, lock-free scans only probe it, and batch reads
(``read_nodes_many``, ``read_relationships_many``, ``relationships_of_many``)
probe it for a whole chunk of keys in one lock-table visit, falling back to
the point-read guard for each miss or key another transaction write-locked.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.engine import EngineTransaction, TransactionState
from repro.errors import ReadOnlyTransactionError, classify_abort
from repro.graph.entity import Direction, EntityKey, EntityKind, NodeData, RelationshipData
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    StoreOperation,
    WriteNodeOp,
    WriteRelationshipOp,
)
from repro.graph.properties import PropertyValue
from repro.locking.lock_manager import LockMode

#: Marks a key the batch probe left unserved (a cache miss, or a key another
#: transaction holds exclusively).
_UNSERVED = object()


class ReadCommittedTransaction(EngineTransaction):
    """One transaction running under the read-committed engine."""

    def __init__(self, engine, txn_id: int, *, read_only: bool = False) -> None:
        super().__init__(txn_id, read_only=read_only)
        self._engine = engine
        #: Buffered writes: entity key -> new state (``None`` buffers a delete).
        self._writes: Dict[EntityKey, Optional[object]] = {}
        #: Keys created by this transaction (they do not exist in the store yet).
        self._created: Set[EntityKey] = set()
        #: Observability trace (set by the engine for sampled transactions).
        self.trace = None
        #: Classified cause when :meth:`commit` aborts (``None`` for explicit
        #: rollbacks); feeds the labelled abort counter and the trace.
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_node(self, node_id: int) -> Optional[NodeData]:
        self.ensure_open()
        key = EntityKey.node(node_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(key)

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        self.ensure_open()
        key = EntityKey.relationship(rel_id)
        if key in self._writes:
            return self._writes[key]  # type: ignore[return-value]
        return self._locked_read(key)

    def read_nodes_many(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        self.ensure_open()
        return self._read_many([EntityKey.node(node_id) for node_id in node_ids])

    def read_relationships_many(
        self, rel_ids: Sequence[int]
    ) -> List[Optional[RelationshipData]]:
        self.ensure_open()
        return self._read_many([EntityKey.relationship(rel_id) for rel_id in rel_ids])

    def _read_many(self, keys: List[EntityKey]) -> list:
        """Own writes first; committed state through one lock-table visit per
        chunk of keys (:meth:`LockManager.probe_shared_many`).

        The probe only reads the cache.  A miss, or a key another
        transaction holds exclusively, goes through :meth:`_locked_read`, so
        the cache is filled only under the shared lock and a blocked read
        waits and is deadlock-checked exactly like a point read.
        """
        writes = self._writes
        committed = [key for key in keys if key not in writes] if writes else keys
        engine = self._engine
        values = engine.locks.probe_shared_many(
            self.txn_id, committed, engine.cache.peek, _UNSERVED
        )
        for index, value in enumerate(values):
            if value is _UNSERVED:
                values[index] = self._locked_read(committed[index])
        if not writes:
            return values
        resolved = iter(values)
        return [writes[key] if key in writes else next(resolved) for key in keys]

    def _locked_read(self, key: EntityKey):
        """Read committed state under a *short* shared lock.

        The lock lives inside :meth:`LockManager.shared_guard`: one
        lock-table visit, no holder bookkeeping, release before the
        statement returns, and a read of an entity the transaction already
        write-locked (e.g. an endpoint node of a created relationship)
        piggybacks instead of dropping the retained exclusive lock.  A cache
        miss is decoded and filled inside the guard, where no commit of
        ``key`` can interleave.
        """
        engine = self._engine
        with engine.locks.shared_guard(self.txn_id, key):
            return engine.read_committed(key)

    def iter_nodes(self) -> Iterator[NodeData]:
        self.ensure_open()
        seen: Set[int] = set()
        for key, value in list(self._writes.items()):
            if key.kind is EntityKind.NODE:
                seen.add(key.entity_id)
                if value is not None:
                    yield value  # type: ignore[misc]
        # Lock-free: probe the cache, never fill it (no lock excludes commits).
        cache = self._engine.cache
        store = self._engine.store
        for node_id in store.iter_node_ids():
            if node_id in seen:
                continue
            node = cache.peek(EntityKey.node(node_id))
            if node is None:
                node = store.read_node(node_id)
            if node is not None:
                yield node

    def iter_relationships(self) -> Iterator[RelationshipData]:
        self.ensure_open()
        seen: Set[int] = set()
        for key, value in list(self._writes.items()):
            if key.kind is EntityKind.RELATIONSHIP:
                seen.add(key.entity_id)
                if value is not None:
                    yield value  # type: ignore[misc]
        cache = self._engine.cache
        store = self._engine.store
        for rel_id in store.iter_relationship_ids():
            if rel_id in seen:
                continue
            relationship = cache.peek(EntityKey.relationship(rel_id))
            if relationship is None:
                relationship = store.read_relationship(rel_id)
            if relationship is not None:
                yield relationship

    def find_nodes_by_label(self, label: str) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.nodes_with_label(label)
        return self._merge_node_predicate(result, lambda node: label in node.labels)

    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.nodes_with_property(key, value)
        return self._merge_node_predicate(
            result, lambda node: node.properties.get(key) == value
        )

    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.relationships_with_property(key, value)
        return self._merge_relationship_predicate(
            result, lambda rel: rel.properties.get(key) == value
        )

    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        self.ensure_open()
        result = self._engine.indexes.relationships_of_type(rel_type)
        return self._merge_relationship_predicate(
            result, lambda rel: rel.rel_type == rel_type
        )

    def _merge_node_predicate(self, result: Set[int], predicate) -> Set[int]:
        """Overlay this transaction's own node writes onto an index result."""
        return self._merge_predicate(result, predicate, EntityKind.NODE)

    def _merge_relationship_predicate(self, result: Set[int], predicate) -> Set[int]:
        """Overlay this transaction's own relationship writes onto an index result."""
        return self._merge_predicate(result, predicate, EntityKind.RELATIONSHIP)

    def _merge_predicate(self, result: Set[int], predicate, kind: EntityKind) -> Set[int]:
        for entity_key, data in self._writes.items():
            if entity_key.kind is not kind:
                continue
            if data is None:
                result.discard(entity_key.entity_id)
            elif predicate(data):
                result.add(entity_key.entity_id)
            else:
                result.discard(entity_key.entity_id)
        return result

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        return self.relationships_of_many([node_id], direction, rel_types)[0]

    def relationships_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """Committed adjacency plus this transaction's own relationships,
        with every candidate id resolved in one batch read."""
        self.ensure_open()
        committed_adjacency = self._engine.committed_adjacency
        own = self._own_relationships_by_node()
        candidates: List[Sequence[int]] = []
        for node_id in node_ids:
            rel_ids: Sequence[int] = committed_adjacency(node_id)
            own_ids = own.get(node_id)
            if own_ids:
                rel_ids = sorted(set(rel_ids).union(own_ids))
            candidates.append(rel_ids)
        distinct = list(dict.fromkeys(itertools.chain.from_iterable(candidates)))
        resolved = dict(zip(distinct, self.read_relationships_many(distinct)))
        wanted_types = set(rel_types) if rel_types else None
        results: List[List[RelationshipData]] = []
        for node_id, rel_ids in zip(node_ids, candidates):
            matches: List[RelationshipData] = []
            for rel_id in rel_ids:
                relationship = resolved[rel_id]
                if relationship is None:
                    continue
                if not direction.matches(node_id, relationship.start_node, relationship.end_node):
                    continue
                if wanted_types is not None and relationship.rel_type not in wanted_types:
                    continue
                matches.append(relationship)
            results.append(matches)
        return results

    def _own_relationships_by_node(self) -> Dict[int, List[int]]:
        """Ids of the relationships this transaction created or updated,
        by endpoint node."""
        own: Dict[int, List[int]] = {}
        for key, data in self._writes.items():
            if key.kind is EntityKind.RELATIONSHIP and data is not None:
                for node_id in {data.start_node, data.end_node}:
                    own.setdefault(node_id, []).append(key.entity_id)
        return own

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put_node(self, node: NodeData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = node.key
        self._engine.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        if create:
            self._created.add(key)
        self._writes[key] = node

    def put_relationship(self, relationship: RelationshipData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = relationship.key
        locks = self._engine.locks
        locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        if create:
            # Like Neo4j, creating a relationship write-locks both endpoint
            # nodes so they cannot be concurrently deleted.
            locks.acquire(self.txn_id, EntityKey.node(relationship.start_node), LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, EntityKey.node(relationship.end_node), LockMode.EXCLUSIVE)
            self._created.add(key)
        self._writes[key] = relationship

    def delete_node(self, node_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.node(node_id)
        self._engine.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        self._writes[key] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.relationship(rel_id)
        locks = self._engine.locks
        locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        existing = self._writes.get(key)
        if existing is None:
            existing = self._engine.read_committed(key)  # held exclusively
        if existing is not None:
            locks.acquire(self.txn_id, EntityKey.node(existing.start_node), LockMode.EXCLUSIVE)
            locks.acquire(self.txn_id, EntityKey.node(existing.end_node), LockMode.EXCLUSIVE)
        self._writes[key] = None

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyTransactionError(
                f"transaction {self.txn_id} was opened read-only"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> None:
        self.ensure_open()
        try:
            self._engine.commit_transaction(self)
            self.state = TransactionState.COMMITTED
        except BaseException as exc:
            self.abort_reason = classify_abort(exc)
            self._engine.abort_transaction(self)
            self.state = TransactionState.ABORTED
            raise

    def rollback(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            return
        self._engine.abort_transaction(self)
        self.state = TransactionState.ABORTED

    # ------------------------------------------------------------------
    # commit support (used by the engine)
    # ------------------------------------------------------------------

    def pending_writes(self) -> Dict[EntityKey, Optional[object]]:
        """The buffered writes of this transaction (key -> new state or None)."""
        return dict(self._writes)

    def build_store_operations(self) -> List[StoreOperation]:
        """Translate buffered writes into ordered store operations.

        Creations are ordered nodes-before-relationships and deletions
        relationships-before-nodes so the store's structural constraints hold
        at every point during application.
        """
        node_writes: List[StoreOperation] = []
        rel_writes: List[StoreOperation] = []
        rel_deletes: List[StoreOperation] = []
        node_deletes: List[StoreOperation] = []
        for key, data in self._writes.items():
            if key.kind is EntityKind.NODE:
                if data is None:
                    if key not in self._created:
                        node_deletes.append(DeleteNodeOp(key.entity_id))
                else:
                    node_writes.append(WriteNodeOp(data))
            else:
                if data is None:
                    if key not in self._created:
                        rel_deletes.append(DeleteRelationshipOp(key.entity_id))
                else:
                    rel_writes.append(WriteRelationshipOp(data))
        return node_writes + rel_writes + rel_deletes + node_deletes
