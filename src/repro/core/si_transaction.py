"""Snapshot-isolation transactions.

A :class:`SnapshotTransaction` reads from the snapshot taken at its start
timestamp (the read rule), keeps its uncommitted writes in a private write
set (read-your-own-writes without exposing uncommitted data to others), and
checks the write rule on every first update of an entity (first-updater-wins,
via the engine's conflict detector).

Unlike the read-committed transaction it never takes read locks: the paper
removes Neo4j's short read locks entirely because the version chains make
them unnecessary.

Because a snapshot is immutable, everything a transaction resolves from the
*committed* state — point-lookup payloads and per-node adjacency lists — can
be cached for the transaction's lifetime without any invalidation protocol:
no commit, GC pass or chain swap can change what this snapshot sees.  The
caches hold only committed resolutions; the private write set is overlaid on
every read, so read-your-own-writes still holds for entities the transaction
itself touches.  ``friends_of_friends``-style traversals, which revisit the
same nodes across hops, stop re-resolving the same chains entirely.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.snapshot import Snapshot
from repro.core.versioned_iterator import SnapshotIterator
from repro.engine import EngineTransaction, TransactionState
from repro.errors import ReadOnlyTransactionError, classify_abort
from repro.graph.entity import (
    Direction,
    EntityKey,
    EntityKind,
    NodeData,
    RelationshipData,
)
from repro.graph.properties import PropertyValue
from repro.index.property_index import hashable_value

#: Sentinel distinguishing "cached as absent" from "not cached".
_MISSING = object()

#: Upper bound on entries per snapshot-local cache; a transaction that reads
#: more distinct entities than this simply stops inserting (hits keep
#: working), so a whole-store scan cannot balloon a long transaction.
SNAPSHOT_CACHE_LIMIT = 65_536


class SnapshotTransaction(EngineTransaction):
    """One transaction running under the snapshot-isolation engine."""

    def __init__(
        self,
        engine,
        snapshot: Snapshot,
        *,
        read_only: bool = False,
        cc_record=None,
        safe_snapshot=None,
    ) -> None:
        super().__init__(snapshot.txn_id, read_only=read_only)
        self._engine = engine
        self.snapshot = snapshot
        #: Concurrency-control record (SSI tracking; ``None`` under plain SI
        #: and for read-only serializable transactions, which register no
        #: reads and can never be aborted).
        self.cc_record = cc_record
        self._cc = engine.cc
        self._track_reads = cc_record is not None and self._cc.tracks_reads
        #: Commit timestamp, set by the engine once a versioned commit
        #: publishes (``None`` for writeless or uncommitted transactions).
        #: Experiments and the history-recording test harness read it.
        self.commit_ts: Optional[int] = None
        #: Safe-snapshot handle (read-only serializable transactions whose
        #: snapshot is not yet proven safe).  While present, reads are
        #: buffered locally so a forced upgrade can register them
        #: retroactively; once the snapshot resolves safe the handle is
        #: dropped and the read path pays nothing again.
        self.safe_snapshot = safe_snapshot
        self._pending_reader = safe_snapshot
        #: Private uncommitted versions: entity key -> new state (None = delete).
        self._writes: Dict[EntityKey, Optional[object]] = {}
        #: Keys created by this transaction (no committed predecessor).
        self._created: Set[EntityKey] = set()
        #: Number of reads served (used by experiments).
        self.reads_performed = 0
        #: Snapshot-local caches (safe because the snapshot is immutable);
        #: ``None`` when the engine was opened with the cache disabled.
        enabled = getattr(engine, "snapshot_read_cache", True)
        self._payload_cache: Optional[Dict[EntityKey, object]] = {} if enabled else None
        self._adjacency_cache: Optional[Dict[int, Tuple[RelationshipData, ...]]] = (
            {} if enabled else None
        )
        #: Memo of *filtered* adjacency answers keyed by (node, direction,
        #: types), valid only while the write set is empty.  The raw
        #: adjacency cache above saves chain resolution but a hit still pays
        #: the full direction/type filter loop per call, which benchmarking
        #: showed costs as much as re-resolving — this memo makes a repeat
        #: ``relationships_of`` a single dict probe (see
        #: :meth:`relationships_of`).
        self._filtered_adjacency_cache: Optional[Dict[tuple, List[RelationshipData]]] = (
            {} if enabled else None
        )
        #: Cache effectiveness counters (surfaced by bench_e11 and tests).
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0
        #: Observability trace (set by the engine for sampled transactions).
        self.trace = None
        #: Classified cause when :meth:`commit` aborts (``None`` for explicit
        #: rollbacks); feeds the labelled abort counter and the trace.
        self.abort_reason: Optional[str] = None

    @property
    def start_ts(self) -> int:
        """Start timestamp of this transaction's snapshot."""
        return self.snapshot.start_ts

    # ------------------------------------------------------------------
    # reads (read rule + read-your-own-writes)
    # ------------------------------------------------------------------

    def _resolve(self, key: EntityKey) -> Optional[object]:
        """Read path shared by point reads, scans and index lookups.

        Own writes win; committed resolutions are memoised per snapshot
        (``None`` — absent or invisible — is cached too, since within one
        snapshot that answer can never change).
        """
        self.reads_performed += 1
        if key in self._writes:
            return self._writes[key]
        return self._resolve_committed(key)

    def _resolve_committed(self, key: EntityKey) -> Optional[object]:
        """Committed-state resolution through the snapshot-local payload cache.

        Shared by point reads (:meth:`_resolve`, after the own-writes check)
        and the adjacency path (:meth:`_committed_adjacency`), so a chain
        resolved while expanding a node is never re-resolved by a later
        point read of the same entity — and vice versa.

        This is also the single choke point where serializable transactions
        register their SIREADs: every committed-state resolution — point
        read, index lookup materialisation, scan, traversal — funnels through
        here, so one hook covers them all.  Own-write reads never reach this
        method and correctly register nothing.
        """
        if self._track_reads:
            self._cc.register_point_read(self.cc_record, key)
        elif self._pending_reader is not None:
            handle = self._pending_reader
            if not (handle.safe or handle.upgrade_required or handle.upgraded):
                # Hot path of a pending safe-snapshot reader: buffer the key
                # locally (only this thread touches the buffer) and move on.
                handle.record.read_keys.add(key)
            else:
                self._observe_pending_read(key, None)
        cache = self._payload_cache
        if cache is None:
            return self._engine.read_committed_version(key, self.snapshot.start_ts)
        cached = cache.get(key, _MISSING)
        if cached is not _MISSING:
            self.snapshot_cache_hits += 1
            return cached
        resolved = self._engine.read_committed_version(key, self.snapshot.start_ts)
        self.snapshot_cache_misses += 1
        if len(cache) < SNAPSHOT_CACHE_LIMIT:
            cache[key] = resolved
        return resolved

    # -- batch reads (vectorized executor) -----------------------------------

    def _resolve_many(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """Batch form of :meth:`_resolve`: own writes overlaid, then one
        batched committed-state resolution for everything else."""
        self.reads_performed += len(keys)
        writes = self._writes
        if not writes:
            return self._resolve_committed_many(keys)
        resolved: List[Optional[object]] = [None] * len(keys)
        committed_keys: List[EntityKey] = []
        committed_indexes: List[int] = []
        for index, key in enumerate(keys):
            if key in writes:
                resolved[index] = writes[key]
            else:
                committed_indexes.append(index)
                committed_keys.append(key)
        if committed_keys:
            for index, value in zip(
                committed_indexes, self._resolve_committed_many(committed_keys)
            ):
                resolved[index] = value
        return resolved

    def _resolve_committed_many(self, keys: Sequence[EntityKey]) -> List[Optional[object]]:
        """Batch committed-state resolution: the whole batch pays one SIREAD
        registration visit (one tracker-mutex acquisition under SSI) and one
        engine-level chain-resolution pass, instead of one of each per key.

        Semantically identical to calling :meth:`_resolve_committed` per key
        — same SIREADs registered, same cache interactions — just amortised.
        """
        if self._track_reads:
            self._cc.register_point_reads(self.cc_record, keys)
        elif self._pending_reader is not None:
            handle = self._pending_reader
            if not (handle.safe or handle.upgrade_required or handle.upgraded):
                handle.record.read_keys.update(keys)
            else:
                for key in keys:
                    # The first observation can find the handle safe and
                    # unhook the reader; the rest of the batch is then free.
                    if self._pending_reader is None:
                        break
                    self._observe_pending_read(key, None)
        cache = self._payload_cache
        start_ts = self.snapshot.start_ts
        if cache is None:
            return self._engine.read_committed_versions(keys, start_ts)
        resolved: List[Optional[object]] = [None] * len(keys)
        miss_keys: List[EntityKey] = []
        miss_indexes: List[int] = []
        hits = 0
        for index, key in enumerate(keys):
            cached = cache.get(key, _MISSING)
            if cached is not _MISSING:
                hits += 1
                resolved[index] = cached
            else:
                miss_indexes.append(index)
                miss_keys.append(key)
        self.snapshot_cache_hits += hits
        if miss_keys:
            loaded = self._engine.read_committed_versions(miss_keys, start_ts)
            self.snapshot_cache_misses += len(miss_keys)
            for index, key, value in zip(miss_indexes, miss_keys, loaded):
                resolved[index] = value
                if len(cache) < SNAPSHOT_CACHE_LIMIT:
                    cache[key] = value
        return resolved

    def read_nodes_many(self, node_ids: Sequence[int]) -> List[Optional[NodeData]]:
        self.ensure_open()
        resolved = self._resolve_many([EntityKey.node(i) for i in node_ids])
        return [
            value if isinstance(value, NodeData) else None for value in resolved
        ]

    def read_relationships_many(
        self, rel_ids: Sequence[int]
    ) -> List[Optional[RelationshipData]]:
        self.ensure_open()
        resolved = self._resolve_many(
            [EntityKey.relationship(i) for i in rel_ids]
        )
        return [
            value if isinstance(value, RelationshipData) else None
            for value in resolved
        ]

    def read_node(self, node_id: int) -> Optional[NodeData]:
        self.ensure_open()
        resolved = self._resolve(EntityKey.node(node_id))
        return resolved if isinstance(resolved, NodeData) else None

    def read_relationship(self, rel_id: int) -> Optional[RelationshipData]:
        self.ensure_open()
        resolved = self._resolve(EntityKey.relationship(rel_id))
        return resolved if isinstance(resolved, RelationshipData) else None

    def iter_nodes(self) -> Iterator[NodeData]:
        self.ensure_open()
        self._register_predicate(("all_nodes",))
        return self._iterator().nodes()

    def iter_relationships(self) -> Iterator[RelationshipData]:
        self.ensure_open()
        self._register_predicate(("all_rels",))
        return self._iterator().relationships()

    def _register_predicate(self, predicate) -> None:
        """SSI predicate-read registration (no-op unless the policy tracks reads).

        Predicates — label scans, property lookups, type scans, whole-store
        iterations, adjacency expansions — are what catch phantoms: a
        concurrent committer whose change moves an entity into or out of the
        registered predicate forms an rw-antidependency with this
        transaction even though no common entity was point-read.
        """
        if self._track_reads:
            self._cc.register_predicate_read(self.cc_record, predicate)
        elif self._pending_reader is not None:
            self._observe_pending_read(None, predicate)

    def _observe_pending_read(self, key, predicate) -> None:
        """Read bookkeeping for a safe-snapshot reader (tentpole fast path).

        Until the snapshot resolves, reads are buffered into the handle's
        local record — a plain set add, touched only by this thread, so the
        untracked read path stays mutex-free.  When the census drains the
        handle flips safe and this method unhooks itself entirely; when a
        writer was aborted on this reader's behalf the handle demands an
        upgrade, after which every buffered and future read is registered
        as a real SIREAD so later committers get precise conflict checks.
        """
        handle = self._pending_reader
        if handle.safe and not handle.upgraded:
            self._pending_reader = None
            return
        if handle.upgrade_required and not handle.upgraded:
            self._cc.upgrade_reader(handle)
        if handle.upgraded:
            if key is not None:
                self._cc.register_point_read(handle.record, key)
            if predicate is not None:
                self._cc.register_predicate_read(handle.record, predicate)
        else:
            if key is not None:
                handle.record.read_keys.add(key)
            if predicate is not None:
                handle.record.predicates.add(predicate)

    def _iterator(self) -> SnapshotIterator:
        return SnapshotIterator(
            self._engine.store,
            self._engine.versions,
            resolver=self._resolve,
            own_writes=self._writes,
        )

    # -- index-backed predicate reads ---------------------------------------------

    def find_nodes_by_label(self, label: str) -> Set[int]:
        self.ensure_open()
        self._register_predicate(("label", label))
        result = self._engine.indexes.node_labels.visible(label, self.snapshot.start_ts)
        return self._overlay_nodes(result, lambda node: label in node.labels)

    def find_nodes_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        self._register_predicate(("node_prop", key, hashable_value(value)))
        result = self._engine.indexes.node_properties.visible(
            key, value, self.snapshot.start_ts
        )
        return self._overlay_nodes(result, lambda node: node.properties.get(key) == value)

    def find_relationships_by_property(self, key: str, value: PropertyValue) -> Set[int]:
        self.ensure_open()
        self._register_predicate(("rel_prop", key, hashable_value(value)))
        result = self._engine.indexes.relationship_properties.visible(
            key, value, self.snapshot.start_ts
        )
        return self._overlay_relationships(
            result, lambda rel: rel.properties.get(key) == value
        )

    def find_relationships_by_type(self, rel_type: str) -> Set[int]:
        """Ids of visible relationships of ``rel_type`` (snapshot-consistent)."""
        self.ensure_open()
        self._register_predicate(("rel_type", rel_type))
        result = self._engine.indexes.relationship_types.visible(
            rel_type, self.snapshot.start_ts
        )
        return self._overlay_relationships(result, lambda rel: rel.rel_type == rel_type)

    def _overlay_nodes(self, result: Set[int], predicate) -> Set[int]:
        """Overlay the private write set onto an index lookup result."""
        for key, data in self._writes.items():
            if key.kind is not EntityKind.NODE:
                continue
            if data is None:
                result.discard(key.entity_id)
            elif predicate(data):
                result.add(key.entity_id)
            else:
                result.discard(key.entity_id)
        return result

    def _overlay_relationships(self, result: Set[int], predicate) -> Set[int]:
        for key, data in self._writes.items():
            if key.kind is not EntityKind.RELATIONSHIP:
                continue
            if data is None:
                result.discard(key.entity_id)
            elif predicate(data):
                result.add(key.entity_id)
            else:
                result.discard(key.entity_id)
        return result

    # -- traversal reads -------------------------------------------------------------

    def _committed_adjacency(self, node_id: int) -> Tuple[RelationshipData, ...]:
        """Snapshot-visible committed relationships of one node, by rel id.

        Safe to cache for the transaction's lifetime: a candidate added to
        the global adjacency index by a later committer resolves to a version
        newer than this snapshot (invisible), and GC never reclaims a version
        an active snapshot can still select — so the resolved list is a pure
        function of (node, snapshot).
        """
        # An adjacency expansion is a predicate read over "relationships
        # touching this node": a concurrent committer attaching or detaching
        # a relationship here must form an rw edge even though the new
        # relationship id was never point-read.
        self._register_predicate(("adjacency", node_id))
        cache = self._adjacency_cache
        if cache is not None:
            cached = cache.get(node_id)
            if cached is not None:
                self.snapshot_cache_hits += 1
                # Keep the experiments' read counter consistent with the
                # payload cache, which counts hits as served reads too.
                self.reads_performed += len(cached)
                return cached
        # Untracked snapshot readers share one engine-level resolved cache:
        # its validity stamp makes an entry a pure function of (node,
        # snapshot), and with no SIREADs to register a hit is observably
        # identical to resolving.  SSI transactions skip it — they need the
        # per-relationship registrations the resolving path performs.
        untracked = not self._track_reads and self._pending_reader is None
        start_ts = self.snapshot.start_ts
        if untracked:
            shared = self._engine.cached_committed_adjacency(
                node_id, None, start_ts
            )
            if shared is not None:
                self.snapshot_cache_hits += 1
                self.reads_performed += len(shared)
                if cache is not None and len(cache) < SNAPSHOT_CACHE_LIMIT:
                    cache[node_id] = shared
                return shared
        candidates = self._engine.indexes.adjacency.candidate_rel_ids(node_id)
        resolved: List[RelationshipData] = []
        for rel_id in sorted(candidates):
            # Through the shared payload cache: a relationship resolved here
            # is free for later point reads of the same id (and vice versa).
            payload = self._resolve_committed(EntityKey.relationship(rel_id))
            if isinstance(payload, RelationshipData):
                resolved.append(payload)
        self.reads_performed += len(candidates)
        result = tuple(resolved)
        if untracked:
            self._engine.store_committed_adjacency(
                node_id, None, start_ts, result
            )
        if cache is not None:
            self.snapshot_cache_misses += 1
            if len(cache) < SNAPSHOT_CACHE_LIMIT:
                cache[node_id] = result
        return result

    def _committed_adjacency_many(
        self, node_ids: Sequence[int]
    ) -> List[Tuple[RelationshipData, ...]]:
        """Batch form of :meth:`_committed_adjacency`.

        One predicate-registration visit covers every expanded node and one
        batched resolution covers every candidate relationship, so a
        batch-expand of N sources pays two tracker-mutex acquisitions under
        SSI instead of N + (total candidate) ones.
        """
        predicates = [("adjacency", node_id) for node_id in node_ids]
        if self._track_reads:
            self._cc.register_predicate_reads(self.cc_record, predicates)
        elif self._pending_reader is not None:
            handle = self._pending_reader
            if not (handle.safe or handle.upgrade_required or handle.upgraded):
                handle.record.predicates.update(predicates)
            else:
                for predicate in predicates:
                    if self._pending_reader is None:
                        break
                    self._observe_pending_read(None, predicate)
        cache = self._adjacency_cache
        untracked = not self._track_reads and self._pending_reader is None
        start_ts = self.snapshot.start_ts
        engine = self._engine
        results: List[Optional[Tuple[RelationshipData, ...]]] = [None] * len(node_ids)
        miss_ids: List[int] = []
        miss_indexes: List[int] = []
        for index, node_id in enumerate(node_ids):
            cached = cache.get(node_id) if cache is not None else None
            if cached is None and untracked:
                cached = engine.cached_committed_adjacency(
                    node_id, None, start_ts
                )
                if cached is not None and cache is not None \
                        and len(cache) < SNAPSHOT_CACHE_LIMIT:
                    cache[node_id] = cached
            if cached is not None:
                self.snapshot_cache_hits += 1
                self.reads_performed += len(cached)
                results[index] = cached
            else:
                miss_indexes.append(index)
                miss_ids.append(node_id)
        if miss_ids:
            candidate_rel_ids = self._engine.indexes.adjacency
            per_node: List[List[int]] = [
                sorted(candidate_rel_ids.candidate_rel_ids(node_id))
                for node_id in miss_ids
            ]
            flat_keys = [
                EntityKey.relationship(rel_id)
                for rel_ids in per_node
                for rel_id in rel_ids
            ]
            resolved = self._resolve_committed_many(flat_keys) if flat_keys else []
            cursor = 0
            for index, node_id, rel_ids in zip(miss_indexes, miss_ids, per_node):
                count = len(rel_ids)
                window = resolved[cursor:cursor + count]
                cursor += count
                adjacency = tuple(
                    payload
                    for payload in window
                    if isinstance(payload, RelationshipData)
                )
                self.reads_performed += count
                results[index] = adjacency
                if untracked:
                    engine.store_committed_adjacency(
                        node_id, None, start_ts, adjacency
                    )
                if cache is not None:
                    self.snapshot_cache_misses += 1
                    if len(cache) < SNAPSHOT_CACHE_LIMIT:
                        cache[node_id] = adjacency
        return results  # type: ignore[return-value]

    def _overlay_and_filter(
        self,
        node_id: int,
        committed: Tuple[RelationshipData, ...],
        direction: Direction,
        wanted_types: Optional[Set[str]],
    ) -> List[RelationshipData]:
        """Write-set overlay + direction/type filter of one adjacency list."""
        # Overlay the private write set: relationship endpoints are immutable,
        # so an own write either replaces a committed entry (property update),
        # adds a new one (create) or removes one (delete).
        relationships: Sequence[RelationshipData] = committed
        if self._writes:
            merged: Dict[int, RelationshipData] = {
                relationship.rel_id: relationship for relationship in committed
            }
            changed = False
            for key, data in self._writes.items():
                if key.kind is not EntityKind.RELATIONSHIP:
                    continue
                if data is None:
                    if merged.pop(key.entity_id, None) is not None:
                        changed = True
                elif data.touches(node_id):
                    merged[key.entity_id] = data
                    changed = True
            if changed:
                relationships = [merged[rel_id] for rel_id in sorted(merged)]
        # Adjacency candidates always touch the node, so BOTH never filters
        # on direction — skip the per-relationship endpoint checks.
        if direction is Direction.BOTH:
            if wanted_types is None:
                return list(relationships)
            return [
                relationship
                for relationship in relationships
                if relationship.rel_type in wanted_types
            ]
        result: List[RelationshipData] = []
        for relationship in relationships:
            if not direction.matches(node_id, relationship.start_node, relationship.end_node):
                continue
            if wanted_types is not None and relationship.rel_type not in wanted_types:
                continue
            result.append(relationship)
        return result

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[RelationshipData]:
        self.ensure_open()
        # Fast path for repeat expansions: while the transaction has written
        # nothing, the *filtered* answer is as immutable as the snapshot, so
        # a traversal revisiting a node skips the overlay and filter loops
        # entirely.  (Predicate/SIREAD registration already happened when the
        # entry was populated — both are per-transaction sets, so repeats
        # register nothing new anyway.)
        memo = self._filtered_adjacency_cache
        memo_key = None
        if memo is not None and not self._writes:
            memo_key = (node_id, direction, tuple(rel_types) if rel_types else None)
            cached = memo.get(memo_key)
            if cached is None and not self._track_reads \
                    and self._pending_reader is None:
                cached = self._engine.cached_committed_adjacency(
                    node_id, (direction, memo_key[2]), self.snapshot.start_ts
                )
                if cached is not None and len(memo) < SNAPSHOT_CACHE_LIMIT:
                    memo[memo_key] = cached
            if cached is not None:
                self.snapshot_cache_hits += 1
                self.reads_performed += len(cached)
                return list(cached)
        committed = self._committed_adjacency(node_id)
        wanted_types = set(rel_types) if rel_types else None
        result = self._overlay_and_filter(node_id, committed, direction, wanted_types)
        if memo_key is not None:
            if not self._track_reads and self._pending_reader is None:
                self._engine.store_committed_adjacency(
                    node_id, (direction, memo_key[2]),
                    self.snapshot.start_ts, tuple(result),
                )
            if len(memo) < SNAPSHOT_CACHE_LIMIT:
                memo[memo_key] = result
                return list(result)
        return result

    def relationships_of_many(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_types: Optional[Sequence[str]] = None,
    ) -> List[List[RelationshipData]]:
        """Visible relationships of each node, resolved as one batch."""
        self.ensure_open()
        wanted_types = set(rel_types) if rel_types else None
        memo = self._filtered_adjacency_cache
        if memo is None or self._writes:
            committed_lists = self._committed_adjacency_many(node_ids)
            return [
                self._overlay_and_filter(node_id, committed, direction, wanted_types)
                for node_id, committed in zip(node_ids, committed_lists)
            ]
        types_key = tuple(rel_types) if rel_types else None
        variant = (direction, types_key)
        untracked = not self._track_reads and self._pending_reader is None
        start_ts = self.snapshot.start_ts
        engine = self._engine
        results: List[Optional[List[RelationshipData]]] = [None] * len(node_ids)
        miss_ids: List[int] = []
        miss_indexes: List[int] = []
        for index, node_id in enumerate(node_ids):
            cached = memo.get((node_id, direction, types_key))
            if cached is None and untracked:
                cached = engine.cached_committed_adjacency(
                    node_id, variant, start_ts
                )
                if cached is not None and len(memo) < SNAPSHOT_CACHE_LIMIT:
                    memo[(node_id, direction, types_key)] = cached
            if cached is not None:
                self.snapshot_cache_hits += 1
                self.reads_performed += len(cached)
                results[index] = list(cached)
            else:
                miss_indexes.append(index)
                miss_ids.append(node_id)
        if miss_ids:
            committed_lists = self._committed_adjacency_many(miss_ids)
            for index, node_id, committed in zip(miss_indexes, miss_ids, committed_lists):
                filtered = self._overlay_and_filter(
                    node_id, committed, direction, wanted_types
                )
                if untracked:
                    engine.store_committed_adjacency(
                        node_id, variant, start_ts, tuple(filtered)
                    )
                if len(memo) < SNAPSHOT_CACHE_LIMIT:
                    memo[(node_id, direction, types_key)] = filtered
                    results[index] = list(filtered)
                else:
                    results[index] = filtered
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # writes (write rule, first-updater-wins)
    # ------------------------------------------------------------------

    def put_node(self, node: NodeData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = node.key
        self._register_write(key, create=create)
        self._writes[key] = node

    def put_relationship(self, relationship: RelationshipData, *, create: bool = False) -> None:
        self.ensure_open()
        self._check_writable()
        key = relationship.key
        self._register_write(key, create=create)
        self._writes[key] = relationship

    def delete_node(self, node_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.node(node_id)
        self._register_write(key, create=False)
        self._writes[key] = None

    def delete_relationship(self, rel_id: int) -> None:
        self.ensure_open()
        self._check_writable()
        key = EntityKey.relationship(rel_id)
        self._register_write(key, create=False)
        self._writes[key] = None

    def _register_write(self, key: EntityKey, *, create: bool) -> None:
        """First-updater-wins check on the first write of each entity."""
        if key in self._writes:
            return
        if create:
            self._created.add(key)
            # A brand-new entity cannot conflict: its id has never been
            # visible to any other transaction.
            return
        self._engine.check_write_conflict(self, key)

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
        """The private write set (key -> new state, ``None`` for deletes)."""
        return dict(self._writes)

    def created_keys(self) -> Set[EntityKey]:
        """Keys of entities created by this transaction."""
        return set(self._created)

    def has_writes(self) -> bool:
        """Whether the transaction buffered any write."""
        return bool(self._writes)

    # ------------------------------------------------------------------
    # snapshot-local cache introspection
    # ------------------------------------------------------------------

    def snapshot_cache_stats(self) -> Dict[str, int]:
        """Effectiveness counters of the snapshot-local read caches."""
        return {
            "hits": self.snapshot_cache_hits,
            "misses": self.snapshot_cache_misses,
            "payload_entries": len(self._payload_cache or ()),
            "adjacency_entries": len(self._adjacency_cache or ()),
            "filtered_adjacency_entries": len(self._filtered_adjacency_cache or ()),
        }
