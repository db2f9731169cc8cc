"""The layer map of the traced run: which entry points are spans, and the
per-layer metrics computed from them.

:data:`SPANS` names, for every layer, the public entry points the traced
launcher wraps.  Span names are ``<layer>.<what>``; a layer's self time is
the summed self time of its spans, so a call into a lower layer is charged
to that layer and not to its caller.

:func:`per_layer_metrics` turns one traced window — the merged span totals,
the named counts, ``db.statistics()`` at the start and end of the window,
and what the load generator measured — into the ``per_layer`` metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from wirebench.spans import SpanRecorder

# (module, attribute path, span name, kind, counter)
#   kind "call": one span per call; "context": the call returns a context
#   manager whose enter and exit are each a span.
#   counter: optional (result, *args) -> (count name, amount).
_Target = Tuple[str, str, str, str, Optional[Callable]]


def _one_key(result, *args, **kwargs):
    return ("core.keys", 1)


def _many_keys(result, *args, **kwargs):
    return ("core.keys", len(result))


def _frame_bytes(result, *args, **kwargs):
    return ("server.frame_bytes", len(result))


def _rows(result, *args, **kwargs):
    return ("query.rows", len(result))


def _statement(result, *args, **kwargs):
    return ("query.statements", 1)


SPANS: List[_Target] = [
    # server: request dispatch and the wire codec (server side only)
    ("repro.server.session", "ServerSession.handle", "server.handle", "call", None),
    ("repro.server.protocol", "encode_frame", "server.codec", "call", _frame_bytes),
    ("repro.server.protocol", "decode_payload", "server.codec", "call", None),
    ("repro.server.protocol", "encode_value", "server.codec", "call", None),
    ("repro.server.protocol", "decode_value", "server.codec", "call", None),
    # api: sessions and user-facing transactions
    ("repro.api.session", "Session.execute", "api.session", "call", None),
    ("repro.api.session", "Session.begin", "api.session", "call", None),
    ("repro.api.session", "Session.commit", "api.session", "call", None),
    ("repro.api.session", "Session.rollback", "api.session", "call", None),
    ("repro.api.database", "GraphDatabase.begin", "api.txn_begin", "call", None),
    ("repro.api.transaction", "Transaction.commit", "api.txn_commit", "call", None),
    # query: prepare (parse cache, plan cache, planner) and operators
    ("repro.query.cache", "ParseCache.parse", "query.prepare", "call", None),
    ("repro.query.cache", "PlanCache.get", "query.prepare", "call", None),
    ("repro.query.cache", "PlanCache.put", "query.prepare", "call", None),
    ("repro.query", "plan_query", "query.prepare", "call", None),
    ("repro.query", "execute", "query.operator", "call", _statement),
    ("repro.query.result", "QueryResult.consume", "query.operator", "call", None),
    ("repro.query.result", "QueryResult.records", "query.operator", "call", _rows),
    # core: transaction begin/commit and the read rule
    ("repro.core.si_manager", "SnapshotIsolationEngine.begin", "core.begin", "call", None),
    ("repro.locking.rc_manager", "ReadCommittedEngine.begin", "core.begin", "call", None),
    ("repro.core.si_manager", "SnapshotIsolationEngine.commit_transaction",
     "core.commit", "call", None),
    ("repro.locking.rc_manager", "ReadCommittedEngine.commit_transaction",
     "core.commit", "call", None),
    ("repro.core.si_manager", "SnapshotIsolationEngine.read_committed_version",
     "core.resolve", "call", _one_key),
    ("repro.core.si_manager", "SnapshotIsolationEngine.read_committed_versions",
     "core.resolve", "call", _many_keys),
    ("repro.locking.rc_transaction", "ReadCommittedTransaction.read_node",
     "core.resolve", "call", _one_key),
    ("repro.locking.rc_transaction", "ReadCommittedTransaction.read_relationship",
     "core.resolve", "call", _one_key),
    # index: label / property / type lookups (versioned under SI, plain under RC)
    ("repro.core.versioned_index", "VersionedLabelIndex.visible", "index.lookup", "call", None),
    ("repro.core.versioned_index", "VersionedPropertyIndex.visible", "index.lookup", "call", None),
    ("repro.core.versioned_index", "VersionedRelationshipTypeIndex.visible",
     "index.lookup", "call", None),
    ("repro.index.index_manager", "IndexManager.nodes_with_label", "index.lookup", "call", None),
    ("repro.index.index_manager", "IndexManager.nodes_with_property", "index.lookup", "call", None),
    ("repro.index.index_manager", "IndexManager.relationships_with_property",
     "index.lookup", "call", None),
    ("repro.index.index_manager", "IndexManager.relationships_of_type", "index.lookup", "call", None),
    # locking: the lock table (RC's read and write locks, SI's first-updater locks)
    ("repro.locking.lock_manager", "LockManager.acquire", "locking.lock", "call", None),
    ("repro.locking.lock_manager", "LockManager.try_acquire", "locking.lock", "call", None),
    ("repro.locking.lock_manager", "LockManager.release_all", "locking.lock", "call", None),
    ("repro.locking.lock_manager", "LockManager.shared_guard", "locking.lock", "context", None),
    # graph: record store reads, the WAL and store application
    ("repro.graph.store_manager", "StoreManager.read_node", "graph.record_read", "call", None),
    ("repro.graph.store_manager", "StoreManager.read_relationship",
     "graph.record_read", "call", None),
    ("repro.graph.wal", "WriteAheadLog.append_commits", "graph.wal_append", "call", None),
    ("repro.graph.store_manager", "StoreManager.apply_batch", "graph.store_apply", "call", None),
]


def install(recorder: SpanRecorder) -> int:
    """Replace every entry point in :data:`SPANS` with a recording wrapper.

    Returns the number of entry points wrapped.  Raises if one is missing,
    so a renamed entry point fails the traced run instead of silently
    dropping a layer.
    """
    for module_name, path, name, kind, counter in SPANS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
        if kind == "context":
            wrapped = recorder.wrap_context(name, original)
        else:
            wrapped = recorder.wrap(name, original, counter)
        setattr(owner, attr, wrapped)
    return len(SPANS)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


#: name: (unit, better) for every metric :func:`per_layer_metrics` returns,
#: plus the tracing overhead the runner adds.
PER_LAYER_UNITS = {
    "client.cpu_share": ("ratio", "lower"),
    "client.abort_ratio": ("ratio", "lower"),
    "client.failed_ratio": ("ratio", "lower"),
    "server.wire_queue_us": ("us", "lower"),
    "server.codec_us": ("us", "lower"),
    "server.response_bytes": ("bytes", "lower"),
    "server.handle_self_us": ("us", "lower"),
    "api.session_self_us": ("us", "lower"),
    "api.txn_begin_us": ("us", "lower"),
    "api.txn_commit_self_us": ("us", "lower"),
    "query.prepare_us": ("us", "lower"),
    "query.plan_cache_hit_ratio": ("ratio", "higher"),
    "query.operator_self_us": ("us", "lower"),
    "query.keys_per_row": ("count", "lower"),
    "core.resolve_us": ("us", "lower"),
    "core.keys_resolved": ("count", "lower"),
    "graph.object_cache_hit_ratio": ("ratio", "higher"),
    "core.begin_us": ("us", "lower"),
    "core.pending_reader_ratio": ("ratio", "lower"),
    "core.commit_self_us": ("us", "lower"),
    "core.stripe_waits_per_commit": ("count", "lower"),
    "core.ww_aborts_per_commit": ("count", "lower"),
    "core.rw_aborts_per_commit": ("count", "lower"),
    "core.safe_snapshot_aborts_per_commit": ("count", "lower"),
    "core.versions_per_entity": ("count", "lower"),
    "index.lookup_us": ("us", "lower"),
    "locking.lock_us": ("us", "lower"),
    "locking.waits_per_stmt": ("count", "lower"),
    "graph.record_read_us": ("us", "lower"),
    "graph.page_cache_hit_ratio": ("ratio", "higher"),
    "graph.wal_append_us": ("us", "lower"),
    "graph.wal_bytes_per_commit": ("bytes", "lower"),
    "graph.store_apply_us": ("us", "lower"),
    "trace.overhead_ratio": ("x", "lower"),
}


def _get(stats: dict, path: str, default=0):
    node = stats
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(trace: dict, client: dict) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced window.

    ``trace`` is what the launcher wrote: ``spans``/``counts`` from
    :meth:`SpanRecorder.totals` and ``stats_start``/``stats_end``.
    ``client`` holds the generator's figures for the same window:
    ``cpu_share``, ``requests``, ``request_seconds`` (summed round trips),
    ``attempts``, ``aborts``, ``failed`` and ``ops``.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    start, end = trace["stats_start"], trace["stats_end"]

    def delta(path: str) -> float:
        return _get(end, path) - _get(start, path)

    def us(name: str, per: float, which: str = "self_ns") -> float:
        row = spans.get(name)
        return _ratio(row[which] / 1000.0, per) if row else 0.0

    def calls(name: str) -> int:
        row = spans.get(name)
        return row["calls"] if row else 0

    requests = calls("server.handle")
    statements = counts.get("query.statements", 0)
    commits = delta("wal.appended_batches")
    begins = calls("core.begin")
    plan_hits = delta("query_cache.plan.hits")
    plan_misses = delta("query_cache.plan.misses")
    obj_hits, obj_misses = delta("object_cache.hits"), delta("object_cache.misses")
    page_hits, page_misses = delta("page_cache.hits"), delta("page_cache.misses")
    immediate = delta("safe_snapshots.immediate")
    tracked = delta("safe_snapshots.tracked")
    reasons = "engine.transactions.abort_reasons."
    versions = _get(end, "engine.versions.total_versions")
    chains = _get(end, "engine.versions.chains")
    handle_us = us("server.handle", requests, "total_ns")
    rtt_us = _ratio(client["request_seconds"] * 1e6, client["requests"])
    return {
        "client.cpu_share": client["cpu_share"],
        "client.abort_ratio": _ratio(client["aborts"], client["attempts"]),
        "client.failed_ratio": _ratio(client["failed"], client["ops"]),
        "server.wire_queue_us": rtt_us - handle_us,
        "server.codec_us": us("server.codec", requests),
        "server.response_bytes": _ratio(counts.get("server.frame_bytes", 0), requests),
        "server.handle_self_us": us("server.handle", requests),
        "api.session_self_us": us("api.session", requests),
        "api.txn_begin_us": us("api.txn_begin", calls("api.txn_begin")),
        "api.txn_commit_self_us": us("api.txn_commit", calls("api.txn_commit")),
        "query.prepare_us": us("query.prepare", statements),
        "query.plan_cache_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "query.operator_self_us": us("query.operator", statements),
        "query.keys_per_row": _ratio(counts.get("core.keys", 0), counts.get("query.rows", 0)),
        "core.resolve_us": us("core.resolve", statements),
        "core.keys_resolved": _ratio(counts.get("core.keys", 0), statements),
        "graph.object_cache_hit_ratio": _ratio(obj_hits, obj_hits + obj_misses),
        "core.begin_us": us("core.begin", begins),
        "core.pending_reader_ratio": _ratio(tracked, immediate + tracked),
        "core.commit_self_us": us("core.commit", calls("core.commit")),
        "core.stripe_waits_per_commit": _ratio(
            delta("engine.commit_pipeline.stripe_waits"), commits
        ),
        "core.ww_aborts_per_commit": _ratio(delta(reasons + "ww-conflict"), commits),
        "core.rw_aborts_per_commit": _ratio(delta(reasons + "rw-antidependency"), commits),
        "core.safe_snapshot_aborts_per_commit": _ratio(
            delta(reasons + "safe-snapshot"), commits
        ),
        "core.versions_per_entity": _ratio(versions, chains),
        "index.lookup_us": us("index.lookup", statements),
        "locking.lock_us": us("locking.lock", statements),
        "locking.waits_per_stmt": _ratio(delta("locks.waits"), statements),
        "graph.record_read_us": us("graph.record_read", statements),
        "graph.page_cache_hit_ratio": _ratio(page_hits, page_hits + page_misses),
        "graph.wal_append_us": us("graph.wal_append", commits),
        "graph.wal_bytes_per_commit": _ratio(delta("wal.bytes_appended"), commits),
        "graph.store_apply_us": us("graph.store_apply", commits),
    }

