"""Per-layer metric arithmetic on a synthetic traced window."""

import pytest

from wirebench.layers import PER_LAYER_UNITS, per_layer_metrics


def _span(self_us, total_us, calls):
    return {"self_ns": self_us * 1000, "total_ns": total_us * 1000, "calls": calls}


def _trace():
    start = {
        "wal": {"appended_batches": 10, "bytes_appended": 1000},
        "query_cache": {"plan": {"hits": 0, "misses": 0}},
        "engine": {"transactions": {"abort_reasons": {"ww-conflict": 1}}},
        "locks": {"waits": 0},
    }
    end = {
        "wal": {"appended_batches": 20, "bytes_appended": 3000},
        "query_cache": {"plan": {"hits": 90, "misses": 10}},
        "engine": {
            "transactions": {"abort_reasons": {"ww-conflict": 6}},
            "versions": {"total_versions": 30, "chains": 20},
        },
        "locks": {"waits": 4},
    }
    return {
        "spans": {
            "server.handle": _span(100, 400, 4),
            "query.operator": _span(80, 120, 12),
            "graph.wal_append": _span(50, 50, 10),
        },
        "counts": {"query.statements": 4, "query.rows": 8, "core.keys": 16,
                   "server.frame_bytes": 400},
        "stats_start": start,
        "stats_end": end,
    }


def test_per_layer_metrics_from_a_synthetic_window():
    client = {"cpu_share": 0.2, "requests": 4, "request_seconds": 0.002,
              "attempts": 12, "aborts": 2, "failed": 0, "ops": 10}
    metrics = per_layer_metrics(_trace(), client)
    assert set(metrics) | {"trace.overhead_ratio"} == set(PER_LAYER_UNITS)
    assert metrics["server.wire_queue_us"] == pytest.approx(500 - 100)
    assert metrics["server.handle_self_us"] == pytest.approx(25)
    assert metrics["server.response_bytes"] == pytest.approx(100)
    assert metrics["query.operator_self_us"] == pytest.approx(20)
    assert metrics["query.keys_per_row"] == pytest.approx(2)
    assert metrics["core.keys_resolved"] == pytest.approx(4)
    assert metrics["query.plan_cache_hit_ratio"] == pytest.approx(0.9)
    assert metrics["core.ww_aborts_per_commit"] == pytest.approx(0.5)
    assert metrics["graph.wal_append_us"] == pytest.approx(5)
    assert metrics["graph.wal_bytes_per_commit"] == pytest.approx(200)
    assert metrics["core.versions_per_entity"] == pytest.approx(1.5)
    assert metrics["locking.waits_per_stmt"] == pytest.approx(1)
    assert metrics["client.abort_ratio"] == pytest.approx(2 / 12)
    # layers the window never entered read 0, not an error
    assert metrics["graph.record_read_us"] == 0
    assert metrics["core.pending_reader_ratio"] == 0
