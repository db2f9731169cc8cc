"""E11 — the lock-free read path, measured layer by layer.

Three series, each isolating one layer of the PR-3 read-path overhaul:

* ``chain_resolve`` — microbenchmark of ``VersionChain.visible_to`` on the
  copy-on-write chains (plus a liveness probe proving resolution succeeds
  while another thread holds the chain's write lock — zero lock
  acquisitions on the read path).
* ``traversal`` — ``two_step_neighbourhood`` (the paper's friends-of-friends
  motivating workload) under snapshot isolation with the snapshot-local
  adjacency/payload caches on vs. off.
* ``query_mix`` — the E10 declarative query mix (4 readers / 4 writers)
  under snapshot isolation (plan cache on and off) and read committed.

When the repository's committed ``BENCH_e10_query_throughput.json`` is
present, the SI cell is also reported as a ratio over that file's
snapshot row — a same-code cross-check of the two harnesses.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e11_read_path.py

or through pytest (reduced duration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e11_read_path.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(__file__))

from repro import GraphDatabase, IsolationLevel, TransactionAbortedError
from repro.api.traversal import two_step_neighbourhood
from repro.core.version import Version, VersionChain
from repro.graph.entity import EntityKey, NodeData
from repro.workload import (
    QueryMix,
    READ_TEMPLATES,
    WRITE_TEMPLATES,
    build_social_graph,
    person_names_of,
)

from repro.workload.metrics import LatencyRecorder

from bench_helpers import (
    abort_reasons_of,
    latency_percentiles,
    open_db,
    print_row,
    write_json,
)

PEOPLE = 200
AVG_FRIENDS = 4
READERS = 4
WRITERS = 4

_BASELINE_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_e10_query_throughput.json",
)


# ---------------------------------------------------------------------------
# Series 1: chain-resolution microbenchmark
# ---------------------------------------------------------------------------


def _bench_chain_resolve(*, versions: int, resolutions: int) -> Dict[str, object]:
    key = EntityKey.node(1)
    chain = VersionChain(key)
    for index in range(versions):
        payload = NodeData(1, properties={"value": index})
        chain.add_committed(Version(key, payload, commit_ts=index * 2 + 1))
    max_ts = versions * 2 + 2

    # Liveness probe: resolve while another thread holds the write lock.
    lock_taken = threading.Event()
    release = threading.Event()

    def hold() -> None:
        with chain.write_lock:
            lock_taken.set()
            release.wait(timeout=10.0)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    lock_taken.wait(timeout=10.0)
    probe = chain.visible_to(max_ts)
    lock_free = probe is not None and probe.payload.properties["value"] == versions - 1
    release.set()
    holder.join(timeout=10.0)

    rng = random.Random(11)
    timestamps = [rng.randint(0, max_ts) for _ in range(1024)]
    started = time.perf_counter()
    for index in range(resolutions):
        chain.visible_to(timestamps[index & 1023])
    duration = time.perf_counter() - started
    return {
        "series": "chain_resolve",
        "chain_versions": versions,
        "resolutions": resolutions,
        "duration_seconds": round(duration, 4),
        "resolutions_per_second": round(resolutions / duration, 0),
        "read_succeeds_while_write_lock_held": bool(lock_free),
    }


# ---------------------------------------------------------------------------
# Series 2: friends-of-friends traversal, snapshot cache on/off
# ---------------------------------------------------------------------------


def _bench_traversal(*, seconds: float, snapshot_read_cache: bool,
                     seed: int = 7) -> Dict[str, object]:
    db = open_db(IsolationLevel.SNAPSHOT, snapshot_read_cache=snapshot_read_cache)
    build_social_graph(db, people=PEOPLE, avg_friends=AVG_FRIENDS, seed=seed)
    with db.begin(read_only=True) as tx:
        person_ids = [node.id for node in tx.find_nodes(label="Person")]
    rng = random.Random(seed)
    traversals = 0
    cache_hits = cache_misses = 0
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    while time.perf_counter() < deadline:
        with db.begin(read_only=True) as tx:
            for _ in range(10):
                start = person_ids[rng.randrange(len(person_ids))]
                two_step_neighbourhood(tx, start, rel_types=["KNOWS"])
                traversals += 1
            stats = tx.engine_transaction.snapshot_cache_stats()
            cache_hits += stats["hits"]
            cache_misses += stats["misses"]
    duration = time.perf_counter() - started
    db.close()
    lookups = cache_hits + cache_misses
    return {
        "series": "traversal",
        "snapshot_read_cache": snapshot_read_cache,
        "traversals": traversals,
        "duration_seconds": round(duration, 3),
        "traversals_per_second": round(traversals / duration, 1),
        "cache_hit_ratio": round(cache_hits / lookups, 3) if lookups else 0.0,
    }


# ---------------------------------------------------------------------------
# Series 3: the E10 query mix with per-layer knobs
# ---------------------------------------------------------------------------


def _bench_query_mix(label: str, *, seconds: float, readers: int, writers: int,
                     seed: int = 7, **db_options) -> Dict[str, object]:
    isolation = db_options.pop("isolation")
    db = open_db(isolation, **db_options)
    build_social_graph(db, people=PEOPLE, avg_friends=AVG_FRIENDS, seed=seed)
    names = person_names_of(db)
    read_mix = QueryMix(names, READ_TEMPLATES)
    write_mix = QueryMix(names, WRITE_TEMPLATES)

    stop = threading.Event()
    barrier = threading.Barrier(readers + writers + 1)
    query_counts = [0] * readers
    write_counts = [0] * writers
    conflict_counts = [0] * writers
    read_latencies = LatencyRecorder()
    write_latencies = LatencyRecorder()

    def reader(reader_id: int) -> None:
        rng = random.Random(seed * 1_009 + reader_id)
        barrier.wait()
        while not stop.is_set():
            template, params = read_mix.sample(rng)
            op_started = time.perf_counter()
            try:
                with db.transaction(read_only=True) as tx:
                    result = tx.execute(template.text, params)
                    result.consume()
            except TransactionAbortedError:
                # RC readers can lose a (rare, conservative) deadlock check
                # against a writer's long locks; retry, don't count.
                continue
            read_latencies.record(time.perf_counter() - op_started)
            query_counts[reader_id] += 1

    def writer(writer_id: int) -> None:
        rng = random.Random(seed * 2_003 + writer_id)
        barrier.wait()
        while not stop.is_set():
            template, params = write_mix.sample(rng)
            op_started = time.perf_counter()
            try:
                with db.transaction() as tx:
                    tx.execute(template.text, params)
                write_latencies.record(time.perf_counter() - op_started)
                write_counts[writer_id] += 1
            except TransactionAbortedError:
                conflict_counts[writer_id] += 1

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True) for i in range(readers)
    ] + [
        threading.Thread(target=writer, args=(i,), daemon=True) for i in range(writers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    stats = db.statistics()
    row: Dict[str, object] = {
        "series": "query_mix",
        "cell": label,
        "isolation": isolation.value,
        "readers": readers,
        "writers": writers,
        "duration_seconds": round(duration, 3),
        "queries": sum(query_counts),
        "queries_per_second": round(sum(query_counts) / duration, 1),
        "writes_committed": sum(write_counts),
        "writes_per_second": round(sum(write_counts) / duration, 1),
        "write_conflicts": sum(conflict_counts),
        "read_latency": latency_percentiles(read_latencies),
        "write_latency": latency_percentiles(write_latencies),
        "abort_reasons": abort_reasons_of(db),
        "plan_cache": stats["query_cache"]["plan"],
    }
    db.close()
    return row


def _load_baseline() -> Optional[float]:
    """SI queries/sec from the committed E10 result, if present.

    The E10 artifact is refreshed whenever that benchmark runs, so this is
    a same-code cross-check of the two harnesses, not a historical baseline.
    """
    try:
        with open(_BASELINE_FILE, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for row in payload.get("series", []):
            if row.get("isolation") == "snapshot":
                return float(row["queries_per_second"])
    except (OSError, ValueError, KeyError):
        return None
    return None


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_benchmark(*, seconds: float = 4.0, readers: int = READERS,
                  writers: int = WRITERS, resolutions: int = 300_000,
                  output: str = None) -> Dict[str, object]:
    micro = _bench_chain_resolve(versions=8, resolutions=resolutions)
    print_row("E11", micro)

    traversal_rows = [
        _bench_traversal(seconds=max(seconds / 2, 0.5), snapshot_read_cache=cache)
        for cache in (True, False)
    ]
    for row in traversal_rows:
        print_row("E11", row)

    cells = [
        ("si_full", dict(isolation=IsolationLevel.SNAPSHOT)),
        ("si_no_plan_cache", dict(isolation=IsolationLevel.SNAPSHOT, query_cache_size=0)),
        ("rc", dict(isolation=IsolationLevel.READ_COMMITTED)),
    ]
    mix_rows: List[Dict[str, object]] = []
    for label, options in cells:
        row = _bench_query_mix(
            label, seconds=seconds, readers=readers, writers=writers, **options
        )
        hidden = ("plan_cache", "abort_reasons", "read_latency", "write_latency")
        print_row("E11", {k: v for k, v in row.items() if k not in hidden})
        mix_rows.append(row)

    baseline_qps = _load_baseline()
    si_row = mix_rows[0]
    speedup = (
        round(si_row["queries_per_second"] / baseline_qps, 2)
        if baseline_qps
        else None
    )
    payload: Dict[str, object] = {
        "experiment": "e11_read_path",
        "workload": {
            "people": PEOPLE,
            "avg_friends": AVG_FRIENDS,
            "readers": readers,
            "writers": writers,
            "seconds_per_cell": seconds,
        },
        "series": [micro] + traversal_rows + mix_rows,
        "baseline": {
            "source": os.path.basename(_BASELINE_FILE),
            "si_queries_per_second_e10": baseline_qps,
            "si_queries_per_second_now": si_row["queries_per_second"],
            "speedup": speedup,
        },
    }
    if output is None:
        output = "BENCH_e11_read_path.json"
    write_json(output, payload)
    print(
        f"\n[E11] wrote {output}  "
        f"si_queries_per_second={si_row['queries_per_second']}"
        + (f"  vs_committed_e10={speedup}x" if speedup else "")
    )
    return payload


def test_e11_read_path(tmp_path):
    """Reduced duration for pytest/CI: every series runs and emits JSON."""
    output = str(tmp_path / "BENCH_e11_read_path.json")
    payload = run_benchmark(seconds=1.0, resolutions=20_000, output=output)
    assert os.path.exists(output)
    by_series: Dict[str, List[Dict[str, object]]] = {}
    for row in payload["series"]:
        by_series.setdefault(row["series"], []).append(row)
    assert by_series["chain_resolve"][0]["read_succeeds_while_write_lock_held"] is True
    assert all(row["traversals"] > 0 for row in by_series["traversal"])
    cells = {row["cell"]: row for row in by_series["query_mix"]}
    assert cells["si_full"]["queries"] > 0
    assert cells["si_full"]["read_latency"]["count"] == cells["si_full"]["queries"]
    assert cells["si_full"]["read_latency"]["p50"] <= cells["si_full"]["read_latency"]["p99"]
    assert "ww-conflict" in cells["si_full"]["abort_reasons"]
    assert cells["si_full"]["plan_cache"]["hits"] > 0
    assert cells["si_no_plan_cache"]["plan_cache"]["size"] == 0
    assert cells["rc"]["queries"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds", type=float, default=4.0, help="measured duration per mix cell"
    )
    parser.add_argument("--readers", type=int, default=READERS)
    parser.add_argument("--writers", type=int, default=WRITERS)
    parser.add_argument("--resolutions", type=int, default=300_000)
    parser.add_argument(
        "--output",
        default="BENCH_e11_read_path.json",
        help="where to write the result document",
    )
    args = parser.parse_args()
    run_benchmark(
        seconds=args.seconds,
        readers=args.readers,
        writers=args.writers,
        resolutions=args.resolutions,
        output=args.output,
    )
