"""Every wrong answer or missing acknowledged write is reported as a failure."""

import random

import pytest

from repro.api.database import GraphDatabase
from repro.client import GraphClient
from repro.server.server import GraphServer
from wirebench import run as bench_run
from wirebench import workloads
from wirebench.loadgen import run_closed_loop
from wirebench.workloads import WORKLOADS, Acked, Deck


def test_audit_check_rejects_a_tampered_total():
    assert workloads.check_audit([[100_000]], 100_000) is None
    assert workloads.check_audit([[100_001]], 100_000) is not None
    assert workloads.check_audit([], 100_000) is not None


def test_social_end_check_rejects_a_missing_acked_write():
    assert workloads.check_social_end(5, 5, 2003, 2000, 3) == []
    assert len(workloads.check_social_end(4, 5, 2003, 2000, 3)) == 1
    assert len(workloads.check_social_end(5, 5, 2002, 2000, 3)) == 1


def test_read_checks_reject_wrong_answers():
    assert workloads.check_point([["alice-0", 31]], "alice-0") is None
    assert workloads.check_point([["bob-1", 31]], "alice-0") is not None
    assert workloads.check_point([["alice-0", 31]] * 2, "alice-0") is not None
    assert workloads.check_city_rollup([["a", 600], ["b", 400]], 1000) is None
    assert workloads.check_city_rollup([["a", 600], ["b", 399]], 1000) is not None
    assert workloads.check_city_rollup([["a", 400], ["b", 600]], 1000) is not None
    assert workloads.check_degree_rank([["a", 9], ["b", 7]]) is None
    assert workloads.check_degree_rank([["a", 7], ["b", 9]]) is not None
    assert workloads.check_degree_rank([["a", 1]] * 6) is not None
    assert workloads.check_written({"properties_set": 1}, "properties_set") is None
    assert workloads.check_written({"properties_set": 0}, "properties_set") is not None


def test_deck_deals_the_exact_mix_every_round():
    deck = Deck([("read", 9), ("write", 1)])
    rng = random.Random(3)
    for _ in range(5):
        dealt = [deck.deal(rng) for _ in range(10)]
        assert sorted(dealt) == ["read"] * 9 + ["write"]


class _TamperedAudits:
    """A client whose audits come back one unit short."""

    is_closed = False

    def execute(self, query, params=None):
        class Result:
            rows = [[workloads.ACCOUNTS * workloads.INITIAL_BALANCE - 1]]
            stats = {"properties_set": 1}

        return Result()


def test_a_tampered_audit_fails_the_run():
    (step, _) = WORKLOADS["transfer_ssi"].drivers({"total": 100_000}, Acked())
    client = _TamperedAudits()
    client.begin = client.commit = client.rollback = lambda *a, **k: None
    client.in_transaction = False
    run = run_closed_loop([client], [step], [1], 0.0, 0.2)
    run["problems"] = []
    summary = bench_run._summary(run)
    assert summary["failed"] > 0
    assert any("audit total" in error for error in summary["errors"])


@pytest.fixture
def served(tmp_path):
    """A real server over an on-disk store built by a workload."""

    def start(name):
        workload = WORKLOADS[name]
        db = GraphDatabase(str(tmp_path / name), isolation=workload.isolation)
        facts = workload.build(db, 5)
        server = GraphServer(db, port=0).start()
        started.append(server)
        return workload, facts, server.port

    started = []
    yield start
    for server in started:
        server.shutdown()


def _drive(workload, facts, port, seconds=0.5):
    acked = Acked()
    drivers = workload.drivers(facts, acked)
    clients = [GraphClient(port=port) for _ in drivers]
    try:
        run = run_closed_loop(clients, drivers, [1, 2], 0.0, seconds)
        run["problems"] = workload.final_check(clients[0], facts, acked)
    finally:
        for client in clients:
            client.close()
    return run, acked


def test_point_rw_passes_and_a_missing_acked_write_fails(served):
    workload, facts, port = served("point_rw")
    run, acked = _drive(workload, facts, port)
    assert bench_run._summary(run)["failed"] == 0
    assert acked.get("bump_score") > 0
    # An acknowledged write the store does not hold must be reported.
    acked.add("bump_score")
    with GraphClient(port=port) as client:
        problems = workload.final_check(client, facts, acked)
    assert problems and "bump_score" in problems[0]
    run["problems"] = problems
    assert bench_run._summary(run)["failed"] == 1


def test_transfer_ssi_passes_and_a_tampered_balance_fails(served):
    workload, facts, port = served("transfer_ssi")
    run, acked = _drive(workload, facts, port)
    assert bench_run._summary(run)["failed"] == 0
    assert acked.get("transfer") > 0
    with GraphClient(port=port) as client:
        client.execute("MATCH (a:Account {number: 3}) SET a.balance = a.balance + 1")
        problems = workload.final_check(client, facts, Acked())
    assert problems and "audit total" in problems[0]
