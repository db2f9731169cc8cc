"""The benchmark's workloads: the store each one builds, the traffic each
connection sends, and the checks every answer must pass.

Every workload is closed-loop over two connections.  A connection is a
*driver*: a function ``step(client, rng)`` that performs one operation —
a stand-alone read statement or one write transaction, retried on retryable
aborts — and returns an :class:`Outcome`.  The drivers check each answer
against what the generator knows about the store it built and the writes
the server acknowledged, and :meth:`Workload.final_check` checks the end
state over the wire after the load stops.

The check functions are plain functions of the answer so the tests can feed
them tampered answers.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.workload.generators import build_account_graph, build_social_graph
from repro.workload.queries import READ_TEMPLATES, WRITE_TEMPLATES

__all__ = ["WORKLOADS", "Outcome", "Workload"]

PEOPLE = 1_000
AVG_FRIENDS = 4
CITIES = 5
ACCOUNTS = 100
INITIAL_BALANCE = 1_000
#: ``point_rw`` mix per round of 10: point lookups and ``bump_score`` writes.
POINT_READS, POINT_WRITES = 9, 1
#: ``transfer_ssi`` mix per round of 5: transfers and audits.
TRANSFERS, AUDITS = 4, 1
ZIPF_S = 1.0
#: Attempts before a write that keeps aborting counts as failed.
MAX_ATTEMPTS = 100

_TEMPLATES = {template.name: template for template in READ_TEMPLATES + WRITE_TEMPLATES}
_AUDIT = "MATCH (a:Account) RETURN sum(a.balance)"
_READ_BALANCE = "MATCH (a:Account {number: $number}) RETURN a.balance"
_ADD_BALANCE = "MATCH (a:Account {number: $number}) SET a.balance = a.balance + $amount"
_SCORE_SUM = "MATCH (p:Person) RETURN sum(p.score)"
_KNOWS_COUNT = "MATCH ()-[r:KNOWS]->() RETURN count(r)"


@dataclass
class Outcome:
    """One operation: a read statement or a write transaction."""

    kind: str  # "read" or "write"
    attempts: int = 1
    error: Optional[str] = None


class _Retry(Exception):
    """A retryable abort (conflict, safe-snapshot) — run the write again."""


def _retryable(exc: BaseException) -> bool:
    return isinstance(exc, ReproError) and bool(getattr(exc, "retryable", False))


# ---------------------------------------------------------------------------
# answer checks (None = correct, else what is wrong)
# ---------------------------------------------------------------------------


def check_point(rows, name: str) -> Optional[str]:
    if len(rows) != 1 or rows[0][0] != name or not isinstance(rows[0][1], int):
        return f"point_lookup({name}) returned {rows!r}"
    return None


def check_city_rollup(rows, people: int) -> Optional[str]:
    residents = [row[1] for row in rows]
    if sum(residents) != people or residents != sorted(residents, reverse=True):
        return f"city_rollup residents {residents} do not sum to {people} in order"
    return None


def check_degree_rank(rows) -> Optional[str]:
    degrees = [row[1] for row in rows]
    if len(rows) > 5 or degrees != sorted(degrees, reverse=True):
        return f"degree_rank returned {rows!r}"
    return None


def check_friends(rows, name: str) -> Optional[str]:
    names = [row[0] for row in rows]
    if names != sorted(names):
        return f"friends({name}) not ordered by name"
    return None


def check_friends_of_friends(rows, name: str) -> Optional[str]:
    if any(row[0] == name for row in rows):
        return f"friends_of_friends({name}) contains the person"
    return None


def check_filtered_scan(rows) -> Optional[str]:
    if len(rows) > 10:
        return f"filtered_scan returned {len(rows)} rows past LIMIT 10"
    return None


def check_audit(rows, total: int) -> Optional[str]:
    if len(rows) != 1 or rows[0][0] != total:
        return f"audit total {rows!r} != conserved {total}"
    return None


def check_written(stats: dict, key: str) -> Optional[str]:
    if stats.get(key) != 1:
        return f"write changed {key}={stats.get(key)} (expected 1)"
    return None


def check_social_end(
    score_sum, acked_bumps: int, knows, initial_knows: int, acked_befriends: int
) -> List[str]:
    problems = []
    if score_sum != acked_bumps:
        problems.append(f"sum(score)={score_sum} but {acked_bumps} bump_score commits were acked")
    if knows != initial_knows + acked_befriends:
        problems.append(
            f"KNOWS count {knows} != {initial_knows} initial + {acked_befriends} acked befriend"
        )
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """One named workload: server isolation, store, drivers, end check."""

    name: str
    isolation: str
    why: str
    #: build(db, seed) -> facts the drivers and checks need.
    build: Callable
    #: drivers(facts, acked) -> one step function per connection.
    drivers: Callable
    #: final_check(client, facts, acked) -> problems.
    final_check: Callable


@dataclass
class Acked:
    """Writes the server acknowledged, over the whole run (all connections)."""

    counts: Dict[str, int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)


def _run_write(client, body: Callable[[], Optional[str]], rng: random.Random) -> Outcome:
    """Run a write until it commits, retrying retryable aborts with backoff."""
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            return Outcome("write", attempt, body())
        except _Retry:
            pass
        except ReproError as exc:
            return Outcome("write", attempt, f"{type(exc).__name__}: {exc}")
        time.sleep(rng.random() * min(0.0005 * 2 ** attempt, 0.01))
    return Outcome("write", MAX_ATTEMPTS, f"no commit after {MAX_ATTEMPTS} attempts")


def _read(client, query: str, params: dict, check: Callable) -> Outcome:
    """One stand-alone read statement (auto-commit, read-only)."""
    try:
        result = client.execute(query, params)
    except ReproError as exc:
        return Outcome("read", 1, f"{type(exc).__name__}: {exc}")
    return Outcome("read", 1, check(result.rows))


def _auto_write(client, template: str, params: dict, key: str, acked: Acked, rng):
    """One auto-commit write statement; counted in ``acked`` once acknowledged."""
    query = _TEMPLATES[template].text

    def body() -> Optional[str]:
        try:
            result = client.execute(query, params)
        except ReproError as exc:
            if _retryable(exc):
                raise _Retry() from exc
            raise
        acked.add(template)
        return check_written(result.stats, key)

    return _run_write(client, body, rng)


# -- social graph ------------------------------------------------------------


def _build_social(db, seed: int) -> dict:
    build_social_graph(db, people=PEOPLE, avg_friends=AVG_FRIENDS, cities=CITIES, seed=seed)
    with db.begin(read_only=True) as tx:
        names = sorted(node.get("name") for node in tx.find_nodes(label="Person"))
    knows = db.execute(_KNOWS_COUNT).single()[0]
    return {"names": names, "knows": knows}


class Deck:
    """Deals items in shuffled rounds that hold each item a fixed number of
    times, so every round has the exact mix.  (A weighted draw per operation
    lets the mix itself drift between runs, which on a mix of 3 ms and 300 ms
    statements moves throughput more than the code under test does.)"""

    def __init__(self, counts: Sequence[Tuple[object, int]]) -> None:
        self._cards = [item for item, count in counts for _ in range(count)]
        self._hand: List[object] = []

    def deal(self, rng: random.Random):
        if not self._hand:
            self._hand = list(self._cards)
            rng.shuffle(self._hand)
        return self._hand.pop()


def _template_deck(templates, per_round: int = 20) -> Deck:
    """A deck holding each template ``weight * per_round`` times."""
    return Deck([(t, round(t.weight * per_round)) for t in templates])


_READ_CHECKS = {
    "point_lookup": lambda rows, p: check_point(rows, p["name"]),
    "filtered_scan": lambda rows, p: check_filtered_scan(rows),
    "friends": lambda rows, p: check_friends(rows, p["name"]),
    "friends_of_friends": lambda rows, p: check_friends_of_friends(rows, p["name"]),
    "city_rollup": lambda rows, p: check_city_rollup(rows, PEOPLE),
    "degree_rank": lambda rows, p: check_degree_rank(rows),
}
_WRITE_STAT = {"bump_score": "properties_set", "befriend": "relationships_created"}


def _social_reader(facts: dict):
    names = facts["names"]
    deck = _template_deck(READ_TEMPLATES)

    def step(client, rng: random.Random) -> Outcome:
        template = deck.deal(rng)
        params = template.params(rng, names)
        check = _READ_CHECKS[template.name]
        return _read(client, template.text, params, lambda rows: check(rows, params))

    return step


def _social_writer(facts: dict, acked: Acked):
    names = facts["names"]
    deck = _template_deck(WRITE_TEMPLATES)

    def step(client, rng: random.Random) -> Outcome:
        template = deck.deal(rng)
        params = template.params(rng, names)
        return _auto_write(client, template.name, params, _WRITE_STAT[template.name], acked, rng)

    return step


def _point_client(facts: dict, acked: Acked):
    names = facts["names"]
    lookup = _TEMPLATES["point_lookup"].text
    deck = Deck([("read", POINT_READS), ("write", POINT_WRITES)])

    def step(client, rng: random.Random) -> Outcome:
        name = rng.choice(names)
        if deck.deal(rng) == "read":
            return _read(client, lookup, {"name": name}, lambda rows: check_point(rows, name))
        return _auto_write(client, "bump_score", {"name": name}, "properties_set", acked, rng)

    return step


def _point_rw(facts: dict, acked: Acked):
    return [_point_client(facts, acked) for _ in range(2)]


def _social_end(client, facts: dict, acked: Acked) -> List[str]:
    score_sum = client.execute(_SCORE_SUM).single()[0]
    knows = client.execute(_KNOWS_COUNT).single()[0]
    return check_social_end(
        score_sum, acked.get("bump_score"), knows, facts["knows"], acked.get("befriend")
    )


# -- accounts ------------------------------------------------------------------


def _build_accounts(db, seed: int) -> dict:
    build_account_graph(db, accounts=ACCOUNTS, initial_balance=INITIAL_BALANCE, seed=seed)
    return {"total": ACCOUNTS * INITIAL_BALANCE}


def _zipf_cumulative(n: int, s: float) -> List[float]:
    return list(accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def _transfer_client(facts: dict, acked: Acked):
    total = facts["total"]
    deck = Deck([("transfer", TRANSFERS), ("audit", AUDITS)])
    cumulative = _zipf_cumulative(ACCOUNTS, ZIPF_S)
    numbers = range(ACCOUNTS)

    def transfer(client, rng: random.Random) -> Outcome:
        source = rng.choices(numbers, cum_weights=cumulative)[0]
        target = source
        while target == source:
            target = rng.choices(numbers, cum_weights=cumulative)[0]
        amount = rng.randint(1, 10)

        def body() -> Optional[str]:
            committing = False
            try:
                client.begin()
                rows = client.execute(_READ_BALANCE, {"number": source}).rows
                if len(rows) != 1 or not isinstance(rows[0][0], int):
                    client.rollback()
                    return f"balance of account {source} read as {rows!r}"
                for number, delta in ((source, -amount), (target, amount)):
                    stats = client.execute(_ADD_BALANCE, {"number": number, "amount": delta}).stats
                    problem = check_written(stats, "properties_set")
                    if problem:
                        client.rollback()
                        return problem
                committing = True
                client.commit()
            except ReproError as exc:
                if not committing and client.in_transaction and not client.is_closed:
                    client.rollback()
                if _retryable(exc):
                    raise _Retry() from exc
                raise
            acked.add("transfer")
            return None

        return _run_write(client, body, rng)

    def step(client, rng: random.Random) -> Outcome:
        if deck.deal(rng) == "transfer":
            return transfer(client, rng)
        return _read(client, _AUDIT, {}, lambda rows: check_audit(rows, total))

    return step


def _transfers(facts: dict, acked: Acked):
    return [_transfer_client(facts, acked) for _ in range(2)]


def _accounts_end(client, facts: dict, acked: Acked) -> List[str]:
    problem = check_audit(client.execute(_AUDIT).rows, facts["total"])
    return [problem] if problem else []


def _social(name: str, isolation: str, why: str) -> Workload:
    return Workload(
        name, isolation, why, _build_social,
        lambda facts, acked: [_social_reader(facts), _social_writer(facts, acked)],
        _social_end,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "point_rw", "snapshot",
            "short requests: wire codec, dispatch, begin/commit and plan-cache hits dominate",
            _build_social, _point_rw, _social_end,
        ),
        _social(
            "social_rw", "snapshot",
            "read mix over thousands of versions beside a writer: operators, "
            "version resolution and shared caches",
        ),
        Workload(
            "transfer_ssi", "serializable",
            "Zipf-skewed transfers under SSI: aborts, commit stripes, WAL appends, "
            "safe-snapshot readers",
            _build_accounts, _transfers, _accounts_end,
        ),
        _social(
            "social_rw_rc", "read_committed",
            "social_rw under the locking read-committed baseline: lock waits and "
            "record decoding",
        ),
    )
}

