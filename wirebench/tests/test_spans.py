"""Self-time arithmetic and the span recorder."""

import threading

import pytest

from wirebench import spans
from wirebench.spans import SpanRecorder, covered, self_time


def test_covered_counts_overlap_once():
    assert covered([(10, 30), (20, 50)], 0, 100) == 40


def test_covered_counts_nested_interval_once():
    assert covered([(10, 60), (20, 30)], 0, 100) == 50


def test_covered_clips_to_the_span():
    assert covered([(-10, 10), (90, 120)], 0, 100) == 20


def test_covered_disjoint_and_unsorted():
    assert covered([(70, 80), (10, 20), (40, 45)], 0, 100) == 25


def test_self_time_subtracts_overlapping_and_nested_children():
    # children overlap (10-30, 20-50) and one nests inside another (60-90 > 70-80)
    children = [(10, 30), (20, 50), (60, 90), (70, 80)]
    assert self_time(0, 100, children) == 100 - 40 - 30


def test_self_time_without_children_is_the_duration():
    assert self_time(5, 17, []) == 12


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", fake)
    return fake


def test_nested_wrapped_calls_charge_children_to_their_own_layer(clock):
    recorder = SpanRecorder()
    recorder.active = True

    def inner():
        clock.now += 30

    wrapped_inner = recorder.wrap("core.inner", inner)

    def outer():
        clock.now += 10
        wrapped_inner()
        clock.now += 5
        wrapped_inner()
        clock.now += 5

    recorder.wrap("api.outer", outer)()
    totals = recorder.totals()["spans"]
    assert totals["api.outer"] == {"self_ns": 20, "total_ns": 80, "calls": 1}
    assert totals["core.inner"] == {"self_ns": 60, "total_ns": 60, "calls": 2}


def test_grandchildren_are_not_subtracted_twice(clock):
    recorder = SpanRecorder()
    recorder.active = True
    leaf = recorder.wrap("c", lambda: setattr(clock, "now", clock.now + 10))

    def middle():
        clock.now += 5
        leaf()

    middle_wrapped = recorder.wrap("b", middle)

    def top():
        clock.now += 1
        middle_wrapped()

    recorder.wrap("a", top)()
    totals = recorder.totals()["spans"]
    assert totals["a"]["self_ns"] == 1
    assert totals["b"]["self_ns"] == 5
    assert totals["c"]["self_ns"] == 10


def test_counter_and_context_spans(clock):
    recorder = SpanRecorder()
    recorder.active = True

    class Guard:
        def __enter__(self):
            clock.now += 3

        def __exit__(self, *exc):
            clock.now += 2

    guard = recorder.wrap_context("locking.lock", Guard)
    reads = recorder.wrap("core.resolve", lambda keys: list(keys), lambda r, keys: ("keys", len(r)))
    with guard():
        clock.now += 100
    reads([1, 2, 3])
    result = recorder.totals()
    assert result["spans"]["locking.lock"] == {"self_ns": 5, "total_ns": 5, "calls": 2}
    assert result["counts"] == {"keys": 3}


def test_inactive_recorder_records_nothing(clock):
    recorder = SpanRecorder()
    recorder.wrap("x", lambda: None)()
    recorder.count("n")
    assert recorder.totals() == {"spans": {}, "counts": {}}


def test_exception_still_closes_the_span(clock):
    recorder = SpanRecorder()
    recorder.active = True

    def boom():
        clock.now += 7
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("x", boom)()
    assert recorder.totals()["spans"]["x"]["total_ns"] == 7


def test_threads_are_merged():
    recorder = SpanRecorder()
    recorder.active = True
    work = recorder.wrap("w", lambda: None)

    def run():
        for _ in range(100):
            work()

    threads = [threading.Thread(target=run) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert recorder.totals()["spans"]["w"]["calls"] == 400
