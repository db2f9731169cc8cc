"""Slicing the measured window and leaving out slices the host stole from."""

import math

import pytest

from wirebench import run as bench_run
from wirebench.loadgen import sliced, steal_share


def test_samples_land_in_the_slice_they_ended_in():
    parts = sliced([(0.1, 1.0), (1.9, 2.0), (2.0, 3.0), (4.0, 4.0)], 4.0, 2)
    assert parts == [[1.0, 2.0], [3.0, 4.0]]


def test_steal_share_between_readings():
    assert steal_share((100, 5), (300, 15)) == pytest.approx(0.05)
    assert steal_share((100, 5), (100, 5)) == 0.0


def test_stolen_slices_are_left_out():
    steal = [0.0, 0.2, 0.01, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert bench_run._clean_slices(steal) == [0, 2, 3, 5, 6, 7, 8, 9]


def test_at_least_the_least_stolen_half_is_kept():
    steal = [0.1, 0.2, 0.05, 0.3, 0.06, 0.4, 0.07, 0.5, 0.08, 0.6]
    assert bench_run._clean_slices(steal) == [0, 2, 4, 6, 8]


def test_rates_and_percentiles_use_only_kept_slices():
    wall = 10.0
    # slice 0 is slow (100 ms ops), the others take 1 ms
    samples = [(0.5, 100.0)] * 5 + [(i + 0.5, 1.0) for i in range(1, 10) for _ in range(10)]
    rate, p50, p90, p99 = bench_run._sliced(samples, wall, keep=list(range(1, 10)))
    assert rate == pytest.approx(10.0)
    assert p50 == p90 == p99 == 1.0
    rate, p50, p90, p99 = bench_run._sliced(samples, wall, keep=list(range(10)))
    assert p90 == 1.0 and p99 == 100.0


def test_failed_operations_count_as_missed_limits():
    samples = [(0.5, math.inf)] * 2 + [(0.5, 1.0)] * 98
    rate, p50, p90, p99 = bench_run._sliced(samples, 1.0, keep=list(range(bench_run.SLICES)))
    assert math.isinf(p99)
