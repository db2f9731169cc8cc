"""BENCHMARK.json and the code that produces its metrics agree."""

import importlib
import json
import os

from wirebench import run as bench_run
from wirebench.layers import PER_LAYER_UNITS, SPANS
from wirebench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_workloads_match():
    contract = _contract()
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


def test_end_to_end_metrics_match():
    declared = {m["name"]: (m["unit"], m["better"]) for m in _contract()["end_to_end"]}
    assert declared == bench_run.END_TO_END


def test_per_layer_metrics_match():
    declared = {m["name"]: (m["unit"], m["better"]) for m in _contract()["per_layer"]}
    assert declared == PER_LAYER_UNITS


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _contract()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


def test_every_span_layer_feeds_a_metric():
    layers = {name.split(".")[0] for _, _, name, _, _ in SPANS}
    metric_layers = {name.split(".")[0] for name in PER_LAYER_UNITS}
    assert layers <= metric_layers


def test_every_span_target_exists():
    for module_name, path, _, kind, _ in SPANS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"
        assert kind in ("call", "context")
