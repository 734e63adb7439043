"""Counter self-test for the benchmark's tracer.

Every per-layer metric that design.json gives ``nonzero_on`` / ``zero_on`` lists
must read nonzero on the workloads meant to exercise it and exactly zero on
the workloads that bypass it.  A binding the tracer failed to wrap reads
zero everywhere and fails here instead of passing silently.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run

DESIGN = json.loads((Path(__file__).resolve().parent / "design.json").read_text())
WORKLOADS = sorted(DESIGN["workloads"])
SEED = 1


@pytest.fixture(scope="module")
def per_layer():
    out = {}
    for workload in WORKLOADS:
        runner, _, ops = run.prepare(workload, SEED)
        samples, metrics = run.per_layer(runner, ops, {"workload": workload, "seed": SEED})
        assert all(v.ok or v.expected_failure for _, v in samples), workload
        out[workload] = {name: value for name, (value, _) in metrics.items()}
    return out


def test_every_declared_metric_is_reported(per_layer):
    declared = set(DESIGN["per_layer"])
    for workload, metrics in per_layer.items():
        assert set(metrics) == declared, workload


@pytest.mark.parametrize("name", sorted(n for n, e in DESIGN["per_layer"].items()
                                         if "zero_on" in e))
def test_counter_reads_zero_exactly_where_bypassed(per_layer, name):
    entry = DESIGN["per_layer"][name]
    assert set(entry["nonzero_on"]) | set(entry["zero_on"]) == set(WORKLOADS), name
    for workload in entry["nonzero_on"]:
        assert per_layer[workload][name] > 0, (name, workload)
    for workload in entry["zero_on"]:
        assert per_layer[workload][name] == 0, (name, workload)
