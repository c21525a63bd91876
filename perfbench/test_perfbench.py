"""The benchmark's own checks: workload shape, exact counters, spans.

Run from the repository root (about two minutes; not part of the
tier-1 suite)::

    python3 -m pytest -q perfbench

Each test runs single traced passes through the same code the benchmark
uses.  The shape guard pins why each workload was chosen: if a later
change makes a workload stop stressing its layer, it fails here instead
of silently measuring something else.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("dip-loop", "bmc-verify", "sat-free-sweep")

#: Counters that must repeat exactly across traced runs of one seed.
EXACT = ("attack.n_dips", "sat.solve_calls", "sat.conflicts",
         "sat.propagations", "sat.decisions", "cnf.clauses", "oracle.calls",
         "oracle.patterns", "unroll.calls")

_PASSES = {}


def traced_pass(workload, seed, repeat=0):
    """``(wall, failures, metrics, tracer, tag)`` of one traced pass,
    memoised so the tests share passes."""
    key = (workload, seed, repeat)
    if key not in _PASSES:
        tracer = Tracer()
        with tempfile.TemporaryDirectory() as scratch:
            wall, failures, (metrics, _layers) = run.one_pass(
                workloads.cells(workload, seed), scratch, tracer, "pass")
        _PASSES[key] = (wall, failures, metrics, tracer, "pass")
    return _PASSES[key]


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_shape(workload, seed):
    wall, failures, metrics, _tracer, _tag = traced_pass(workload, seed)
    assert failures == []
    if workload == "dip-loop":
        assert metrics["sat.solve_s"] >= 0.75 * wall
    elif workload == "bmc-verify":
        assert metrics["bmc.total_s"] >= 0.75 * wall
    else:
        assert metrics["sat.solve_calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    first = traced_pass(workload, 0)[2]
    second = traced_pass(workload, 0, repeat=1)[2]
    assert {name: first[name] for name in EXACT} == \
        {name: second[name] for name in EXACT}


def test_spans_nest_within_cells():
    _wall, _failures, _metrics, tracer, tag = traced_pass("dip-loop", 0)
    spans = tracer.export()
    roots = [span for span in spans if span["parent"] is None]
    assert roots and all(span["name"] == "campaign.run" for span in roots)
    cells = {span["cell"] for span in roots}
    assert len(cells) == 2 * len(workloads.cells("dip-loop", 0))  # + warm
    for index, span in enumerate(spans):
        assert span["cell"].startswith(f"{tag}/")
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert span["parent"] < index
            assert parent["cell"] == span["cell"]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]


def test_contract_names_match_the_report():
    contract = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = run.load_json(os.path.join(BENCH_DIR, "layers.json"))
    metrics = traced_pass("bmc-verify", 0)[2]
    per_layer = [item["name"] for item in contract["per_layer"]]
    assert set(per_layer) == set(metrics) | {"trace.overhead_ratio"}
    predicted = [name for layer in layers["predictions"].values()
                 for name in layer["metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    assert [item["name"] for item in contract["workloads"]] == \
        list(WORKLOADS)
    json.dumps(metrics)  # every metric is a plain JSON number
