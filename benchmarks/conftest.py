"""Benchmark-suite plumbing.

Every benchmark regenerates one paper artifact (via ``pedantic`` single
runs — the workloads are seconds-scale, not microseconds-scale) and dumps
the rendered table under ``benchmarks/artifacts/`` so the numbers behind
EXPERIMENTS.md can be inspected after a run.
"""

from __future__ import annotations

import json
import os

import pytest

#: Default when ``REPRO_ARTIFACT_DIR`` is unset (parallel/CI runs point it
#: somewhere private so concurrent suites don't clobber each other).
ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def artifact_dir():
    """Artifact directory honoring the ``REPRO_ARTIFACT_DIR`` override."""
    return os.environ.get("REPRO_ARTIFACT_DIR") or ARTIFACT_DIR


@pytest.fixture
def artifact_sink():
    """Write a rendered artifact; returns the path."""
    def write(name, text):
        base = artifact_dir()
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    return write


@pytest.fixture
def bench_json_sink():
    """Write machine-readable benchmark numbers as ``BENCH_<name>.json``
    next to the text artifacts, so successive runs can be diffed/tracked
    (cold vs warm cache, pool vs distributed scale-out, ...)."""
    def write(name, payload):
        base = artifact_dir()
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return write


@pytest.fixture
def bench_json_merge(bench_json_sink):
    """Add sections to ``BENCH_<name>.json``, keeping the sections that
    other tests (or earlier runs) already wrote there."""
    def merge(name, fragment):
        path = os.path.join(artifact_dir(), f"BENCH_{name}.json")
        payload = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        payload.update(fragment)
        return bench_json_sink(name, payload)

    return merge


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a seconds-scale workload exactly once per measurement."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
