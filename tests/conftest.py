"""Shared fixtures: cached tiny circuits and locked instances.

Locking + attacking is the expensive part of the suite; the factories are
memoised so many tests can share one instance (they must treat netlists
as read-only or copy them first).
"""

from __future__ import annotations

import functools
import shlex

import pytest

from repro.bench.synth import generate_circuit
from repro.core import TriLockConfig, lock
from repro.sat import in_tree_engine_argv


@functools.lru_cache(maxsize=None)
def _tiny_circuit(seed=1, n_inputs=2):
    return generate_circuit(
        f"tiny{n_inputs}_{seed}", n_inputs=n_inputs, n_outputs=2,
        n_flops=3, n_gates=14, seed=seed)


@functools.lru_cache(maxsize=None)
def _mid_circuit(seed=2):
    return generate_circuit(
        f"mid_{seed}", n_inputs=4, n_outputs=3, n_flops=14,
        n_gates=90, seed=seed)


@functools.lru_cache(maxsize=None)
def _locked_tiny(kappa_s=2, kappa_f=1, alpha=0.6, s_pairs=0, seed=3,
                 n_inputs=2):
    return lock(_tiny_circuit(n_inputs=n_inputs), TriLockConfig(
        kappa_s=kappa_s, kappa_f=kappa_f, alpha=alpha, s_pairs=s_pairs,
        seed=seed))


@functools.lru_cache(maxsize=None)
def _locked_mid(kappa_s=2, kappa_f=1, alpha=0.6, s_pairs=0, seed=5):
    return lock(_mid_circuit(), TriLockConfig(
        kappa_s=kappa_s, kappa_f=kappa_f, alpha=alpha, s_pairs=s_pairs,
        seed=seed))


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(tmp_path, monkeypatch):
    """Point the campaign result cache at a per-test directory so no test
    reads stale cells or litters the working tree with .repro-cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def native_engine(monkeypatch):
    """Back the ``native`` solver backend with the in-tree DIMACS engine:
    each solve runs a fresh ``Solver`` in a subprocess, with the
    assumptions as unit clauses, instead of the ``cdcl`` backend's one
    incremental search."""
    monkeypatch.setenv("REPRO_SAT_BINARY", shlex.join(in_tree_engine_argv()))


@pytest.fixture
def tiny_circuit():
    return _tiny_circuit()


@pytest.fixture
def mid_circuit():
    return _mid_circuit()


@pytest.fixture
def locked_tiny():
    return _locked_tiny()


@pytest.fixture
def locked_mid():
    return _locked_mid()


@pytest.fixture
def locked_mid_reencoded():
    return _locked_mid(s_pairs=8)


def locked_factory(**kwargs):
    """Direct access for parametrised tests."""
    return _locked_tiny(**kwargs)


def batch_oracle(per_dip):
    """Lift a per-DIP test oracle (``dip -> response``) to the batch
    callable ``comb_sat_attack`` asks once per miter round."""
    def ask(dips):
        return [per_dip(dip) for dip in dips]

    return ask
