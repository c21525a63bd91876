"""Campaign layer: cell model, content-addressed store, executor, and the
experiment integration (parallel == serial, cache speedup)."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.campaign import (
    CODE_VERSION,
    Campaign,
    CellSpec,
    DistributedBackend,
    PoolBackend,
    ResultStore,
    canonical_value,
)
from repro.errors import CampaignError, CampaignWarning
from repro.experiments import table1_sat_resilience, table2_removal
from repro.experiments.runner import main as runner_main

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# Cell functions executed by campaign workers (must be module-level so a
# fresh interpreter can resolve them by dotted path).
# ----------------------------------------------------------------------
def add_cell(a, b):
    return {"sum": a + b, "operands": [a, b]}


def pid_cell(tag):
    return {"tag": tag, "pid": os.getpid()}


def fail_cell(message):
    raise ValueError(message)


def slow_cell(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def die_cell(code):
    os._exit(code)


def pid_sleep_cell(tag, seconds):
    time.sleep(seconds)
    return {"tag": tag, "pid": os.getpid()}


def unserializable_cell():
    return {"oops": object()}


def pid_file_cell(path, seconds):
    """Record this cell's pid, then sleep (a cell to time out)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    time.sleep(seconds)
    return {"slept": seconds}


def kill_agent_cell():
    """SIGKILL the worker agent this cell was forked from."""
    os.kill(os.getppid(), signal.SIGKILL)
    return {"killed": True}


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _spec(a=1, b=2):
    return CellSpec.make("tests.test_campaign:add_cell", {"a": a, "b": b},
                         experiment="unit", label=f"add/{a}+{b}")


# ----------------------------------------------------------------------
# Cell model / cache keys
# ----------------------------------------------------------------------
class TestCellSpec:
    def test_key_is_param_order_independent(self):
        one = CellSpec.make("m:f", {"a": 1, "b": [2, 3]})
        two = CellSpec.make("m:f", {"b": [2, 3], "a": 1})
        assert one.key() == two.key()

    def test_key_depends_on_params_fn_and_salt(self):
        base = CellSpec.make("m:f", {"a": 1})
        assert base.key() != CellSpec.make("m:f", {"a": 2}).key()
        assert base.key() != CellSpec.make("m:g", {"a": 1}).key()
        assert base.key() != base.key(salt=CODE_VERSION + "-bumped")

    def test_key_stable_across_interpreter_processes(self):
        """The content address must not depend on interpreter state
        (PYTHONHASHSEED, import order, ...)."""
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = _spec(a=7, b=35)
        code = (
            "from repro.campaign import CellSpec;"
            "print(CellSpec.make('tests.test_campaign:add_cell',"
            "{'a': 7, 'b': 35}, experiment='unit', label='x').key())"
        )
        keys = set()
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(repo_root, "src"), repo_root])
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=repo_root,
                capture_output=True, text=True, check=True)
            keys.add(proc.stdout.strip())
        assert keys == {spec.key()}

    def test_label_does_not_affect_key(self):
        assert _spec().key() == CellSpec.make(
            "tests.test_campaign:add_cell", {"a": 1, "b": 2}).key()

    def test_rejects_bad_fn_and_params(self):
        with pytest.raises(CampaignError):
            CellSpec.make("no_colon_here", {})
        with pytest.raises(CampaignError):
            CellSpec.make("m:f", [("a", 1)])
        with pytest.raises(CampaignError):
            CellSpec.make("m:f", {"a": object()})

    def test_kwargs_roundtrip(self):
        spec = _spec(a=3, b=4)
        assert spec.kwargs() == {"a": 3, "b": 4}

    def test_canonical_value_preserves_key_order(self):
        value = {"zebra": 1, "alpha": 2}
        assert list(canonical_value(value)) == ["zebra", "alpha"]


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_hit_miss_and_put(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = _spec()
        key = spec.key()
        assert store.get(key) is None
        store.put(key, spec, {"sum": 3})
        assert store.get(key) == {"sum": 3}
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 1, "puts": 1, "invalidations": 0}

    def test_corrupted_entry_is_evicted_and_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        campaign = Campaign(cache_dir=cache)
        (result,) = campaign.run([_spec()])
        path = campaign.store.path_of(result.key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json at all")

        fresh = Campaign(cache_dir=cache)
        (redone,) = fresh.run([_spec()])
        assert redone.ok and not redone.cached
        assert redone.value == result.value
        assert fresh.store.stats.invalidations == 1
        # The recomputed value was re-persisted: third run is a clean hit.
        assert Campaign(cache_dir=cache).run([_spec()])[0].cached

    def test_foreign_or_mismatched_entry_is_evicted(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = _spec()
        key = spec.key()
        path = store.path_of(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "trilock-cell-v1", "key": "0" * 64,
                       "value": {"sum": 999}}, handle)
        assert store.get(key) is None
        assert store.stats.invalidations == 1
        assert not os.path.exists(path)

    def test_status_and_clear(self, tmp_path):
        cache = str(tmp_path / "cache")
        campaign = Campaign(cache_dir=cache)
        campaign.run([_spec(a=1), _spec(a=2), _spec(a=3)])
        store = ResultStore(cache)
        status = store.status()
        assert status["entries"] == 3
        assert status["by_experiment"] == {"unit": 3}
        assert store.clear() == 3
        assert store.status()["entries"] == 0


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class TestCampaignExecutor:
    def test_invalidation_on_config_change(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = Campaign(cache_dir=cache)
        first.run([_spec(a=1)])
        changed = Campaign(cache_dir=cache)
        (result,) = changed.run([_spec(a=2)])
        assert not result.cached  # different config, different key
        assert changed.store.stats.misses == 1
        salted = Campaign(cache_dir=cache, salt="other-code-version")
        (result,) = salted.run([_spec(a=1)])
        assert not result.cached  # code-version salt invalidates

    def test_resume_after_interrupt(self, tmp_path):
        """Cells finished before an interrupt are not recomputed."""
        cache = str(tmp_path / "cache")
        specs = [_spec(a=index) for index in range(4)]
        Campaign(cache_dir=cache).run(specs[:2])  # 'interrupted' campaign
        resumed = Campaign(cache_dir=cache)
        results = resumed.run(specs)
        assert [r.cached for r in results] == [True, True, False, False]
        assert resumed.store.stats.hits == 2
        assert resumed.store.stats.misses == 2

    def test_two_worker_run_matches_serial(self, tmp_path):
        specs = [_spec(a=index, b=10) for index in range(6)]
        serial = Campaign().values(specs)
        parallel = Campaign(jobs=2).values(specs)
        assert parallel == serial

    def test_pool_actually_uses_other_processes(self):
        specs = [
            CellSpec.make("tests.test_campaign:pid_cell", {"tag": index})
            for index in range(4)
        ]
        values = Campaign(jobs=2).values(specs)
        assert [v["tag"] for v in values] == [0, 1, 2, 3]
        assert all(v["pid"] != os.getpid() for v in values)

    def test_failure_is_captured_not_raised(self):
        specs = [
            CellSpec.make("tests.test_campaign:fail_cell",
                          {"message": "boom"}),
            _spec(),
        ]
        results = Campaign(jobs=2).run(specs)
        assert not results[0].ok
        assert results[0].error["type"] == "ValueError"
        assert "boom" in results[0].error["message"]
        assert results[1].ok and results[1].value["sum"] == 3

    def test_values_raises_unless_failures_allowed(self):
        specs = [CellSpec.make("tests.test_campaign:fail_cell",
                               {"message": "boom"})]
        campaign = Campaign()
        with pytest.raises(CampaignError, match="boom"):
            campaign.values(specs)
        assert campaign.values(specs, allow_failures=True) == [None]

    def test_unserializable_value_is_a_captured_failure(self):
        specs = [CellSpec.make(
            "tests.test_campaign:unserializable_cell", {})]
        (result,) = Campaign().run(specs)
        assert not result.ok
        assert result.error["type"] == "CampaignError"

    def test_cell_timeout_fails_cell_not_campaign(self):
        specs = [
            CellSpec.make("tests.test_campaign:slow_cell", {"seconds": 30}),
            _spec(),
        ]
        results = Campaign(jobs=2, cell_timeout=0.5).run(specs)
        assert results[0].status == "timeout"
        assert results[1].ok

    def test_inline_timeout_warns_it_is_ineffective(self):
        """jobs=1 runs cells in-process, so cell_timeout cannot be
        enforced; construction says so instead of silently ignoring it."""
        with pytest.warns(CampaignWarning, match="no effect"):
            campaign = Campaign(jobs=1, cell_timeout=0.001)
        # The cell still runs to completion, un-interrupted.
        (result,) = campaign.run([CellSpec.make(
            "tests.test_campaign:slow_cell", {"seconds": 0.05})])
        assert result.ok and result.value == {"slept": 0.05}

    def test_pool_and_distributed_timeouts_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CampaignWarning)
            Campaign(jobs=2, cell_timeout=5.0)
            Campaign(backend=DistributedBackend(bind="127.0.0.1:0"),
                     cell_timeout=5.0).backend.close()

    def test_timed_out_worker_is_replaced_at_full_width(self):
        """A hung cell costs its slot for cell_timeout seconds, not for
        the rest of the campaign: the cell is cancelled and the
        remaining cells run on the full-width pool."""
        backend = PoolBackend(2)
        specs = [
            CellSpec.make("tests.test_campaign:slow_cell", {"seconds": 30},
                          label="hung"),
            *[CellSpec.make("tests.test_campaign:pid_sleep_cell",
                            {"tag": tag, "seconds": 0.4})
              for tag in range(5)],
        ]
        start = time.perf_counter()
        results = Campaign(backend=backend, cell_timeout=0.6).run(specs)
        elapsed = time.perf_counter() - start
        assert results[0].status == "timeout"
        assert all(r.ok for r in results[1:])
        # The slot came back at once — nowhere near the hung cell's 30s.
        assert elapsed < 15

    def test_worker_death_is_captured_and_replaced(self):
        backend = PoolBackend(2)
        specs = [
            CellSpec.make("tests.test_campaign:die_cell", {"code": 5},
                          label="dies"),
            *[_spec(a=a) for a in range(3)],
        ]
        results = Campaign(backend=backend).run(specs)
        assert not results[0].ok
        assert results[0].error["type"] == "WorkerCellDied"
        assert "code 5" in results[0].error["message"]
        assert all(r.ok for r in results[1:])

    def test_lost_agent_ends_the_run_with_worker_lost(self):
        """A cell that kills its own worker agent strands the cells the
        agent held; the run fails them instead of waiting for a worker
        that will never come."""
        specs = [
            CellSpec.make("tests.test_campaign:kill_agent_cell", {},
                          label="killer"),
            CellSpec.make("tests.test_campaign:slow_cell", {"seconds": 1},
                          label="stranded"),
            *[_spec(a=a) for a in range(3)],
        ]
        start = time.perf_counter()
        results = Campaign(backend=PoolBackend(2)).run(specs)
        assert time.perf_counter() - start < 30
        assert [r.error["type"] for r in results] \
            == ["WorkerLost"] * len(specs)
        assert all("exited with code -9" in r.error["message"]
                   for r in results)

    def test_pool_ignores_the_fleet_environment(self, monkeypatch,
                                                tmp_path):
        """The pool MACs every frame with its own secret, whatever the
        fleet secret in the environment, listens on loopback only, and
        computes its cells rather than asking a fleet worker's shard."""
        monkeypatch.setenv("REPRO_SECRET", "a-fleet-secret-not-for-the-pool")
        shard = str(tmp_path / "shard")
        specs = [_spec(a=a) for a in range(3)]
        ResultStore(shard).put(specs[0].key(), specs[0], {"sum": -1})
        monkeypatch.setenv("REPRO_WORKER_SHARD", shard)
        events = []
        backend = PoolBackend(2)
        backend.on_event = events.append
        results = Campaign(backend=backend).run(specs)
        assert [r.value["sum"] for r in results] == [2, 3, 4]
        assert backend.auth is not None
        assert any(event.startswith("scheduler on 127.0.0.1:")
                   for event in events)

    def test_no_process_outlives_a_run_that_timed_out_a_cell(
            self, tmp_path):
        before = set(multiprocessing.active_children())
        pid_file = tmp_path / "cell.pid"
        specs = [
            CellSpec.make("tests.test_campaign:pid_file_cell",
                          {"path": str(pid_file), "seconds": 30},
                          label="hung"),
            _spec(),
        ]
        results = Campaign(backend=PoolBackend(2),
                           cell_timeout=2.0).run(specs)
        assert results[0].status == "timeout" and results[1].ok
        assert set(multiprocessing.active_children()) <= before
        assert not _pid_exists(int(pid_file.read_text()))

    def test_agent_imports_a_cell_module_once(self, tmp_path, monkeypatch):
        """Counted: a module that records each import of itself, run as
        6 cells by one agent that never imported it, is imported once
        (by the agent, before its first fork), not once per cell."""
        marker = tmp_path / "imports.txt"
        (tmp_path / "import_marker_cells.py").write_text(
            f"with open({str(marker)!r}, 'a') as handle:\n"
            "    handle.write('imported\\n')\n\n"
            "def cell(tag):\n"
            "    return {'tag': tag}\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        specs = [CellSpec.make("import_marker_cells:cell", {"tag": tag})
                 for tag in range(6)]
        results = Campaign(backend=PoolBackend(2)).run(specs)
        assert [r.value["tag"] for r in results] == list(range(6))
        assert marker.read_text().splitlines() == ["imported"]

    def test_cell_module_that_fails_to_import_fails_alone(self, tmp_path,
                                                          monkeypatch):
        (tmp_path / "broken_import_cells.py").write_text(
            "raise RuntimeError('broken at import')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        specs = [CellSpec.make("broken_import_cells:cell", {},
                               label="broken"),
                 _spec(a=5)]
        # One core, so the agent runs the good cell after the broken one.
        results = Campaign(backend=PoolBackend(1)).run(specs)
        assert not results[0].ok
        assert results[0].error["type"] == "RuntimeError"
        assert "broken at import" in results[0].error["message"]
        assert results[1].ok and results[1].value["sum"] == 7

    def test_progress_is_reported_in_spec_order(self):
        events = []
        campaign = Campaign(
            jobs=2,
            progress=lambda index, total, result: events.append(
                (index, total, result.status)))
        campaign.run([_spec(a=index) for index in range(5)])
        assert [event[0] for event in events] == list(range(5))
        assert all(total == 5 for _, total, _ in events)
        assert {status for _, _, status in events} == {"done"}

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = [CellSpec.make("tests.test_campaign:fail_cell",
                               {"message": "boom"})]
        Campaign(cache_dir=cache).run(specs)
        assert ResultStore(cache).status()["entries"] == 0


# ----------------------------------------------------------------------
# Experiment integration (the acceptance criteria)
# ----------------------------------------------------------------------
class TestExperimentCampaigns:
    def test_table2_parallel_render_is_byte_identical(self, tmp_path):
        serial = table2_removal.run(scale=0.05, names=["b12", "s9234"])
        parallel = table2_removal.run(
            scale=0.05, names=["b12", "s9234"],
            campaign=Campaign(jobs=2, cache_dir=str(tmp_path / "cache")))
        assert parallel.render() == serial.render()

    def test_table1_cached_rerun_is_identical_and_5x_faster(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold_campaign = Campaign(jobs=1, cache_dir=cache)
        start = time.perf_counter()
        cold = table1_sat_resilience.run(
            scale=0.05, effort="quick", campaign=cold_campaign)
        cold_seconds = time.perf_counter() - start

        warm_campaign = Campaign(jobs=4, cache_dir=cache)
        start = time.perf_counter()
        warm = table1_sat_resilience.run(
            scale=0.05, effort="quick", campaign=warm_campaign)
        warm_seconds = time.perf_counter() - start

        assert warm.render() == cold.render()  # byte-identical table
        assert warm_campaign.store.stats.hits == 1
        assert warm_campaign.store.stats.misses == 0
        assert cold_seconds >= 5 * warm_seconds

    def test_table1_failed_cell_degrades_to_extrapolation(self, monkeypatch):
        """One diverging attack cell must not sink the campaign."""
        specs = table1_sat_resilience.cells(scale=0.05, effort="quick")
        broken = [CellSpec.make(
            "tests.test_campaign:fail_cell", {"message": "diverged"},
            experiment=spec.experiment, label=spec.label) for spec in specs]
        monkeypatch.setattr(table1_sat_resilience, "cells",
                            lambda **kwargs: broken)
        result = table1_sat_resilience.run(scale=0.05, effort="quick")
        assert len(result.rows) == 30
        assert not any(row["measured"] for row in result.rows)
        assert any("fell back to extrapolation" in note
                   for note in result.notes)

    def test_runner_cli_jobs_cache_and_status(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["table2", "--scale", "0.05", "--circuits", "b12",
                "--jobs", "2", "--cache-dir", cache]
        assert runner_main(argv) == 0
        first = capsys.readouterr()
        assert "table2" in first.out
        assert "[cache: 0 hits, 3 misses" in first.err

        assert runner_main(argv) == 0
        second = capsys.readouterr()
        assert "[cache: 3 hits, 0 misses" in second.err

        def table_text(text):
            # Everything but the wall-clock footer is reproducible.
            return [line for line in text.splitlines()
                    if not line.startswith("[table2 regenerated")]

        assert table_text(second.out) == table_text(first.out)

        assert runner_main(["status", "--cache-dir", cache]) == 0
        status_out = capsys.readouterr().out
        assert "table2: 3 cells" in status_out

    def test_runner_scheduler_flags_require_distributed(self, capsys):
        assert runner_main(["fig4", "--no-cache", "--workers", "2"]) == 2
        assert "--backend distributed" in capsys.readouterr().err

    def test_runner_no_cache_flag(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["fig4", "--no-cache", "--cache-dir", cache]
        assert runner_main(argv) == 0
        captured = capsys.readouterr()
        assert "[cache:" not in captured.err
        assert not os.path.exists(cache)

    def test_lock_cli_campaign_status_and_clear(self, tmp_path):
        from repro.cli import main as lock_main

        cache = str(tmp_path / "cache")
        Campaign(cache_dir=cache).run([_spec()])
        out = io.StringIO()
        assert lock_main(["campaign", "status", "--cache-dir", cache],
                         out=out) == 0
        assert "entries:   1" in out.getvalue()
        out = io.StringIO()
        assert lock_main(["campaign", "clear", "--cache-dir", cache],
                         out=out) == 0
        assert "cleared 1 cached cells" in out.getvalue()

    def test_lock_cli_campaign_compact(self, tmp_path):
        from repro.cli import main as lock_main

        cache = str(tmp_path / "cache")
        campaign = Campaign(cache_dir=cache)
        campaign.run([_spec()])
        out = io.StringIO()
        assert lock_main(["campaign", "compact", "--cache-dir", cache],
                         out=out) == 0
        assert "packed 1 cells into pack-" in out.getvalue()
        out = io.StringIO()
        assert lock_main(["campaign", "status", "--cache-dir", cache],
                         out=out) == 0
        assert "packed:    1 cells in 1 pack(s)" in out.getvalue()
        # The packed cell still answers a warm rerun as a cache hit.
        warm = Campaign(cache_dir=cache)
        assert [r.ok for r in warm.run([_spec()])] == [True]
        assert warm.store.stats.hits == 1


class TestAttackEngineFlags:
    """Runner flags for the in-cell attack engine: explicit default
    spellings hit the same cached cells, and engine knobs mint fresh
    cells without changing the resilience numbers."""

    def run_table1(self, capsys, extra=()):
        assert runner_main(["table1", "--scale", "0.08", *extra]) == 0
        captured = capsys.readouterr()
        table = [line for line in captured.out.splitlines()
                 if not line.startswith("[table1 regenerated")]
        return table, captured.err

    def test_explicit_serial_flags_are_byte_identical(self, capsys):
        base, first_err = self.run_table1(capsys)
        assert "[cache: 0 hits, 1 misses" in first_err
        explicit, err = self.run_table1(capsys, ["--dip-batch", "1"])
        # Same cells (equivalent spellings normalize to one cache key),
        # hence the exact bytes of the default run — seconds included.
        assert explicit == base
        assert "[cache: 1 hits, 0 misses" in err

    def test_engine_knobs_mint_fresh_cells(self, capsys):
        self.run_table1(capsys)
        _, err = self.run_table1(capsys, ["--dip-batch", "2"])
        # Knobs are part of the cache key: nothing stale is replayed.
        assert "[cache: 0 hits, 1 misses" in err

    def test_engine_knobs_do_not_change_resilience(self, request):
        """Batching and a second search (which walks other DIPs) leave
        Table I's b12 κs=1 S=10 cell at 32 DIPs and the correct key."""
        base = table1_sat_resilience.run(scale=0.08)
        built = request.getfixturevalue("phase_true_search")
        tuned = table1_sat_resilience.run(scale=0.08, dip_batch=2)
        assert built
        assert [(row["circuit"], row["ndip"], row["key_ok"])
                for row in tuned.rows if row["measured"]] \
            == [("b12", "32", True)]
        assert [row["ndip"] for row in base.rows] \
            == [row["ndip"] for row in tuned.rows]
        assert [row["key_ok"] for row in base.rows] \
            == [row["key_ok"] for row in tuned.rows]

    def test_engine_flags_warn_on_non_attack_experiments(self, capsys):
        assert runner_main(["fig4", "--no-cache", "--dip-batch", "2"]) == 0
        captured = capsys.readouterr()
        assert "ignores it" in captured.err
        # No warning when the flag reaches an attack experiment.
        assert runner_main(["table1", "--scale", "0.08", "--no-cache",
                            "--dip-batch", "2"]) == 0
        assert "ignores it" not in capsys.readouterr().err
