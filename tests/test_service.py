"""Campaign service: the serve daemon's job API, multi-tenant
fair-share scheduling, the shared warm cache, cancellation, worker-loss
recovery, and the /metrics endpoint."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.campaign import ResultStore
from repro.campaign.scheduler import _Task
from repro.campaign.store import StoreStats
from repro.campaign.service import (
    CampaignService,
    FairShareQueue,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.campaign.worker import run_worker
from repro.errors import CampaignError

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# Cell functions (module-level so worker subprocesses resolve them).
# ----------------------------------------------------------------------
def quick_cell(tag):
    return {"tag": tag}


def sleep_cell(seconds, tag=""):
    time.sleep(seconds)
    return {"slept": seconds, "tag": tag}


def stamp_cell(outdir, tag, seconds):
    """Record this cell's execution window for interleaving assertions."""
    start = time.time()
    time.sleep(seconds)
    with open(os.path.join(outdir, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"tag": tag, "start": start, "end": time.time()}, handle)
    return {"tag": tag}


def _quick_cells(prefix, count):
    return [{"fn": "tests.test_service:quick_cell",
             "params": {"tag": f"{prefix}{i}"}, "label": f"{prefix}/{i}"}
            for i in range(count)]


def _sleep_cells(prefix, count, seconds):
    return [{"fn": "tests.test_service:sleep_cell",
             "params": {"seconds": seconds, "tag": f"{prefix}{i}"},
             "label": f"{prefix}/{i}"}
            for i in range(count)]


def _stamp_cells(outdir, prefix, count, seconds):
    return [{"fn": "tests.test_service:stamp_cell",
             "params": {"outdir": outdir, "tag": f"{prefix}{i}",
                        "seconds": seconds},
             "label": f"{prefix}/{i}"}
            for i in range(count)]


# ----------------------------------------------------------------------
# Farm fixture: one daemon (service + HTTP API), workers on demand.
# ----------------------------------------------------------------------
@pytest.fixture
def farm(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    service = CampaignService(store=store, scheduler_bind="127.0.0.1:0",
                              heartbeat_timeout=5.0)
    service.start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    state = SimpleNamespace(
        service=service, httpd=httpd, store=store,
        client=ServiceClient("%s:%s" % httpd.address), workers=[])

    def start_workers(count, cores=2):
        host, port = service.scheduler_address
        for i in range(count):
            process = multiprocessing.Process(
                target=run_worker, args=(f"{host}:{port}",),
                kwargs={"cores": cores, "retry_for": 30.0,
                        "name": f"sw{len(state.workers)}"})
            process.start()
            state.workers.append(process)
        return state.workers[-count:]

    state.start_workers = start_workers
    yield state
    httpd.shutdown()
    httpd.server_close()
    service.close()
    for worker in state.workers:
        if worker.is_alive():
            worker.terminate()
        worker.join(timeout=10)


def _wait_until(predicate, timeout=30.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


# ----------------------------------------------------------------------
# The job API end to end
# ----------------------------------------------------------------------
class TestJobAPI:
    def test_submit_complete_and_stream_results(self, farm):
        farm.start_workers(1, cores=2)
        summary = farm.client.submit(
            {"tenant": "alice", "cells": _quick_cells("q", 4)})
        assert summary["cells"] == 4 and summary["shipped"] == 4
        detail = farm.client.wait(summary["id"], timeout=30)
        assert detail["status"] == "done"
        assert detail["counts"] == {"done": 4}
        states = {cell["state"] for cell in detail["cell_states"]}
        assert states == {"done"}
        rows = farm.client.results(summary["id"])
        assert [row["value"]["tag"] for row in rows] == \
            ["q0", "q1", "q2", "q3"]

    def test_matrix_submission_yields_self_describing_outcomes(self, farm):
        farm.start_workers(1, cores=2)
        summary = farm.client.submit({
            "tenant": "alice",
            "circuits": ["s27"], "schemes": ["trilock"],
            "attacks": ["removal"], "max_dips": 16,
        })
        detail = farm.client.wait(summary["id"], timeout=120)
        assert detail["counts"] == {"done": 1}
        value = farm.client.results(summary["id"])[0]["value"]
        assert value["scheme_spec"].startswith("trilock?")
        assert value["attack_spec"].startswith("removal")
        assert value["scheme_spec"] == value["scheme"]

    def test_unknown_campaign_is_404(self, farm):
        with pytest.raises(CampaignError) as excinfo:
            farm.client.status("nope")
        assert "404" in str(excinfo.value)

    def test_bad_submission_is_400_with_message(self, farm):
        with pytest.raises(CampaignError) as excinfo:
            farm.client.submit({"tenant": "x"})
        message = str(excinfo.value)
        assert "400" in message and "circuits" in message

    def test_listing_and_info_endpoints(self, farm):
        farm.start_workers(1, cores=2)
        farm.client.submit({"tenant": "a", "cells": _quick_cells("l", 1)})
        assert _wait_until(
            lambda: farm.client.campaigns()[0]["status"] == "done")
        jobs = farm.client.campaigns()
        assert len(jobs) == 1 and jobs[0]["tenant"] == "a"
        info = farm.client.info()
        assert info["campaigns"] == 1
        schemes = farm.client.schemes()
        assert any(entry["name"] == "trilock" for entry in schemes)
        attacks = farm.client.attacks()
        assert any(entry["name"] == "seq-sat" for entry in attacks)
        seq_sat = next(e for e in attacks if e["name"] == "seq-sat")
        assert seq_sat["params"]["dip_batch"]["default"] == 1


# ----------------------------------------------------------------------
# Fair share, warm cache, cancel, worker loss
# ----------------------------------------------------------------------
class TestMultiTenant:
    def test_two_tenants_interleave_on_one_fleet(self, farm, tmp_path):
        """With strict FIFO the second tenant would only start after the
        first tenant's whole backlog; fair share serves the tenant with
        the fewest running cells, so both appear among the first
        placements."""
        outdir = str(tmp_path / "stamps")
        os.makedirs(outdir)
        farm.start_workers(1, cores=2)
        a = farm.client.submit(
            {"tenant": "alice",
             "cells": _stamp_cells(outdir, "a", 6, 0.25)})
        b = farm.client.submit(
            {"tenant": "bob",
             "cells": _stamp_cells(outdir, "b", 6, 0.25)})
        assert farm.client.wait(a["id"], timeout=60)["counts"] == \
            {"done": 6}
        assert farm.client.wait(b["id"], timeout=60)["counts"] == \
            {"done": 6}
        stamps = []
        for name in os.listdir(outdir):
            with open(os.path.join(outdir, name), encoding="utf-8") as f:
                stamps.append(json.load(f))
        stamps.sort(key=lambda record: record["start"])
        order = [record["tag"] for record in stamps]
        # The first two 2-core waves are {a0,a1} then {b0,aX} (start
        # timestamps within one wave are unordered), so the first four
        # starts must span both tenants — FIFO would give a,a,a,a.
        assert {tag[0] for tag in order[:4]} == {"a", "b"}, (
            f"expected both tenants among the first placements, "
            f"got {order}")
        a_starts = sorted(r["start"] for r in stamps
                          if r["tag"].startswith("a"))
        b_starts = sorted(r["start"] for r in stamps
                          if r["tag"].startswith("b"))
        # Bob's first cell must run well before Alice's backlog drains
        # (under FIFO it would only start after all six of Alice's).
        assert b_starts[0] < a_starts[3], f"no interleaving: {order}"

    def test_cross_tenant_warm_cache_ships_zero_cells(self, farm):
        farm.start_workers(1, cores=2)
        cells = _quick_cells("warm", 4)
        first = farm.client.submit({"tenant": "alice", "cells": cells})
        assert first["shipped"] == 4
        farm.client.wait(first["id"], timeout=30)
        # Same cells, different tenant: all warm hits, nothing ships.
        second = farm.client.submit({"tenant": "bob", "cells": cells})
        assert second["shipped"] == 0
        assert second["status"] == "done"
        assert second["counts"] == {"hit": 4}
        assert farm.client.results(second["id"])[0]["state"] == "hit"
        # The fleet never saw the resubmission.
        snapshot = farm.service.scheduler.stats_snapshot
        assert snapshot["outstanding"] == 0

    def test_cancel_mid_flight_frees_cores(self, farm):
        farm.start_workers(1, cores=1)
        blocked = farm.client.submit(
            {"tenant": "alice", "cells": _sleep_cells("slow", 3, 30.0)})
        assert _wait_until(
            lambda: farm.client.status(blocked["id"])["counts"]
            .get("running", 0) > 0)
        farm.client.cancel(blocked["id"])
        # Cancellation is asynchronous (queued cells drop immediately,
        # the in-flight cell is killed on its worker) — wait for it.
        detail = farm.client.wait(blocked["id"], timeout=15)
        assert detail["status"] == "cancelled"
        assert detail["counts"] == {"cancelled": 3}
        # The freed core must pick up new work promptly — well under
        # the 30s the cancelled cells would have held it for.
        follow_up = farm.client.submit(
            {"tenant": "bob", "cells": _quick_cells("after", 1)})
        detail = farm.client.wait(follow_up["id"], timeout=15)
        assert detail["counts"] == {"done": 1}

    def test_kill9_worker_mid_campaign_completes_both_jobs(self, farm):
        workers = farm.start_workers(2, cores=1)
        a = farm.client.submit(
            {"tenant": "alice", "cells": _sleep_cells("ka", 4, 0.4)})
        b = farm.client.submit(
            {"tenant": "bob", "cells": _sleep_cells("kb", 4, 0.4)})
        assert _wait_until(
            lambda: farm.client.status(a["id"])["counts"]
            .get("running", 0) + farm.client.status(b["id"])["counts"]
            .get("running", 0) > 0)
        os.kill(workers[0].pid, signal.SIGKILL)
        # The dead worker's socket EOF requeues its in-flight cells onto
        # the survivor; both campaigns still finish every cell.
        assert farm.client.wait(a["id"], timeout=60)["counts"] == \
            {"done": 4}
        assert farm.client.wait(b["id"], timeout=60)["counts"] == \
            {"done": 4}


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_metrics_payload_after_activity(self, farm):
        farm.start_workers(1, cores=2)
        summary = farm.client.submit(
            {"tenant": "alice", "cells": _quick_cells("m", 2)})
        farm.client.wait(summary["id"], timeout=30)
        farm.client.submit({"tenant": "bob",
                            "cells": _quick_cells("m", 2)})
        text = farm.client.metrics()
        assert text.strip()
        for name in ("repro_uptime_seconds", "repro_campaigns",
                     "repro_cells_total", "repro_cells_shipped_total",
                     "repro_workers_connected", "repro_worker_cores",
                     "repro_placement_utilization",
                     "repro_cache_ops_total", "repro_cache_hit_rate"):
            assert name in text, f"metric {name} missing from payload"
        samples = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
        assert samples['repro_cells_total{state="done",tenant="alice"}'] \
            == 2
        assert samples['repro_cells_total{state="hit",tenant="bob"}'] == 2
        assert samples["repro_cells_shipped_total"] == 2
        assert samples["repro_cache_hit_rate"] > 0


# ----------------------------------------------------------------------
# Fair-share queue policy (pure unit level)
# ----------------------------------------------------------------------
def _task(index, tenant, priority=0, group="g"):
    return _Task(index=index, fn="f", kwargs={}, key=f"k{index}",
                 label=f"t{index}", group=group, tenant=tenant,
                 priority=priority)


class TestFairShareQueue:
    def test_alternates_between_idle_tenants(self):
        queue = FairShareQueue()
        for i in range(3):
            queue.put(_task(i, "a"))
        for i in range(3, 6):
            queue.put(_task(i, "b"))
        order = []
        while True:
            task = queue.pop_next()
            if task is None:
                break
            order.append(task.tenant)
            queue.started(task)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_least_loaded_tenant_wins(self):
        queue = FairShareQueue()
        queue.put(_task(0, "a"))
        queue.put(_task(1, "b"))
        queue.started(_task(9, "a"))  # a already holds a core
        assert queue.pop_next().tenant == "b"

    def test_priority_orders_within_a_tenant(self):
        queue = FairShareQueue()
        queue.put(_task(0, "a", priority=0))
        queue.put(_task(1, "a", priority=5))
        queue.put(_task(2, "a", priority=0))
        assert [queue.pop_next().index for _ in range(3)] == [1, 0, 2]

    def test_requeue_and_defer_go_to_the_front(self):
        queue = FairShareQueue()
        for i in range(4):
            queue.put(_task(i, "a"))
        first = queue.pop_next()
        second = queue.pop_next()
        queue.defer([first, second])
        assert queue.pop_next().index == first.index
        queue.requeue(second)
        assert queue.pop_next().index == second.index

    def test_remove_group_only_touches_that_group(self):
        queue = FairShareQueue()
        queue.put(_task(0, "a", group="g1"))
        queue.put(_task(1, "a", group="g2"))
        queue.put(_task(2, "b", group="g1"))
        removed = queue.remove_group("g1")
        assert sorted(task.index for task in removed) == [0, 2]
        assert len(queue) == 1
        assert queue.pop_next().group == "g2"

    def test_finished_releases_share(self):
        queue = FairShareQueue()
        first, second = _task(0, "a"), _task(1, "a")
        queue.started(first)
        queue.started(second)
        assert queue.running_cores() == {"a": 2}
        queue.finished(first)
        queue.finished(second)
        assert queue.running_cores() == {}

    def test_idle_tenants_are_pruned_from_fairness_state(self):
        """Regression: ``_served``/``_running`` used to accumulate one
        entry per tenant ever seen, unbounded over a daemon's life."""
        queue = FairShareQueue()
        for index, tenant in enumerate("abcde"):
            queue.put(_task(index, tenant))
            task = queue.pop_next()
            queue.started(task)
            queue.finished(task)
        assert queue._served == {} and queue._running == {}

    def test_cancelled_tenants_are_pruned_too(self):
        queue = FairShareQueue()
        queue.put(_task(0, "y"))
        assert queue.pop_next() is not None     # records a served tick
        queue.put(_task(1, "y"))
        queue.remove_group("g")
        assert "y" not in queue._served and "y" not in queue._running

    def test_active_tenants_keep_their_fairness_state(self):
        queue = FairShareQueue()
        first, second = _task(0, "a"), _task(1, "a")
        queue.put(first)
        queue.put(second)
        queue.started(queue.pop_next())
        queue.started(queue.pop_next())
        queue.finished(first)
        # One cell still running: history must survive the prune pass.
        assert queue._running == {"a": 1}
        assert "a" in queue._served


# ----------------------------------------------------------------------
# Bearer-token enforcement on the HTTP API
# ----------------------------------------------------------------------
class TestBearerToken:
    def test_requests_without_the_token_are_401(self, farm, monkeypatch):
        monkeypatch.delenv("REPRO_SECRET", raising=False)
        httpd = ServiceHTTPServer(("127.0.0.1", 0), farm.service,
                                  token="hunter2")
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            server = "%s:%s" % httpd.address
            naked = ServiceClient(server)
            with pytest.raises(CampaignError, match="401"):
                naked.info()
            wrong = ServiceClient(server, secret="wrong-token")
            with pytest.raises(CampaignError, match="401"):
                wrong.campaigns()
            # Mutating verbs are gated before routing: no 404 oracle.
            with pytest.raises(CampaignError, match="401"):
                naked.cancel("does-not-exist")
            with pytest.raises(CampaignError, match="401"):
                wrong.submit({"cells": _quick_cells("x", 1)})
            good = ServiceClient(server, secret="hunter2")
            assert good.info()["campaigns"] == 0
            assert "repro_uptime_seconds" in good.metrics()
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_token_resolves_from_environment(self, farm, monkeypatch):
        monkeypatch.setenv("REPRO_SECRET", "env-token")
        httpd = ServiceHTTPServer(("127.0.0.1", 0), farm.service)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            server = "%s:%s" % httpd.address
            # The client resolves the same environment variable.
            assert ServiceClient(server).info() is not None
            monkeypatch.delenv("REPRO_SECRET")
            with pytest.raises(CampaignError, match="401"):
                ServiceClient(server).info()
        finally:
            httpd.shutdown()
            httpd.server_close()


# ----------------------------------------------------------------------
# StoreStats: readers must snapshot under the counter lock
# ----------------------------------------------------------------------
class _TrackingLock:
    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestStoreStatsLocking:
    def test_readers_acquire_the_counter_lock(self):
        """Regression: ``hit_rate``/``as_dict`` used to read the
        counters lock-free, so a /metrics render racing the scheduler
        loop could see a torn hits/misses pair."""
        stats = StoreStats()
        tracker = _TrackingLock()
        stats._lock = tracker
        stats.record("hits")
        assert tracker.acquisitions == 1
        stats.hit_rate()
        assert tracker.acquisitions == 2
        stats.as_dict()
        assert tracker.acquisitions == 3
        stats.summary()
        assert tracker.acquisitions == 4
