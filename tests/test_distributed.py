"""Distributed campaign execution: backend equivalence, the socket
scheduler/worker protocol, placement within each worker's advertised
cores, dead-worker requeue, scheduler-side timeouts, and the worker
agent's exits (shutdown drain, SIGTERM)."""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import selectors
import signal
import socket
import time

import pytest

from repro.campaign import (
    Campaign,
    CellSpec,
    DistributedBackend,
    InlineBackend,
    PoolBackend,
    Scheduler,
    backend_names,
    canonical_json,
    resolve_backend,
)
from repro.campaign.scheduler import (
    MAX_ATTEMPTS,
    _Assignment,
    _Task,
    _WorkerState,
    listen_socket,
)
from repro.campaign.wire import (
    MessageBuffer,
    connect_with_retry,
    format_address,
    parse_hostport,
    send_message,
)
from repro.campaign.worker import run_worker
from repro.errors import CampaignError
from tests.test_campaign import _pid_exists

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# Cell functions (module-level so any fresh interpreter resolves them).
# ----------------------------------------------------------------------
def add_cell(a, b):
    return {"sum": a + b, "operands": [a, b]}


def slow_cell(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def exit_cell(code):
    os._exit(code)


def blob_cell(n_bytes):
    return {"blob": "x" * n_bytes}


def touch_cell(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("done")
    return {"touched": True}


def track_cell(outdir, tag, seconds):
    """Record this cell's execution window and host worker."""
    start = time.time()
    time.sleep(seconds)
    record = {
        "tag": tag,
        "worker": os.getppid(),
        "start": start,
        "end": time.time(),
    }
    with open(os.path.join(outdir, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle)
    return record


def _add_spec(a, b=10):
    return CellSpec.make("tests.test_distributed:add_cell",
                         {"a": a, "b": b}, experiment="unit",
                         label=f"add/{a}")


def _start_workers(address, count, cores=2, heartbeat=None, **extra):
    host, port = address
    workers = []
    for i in range(count):
        kwargs = {"cores": cores, "retry_for": 30.0, "name": f"tw{i}"}
        kwargs.update(extra)
        process = multiprocessing.Process(
            target=run_worker, args=(f"{host}:{port}",), kwargs=kwargs)
        process.start()
        workers.append(process)
    return workers


def _stop_workers(workers):
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
        worker.join(timeout=10)


@pytest.fixture
def backend():
    instance = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                  heartbeat_timeout=5.0)
    yield instance
    instance.close()


# ----------------------------------------------------------------------
# The acceptance criterion: three backends, identical results
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    def test_inline_pool_distributed_identical(self, backend):
        specs = [_add_spec(a) for a in range(8)]
        inline = Campaign(backend=InlineBackend()).run(specs)
        pool = Campaign(backend=PoolBackend(2)).run(specs)

        backend.min_workers = 2
        workers = _start_workers(backend.address, 2)
        try:
            distributed = Campaign(backend=backend).run(specs)
        finally:
            _stop_workers(workers)

        for results in (pool, distributed):
            assert [r.key for r in results] == [r.key for r in inline]
            # Byte-identical values: the canonical JSON encodings match
            # exactly, key order included.
            assert [canonical_json(r.value) for r in results] \
                == [canonical_json(r.value) for r in inline]
            assert [r.status for r in results] == ["done"] * len(specs)
            assert [r.spec for r in results] == specs

    def test_distributed_writes_shared_cache_scheduler_side(
            self, backend, tmp_path):
        cache = str(tmp_path / "cache")
        specs = [_add_spec(a) for a in range(4)]
        workers = _start_workers(backend.address, 1)
        try:
            cold = Campaign(backend=backend, cache_dir=cache)
            assert all(r.ok for r in cold.run(specs))
            assert cold.store.stats.puts == 4
        finally:
            _stop_workers(workers)
        # Warm rerun: pure cache hits, no scheduler, no workers needed.
        warm = Campaign(backend=backend, cache_dir=cache)
        results = warm.run(specs)
        assert all(r.cached for r in results)
        assert warm.store.stats.hits == 4 and warm.store.stats.misses == 0

    def test_progress_reported_in_spec_order(self, backend):
        events = []
        specs = [_add_spec(a) for a in range(6)]
        workers = _start_workers(backend.address, 2)
        try:
            campaign = Campaign(
                backend=backend,
                progress=lambda i, total, r: events.append((i, r.status)))
            campaign.run(specs)
        finally:
            _stop_workers(workers)
        assert [index for index, _ in events] == list(range(6))
        assert {status for _, status in events} == {"done"}


# ----------------------------------------------------------------------
# Failure model: dead workers, crashed cells, timeouts
# ----------------------------------------------------------------------
class TestDistributedFailures:
    def test_killed_worker_loses_no_cells(self, backend):
        events = []
        backend.on_event = events.append
        backend.min_workers = 2
        specs = [CellSpec.make("tests.test_distributed:slow_cell",
                               {"seconds": 0.3 + i * 1e-6},
                               label=f"slow/{i}")
                 for i in range(6)]
        workers = _start_workers(backend.address, 2, cores=1)
        try:
            killer = multiprocessing.Process(
                target=_kill_after, args=(workers[0].pid, 0.45))
            killer.start()
            results = Campaign(backend=backend).run(specs)
            killer.join()
        finally:
            _stop_workers(workers)
        assert all(r.ok for r in results)
        assert [r.value["slept"] for r in results] \
            == [0.3 + i * 1e-6 for i in range(6)]
        assert any("requeued" in event for event in events)

    def test_crashed_cell_subprocess_is_captured(self, backend):
        specs = [
            CellSpec.make("tests.test_distributed:exit_cell", {"code": 3},
                          label="boom"),
            _add_spec(1),
        ]
        workers = _start_workers(backend.address, 1)
        try:
            results = Campaign(backend=backend).run(specs)
        finally:
            _stop_workers(workers)
        assert not results[0].ok
        assert results[0].error["type"] == "WorkerCellDied"
        assert "code 3" in results[0].error["message"]
        assert results[1].ok and results[1].value["sum"] == 11

    def test_worker_killing_cell_fails_instead_of_wiping_the_fleet(
            self, backend, monkeypatch):
        """A cell whose result the scheduler cannot accept drops its
        worker every time; after MAX_ATTEMPTS placements it is failed
        for good so the campaign still completes."""
        import repro.campaign.wire as wire

        # Shrink the frame limit in *this* (scheduler) process only —
        # workers are separate processes and send normally; the
        # oversized result frame then kills each connection it rides.
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 4096)
        events = []
        backend.on_event = events.append
        backend.min_workers = MAX_ATTEMPTS
        specs = [CellSpec.make("tests.test_distributed:blob_cell",
                               {"n_bytes": 65536}, label="toxic")]
        workers = _start_workers(backend.address, MAX_ATTEMPTS, cores=1)
        try:
            (result,) = Campaign(backend=backend).run(specs)
        finally:
            _stop_workers(workers)
        assert not result.ok
        assert result.error["type"] == "WorkerLost"
        assert f"{MAX_ATTEMPTS} times" in result.error["message"]
        assert sum("lost" in event for event in events) == MAX_ATTEMPTS

    def test_cell_timeout_enforced_scheduler_side(self, backend):
        specs = [
            CellSpec.make("tests.test_distributed:slow_cell",
                          {"seconds": 30}, label="hung"),
            _add_spec(2),
        ]
        workers = _start_workers(backend.address, 1, cores=1)
        try:
            start = time.monotonic()
            results = Campaign(backend=backend,
                               cell_timeout=0.6).run(specs)
            elapsed = time.monotonic() - start
        finally:
            _stop_workers(workers)
        assert results[0].status == "timeout"
        assert "0.6s budget" in results[0].error["message"]
        # The cancelled cell freed its core: the second cell ran after
        # the timeout on the same single-core worker.
        assert results[1].ok
        assert elapsed < 20

    def test_timeout_sweep_survives_cancel_send_dropping_the_worker(self):
        """Regression: with two cells expired on the same worker, a
        cancel send that fails drops the worker mid-sweep (clearing and
        requeueing its remaining assignments); the sweep must neither
        KeyError on the vanished assignments nor double-handle them."""

        class _DeadSock:
            def gettimeout(self):
                return None

            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                raise OSError("connection reset")

            def close(self):
                pass

        listen = socket.socket()
        listen.bind(("127.0.0.1", 0))
        listen.listen(1)
        try:
            scheduler = Scheduler(listen, cell_timeout=0.01)
            scheduler._sel = selectors.DefaultSelector()
            delivered = []
            scheduler._deliver = \
                lambda index, envelope: delivered.append((index, envelope))
            scheduler._outstanding = 3
            worker = _WorkerState(_DeadSock(), ("h", 1))
            worker.registered, worker.cores, worker.free = True, 3, 0
            now = time.monotonic()
            for index in range(3):  # two expired, one still healthy
                deadline = now - 1 if index < 2 else now + 60
                worker.assigned[index] = _Assignment(
                    task=_Task(index=index, fn="f", kwargs={},
                               key=str(index), label=f"t{index}"),
                    started=now - 2, deadline=deadline)
            scheduler._workers = {worker.sock: worker}
            scheduler._enforce_timeouts()
        finally:
            scheduler._sel.close()
            listen.close()
        # The first expired cell got its timeout envelope; the failed
        # cancel dropped the worker, requeueing the other two exactly
        # once each (no timeout-AND-requeue double handling).
        assert [index for index, _ in delivered] == [0]
        assert delivered[0][1]["error"]["type"] == "TimeoutError"
        assert [task.index for task in scheduler._queue] == [1, 2]
        assert scheduler._outstanding == 2
        assert not scheduler._workers


# ----------------------------------------------------------------------
# Placement: one cell per advertised core
# ----------------------------------------------------------------------
class TestPlacement:
    def test_no_worker_runs_more_cells_than_its_cores(self, backend,
                                                      tmp_path):
        outdir = str(tmp_path / "track")
        os.makedirs(outdir)
        specs = [
            CellSpec.make("tests.test_distributed:track_cell",
                          {"outdir": outdir, "tag": f"t{i}",
                           "seconds": 0.3},
                          label=f"track/{i}")
            for i in range(6)
        ]
        backend.min_workers = 2
        workers = _start_workers(backend.address, 2, cores=2)
        try:
            results = Campaign(backend=backend).run(specs)
        finally:
            _stop_workers(workers)
        assert all(r.ok for r in results)
        by_worker = {}
        for result in results:
            record = result.value
            by_worker.setdefault(record["worker"], []).append(record)
        # Intervals on a line: no instant is inside three windows of one
        # worker iff no three of its windows overlap pairwise at once.
        for records in by_worker.values():
            for trio in itertools.combinations(records, 3):
                overlap = min(one["end"] for one in trio) \
                    - max(one["start"] for one in trio)
                assert overlap <= 0, (
                    f"{[one['tag'] for one in trio]} ran at once "
                    f"({overlap:.3f}s) on a 2-core worker")


# ----------------------------------------------------------------------
# Backend registry / wire plumbing
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_names_and_defaults(self):
        assert backend_names() == ("distributed", "inline", "pool")
        assert isinstance(resolve_backend(None, jobs=1), InlineBackend)
        pool = resolve_backend(None, jobs=3)
        assert isinstance(pool, PoolBackend) and pool.jobs == 3
        instance = PoolBackend(2)
        assert resolve_backend(instance) is instance

    def test_bad_combinations_are_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign backend"):
            resolve_backend("slurm")
        with pytest.raises(CampaignError, match="single-process"):
            resolve_backend("inline", jobs=4)
        with pytest.raises(CampaignError, match="drop jobs"):
            resolve_backend("distributed", jobs=4)
        with pytest.raises(CampaignError):
            resolve_backend(42)

    def test_cell_spec_wire_roundtrip(self):
        spec = CellSpec.matrix("s27", "trilock?kappa_s=2",
                               "seq-sat?dip_batch=4")
        clone = CellSpec.from_wire(spec.to_wire())
        assert clone == spec
        assert clone.key() == spec.key()
        with pytest.raises(CampaignError):
            CellSpec.from_wire({"params": {}})


class TestWire:
    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:7764") == ("127.0.0.1", 7764)
        for bad in ("nohost", "host:", ":123", "host:abc"):
            with pytest.raises(CampaignError):
                parse_hostport(bad)

    def test_parse_hostport_ipv6(self):
        # Bracketed IPv6 literals parse with the brackets stripped …
        assert parse_hostport("[::1]:7764") == ("::1", 7764)
        assert parse_hostport("[2001:db8::2]:80") == ("2001:db8::2", 80)
        # … while unbracketed ones are rejected instead of being split
        # at the wrong colon ("::1:7764" is NOT host "::1" port 7764).
        for bad in ("::1:7764", "[]:7764", "[::1]:", "[::1]"):
            with pytest.raises(CampaignError):
                parse_hostport(bad)

    def test_format_address_brackets_ipv6(self):
        assert format_address(("127.0.0.1", 7764)) == "127.0.0.1:7764"
        assert format_address(("::1", 7764)) == "[::1]:7764"
        # round-trip
        assert parse_hostport(format_address(("::1", 7764))) == ("::1", 7764)

    def test_ipv6_scheduler_and_worker_end_to_end(self):
        try:
            backend = DistributedBackend(bind="[::1]:0", min_workers=1,
                                         heartbeat_timeout=5.0)
            backend.address  # binds
        except CampaignError as error:
            pytest.skip(f"IPv6 loopback unavailable: {error}")
        specs = [_add_spec(a) for a in range(2)]
        host, port = backend.address[:2]
        workers = []
        try:
            process = multiprocessing.Process(
                target=run_worker, args=(f"[{host}]:{port}",),
                kwargs={"cores": 2, "retry_for": 30.0, "name": "v6"})
            process.start()
            workers.append(process)
            results = Campaign(backend=backend).run(specs)
            assert [r.value["sum"] for r in results] == [10, 11]
        finally:
            _stop_workers(workers)
            backend.close()

    def test_message_buffer_reassembles_partial_frames(self):
        buffer = MessageBuffer()
        payload = b'{"type":"result","id":1}\n{"type":"heart'
        assert buffer.feed(payload) == [{"type": "result", "id": 1}]
        assert buffer.feed(b'beat"}\n') == [{"type": "heartbeat"}]

    def test_message_buffer_rejects_garbage(self):
        with pytest.raises(CampaignError):
            MessageBuffer().feed(b"not json at all\n")
        with pytest.raises(CampaignError):
            MessageBuffer().feed(b'["no","type"]\n')

    def test_both_ends_of_a_registered_connection_disable_nagle(self):
        """Small frames go out at once on both ends: a cell's
        cell/need/job exchange must not stall on delayed ACKs."""
        listen = listen_socket(("127.0.0.1", 0))
        scheduler = Scheduler(listen)
        scheduler._setup()
        client = connect_with_retry(*listen.getsockname()[:2])
        try:
            send_message(client, {"type": "register", "cores": 1,
                                  "name": "nagle"})
            deadline = time.monotonic() + 10
            while not any(worker.registered
                          for worker in scheduler._workers.values()):
                assert time.monotonic() < deadline, "never registered"
                scheduler._tick()
            (accepted,) = scheduler._workers
            for sock in (client, accepted):
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        finally:
            client.close()
            scheduler._close_all()
            listen.close()

    def test_send_message_preserves_dict_order(self):
        """Cell values keep insertion order on the wire — sorting keys
        would break cross-backend byte-identity of rendered tables."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname()[:2])
        peer, _ = server.accept()
        try:
            send_message(client, {"type": "x",
                                  "value": {"zebra": 1, "alpha": 2}})
            data = peer.recv(4096)
        finally:
            client.close()
            peer.close()
            server.close()
        assert data.index(b"zebra") < data.index(b"alpha")
        (message,) = MessageBuffer().feed(data)
        assert list(message["value"]) == ["zebra", "alpha"]


def _kill_after(pid, delay):
    time.sleep(delay)
    try:
        os.kill(pid, 9)
    except OSError:
        pass


# ----------------------------------------------------------------------
# Two-tier cache: worker-local shard read-through
# ----------------------------------------------------------------------
class TestWorkerShard:
    def test_warm_fleet_rerun_is_answered_key_only(self, tmp_path):
        from repro.campaign.store import ResultStore

        shard = str(tmp_path / "shard")
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     heartbeat_timeout=5.0)
        specs = [_add_spec(a) for a in range(4)]
        try:
            workers = _start_workers(backend.address, 1, shard_dir=shard)
            try:
                cold = Campaign(backend=backend,
                                cache_dir=str(tmp_path / "authority1"))
                assert all(r.ok for r in cold.run(specs))
            finally:
                _stop_workers(workers)
            # Cold: every cell's kwargs crossed the wire exactly once.
            assert backend.last_run_stats == {
                "cells": 4, "kwargs_frames": 4, "shard_hits": 0}
            # … and every computed result landed in the worker's shard.
            shard_store = ResultStore(shard)
            assert all(shard_store.get(spec.key()) is not None
                       for spec in specs)

            # Warm rerun against a FRESH authority store (so all four
            # cells ship again) with a FRESH worker process on the same
            # shard: everything is answered from the shard, key-only —
            # zero kwargs frames cross the wire.
            workers = _start_workers(backend.address, 1, shard_dir=shard)
            try:
                warm = Campaign(backend=backend,
                                cache_dir=str(tmp_path / "authority2"))
                results = warm.run(specs)
            finally:
                _stop_workers(workers)
            assert [r.value["sum"] for r in results] == [10, 11, 12, 13]
            assert backend.last_run_stats == {
                "cells": 4, "kwargs_frames": 0, "shard_hits": 4}
            # The scheduler stayed the write authority: the fresh store
            # absorbed all four shard-answered values.
            assert warm.store.stats.puts == 4
        finally:
            backend.close()

    def test_shardless_worker_still_runs_every_cell(self, tmp_path):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     heartbeat_timeout=5.0)
        specs = [_add_spec(a) for a in range(3)]
        try:
            workers = _start_workers(backend.address, 1)
            try:
                results = Campaign(backend=backend).run(specs)
            finally:
                _stop_workers(workers)
            assert [r.value["sum"] for r in results] == [10, 11, 12]
            assert backend.last_run_stats == {
                "cells": 3, "kwargs_frames": 3, "shard_hits": 0}
        finally:
            backend.close()


class TestAuthenticatedFleet:
    def test_authenticated_campaign_round_trip(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     heartbeat_timeout=5.0,
                                     secret="fleet-secret")
        specs = [_add_spec(a) for a in range(3)]
        try:
            workers = _start_workers(backend.address, 1,
                                     secret="fleet-secret")
            try:
                results = Campaign(backend=backend).run(specs)
            finally:
                _stop_workers(workers)
            assert [r.value["sum"] for r in results] == [10, 11, 12]
        finally:
            backend.close()


class TestWorkerShutdownDrain:
    def test_orderly_shutdown_ships_finished_results_first(
            self, tmp_path, monkeypatch):
        """Regression: `shutdown` used to break out of the worker loop
        and kill running cells *before* a final result pump, silently
        dropping envelopes of cells that had already finished."""
        import io
        import threading

        import repro.campaign.worker as worker_mod

        # Wake the worker on its socket only (never on a cell's pipe):
        # it then acts only when the fake scheduler sends something, so
        # the finished cell's envelope is provably sitting unshipped in
        # the pipe when the shutdown frame arrives.
        wait = worker_mod.wait
        monkeypatch.setattr(worker_mod, "wait",
                            lambda objects, timeout=None:
                            wait(objects[:1], timeout))
        listen = socket.socket()
        listen.bind(("127.0.0.1", 0))
        listen.listen(1)
        host, port = listen.getsockname()
        marker = tmp_path / "marker"
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.update(code=run_worker(
                f"{host}:{port}", cores=1, name="drain",
                out=io.StringIO())))
        thread.start()
        conn, _ = listen.accept()
        conn.settimeout(30)
        read_until = _frame_reader(conn)
        try:
            read_until("register")
            send_message(conn, {"type": "welcome", "heartbeat": 60.0})
            send_message(conn, {"type": "cell", "id": 0, "key": "k0",
                                "label": "touch"})
            read_until("need")
            send_message(conn, {"type": "job", "id": 0,
                                "fn": "tests.test_distributed:touch_cell",
                                "kwargs": {"path": str(marker)}})
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert time.monotonic() < deadline, "cell never ran"
                time.sleep(0.05)
            time.sleep(0.5)  # envelope reaches the pipe; worker still blocked
            send_message(conn, {"type": "shutdown"})
            result = read_until("result")
            assert result["id"] == 0 and result["envelope"]["ok"]
            assert result["envelope"]["value"] == {"touched": True}
        finally:
            conn.close()
            listen.close()
            thread.join(timeout=30)
        assert rc.get("code") == 0  # orderly shutdown, result shipped


def _frame_reader(conn):
    """``read_until(kind)``: the next frame of that type on ``conn``."""
    buffer = MessageBuffer()

    def read_until(kind):
        while True:
            data = conn.recv(65536)
            assert data, (f"worker closed the link before sending "
                          f"a {kind!r} frame")
            for message in buffer.feed(data):
                if message["type"] == kind:
                    return message

    return read_until


def _cancel_a_starting_cell(conn):
    """In a process with the agent's SIGTERM handler: start a cell and
    kill it at once; report how long the kill took and the exit code."""
    import repro.campaign.worker as worker_mod

    signal.signal(signal.SIGTERM, worker_mod._exit_on_sigterm)
    cell = worker_mod._RunningCell("tests.test_distributed:slow_cell",
                                   {"seconds": 30})
    start = time.monotonic()
    cell.kill()
    conn.send((time.monotonic() - start, cell.process.exitcode))


class TestWorkerSigterm:
    def test_cell_cancelled_as_it_starts_dies_at_once(self):
        """A cancel that reaches a cell before its process has reset
        SIGTERM still kills it at once. Without the fork's blocked
        SIGTERM, the agent's inherited handler raises inside the
        after-fork hooks, which swallow it; the cell then runs until the
        5 s SIGKILL fallback, and an agent that sends no heartbeat for
        that long is dropped by a scheduler with a 5 s timeout."""
        reader, writer = multiprocessing.Pipe(duplex=False)
        agent = multiprocessing.Process(target=_cancel_a_starting_cell,
                                        args=(writer,))
        agent.start()
        writer.close()
        try:
            assert reader.poll(30), "the agent never reported"
            seconds, exitcode = reader.recv()
        finally:
            agent.join(timeout=10)
        assert exitcode == -signal.SIGTERM
        assert seconds < 2.0


    def test_sigterm_kills_the_running_cell(self, tmp_path):
        """A SIGTERMed agent takes its orderly exit and kills the cell
        it runs, instead of leaving it to run on as an orphan."""
        listen = socket.socket()
        listen.bind(("127.0.0.1", 0))
        listen.listen(1)
        host, port = listen.getsockname()
        pid_file = tmp_path / "cell.pid"
        agent = multiprocessing.Process(
            target=run_worker, args=(f"{host}:{port}",),
            kwargs={"cores": 1, "name": "term"})
        agent.start()
        conn, _ = listen.accept()
        conn.settimeout(30)
        read_until = _frame_reader(conn)
        try:
            read_until("register")
            send_message(conn, {"type": "welcome", "heartbeat": 60.0})
            send_message(conn, {"type": "cell", "id": 0, "key": "k0",
                                "label": "slow"})
            read_until("need")
            send_message(conn, {"type": "job", "id": 0,
                                "fn": "tests.test_campaign:pid_file_cell",
                                "kwargs": {"path": str(pid_file),
                                           "seconds": 30}})
            deadline = time.monotonic() + 30
            while not pid_file.exists() or not pid_file.read_text():
                assert time.monotonic() < deadline, "cell never ran"
                time.sleep(0.05)
            pid = int(pid_file.read_text())
            agent.terminate()
            agent.join(timeout=10)
            assert agent.exitcode == 128 + signal.SIGTERM
            deadline = time.monotonic() + 5
            while _pid_exists(pid):
                assert time.monotonic() < deadline, (
                    f"cell {pid} outlived its SIGTERMed agent")
                time.sleep(0.05)
        finally:
            if agent.is_alive():
                agent.kill()
                agent.join()
            conn.close()
            listen.close()
