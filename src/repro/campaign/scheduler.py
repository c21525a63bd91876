"""TCP scheduler for distributed campaigns.

The :class:`DistributedBackend` turns a campaign's pending cells into
JSON envelopes and places them onto remote ``repro-lock worker`` agents
(:mod:`repro.campaign.worker`) over a line-framed JSON protocol
(:mod:`repro.campaign.wire`):

* worker → scheduler: ``register`` (advertised cores), ``heartbeat``,
  ``need`` (no shard entry — ship me the job), ``hit`` (answered from
  the worker's local read-through shard), ``result`` (the cell's
  failure-capture envelope);
* scheduler → worker: ``welcome`` (heartbeat interval), ``cell`` (the
  key-only placement probe: cache key and label, no kwargs), ``job``
  (fn path + canonical kwargs, sent only after a ``need``), ``cancel``,
  ``shutdown``.

The two-step ``cell``/``need`` dance is the *two-tier cache*: a worker
holding the key in its local shard answers ``hit`` without the kwargs
ever crossing the wire, so warm-fleet reruns don't serialize every
cell's parameters through one socket.  The scheduler stays the write
authority — a shard ``hit`` flows through the normal deliver path into
the authoritative :class:`~repro.campaign.store.ResultStore`.

With a shared secret (``--secret``/``$REPRO_SECRET``) every connection
is authenticated: both ends exchange HMAC hellos and every later frame
carries a MAC over a receiver-issued nonce and a monotonic sequence
number (:mod:`repro.campaign.wire`).  A peer that cannot produce valid
MACs is dropped before any of its JSON reaches :meth:`Scheduler._handle`
— unauthenticated or replayed ``result``/``hit`` frames never touch the
result path.

Placement: every cell is one process running one solver, so a worker's
advertised cores are the cells it runs at once, and each cell goes to
the registered worker with the most free slots.

Failure model: per-cell timeouts are enforced scheduler-side (the cell
is cancelled on its worker and recorded as a timeout); a worker that
disconnects or stops heartbeating has its in-flight cells **requeued**
onto the remaining fleet, so killing a worker mid-campaign loses no
cells.  Results are absorbed scheduler-side through the campaign's
shared :class:`~repro.campaign.store.ResultStore`, so a cache dir on
shared storage keeps working unchanged.

Local runs take the same path: :class:`PoolBackend` (``--jobs N``) is
this scheduler over one forked worker agent on loopback, so a pool cell
is placed, timed out, cancelled and crash-captured like a remote one.

The scheduler runs in two modes.  :meth:`Scheduler.run` is the batch
mode the :class:`DistributedBackend` uses: execute a fixed task list to
completion, then release the fleet.  :meth:`Scheduler.serve` is the
**incremental** mode behind ``repro-lock serve``
(:mod:`repro.campaign.service`): the event loop runs until stopped while
other threads feed it work through the thread-safe :meth:`submit` /
:meth:`cancel_group` doors (a submission inbox drained on the loop
thread, woken through a self-pipe).  Which queued task is placed next is
a pluggable *queue policy* — the default :class:`FifoTaskQueue`
preserves the historical strict-FIFO order; the service installs a
multi-tenant fair-share policy
(:class:`repro.campaign.service.fairshare.FairShareQueue`).
"""

from __future__ import annotations

import collections
import io
import multiprocessing
import os
import secrets
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.campaign.backends import (
    DEFAULT_BIND,
    ExecutorBackend,
    SpecOrderReporter,
    cancelled_envelope,
    failure_envelope,
    kill_process,
    shard_hit_envelope,
    timeout_envelope,
)
from repro.campaign.wire import (
    MessageBuffer,
    WireAuth,
    WireSession,
    disable_nagle,
    format_address,
    parse_hostport,
    resolve_secret,
    send_message,
)
from repro.errors import CampaignError

#: Interval (seconds) the welcome message asks workers to heartbeat at.
HEARTBEAT_INTERVAL = 2.0

#: Default multiple of silence after which a worker is declared dead.
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

#: Times one cell may be (re)placed before a lost worker fails it for
#: good — a cell that keeps killing its workers must not wipe the fleet.
MAX_ATTEMPTS = 3


def listen_socket(bind, what="scheduler"):
    """A listening TCP socket bound to ``bind`` (``(host, port)`` or a
    ``"HOST:PORT"`` string; port 0 picks a free port)."""
    if isinstance(bind, str):
        bind = parse_hostport(bind, what=f"{what} bind address")
    family = socket.AF_INET6 if ":" in str(bind[0]) else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(bind)
    except OSError as error:
        sock.close()
        raise CampaignError(
            f"cannot bind {what} to {format_address(bind)}: {error}")
    sock.listen(64)
    return sock


@dataclass
class _Task:
    """One pending cell as the scheduler sees it.

    ``group``/``tenant``/``priority`` exist for the service mode: the
    group names the submission (so one campaign can be cancelled as a
    unit), the tenant is the fair-share accounting bucket, and
    ``deliver`` overrides the run-level deliver callback so concurrent
    submissions route results to their own jobs.  ``attempts`` counts
    placements — a task that loses MAX_ATTEMPTS workers in a row is
    failed instead of requeued.
    """

    index: int
    fn: str
    kwargs: dict
    key: str
    label: str
    group: str = ""
    tenant: str = ""
    priority: int = 0
    deliver: object = None
    attempts: int = field(default=0, compare=False)


@dataclass
class _Assignment:
    """One cell in flight on a worker."""

    task: _Task
    started: float
    deadline: float


class _WorkerState:
    """Scheduler-side view of one connected worker."""

    def __init__(self, sock, address, auth=None):
        self.sock = sock
        self.address = address
        self.session = WireSession(auth)
        self.buffer = MessageBuffer(self.session)
        self.name = format_address(address)
        self.cores = 0
        self.free = 0
        self.assigned = {}
        self.last_seen = time.monotonic()
        self.registered = False

    def touch(self):
        self.last_seen = time.monotonic()


class FifoTaskQueue(collections.deque):
    """The default queue policy: strict submission order.

    The policy protocol a queue must implement for the scheduler:
    ``put`` (new work), ``pop_next`` (next placement candidate, or
    None), ``defer`` (tasks that found no worker this round, restored
    ahead of newer work in their original order), ``requeue`` (a task
    whose worker died, restored to the very front), ``remove_group``
    (cancel a submission), ``started``/``finished`` (placement
    accounting hooks, one call per cell), and ``depths`` (per-tenant
    backlog for metrics).
    """

    def put(self, task):
        self.append(task)

    def pop_next(self):
        return self.popleft() if self else None

    def defer(self, tasks):
        self.extendleft(reversed(tasks))

    def requeue(self, task):
        self.appendleft(task)

    def remove_group(self, group):
        removed = [task for task in self if task.group == group]
        if removed:
            kept = [task for task in self if task.group != group]
            self.clear()
            self.extend(kept)
        return removed

    def started(self, task):
        pass

    def finished(self, task):
        pass

    def depths(self):
        counts = {}
        for task in self:
            counts[task.tenant] = counts.get(task.tenant, 0) + 1
        return counts


class Scheduler:
    """Place tasks onto registered workers; deliver result envelopes.

    The scheduler owns an already-listening socket (so callers can learn
    the bound port before any worker starts) and runs a single-threaded
    ``selectors`` event loop — either :meth:`run` (a fixed batch, loop
    until done) or :meth:`serve` (run until stopped, accepting work
    incrementally through :meth:`submit`).  All mutation happens on the
    loop thread; :meth:`submit` and :meth:`cancel_group` are the only
    thread-safe doors and go through an inbox + waker pipe.
    """

    def __init__(self, listen_sock, *, min_workers=1,
                 heartbeat_timeout=DEFAULT_HEARTBEAT_TIMEOUT,
                 cell_timeout=None, salt="", on_event=None, queue=None,
                 auth=None):
        if min_workers < 1:
            raise CampaignError(
                f"min_workers must be >= 1, got {min_workers}")
        self._listen = listen_sock
        self.min_workers = min_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.cell_timeout = cell_timeout
        self.salt = salt
        self._auth = auth
        self._on_event = on_event
        #: Tiered-cache traffic counters (loop thread only): how many
        #: cells actually shipped their kwargs (a ``need`` answered with
        #: a ``job``) vs. were answered from a worker's local shard.
        self.kwargs_frames = 0
        self.shard_hits = 0
        self._workers = {}          # sock -> _WorkerState
        self._queue = queue if queue is not None else FifoTaskQueue()
        self._next_id = 0
        self._sel = None
        self._deliver = None
        self._outstanding = 0
        self._dispatching = False
        self._inbox = collections.deque()
        self._inbox_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        #: Loop-published snapshot of fleet/queue state (atomically
        #: replaced each tick) — safe to read from any thread.
        self.stats_snapshot = {"workers": [], "queued": 0,
                               "queue_depths": {}, "outstanding": 0,
                               "dispatching": False}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, tasks, deliver, fleet_lost=None):
        """Execute every task; calls ``deliver(index, envelope)`` once
        per task (in completion order — the caller re-orders).

        ``fleet_lost()``, asked once per tick, returns why no worker
        will ever come (then every task left fails with ``WorkerLost``)
        or None; without it, ``run`` waits for workers indefinitely.
        """
        self._deliver = deliver
        self._setup()
        for task in tasks:
            self._admit(task)
        self._event(
            f"scheduler on {format_address(self._listen.getsockname())}: "
            f"{self._outstanding} cells queued, waiting for "
            f"{self.min_workers} worker(s)")
        try:
            while self._outstanding:
                # Asked before the tick: whatever a dead fleet shipped
                # is already buffered, so the tick still reads it.
                lost = fleet_lost() if fleet_lost is not None else None
                self._tick()
                if lost is not None:
                    self._abandon(lost)
        finally:
            self._close_all()

    def serve(self, stop=None):
        """Run the event loop until ``stop`` (a ``threading.Event``) is
        set, accepting work incrementally through :meth:`submit`."""
        if stop is not None:
            self._stop_event = stop
        self._setup()
        self._event(
            f"scheduler serving on "
            f"{format_address(self._listen.getsockname())}")
        try:
            while not self._stop_event.is_set():
                self._tick()
        finally:
            self._close_all()

    def stop(self):
        """Ask a :meth:`serve` loop to exit (thread-safe)."""
        self._stop_event.set()
        self._wake()

    # ------------------------------------------------------------------
    # Thread-safe submission doors
    # ------------------------------------------------------------------
    def submit(self, tasks):
        """Enqueue tasks from any thread; each should carry its own
        ``deliver`` callback (service mode)."""
        with self._inbox_lock:
            self._inbox.append(("submit", list(tasks)))
        self._wake()

    def cancel_group(self, group):
        """Cancel every queued and in-flight task of ``group`` (their
        deliver callbacks receive cancelled envelopes); thread-safe."""
        with self._inbox_lock:
            self._inbox.append(("cancel", group))
        self._wake()

    def _wake(self):
        try:
            self._waker_w.send(b"x")
        except (BlockingIOError, OSError):
            pass  # pipe full (already pending) or scheduler closed

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _setup(self):
        self._dispatching = False
        self._sel = selectors.DefaultSelector()
        self._listen.setblocking(False)
        self._sel.register(self._listen, selectors.EVENT_READ, "listen")
        self._sel.register(self._waker_r, selectors.EVENT_READ, "wake")

    def _tick(self):
        for key, _ in self._sel.select(timeout=self._poll_timeout()):
            if key.data == "listen":
                self._accept()
            elif key.data == "wake":
                self._drain_waker()
            else:
                self._service(self._workers[key.fileobj])
        self._drain_inbox()
        self._reap_stale()
        self._enforce_timeouts()
        self._maybe_dispatch()
        self._publish_stats()

    def _drain_waker(self):
        try:
            while self._waker_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _drain_inbox(self):
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                action, payload = self._inbox.popleft()
            if action == "submit":
                for task in payload:
                    self._admit(task)
            elif action == "cancel":
                self._cancel_group_now(payload)

    def _admit(self, task):
        self._outstanding += 1
        self._queue.put(task)

    def _abandon(self, reason):
        """Fail every queued and in-flight task: no worker will come."""
        for worker in list(self._workers.values()):
            self._drop(worker, reason)  # requeues its in-flight cells
        while (task := self._queue.pop_next()) is not None:
            self._finish(task, failure_envelope(0.0, "WorkerLost", reason))

    def _cancel_group_now(self, group):
        cancelled = 0
        for task in self._queue.remove_group(group):
            cancelled += 1
            self._finish(task, cancelled_envelope(0.0))
        now = time.monotonic()
        cancelled += self._cancel_in_flight(
            lambda item: item.task.group == group,
            lambda item: cancelled_envelope(now - item.started))
        if cancelled:
            self._event(f"group {group}: {cancelled} cells cancelled")

    def _cancel_in_flight(self, doomed, envelope):
        """Cancel every in-flight cell ``doomed(item)`` picks, on its
        worker, and deliver ``envelope(item)`` for it; returns how many."""
        cancelled = 0
        for worker in list(self._workers.values()):
            for cell_id, item in list(worker.assigned.items()):
                if not doomed(item) \
                        or worker.assigned.pop(cell_id, None) is None:
                    continue  # spared, or its worker dropped mid-sweep
                worker.free += 1
                self._queue.finished(item.task)
                alive = self._send(worker, {"type": "cancel", "id": cell_id})
                # Delivered even if the send just dropped the worker: the
                # drop requeued only the cells still assigned.
                cancelled += 1
                self._finish(item.task, envelope(item))
                if not alive:
                    break
        return cancelled

    def _publish_stats(self):
        now = time.monotonic()
        self.stats_snapshot = {
            "workers": [
                {"name": worker.name, "cores": worker.cores,
                 "free": worker.free, "in_flight": len(worker.assigned),
                 "last_seen_age": max(0.0, now - worker.last_seen)}
                for worker in self._workers.values() if worker.registered
            ],
            "queued": len(self._queue),
            "queue_depths": dict(self._queue.depths()),
            "outstanding": self._outstanding,
            "dispatching": self._dispatching,
            "kwargs_frames": self.kwargs_frames,
            "shard_hits": self.shard_hits,
        }

    # ------------------------------------------------------------------
    def _event(self, message):
        if self._on_event is not None:
            self._on_event(message)

    def _poll_timeout(self):
        timeout = 0.5
        if self.cell_timeout is not None:
            now = time.monotonic()
            for worker in self._workers.values():
                for item in worker.assigned.values():
                    timeout = min(timeout, max(0.0, item.deadline - now))
        return timeout

    def _accept(self):
        try:
            sock, address = self._listen.accept()
        except OSError:  # pragma: no cover - accept raced a reset
            return
        sock.setblocking(True)
        disable_nagle(sock)
        worker = _WorkerState(sock, address, self._auth)
        self._workers[sock] = worker
        self._sel.register(sock, selectors.EVENT_READ, "worker")
        if worker.session.enabled:
            # Issue our nonce immediately; the peer cannot get a single
            # frame past the MessageBuffer without MACing against it.
            self._send(worker, worker.session.hello())

    def _service(self, worker):
        try:
            data = worker.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._drop(worker, "connection closed")
            return
        worker.touch()
        try:
            messages = worker.buffer.feed(data)
        except CampaignError as error:
            self._drop(worker, str(error))
            return
        for message in messages:
            self._handle(worker, message)

    def _handle(self, worker, message):
        kind = message.get("type")
        if kind == "register":
            worker.cores = max(1, int(message.get("cores") or 1))
            worker.free = worker.cores
            worker.name = str(message.get("name") or worker.name)
            worker.registered = True
            self._event(f"worker {worker.name} joined "
                        f"({worker.cores} cores)")
            self._send(worker, {"type": "welcome",
                                "heartbeat": HEARTBEAT_INTERVAL})
        elif kind == "result":
            item = worker.assigned.pop(message.get("id"), None)
            if item is None:
                # Late result for a cell already timed out, cancelled,
                # or requeued after this worker was presumed dead.
                return
            worker.free += 1
            self._queue.finished(item.task)
            self._finish(item.task, message.get("envelope"))
        elif kind == "need":
            # The worker's shard had no entry for the probe — ship the
            # actual job (fn + kwargs). This is the only frame that ever
            # carries cell kwargs.
            item = worker.assigned.get(message.get("id"))
            if item is None:
                return
            self.kwargs_frames += 1
            self._send(worker, {"type": "job", "id": message.get("id"),
                                "fn": item.task.fn,
                                "kwargs": item.task.kwargs,
                                "salt": self.salt})
        elif kind == "hit":
            cell_id = message.get("id")
            item = worker.assigned.get(cell_id)
            if item is None:
                return
            value = message.get("value")
            if value is None or message.get("key") != item.task.key:
                # Unusable shard answer (stale key or the None miss
                # sentinel) — fall back to shipping the job.
                self.kwargs_frames += 1
                self._send(worker, {"type": "job", "id": cell_id,
                                    "fn": item.task.fn,
                                    "kwargs": item.task.kwargs,
                                    "salt": self.salt})
                return
            worker.assigned.pop(cell_id, None)
            worker.free += 1
            self._queue.finished(item.task)
            self.shard_hits += 1
            # Flows through the normal deliver path, so the scheduler's
            # authoritative store absorbs the value as usual.
            self._finish(item.task, shard_hit_envelope(value))
        elif kind == "heartbeat":
            pass  # the recv itself refreshed last_seen
        else:
            self._event(f"worker {worker.name}: ignoring unknown "
                        f"message type {kind!r}")

    def _finish(self, task, envelope):
        if not isinstance(envelope, dict) or "ok" not in envelope:
            envelope = failure_envelope(
                0.0, "CampaignError",
                f"worker returned a malformed envelope for {task.label}")
        self._outstanding -= 1
        deliver = task.deliver if task.deliver is not None else self._deliver
        deliver(task.index, envelope)

    def _send(self, worker, message):
        try:
            send_message(worker.sock, message, session=worker.session)
            return True
        except OSError:
            self._drop(worker, "send failed")
            return False
        except CampaignError as error:
            # Signing impossible: the peer never completed the auth
            # handshake — it has no business holding a connection.
            self._drop(worker, str(error))
            return False

    def _drop(self, worker, reason):
        if worker.sock not in self._workers:
            return
        del self._workers[worker.sock]
        try:
            self._sel.unregister(worker.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover
            pass
        in_flight = list(worker.assigned.values())
        worker.assigned.clear()
        for item in in_flight:
            self._queue.finished(item.task)
        # Requeue ahead of untouched work: these cells were already
        # scheduled once and spec-order consumers are waiting on them.
        # A cell that has burned through MAX_ATTEMPTS workers is almost
        # certainly *killing* them (e.g. an unshippable result) — fail
        # it instead of letting it wipe the fleet and hang the campaign.
        requeued = 0
        for item in reversed(in_flight):
            task = item.task
            if task.attempts >= MAX_ATTEMPTS:
                self._finish(task, failure_envelope(
                    0.0, "WorkerLost",
                    f"cell lost its worker {MAX_ATTEMPTS} times in a row "
                    f"(last: {reason}); not requeueing it again"))
            else:
                self._queue.requeue(task)
                requeued += 1
        suffix = f", {requeued} cells requeued" if requeued else ""
        self._event(f"worker {worker.name} lost ({reason}){suffix}")

    def _reap_stale(self):
        horizon = time.monotonic() - self.heartbeat_timeout
        for worker in list(self._workers.values()):
            if worker.last_seen < horizon:
                self._drop(worker, "heartbeat timeout")

    def _enforce_timeouts(self):
        if self.cell_timeout is None:
            return
        now = time.monotonic()
        self._cancel_in_flight(
            lambda item: now >= item.deadline,
            lambda item: timeout_envelope(now - item.started,
                                          self.cell_timeout))

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _maybe_dispatch(self):
        if not self._dispatching:
            registered = sum(1 for w in self._workers.values()
                             if w.registered)
            if registered < self.min_workers:
                return
            self._dispatching = True
            self._event(f"{registered} worker(s) registered, dispatching")
        self._place()

    def _place(self):
        deferred = []
        while True:
            task = self._queue.pop_next()
            if task is None:
                break
            worker = self._pick_worker()
            if worker is None or not self._dispatch(worker, task):
                deferred.append(task)
        if deferred:
            self._queue.defer(deferred)

    def _pick_worker(self):
        """The registered worker with the most free slots, or None when
        every slot is taken."""
        best = None
        for worker in self._workers.values():
            if worker.registered and worker.free > 0 and (
                    best is None or worker.free > best.free):
                best = worker
        return best

    def _dispatch(self, worker, task):
        cell_id = self._next_id
        self._next_id += 1
        task.attempts += 1
        # The probe is key-only: kwargs ship later, and only if the
        # worker's shard cannot answer the key (`need` -> `job`).
        sent = self._send(worker, {
            "type": "cell",
            "id": cell_id,
            "key": task.key,
            "label": task.label,
        })
        if not sent:
            return False
        now = time.monotonic()
        deadline = float("inf") if self.cell_timeout is None \
            else now + self.cell_timeout
        worker.assigned[cell_id] = _Assignment(
            task=task, started=now, deadline=deadline)
        worker.free -= 1
        self._queue.started(task)
        return True

    def _close_all(self):
        for worker in list(self._workers.values()):
            try:
                send_message(worker.sock, {"type": "shutdown"},
                             timeout=2.0, session=worker.session)
            except (OSError, CampaignError):
                pass  # gone, or never finished the auth handshake
            try:
                self._sel.unregister(worker.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover
                pass
        self._workers.clear()
        for sock in (self._listen, self._waker_r):
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
        for sock in (self._waker_r, self._waker_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sel.close()


class DistributedBackend(ExecutorBackend):
    """Campaign execution across remote ``repro-lock worker`` agents.

    The backend binds ``bind`` lazily (``"host:0"`` picks an ephemeral
    port — read :attr:`address` to learn it) and keeps listening across
    ``execute`` calls, so a warm rerun on the same campaign reuses the
    endpoint.  ``min_workers`` holds dispatch until that many workers
    registered; workers joining later still receive work.
    """

    name = "distributed"
    enforces_timeout = True

    def __init__(self, bind=DEFAULT_BIND, min_workers=1,
                 heartbeat_timeout=DEFAULT_HEARTBEAT_TIMEOUT, on_event=None,
                 secret=None):
        self._bind = parse_hostport(bind, what="scheduler bind address")
        self.min_workers = min_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.on_event = on_event
        secret = resolve_secret(secret)
        self.auth = WireAuth(secret) if secret else None
        self._listen = None
        #: Tiered-cache counters from the most recent ``execute`` call
        #: ({"kwargs_frames", "shard_hits", "cells"}).
        self.last_run_stats = None

    @property
    def address(self):
        """The bound ``(host, port)``; binds the socket on first use."""
        return self._ensure_listening().getsockname()[:2]

    def _ensure_listening(self):
        if self._listen is None:
            self._listen = listen_socket(self._bind)
        return self._listen

    def execute(self, campaign, specs, keys, pending, results,
                fleet_lost=None):
        reporter = SpecOrderReporter(campaign, results)
        reporter.flush()
        tasks = [
            _Task(index=index, fn=specs[index].fn,
                  kwargs=specs[index].kwargs(), key=keys[index],
                  label=specs[index].describe())
            for index in pending
        ]
        scheduler = Scheduler(
            self._ensure_listening(), min_workers=self.min_workers,
            heartbeat_timeout=self.heartbeat_timeout,
            cell_timeout=campaign.cell_timeout, salt=campaign.salt,
            on_event=self.on_event, auth=self.auth)

        def deliver(index, envelope):
            results[index] = campaign.absorb(specs[index], keys[index],
                                             envelope)
            reporter.flush()

        try:
            scheduler.run(tasks, deliver, fleet_lost=fleet_lost)
        finally:
            self.last_run_stats = {
                "cells": len(tasks),
                "kwargs_frames": scheduler.kwargs_frames,
                "shard_hits": scheduler.shard_hits,
            }

    def close(self):
        """Stop listening (idempotent)."""
        if self._listen is not None:
            self._listen.close()
            self._listen = None


def _pool_agent(connect, cores, secret):
    """The pool's worker agent: a quiet :func:`run_worker` whose exit
    code is its return code."""
    from repro.campaign.worker import SHARD_ENV, run_worker  # agents only

    # Pool cells are computed, never answered from the worker shard that
    # ``$REPRO_WORKER_SHARD`` names for a fleet agent.
    os.environ.pop(SHARD_ENV, None)
    try:
        code = run_worker(connect, cores=cores, secret=secret,
                          out=io.StringIO())
    except KeyboardInterrupt:
        code = 1  # Ctrl-C is for the campaign process to report
    raise SystemExit(code)


class PoolBackend(DistributedBackend):
    """``jobs`` cells at a time on this host: each ``execute`` binds
    ``127.0.0.1:0``, forks one worker agent advertising
    ``min(jobs, pending)`` cores, runs the batch, joins the agent and
    closes the port (an all-hits campaign opens no socket).  A loopback
    port is not private, so every frame is MACed with the backend's own
    random secret (never ``$REPRO_SECRET``), handed to the agent as a
    process argument.  If the agent exits, the cells it left fail with
    ``WorkerLost``.
    """

    name = "pool"

    def __init__(self, jobs=2):
        if jobs < 1:
            raise CampaignError(f"pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._secret = secrets.token_hex(32)
        super().__init__(bind="127.0.0.1:0", secret=self._secret)

    def execute(self, campaign, specs, keys, pending, results):
        agent = multiprocessing.Process(
            target=_pool_agent, args=(format_address(self.address),
                                      min(self.jobs, len(pending)),
                                      self._secret))
        agent.start()

        def agent_lost():  # None while the agent lives
            if not agent.is_alive():
                return (f"the pool's worker agent (pid {agent.pid}) "
                        f"exited with code {agent.exitcode}")

        try:
            super().execute(campaign, specs, keys, pending, results,
                            fleet_lost=agent_lost)
        finally:
            agent.join(timeout=5)
            if agent.is_alive():
                kill_process(agent)
            self.close()
