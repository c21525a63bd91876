"""Campaign worker agent: execute cells for a remote scheduler.

``repro-lock worker --connect HOST:PORT --cores N`` connects to a
:class:`~repro.campaign.scheduler.Scheduler`, advertises ``N`` cores of
capacity, and then executes every cell it is handed — each in its own
subprocess through the shared failure-capture semantics of
:func:`repro.campaign.backends._execute_cell` — streaming the result
envelopes back (woken by the socket, a cell's pipe or a cell's exit,
so a finished cell ships at once) and heartbeating in between.
``cancel`` kills the named cell's subprocess (the scheduler already
recorded the timeout).  A ``shutdown`` (after draining any
finished-but-unshipped results), the scheduler's socket closing, or
SIGTERM on a main thread ends the agent and kills its running cells.
The pool backend (``--jobs N``) forks one such agent on loopback.

Placement is a two-step probe: a ``cell`` frame carries only the cache
key.  A worker given ``--shard-dir`` (or ``$REPRO_WORKER_SHARD``) opens
a local read-through :class:`~repro.campaign.store.ResultStore` shard —
if the key is already in the shard it answers ``hit`` with the cached
value and the cell's kwargs never cross the wire; otherwise it answers
``need`` and the scheduler ships the actual ``job`` (fn + kwargs).
Every locally-computed result is also written into the shard, so a
warm-fleet rerun is answered entirely at the edge.  The scheduler
remains the write authority for the campaign's shared store.

The scheduler never assigns a worker more cells at once than the cores
it advertised (each cell is one process running one solver), so the
agent runs whatever it is told without further admission control.

With a shared secret (``--secret``/``$REPRO_SECRET``) the agent opens
the connection with an HMAC hello and MACs every frame; a scheduler
that cannot authenticate is a lost link, never a work source.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from multiprocessing.connection import wait

from repro.campaign.backends import (
    _execute_cell,
    failure_envelope,
    host_cores,
    kill_process,
    resolve_cell_fn,
)
from repro.campaign.model import CellSpec
from repro.campaign.store import ResultStore
from repro.campaign.wire import (
    MessageBuffer,
    WireAuth,
    WireSession,
    connect_with_retry,
    parse_hostport,
    resolve_secret,
    send_message,
)
from repro.errors import CampaignError

#: How long to wait for the scheduler's auth hello before giving up.
_HANDSHAKE_SECONDS = 10.0

#: Environment fallback for ``--shard-dir`` (the worker-local
#: read-through cache shard).
SHARD_ENV = "REPRO_WORKER_SHARD"


def _cell_main(conn, fn_path, kwargs):
    """Cell subprocess: execute, ship the envelope."""
    # A cancelled cell dies at once, not through the agent's handler.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        envelope = _execute_cell(fn_path, kwargs)
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        return
    try:
        conn.send(envelope)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass
    finally:
        conn.close()


class _RunningCell:
    """One in-flight cell: its subprocess plus the result pipe."""

    def __init__(self, fn_path, kwargs, key=None, label=""):
        self.fn_path = fn_path
        self.kwargs = kwargs
        self.key = key
        self.label = label
        # Import the cell's module here, once per agent, so the fork
        # inherits it. An import that fails is left for the cell's own
        # process to fail again, as that cell's error envelope.
        try:
            resolve_cell_fn(fn_path)
        except Exception:  # noqa: BLE001 - reported by the cell
            pass
        self.conn, child = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(
            target=_cell_main, args=(child, fn_path, kwargs))
        self.process.start()
        child.close()
        self.started = time.monotonic()

    def kill(self):
        kill_process(self.process, self.conn)


def _handshake(sock, buffer, session):
    """Exchange auth hellos; returns messages that rode in with the
    scheduler's hello (processed by the caller's main loop)."""
    send_message(sock, session.hello(), session=session)
    deadline = time.monotonic() + _HANDSHAKE_SECONDS
    backlog = []
    while not session.ready:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise CampaignError(
                "scheduler never completed the auth handshake (is it "
                "running with the same --secret?)")
        if not wait([sock], remaining):
            continue
        data = sock.recv(65536)
        if not data:
            raise CampaignError(
                "scheduler closed the connection during the auth "
                "handshake (secret mismatch?)")
        backlog.extend(buffer.feed(data))
    return backlog


def run_worker(connect, cores=None, name=None, retry_for=10.0, out=None,
               secret=None, shard_dir=None):
    """Join the scheduler at ``connect`` and execute cells until it is
    done with us.  Returns 0 on an orderly shutdown, 1 on a lost link.
    """
    out = out if out is not None else sys.stderr
    host, port = parse_hostport(connect, what="scheduler address")
    cores = cores if cores else host_cores()
    name = name or f"{socket.gethostname()}:{os.getpid()}"

    secret = resolve_secret(secret)
    session = WireSession(WireAuth(secret) if secret else None)
    buffer = MessageBuffer(session)
    shard_dir = shard_dir or os.environ.get(SHARD_ENV) or None
    shard = ResultStore(shard_dir) if shard_dir else None

    sock = connect_with_retry(host, port, retry_for=retry_for)
    backlog = []
    try:
        if session.enabled:
            backlog = _handshake(sock, buffer, session)
        send_message(sock, {"type": "register", "cores": cores,
                            "name": name}, session=session)
    except (CampaignError, OSError) as error:
        sock.close()
        out.write(f"worker {name}: {error}\n")
        return 1
    out.write(f"worker {name}: registered {cores} cores "
              f"with {connect}"
              + (" (authenticated)" if session.enabled else "")
              + (f", shard {shard_dir}" if shard else "") + "\n")

    pending = {}
    running = {}
    heartbeat_interval = 2.0
    last_beat = time.monotonic()
    done = 0
    hits = 0
    orderly = False

    def handle(message):
        kind = message.get("type")
        if kind == "cell":
            cell_id = message["id"]
            key = message.get("key")
            value = shard.get(key) if (shard and key) else None
            if value is not None:
                nonlocal hits
                hits += 1
                send_message(sock, {"type": "hit", "id": cell_id,
                                    "key": key, "value": value},
                             session=session)
                return False
            # A key-only probe waits here for its ``job`` frame.
            pending[cell_id] = (key, message.get("label") or "")
            send_message(sock, {"type": "need", "id": cell_id},
                         session=session)
        elif kind == "job":
            cell_id = message.get("id")
            probe = pending.pop(cell_id, None)
            if probe is None:
                return False  # cancelled (or never probed) — stale job
            key, label = probe
            running[cell_id] = _RunningCell(
                message["fn"], message.get("kwargs") or {}, key=key,
                label=label)
        elif kind == "cancel":
            cell_id = message.get("id")
            if pending.pop(cell_id, None) is None:
                cell = running.pop(cell_id, None)
                if cell is not None:
                    cell.kill()
        elif kind == "welcome":
            nonlocal heartbeat_interval
            heartbeat_interval = float(
                message.get("heartbeat") or heartbeat_interval)
        elif kind == "shutdown":
            return True
        return False

    previous_sigterm = None
    if threading.current_thread() is threading.main_thread():
        previous_sigterm = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        stop = False
        for message in backlog:
            stop = handle(message) or stop
        while not stop:
            wakers = [sock]
            for cell in running.values():
                wakers += (cell.conn, cell.process.sentinel)
            next_beat = last_beat + heartbeat_interval
            if sock in wait(wakers, max(0.0, next_beat - time.monotonic())):
                data = sock.recv(65536)
                if not data:
                    break  # scheduler went away
                for message in buffer.feed(data):
                    stop = handle(message) or stop
                if stop:
                    break
            done += _pump_results(sock, running, session, shard)
            now = time.monotonic()
            if now >= next_beat:
                send_message(sock, {"type": "heartbeat"}, session=session)
                last_beat = now
        if stop:
            orderly = True
            # Orderly shutdown: drain cells that already finished (their
            # envelopes are sitting in the pipes) *before* the kill loop
            # below — otherwise completed work is silently dropped.
            done += _pump_results(sock, running, session, shard)
    except (BrokenPipeError, OSError, CampaignError):
        # OSError: the link died; CampaignError: the stream fed us an
        # unparseable, over-long, or unauthenticated frame — either way
        # the scheduler is no longer speaking our protocol, so take the
        # lost-link exit.
        pass
    finally:
        for cell in running.values():
            cell.kill()
        running.clear()
        sock.close()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    hit_note = f" ({hits} shard hits)" if hits else ""
    out.write(f"worker {name}: {done} cells executed{hit_note}, "
              f"{'shutdown' if orderly else 'link lost'}\n")
    return 0 if orderly else 1


def _exit_on_sigterm(signum, frame):
    """SIGTERM as ``SystemExit``: ``run_worker``'s ``finally`` then kills
    the running cells instead of leaving them to run on as orphans."""
    raise SystemExit(128 + signum)


def _pump_results(sock, running, session=None, shard=None):
    """Ship finished (or crashed) cells back; returns how many."""
    shipped = 0
    for cell_id, cell in list(running.items()):
        if not cell.conn.poll() and cell.process.is_alive():
            continue
        envelope = None
        # Polled again: a cell that just exited left its envelope in
        # the pipe, and a crashed one left only EOF.
        if cell.conn.poll():
            try:
                envelope = cell.conn.recv()
            except (EOFError, OSError):
                pass
        if envelope is None:
            cell.process.join(timeout=1)
            envelope = failure_envelope(
                time.monotonic() - cell.started, "WorkerCellDied",
                f"cell subprocess exited with code "
                f"{cell.process.exitcode} before returning a result")
        del running[cell_id]
        if (shard is not None and cell.key
                and isinstance(envelope, dict) and envelope.get("ok")
                and envelope.get("value") is not None):
            try:
                shard.put(cell.key,
                          CellSpec.make(cell.fn_path, cell.kwargs,
                                        label=cell.label),
                          envelope["value"],
                          elapsed=envelope.get("elapsed", 0.0))
            except (OSError, CampaignError):  # pragma: no cover
                pass  # a broken shard must never cost the result
        send_message(sock, {"type": "result", "id": cell_id,
                            "envelope": envelope}, session=session)
        cell.kill()  # reaped after shipping: the scheduler need not wait
        shipped += 1
    return shipped
