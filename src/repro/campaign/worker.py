"""Campaign worker agent: execute cells for a remote scheduler.

``repro-lock worker --connect HOST:PORT --cores N`` connects to a
:class:`~repro.campaign.scheduler.Scheduler`, advertises ``N`` cores of
capacity, and then executes every cell it is handed — each in its own
subprocess through the shared failure-capture semantics of
:func:`repro.campaign.backends._execute_cell` — streaming the result
envelopes back and heartbeating in between.  ``cancel`` kills the named
cell's subprocess (the scheduler already recorded the timeout); a
``shutdown`` — or the scheduler's socket closing — ends the agent
(after draining any finished-but-unshipped results).

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
import socket
import sys
import time

from repro.campaign.backends import (
    _execute_cell,
    failure_envelope,
    host_cores,
    kill_process,
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

#: recv timeout that paces the poll loop (socket + child pipes).
_POLL_SECONDS = 0.1

#: How long to wait for the scheduler's auth hello before giving up.
_HANDSHAKE_SECONDS = 10.0

#: Environment fallback for ``--shard-dir`` (the worker-local
#: read-through cache shard).
SHARD_ENV = "REPRO_WORKER_SHARD"


def _cell_main(conn, fn_path, kwargs):
    """Cell subprocess: execute, ship the envelope."""
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


class _PendingCell:
    """A key-only probe waiting for its ``job`` frame."""

    def __init__(self, cell_id, key, label):
        self.cell_id = cell_id
        self.key = key
        self.label = label


class _RunningCell:
    """One in-flight cell: its subprocess plus the result pipe."""

    def __init__(self, context, cell_id, fn_path, kwargs, key=None,
                 label=""):
        self.cell_id = cell_id
        self.fn_path = fn_path
        self.kwargs = kwargs
        self.key = key
        self.label = label
        self.conn, child = multiprocessing.Pipe(duplex=False)
        self.process = context.Process(
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
        if time.monotonic() >= deadline:
            raise CampaignError(
                "scheduler never completed the auth handshake (is it "
                "running with the same --secret?)")
        try:
            data = sock.recv(65536)
        except socket.timeout:
            continue
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
    context = multiprocessing.get_context()

    secret = resolve_secret(secret)
    session = WireSession(WireAuth(secret) if secret else None)
    buffer = MessageBuffer(session)
    shard_dir = shard_dir or os.environ.get(SHARD_ENV) or None
    shard = ResultStore(shard_dir) if shard_dir else None

    sock = connect_with_retry(host, port, retry_for=retry_for)
    sock.settimeout(_POLL_SECONDS)
    backlog = []
    try:
        if session.enabled:
            backlog = _handshake(sock, buffer, session)
        send_message(sock, {"type": "register", "cores": cores,
                            "name": name}, session=session)
    except (CampaignError, OSError) as error:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
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
            probe = _PendingCell(cell_id, key, message.get("label") or "")
            value = shard.get(key) if (shard and key) else None
            if value is not None:
                nonlocal hits
                hits += 1
                send_message(sock, {"type": "hit", "id": cell_id,
                                    "key": key, "value": value},
                             session=session)
                return False
            pending[cell_id] = probe
            send_message(sock, {"type": "need", "id": cell_id},
                         session=session)
        elif kind == "job":
            probe = pending.pop(message.get("id"), None)
            if probe is None:
                return False  # cancelled (or never probed) — stale job
            running[probe.cell_id] = _RunningCell(
                context, probe.cell_id, message["fn"],
                message.get("kwargs") or {}, key=probe.key,
                label=probe.label)
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

    try:
        stop = False
        for message in backlog:
            stop = handle(message) or stop
        while not stop:
            try:
                data = sock.recv(65536)
            except socket.timeout:
                data = None
            except OSError:
                break
            if data == b"":
                break  # scheduler went away
            if data:
                for message in buffer.feed(data):
                    stop = handle(message) or stop
            if stop:
                break
            done += _pump_results(sock, running, session, shard)
            now = time.monotonic()
            if now - last_beat >= heartbeat_interval:
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
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    hit_note = f" ({hits} shard hits)" if hits else ""
    out.write(f"worker {name}: {done} cells executed{hit_note}, "
              f"{'shutdown' if orderly else 'link lost'}\n")
    return 0 if orderly else 1


def _pump_results(sock, running, session=None, shard=None):
    """Ship finished (or crashed) cells back; returns how many."""
    shipped = 0
    for cell_id, cell in list(running.items()):
        envelope = None
        if cell.conn.poll():
            try:
                envelope = cell.conn.recv()
            except (EOFError, OSError):
                envelope = None
        if envelope is None and not cell.process.is_alive():
            cell.process.join(timeout=1)
            # One more look: the pipe can buffer past process exit.
            if cell.conn.poll():
                try:
                    envelope = cell.conn.recv()
                except (EOFError, OSError):
                    envelope = None
            if envelope is None:
                envelope = failure_envelope(
                    time.monotonic() - cell.started, "WorkerCellDied",
                    f"cell subprocess exited with code "
                    f"{cell.process.exitcode} before returning a result")
        if envelope is None:
            continue
        del running[cell_id]
        cell.kill()
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
        shipped += 1
    return shipped
