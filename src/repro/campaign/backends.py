"""Pluggable campaign execution backends.

A backend is the *execution policy* of a :class:`~repro.campaign.Campaign`:
given the pending cells it fills in their :class:`CellResult` slots via
``campaign.absorb`` and announces them in spec order via a
:class:`SpecOrderReporter`.  Three policies ship built in:

* :class:`InlineBackend` — cells run in this process, one after another
  (no isolation, no timeout enforcement; Ctrl-C aborts cleanly);
* :class:`DistributedBackend` (``repro.campaign.scheduler``) — a TCP
  scheduler placing cells onto remote ``repro-lock worker`` agents, one
  cell per advertised core, each cell in its own subprocess with a true
  wall-clock timeout;
* :class:`PoolBackend` (``repro.campaign.scheduler``) — the same
  scheduler over one forked worker agent on loopback, ``jobs`` cells at
  a time, so local and remote cells share one placement, timeout and
  crash-capture path.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback

from repro.errors import CampaignError

#: Default scheduler endpoint shared by `--bind` and `--connect`.
DEFAULT_BIND = "127.0.0.1:7764"


def host_cores():
    """CPUs of this host (affinity-aware): a worker agent's default
    capacity."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Cell execution primitives (shared by every backend and the remote
# worker agent)
# ----------------------------------------------------------------------
def resolve_cell_fn(path):
    """Import and return the function named by ``"module:function"``."""
    module_name, _, fn_name = path.partition(":")
    if not module_name or not fn_name:
        raise CampaignError(f"bad cell fn path {path!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, fn_name)
    except AttributeError:
        raise CampaignError(f"{module_name} has no cell function {fn_name!r}")


def kill_process(process, conn=None):
    """Terminate a cell subprocess or a pool's worker agent, escalating
    to SIGKILL, and close its pipe."""
    process.terminate()  # a no-op on a process that already exited
    process.join(timeout=5)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout=5)
    if conn is not None:
        conn.close()


def _execute_cell(fn_path, kwargs):
    """Worker-side cell execution; never raises (errors are data)."""
    start = time.perf_counter()
    try:
        fn = resolve_cell_fn(fn_path)
        # Canonicalize through JSON so a fresh value is bit-identical to
        # the same value read back from the cache on a later run.
        from repro.campaign.model import canonical_value

        value = canonical_value(fn(**kwargs))
    except (KeyboardInterrupt, SystemExit):
        # Never absorb an interrupt as a cell failure: inline campaigns
        # must stay interruptible (Ctrl-C aborts, finished cells remain
        # cached for resume).
        raise
    except BaseException as error:  # noqa: BLE001 - failure capture is the point
        return failure_envelope(
            time.perf_counter() - start, type(error).__name__, str(error),
            traceback.format_exc())
    return {"ok": True, "value": value,
            "elapsed": time.perf_counter() - start}


def failure_envelope(elapsed, error_type, message, tb=""):
    """The captured-failure form of a cell envelope."""
    return {
        "ok": False,
        "elapsed": elapsed,
        "error": {"type": error_type, "message": message, "traceback": tb},
    }


def timeout_envelope(elapsed, cell_timeout):
    """The envelope recorded for a cell that exceeded its budget."""
    return failure_envelope(
        elapsed, "TimeoutError",
        f"cell exceeded {cell_timeout}s budget")


def shard_hit_envelope(value, elapsed=0.0):
    """The envelope for a cell answered from a worker's local shard
    (the key-only probe came back ``hit``; no kwargs crossed the wire)."""
    return {"ok": True, "value": value, "elapsed": elapsed,
            "shard_hit": True}


def cancelled_envelope(elapsed):
    """The envelope recorded for a cell cancelled before completion
    (its campaign was deleted through the service API)."""
    return failure_envelope(
        elapsed, "Cancelled", "campaign cancelled before this cell completed")


class SpecOrderReporter:
    """Announce results in spec order as the filled prefix grows.

    Cell ``i`` is always reported before cell ``i+1`` even when a later
    cell finished first on another worker or host.
    """

    def __init__(self, campaign, results):
        self._campaign = campaign
        self._results = results
        self._next = 0

    def flush(self):
        total = len(self._results)
        while self._next < total and self._results[self._next] is not None:
            self._campaign.report(self._next, total,
                                  self._results[self._next])
            self._next += 1


# ----------------------------------------------------------------------
# The backend interface + registry
# ----------------------------------------------------------------------
class ExecutorBackend:
    """Execution policy: run the pending cells of a campaign.

    ``execute`` must fill ``results[index]`` for every ``index`` in
    ``pending`` (via ``campaign.absorb``) and report progress in spec
    order; it must capture every cell failure as data rather than
    raising.  ``enforces_timeout`` declares whether the policy can bound
    a running cell's wall clock (the inline backend cannot).
    """

    name = "?"
    enforces_timeout = False

    def execute(self, campaign, specs, keys, pending, results):
        raise NotImplementedError


class InlineBackend(ExecutorBackend):
    """Cells run in this process, sequentially, to completion."""

    name = "inline"
    enforces_timeout = False

    def execute(self, campaign, specs, keys, pending, results):
        reporter = SpecOrderReporter(campaign, results)
        reporter.flush()
        for index in pending:
            envelope = _execute_cell(specs[index].fn, specs[index].kwargs())
            results[index] = campaign.absorb(specs[index], keys[index],
                                             envelope)
            reporter.flush()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _make_pool(jobs):
    from repro.campaign.scheduler import PoolBackend

    return PoolBackend(max(1, jobs))


def _make_distributed(jobs):
    from repro.campaign.scheduler import DistributedBackend

    if jobs > 1:
        raise CampaignError(
            "the distributed backend takes its concurrency from the "
            "registered workers; drop jobs=N (use --workers to wait for "
            "a minimum fleet instead)")
    return DistributedBackend()


def _make_inline(jobs):
    if jobs > 1:
        raise CampaignError(
            f"backend 'inline' is single-process; it cannot honor jobs={jobs}"
            " (pick the pool backend instead)")
    return InlineBackend()


_BACKENDS = {
    "inline": _make_inline,
    "pool": _make_pool,
    "distributed": _make_distributed,
}


def backend_names():
    """The registered executor backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(backend, jobs=1):
    """The :class:`ExecutorBackend` for a ``Campaign``.

    ``backend`` may be an instance (returned as-is), a registered name,
    or ``None`` — the historical policy: inline for ``jobs=1``, a
    ``jobs``-wide pool otherwise.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        return InlineBackend() if jobs == 1 else _make_pool(jobs)
    if isinstance(backend, str):
        factory = _BACKENDS.get(backend)
        if factory is None:
            known = ", ".join(backend_names())
            raise CampaignError(
                f"unknown campaign backend {backend!r} (known: {known})")
        return factory(jobs)
    raise CampaignError(
        f"backend must be a name or an ExecutorBackend, got "
        f"{type(backend).__name__}")
