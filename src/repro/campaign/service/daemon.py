"""The campaign service core: jobs in, envelopes out.

:class:`CampaignService` owns the long-lived pieces one ``repro-lock
serve`` daemon shares across tenants:

* one :class:`~repro.campaign.scheduler.Scheduler` running its event
  loop in a background thread (workers connect exactly as they do for
  a batch ``repro-lock matrix --backend distributed`` run);
* one :class:`~repro.campaign.service.fairshare.FairShareQueue` as the
  scheduler's queue policy, so concurrent tenants interleave by core
  share instead of draining in arrival order;
* one shared :class:`~repro.campaign.store.ResultStore` — submissions
  are checked against it *before* anything ships, so a cell any tenant
  already computed is an immediate ``hit`` and a fully warm campaign
  ships zero cells to the fleet.

All job-table mutation happens under one re-entrant lock; reads build
plain JSON-safe dicts, so the HTTP layer never holds references into
live state.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from repro.campaign.model import CODE_VERSION, CellSpec
from repro.campaign.scheduler import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    Scheduler,
    _Task,
    listen_socket,
)
from repro.campaign.service.fairshare import FairShareQueue
from repro.campaign.service.jobs import (
    CELL_STATES,
    TERMINAL_STATES,
    CampaignJob,
    ServiceCounters,
)
from repro.campaign.service.metrics import MetricFamily, render_metrics
from repro.campaign.wire import WireAuth, format_address, resolve_secret
from repro.errors import CampaignError


class CampaignService:
    """Accept campaign submissions; run them on one shared fleet."""

    def __init__(self, store=None, scheduler_bind="127.0.0.1:0", *,
                 min_workers=1, heartbeat_timeout=DEFAULT_HEARTBEAT_TIMEOUT,
                 cell_timeout=None, salt=CODE_VERSION, on_event=None,
                 secret=None):
        self.store = store
        self.salt = salt
        self.secret = resolve_secret(secret)
        self._on_event = on_event
        self._lock = threading.RLock()
        self._jobs = {}
        self._order = []
        self._counters = ServiceCounters()
        self._next_job = 1
        self._entropy = os.urandom(2).hex()
        self.started_at = time.time()
        self._queue = FairShareQueue(on_started=self._cell_placed,
                                     on_finished=self._cell_unplaced)
        self._listen = listen_socket(scheduler_bind)
        self.scheduler = Scheduler(
            self._listen, min_workers=min_workers,
            heartbeat_timeout=heartbeat_timeout, cell_timeout=cell_timeout,
            salt=salt, on_event=on_event, queue=self._queue,
            auth=WireAuth(self.secret) if self.secret else None)
        self._stop = threading.Event()
        self._thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def scheduler_address(self):
        """``(host, port)`` workers should connect to."""
        return self._listen.getsockname()[:2]

    def start(self):
        """Run the scheduler loop in a background thread."""
        if self._thread is not None:
            raise CampaignError("service already started")
        self._thread = threading.Thread(
            target=self.scheduler.serve, args=(self._stop,),
            name="repro-scheduler", daemon=True)
        self._thread.start()
        return self

    def close(self):
        """Stop the scheduler loop and release the listen socket."""
        self.scheduler.stop()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        try:
            self._listen.close()
        except OSError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request):
        """Accept one campaign; returns its :class:`CampaignJob`.

        ``request`` is the POST /campaigns payload: either a gridded
        matrix (``circuits`` + ``schemes`` + ``attacks``, each entry a
        canonical-or-not spec string, plus optional ``scale``/``seed``/
        ``max_dips``/``time_budget``) or raw ``cells`` (a list of
        :meth:`CellSpec.to_wire` envelopes) for pre-expanded work.
        ``tenant`` (default ``"default"``) and integer ``priority``
        (default 0, higher wins within the tenant) shape scheduling.
        """
        if not isinstance(request, dict):
            raise CampaignError("campaign submission must be a JSON object")
        tenant = str(request.get("tenant") or "default")
        try:
            priority = int(request.get("priority") or 0)
        except (TypeError, ValueError):
            raise CampaignError(
                f"priority must be an integer, got "
                f"{request.get('priority')!r}")
        specs = self._expand(request)
        if not specs:
            raise CampaignError("campaign has no cells")
        keys = [spec.key(self.salt) for spec in specs]

        with self._lock:
            job = CampaignJob(self._new_id(), tenant, priority, specs, keys)
            self._jobs[job.id] = job
            self._order.append(job.id)
            tasks = []
            for index, (spec, key) in enumerate(zip(specs, keys)):
                value = self.store.get(key) if self.store is not None \
                    else None
                if value is not None:
                    cell = job.cells[index]
                    cell.state = "hit"
                    cell.value = value
                    self._counters.count_cell(tenant, "hit")
                    continue
                tasks.append(_Task(
                    index=index, fn=spec.fn, kwargs=spec.kwargs(), key=key,
                    label=spec.describe(),
                    group=job.id, tenant=tenant, priority=priority,
                    deliver=functools.partial(self._deliver, job.id)))
            job.shipped = len(tasks)
            self._counters.shipped_total += len(tasks)
            if job.done:
                job.finished_at = time.time()
        if tasks:
            self.scheduler.submit(tasks)
        self._event(f"campaign {job.id} ({tenant}): {len(specs)} cells, "
                    f"{len(specs) - len(tasks)} warm hits, "
                    f"{len(tasks)} shipped")
        return job

    def _expand(self, request):
        if "cells" in request:
            cells = request["cells"]
            if not isinstance(cells, list):
                raise CampaignError("'cells' must be a list of cell "
                                    "envelopes")
            return [CellSpec.from_wire(payload) for payload in cells]
        missing = [key for key in ("circuits", "schemes", "attacks")
                   if not request.get(key)]
        if missing:
            raise CampaignError(
                "campaign submission needs either 'cells' or a matrix "
                f"('circuits' + 'schemes' + 'attacks'; missing: "
                f"{', '.join(missing)})")
        from repro.api.cells import matrix_cells

        def listed(key):
            value = request[key]
            return [value] if isinstance(value, str) else list(value)

        return matrix_cells(
            listed("circuits"), listed("schemes"), listed("attacks"),
            scale=float(request.get("scale") or 1.0),
            seed=int(request.get("seed") or 0),
            max_dips=request.get("max_dips"),
            time_budget=request.get("time_budget"))

    def _new_id(self):
        job_id = f"c{self._next_job:04d}-{self._entropy}"
        self._next_job += 1
        return job_id

    # ------------------------------------------------------------------
    # Scheduler-side callbacks (event-loop thread)
    # ------------------------------------------------------------------
    def _cell_placed(self, task):
        with self._lock:
            job = self._jobs.get(task.group)
            if job is None:
                return
            cell = job.cells[task.index]
            if cell.state not in TERMINAL_STATES:
                cell.state = "running"

    def _cell_unplaced(self, task):
        # Fires when a placement ends for any reason; a result/timeout/
        # cancel envelope follows through _deliver and overwrites this.
        # When no envelope follows (the worker died and the cell was
        # requeued) the cell is genuinely queued again.
        with self._lock:
            job = self._jobs.get(task.group)
            if job is None:
                return
            cell = job.cells[task.index]
            if cell.state == "running":
                cell.state = "queued"

    def _deliver(self, job_id, index, envelope):
        elapsed = float(envelope.get("elapsed") or 0.0)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            cell = job.cells[index]
            if cell.state in TERMINAL_STATES:
                return  # e.g. a straggler result after cancellation
            cell.elapsed = elapsed
            if envelope.get("ok"):
                cell.state = "done"
                cell.value = envelope.get("value")
                if self.store is not None:
                    try:
                        self.store.put(cell.key, cell.spec, cell.value,
                                       elapsed=elapsed)
                    except CampaignError as error:
                        self._event(f"campaign {job_id}: cache write "
                                    f"failed: {error}")
            else:
                error = envelope.get("error") or {}
                cell.error = error
                cell.state = {
                    "TimeoutError": "timeout",
                    "Cancelled": "cancelled",
                }.get(error.get("type"), "failed")
            self._counters.count_cell(job.tenant, cell.state, elapsed)
            if job.done and job.finished_at is None:
                job.finished_at = time.time()
                self._event(f"campaign {job_id} ({job.tenant}) finished: "
                            f"{job.counts()}")

    # ------------------------------------------------------------------
    # Queries (HTTP threads)
    # ------------------------------------------------------------------
    def _get(self, job_id):
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def job_summary(self, job_id):
        with self._lock:
            return self._get(job_id).summary()

    def job_detail(self, job_id):
        with self._lock:
            return self._get(job_id).detail()

    def job_results(self, job_id):
        with self._lock:
            return self._get(job_id).results()

    def list_jobs(self):
        with self._lock:
            return [self._jobs[job_id].summary() for job_id in self._order]

    def cancel(self, job_id):
        """Cancel a campaign: queued cells are cancelled immediately,
        in-flight cells are killed on their workers and their cores
        freed.  Idempotent; cancelling a finished campaign is a no-op."""
        with self._lock:
            job = self._get(job_id)
            already_done = job.done
            job.cancelled = job.cancelled or not already_done
        if not already_done:
            self.scheduler.cancel_group(job_id)
        return self.job_summary(job_id)

    def info(self):
        snapshot = self.scheduler.stats_snapshot
        with self._lock:
            jobs = len(self._jobs)
        return {
            "service": "repro-lock serve",
            "scheduler": format_address(self.scheduler_address),
            "uptime": round(time.time() - self.started_at, 3),
            "campaigns": jobs,
            "workers": len(snapshot["workers"]),
            "queued": snapshot["queued"],
            "cache_dir": getattr(self.store, "cache_dir", None),
            "cache": self.store.stats.as_dict()
                     if self.store is not None else None,
        }

    # ------------------------------------------------------------------
    # /metrics
    # ------------------------------------------------------------------
    def metrics_text(self):
        """The Prometheus exposition payload for one scrape."""
        snapshot = self.scheduler.stats_snapshot
        uptime = MetricFamily(
            "repro_uptime_seconds", "gauge",
            "Seconds since the serve daemon started.")
        uptime.add(time.time() - self.started_at)

        campaigns = MetricFamily(
            "repro_campaigns", "gauge",
            "Campaigns in the job table by lifecycle status.")
        cells_total = MetricFamily(
            "repro_cells_total", "counter",
            "Cells that reached a terminal state, by tenant and state.")
        cell_seconds = MetricFamily(
            "repro_cell_seconds_total", "counter",
            "Cell wall-clock seconds accumulated per tenant.")
        running = MetricFamily(
            "repro_running_cells", "gauge",
            "Cells currently placed on workers, per tenant.")
        with self._lock:
            by_status = {}
            running_by_tenant = {}
            for job in self._jobs.values():
                by_status[job.status()] = by_status.get(job.status(), 0) + 1
                for cell in job.cells:
                    if cell.state == "running":
                        running_by_tenant[job.tenant] = \
                            running_by_tenant.get(job.tenant, 0) + 1
            for status in ("queued", "running", "done", "cancelled"):
                campaigns.add(by_status.get(status, 0), status=status)
            for (tenant, state), count in \
                    sorted(self._counters.cells_total.items()):
                cells_total.add(count, tenant=tenant, state=state)
            for tenant, seconds in sorted(self._counters.cell_seconds.items()):
                cell_seconds.add(seconds, tenant=tenant)
            for tenant, count in sorted(running_by_tenant.items()):
                running.add(count, tenant=tenant)
            shipped = self._counters.shipped_total

        queue_depth = MetricFamily(
            "repro_queue_depth", "gauge",
            "Cells waiting for placement, per tenant.")
        for tenant, depth in sorted(snapshot["queue_depths"].items()):
            queue_depth.add(depth, tenant=tenant or "default")

        shipped_total = MetricFamily(
            "repro_cells_shipped_total", "counter",
            "Cells handed to the worker fleet (cache hits never ship).")
        shipped_total.add(shipped)

        shard_hits = MetricFamily(
            "repro_shard_hits_total", "counter",
            "Cells answered from a worker-local shard (key-only probe).")
        shard_hits.add(snapshot.get("shard_hits", 0))
        kwargs_frames = MetricFamily(
            "repro_kwargs_frames_total", "counter",
            "Cells whose kwargs actually crossed the wire (need -> job).")
        kwargs_frames.add(snapshot.get("kwargs_frames", 0))

        workers = MetricFamily(
            "repro_workers_connected", "gauge",
            "Registered workers currently connected.")
        workers.add(len(snapshot["workers"]))
        worker_cores = MetricFamily(
            "repro_worker_cores", "gauge",
            "Advertised core capacity per worker.")
        worker_free = MetricFamily(
            "repro_worker_cores_free", "gauge",
            "Unoccupied cores per worker.")
        worker_seen = MetricFamily(
            "repro_worker_last_seen_seconds", "gauge",
            "Seconds since each worker was last heard from.")
        total_cores = 0
        busy_cores = 0
        for worker in snapshot["workers"]:
            worker_cores.add(worker["cores"], worker=worker["name"])
            worker_free.add(worker["free"], worker=worker["name"])
            worker_seen.add(round(worker["last_seen_age"], 3),
                            worker=worker["name"])
            total_cores += worker["cores"]
            busy_cores += worker["cores"] - worker["free"]
        utilization = MetricFamily(
            "repro_placement_utilization", "gauge",
            "Fraction of fleet cores currently occupied by placements.")
        utilization.add(busy_cores / total_cores if total_cores else 0.0)

        families = [uptime, campaigns, queue_depth, running, cells_total,
                    cell_seconds, shipped_total, shard_hits, kwargs_frames,
                    workers, worker_cores, worker_free, worker_seen,
                    utilization]
        if self.store is not None:
            cache_ops = MetricFamily(
                "repro_cache_ops_total", "counter",
                "Shared result-store traffic by operation.")
            for op, count in sorted(self.store.stats.as_dict().items()):
                cache_ops.add(count, op=op)
            hit_rate = MetricFamily(
                "repro_cache_hit_rate", "gauge",
                "Fraction of store lookups served from the cache.")
            hit_rate.add(round(self.store.stats.hit_rate(), 6))
            families.extend([cache_ops, hit_rate])
        return render_metrics(families)

    # ------------------------------------------------------------------
    def _event(self, message):
        if self._on_event is not None:
            self._on_event(message)


#: Stable label order exported for tests / clients.
CELL_STATE_ORDER = CELL_STATES
