"""Multi-tenant fair-share queue policy for the campaign scheduler.

The policy implements the scheduler's queue protocol (see
:class:`repro.campaign.scheduler.FifoTaskQueue`) but keeps one priority
heap **per tenant** and, on every placement, serves the tenant currently
holding the *fewest running cells* — classic max-min fair share over the
fleet's slots, where every cell takes one core.  Two tenants submitting
overlapping campaigns therefore interleave from the first free core
instead of draining in arrival order.

Within one tenant, higher ``priority`` wins; ties preserve submission
order.  Requeued cells (their worker died) and deferred cells (no
worker had room this round) return to the *front* of their tenant's
heap so spec-order consumers are not stalled behind newer work.

The queue is **not** thread-safe by design: the scheduler calls it from
the event-loop thread only (cross-thread submissions go through the
scheduler's inbox).  ``on_started``/``on_finished`` callbacks let the
service mirror placement transitions into its job table.
"""

from __future__ import annotations

import heapq
import itertools


class FairShareQueue:
    """Per-tenant priority heaps drained in fair-share order."""

    def __init__(self, on_started=None, on_finished=None):
        self._heaps = {}     # tenant -> [( -priority, seq, task ), ...]
        self._running = {}   # tenant -> cells currently placed
        self._served = {}    # tenant -> tick of its last placement
        self._seq = itertools.count(1)       # arrival order (back)
        self._front = itertools.count(-1, -1)  # requeue order (front)
        self._tick = itertools.count(1)
        self.on_started = on_started
        self.on_finished = on_finished

    # ------------------------------------------------------------------
    # Queue protocol
    # ------------------------------------------------------------------
    def put(self, task):
        self._push(task, next(self._seq))

    def requeue(self, task):
        self._push(task, next(self._front))

    def defer(self, tasks):
        # Restore ahead of newer work, preserving this round's order:
        # the counter decreases, so pushing back-to-front leaves
        # tasks[0] with the smallest seq (served first).
        for task in reversed(tasks):
            self._push(task, next(self._front))

    def pop_next(self):
        tenant = self._pick_tenant()
        if tenant is None:
            return None
        heap = self._heaps[tenant]
        _, _, task = heapq.heappop(heap)
        if not heap:
            del self._heaps[tenant]
        self._served[tenant] = next(self._tick)
        return task

    def remove_group(self, group):
        removed = []
        for tenant in list(self._heaps):
            heap = self._heaps[tenant]
            kept = [item for item in heap if item[2].group != group]
            if len(kept) == len(heap):
                continue
            removed.extend(item[2] for item in sorted(heap)
                           if item[2].group == group)
            if kept:
                heapq.heapify(kept)
                self._heaps[tenant] = kept
            else:
                del self._heaps[tenant]
            self._prune(tenant)
        return removed

    def started(self, task):
        self._running[task.tenant] = self._running.get(task.tenant, 0) + 1
        if self.on_started is not None:
            self.on_started(task)

    def finished(self, task):
        left = self._running.get(task.tenant, 0) - 1
        if left > 0:
            self._running[task.tenant] = left
        else:
            self._running.pop(task.tenant, None)
        self._prune(task.tenant)
        if self.on_finished is not None:
            self.on_finished(task)

    def depths(self):
        return {tenant: len(heap) for tenant, heap in self._heaps.items()}

    def running_cores(self):
        """Cells (one core each) currently placed per tenant."""
        return dict(self._running)

    def __len__(self):
        return sum(len(heap) for heap in self._heaps.values())

    def __iter__(self):
        for heap in self._heaps.values():
            for item in sorted(heap):
                yield item[2]

    # ------------------------------------------------------------------
    def _prune(self, tenant):
        """Forget a tenant with no queued and no running work.

        A long-lived daemon sees tenants come and go; without pruning,
        ``_served`` (and ``_running`` on cancel paths) accumulate one
        entry per tenant *ever seen*.  Dropping the bookkeeping resets
        the tenant's fairness history, which is exactly right: an idle
        tenant returning later competes as a newcomer.
        """
        if tenant in self._heaps or self._running.get(tenant):
            return
        self._running.pop(tenant, None)
        self._served.pop(tenant, None)

    def _push(self, task, seq):
        heap = self._heaps.setdefault(task.tenant, [])
        heapq.heappush(heap, (-int(task.priority), seq, task))

    def _pick_tenant(self):
        """The queued tenant with the fewest running cells;
        ties go to the least recently served, then to name order (so
        the choice is deterministic)."""
        best = None
        best_rank = None
        for tenant in self._heaps:
            rank = (self._running.get(tenant, 0),
                    self._served.get(tenant, 0), tenant)
            if best_rank is None or rank < best_rank:
                best, best_rank = tenant, rank
        return best
