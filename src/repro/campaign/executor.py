"""Campaign execution: cached, failure-isolated, backend-pluggable.

:class:`Campaign` turns a list of :class:`~repro.campaign.model.CellSpec`
into a list of :class:`CellResult` in spec order.  Finished values are
read from / written to an optional :class:`~repro.campaign.store.ResultStore`,
so an interrupted campaign resumes from the cells that completed.  Every
cell failure (exception, unpicklable result, timeout, dead worker) is
captured in its result instead of raised, so one diverging SAT cell
cannot sink a 300-cell sweep.

*How* the pending cells run is an
:class:`~repro.campaign.backends.ExecutorBackend` — inline, or the
scheduler fanning cells out to worker agents (one forked on loopback
for a local pool, remote ones for a distributed fleet); the caching,
failure-capture, and spec-order progress semantics are identical
across all of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.campaign.backends import (
    SpecOrderReporter,
    resolve_backend,
    resolve_cell_fn,
)
from repro.campaign.model import CODE_VERSION
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, CampaignWarning

__all__ = ["Campaign", "CellResult", "resolve_cell_fn"]


@dataclass
class CellResult:
    """Outcome of one cell: a value, a cache hit, or a captured failure."""

    spec: object
    key: str
    value: object = None
    error: dict = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self):
        return self.error is None

    @property
    def status(self):
        if self.error is not None:
            return "timeout" if self.error.get("type") == "TimeoutError" \
                else "failed"
        return "hit" if self.cached else "done"


class Campaign:
    """Execution policy for a batch of cells.

    ``jobs`` — cells at once (1 = inline, no pool);
    ``backend`` — an execution policy name (``inline``/``pool``/
    ``distributed``) or :class:`ExecutorBackend` instance; defaults to
    inline for ``jobs=1``, a ``jobs``-wide local pool otherwise;
    ``cache_dir``/``store`` — result cache (None = always recompute);
    ``cell_timeout`` — wall-clock bound on one running cell, enforced by
    the pool and distributed backends alike (the scheduler cancels the
    cell and its worker agent kills the cell's subprocess).  The inline
    backend cannot interrupt a cell in its own process, so there the
    timeout is ineffective and construction emits a
    :class:`CampaignWarning`.  For
    precise budgets use the attack-level knobs (e.g. Table I's
    ``time_budget_per_cell``), which cells enforce cooperatively;
    ``progress`` — callback ``(index, total, CellResult)``.
    """

    def __init__(self, jobs=1, cache_dir=None, store=None, cell_timeout=None,
                 progress=None, salt=CODE_VERSION, backend=None):
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if store is None and cache_dir is not None:
            store = ResultStore(cache_dir)
        self.jobs = jobs
        self.store = store
        self.cell_timeout = cell_timeout
        self.progress = progress
        self.salt = salt
        self.backend = resolve_backend(backend, jobs=jobs)
        if cell_timeout is not None and not self.backend.enforces_timeout:
            warnings.warn(
                f"cell_timeout={cell_timeout} has no effect on the "
                f"'{self.backend.name}' backend: cells run in this process "
                "and cannot be interrupted; use jobs >= 2, "
                "backend='pool', or backend='distributed' to enforce it",
                CampaignWarning, stacklevel=2)

    # ------------------------------------------------------------------
    def run(self, specs):
        """Execute every cell; returns :class:`CellResult` in spec order."""
        specs = list(specs)
        keys = [spec.key(self.salt) for spec in specs]
        results = [None] * len(specs)
        pending = []
        for index, (spec, key) in enumerate(zip(specs, keys)):
            value = self.store.get(key) if self.store is not None else None
            if value is not None:
                results[index] = CellResult(spec=spec, key=key, value=value,
                                            cached=True)
            else:
                pending.append(index)

        if not pending:
            SpecOrderReporter(self, results).flush()
            return results
        self.backend.execute(self, specs, keys, pending, results)
        return results

    def values(self, specs, allow_failures=False):
        """Cell values in spec order; raises on failure unless allowed.

        With ``allow_failures`` a failed cell yields ``None`` in its slot.
        """
        results = self.run(specs)
        failures = [r for r in results if not r.ok]
        if failures and not allow_failures:
            first = failures[0]
            detail = first.error.get("traceback") or first.error.get("message")
            raise CampaignError(
                f"{len(failures)} of {len(results)} cells failed; first: "
                f"{first.spec.describe()}: {first.error['type']}: "
                f"{first.error['message']}\n{detail}")
        return [r.value for r in results]

    def stats(self):
        """Cache traffic of this campaign's store (zeros when uncached)."""
        if self.store is None:
            return None
        return self.store.stats

    # ------------------------------------------------------------------
    # Backend surface
    # ------------------------------------------------------------------
    def absorb(self, spec, key, envelope):
        """Turn a cell envelope into a :class:`CellResult`, persisting
        successful values through the store (backends call this on the
        campaign side, so distributed runs write the shared cache from
        one place)."""
        if envelope["ok"]:
            value = envelope["value"]
            if self.store is not None:
                self.store.put(key, spec, value,
                               elapsed=envelope["elapsed"])
            return CellResult(spec=spec, key=key, value=value,
                              elapsed=envelope["elapsed"])
        return CellResult(spec=spec, key=key, error=envelope["error"],
                          elapsed=envelope["elapsed"])

    def report(self, index, total, result):
        if self.progress is not None:
            self.progress(index, total, result)
