"""Parallel campaign runner with content-addressed result caching.

Experiments express their work as lists of pure :class:`CellSpec` jobs;
a :class:`Campaign` executes them through a pluggable
:class:`ExecutorBackend` — inline, or a scheduler fanning cells out to
``repro-lock worker`` agents (one forked loopback agent for a local
pool, remote ones for a distributed fleet) — reading and writing
finished values through a :class:`ResultStore` keyed by the SHA-256 of
each cell's full configuration.
"""

from repro.campaign.backends import (
    DEFAULT_BIND,
    ExecutorBackend,
    InlineBackend,
    backend_names,
    resolve_backend,
)
from repro.campaign.executor import Campaign, CellResult, resolve_cell_fn
from repro.campaign.model import (
    CODE_VERSION,
    CellSpec,
    canonical_json,
    canonical_value,
)
from repro.campaign.scheduler import DistributedBackend, PoolBackend, Scheduler
from repro.campaign.store import (
    ResultStore,
    StoreStats,
    default_cache_dir,
    render_status,
)

__all__ = [
    "CODE_VERSION",
    "DEFAULT_BIND",
    "Campaign",
    "CellResult",
    "CellSpec",
    "DistributedBackend",
    "ExecutorBackend",
    "InlineBackend",
    "PoolBackend",
    "ResultStore",
    "Scheduler",
    "StoreStats",
    "backend_names",
    "canonical_json",
    "canonical_value",
    "default_cache_dir",
    "render_status",
    "resolve_backend",
    "resolve_cell_fn",
]
