"""The campaign cell model.

A *cell* is the unit of experimental work: one pure, picklable function
call ``fn(**params) -> dict`` whose result depends only on ``params``
(circuit name, scale, seed, lock config, attack name, effort, ...).
Experiments enumerate their table/figure as a list of :class:`CellSpec`
and reassemble the rendered artifact from the cell values, which is what
makes them parallelisable and cacheable without touching the rendering.

The cache key of a cell is the SHA-256 digest of a canonical JSON
encoding of ``(code-version salt, fn, params)``.  Bump
:data:`CODE_VERSION` whenever cell semantics change so stale caches
invalidate themselves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import CampaignError

#: Code-version salt mixed into every cache key. Bump on any change that
#: alters what a cell function computes for the same params.
#: v4: circuits became a plugin axis — matrix cells address circuits by
#: canonical provider spec string instead of (name, scale) pairs, and
#: the experiment grids were rebuilt on matrix cells.
#: v5: the DIP engine pins I/O pairs through one hashed problem netlist
#: (a new clause store, so a new DIP walk where keys are not unique on
#: the window), and a DIP budget the attack exactly needs succeeds.
#: v6: Algorithm 1 breaks SCC ties by the earliest register instead of
#: set iteration order, and skips SCCs without a zero-reset register
#: (re-encoded pairs move); equal-size removal anchors rank the same way.
CODE_VERSION = "trilock-campaign-v6"


def canonical_json(value):
    """Deterministic JSON encoding (sorted keys, no whitespace) — the
    form that gets hashed into cache keys."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as error:
        raise CampaignError(f"cell params must be JSON-serializable: {error}")


def canonical_value(value):
    """Round-trip a cell value through JSON, keeping dict key order.

    This fixes tuple/list and int/float identities so a freshly computed
    value is indistinguishable from the same value read back from the
    cache — the key-order preservation is what keeps rendered table
    columns stable."""
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except (TypeError, ValueError) as error:
        raise CampaignError(f"cell value must be JSON-serializable: {error}")


@dataclass(frozen=True)
class CellSpec:
    """One cacheable unit of experiment work.

    ``fn`` is a dotted path ``"package.module:function"`` resolvable in a
    fresh interpreter (this is what makes specs cheap to pickle into
    worker processes); ``params`` are the function's keyword arguments.
    """

    fn: str
    params: tuple = field(default=())   # canonical (key, value-json) pairs
    experiment: str = ""
    label: str = ""

    @staticmethod
    def make(fn, params, experiment="", label=""):
        if ":" not in fn:
            raise CampaignError(
                f"cell fn {fn!r} must be a dotted 'module:function' path")
        if not isinstance(params, dict):
            raise CampaignError("cell params must be a dict")
        frozen = tuple(sorted(
            (key, canonical_json(value)) for key, value in params.items()))
        return CellSpec(fn=fn, params=frozen, experiment=experiment,
                        label=label or fn.split(":", 1)[1])

    @staticmethod
    def matrix(circuit, scheme, attack, scale=1.0, seed=0, max_dips=None,
               time_budget=None):
        """One generic ``(circuit_spec, scheme_spec, attack_spec)`` cell.

        All three axes are :mod:`repro.api` spec strings (``circuit``
        also accepts bare benchmark names); they are canonicalised
        (defaults filled, keys sorted) before entering the params so
        equivalent spellings address the same cache entry.
        """
        from repro.api.cells import matrix_cells

        specs = matrix_cells([circuit], [scheme], [attack], scale=scale,
                             seed=seed, max_dips=max_dips,
                             time_budget=time_budget)
        if len(specs) != 1:
            raise CampaignError(
                f"CellSpec.matrix wants concrete specs, got a "
                f"{len(specs)}-cell grid; expand grids via "
                "repro.api.matrix_cells")
        return specs[0]

    def kwargs(self):
        """The params as the keyword-argument dict to call ``fn`` with."""
        return {key: json.loads(raw) for key, raw in self.params}

    def to_wire(self):
        """JSON-safe envelope of this spec (the distributed wire form).

        ``params`` travel as the canonical ``{key: value}`` dict (values
        already round-tripped through canonical JSON), so
        ``from_wire(to_wire(spec))`` reproduces the spec — and its cache
        key — exactly on any host.
        """
        return {
            "fn": self.fn,
            "params": self.kwargs(),
            "experiment": self.experiment,
            "label": self.label,
        }

    @staticmethod
    def from_wire(payload):
        """Rebuild a spec from its :meth:`to_wire` envelope."""
        if not isinstance(payload, dict) or "fn" not in payload:
            raise CampaignError(f"bad wire cell envelope: {payload!r}")
        return CellSpec.make(
            payload["fn"], payload.get("params") or {},
            experiment=payload.get("experiment", ""),
            label=payload.get("label", ""))

    def key(self, salt=CODE_VERSION):
        """Content-address of this cell: hex SHA-256 digest."""
        payload = canonical_json({
            "salt": salt,
            "fn": self.fn,
            "params": {key: json.loads(raw) for key, raw in self.params},
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self):
        return self.label or self.fn
