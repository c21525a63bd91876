"""Plugin registries: named, parameter-schema'd schemes and attacks.

The evaluation matrix of the paper (Tables I-II) crosses *defenses*
(TriLock at various knobs, earlier locking families) with *attacks*
(SAT, BMC, removal, STG signatures).  This module provides the machinery
that makes both sides first-class: a :class:`Registry` mapping short
names to plugin objects, and a :class:`Param` schema so every plugin
declares its knobs (type, default, one-line doc) in a form that CLI
listings, spec strings, and campaign cache keys can all consume.

Registration is decorator-based (see :mod:`repro.api.schemes` /
:mod:`repro.api.attacks` for ``register_scheme`` / ``register_attack``);
third-party code uses exactly the same door::

    from repro.api import Param, register_scheme

    @register_scheme("xor-lock", description="toy XOR locking",
                     params={"n_keys": Param("int", 8, "key gate count")})
    def lock_xor(netlist, seed, n_keys):
        ...
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from repro.errors import SpecError

#: Characters that would collide with the spec-string grammar
#: (``name?k=v&k=v`` plus the ``|``/``..`` grid syntax).
_RESERVED = set("?&=|, \t\n")


def _check_name(kind, name):
    if not name or not isinstance(name, str):
        raise SpecError(f"{kind} name must be a non-empty string")
    if name != name.strip() or any(ch in _RESERVED for ch in name):
        raise SpecError(
            f"bad {kind} name {name!r}: no whitespace or reserved "
            "spec-string characters (? & = | , ..)")


@dataclass(frozen=True)
class Param:
    """One declared parameter of a scheme or attack.

    ``kind`` is ``"int"``, ``"float"``, ``"bool"`` or ``"str"``;
    ``default`` is the value used when a spec omits the parameter
    (``None`` means "unset", interpreted by the plugin).
    """

    kind: str
    default: object = None
    doc: str = ""

    def __post_init__(self):
        if self.kind not in ("int", "float", "bool", "str"):
            raise SpecError(f"unknown param kind {self.kind!r}")

    def coerce(self, value, owner, name):
        """Validate/convert ``value``; raises an actionable SpecError."""
        if value is None:
            return None
        ok = {
            "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "float": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
            "bool": lambda v: isinstance(v, bool),
            "str": lambda v: isinstance(v, str),
        }[self.kind]
        if not ok(value):
            raise SpecError(
                f"{owner}: parameter {name!r} expects {self.kind}, "
                f"got {value!r}")
        return float(value) if self.kind == "float" else value

    def as_dict(self):
        """JSON-safe schema entry (the ``--json`` listing form)."""
        return {"kind": self.kind, "default": self.default, "doc": self.doc}

    def describe(self):
        """``kind=default`` rendering for CLI listings."""
        if self.default is True:
            default = "true"
        elif self.default is False:
            default = "false"
        elif self.default is None:
            default = "null"
        else:
            default = self.default
        return f"{self.kind}={default}"


class Plugin:
    """Shared surface of registered schemes and attacks.

    Subclasses add the verb (``lock`` / ``run``); this base owns the
    identity (``name``, ``description``), the :class:`Param` schema, and
    parameter resolution — unknown names and type mismatches fail with
    the full schema spelled out, so a typo in a spec string is a one-read
    fix.
    """

    kind = "plugin"

    def __init__(self, name, fn, params=None, description=""):
        _check_name(self.kind, name)
        self.name = name
        self._fn = fn
        self.params_schema = dict(params or {})
        for key, param in self.params_schema.items():
            if not isinstance(param, Param):
                raise SpecError(
                    f"{self.kind} {name!r} parameter {key!r} must be a "
                    "Param instance")
        self.description = description or (fn.__doc__ or "").strip().split(
            "\n")[0]

    def resolve_params(self, given):
        """Defaults overlaid with ``given``, validated against the schema."""
        resolved = {key: param.default
                    for key, param in self.params_schema.items()}
        for key, value in given.items():
            if key not in self.params_schema:
                known = ", ".join(sorted(self.params_schema)) or "(none)"
                raise SpecError(
                    f"{self.kind} {self.name!r} has no parameter {key!r} "
                    f"(parameters: {known})")
            resolved[key] = self.params_schema[key].coerce(
                value, f"{self.kind} {self.name!r}", key)
        return resolved

    def spec(self, **params):
        """The canonical spec string for this plugin at ``params``.

        Every schema parameter appears, defaults filled in and keys
        sorted — equivalent spellings of the same configuration resolve
        to one string, which is what makes specs safe cache-key material.
        """
        from repro.api.spec import format_spec

        return format_spec(self.name, self.resolve_params(params))

    def short_spec(self, **params):
        """Like :meth:`spec` but omitting parameters at their defaults —
        the display form (cache keys always use the full canonical
        spec)."""
        from repro.api.spec import format_spec

        resolved = self.resolve_params(params)
        trimmed = {
            key: value for key, value in resolved.items()
            if value != self.params_schema[key].default
            or isinstance(value, bool)
            != isinstance(self.params_schema[key].default, bool)
        }
        return format_spec(self.name, trimmed)

    def describe_row(self):
        """(name, description, schema) for CLI listings."""
        schema = ", ".join(f"{key}:{param.describe()}"
                           for key, param in sorted(
                               self.params_schema.items()))
        return self.name, self.description, schema or "(no parameters)"

    def describe_json(self):
        """JSON-safe description: name, doc, and full param schema —
        what ``repro-lock schemes --json`` and the service's
        ``/schemes`` endpoint emit for machine discovery."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "params": {key: param.as_dict()
                       for key, param in sorted(self.params_schema.items())},
        }

    def __repr__(self):
        return f"<{self.kind} {self.name!r}>"


class Registry:
    """Name -> plugin mapping with decorator registration."""

    def __init__(self, kind):
        self.kind = kind
        self._entries = {}

    def add(self, plugin, replace=False):
        _check_name(self.kind, plugin.name)
        if plugin.name in self._entries and not replace:
            raise SpecError(
                f"{self.kind} {plugin.name!r} is already registered "
                "(pass replace=True to override)")
        self._entries[plugin.name] = plugin
        return plugin

    def get(self, name):
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none registered)"
            hint = ""
            close = difflib.get_close_matches(
                str(name), self.names(), n=1, cutoff=0.5)
            if close:
                hint = f" — did you mean {close[0]!r}?"
            raise SpecError(
                f"unknown {self.kind} {name!r} (registered: {known}){hint}")

    def names(self):
        return tuple(sorted(self._entries))

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return (self._entries[name] for name in self.names())

    def __len__(self):
        return len(self._entries)
