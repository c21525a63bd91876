"""Spec strings: the wire format for schemes and attacks.

A *spec string* names a plugin plus its parameters in one shell-safe
token — ``"trilock?kappa_s=3&alpha=0.5&s_pairs=10"``,
``"seq-sat?dip_batch=4&solver=native"`` — the form campaign cells
cache-key on and the distributed scheduler ships over the wire.

Grammar::

    spec        = name [ "?" param ("&" param)* ]
    param       = key "=" value
    value       = "true" | "false" | "null" | int | float | string

Strings are bare (no quotes); commas are ordinary characters, so a
value like ``b12,s27`` stays one literal string.  The *canonical* form
— produced by :func:`format_spec` and by ``Plugin.spec()`` — sorts
parameters by key and renders each scalar in its shortest round-trip
spelling, so ``parse(format(spec)) == spec`` holds exactly and equal
configurations hash to equal campaign keys.

Grid syntax (consumed by :func:`expand_grid`, never present in a
concrete spec): ``lo..hi`` expands an inclusive integer range and
``a|b|c`` expands alternatives of any scalar type —
``"trilock?kappa_s=1..3&alpha=0.3|0.6"`` is a 3x2 = 6-spec grid.
"""

from __future__ import annotations

import itertools

from repro.errors import SpecError


def _parse_scalar(text):
    """One spec value: bool/null/int/float, else the bare string."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("null", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _render_scalar(value, key=""):
    """The canonical spelling of one value; rejects ambiguous strings."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        if not value:
            raise SpecError(f"parameter {key!r}: empty string values "
                            "cannot round-trip through a spec")
        if any(ch in "?&=|" for ch in value) or value != value.strip():
            raise SpecError(
                f"parameter {key!r}: string {value!r} contains reserved "
                "spec characters (? & = |) or surrounding whitespace")
        if not isinstance(_parse_scalar(value), str):
            raise SpecError(
                f"parameter {key!r}: string {value!r} would re-parse as "
                f"{_parse_scalar(value)!r}; pick an unambiguous spelling")
        return value
    raise SpecError(
        f"parameter {key!r}: unsupported value type {type(value).__name__} "
        "(spec values are bool, int, float, str or null)")


def _split_params(text, tail):
    """Yield ``(part, column)`` for each ``&``-separated parameter of
    ``tail``, where ``column`` is the 1-based position of the part in
    the full spec ``text`` — so parse errors can point at the offending
    token instead of making the user count characters."""
    column = len(text) - len(tail) + 1
    for part in tail.split("&"):
        yield part, column
        column += len(part) + 1


def parse_spec(text):
    """``"name?a=1&b=x"`` -> ``("name", {"a": 1, "b": "x"})``.

    Values arrive typed (int/float/bool/None/str); parameter names must
    be unique.  The parse is forgiving about order — canonicalisation is
    :func:`format_spec`'s job.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecError(f"empty spec string {text!r}")
    text = text.strip()
    name, _, tail = text.partition("?")
    if not name:
        raise SpecError(f"spec {text!r} has no plugin name "
                        "(column 1 is '?')")
    params = {}
    if tail:
        for part, column in _split_params(text, tail):
            key, sep, raw = part.partition("=")
            if not sep or not key or not raw:
                raise SpecError(
                    f"spec {text!r}: malformed parameter {part!r} at "
                    f"column {column} (expected key=value)")
            if key in params:
                raise SpecError(
                    f"spec {text!r} repeats parameter {key!r} at "
                    f"column {column}")
            params[key] = _parse_scalar(raw)
    return name, params


def format_spec(name, params=None):
    """The canonical spec string: sorted keys, shortest scalar spellings.

    Inverse of :func:`parse_spec` — ``parse_spec(format_spec(n, p)) ==
    (n, p)`` for every representable parameter set.
    """
    if not name or not isinstance(name, str):
        raise SpecError(f"bad plugin name {name!r}")
    if not params:
        return name
    rendered = "&".join(f"{key}={_render_scalar(params[key], key)}"
                        for key in sorted(params))
    return f"{name}?{rendered}"


def _expand_value(key, raw):
    """The concrete alternatives of one (possibly gridded) raw value."""
    alternatives = raw.split("|")
    if any(not alt for alt in alternatives):
        raise SpecError(f"parameter {key!r}: empty grid alternative "
                        f"in {raw!r}")
    values = []
    for alt in alternatives:
        lo, sep, hi = alt.partition("..")
        if sep:
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise SpecError(
                    f"parameter {key!r}: range {alt!r} needs integer "
                    "endpoints (lo..hi)")
            if hi < lo:
                raise SpecError(
                    f"parameter {key!r}: empty range {alt!r} (hi < lo)")
            values.extend(range(lo, hi + 1))
        else:
            values.append(_parse_scalar(alt))
    return values


def expand_grid(text):
    """Expand a gridded spec into its concrete specs, in grid order.

    ``lo..hi`` ranges and ``|`` alternatives multiply out
    (key-sorted, values in listed order); a spec with no grid syntax
    expands to its canonical self.  Returns a list of canonical spec
    strings.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecError(f"empty spec string {text!r}")
    text = text.strip()
    name, _, tail = text.partition("?")
    if not name:
        raise SpecError(f"spec {text!r} has no plugin name")
    if not tail:
        return [format_spec(name)]
    keys, choices = [], []
    for part, column in _split_params(text, tail):
        key, sep, raw = part.partition("=")
        if not sep or not key or not raw:
            raise SpecError(
                f"spec {text!r}: malformed parameter {part!r} at "
                f"column {column} (expected key=value)")
        if key in keys:
            raise SpecError(
                f"spec {text!r} repeats parameter {key!r} at "
                f"column {column}")
        keys.append(key)
        choices.append(_expand_value(key, raw))
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return [
        format_spec(name, {keys[i]: combo[pos]
                           for pos, i in enumerate(order)})
        for combo in itertools.product(*(choices[i] for i in order))
    ]
