"""Exception types and field domains shared by configuration loading and validation."""

import numbers
from dataclasses import field, fields

import numpy as np


class ConfigError(Exception):
    """A configuration value violates a documented constraint.

    ``field`` names the offending entry so CLI users can find it without
    reading a traceback.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ScenarioFormatError(ConfigError):
    """A scenario document could not be parsed at all."""


class UnknownReferenceError(ConfigError):
    """A scenario names an aircraft or constellation that is not defined."""


def domain(interval: str = "", why: str = "", key: str | None = None, columns=(), names=(),
           **kwargs):
    """A dataclass field whose value, or each value of a sequence, lies in ``interval``.

    ``interval`` is written "[lo, hi]", with a parenthesis at an open end
    and ``inf`` for no bound; ``why`` is its physical reason in one line,
    and ``key`` the value's name in a scenario file where that is not the
    field's.  A table field gives ``columns`` instead, one (name, interval,
    why) a column, and a field of names its allowed ``names`` (a mapping's
    keys).  The other keyword arguments go to ``dataclasses.field``.
    """
    if columns:
        return field(metadata={"columns": [domain(*c[1:], c[0]).metadata for c in columns]},
                     **kwargs)
    if names:
        return field(metadata={"names": tuple(names), "why": why, "key": key}, **kwargs)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return field(metadata={"domain": interval, "why": why, "key": key,
                           "bounds": (lo, interval[0] == "[", hi, interval[-1] == "]")}, **kwargs)


# The values each annotation admits, in the scenario parser's wording: a
# bool is no number here, though Python would read it as 1 or 0.
_KINDS = {
    "int": ("an integer", lambda v: not isinstance(v, bool) and hasattr(v, "__index__")),
    "float": ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, (bool, np.bool_))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of numbers", lambda v: isinstance(v, (tuple, list))),
    "dict": ("an object", lambda v: isinstance(v, dict)),
}


def _table(rows, f) -> np.ndarray:
    """``rows`` of the table field ``f`` as a float (n, columns) array, else a ConfigError."""
    names = [column["key"] for column in f.metadata["columns"]]
    try:
        array = np.asarray(rows)
    except ValueError:   # ragged rows
        pass
    else:
        if array.dtype.kind in "iuf" and (array.size == 0 or array.shape[1:] == (len(names),)):
            return array.astype(float, copy=False).reshape(-1, len(names))
    raise ConfigError(f"expected ({', '.join(names)}) rows of numbers", field=f.name)


def _admit(meta, kind: str, value, key: str, column: str = "") -> None:
    """A ConfigError naming ``key`` unless ``value`` is of ``kind`` and in the domain ``meta``."""
    what, admits = _KINDS.get(kind, ("", None))
    if admits and not admits(value):
        raise ConfigError(f"expected {what}, got {value!r}", field=key)
    if "names" in meta and value not in meta["names"]:
        raise ConfigError(f"{value!r} is not one of {', '.join(meta['names'])}: {meta['why']}",
                          field=key)
    if "bounds" in meta:
        lo, closed_lo, hi, closed_hi = meta["bounds"]
        if not ((lo < value or closed_lo and value == lo)
                and (value < hi or closed_hi and value == hi)):
            raise ConfigError(f"{column}{value!r} is outside {meta['domain']}: {meta['why']}",
                              field=key)


def check_domains(spec) -> None:
    """A ConfigError naming the first field of ``spec`` whose value is not
    of its annotation's kind or lies outside its declared domain: an
    interval, an interval a column of a table, or a set of names.  None,
    an optional value left unset, passes, and NaN lies in no interval."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        key = f.metadata.get("key") or f.name
        if "columns" in f.metadata:   # a column at once: only values at or past a bound go on
            for m, c in zip(f.metadata["columns"], _table(value, f).T):
                for v in c[~((m["bounds"][0] < c) & (c < m["bounds"][2]))].tolist():
                    _admit(m, "float", v, key, f"{m['key']} ")
            continue
        # the annotation as written: a string under `from __future__ import annotations`
        kind = f.type.removesuffix(" | None").partition("[")[0]
        if kind not in ("tuple", "dict"):
            _admit(f.metadata, kind, value, key)
            continue
        _admit({}, kind, value, key)
        for v in value:   # a tuple's values are numbers, and a mapping's keys are names
            _admit(f.metadata, "float" if kind == "tuple" else "str", v, key)
