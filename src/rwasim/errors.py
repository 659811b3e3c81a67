"""Exception types and field domains shared by configuration loading and validation."""

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


def domain(interval: str = "", why: str = "", key: str | None = None, columns=(), **kwargs):
    """A dataclass field whose value, or each value of a sequence, lies in ``interval``.

    ``interval`` is written "[lo, hi]", with a parenthesis at an open end
    and ``inf`` for no bound; ``why`` is its physical reason in one line,
    and ``key`` the value's name in a scenario file where that is not the
    field's.  A table field gives ``columns`` instead, one (name, interval,
    why) a column.  The other keyword arguments go to ``dataclasses.field``.
    """
    if columns:
        return field(metadata={"columns": [domain(*c[1:], c[0]).metadata for c in columns]},
                     **kwargs)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return field(metadata={"domain": interval, "why": why, "key": key,
                           "bounds": (lo, interval[0] == "[", hi, interval[-1] == "]")}, **kwargs)


def _table(rows, f) -> np.ndarray:
    """``rows`` of the table field ``f`` as a float (n, columns) array, else a ConfigError."""
    names = [column["key"] for column in f.metadata["columns"]]
    try:
        array = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):   # ragged rows, or a value that is no number
        pass
    else:
        if array.size == 0 or array.ndim == 2 and array.shape[1] == len(names):
            return array.reshape(-1, len(names))
    raise ConfigError(f"expected ({', '.join(names)}) rows of numbers", field=f.name)


def check_domains(spec) -> None:
    """A ConfigError naming the first field of ``spec`` outside its declared
    domain, and the column for a table; None, an optional value left unset,
    is in every domain and NaN in none."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None or not f.metadata:
            continue
        checks = [(f.metadata, value if isinstance(value, (tuple, list)) else (value,), "")]
        if "columns" in f.metadata:   # a column at once: only values at or past a bound go on
            checks = [(m, c[~((m["bounds"][0] < c) & (c < m["bounds"][2]))].tolist(),
                       f"{m['key']} ") for m, c in zip(f.metadata["columns"], _table(value, f).T)]
        for meta, values, column in checks:
            lo, closed_lo, hi, closed_hi = meta["bounds"]
            for v in values:
                if not ((lo < v or closed_lo and v == lo) and (v < hi or closed_hi and v == hi)):
                    raise ConfigError(f"{column}{v!r} is outside {meta['domain']}: {meta['why']}",
                                      field=f.metadata.get("key") or f.name)
