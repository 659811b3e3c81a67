"""Exception types and field domains shared by configuration loading and validation."""

from dataclasses import field, fields


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


def domain(interval: str, why: str, key: str | None = None, **kwargs):
    """A dataclass field whose value, or each value of a sequence, lies in ``interval``.

    ``interval`` is written "[lo, hi]", with a parenthesis at an open end
    and ``inf`` for no bound; ``why`` is its physical reason in one line,
    and ``key`` the value's name in a scenario file where that is not the
    field's.  The other keyword arguments go to ``dataclasses.field``.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return field(metadata={"domain": interval, "why": why, "key": key,
                           "bounds": (lo, interval[0] == "[", hi, interval[-1] == "]")}, **kwargs)


def check_domains(spec) -> None:
    """A ConfigError naming the first field of ``spec`` outside its declared
    domain; None, an optional value left unset, is in every domain and NaN
    in none."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if "bounds" not in f.metadata or value is None:
            continue
        lo, closed_lo, hi, closed_hi = f.metadata["bounds"]
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if not ((lo < v or closed_lo and v == lo) and (v < hi or closed_hi and v == hi)):
                raise ConfigError(f"{v!r} is outside {f.metadata['domain']}: {f.metadata['why']}",
                                  field=f.metadata["key"] or f.name)
