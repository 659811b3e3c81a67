"""The spec dataclasses a scenario is built from, and the domains their fields declare."""

from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from rwasim.scenarios import ScenarioSpec


def _kinds(hint):
    """``hint`` and every type nested in it: ``X | None``, ``dict[str, X]``, ..."""
    yield hint
    for arg in get_args(hint):
        yield from _kinds(arg)


def spec_classes(cls=ScenarioSpec, seen=None) -> list:
    """``cls`` and every dataclass its fields hold, in the order first met."""
    seen = [] if seen is None else seen
    seen.append(cls)
    for hint in get_type_hints(cls).values():
        for kind in _kinds(hint):
            if is_dataclass(kind) and kind not in seen:
                spec_classes(kind, seen)
    return seen


def holds_numbers(hint) -> bool:
    """Whether a field annotated ``hint`` holds numbers: an int or a float,
    optional or not, or a tuple of them."""
    if type(None) in get_args(hint):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        return all(arg in (int, float) for arg in get_args(hint) if arg is not Ellipsis)
    return hint in (int, float)


def domains() -> list:
    """(spec class, the field, its name in a scenario file) of each field
    that declares a domain, class by class in ``spec_classes`` order."""
    return [(cls, f, f.metadata["key"] or f.name)
            for cls in spec_classes() for f in fields(cls) if "domain" in f.metadata]
