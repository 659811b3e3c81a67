"""The spec dataclasses a scenario is built from, the run settings a run or a
sweep takes, and the domains their fields declare."""

from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from rwasim.pipeline import RunParameters, SweepParameters
from rwasim.scenarios import LoiterSpec, ScenarioSpec


def _kinds(hint):
    """``hint`` and every type nested in it: ``X | None``, ``dict[str, X]``, ..."""
    yield hint
    for arg in get_args(hint):
        yield from _kinds(arg)


def spec_classes(classes=(ScenarioSpec, LoiterSpec), seen=None) -> list:
    """``classes`` and every dataclass their fields hold, in the order first
    met: a scenario's specs, and the LoiterSpec a loiter's ``flight`` fills."""
    seen = [] if seen is None else seen
    for cls in classes:
        if cls not in seen:
            seen.append(cls)
            spec_classes([kind for hint in get_type_hints(cls).values()
                          for kind in _kinds(hint) if is_dataclass(kind)], seen)
    return seen


def holds_numbers(hint) -> bool:
    """Whether a field annotated ``hint`` holds numbers: an int or a float,
    optional or not, or a tuple of them."""
    if type(None) in get_args(hint):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        return all(arg in (int, float) for arg in get_args(hint) if arg is not Ellipsis)
    return hint in (int, float)


def holds_table(hint) -> bool:
    """Whether a field annotated ``hint`` holds rows of numbers: an array,
    or a tuple of number tuples."""
    return hint is np.ndarray or (get_origin(hint) is tuple
                                  and get_origin(get_args(hint)[0]) is tuple)


def _declared(f):
    """(metadata, name) of each domain the field ``f`` declares: its own,
    named as in a scenario file, or each column's of a table, named
    ``table.column``."""
    if "domain" in f.metadata:
        yield f.metadata, f.metadata["key"] or f.name
    for column in f.metadata.get("columns", ()):
        yield column, f"{f.name}.{column['key']}"


def domains() -> list:
    """(spec class, the field, the domain's metadata, its name) of each
    declared domain, class by class in ``spec_classes`` order."""
    return [(cls, f, meta, key) for cls in spec_classes() for f in fields(cls)
            for meta, key in _declared(f)]


def run_parameter_domains() -> list:
    """(the call, the field, the domain's metadata) of each run setting with
    a declared domain: ``run_scenario``'s, then ``sweep_cnr``'s."""
    return [(call, f, f.metadata) for call, cls in (("run_scenario", RunParameters),
                                                     ("sweep_cnr", SweepParameters))
            for f in fields(cls) if f.metadata]
