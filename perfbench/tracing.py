"""Per-layer spans recorded around the simulator's public calls.

The tracer replaces module attributes (``rwasim.pipeline.link_timeline``
and so on) with timing wrappers for the length of a traced pass and
puts the originals back afterwards, so nothing in the package changes
and untraced passes run the original functions.  Spans nest; each
layer is charged its self time, the span minus the child spans inside
it.  Counts are taken from the wrapped calls' arguments and results;
the time spent counting is charged to no layer and shows up as tracing
overhead.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from checks import count_handovers, slot_column


def _count_access(counts, access, args, kwargs):
    sat_id = np.asarray(access.sat_id)
    constellation = args[0].constellation
    counts["orbit.steps"] += len(access)
    counts["orbit.sat_steps"] += len(access) * constellation.planes * constellation.sats_per_plane
    counts["orbit.handovers"] += count_handovers(sat_id)


def _count_link(counts, link, args, kwargs):
    counts["linkbudget.samples"] += len(link.times_s)


def _count_blades(counts, overlay, args, kwargs):
    counts["blades.samples"] += len(args[1])
    counts["blades.segments"] += len(overlay[1])


def _count_slots(counts, slots, args, kwargs):
    counts["phy.slots"] += len(slots)
    counts["phy.erased_slots"] += int(slot_column(slots, "erased", bool).sum())


def _count_written(counts, target, args, kwargs):
    result = args[0]
    counts["pipeline.rows_written"] += (2 * len(result.access) + len(result.slots)
                                        + len(result.blade_rows))
    counts["pipeline.bytes_written"] += sum(p.stat().st_size for p in target.iterdir())


def _count_sweep(counts, rows, args, kwargs):
    counts["pipeline.sweep_points"] += len(rows)


def _count_resolve(counts, scenario, args, kwargs):
    counts["scenarios.resolve_calls"] += 1


# (module, attribute, metric charged with the self time, counter)
TARGETS = (
    ("rwasim.scenarios", "resolve_scenario", "scenarios.resolve_s", _count_resolve),
    ("rwasim.cli", "resolve_scenario", "scenarios.resolve_s", _count_resolve),
    ("rwasim.scenarios", "builtin_catalog", "scenarios.resolve_s", None),
    ("rwasim.pipeline", "build_access_timeline", "orbit.access_s", _count_access),
    ("rwasim.pipeline", "link_timeline", "linkbudget.link_s", _count_link),
    ("rwasim.pipeline", "blade_overlay", "blades.overlay_s", _count_blades),
    ("rwasim.pipeline", "simulate_frames", "phy.simulate_s", _count_slots),
    ("rwasim.pipeline", "aggregate", "phy.aggregate_s", None),
    ("rwasim.pipeline", "build_report", "pipeline.report_s", None),
    ("rwasim.pipeline", "write_outputs", "pipeline.write_s", _count_written),
    ("rwasim.pipeline", "sweep_cnr", "pipeline.sweep_s", _count_sweep),
    ("rwasim.pipeline", "run_scenario", "pipeline.glue_s", None),
    ("rwasim.cli", "run_scenario", "pipeline.glue_s", None),
    ("rwasim.cli", "main", "cli.main_s", None),
)

SELF_TIMES = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
COUNTS = ("orbit.steps", "orbit.sat_steps", "orbit.handovers", "linkbudget.samples",
          "blades.samples", "blades.segments", "phy.slots", "phy.erased_slots",
          "pipeline.rows_written", "pipeline.bytes_written", "pipeline.sweep_points",
          "scenarios.resolve_calls")


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self, rw):
        """``rw`` holds the simulator's ``cli``, ``pipeline`` and ``scenarios`` modules."""
        self._modules = {"rwasim.cli": rw.cli, "rwasim.pipeline": rw.pipeline,
                         "rwasim.scenarios": rw.scenarios}
        self._saved: list[tuple[object, str, object]] = []
        self._open: list[list] = []   # [span id, time covered by child spans]
        self.spans: list[tuple] = []  # (id, parent id, metric, function, start, end)
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(SELF_TIMES, 0.0)
        self.counts = defaultdict(int)

    def mark(self) -> dict[str, float]:
        """The self times so far, for ``rescale_since``."""
        return dict(self.self_s)

    def rescale_since(self, mark: dict[str, float], factor: float) -> None:
        """Scale the self time added since ``mark`` by ``factor`` (see ``speed.normalise``)."""
        for name, before in mark.items():
            self.self_s[name] = before + (self.self_s[name] - before) * factor

    def __enter__(self) -> "Tracer":
        for module_name, attr, metric, counter in TARGETS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, metric, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, metric: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.self_s[metric] += (end - start) - frame[1]
                if self._open:
                    self._open[-1][1] += end - start
                self.spans.append((frame[0], parent, metric, fn.__qualname__, start, end))
            if counter is not None:
                counted = perf_counter()
                counter(self.counts, result, args, kwargs)
                if self._open:
                    self._open[-1][1] += perf_counter() - counted
            return result
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Self times, counts and unit costs of the pass traced since ``reset``."""
        s, c = self.self_s, self.counts
        out: dict[str, float] = dict(s)
        out.update({name: c[name] for name in COUNTS})

        def per(time_s, count):
            return 1e6 * time_s / count if count else 0.0
        out["orbit.us_per_sat_step"] = per(s["orbit.access_s"], c["orbit.sat_steps"])
        out["linkbudget.us_per_sample"] = per(s["linkbudget.link_s"], c["linkbudget.samples"])
        out["phy.us_per_slot"] = per(s["phy.simulate_s"], c["phy.slots"])
        out["pipeline.us_per_row"] = per(s["pipeline.write_s"], c["pipeline.rows_written"])
        return out
