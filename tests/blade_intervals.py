"""Reference walk over the blade pulses of a schedule, one interval at a time.

``tests/test_blades.py`` checks it against hand-worked timings, and
``tests/test_phy.py`` builds its per-slot reference from it to check the
columnar ``rwasim.blades.slot_blocked_ms``.
"""

from __future__ import annotations

import math

from rwasim.blades import BladeSchedule


def blocked_intervals(
    schedule: BladeSchedule,
    span_ms: float,
    phase_ms: float = 0.0,
) -> list[tuple[float, float]]:
    """Blocked [start, stop) intervals covering ``[0, span_ms)``.

    ``phase_ms`` is the time already elapsed in the blade period at
    t = 0, so a rotor that has been spinning since an earlier origin can
    be windowed consistently.  Intervals are clipped to the span and an
    interference-free schedule yields an empty list.
    """
    if schedule.blocked_ms <= 0.0 or span_ms <= 0.0:
        return []
    period = schedule.period_ms
    # first blade arrival at or before the window start
    k = math.floor((-phase_ms - schedule.blocked_ms) / period)
    out: list[tuple[float, float]] = []
    while True:
        start = k * period - phase_ms
        stop = start + schedule.blocked_ms
        k += 1
        if stop <= 0.0:
            continue
        if start >= span_ms:
            break
        out.append((max(start, 0.0), min(stop, span_ms)))
    return out
