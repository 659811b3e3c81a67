"""The machine's momentary speed, from a fixed piece of work.

On a shared machine the speed of one core changes by tens of percent
within seconds, as other tenants come and go, and a core's speed does
not follow its neighbour's.  So every timed interval of the benchmark
is bracketed by ``calibrate()`` on the same thread, and its time is
rescaled to the speed at which ``calibrate()`` takes ``REFERENCE_S``:

    normalised = measured * REFERENCE_S / mean(calibrations around it)

The calibration touches nothing of the simulator, so a faster
simulator still shows as a shorter normalised time.  It mixes what
the simulator spends its time on: numpy calls on tiny arrays with the
interpreter around them, a walk over a few megabytes of Python
objects, one frozen record and one scalar binomial draw per item, and
CSV formatting.  Together these slow down under contention by about
as much as the simulator's layers do; a purely arithmetic loop slowed
down more and over-corrected.
"""

import csv
import io
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# normalised seconds are seconds on a machine where calibrate() takes
# this long; the 2-core machine the bounds in BENCHMARK.json were set
# on took 15 to 20 ms
REFERENCE_S = 0.015

_GRID = np.linspace(0.0, 10.0, 8)
_VALUES = np.sin(_GRID)
_MATRIX = 0.5 * np.eye(3)
_FLOATS = [float(i) for i in range(200_000)]


@dataclass(frozen=True)
class _Record:
    index: int
    time_ms: float
    flag: bool
    size: int
    count: int
    level_db: float


def calibrate() -> float:
    """Seconds taken by a fixed amount of work."""
    start = perf_counter()
    total = 0.0
    for k in range(500):
        a = np.interp(k * 0.003, _GRID, _VALUES)
        b = np.interp(k * 0.002, _GRID, _VALUES)
        rows = np.stack([np.array([a, b, 1.0]), np.array([b, a, 2.0])])
        total += float((_MATRIX @ rows[0]).sum())
    total += sum(_FLOATS[::3]) + sum(_FLOATS[1::3])
    rng = np.random.default_rng(np.random.SeedSequence((1, 2)))
    records = [_Record(i, i * 0.5, i % 7 == 0, 1000, int(rng.binomial(1000, 0.01)), -3.5)
               for i in range(1500)]
    writer = csv.writer(io.StringIO())
    for r in records[:600]:
        writer.writerow([str(r.index), format(r.time_ms, ".10g"), str(int(r.flag)),
                         format(r.level_db, ".10g")])
    seconds = perf_counter() - start
    if total != total:
        raise RuntimeError("calibration work gave NaN")
    return seconds


def normalise(seconds: float, *calibrations: float) -> float:
    """``seconds`` rescaled to the reference speed, from the calibrations around it."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
