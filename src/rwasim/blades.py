"""Rotor-blade blockage model for antennas mounted under the rotor disk.

A blade sweeping over the antenna interrupts the satellite link for a
short arc of every rotation.  The model reduces the rotor to a timing
pattern: each of the ``n_blades`` blades blocks the link for a fixed
interval once per rotation, and the link is clear in between.  The arc
blocked by one blade depends on where the antenna boresight crosses the
rotor disk, which in turn depends on the satellite elevation.  The
geometry functions take scalars or numpy arrays of elevations, and
:func:`slot_blocked_ms` gives the per-slot blocked time of a set of frames,
which the PHY thresholds into erasures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# relative change of blocked time that rebuilds the schedule in force
REGEN_FRACTION = 0.05


@dataclass(frozen=True)
class RotorSpec:
    """Physical description of a main rotor above a fixed antenna."""

    n_blades: int
    blade_width_m: float      # blade chord where the boresight crosses
    rpm: float                # rotor speed, rev/min
    shaft_offset_m: float     # horizontal antenna-to-shaft distance
    rotor_height_m: float     # vertical antenna-to-rotor-plane distance
    tip_radius_m: float       # blade tip radius; beyond it nothing blocks

    def __post_init__(self) -> None:
        if self.n_blades < 1:
            raise ConfigError("n_blades must be >= 1", field="n_blades")
        # written so that NaN fails them
        for name in ("blade_width_m", "rpm", "rotor_height_m", "tip_radius_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0", field=name)
        if not self.shaft_offset_m >= 0:
            raise ConfigError("shaft_offset_m must be >= 0", field="shaft_offset_m")

    @property
    def rate_deg_per_ms(self) -> float:
        """Rotation rate in degrees per millisecond (0.006 * rpm)."""
        return 0.006 * self.rpm

    @property
    def rotation_ms(self) -> float:
        """Time for one full rotation in milliseconds."""
        return 360.0 / self.rate_deg_per_ms


@dataclass(frozen=True)
class BladeGeometry:
    """Where the antenna boresight crosses the rotor disk."""

    radius_m: float   # distance of the crossing point from the shaft
    arc_deg: float    # rotor arc blocked by one blade at that radius


@dataclass(frozen=True)
class BladeSchedule:
    """Periodic blockage timing of a rotor, at one or many elevations.

    Every ``rotation_ms / n_blades`` milliseconds a blade blocks the
    link for ``blocked_ms``; the remaining ``clear_ms`` of each blade
    period is usable.  Fields are floats or per-segment (or per-frame) arrays.
    """

    n_blades: int | np.ndarray
    blocked_ms: float | np.ndarray       # per-blade blockage duration
    clear_ms: float | np.ndarray         # per-gap clear duration
    rotation_ms: float | np.ndarray      # full rotation

    @property
    def period_ms(self) -> float | np.ndarray:
        """Blade-to-blade period (blocked + clear)."""
        return self.rotation_ms / self.n_blades

    @property
    def duty_cycle(self) -> float | np.ndarray:
        """Fraction of time the link is blocked."""
        return self.n_blades * self.blocked_ms / self.rotation_ms


def blockage_arc(blade_width_m: float, radius_m):
    """Rotor arc (degrees) hidden by a blade of the given chord.

    The blade is treated as a rectangle of width ``blade_width_m``
    crossing the boresight at ``radius_m`` from the shaft; the blocked
    arc is the chord width expressed as an angle at that radius, capped
    at a full circle.  An infinite radius (no crossing) hides nothing.
    """
    radius = np.asarray(radius_m, dtype=float)
    with np.errstate(divide="ignore"):
        arc = 360.0 * blade_width_m / (2.0 * math.pi * radius)
    return np.where(radius <= 0, 360.0, np.minimum(arc, 360.0))[()]


def crossing(rotor: RotorSpec, elevation_deg) -> tuple[np.ndarray, np.ndarray]:
    """Where the boresight crosses the rotor disk, at each elevation.

    The antenna sits ``rotor_height_m`` below the rotor plane and
    ``shaft_offset_m`` from the shaft axis.  Looking up at elevation
    ``el`` the boresight pierces the rotor plane at a horizontal distance
    ``rotor_height / tan(el)`` from the antenna, which may fall on either
    side of the shaft.

    Returns ``(radius_m, arc_deg)``: the crossing's distance from the
    shaft and the arc one blade hides there (see :func:`blockage_arc`).
    Where the crossing lies beyond the blade tip, so the blades never cut
    the boresight, they are inf and 0.
    """
    el = np.asarray(elevation_deg, dtype=float)
    if not ((el > 0.0) & (el <= 90.0)).all():
        raise ValueError("elevation_deg must be in (0, 90]")
    reach = rotor.rotor_height_m / np.tan(np.radians(el))
    radius = np.abs(rotor.shaft_offset_m - reach)
    radius = np.where(radius > rotor.tip_radius_m, np.inf, radius)
    return radius, blockage_arc(rotor.blade_width_m, radius)


def build_schedule(rotor: RotorSpec, geometry: BladeGeometry) -> BladeSchedule:
    """Turn a crossing geometry into a periodic blockage schedule.

    Raises ``ValueError`` if the blocked arcs of the individual blades
    overlap (``n_blades * arc > 360``), which would leave no clear time.
    :func:`blocked_ms` gives the clamped blocked time at an elevation.
    """
    blocked = geometry.arc_deg / rotor.rate_deg_per_ms
    if rotor.n_blades * blocked > rotor.rotation_ms:
        raise ValueError("blade arcs overlap: n_blades * blocked exceeds one rotation")
    return schedule(rotor, blocked)


def schedule(rotor: RotorSpec, blocked_ms) -> BladeSchedule:
    """Schedule of ``rotor`` for a per-blade blocked time, columnar for an array."""
    rotation = rotor.rotation_ms
    # a clamped arc may leave a rounding-sized negative clear time
    total_clear = np.maximum(rotation - rotor.n_blades * blocked_ms, 0.0)
    return BladeSchedule(
        n_blades=rotor.n_blades,
        blocked_ms=blocked_ms,
        clear_ms=total_clear / rotor.n_blades,
        rotation_ms=rotation,
    )


def blocked_ms(rotor: RotorSpec, elevation_deg) -> np.ndarray:
    """Per-blade blocked time (ms) at each elevation, degenerate cases included.

    When the boresight misses the blades the blocked time is zero; when
    the blade arcs overlap it is clamped to one blade period (fully
    blocked).
    """
    return arc_blocked_ms(rotor, crossing(rotor, elevation_deg)[1])


def arc_blocked_ms(rotor: RotorSpec, arc_deg) -> np.ndarray:
    """Per-blade blocked time (ms) of a blocked arc, clamped to one blade period."""
    return np.minimum(arc_deg, 360.0 / rotor.n_blades) / rotor.rate_deg_per_ms


def speed_ratios(
    rotor_a: RotorSpec,
    rotor_b: RotorSpec,
    geometry: BladeGeometry,
) -> tuple[float, float]:
    """(blocked-time ratio, rotation-time ratio) of two rotors.

    Both rotors are evaluated against the same crossing geometry so the
    ratios isolate the effect of rotor speed: a rotor spinning k times
    faster blocks for 1/k the time and completes rotations in 1/k the
    time.
    """
    sched_a = build_schedule(rotor_a, geometry)
    sched_b = build_schedule(rotor_b, geometry)
    return (
        sched_a.blocked_ms / sched_b.blocked_ms,
        sched_a.rotation_ms / sched_b.rotation_ms,
    )


def regenerations(blocked) -> tuple[np.ndarray, np.ndarray]:
    """Where a run of per-blade blocked times (ms) regenerates the schedule.

    The schedule is rebuilt only when the blocked time moves by more than
    ``REGEN_FRACTION`` relative to the schedule in force (always at the
    first sample and whenever blockage appears or disappears).  Returns
    ``(segment, starts)``: the segment index of every sample and the
    first sample of every segment.
    """
    values = np.asarray(blocked).tolist()
    starts = [0] if values else []
    have = values[0] if values else 0.0
    for i, want in enumerate(values):
        # equal times never regenerate, so that test goes first
        if want != have and (have == 0.0 or want == 0.0
                             or abs(want - have) / have > REGEN_FRACTION):
            starts.append(i)
            have = want
    first = np.zeros(len(values), dtype=bool)
    first[starts] = True
    return first.cumsum() - 1, np.array(starts, dtype=np.intp)


def schedule_timeline(
    rotor: RotorSpec,
    elevations_deg,
) -> tuple[np.ndarray, BladeSchedule]:
    """Schedules along a run of elevation samples, regenerated only on meaningful change.

    Recomputing the schedule at every elevation sample is wasteful and
    makes downstream erasure patterns jitter; :func:`regenerations` says
    where the schedule is rebuilt.

    Returns ``(segment, schedules)``: the segment index of every sample
    and one columnar schedule with one entry per segment, built at the
    segment's first sample.
    """
    blocked = blocked_ms(rotor, elevations_deg)
    segment, starts = regenerations(blocked)
    return segment, schedule(rotor, blocked[starts])


def slot_blocked_ms(schedules: BladeSchedule, frame_offsets_ms, slot_ms: float,
                    slots_per_frame: int) -> np.ndarray:
    """Blade-blocked time (ms) of every slot, as a (frames, slots) array.

    ``schedules`` applies to every frame or has one entry per frame (0 ms
    blocked: a clear frame).  Frame ``f`` starts at ``frame_offsets_ms[f]``
    on a continuous rotor clock and sees the blade pulses that start every
    period over one frame at phase ``frame_offsets_ms[f] % period``: pulse
    ``j`` starts at ``(k0 + j) * period - phase``, is clipped to the frame
    and adds its overlap to every slot it touches, and only those slots
    are visited.  A slot sums those overlaps in pulse order, the terms and
    order of a walk over its frame's intervals, so any split of the frames
    into calls gives every slot the same sum.  Slots blocked for exactly
    the erase threshold (blade edges on slot boundaries) are decided by
    this arithmetic, so it must not change.
    """
    offsets = np.asarray(frame_offsets_ms, dtype=float)
    width = np.broadcast_to(schedules.blocked_ms, offsets.shape)
    period = np.broadcast_to(schedules.period_ms, offsets.shape)
    frame_ms = slots_per_frame * slot_ms
    rows = (width > 0.0).nonzero()[0]
    if rows.size == 0:
        return np.zeros((len(offsets), slots_per_frame))
    period = period[rows, None]
    width = width[rows, None]
    phase = offsets[rows, None] % period
    k0 = np.floor((-phase - width) / period)
    # k0 lies up to about 2 * phase / period pulses before the first one
    # that reaches the frame, so pulses past k0 + ceil((frame_ms + width)
    # / period) + 3 start after the frame ends; one more is slack for rounding
    n_pulses = int(np.ceil((frame_ms + width) / period).max()) + 4
    start = (k0 + np.arange(n_pulses)) * period - phase   # (rows, pulses)
    stop = start + width
    # the pulses that reach a frame, in (frame, pulse) order: a boolean
    # matrix's indices come from its flat ones, as np.nonzero's but faster
    reach = ((stop > 0.0) & (start < frame_ms)).ravel().nonzero()[0]
    row = reach // n_pulses
    first = np.maximum(start.ravel()[reach], 0.0)
    last = np.minimum(stop.ravel()[reach], frame_ms)
    # each pulse touches slots [floor(first / slot_ms), ceil(last / slot_ms))
    # of its frame; 0 <= first <= last, so the range is empty at worst
    lo = np.floor(first / slot_ms).astype(np.int64)
    hi = np.minimum(np.ceil(last / slot_ms), slots_per_frame).astype(np.int64)
    count = hi - lo
    # one pair per touched (frame, pulse, slot), in that order
    skip = (lo - (count.cumsum() - count)).repeat(count)
    slot = skip + np.arange(len(skip))
    edge = slot * slot_ms
    overlap = (np.minimum(last.repeat(count), edge + slot_ms)
               - np.maximum(first.repeat(count), edge))
    index = (rows[row] * slots_per_frame).repeat(count) + slot
    # bincount adds each slot's pairs in input order, so in pulse order
    sums = np.bincount(index, weights=overlap, minlength=len(offsets) * slots_per_frame)
    return sums.reshape(len(offsets), slots_per_frame)
