"""Constellation geometry: propagation, frames, look angles, handover.

Orbits are circular two-body tracks around a spherical Earth.  The
inertial frame (ECI) and the rotating Earth-fixed frame (ECEF) share
the z axis; the frames coincide at t = 0 (sidereal angle zero at the
epoch, which is simply the start of the simulated flight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import EARTH_RADIUS, EARTH_ROTATION_RATE, MU_EARTH, SPEED_OF_LIGHT
from .errors import ConfigError
from .scenarios import ConstellationSpec, FlightRoute, ScenarioSpec


# === two-body basics ===

def mean_motion(semi_major_axis_km: float) -> float:
    """Angular rate of a circular orbit, rad/s."""
    if semi_major_axis_km <= 0:
        raise ValueError("semi_major_axis_km must be > 0")
    return math.sqrt(MU_EARTH / semi_major_axis_km ** 3)


def orbital_period(semi_major_axis_km: float) -> float:
    """Period of a circular orbit, seconds."""
    return 2.0 * math.pi / mean_motion(semi_major_axis_km)


def circular_speed(semi_major_axis_km: float) -> float:
    """Inertial speed on a circular orbit, km/s."""
    if semi_major_axis_km <= 0:
        raise ValueError("semi_major_axis_km must be > 0")
    return math.sqrt(MU_EARTH / semi_major_axis_km)


@dataclass(frozen=True)
class KeplerianElements:
    """Circular-orbit elements: size, orientation and along-track phase."""

    semi_major_axis_km: float
    inclination_deg: float
    raan_deg: float
    arg_latitude_deg: float   # angle from the ascending node at the epoch


# === array kernels ===
# Vectors travel as (3, ...) arrays or (x, y, z) tuples, component first,
# and the kernels below take them a component at a time, so the same
# elementwise arithmetic serves one satellite and a column of steps.
# `propagate` wraps them for one satellite, and the access timeline uses
# them directly: there is one propagation path.

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _epoch_directions(inc_rad, raan_rad, u0_rad):
    """Inertial directions of position and velocity at the epoch, (6, ...).

    With p the orbit-plane unit vector toward the ascending node and q the
    one 90 deg ahead, they are ``w1 = cos u0 p + sin u0 q`` and ``w2 =
    cos u0 q - sin u0 p``: at time t a satellite's direction is
    ``cos(n t) w1 + sin(n t) w2``.  The angles broadcast, so a shell's
    planes give p and q once each.
    """
    cos_raan, sin_raan = np.cos(raan_rad), np.sin(raan_rad)
    cos_inc = np.cos(inc_rad)
    p = np.array([cos_raan, sin_raan, np.zeros_like(cos_raan)])
    q = np.array([-sin_raan * cos_inc, cos_raan * cos_inc, np.sin(inc_rad)])
    # [w1, w2] = cos u0 [p, q] + sin u0 [q, -p], term by term
    return np.cos(u0_rad) * np.concatenate([p, q]) + np.sin(u0_rad) * np.concatenate([q, -p])


def _eci_state(a, n, w, cos_n, sin_n):
    """ECI position (km) and velocity (km/s) from epoch directions ``w``
    (6, ...), given cos(n t) and sin(n t)."""
    w1, w2 = w[:3], w[3:]
    return a * (cos_n * w1 + sin_n * w2), a * n * (cos_n * w2 - sin_n * w1)


def _rotate_to_ecef(v, cos_t, sin_t):
    """Turn inertial vectors ``v`` (3, ...) into the Earth-fixed frame at
    sidereal angle t."""
    xy_cos, xy_sin = v[:2] * cos_t, v[:2] * sin_t
    return np.array([xy_cos[0] + xy_sin[1], xy_cos[1] - xy_sin[0], v[2]])


def _view(rel, v_rel, up):
    """Elevation, azimuth (deg), range (km) and range rate (km/s).

    East is the normalised z x up; at an exact pole, where that vanishes,
    it is +y, the east of longitude 0.  North is up x east.
    """
    ux, uy, uz = up
    across = np.hypot(ux, uy)
    aside = across > 0
    east = (np.divide(-uy, across, out=np.zeros_like(across), where=aside),
            np.divide(ux, across, out=np.ones_like(across), where=aside), 0.0)
    north = (-uz * east[1], uz * east[0], ux * east[1] - uy * east[0])
    to_east, to_north = _dot(east, rel), _dot(north, rel)
    dist = np.sqrt(_dot(rel, rel))
    elevation = np.degrees(np.arctan2(_dot(up, rel), np.hypot(to_east, to_north)))
    azimuth = np.degrees(np.arctan2(to_east, to_north)) % 360.0
    return elevation, azimuth, dist, _dot(rel, v_rel) / dist


# === one satellite ===

def propagate(elements: KeplerianElements, t: float) -> tuple[np.ndarray, np.ndarray]:
    """ECI position (km) and velocity (km/s) of one satellite at time t."""
    a = elements.semi_major_axis_km
    n = mean_motion(a)
    w = _epoch_directions(math.radians(elements.inclination_deg),
                          math.radians(elements.raan_deg),
                          math.radians(elements.arg_latitude_deg))
    return _eci_state(a, n, w, math.cos(n * t), math.sin(n * t))


# === topocentric view ===

def doppler_khz(range_rate_kms: float, carrier_ghz: float) -> float:
    """Doppler shift in kHz; approaching satellites shift positive."""
    if carrier_ghz <= 0:
        raise ValueError("carrier_ghz must be > 0")
    return -(range_rate_kms / SPEED_OF_LIGHT) * carrier_ghz * 1e6


# === constellation expansion ===

def _shell_angles(spec: ConstellationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclination and RAAN (deg) of each plane, as (planes x 1) columns,
    and the argument of latitude at the epoch (deg) of each satellite, as
    a (planes x sats per plane) array.

    Satellites are evenly phased within each plane; the Walker phasing
    factor shifts consecutive planes by ``F * 360 / total`` degrees of
    along-track phase.
    """
    per_plane = 360.0 / spec.sats_per_plane
    inter_plane = spec.phasing_factor * 360.0 / spec.total_sats
    phase = (spec.anomaly_offset_deg + np.arange(spec.sats_per_plane) * per_plane
             + np.arange(spec.planes)[:, None] * inter_plane) % 360.0
    return (np.asarray(spec.inclinations_deg)[:, None], np.mod(spec.raans_deg, 360.0)[:, None],
            phase)


# === access timeline ===

@dataclass
class AccessTimeline:
    """Column-oriented access history for one flight."""

    times_s: np.ndarray
    sat_id: np.ndarray           # int, -1 during outages
    elevation_deg: np.ndarray
    azimuth_deg: np.ndarray      # clockwise from north
    slant_range_km: np.ndarray
    range_rate_kms: np.ndarray   # positive receding
    doppler_khz: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)

    @cached_property
    def served(self) -> np.ndarray:
        """``sat_id >= 0``, computed once per timeline and read-only."""
        served = self.sat_id >= 0
        served.flags.writeable = False
        return served

    def access_percent(self) -> float:
        if len(self.times_s) == 0:
            return 0.0
        return 100.0 * float(np.count_nonzero(self.served)) / len(self.times_s)

    def handover_count(self) -> int:
        ids = self.sat_id[self.served]
        if len(ids) == 0:
            return 0
        return int(np.count_nonzero(ids[1:] != ids[:-1]))


# Most access steps one timeline may take: a 24 h flight at a 0.035 s
# step.  Building the timeline peaks at 450 to 513 bytes a step
# (`tracemalloc`: scenario-7 and scenario-19 at 0.1 and 0.05 s, the
# 4,392-satellite shell of tools/mega_shell.json at 1 s), so the budget
# keeps it under about 1.3 GB.  More steps are a ConfigError on step_s.
MAX_STEPS = 2_500_000

# Flight time per block of the candidate bound.  Each block's candidates
# are the satellites that can reach the mask over its whole span, so they
# grow with the drift over it, while shorter blocks cost more bounds.  The
# access timelines of the six built-ins at a 4 s step took 18.7, 17.0,
# 15.9, 16.4, 19.7 and 30.3 ms with blocks of 240, 120, 60, 32, 16 and 8 s
# (2-core x86-64, numpy 2.4).
_BLOCK_SPAN_S = 60.0

# Elements of one pass's (satellites x blocks) matrix of central-angle
# cosines: a pass takes as many blocks as fit, at least one.  The matrix
# is one (satellites x 6) @ (6 x blocks) product, and OpenBLAS keeps a
# product on one thread while its m * n * k is at most 4 * 65,536, so the
# budget is the largest with 6 * _PASS_ANGLES within that: 43,690.  Up to
# that many satellites a pass never starts threads, and each built-in
# takes one pass (288 satellites x 120 blocks, 264 x 150).
_PASS_ANGLES = 4 * 65_536 // 6

# (row, candidate) pairs per chunk of the elevation pass: a pass's rows
# are cut into chunks whose pairs fit, which bounds the chunk's
# temporaries for any flight length, step and shell size
_CHUNK_PAIRS = 2 ** 13

# Slack (rad) on the candidate bound for rounding.  The bound compares
# cosines: cos(bound) and cos(bound + 1e-6) differ by at least 5e-13,
# while the 6-term product of unit vectors, the rotated zenith and the
# computed elevations are off by ~1e-15.
_CANDIDATE_MARGIN_RAD = 1e-6

# Elevations within this of a row's highest are tied, and the lowest
# satellite id among them wins.  Coincident satellites (several equatorial
# planes of a Walker shell) differ by rounding alone, ~1e-14 deg, which
# would otherwise pick one of them by the order of the arithmetic.
_TIE_DEG = 1e-10


def _scan_chunk(row, sat, elevation, served, current, threshold_deg, acquire_deg):
    """Apply the handover rule to one chunk by event.

    ``row``, ``sat`` and ``elevation`` are the chunk's (row, candidate)
    pairs, satellite-major; a satellite with no pair on a row is below the
    threshold there.  A row's best satellite is the lowest id among those
    that hold the threshold within ``_TIE_DEG`` of its highest elevation.
    From ``current`` (-1 for none) on entry, each row's satellite goes into
    ``served`` (all -1), jumping to the row where the served satellite
    drops or, in an outage, to the next row whose best satellite clears
    ``acquire_deg``.  Returns the satellite at the end.
    """
    n_rows = len(served)
    highest = np.full(n_rows, -np.inf)
    np.maximum.at(highest, row, elevation)
    held = elevation >= threshold_deg
    # pairs are satellite-major, so a row's lowest tied pair is its lowest tied id
    top = (held & (elevation >= highest[row] - _TIE_DEG)).nonzero()[0]
    best = np.full(n_rows, len(row))   # each row's best pair
    np.minimum.at(best, row[top], top)
    # a satellite's pairs on consecutive rows have consecutive keys; the stride
    # n_rows + 1 keeps its last row from running into the next one's first
    key = sat * (n_rows + 1) + row
    # a run of held rows stops at a pair not held, or at one whose
    # satellite has no pair on the next row
    run_last = ~held
    run_last[:-1] |= key[1:] != key[:-1] + 1
    run_last[-1:] = True
    stop = run_last.nonzero()[0]
    # for each pair, the first row after the run of held rows it is in
    run_end = (row[stop] + held[stop]).repeat(stop - np.concatenate(([-1], stop[:-1])))
    # per row, its best satellite and where that one's run ends (-1 and
    # n_rows for none), whether a satellite holds the threshold on it, and
    # the rows whose best clears acquire_deg; row n_rows, past the chunk,
    # holds and is acquired, so the scan stops there
    best_sat = np.concatenate((sat, [-1]))[best]
    best_end = np.concatenate((run_end, [n_rows]))[best]
    holds = np.concatenate((highest >= threshold_deg, [True]))
    acquired = np.concatenate(((highest >= acquire_deg).nonzero()[0], [n_rows]))
    end = 0
    if current >= 0:
        at = key.searchsorted(current * (n_rows + 1))
        if at < len(key) and key[at] == current * (n_rows + 1):
            end = run_end.item(at)
            served[:end] = current
    while True:
        # the link drops at row `end`, and is taken up again there or, after
        # an outage, where the next best satellite clears acquire_deg
        i = end if current >= 0 and holds.item(end) else acquired.item(acquired.searchsorted(end))
        if i == n_rows:
            break
        current, end = best_sat.item(i), best_end.item(i)
        served[i:end] = current
    return current if end == n_rows else -1


def build_access_timeline(scenario: ScenarioSpec, step_s: float = 1.0) -> AccessTimeline:
    """Propagate the constellation over the flight and pick the server.

    One sample per ``step_s`` over the scenario duration (end exclusive);
    a zero-duration flight yields an empty timeline.  The served satellite
    is kept while it is at or above the handover threshold; when it drops
    below, the link hands over to the highest satellite if that one holds
    the threshold, else goes into an outage, from which the highest
    satellite is acquired once it clears the threshold plus the
    hysteresis, so a satellite at the mask edge does not toggle access.
    Satellites within ``_TIE_DEG`` of the highest are tied, and the lowest
    id among them is taken.

    The route is evaluated once per step.  Steps go in blocks of
    ``_BLOCK_SPAN_S``, blocks in passes of up to ``_PASS_ANGLES``
    (satellite, block) cosines, and a pass's rows in chunks of about
    ``_CHUNK_PAIRS`` (row, candidate) pairs, whose elevations come from the
    cosines of their central angles; `_scan_chunk` applies the rule to a
    chunk by event.  The full geometry is then computed for the served
    satellite only.  More than ``MAX_STEPS`` steps are a ConfigError on
    ``step_s`` before any work.
    """
    if step_s <= 0:
        raise ValueError("step_s must be > 0")
    # compared before the floor, which fails on the infinite span of a
    # subnormal step
    span = scenario.duration_s / step_s + 1e-9
    if span >= MAX_STEPS + 1:
        raise ConfigError(
            f"a {scenario.duration_s:g} s flight at a {step_s:g} s step exceeds the budget "
            f"of {MAX_STEPS} access steps", field="step_s")
    n_steps = int(math.floor(span))

    a = scenario.constellation.orbit_radius_km
    n_rate = mean_motion(a)
    inclination, raan, phase = _shell_angles(scenario.constellation)
    # (satellites x 6), a row per satellite
    w = np.ascontiguousarray(_epoch_directions(
        np.radians(inclination), np.radians(raan), np.radians(phase)).reshape(6, -1).T)

    times = np.arange(n_steps, dtype=float) * step_s
    # rows: the Earth's rotation angle and the orbit's, n t
    angle = np.multiply.outer((EARTH_ROTATION_RATE, n_rate), times)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    up, obs_radius, obs_vel = scenario.route.state(times)
    # each step's zenith turned into the inertial frame, times cos(n t) and
    # sin(n t), as a (steps x 6) matrix: a satellite's row of w dotted with
    # a step's row of zen is the cosine of their Earth central angle
    up_eci = _rotate_to_ecef(up, cos_a[0], -sin_a[0])
    zen = np.empty((n_steps, 6))
    np.multiply(up_eci, cos_a[1], out=zen[:, :3].T)
    np.multiply(up_eci, sin_a[1], out=zen[:, 3:].T)

    threshold = scenario.handover_threshold_deg
    # hysteresis >= 0, so candidates for the threshold cover acquisitions
    acquire = threshold + scenario.handover_hysteresis_deg
    # largest angular rate of a satellite direction in the Earth-fixed frame
    sweep_rate = n_rate + EARTH_ROTATION_RATE
    rows = max(1, int(_BLOCK_SPAN_S / step_s))
    per_pass = rows * max(1, _PASS_ANGLES // len(w))
    sat_id = np.full(n_steps, -1, dtype=int)
    current = -1
    for lo in range(0, n_steps, per_pass):
        hi = min(n_steps, lo + per_pass)
        starts = np.arange(lo, hi, rows)
        ends = np.minimum(starts + rows, hi)
        # Earth central angle of every satellite at each block's middle
        # row.  At any row of the block it is at least this minus the
        # satellite's drift and the aircraft's move (triangle inequality),
        # and elevation falls as it grows, so a satellite beyond `reach` +
        # drift + move stays under the threshold on every row of the
        # block; `reach` uses the block's lowest aircraft.  Its cosine is
        # one (satellites x 6) @ (6 x blocks) product, compared as soon as
        # it is made so that the chunks do not hold it, and `keep` is
        # (satellites x blocks).
        mid = (starts + ends - 1) // 2
        drift = np.minimum(sweep_rate * np.maximum(times[mid] - times[starts],
                                                   times[ends - 1] - times[mid]), math.pi)
        up_cos = np.minimum.reduceat(
            _dot(up.take(mid.repeat(ends - starts), axis=1), up[:, lo:hi]), starts - lo)
        up_move = np.arccos(up_cos.clip(-1.0, 1.0))
        reach = math.radians(90.0 - threshold) - np.arcsin(np.minimum(
            1.0, np.minimum.reduceat(obs_radius[lo:hi], starts - lo)
            * math.cos(math.radians(threshold)) / a))
        bound = reach + drift + up_move + _CANDIDATE_MARGIN_RAD
        keep = w @ zen[mid].T >= np.where(bound < math.pi, np.cos(bound), -np.inf)
        # the (satellite, block) of every candidate, satellite-major, from one
        # scan that the chunks share: a boolean matrix's indices come from
        # its flat ones, in np.nonzero's order and several times faster
        cand_of, block_of = divmod(keep.ravel().nonzero()[0], len(starts))
        count = np.bincount(block_of, minlength=len(starts))
        # cut the pass into chunks of rows whose pairs fit _CHUNK_PAIRS
        row_pairs = count.repeat(ends - starts)
        chunk = (row_pairs.cumsum() - row_pairs) // _CHUNK_PAIRS
        cuts = ((chunk[1:] != chunk[:-1]).nonzero()[0] + lo + 1).tolist()
        for first, last in zip([lo, *cuts], [*cuts, hi]):
            # the chunk's blocks, cut to its rows, and each candidate of a
            # block on every row of it, satellite-major
            b0, b1 = (first - lo) // rows, (last - 1 - lo) // rows + 1
            in_chunk = (block_of >= b0) & (block_of < b1)
            cand, piece = cand_of[in_chunk], block_of[in_chunk] - b0
            start = np.maximum(starts[b0:b1], first)
            lens = (np.minimum(ends[b0:b1], last) - start).take(piece)
            sat = cand.repeat(lens)
            at = np.arange(sat.size) + (start.take(piece) - lens.cumsum() + lens).repeat(lens)
            # with c the cosine of the central angle and r the aircraft's
            # radius, the satellite is a c - r above the horizon plane and
            # sqrt((a - r)^2 + 2 a r (1 - c)) away
            below = a * (1.0 - np.einsum("ij,ij->i", w.take(sat, axis=0), zen.take(at, axis=0)))
            r = obs_radius.take(at)
            height = a - r
            elevation = np.degrees(np.arcsin(
                ((height - below) / np.sqrt(height ** 2 + 2.0 * r * below)).clip(-1.0, 1.0)))
            current = _scan_chunk(at - first, sat, elevation, sat_id[first:last],
                                  current, threshold, acquire)

    served = (sat_id >= 0).nonzero()[0]
    cos_a, sin_a = cos_a.take(served, axis=1), sin_a.take(served, axis=1)
    pos, vel = _eci_state(a, n_rate, w.T.take(sat_id.take(served), axis=1), cos_a[1], sin_a[1])
    pos, vel = _rotate_to_ecef(pos, cos_a[0], sin_a[0]), _rotate_to_ecef(vel, cos_a[0], sin_a[0])
    up, obs_vel = up.take(served, axis=1), obs_vel.take(served, axis=1)
    rel = pos - obs_radius.take(served) * up
    # Earth-fixed velocity: the rotated inertial one minus omega x r
    v_rel = (vel[0] + EARTH_ROTATION_RATE * pos[1] - obs_vel[0],
             vel[1] - EARTH_ROTATION_RATE * pos[0] - obs_vel[1], vel[2] - obs_vel[2])
    view = np.full((4, n_steps), np.nan)   # elevation, azimuth, range, range rate
    for column, values in zip(view, _view(rel, v_rel, up)):
        column[served] = values
    return AccessTimeline(times, sat_id, *view, doppler_khz(view[3], scenario.phy.carrier_ghz))
