"""Constellation geometry: propagation, frames, look angles, handover.

Orbits are circular two-body tracks around a spherical Earth.  The
inertial frame (ECI) and the rotating Earth-fixed frame (ECEF) share
the z axis; the frames coincide at t = 0 (sidereal angle zero at the
epoch, which is simply the start of the simulated flight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS, EARTH_ROTATION_RATE, MU_EARTH, SPEED_OF_LIGHT
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
# Vectors travel as (x, y, z) tuples of broadcastable arrays, so a
# (steps x satellites) block never grows a third axis.  `propagate`
# wraps them for one satellite, and the access timeline uses them
# directly: there is one propagation path.

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _epoch_directions(inc_rad, raan_rad, u0_rad):
    """Inertial directions of position and velocity at the epoch, (..., 6).

    With p the orbit-plane unit vector toward the ascending node and q the
    one 90 deg ahead, they are ``w1 = cos u0 p + sin u0 q`` and ``w2 =
    cos u0 q - sin u0 p``: at time t a satellite's direction is
    ``cos(n t) w1 + sin(n t) w2``.
    """
    cos_raan, sin_raan = np.cos(raan_rad), np.sin(raan_rad)
    cos_inc = np.cos(inc_rad)
    p = (cos_raan, sin_raan, np.zeros_like(cos_raan))
    q = (-sin_raan * cos_inc, cos_raan * cos_inc, np.sin(inc_rad))
    cos_u0, sin_u0 = np.cos(u0_rad), np.sin(u0_rad)
    return np.stack([cos_u0 * pk + sin_u0 * qk for pk, qk in zip(p, q)]
                    + [cos_u0 * qk - sin_u0 * pk for pk, qk in zip(p, q)], axis=-1)


def _eci_state(a, n, w, cos_n, sin_n):
    """ECI position (km) and velocity (km/s) from epoch directions ``w``
    (6, ...), given cos(n t) and sin(n t)."""
    w1, w2 = w[:3], w[3:]
    return a * (cos_n * w1 + sin_n * w2), a * n * (cos_n * w2 - sin_n * w1)


def _rotate_to_ecef(x, y, z, cos_t, sin_t):
    """Turn inertial vectors into the Earth-fixed frame at sidereal angle t."""
    return x * cos_t + y * sin_t, -x * sin_t + y * cos_t, z


def _view(rel, v_rel, up):
    """Elevation, azimuth (deg), range (km) and range rate (km/s).

    East is the normalised z x up; at an exact pole, where that vanishes,
    it is +y, the east of longitude 0.  North is up x east.
    """
    ux, uy, uz = up
    across = np.hypot(ux, uy)
    east = (np.divide(-uy, across, out=np.zeros_like(across), where=across > 0),
            np.divide(ux, across, out=np.ones_like(across), where=across > 0), 0.0)
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

def expand_constellation(spec: ConstellationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclination, RAAN and argument of latitude at the epoch (deg) of
    every satellite, as columns in plane-major order.

    Satellites are evenly phased within each plane; the Walker phasing
    factor shifts consecutive planes by ``F * 360 / total`` degrees of
    along-track phase.
    """
    per_plane = 360.0 / spec.sats_per_plane
    inter_plane = spec.phasing_factor * 360.0 / spec.total_sats
    phase = (spec.anomaly_offset_deg + np.arange(spec.sats_per_plane) * per_plane
             + np.arange(spec.planes)[:, None] * inter_plane) % 360.0
    return (np.repeat(spec.inclinations_deg, spec.sats_per_plane),
            np.repeat(np.mod(spec.raans_deg, 360.0), spec.sats_per_plane), phase.ravel())


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

    @property
    def served(self) -> np.ndarray:
        return self.sat_id >= 0

    def access_percent(self) -> float:
        if len(self.times_s) == 0:
            return 0.0
        return 100.0 * float(np.count_nonzero(self.served)) / len(self.times_s)

    def handover_count(self) -> int:
        ids = self.sat_id[self.served]
        if len(ids) == 0:
            return 0
        return int(np.count_nonzero(ids[1:] != ids[:-1]))


# Flight time per block of the candidate bound.  Each block's candidates
# are the satellites that can reach the mask over its whole span, so they
# grow with the drift over it, while shorter blocks cost more bounds.  The
# access timelines of the six built-ins at a 4 s step took 18.7, 17.0,
# 15.9, 16.4, 19.7 and 30.3 ms with blocks of 240, 120, 60, 32, 16 and 8 s
# (2-core x86-64, numpy 2.4).
_BLOCK_SPAN_S = 60.0

# Elements of one pass's (satellites x blocks) matrix of central-angle
# cosines: a pass takes as many blocks as fit, at least one.  The same
# timelines took 18.1 ms at 2^13.  Up to 2^15 satellites the product's
# m * n * k stays within 6 * 2^15, under the 4 * 65,536 at which OpenBLAS
# starts threads.
_PASS_ANGLES = 2 ** 15

# (row, candidate) pairs per chunk of the elevation pass: a block's rows
# are cut so that rows times candidates fit, which bounds the chunk's
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
    top = np.flatnonzero(held & (elevation >= highest[row] - _TIE_DEG))
    best = np.full(n_rows, len(row))   # each row's best pair
    np.minimum.at(best, row[top], top)
    acquired = np.flatnonzero(highest >= acquire_deg)
    # a satellite's pairs on consecutive rows have consecutive keys; the stride
    # n_rows + 1 keeps its last row from running into the next one's first
    key = sat * (n_rows + 1) + row
    stop = np.flatnonzero(~held | (np.diff(key, append=-1) != 1))
    # for each pair, the first row after the run of held rows it is in
    run_end = np.repeat(row[stop] + held[stop], np.diff(stop, prepend=-1))
    at = np.searchsorted(key, current * (n_rows + 1))
    i = 0
    end = run_end[at] if current >= 0 and at < len(key) and key[at] == current * (n_rows + 1) else 0
    while True:
        if current >= 0:
            served[i:end] = current
            if end == n_rows:
                return current
            i = end
            if highest[i] < threshold_deg:
                current = -1
                continue
        else:
            k = np.searchsorted(acquired, i)
            if k == len(acquired):
                return -1
            i = acquired[k]
        current, end = sat[best[i]], run_end[best[i]]


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
    (satellite, block) cosines, and a block's rows in chunks of about
    ``_CHUNK_PAIRS`` (row, candidate) pairs, whose elevations come from the
    cosines of their central angles; `_scan_chunk` applies the rule to a
    chunk by event.  The full geometry is then computed for the served
    satellite only.
    """
    if step_s <= 0:
        raise ValueError("step_s must be > 0")
    n_steps = int(math.floor(scenario.duration_s / step_s + 1e-9))

    inclination, raan, phase = expand_constellation(scenario.constellation)
    a = scenario.constellation.orbit_radius_km
    n_rate = mean_motion(a)
    w = _epoch_directions(np.radians(inclination), np.radians(raan), np.radians(phase))

    times = np.arange(n_steps, dtype=float) * step_s
    cos_t, sin_t = np.cos(EARTH_ROTATION_RATE * times), np.sin(EARTH_ROTATION_RATE * times)
    cos_n, sin_n = np.cos(n_rate * times), np.sin(n_rate * times)
    up, obs_radius, obs_vel = scenario.route.state(times)
    # each step's zenith turned into the inertial frame, times cos(n t) and
    # sin(n t), as a (steps x 6) matrix: a satellite's row of w dotted with
    # a step's row of zen is the cosine of their Earth central angle
    up_eci = np.array(_rotate_to_ecef(*up, cos_t, -sin_t))
    zen = np.ascontiguousarray(np.concatenate([up_eci * cos_n, up_eci * sin_n]).T)

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
        starts = np.arange(lo, min(n_steps, lo + per_pass), rows)
        ends = np.minimum(starts + rows, n_steps)
        # Earth central angle of every satellite at each block's middle
        # row.  At any row of the block it is at least this minus the
        # satellite's drift and the aircraft's move (triangle inequality),
        # and elevation falls as it grows, so a satellite beyond `reach` +
        # drift + move stays under the threshold on every row of the
        # block; `reach` uses the block's lowest aircraft.  Its cosine is
        # one (satellites x 6) @ (6 x blocks) product, and `keep` is
        # (satellites x blocks).
        mid = (starts + ends - 1) // 2
        cos_central = w @ zen[mid].T
        drift = np.minimum(sweep_rate * np.maximum(times[mid] - times[starts],
                                                   times[ends - 1] - times[mid]), math.pi)
        up_move = np.arccos(np.clip(np.minimum.reduceat(
            _dot(tuple(c[np.repeat(mid, ends - starts)] for c in up),
                 tuple(c[lo:ends[-1]] for c in up)), starts - lo), -1.0, 1.0))
        reach = math.radians(90.0 - threshold) - np.arcsin(np.minimum(
            1.0, np.minimum.reduceat(obs_radius[lo:ends[-1]], starts - lo)
            * math.cos(math.radians(threshold)) / a))
        bound = reach + drift + up_move + _CANDIDATE_MARGIN_RAD
        keep = cos_central >= np.where(bound < math.pi, np.cos(bound), -np.inf)
        # cut each block into pieces whose rows times candidates fit a chunk
        count = np.count_nonzero(keep, axis=0)
        piece_rows = np.maximum(1, _CHUNK_PAIRS // np.maximum(count, 1))
        pieces = -(-(ends - starts) // piece_rows)
        piece_block = np.repeat(np.arange(len(starts)), pieces)
        piece_first = starts[piece_block] + piece_rows[piece_block] * (
            np.arange(len(piece_block)) - (np.cumsum(pieces) - pieces)[piece_block])
        piece_last = np.minimum(piece_first + piece_rows[piece_block], ends[piece_block])
        pairs = count[piece_block] * (piece_last - piece_first)
        cuts = np.flatnonzero(np.diff((np.cumsum(pairs) - pairs) // _CHUNK_PAIRS)) + 1
        for first, last, block in zip(np.split(piece_first, cuts), np.split(piece_last, cuts),
                                      np.split(piece_block, cuts)):
            # each candidate on every row of its piece, satellite-major
            cand, piece = np.nonzero(keep[:, block])
            lens = (last - first)[piece]
            sat = np.repeat(cand, lens)
            at = np.arange(sat.size) + np.repeat(first[piece] - np.cumsum(lens) + lens, lens)
            # with c the cosine of the central angle and r the aircraft's
            # radius, the satellite is a c - r above the horizon plane and
            # sqrt((a - r)^2 + 2 a r (1 - c)) away
            below = a * (1.0 - np.einsum("ij,ij->i", w.take(sat, axis=0), zen.take(at, axis=0)))
            r = obs_radius[at]
            elevation = np.degrees(np.arcsin(np.clip(
                (a - r - below) / np.sqrt((a - r) ** 2 + 2.0 * r * below), -1.0, 1.0)))
            current = _scan_chunk(at - first[0], sat, elevation, sat_id[first[0]:last[-1]],
                                  current, threshold, acquire)

    served = np.flatnonzero(sat_id >= 0)
    cos_t, sin_t = cos_t[served], sin_t[served]
    sat_pos, sat_vel = _eci_state(a, n_rate, w.T.take(sat_id[served], axis=1), cos_n[served],
                                  sin_n[served])
    sat_pos = _rotate_to_ecef(*sat_pos, cos_t, sin_t)
    vx, vy, vz = _rotate_to_ecef(*sat_vel, cos_t, sin_t)
    # Earth-fixed velocity: the rotated inertial one minus omega x r
    sat_vel = (vx + EARTH_ROTATION_RATE * sat_pos[1], vy - EARTH_ROTATION_RATE * sat_pos[0], vz)
    up = up.take(served, axis=1)
    rel = tuple(s - obs_radius[served] * u for s, u in zip(sat_pos, up))
    v_rel = tuple(s - o for s, o in zip(sat_vel, obs_vel.take(served, axis=1)))
    view = np.full((4, n_steps), np.nan)   # elevation, azimuth, range, range rate
    for column, values in zip(view, _view(rel, v_rel, up)):
        column[served] = values
    return AccessTimeline(times, sat_id, *view, doppler_khz(view[3], scenario.phy.carrier_ghz))
