"""Scenario catalog: aircraft, constellations, flights and their links.

A scenario document is a JSON object with three top-level keys —
``aircraft``, ``constellations`` and ``scenarios`` — and is fully
self-contained: every scenario references an aircraft and a
constellation defined in the same document.  Units follow the usual
conventions of the field: angles in degrees, constellation altitudes in
km, flight altitudes in m, powers in dBW, bandwidths in MHz.

The built-in catalog (six reference scenarios) ships as package data;
user documents use the same schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .blades import RotorSpec
from .constants import EARTH_RADIUS
from .errors import ConfigError, ScenarioFormatError, UnknownReferenceError, check_domains, domain
from .linkbudget import DEFAULT_BAND_ATMOSPHERE, BandAtmosphere, LossModel
from .phy import PhyConfig, validate_channel

BANDS = ("S", "Ku", "Ka")
DIRECTIONS = ("uplink", "downlink")


# === aircraft ===

@dataclass(frozen=True)
class AircraftSpec:
    """An aircraft terminal: airframe, antenna and radio front end.

    A ``rotor`` puts the antenna under the blades; without one it sits
    on the main body.  ``band`` is the link band and picks the
    constellation's payload.  The boresight angles aim a fixed antenna.

    ``tx_power_dbw`` and ``rx_gain_over_t_dbk`` are calibration inputs:
    the terminals in the built-in catalog carry values back-solved from
    the reference link budgets rather than manufacturer data.
    """

    name: str
    steerable: bool
    band: str
    bandwidth_mhz: float = domain("[5, 400]", "the CNR's noise bandwidth: an NR channel")
    beamwidth_deg: tuple[float, float] = domain("[0.01, 360]", "a big dish's beam to a full turn")
    max_gain_dbi: float = domain("[-50, 100]", "a lossy whip to past the largest dish's 90 dBi")
    tx_power_dbw: float | None = domain("[-60, 60]", "a microwatt to a megawatt", default=None)
    rx_noise_temp_k: float = domain("[1, 1e5]", "no receiver is colder than 1 K", default=400.0)
    rx_gain_over_t_dbk: float | None = domain("[-100, 100]", "max_gain_dbi over rx_noise_temp_k",
                                              default=None)
    rotor: RotorSpec | None = None
    boresight_elevation_deg: float = domain("[-90, 90]", "nadir to zenith", default=90.0)
    boresight_azimuth_deg: float = domain("[-360, 360]", "a turn either way", default=0.0)

    def __post_init__(self) -> None:
        check_domains(self)
        if self.band not in BANDS:
            raise ConfigError(f"unknown band {self.band!r} (choose from {BANDS})",
                              field="band")
        if not (len(self.beamwidth_deg) == 2 and self.beamwidth_deg[0] <= self.beamwidth_deg[1]):
            raise ConfigError("beamwidth_deg must be an ordered (min, max) pair",
                              field="beamwidth_deg")

    @property
    def beamwidth_mid_deg(self) -> float:
        return 0.5 * (self.beamwidth_deg[0] + self.beamwidth_deg[1])

    @property
    def receive_gain_over_t_dbk(self) -> float:
        """Boresight G/T; defaults to max gain over the noise temperature."""
        if self.rx_gain_over_t_dbk is not None:
            return self.rx_gain_over_t_dbk
        return self.max_gain_dbi - 10.0 * math.log10(self.rx_noise_temp_k)

    @property
    def eirp_dbw(self) -> float:
        """Boresight EIRP of the terminal (uplink scenarios)."""
        if self.tx_power_dbw is None:
            raise ConfigError("tx_power_dbw is not set for this aircraft",
                              field="tx_power_dbw")
        return self.tx_power_dbw + self.max_gain_dbi


# === constellations ===

@dataclass(frozen=True)
class RfPayloadSpec:
    """One satellite communications payload, keyed by its band in a constellation."""

    beam_eirp_dbw: float = domain("[-100, 100]", "0.1 pW to 10 GW; satellites reach 70 dBW")
    gain_over_t_dbk: float = domain("[-100, 100]", "a gain in [-50, 100] dBi over [1, 1e5] K")

    def __post_init__(self) -> None:
        check_domains(self)


# Most satellites one shell may hold.  Resolving a shell and building its
# access timeline peak at 121 to 144 bytes a satellite with 500 a plane
# and at 312 to 317 with one, whose per-plane tuples cost the rest
# (`tracemalloc`: shells at 550 and 35,786 km under a 0 deg mask, at a
# 10 s step), so the budget keeps a shell under about 1.3 GB.  More are a
# ConfigError on planes or sats_per_plane.
MAX_SATELLITES = 4_000_000


@dataclass(frozen=True)
class ConstellationSpec:
    """A circular-orbit shell described plane by plane."""

    name: str
    altitude_km: float = domain("[100, 384400]", "above the Karman line, below the Moon")
    planes: int = domain("[1, inf)", "at least one; MAX_SATELLITES bounds the shell")
    inclinations_deg: tuple[float, ...] = domain(
        "[0, 180]", "one per plane, prograde to retrograde", "inclination_deg")
    raans_deg: tuple[float, ...] = domain(
        "[-3600, 3600]", "one per plane, in ten turns: a spacing rule passes 360", "raan_deg")
    sats_per_plane: int = domain("[1, inf)", "at least one; MAX_SATELLITES bounds the shell")
    payloads: dict[str, RfPayloadSpec]
    phasing_factor: int = domain(f"[0, {MAX_SATELLITES})", "Walker's F is below P", default=0)
    anomaly_offset_deg: float = domain("[-360, 360]", "a turn either way", default=0.0)

    def __post_init__(self) -> None:
        # the shell's size first: a spacing rule lays a million planes past any RAAN bound
        if self.total_sats > MAX_SATELLITES:
            raise ConfigError(
                f"{self.planes} planes of {self.sats_per_plane} satellites exceed the budget of "
                f"{MAX_SATELLITES} satellites",
                field="planes" if self.planes > MAX_SATELLITES else "sats_per_plane")
        check_domains(self)
        if len(self.inclinations_deg) != self.planes:
            raise ConfigError("need one inclination per plane",
                              field="inclination_deg")
        if len(self.raans_deg) != self.planes:
            raise ConfigError("need one RAAN per plane", field="raan_deg")
        for band in self.payloads:
            if band not in BANDS:
                raise ConfigError(f"unknown payload band {band!r}",
                                  field="payloads")

    @property
    def total_sats(self) -> int:
        return self.planes * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS + self.altitude_km


# === flight routes ===

# Consecutive waypoints whose directions from the Earth's centre are this
# close to opposite (rad, about 6 mm on the ground) leave the great circle
# between them undefined
_ANTIPODAL_RAD = 1e-9


def _unit_vectors(lat_deg, lon_deg) -> np.ndarray:
    """Earth-fixed unit vectors (3, ...) toward geodetic latitudes and longitudes."""
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    cos_lat = np.cos(lat)
    return np.array([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)])


@dataclass(frozen=True, eq=False)
class FlightRoute:
    """Aircraft track as timed geodetic waypoints.

    ``points`` is a read-only float (n, 4) array of (time_s, lat_deg,
    lon_deg, alt_m) rows, the first at time 0 (the start of the flight).
    Between two waypoints the aircraft flies the great circle through
    them at a constant angular rate, its altitude linear in time, so a
    leg across the antimeridian or over a pole takes the short way; before
    the first and after the last waypoint it holds still there.
    """

    points: np.ndarray = domain(columns=(
        ("time_s", "[0, inf)", "the flight's clock, from 0 at its start"),
        ("lat_deg", "[-90, 90]", "pole to pole"),
        ("lon_deg", "[-360, 360]", "a turn either way"),
        ("alt_m", "[0, 100000]", "below the Karman line, where altitude_km starts")))

    def __post_init__(self) -> None:
        check_domains(self)
        points = np.array(self.points, dtype=float).reshape(-1, 4)
        if len(points) == 0:
            raise ConfigError("a route needs at least one waypoint", field="points")
        times = points[:, 0]
        if times[0] != 0.0:
            # the access timeline starts at t = 0 and runs for duration_s
            raise ConfigError("the first waypoint time must be 0 s", field="points")
        if np.any(times[1:] <= times[:-1]):
            raise ConfigError("waypoint times must be strictly increasing",
                              field="points")
        ends = _unit_vectors(points[:, 1], points[:, 2])
        # |a + b| is the chord from b to the antipode of a
        if np.any(np.linalg.norm(ends[:, 1:] + ends[:, :-1], axis=0) < _ANTIPODAL_RAD):
            raise ConfigError("consecutive waypoints are antipodal, so the great circle "
                              "between them is undefined", field="points")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        self.__dict__["_ends"] = ends  # for _legs, which drops them

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlightRoute):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    @cached_property
    def _legs(self) -> np.ndarray:
        """A (10, n + 1) array with a column per leg: its start time (s),
        start direction (3), the unit vector perpendicular to that toward
        its end (3), angular rate (rad/s), start radius (km) and radial
        rate (km/s).  Column 0 holds still at the first waypoint before the
        flight, and column n at the last one after it."""
        times, alt = self.points[:, 0], self.points[:, 3]
        ends = self.__dict__.pop("_ends")  # the waypoints' unit vectors
        start, end = ends[:, :-1], ends[:, 1:]
        cos_angle = np.sum(start * end, axis=0)
        across = end - cos_angle * start
        sin_angle = np.linalg.norm(across, axis=0)
        dt = np.diff(times)
        radius = EARTH_RADIUS + alt / 1000.0
        legs = np.zeros((10, len(times) + 1))
        legs[0, 1:] = times
        legs[1:4, 0], legs[1:4, 1:] = ends[:, 0], ends
        np.divide(across, sin_angle, out=legs[4:7, 1:-1], where=sin_angle > 0)
        legs[7, 1:-1] = np.arctan2(sin_angle, cos_angle) / dt
        legs[8, 0], legs[8, 1:] = radius[0], radius
        legs[9, 1:-1] = np.diff(radius) / dt
        return legs

    @property
    def duration_s(self) -> float:
        return float(self.points[-1, 0])

    @property
    def fastest_turn_rad_s(self) -> float:
        """The fastest leg's angular rate (rad/s) of the up vector; 0 parked."""
        return float(self._legs[7].max())

    def state(self, times_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The aircraft's Earth-fixed state at ``times_s``: its up unit vector
        (3, ...), its distance from the Earth's centre (km) and its velocity
        (3, ...) in km/s.

        One leg lookup and one cosine and sine per time: the velocity is
        the exact derivative of the great-circle motion, and zero before
        the first and from the last waypoint on.
        """
        times_s = np.asarray(times_s, dtype=float)
        leg = self._legs.take(np.searchsorted(self._legs[0, 1:], times_s, side="right"), axis=1)
        t0, start, toward, rate, radius0, radial_rate = (
            leg[0], leg[1:4], leg[4:7], leg[7], leg[8], leg[9])
        elapsed = times_s - t0
        cos_a, sin_a = np.cos(rate * elapsed), np.sin(rate * elapsed)
        up = cos_a * start + sin_a * toward
        radius = radius0 + radial_rate * elapsed
        velocity = (radius * rate) * (cos_a * toward - sin_a * start) + radial_rate * up
        return up, radius, velocity

    def track(self, times_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lat_deg, lon_deg, alt_m) at ``times_s``; longitudes in [-180, 180)."""
        (x, y, z), radius, _ = self.state(times_s)
        lon = np.degrees(np.arctan2(y, x))
        return (np.degrees(np.arctan2(z, np.hypot(x, y))), np.where(lon >= 180.0, lon - 360.0, lon),
                (radius - EARTH_RADIUS) * 1000.0)

    def position(self, t: float) -> tuple[float, float, float]:
        """(lat_deg, lon_deg, alt_m) at time ``t`` (clamped to the track)."""
        lat, lon, alt = self.track(t)
        return float(lat), float(lon), float(alt)


# Most waypoints one loiter may make.  Resolving a loiter and building a
# coarse access timeline over it peak at 224 to 226 bytes a waypoint
# (`tracemalloc`: 200,000 and 400,000 waypoints over the 4,392-satellite
# shell of tools/mega_shell.json at a 600 s step), so the budget keeps a
# loiter under about 1.1 GB.  More are a ConfigError on waypoint_interval_s.
MAX_WAYPOINTS = 5_000_000


@dataclass(frozen=True)
class LoiterSpec:
    """Circular loiter around a fixed center, sampled as waypoints.

    The waypoints lie on the circle of ``radius_km`` (along the ground)
    around the center, clockwise from ``start_bearing_deg``, one every
    ``waypoint_interval_s`` and the last at ``duration_s``.  They are
    spaced so that each great-circle leg between them is ``speed_ms``
    times its time long at the flight altitude: the aircraft flies at
    ``speed_ms`` throughout, near a pole too.
    """

    center_lat_deg: float = domain("[-90, 90]", "pole to pole")
    center_lon_deg: float = domain("[-360, 360]", "a turn either way")
    altitude_m: float = domain("[0, 100000]", "below the Karman line, where altitude_km starts")
    radius_km: float = domain("[0.001, 1000]", "a 1 m circle to one 2000 km across")
    speed_ms: float = domain("[0.1, 340]", "a crawl to Mach 1; the fastest rotorcraft flew 131 m/s")
    duration_s: float = domain("[0, inf)", "the scenario's unless given; MAX_WAYPOINTS bounds it")
    waypoint_interval_s: float = domain("[0.001, 86400]", "a millisecond to a day", default=5.0)
    start_bearing_deg: float = domain("[-360, 360]", "a turn either way", default=0.0)

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def route(self) -> FlightRoute:
        duration, interval = self.duration_s, self.waypoint_interval_s
        # compared before the ceiling: at most MAX_WAYPOINTS - 1 intervals and the end
        if duration / interval > MAX_WAYPOINTS - 1:
            raise ConfigError(
                f"a {duration:g} s loiter at a {interval:g} s waypoint interval exceeds the "
                f"budget of {MAX_WAYPOINTS} waypoints", field="waypoint_interval_s")
        # at least the time 0, which a duration too short for the quotient to
        # reach 1 (it may underflow to 0) would otherwise leave out
        times = np.arange(max(1, math.ceil(duration / interval))) * interval
        times = np.append(times[times < duration], duration)
        radius_rad = self.radius_km / EARTH_RADIUS
        cos_r, sin_r = math.cos(radius_rad), math.sin(radius_rad)
        # each leg's central angle is its length at the flight altitude, and two
        # points of the circle whose bearings from the center differ by b are
        # 2 asin(sin(radius_rad) sin(b / 2)) apart
        half_leg = np.diff(times) * self.speed_ms / (2000.0 * EARTH_RADIUS + 2.0 * self.altitude_m)
        sin_half_turn = np.sin(half_leg) / abs(sin_r)
        if np.any(sin_half_turn > 1.0):
            raise ConfigError("a leg of speed_ms x waypoint_interval_s must fit across the "
                              "circle", field="waypoint_interval_s")
        bearing = math.radians(self.start_bearing_deg) + np.concatenate(
            [[0.0], np.cumsum(2.0 * np.arcsin(sin_half_turn))])
        # the destination-point formula, radius_rad from the center at each
        # bearing, without its common factor cos(center latitude), so that it
        # holds at a pole too: `along` is the component toward the center's
        # meridian in the equatorial plane, `east` the one across it
        lat0 = math.radians(self.center_lat_deg)
        cos_bearing = np.cos(bearing)
        along = cos_r * math.cos(lat0) - sin_r * math.sin(lat0) * cos_bearing
        east = sin_r * np.sin(bearing)
        up = cos_r * math.sin(lat0) + sin_r * math.cos(lat0) * cos_bearing
        lon = (self.center_lon_deg + np.degrees(np.arctan2(east, along)) + 180.0) % 360.0 - 180.0
        lat = np.degrees(np.arctan2(up, np.hypot(along, east)))
        return FlightRoute(np.column_stack([times, lat, lon, np.full(len(times), self.altitude_m)]))


# === scenarios ===

@dataclass(frozen=True)
class ScenarioSpec:
    """One flight over one constellation with one configured link."""

    id: str
    aircraft: AircraftSpec
    constellation: ConstellationSpec
    direction: str                      # uplink or downlink
    duration_s: float = domain("[0, inf)", "no flight ends before it starts; MAX_STEPS bounds it")
    route: FlightRoute
    phy: PhyConfig
    handover_threshold_deg: float = domain("[0, 90)", "an elevation mask below the zenith")
    handover_hysteresis_deg: float = domain(
        "[0, 90]", "below 0 it acquires under the mask; 90 spans the sky", default=0.5)
    rain_profile: tuple[tuple[float, float], ...] = domain(columns=(
        ("start_s", "[0, inf)", "flight time; a step from 0 holds from the start"),
        ("mm_per_h", "[0, 1900]", "dry to the world record, 31.2 mm in a minute")), default=())
    margin_db: float = domain("[-100, 100]", "a lumped loss, a gain if negative", default=0.0)
    cnr_prime_bandwidth_mhz: float | None = domain("[1e-6, 1e4]", "1 Hz to 10 GHz", default=None)
    loss_model: LossModel = field(default_factory=LossModel)
    blade_phase_ms: float = domain("[-60000, 60000]", "a 1 rpm turn either way", default=0.0)
    randomize_blade_phase: bool = False

    def __post_init__(self) -> None:
        check_domains(self)
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}",
                              field="direction")
        if self.band not in self.constellation.payloads:
            raise ConfigError(
                f"constellation {self.constellation.name} has no {self.band} "
                "payload", field="band")
        if self.direction == "uplink" and self.aircraft.tx_power_dbw is None:
            raise ConfigError("uplink scenarios need aircraft tx_power_dbw",
                              field="tx_power_dbw")
        if self.route.duration_s < self.duration_s:
            raise ConfigError("route is shorter than the scenario duration",
                              field="flight")
        if np.any(np.diff(np.array(self.rain_profile, dtype=float).reshape(-1, 2)[:, 0]) < 0):
            raise ConfigError("rain profile times must be non-decreasing",
                              field="rain_profile")
        validate_channel(self.phy, self.direction)
        if self.aircraft.bandwidth_mhz != self.phy.bandwidth_mhz:
            raise ConfigError(
                f"aircraft channel is {self.aircraft.bandwidth_mhz} MHz but the "
                f"PHY carries {self.phy.bandwidth_mhz} MHz", field="bandwidth_mhz")

    @property
    def band(self) -> str:
        """The link band: the aircraft antenna's."""
        return self.aircraft.band

    @property
    def payload(self) -> RfPayloadSpec:
        return self.constellation.payloads[self.band]

    def rain_rate_at(self, t):
        """Rain rate (mm/h) at flight time(s) ``t`` from the step profile.

        The last step starting at or before ``t`` wins, also among steps
        with equal start times; before the first step the rate is 0.
        """
        profile = np.array(self.rain_profile, dtype=float).reshape(-1, 2)
        rates = np.concatenate(([0.0], profile[:, 1]))
        return rates[np.searchsorted(profile[:, 0], t, side="right")]


@dataclass(frozen=True)
class Catalog:
    """A parsed scenario document."""

    aircraft: dict[str, AircraftSpec]
    constellations: dict[str, ConstellationSpec]
    scenarios: dict[str, ScenarioSpec]


# === JSON parsing ===

def _require(obj: dict, key: str, where: str, kind=None):
    """``obj[key]``, read as a field annotated ``kind`` when that is given."""
    if key not in obj:
        raise ConfigError(f"missing required key in {where}", field=key)
    return obj[key] if kind is None else _read(obj[key], key, kind)


def _number(value, field: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``field`` when that fails.

    An ``int`` field takes whole numbers only: 41, 41.0 and "41" load,
    41.9 does not.  NaN and infinities, which ``json`` reads from
    ``NaN`` and ``Infinity``, are rejected, and so are ``true`` and
    ``false``, which Python would read as 1 and 0.
    """
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}", field=field)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected a number, got {value!r}", field=field) from None
    if isinstance(number, float) and not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}", field=field)
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"expected a whole number, got {value!r}", field=field)
    return number


def _object(value, field: str) -> dict:
    """``value`` if it is a JSON object, else a ConfigError naming ``field``."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}", field=field)
    return value


@cache
def _field_types(cls) -> dict:
    """The annotations of ``cls``'s fields as types, not deferred strings."""
    return get_type_hints(cls)


def _read(value, key: str, kind):
    """``value`` read as the JSON form of a field annotated ``kind``.

    Numbers go through ``_number``, a ``bool`` takes JSON true or false,
    a ``str`` a string, a table (an array or a tuple of rows) a list of
    number lists, a nested spec an object, and ``X | None`` null as well.
    """
    args = get_args(kind)
    if type(None) in args:
        if value is None:
            return None
        kind, = (arg for arg in args if arg is not type(None))
    if kind in (float, int):
        return _number(value, key, kind)
    if kind in (bool, str):
        if not isinstance(value, kind):
            expected = "true or false" if kind is bool else "a string"
            raise ConfigError(f"expected {expected}, got {value!r}", field=key)
        return value
    if kind is np.ndarray or get_origin(kind) is tuple:
        if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
            raise ConfigError(f"expected a list of lists of numbers, got {value!r}", field=key)
        return tuple(tuple(_number(x, key) for x in row) for row in value)
    return _build(kind, _object(value, key), key)


def _only(obj: dict, allowed, where: str) -> None:
    """A ConfigError naming the first key of ``obj`` not in ``allowed``."""
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}", field=unknown[0])


# The keys an object may hold besides the fields its parser leaves to
# ``_build``: keys the parser reads itself, and legacy keys it ignores
_OTHER_KEYS = {AircraftSpec: {"beamwidth_deg", "antenna_type", "position"},
               ConstellationSpec: {"planes", "payloads", "inclination_deg", "raan_deg",
                                   "pattern"},
               LossModel: {"bands"},
               RfPayloadSpec: {"antenna_type", "beams", "hpbw_deg", "band"},
               ScenarioSpec: {"id", "aircraft", "constellation", "duration_h", "flight",
                              "loss_model", "band"},
               FlightRoute: {"type"}, LoiterSpec: {"type"}}


def _build(cls, obj: dict, where: str, **given):
    """A ``cls`` from the fields in ``given`` and the rest read from ``obj``.

    Each field not in ``given`` is read under its own name by ``_read``,
    and any other key of ``obj`` not in ``_OTHER_KEYS`` is a ConfigError.
    An absent field takes the dataclass default; an absent field without
    one is a ConfigError naming its key.
    """
    types = _field_types(cls)
    _only(obj, set(types).difference(given) | _OTHER_KEYS.get(cls, set()), where)
    for f in fields(cls):
        if f.name in given:
            continue
        if f.name in obj:
            given[f.name] = _read(obj[f.name], f.name, types[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key in {where}", field=f.name)
    return cls(**given)


def _numbers(value, n: int, key: str) -> tuple[float, ...]:
    """A number repeated ``n`` times, or a list of numbers, as a tuple; the
    spec checks the list's length."""
    if isinstance(value, (int, float)):
        return (_number(value, key),) * n
    if isinstance(value, (list, tuple)):
        return tuple(_number(v, key) for v in value)
    raise ConfigError("must be a number or a list of numbers", field=key)


def _parse_aircraft(name: str, obj: dict) -> AircraftSpec:
    return _build(AircraftSpec, obj, name, name=name,
                  beamwidth_deg=_numbers(_require(obj, "beamwidth_deg", name),
                                         2, "beamwidth_deg"))


def _parse_raans(value, planes: int) -> tuple[float, ...]:
    # Explicit per-plane list, or an even spacing rule: a bare number or
    # {"spacing_deg": x, "start_deg": y} lays plane N at y + (N-1)*x.
    if isinstance(value, (list, tuple)):
        return tuple(_number(v, "raan_deg") for v in value)
    if isinstance(value, (int, float)):
        spacing, start = _number(value, "raan_deg"), 0.0
    elif isinstance(value, dict):
        _only(value, ("spacing_deg", "start_deg"), "raan_deg")
        spacing = _require(value, "spacing_deg", "raan_deg", float)
        start = _number(value.get("start_deg", 0.0), "start_deg")
    else:
        raise ConfigError("raan_deg must be a list, a spacing or a rule object",
                          field="raan_deg")
    return tuple(start + spacing * p for p in range(planes))


def _parse_constellation(name: str, obj: dict) -> ConstellationSpec:
    planes = _require(obj, "planes", name, int)
    if planes > MAX_SATELLITES:  # before the tuples of one value a plane below
        raise ConfigError(f"{planes} planes exceed the budget of {MAX_SATELLITES} satellites",
                          field="planes")
    payloads = {band: _build(RfPayloadSpec, _object(p, "payloads"), f"payload {band}")
                for band, p in _object(_require(obj, "payloads", name), "payloads").items()}
    return _build(
        ConstellationSpec, obj, name, name=name, planes=planes, payloads=payloads,
        inclinations_deg=_numbers(_require(obj, "inclination_deg", name),
                                  planes, "inclination_deg"),
        raans_deg=_parse_raans(obj.get("raan_deg", 0.0), planes),
    )


def _parse_route(obj: dict, scenario_id: str, duration_s: float) -> FlightRoute:
    where = f"{scenario_id}.flight"
    kind = _require(obj, "type", where)
    if kind == "waypoints":
        return _build(FlightRoute, obj, where)
    if kind == "loiter":   # for the scenario's duration unless it gives its own
        return _build(LoiterSpec, {"duration_s": duration_s, **obj}, where).route
    raise ConfigError(f"unknown flight type {kind!r} (waypoints or loiter)",
                      field="flight.type")


def _parse_loss_model(obj: dict | None) -> LossModel:
    """The default model with the keys of ``obj`` replaced; an unknown key is a ConfigError."""
    if obj is None:
        return LossModel()
    bands = {name: _object(params, "bands") for name, params
             in _object(_object(obj, "loss_model").get("bands", {}), "bands").items()}
    # a band entry replaces the coefficients it names; only a link band is ever read
    for name, params in bands.items():
        if name not in BANDS:
            raise ConfigError(f"unknown loss-model band {name!r} (choose from {BANDS})",
                              field="bands")
        base = _plain(DEFAULT_BAND_ATMOSPHERE[name])
        bands[name] = _build(BandAtmosphere, {**base, **params}, f"bands.{name}")
    return _build(LossModel, obj, "loss_model", bands={**DEFAULT_BAND_ATMOSPHERE, **bands})


def _parse_scenario(obj: dict, catalog_aircraft: dict, catalog_constellations: dict) -> ScenarioSpec:
    sid = _require(obj, "id", "scenario", str)
    given = {}
    for key, catalog in (("aircraft", catalog_aircraft),
                         ("constellation", catalog_constellations)):
        name = _require(obj, key, sid, str)
        if name not in catalog:
            raise UnknownReferenceError(
                f"scenario {sid} references undefined {key} {name!r}", field=key)
        given[key] = catalog[name]
    duration_s = _require(obj, "duration_h", sid, float) * 3600.0
    flight = _object(_require(obj, "flight", sid), "flight")
    return _build(ScenarioSpec, obj, sid, id=sid, duration_s=duration_s,
                  route=_parse_route(flight, sid, duration_s),
                  loss_model=_parse_loss_model(obj.get("loss_model")), **given)


def parse_catalog(doc: dict) -> Catalog:
    """Build a validated catalog from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    aircraft = {name: _parse_aircraft(name, _object(spec, "aircraft"))
                for name, spec in _object(doc.get("aircraft", {}), "aircraft").items()}
    constellations = {
        name: _parse_constellation(name, _object(spec, "constellations"))
        for name, spec in _object(doc.get("constellations", {}), "constellations").items()}
    scenario_list = doc.get("scenarios", [])
    if not isinstance(scenario_list, list):
        raise ConfigError("scenarios must be a list", field="scenarios")
    scenarios: dict[str, ScenarioSpec] = {}
    for obj in scenario_list:
        spec = _parse_scenario(_object(obj, "scenarios"), aircraft, constellations)
        if spec.id in scenarios:
            raise ConfigError(f"duplicate scenario id {spec.id!r}", field="id")
        scenarios[spec.id] = spec
    return Catalog(aircraft, constellations, scenarios)


def load_catalog(path: str | Path) -> Catalog:
    """Parse a scenario document from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON in {path}: {exc}") from exc
    return parse_catalog(doc)


@cache
def builtin_catalog() -> Catalog:
    """The packaged reference catalog (parsed once per process)."""
    text = resources.files("rwasim").joinpath("data/builtin.json").read_text()
    return parse_catalog(json.loads(text))


def resolve_scenario(token: str) -> ScenarioSpec:
    """Find a scenario by built-in id or scenario-file path.

    A file must define exactly one scenario; documents with several are
    rejected with the list of ids so the caller can split them.
    """
    builtin = builtin_catalog()
    if token in builtin.scenarios:
        return builtin.scenarios[token]
    path = Path(token)
    if not path.exists():
        raise UnknownReferenceError(
            f"{token!r} is neither a built-in scenario id "
            f"({', '.join(sorted(builtin.scenarios))}) nor a file",
            field="scenario")
    catalog = load_catalog(path)
    if len(catalog.scenarios) != 1:
        raise ConfigError(
            f"{path} defines {len(catalog.scenarios)} scenarios "
            f"({', '.join(sorted(catalog.scenarios))}); exactly one is needed",
            field="scenario")
    return next(iter(catalog.scenarios.values()))


# === serialization ===

def _plain(spec, *omit, **given) -> dict:
    """The JSON object that ``_build`` reads back to ``spec``.

    Each field not in ``omit`` or ``given`` goes under its own name, a
    nested spec as an object; ``given`` holds the keys whose JSON form
    differs from the field's.
    """
    plain = {}
    for f in fields(spec):
        if f.name not in omit and f.name not in given:
            value = getattr(spec, f.name)
            plain[f.name] = _plain(value) if is_dataclass(value) else value
    return {**plain, **given}


def serialize_scenario(s: ScenarioSpec) -> dict:
    """Standalone scenario document that loads back to an equal spec."""
    a, c, loss = s.aircraft, s.constellation, s.loss_model
    lo, hi = a.beamwidth_deg
    return {
        "aircraft": {a.name: _plain(a, "name", beamwidth_deg=lo if lo == hi else [lo, hi])},
        "constellations": {c.name: _plain(
            c, "name", "inclinations_deg", "raans_deg",
            inclination_deg=list(c.inclinations_deg), raan_deg=list(c.raans_deg),
            payloads={band: _plain(p) for band, p in c.payloads.items()})},
        "scenarios": [_plain(
            s, "duration_s", "route", aircraft=a.name, constellation=c.name,
            duration_h=s.duration_s / 3600.0,
            flight={"type": "waypoints", "points": s.route.points.tolist()},
            rain_profile=[list(p) for p in s.rain_profile],
            loss_model=_plain(loss, bands={name: _plain(b) for name, b in loss.bands.items()}),
        )],
    }
