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
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .blades import RotorSpec
from .constants import EARTH_RADIUS
from .errors import ConfigError, ScenarioFormatError, UnknownReferenceError
from .linkbudget import LossModel
from .phy import Mcs, PhyConfig, validate_channel

BANDS = ("S", "Ku", "Ka")
DIRECTIONS = ("uplink", "downlink")
ANTENNA_POSITIONS = ("main_body", "under_blades")
PATTERNS = ("single", "star", "delta")

# degrees of latitude per km on the spherical Earth
_DEG_PER_KM = 180.0 / (math.pi * EARTH_RADIUS)


# === aircraft ===

@dataclass(frozen=True)
class AircraftSpec:
    """An aircraft terminal: airframe, antenna and radio front end.

    ``tx_power_dbw`` and ``rx_gain_over_t_dbk`` are calibration inputs:
    the terminals in the built-in catalog carry values back-solved from
    the reference link budgets rather than manufacturer data.
    """

    name: str
    antenna_type: str                   # free text: patch, phased array, ...
    steerable: bool
    band: str
    bandwidth_mhz: float
    beamwidth_deg: tuple[float, float]  # (min, max); equal for a fixed width
    max_gain_dbi: float
    position: str                       # main_body or under_blades
    tx_power_dbw: float | None = None
    rx_noise_temp_k: float = 400.0
    rx_gain_over_t_dbk: float | None = None
    rotor: RotorSpec | None = None
    boresight_elevation_deg: float = 90.0   # fixed antennas only
    boresight_azimuth_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.band not in BANDS:
            raise ConfigError(f"unknown band {self.band!r} (choose from {BANDS})",
                              field="band")
        if self.position not in ANTENNA_POSITIONS:
            raise ConfigError(
                f"unknown antenna position {self.position!r} "
                f"(choose from {ANTENNA_POSITIONS})",
                field="position")
        if self.bandwidth_mhz <= 0:
            raise ConfigError("bandwidth_mhz must be > 0", field="bandwidth_mhz")
        lo, hi = self.beamwidth_deg
        if not 0 < lo <= hi:
            raise ConfigError("beamwidth_deg must be positive and ordered",
                              field="beamwidth_deg")
        if self.rx_noise_temp_k <= 0:
            raise ConfigError("rx_noise_temp_k must be > 0", field="rx_noise_temp_k")
        if (self.position == "under_blades") != (self.rotor is not None):
            raise ConfigError(
                "a rotor spec is required exactly when the antenna sits "
                "under the blades", field="rotor")

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
    """One satellite communications payload (per band)."""

    band: str
    antenna_type: str
    beams: int
    beam_eirp_dbw: float
    hpbw_deg: float
    gain_over_t_dbk: float

    def __post_init__(self) -> None:
        if self.band not in BANDS:
            raise ConfigError(f"unknown band {self.band!r} (choose from {BANDS})",
                              field="band")
        if self.beams < 1:
            raise ConfigError("beams must be >= 1", field="beams")
        if self.hpbw_deg <= 0:
            raise ConfigError("hpbw_deg must be > 0", field="hpbw_deg")


@dataclass(frozen=True)
class ConstellationSpec:
    """A circular-orbit shell described plane by plane."""

    name: str
    altitude_km: float
    planes: int
    inclinations_deg: tuple[float, ...]   # one per plane
    raans_deg: tuple[float, ...]          # one per plane
    sats_per_plane: int
    pattern: str                          # single, star or delta
    payloads: dict[str, RfPayloadSpec]
    phasing_factor: int = 0
    anomaly_offset_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ConfigError("altitude_km must be > 0", field="altitude_km")
        if self.planes < 1 or self.sats_per_plane < 1:
            raise ConfigError("planes and sats_per_plane must be >= 1",
                              field="planes")
        if len(self.inclinations_deg) != self.planes:
            raise ConfigError("need one inclination per plane",
                              field="inclination_deg")
        if len(self.raans_deg) != self.planes:
            raise ConfigError("need one RAAN per plane", field="raan_deg")
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r} "
                              f"(choose from {PATTERNS})", field="pattern")
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

@dataclass(frozen=True)
class FlightRoute:
    """Aircraft track as timed geodetic waypoints.

    ``points`` rows are (time_s, lat_deg, lon_deg, alt_m), the first at
    time 0 (the start of the flight); positions between waypoints are
    linear in the geodetic coordinates and clamped beyond the ends.
    Longitudes are unwrapped first, so a hop across the antimeridian
    takes the short way round.
    """

    points: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ConfigError("a route needs at least one waypoint", field="points")
        times = [p[0] for p in self.points]
        if times[0] != 0.0:
            # the access timeline starts at t = 0 and runs for duration_s
            raise ConfigError("the first waypoint time must be 0 s", field="points")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("waypoint times must be strictly increasing",
                              field="points")
        for _, lat, lon, alt in self.points:
            if not -90.0 <= lat <= 90.0:
                raise ConfigError("latitude out of [-90, 90]", field="points")
            if alt < 0:
                raise ConfigError("altitude must be >= 0 m", field="points")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        pts = np.asarray(self.points, dtype=float)
        return pts[:, 0], pts[:, 1], np.unwrap(pts[:, 2], period=360.0), pts[:, 3]

    @property
    def duration_s(self) -> float:
        return self.points[-1][0]

    def track(self, times_s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lat_deg, lon_deg, alt_m) arrays at ``times_s`` (clamped to the track).

        Longitudes come back in [-180, 180).
        """
        times, lats, lons, alts = self._arrays
        lon = np.interp(times_s, times, lons)
        # wrap only what is out of range: in-range longitudes stay bit-exact
        outside = (lon < -180.0) | (lon >= 180.0)
        lon = np.where(outside, (lon + 180.0) % 360.0 - 180.0, lon)
        return np.interp(times_s, times, lats), lon, np.interp(times_s, times, alts)

    def position(self, t: float) -> tuple[float, float, float]:
        """(lat_deg, lon_deg, alt_m) at time ``t`` (clamped to the track)."""
        lat, lon, alt = self.track(t)
        return float(lat), float(lon), float(alt)


def loiter_route(
    center_lat_deg: float,
    center_lon_deg: float,
    altitude_m: float,
    radius_km: float,
    speed_ms: float,
    duration_s: float,
    waypoint_interval_s: float = 5.0,
    start_bearing_deg: float = 0.0,
) -> FlightRoute:
    """Circular loiter around a fixed center, sampled as waypoints.

    The aircraft flies the circle at constant ground speed; waypoints
    are dense enough (default 5 s) that linear interpolation between
    them stays smooth for range-rate purposes.
    """
    if radius_km <= 0 or speed_ms <= 0:
        raise ConfigError("radius_km and speed_ms must be > 0", field="flight")
    if duration_s < 0:
        raise ConfigError("duration must be >= 0", field="flight")
    omega = (speed_ms / 1000.0) / radius_km  # rad/s along the circle
    n = max(1, math.ceil(duration_s / waypoint_interval_s)) + 1
    times = np.arange(n) * waypoint_interval_s
    theta = np.radians(start_bearing_deg) + omega * times
    dlat = radius_km * _DEG_PER_KM * np.cos(theta)
    dlon = radius_km * _DEG_PER_KM * np.sin(theta) / math.cos(math.radians(center_lat_deg))
    points = tuple(
        (float(t), float(center_lat_deg + la), float(center_lon_deg + lo), float(altitude_m))
        for t, la, lo in zip(times, dlat, dlon)
    )
    return FlightRoute(points)


# === scenarios ===

@dataclass(frozen=True)
class ScenarioSpec:
    """One flight over one constellation with one configured link."""

    id: str
    aircraft: AircraftSpec
    constellation: ConstellationSpec
    direction: str                      # uplink or downlink
    band: str
    duration_s: float
    route: FlightRoute
    phy: PhyConfig
    handover_threshold_deg: float
    handover_hysteresis_deg: float = 0.5
    rain_profile: tuple[tuple[float, float], ...] = ()
    margin_db: float = 0.0
    cnr_prime_bandwidth_mhz: float | None = None
    loss_model: LossModel = field(default_factory=LossModel)
    blade_phase_ms: float = 0.0
    randomize_blade_phase: bool = False

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}",
                              field="direction")
        if self.duration_s < 0:
            raise ConfigError("duration must be >= 0", field="duration_s")
        if not 0.0 <= self.handover_threshold_deg < 90.0:
            raise ConfigError("handover_threshold_deg must be in [0, 90)",
                              field="handover_threshold_deg")
        if self.band != self.aircraft.band:
            raise ConfigError(
                f"scenario band {self.band} but aircraft antenna is "
                f"{self.aircraft.band}", field="band")
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
        last = -math.inf
        for t, rate in self.rain_profile:
            if t < last:
                raise ConfigError("rain profile times must be non-decreasing",
                                  field="rain_profile")
            if rate < 0:
                raise ConfigError("rain rates must be >= 0", field="rain_profile")
            last = t
        if self.cnr_prime_bandwidth_mhz is not None and self.cnr_prime_bandwidth_mhz <= 0:
            raise ConfigError("cnr_prime_bandwidth_mhz must be > 0",
                              field="cnr_prime_bandwidth_mhz")
        validate_channel(self.phy, self.direction)
        if self.aircraft.bandwidth_mhz != self.phy.bandwidth_mhz:
            raise ConfigError(
                f"aircraft channel is {self.aircraft.bandwidth_mhz} MHz but the "
                f"PHY carries {self.phy.bandwidth_mhz} MHz", field="bandwidth_mhz")

    @property
    def payload(self) -> RfPayloadSpec:
        return self.constellation.payloads[self.band]

    def rain_rate_at(self, t: float) -> float:
        """Rain rate (mm/h) at flight time ``t`` from the step profile."""
        rate = 0.0
        for start, value in self.rain_profile:
            if t >= start:
                rate = value
            else:
                break
        return rate


@dataclass(frozen=True)
class Catalog:
    """A parsed scenario document."""

    aircraft: dict[str, AircraftSpec]
    constellations: dict[str, ConstellationSpec]
    scenarios: dict[str, ScenarioSpec]


# === JSON parsing ===

def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing required key in {where}", field=key)
    return obj[key]


def _beamwidth(value) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return (float(value), float(value))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (float(value[0]), float(value[1]))
    raise ConfigError("beamwidth_deg must be a number or [min, max]",
                      field="beamwidth_deg")


def _parse_rotor(obj: dict) -> RotorSpec:
    try:
        return RotorSpec(
            n_blades=int(_require(obj, "n_blades", "rotor")),
            blade_width_m=float(_require(obj, "blade_width_m", "rotor")),
            rpm=float(_require(obj, "rpm", "rotor")),
            shaft_offset_m=float(_require(obj, "shaft_offset_m", "rotor")),
            rotor_height_m=float(_require(obj, "rotor_height_m", "rotor")),
            tip_radius_m=float(_require(obj, "tip_radius_m", "rotor")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="rotor") from exc


def _parse_aircraft(name: str, obj: dict) -> AircraftSpec:
    rotor = obj.get("rotor")
    return AircraftSpec(
        name=name,
        antenna_type=_require(obj, "antenna_type", name),
        steerable=bool(_require(obj, "steerable", name)),
        band=_require(obj, "band", name),
        bandwidth_mhz=float(_require(obj, "bandwidth_mhz", name)),
        beamwidth_deg=_beamwidth(_require(obj, "beamwidth_deg", name)),
        max_gain_dbi=float(_require(obj, "max_gain_dbi", name)),
        position=_require(obj, "position", name),
        tx_power_dbw=None if obj.get("tx_power_dbw") is None else float(obj["tx_power_dbw"]),
        rx_noise_temp_k=float(obj.get("rx_noise_temp_k", 400.0)),
        rx_gain_over_t_dbk=(None if obj.get("rx_gain_over_t_dbk") is None
                            else float(obj["rx_gain_over_t_dbk"])),
        rotor=None if rotor is None else _parse_rotor(rotor),
        boresight_elevation_deg=float(obj.get("boresight_elevation_deg", 90.0)),
        boresight_azimuth_deg=float(obj.get("boresight_azimuth_deg", 0.0)),
    )


def _per_plane(value, planes: int, key: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * planes
    if isinstance(value, (list, tuple)) and len(value) == planes:
        return tuple(float(v) for v in value)
    raise ConfigError(f"must be a number or a list with one entry per plane",
                      field=key)


def _parse_raans(value, planes: int) -> tuple[float, ...]:
    # Explicit per-plane list, or an even spacing rule: a bare number or
    # {"spacing_deg": x, "start_deg": y} lays plane N at y + (N-1)*x.
    if isinstance(value, (list, tuple)):
        if len(value) != planes:
            raise ConfigError("need one RAAN per plane", field="raan_deg")
        return tuple(float(v) for v in value)
    if isinstance(value, (int, float)):
        spacing, start = float(value), 0.0
    elif isinstance(value, dict):
        spacing = float(_require(value, "spacing_deg", "raan_deg"))
        start = float(value.get("start_deg", 0.0))
    else:
        raise ConfigError("raan_deg must be a list, a spacing or a rule object",
                          field="raan_deg")
    return tuple(start + spacing * p for p in range(planes))


def _parse_payload(band: str, obj: dict) -> RfPayloadSpec:
    return RfPayloadSpec(
        band=band,
        antenna_type=_require(obj, "antenna_type", f"payload {band}"),
        beams=int(_require(obj, "beams", f"payload {band}")),
        beam_eirp_dbw=float(_require(obj, "beam_eirp_dbw", f"payload {band}")),
        hpbw_deg=float(_require(obj, "hpbw_deg", f"payload {band}")),
        gain_over_t_dbk=float(_require(obj, "gain_over_t_dbk", f"payload {band}")),
    )


def _parse_constellation(name: str, obj: dict) -> ConstellationSpec:
    planes = int(_require(obj, "planes", name))
    payloads = {band: _parse_payload(band, p)
                for band, p in _require(obj, "payloads", name).items()}
    return ConstellationSpec(
        name=name,
        altitude_km=float(_require(obj, "altitude_km", name)),
        planes=planes,
        inclinations_deg=_per_plane(_require(obj, "inclination_deg", name),
                                    planes, "inclination_deg"),
        raans_deg=_parse_raans(obj.get("raan_deg", 0.0), planes),
        sats_per_plane=int(_require(obj, "sats_per_plane", name)),
        pattern=_require(obj, "pattern", name),
        payloads=payloads,
        phasing_factor=int(obj.get("phasing_factor", 0)),
        anomaly_offset_deg=float(obj.get("anomaly_offset_deg", 0.0)),
    )


def _parse_route(obj: dict, scenario_id: str) -> FlightRoute:
    kind = _require(obj, "type", f"{scenario_id}.flight")
    if kind == "waypoints":
        pts = _require(obj, "points", f"{scenario_id}.flight")
        return FlightRoute(tuple(tuple(float(x) for x in p) for p in pts))
    if kind == "loiter":
        return loiter_route(
            center_lat_deg=float(_require(obj, "center_lat_deg", "flight")),
            center_lon_deg=float(_require(obj, "center_lon_deg", "flight")),
            altitude_m=float(_require(obj, "altitude_m", "flight")),
            radius_km=float(_require(obj, "radius_km", "flight")),
            speed_ms=float(_require(obj, "speed_ms", "flight")),
            duration_s=float(_require(obj, "duration_s", "flight")),
            waypoint_interval_s=float(obj.get("waypoint_interval_s", 5.0)),
            start_bearing_deg=float(obj.get("start_bearing_deg", 0.0)),
        )
    raise ConfigError(f"unknown flight type {kind!r} (waypoints or loiter)",
                      field="flight.type")


def _parse_mcs(obj: dict) -> Mcs:
    return Mcs(
        modulation=_require(obj, "modulation", "mcs"),
        code_rate=float(_require(obj, "code_rate", "mcs")),
        coding_gain_db=float(obj.get("coding_gain_db", 6.0)),
    )


def _parse_phy(obj: dict) -> PhyConfig:
    return PhyConfig(
        carrier_ghz=float(_require(obj, "carrier_ghz", "phy")),
        bandwidth_mhz=float(_require(obj, "bandwidth_mhz", "phy")),
        scs_khz=int(_require(obj, "scs_khz", "phy")),
        n_rb=int(_require(obj, "n_rb", "phy")),
        mcs=_parse_mcs(_require(obj, "mcs", "phy")),
        ntn_band=obj.get("ntn_band"),
        overhead=float(obj.get("overhead", 0.0)),
    )


def _parse_loss_model(obj: dict | None) -> LossModel:
    if obj is None:
        return LossModel()
    overrides = {k: float(v) for k, v in obj.items() if k != "bands"}
    if "bands" in obj:
        overrides["bands"] = {name: {k: float(v) for k, v in params.items()}
                              for name, params in obj["bands"].items()}
    return LossModel().with_overrides(overrides)


def _parse_scenario(obj: dict, catalog_aircraft: dict, catalog_constellations: dict) -> ScenarioSpec:
    sid = _require(obj, "id", "scenario")
    aircraft_name = _require(obj, "aircraft", sid)
    if aircraft_name not in catalog_aircraft:
        raise UnknownReferenceError(
            f"scenario {sid} references undefined aircraft {aircraft_name!r}",
            field="aircraft")
    constellation_name = _require(obj, "constellation", sid)
    if constellation_name not in catalog_constellations:
        raise UnknownReferenceError(
            f"scenario {sid} references undefined constellation "
            f"{constellation_name!r}", field="constellation")
    duration_s = float(_require(obj, "duration_h", sid)) * 3600.0
    flight = dict(_require(obj, "flight", sid))
    if flight.get("type") == "loiter":
        flight.setdefault("duration_s", duration_s)
    return ScenarioSpec(
        id=sid,
        aircraft=catalog_aircraft[aircraft_name],
        constellation=catalog_constellations[constellation_name],
        direction=_require(obj, "direction", sid),
        band=_require(obj, "band", sid),
        duration_s=duration_s,
        route=_parse_route(flight, sid),
        phy=_parse_phy(_require(obj, "phy", sid)),
        handover_threshold_deg=float(_require(obj, "handover_threshold_deg", sid)),
        handover_hysteresis_deg=float(obj.get("handover_hysteresis_deg", 0.5)),
        rain_profile=tuple((float(t), float(r))
                           for t, r in obj.get("rain_profile", [])),
        margin_db=float(obj.get("margin_db", 0.0)),
        cnr_prime_bandwidth_mhz=(None if obj.get("cnr_prime_bandwidth_mhz") is None
                                 else float(obj["cnr_prime_bandwidth_mhz"])),
        loss_model=_parse_loss_model(obj.get("loss_model")),
        blade_phase_ms=float(obj.get("blade_phase_ms", 0.0)),
        randomize_blade_phase=bool(obj.get("randomize_blade_phase", False)),
    )


def parse_catalog(doc: dict) -> Catalog:
    """Build a validated catalog from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    aircraft = {name: _parse_aircraft(name, spec)
                for name, spec in doc.get("aircraft", {}).items()}
    constellations = {name: _parse_constellation(name, spec)
                      for name, spec in doc.get("constellations", {}).items()}
    scenarios: dict[str, ScenarioSpec] = {}
    for obj in doc.get("scenarios", []):
        spec = _parse_scenario(obj, aircraft, constellations)
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


_BUILTIN: Catalog | None = None


def builtin_catalog() -> Catalog:
    """The packaged reference catalog (parsed once per process)."""
    global _BUILTIN
    if _BUILTIN is None:
        text = resources.files("rwasim").joinpath("data/builtin.json").read_text()
        _BUILTIN = parse_catalog(json.loads(text))
    return _BUILTIN


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

def _rotor_to_dict(rotor: RotorSpec) -> dict:
    return {
        "n_blades": rotor.n_blades,
        "blade_width_m": rotor.blade_width_m,
        "rpm": rotor.rpm,
        "shaft_offset_m": rotor.shaft_offset_m,
        "rotor_height_m": rotor.rotor_height_m,
        "tip_radius_m": rotor.tip_radius_m,
    }


def _aircraft_to_dict(a: AircraftSpec) -> dict:
    lo, hi = a.beamwidth_deg
    return {
        "antenna_type": a.antenna_type,
        "steerable": a.steerable,
        "band": a.band,
        "bandwidth_mhz": a.bandwidth_mhz,
        "beamwidth_deg": lo if lo == hi else [lo, hi],
        "max_gain_dbi": a.max_gain_dbi,
        "position": a.position,
        "tx_power_dbw": a.tx_power_dbw,
        "rx_noise_temp_k": a.rx_noise_temp_k,
        "rx_gain_over_t_dbk": a.rx_gain_over_t_dbk,
        "rotor": None if a.rotor is None else _rotor_to_dict(a.rotor),
        "boresight_elevation_deg": a.boresight_elevation_deg,
        "boresight_azimuth_deg": a.boresight_azimuth_deg,
    }


def _constellation_to_dict(c: ConstellationSpec) -> dict:
    return {
        "altitude_km": c.altitude_km,
        "planes": c.planes,
        "inclination_deg": list(c.inclinations_deg),
        "raan_deg": list(c.raans_deg),
        "sats_per_plane": c.sats_per_plane,
        "pattern": c.pattern,
        "phasing_factor": c.phasing_factor,
        "anomaly_offset_deg": c.anomaly_offset_deg,
        "payloads": {
            band: {
                "antenna_type": p.antenna_type,
                "beams": p.beams,
                "beam_eirp_dbw": p.beam_eirp_dbw,
                "hpbw_deg": p.hpbw_deg,
                "gain_over_t_dbk": p.gain_over_t_dbk,
            }
            for band, p in c.payloads.items()
        },
    }


def serialize_scenario(s: ScenarioSpec) -> dict:
    """Standalone scenario document that loads back to an equal spec."""
    phy = {
        "carrier_ghz": s.phy.carrier_ghz,
        "bandwidth_mhz": s.phy.bandwidth_mhz,
        "scs_khz": s.phy.scs_khz,
        "n_rb": s.phy.n_rb,
        "ntn_band": s.phy.ntn_band,
        "overhead": s.phy.overhead,
        "mcs": {
            "modulation": s.phy.mcs.modulation,
            "code_rate": s.phy.mcs.code_rate,
            "coding_gain_db": s.phy.mcs.coding_gain_db,
        },
    }
    loss = {
        "rain_height_km": s.loss_model.rain_height_km,
        "slant_cap_km": s.loss_model.slant_cap_km,
        "bands": {
            name: {
                "zenith_gas_db": b.zenith_gas_db,
                "zenith_cloud_db": b.zenith_cloud_db,
                "rain_k": b.rain_k,
                "rain_alpha": b.rain_alpha,
            }
            for name, b in s.loss_model.bands.items()
        },
    }
    return {
        "aircraft": {s.aircraft.name: _aircraft_to_dict(s.aircraft)},
        "constellations": {s.constellation.name: _constellation_to_dict(s.constellation)},
        "scenarios": [{
            "id": s.id,
            "aircraft": s.aircraft.name,
            "constellation": s.constellation.name,
            "direction": s.direction,
            "band": s.band,
            "duration_h": s.duration_s / 3600.0,
            "flight": {"type": "waypoints", "points": [list(p) for p in s.route.points]},
            "phy": phy,
            "handover_threshold_deg": s.handover_threshold_deg,
            "handover_hysteresis_deg": s.handover_hysteresis_deg,
            "rain_profile": [list(p) for p in s.rain_profile],
            "margin_db": s.margin_db,
            "cnr_prime_bandwidth_mhz": s.cnr_prime_bandwidth_mhz,
            "loss_model": loss,
            "blade_phase_ms": s.blade_phase_ms,
            "randomize_blade_phase": s.randomize_blade_phase,
        }],
    }
