import json
import math
import tracemalloc
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rwasim import scenarios
from rwasim.blades import RotorSpec
from rwasim.cli import main
from rwasim.constants import EARTH_RADIUS
from rwasim.errors import ConfigError, ScenarioFormatError, UnknownReferenceError
from rwasim.linkbudget import LossModel
from rwasim.phy import Mcs, PhyConfig
from rwasim.scenarios import (
    AircraftSpec,
    ConstellationSpec,
    FlightRoute,
    LoiterSpec,
    RfPayloadSpec,
    ScenarioSpec,
    builtin_catalog,
    load_catalog,
    parse_catalog,
    resolve_scenario,
    serialize_scenario,
)
from spec_domains import (declared_names, domains, holds_numbers, holds_table,
                          run_parameter_domains, spec_classes)

SCENARIO_IDS = {
    "scenario-6", "scenario-7", "scenario-11",
    "scenario-15a", "scenario-15b", "scenario-19",
}


# === built-in catalog ===

def test_builtin_catalog_inventory():
    cat = builtin_catalog()
    assert set(cat.scenarios) == SCENARIO_IDS
    assert set(cat.aircraft) == {"UAV-1", "UAV-2", "UAM", "HELI-Ka", "HELI-Ku"}
    assert set(cat.constellations) == {"GEO", "MEO", "LEO-1", "LEO-2"}


def test_builtin_catalog_is_cached():
    assert builtin_catalog() is builtin_catalog()


def test_builtin_constellation_shapes():
    cat = builtin_catalog()
    geo = cat.constellations["GEO"]
    assert geo.altitude_km == 35786
    assert geo.total_sats == 1
    assert geo.raans_deg == (20.0,)
    assert geo.anomaly_offset_deg == -15.0
    meo = cat.constellations["MEO"]
    assert meo.total_sats == 24
    assert meo.inclinations_deg == (90.0, 90.0, 70.0, 70.0)
    assert meo.raans_deg == (0.0, 90.0, 45.0, 135.0)
    assert cat.constellations["LEO-1"].total_sats == 288
    assert cat.constellations["LEO-2"].total_sats == 264


def test_builtin_raan_spacing_rule_expands():
    # LEO-1 lays its 12 planes out by a 15-degree spacing rule
    leo1 = builtin_catalog().constellations["LEO-1"]
    assert leo1.raans_deg == tuple(15.0 * p for p in range(12))
    leo2 = builtin_catalog().constellations["LEO-2"]
    assert leo2.raans_deg == tuple(30.0 * p for p in range(12))


def test_bare_number_raan_deg_is_a_spacing():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["constellations"]["LEO-2"]["raan_deg"] = 30
    constellation = parse_catalog(doc).scenarios["scenario-6"].constellation
    assert constellation == builtin_catalog().constellations["LEO-2"]


def test_builtin_aircraft_spot_checks():
    cat = builtin_catalog()
    uav2 = cat.aircraft["UAV-2"]
    assert uav2.band == "S"
    assert uav2.max_gain_dbi == 5.15
    assert uav2.rotor is not None and uav2.rotor.n_blades == 3
    uam = cat.aircraft["UAM"]
    assert uam.steerable
    assert uam.rotor is None
    assert uam.beamwidth_deg == (3.2, 4.4)


def test_builtin_scenario_wiring():
    cat = builtin_catalog()
    s7 = cat.scenarios["scenario-7"]
    assert s7.aircraft is cat.aircraft["UAV-2"]
    assert s7.constellation is cat.constellations["LEO-1"]
    assert s7.direction == "uplink"
    assert s7.band == "S"
    assert s7.duration_s == 7200.0
    s15b = cat.scenarios["scenario-15b"]
    assert s15b.band == "Ku"
    assert s15b.constellation.name == "GEO"
    # every route must cover its scenario's duration
    for spec in cat.scenarios.values():
        assert spec.route.duration_s >= spec.duration_s


def test_scenario_payload_property():
    s11 = builtin_catalog().scenarios["scenario-11"]
    assert s11.payload is s11.constellation.payloads["Ka"]


# === aircraft ===

def _aircraft(**overrides) -> AircraftSpec:
    base = dict(
        name="testbed",
        steerable=False,
        band="S",
        bandwidth_mhz=5.0,
        beamwidth_deg=(60.0, 60.0),
        max_gain_dbi=6.0,
        tx_power_dbw=10.0,
    )
    base.update(overrides)
    return AircraftSpec(**base)


def test_receive_gain_over_t_computed_from_noise_temp():
    a = _aircraft(max_gain_dbi=17.33, rx_noise_temp_k=400.0)
    assert a.receive_gain_over_t_dbk == pytest.approx(17.33 - 10 * math.log10(400.0))


def test_receive_gain_over_t_override_wins():
    a = _aircraft(rx_gain_over_t_dbk=0.5)
    assert a.receive_gain_over_t_dbk == 0.5


def test_eirp_sums_power_and_gain():
    assert _aircraft(tx_power_dbw=16.8, max_gain_dbi=17.33).eirp_dbw == pytest.approx(34.13)


def test_eirp_requires_tx_power():
    a = _aircraft(tx_power_dbw=None)
    with pytest.raises(ConfigError):
        a.eirp_dbw


def test_beamwidth_midpoint():
    assert _aircraft(beamwidth_deg=(3.2, 4.4)).beamwidth_mid_deg == pytest.approx(3.8)


def test_aircraft_validation():
    with pytest.raises(ConfigError):
        _aircraft(band="X")
    with pytest.raises(ConfigError):
        _aircraft(bandwidth_mhz=0.0)
    with pytest.raises(ConfigError):
        _aircraft(beamwidth_deg=(10.0, 5.0))
    with pytest.raises(ConfigError):
        _aircraft(rx_noise_temp_k=-1.0)


def test_payload_validation():
    # a payload's band is its key in the constellation, which checks it
    payload = RfPayloadSpec(beam_eirp_dbw=8.0, gain_over_t_dbk=-21.0)
    good = dict(name="t", altitude_km=720.0, planes=1, inclinations_deg=(53.0,),
                raans_deg=(0.0,), sats_per_plane=1)
    ConstellationSpec(**good, payloads={"S": payload})
    with pytest.raises(ConfigError) as err:
        ConstellationSpec(**good, payloads={"L": payload})
    assert err.value.field == "payloads"


def test_constellation_validation():
    payloads = {"S": builtin_catalog().constellations["LEO-2"].payloads["S"]}
    good = dict(name="t", altitude_km=720.0, planes=2,
                inclinations_deg=(53.0, 53.0), raans_deg=(0.0, 180.0),
                sats_per_plane=3, payloads=payloads)
    c = ConstellationSpec(**good)
    assert c.total_sats == 6
    assert c.orbit_radius_km == pytest.approx(EARTH_RADIUS + 720.0)
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "inclinations_deg": (53.0,)})
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "raans_deg": (0.0,)})
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "altitude_km": -5.0})


def _over_budget_doc(kind):
    """scenario-7 as a document whose loiter or shell is over its budget,
    and the field its ConfigError names."""
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
    scenario = doc["scenarios"][0]
    constellation = doc["constellations"][scenario["constellation"]]
    loiter = {"type": "loiter", "center_lat_deg": 45.0, "center_lon_deg": 10.0,
              "altitude_m": 500.0, "radius_km": 15.0, "speed_ms": 35.0,
              "duration_s": scenario["duration_h"] * 3600.0}
    if kind == "tiny-interval":   # asked numpy for 51.2 PiB
        scenario["flight"] = {**loiter, "waypoint_interval_s": 1e-12}
    elif kind == "subnormal-interval":   # an infinite quotient met math.ceil
        scenario["flight"] = {**loiter, "waypoint_interval_s": 5e-324}
    elif kind == "many-planes":   # a tuple of one inclination a plane
        constellation.update(planes=10 ** 15, sats_per_plane=1)
    elif kind == "many-satellites":   # asked numpy for 7.28 TiB
        constellation.update(planes=10 ** 6, sats_per_plane=10 ** 6, inclination_deg=53.0,
                             raan_deg={"spacing_deg": 0.25})
    else:
        constellation.update(sats_per_plane=10 ** 12)
    field = {"tiny-interval": "waypoint_interval_s", "subnormal-interval": "waypoint_interval_s",
             "many-planes": "planes"}.get(kind, "sats_per_plane")
    return doc, field


@pytest.mark.parametrize("kind", ["tiny-interval", "subnormal-interval", "many-planes",
                                  "many-satellites", "many-per-plane"])
def test_over_budget_specs_exit_2_and_write_nothing(tmp_path, capsys, kind):
    doc, field = _over_budget_doc(kind)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--step", "60", "--frames", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # before any array of the spec's size; the million planes of
    # many-satellites build their tuples first, which the budget allows
    if kind != "many-satellites":
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                parse_catalog(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == field
        assert peak < 2**20


def test_spec_budgets_admit_their_limit():
    # at the budget a loiter or a shell goes ahead, one more is an error
    with mock.patch.object(scenarios, "MAX_WAYPOINTS", 11):
        assert len(LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, 100.0, 10.0).route.points) == 11
        with pytest.raises(ConfigError) as err:
            LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, 100.0, 9.9).route
        assert err.value.field == "waypoint_interval_s"
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-19"])   # LEO-2: 12 x 22
    with mock.patch.object(scenarios, "MAX_SATELLITES", 264):
        assert parse_catalog(doc).scenarios["scenario-19"].constellation.total_sats == 264
    for budget, field in ((263, "sats_per_plane"), (11, "planes")):
        with mock.patch.object(scenarios, "MAX_SATELLITES", budget), \
                pytest.raises(ConfigError) as err:
            parse_catalog(doc)
        assert err.value.field == field


# === flight routes ===

def _direction(lat_deg, lon_deg):
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    return np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])


def _central_angle(lat1, lon1, lat2, lon2):
    """Great-circle angle (rad) between two points, by the haversine formula."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    h = (math.sin((phi2 - phi1) / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * math.asin(math.sqrt(h))


def test_route_interpolates_and_clamps():
    route = FlightRoute(((0.0, 50.0, 10.0, 100.0), (100.0, 51.0, 12.0, 300.0)))
    assert route.duration_s == 100.0
    # halfway in time is halfway along the great circle: the direction
    # that bisects the two waypoints', a little poleward of 50.5 deg
    x, y, z = _direction(50.0, 10.0) + _direction(51.0, 12.0)
    midpoint = (math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x)))
    assert midpoint[0] > 50.5
    assert route.position(50.0) == pytest.approx((*midpoint, 200.0), rel=1e-9)
    assert route.position(-20.0) == pytest.approx((50.0, 10.0, 100.0))
    assert route.position(500.0) == pytest.approx((51.0, 12.0, 300.0))


def test_route_crosses_antimeridian_the_short_way():
    route = FlightRoute(((0.0, 10.0, 179.9, 1000.0), (600.0, 10.0, -179.9, 1000.0)))
    assert route.position(150.0)[1] == pytest.approx(179.95)
    assert route.position(450.0)[1] == pytest.approx(-179.95)
    assert route.position(300.0)[1] == pytest.approx(-180.0)


def test_fastest_turn_is_the_fastest_legs_rate():
    # along the equator: 1 deg in 100 s, then 3 deg in 200 s, 1.5 times as fast
    route = FlightRoute(((0.0, 0.0, 0.0, 0.0), (100.0, 0.0, 1.0, 0.0), (300.0, 0.0, 4.0, 500.0)))
    assert route.fastest_turn_rad_s == pytest.approx(math.radians(3.0) / 200.0, rel=1e-12)
    reverse = FlightRoute(((0.0, 0.0, 4.0, 0.0), (200.0, 0.0, 1.0, 0.0), (300.0, 0.0, 0.0, 0.0)))
    assert reverse.fastest_turn_rad_s == pytest.approx(math.radians(3.0) / 200.0, rel=1e-12)
    parked = FlightRoute(((0.0, 10.0, 20.0, 0.0), (600.0, 10.0, 20.0, 300.0)))
    assert parked.fastest_turn_rad_s == 0.0
    assert FlightRoute(((0.0, 10.0, 20.0, 0.0),)).fastest_turn_rad_s == 0.0


def test_route_rejects_antipodal_waypoints():
    # the great circle between opposite points is undefined
    for leg in [((0.0, 0.0, 0.0, 0.0), (600.0, 0.0, 180.0, 0.0)),
                ((0.0, 35.0, 10.0, 0.0), (600.0, -35.0, -170.0, 0.0)),
                ((0.0, 90.0, 0.0, 0.0), (600.0, -90.0, 45.0, 0.0))]:
        with pytest.raises(ConfigError, match="antipodal") as err:
            FlightRoute(leg)
        assert err.value.field == "points"
    # apart from it by a leg, or 1 m short of it, is fine
    FlightRoute(((0.0, 0.0, 0.0, 0.0), (600.0, 0.0, 90.0, 0.0), (1200.0, 0.0, 180.0, 0.0)))
    FlightRoute(((0.0, 0.0, 0.0, 0.0), (600.0, 0.0, 179.99999, 0.0)))


def test_route_validation():
    with pytest.raises(ConfigError):
        FlightRoute(())
    with pytest.raises(ConfigError):
        FlightRoute(((0.0, 50.0, 10.0, 100.0), (0.0, 51.0, 10.0, 100.0)))
    with pytest.raises(ConfigError, match="^points: lat_deg 95.0 is outside"):
        FlightRoute(((0.0, 95.0, 10.0, 100.0),))
    with pytest.raises(ConfigError, match="^points: alt_m -2.0 is outside"):
        FlightRoute(((0.0, 50.0, 10.0, -2.0),))


def test_route_must_start_at_time_zero():
    # a later start would hold the aircraft still until then and never
    # fly the end of the route
    with pytest.raises(ConfigError) as exc:
        FlightRoute(((100.0, 10.0, 20.0, 0.0), (700.0, 10.0, 20.2, 0.0)))
    assert exc.value.field == "points"


def test_loiter_starts_north_of_center():
    route = LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, 600.0).route
    t0, lat0, lon0, alt0 = route.points[0]
    assert t0 == 0.0
    assert alt0 == 400.0
    assert lat0 == pytest.approx(50.0 + math.degrees(8.0 / EARTH_RADIUS))
    assert lon0 == pytest.approx(15.0)


def test_loiter_covers_duration_at_interval():
    route = LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, 123.0, waypoint_interval_s=5.0).route
    times = [p[0] for p in route.points]
    assert times[1] - times[0] == 5.0
    assert route.duration_s >= 123.0


def test_loiter_ground_speed_matches_request():
    speed = 30.0
    route = LoiterSpec(45.0, 0.0, 500.0, 5.0, speed, 300.0).route
    (t0, lat0, lon0, _), (t1, lat1, lon1, _) = route.points[:2]
    dlat = lat1 - lat0
    dlon = (lon1 - lon0) * math.cos(math.radians(45.0))
    chord_km = math.radians(math.hypot(dlat, dlon)) * EARTH_RADIUS
    assert chord_km / (t1 - t0) == pytest.approx(speed / 1000.0, rel=1e-3)


def test_loiter_validation():
    with pytest.raises(ConfigError):
        LoiterSpec(50.0, 15.0, 400.0, 0.0, 25.0, 600.0).route
    with pytest.raises(ConfigError):
        LoiterSpec(50.0, 15.0, 400.0, 8.0, -1.0, 600.0).route
    with pytest.raises(ConfigError):
        LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, -600.0).route
    for interval in (0.0, -5.0, math.nan):
        with pytest.raises(ConfigError) as err:
            LoiterSpec(50.0, 15.0, 400.0, 8.0, 25.0, 600.0, waypoint_interval_s=interval).route
        assert err.value.field == "waypoint_interval_s"
    # a 3.5 km leg cannot join two points of a circle 2 km across
    with pytest.raises(ConfigError, match="fit across the circle") as err:
        LoiterSpec(50.0, 15.0, 400.0, 1.0, 35.0, 600.0, waypoint_interval_s=100.0).route
    assert err.value.field == "waypoint_interval_s"


@pytest.mark.parametrize("radius, speed, duration, field", [
    (math.nan, 25.0, 600.0, "radius_km"),
    (8.0, math.nan, 600.0, "speed_ms"),
    (8.0, 25.0, math.nan, "duration_s"),
])
def test_loiter_nan_fails_its_own_checks(radius, speed, duration, field):
    # not later, as a latitude out of range
    with pytest.raises(ConfigError, match="nan is outside") as err:
        LoiterSpec(10.0, 20.0, 500.0, radius, speed, duration).route
    assert err.value.field == field


@given(
    lat=st.floats(-90.0, 90.0),
    radius=st.floats(1.0, 20.0),
    speed=st.floats(5.0, 60.0),
    bearing=st.floats(0.0, 360.0),
)
def test_loiter_waypoints_equidistant_from_center(lat, radius, speed, bearing):
    route = LoiterSpec(lat, 10.0, 300.0, radius, speed, 120.0,
                       start_bearing_deg=bearing).route
    for _, plat, plon, _ in route.points:
        r_km = _central_angle(lat, 10.0, plat, plon) * EARTH_RADIUS
        assert r_km == pytest.approx(radius, rel=1e-9)


def _loiter_oracle(lat_deg, lon_deg, alt_m, radius_km, speed_ms, duration_s, interval_s,
                   bearing_deg):
    """(time, lat, lon) of each waypoint of a loiter, leg by leg in Python
    floats, and the sine of each leg's half turn: one waypoint every
    interval before the end, the last at the end, each leg as long as the
    speed times its time at the flight altitude, and the textbook
    destination-point formula from the centre."""
    times = [k * interval_s for k in range(max(1, math.ceil(duration_s / interval_s)))]
    times = [t for t in times if t < duration_s] + [duration_s]
    arc = radius_km / EARTH_RADIUS
    lat0, bearing = math.radians(lat_deg), math.radians(bearing_deg)
    points, sin_half_turns = [], []
    for k, t in enumerate(times):
        if k:
            leg = (t - times[k - 1]) * speed_ms / (2000.0 * EARTH_RADIUS + 2.0 * alt_m)
            sin_half_turns.append(math.sin(leg) / math.sin(arc))
            bearing += 2.0 * math.asin(min(1.0, sin_half_turns[-1]))
        lat = math.asin(math.sin(lat0) * math.cos(arc)
                        + math.cos(lat0) * math.sin(arc) * math.cos(bearing))
        lon = lon_deg + math.degrees(math.atan2(math.sin(bearing) * math.sin(arc) * math.cos(lat0),
                                                math.cos(arc) - math.sin(lat0) * math.sin(lat)))
        points.append((t, math.degrees(lat), lon))
    return points, sin_half_turns


@st.composite
def _loiters(draw):
    # binary and non-binary intervals, and durations they do and do not divide
    interval = draw(st.one_of(st.sampled_from([0.1, 0.3, 1.0, 2.5, 5.0, 7.3]),
                              st.floats(0.1, 60.0)))
    duration = draw(st.one_of(st.floats(0.0, 300.0),
                              st.integers(0, 300).map(lambda k: k * interval)))
    return dict(lat_deg=draw(st.floats(-85.0, 85.0)), lon_deg=draw(st.floats(-180.0, 180.0)),
                alt_m=draw(st.floats(0.0, 3000.0)), radius_km=draw(st.floats(1.0, 50.0)),
                speed_ms=draw(st.floats(5.0, 80.0)), duration_s=duration,
                interval_s=interval, bearing_deg=draw(st.floats(0.0, 360.0)))


@settings(max_examples=60, deadline=None)
@given(case=_loiters())
# a positive duration whose quotient by the interval underflows to 0
@example(case=dict(lat_deg=0.0, lon_deg=0.0, alt_m=0.0, radius_km=1.0, speed_ms=5.0,
                   duration_s=5e-324, interval_s=2.5, bearing_deg=0.0))
def test_loiter_matches_the_per_leg_formula(case):
    points, sin_half_turns = _loiter_oracle(**case)
    # away from a leg that only just fits across the circle
    assume(all(abs(x - 1.0) > 1e-9 for x in sin_half_turns))
    args = [case[k] for k in ("lat_deg", "lon_deg", "alt_m", "radius_km", "speed_ms",
                              "duration_s", "interval_s", "bearing_deg")]
    if max(sin_half_turns, default=0.0) > 1.0:
        with pytest.raises(ConfigError, match="fit across the circle"):
            LoiterSpec(*args).route
        return
    route = LoiterSpec(*args).route
    expected = np.array(points)
    assert route.points[:, 0].tolist() == expected[:, 0].tolist()
    assert np.all(route.points[:, 3] == case["alt_m"])
    np.testing.assert_allclose(route.points[:, 1], expected[:, 1], rtol=0.0, atol=1e-8)
    east = (route.points[:, 2] - expected[:, 2] + 180.0) % 360.0 - 180.0
    np.testing.assert_allclose(east, 0.0, rtol=0.0, atol=1e-8)


# === scenario cross-validation ===

_PHY = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=5.0, scs_khz=15, n_rb=25,
                 mcs=Mcs("QPSK", 0.5))


def _scenario(**overrides) -> ScenarioSpec:
    payload = RfPayloadSpec(beam_eirp_dbw=8.0, gain_over_t_dbk=-21.0)
    base = dict(
        id="unit",
        aircraft=_aircraft(),
        constellation=ConstellationSpec(
            name="shell", altitude_km=1000.0, planes=1,
            inclinations_deg=(53.0,), raans_deg=(0.0,), sats_per_plane=1,
            payloads={"S": payload}),
        direction="uplink",
        duration_s=600.0,
        route=FlightRoute(((0.0, 50.0, 10.0, 100.0), (600.0, 50.1, 10.0, 100.0))),
        phy=_PHY,
        handover_threshold_deg=30.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_scenario_accepts_consistent_config():
    s = _scenario()
    assert s.band == "S"
    assert s.payload is s.constellation.payloads["S"]
    assert s.handover_hysteresis_deg == 0.5


def test_scenario_rejects_bad_direction():
    with pytest.raises(ConfigError):
        _scenario(direction="sideways")


def test_scenario_rejects_negative_duration():
    with pytest.raises(ConfigError):
        _scenario(duration_s=-1.0)


def test_scenario_rejects_threshold_at_zenith():
    with pytest.raises(ConfigError):
        _scenario(handover_threshold_deg=90.0)


def test_scenario_rejects_missing_satellite_payload():
    ku_aircraft = _aircraft(band="Ku")
    with pytest.raises(ConfigError, match="payload"):
        _scenario(aircraft=ku_aircraft)


def test_uplink_needs_tx_power():
    silent = _aircraft(tx_power_dbw=None)
    with pytest.raises(ConfigError, match="tx_power"):
        _scenario(aircraft=silent)
    # the same terminal is fine on the downlink
    _scenario(aircraft=silent, direction="downlink")


def test_scenario_rejects_short_route():
    with pytest.raises(ConfigError, match="route"):
        _scenario(duration_s=3600.0)


def test_scenario_rejects_bad_rain_profile():
    with pytest.raises(ConfigError):
        _scenario(rain_profile=((600.0, 5.0), (0.0, 5.0)))
    with pytest.raises(ConfigError, match="^rain_profile: mm_per_h -3.0 is outside"):
        _scenario(rain_profile=((0.0, -3.0),))


def test_scenario_rejects_nonpositive_reference_bandwidth():
    with pytest.raises(ConfigError):
        _scenario(cnr_prime_bandwidth_mhz=0.0)


_LEG = (0.0, 10.0, 20.0, 0.0)


@pytest.mark.parametrize("part, field, value", [
    *(pytest.param(part, field, math.nan, id=f"{part}-{field}") for part, field in [
        ("aircraft", "bandwidth_mhz"),
        ("aircraft", "rx_noise_temp_k"),
        ("constellation", "altitude_km"),
        ("scenario", "duration_s"),
        ("scenario", "cnr_prime_bandwidth_mhz"),
    ]),
    pytest.param("route", "points", (_LEG, (math.nan, 10.0, 20.0, 0.0)), id="route-nan-time"),
    pytest.param("route", "points", (_LEG, (math.inf, 10.0, 20.0, 0.0)), id="route-inf-time"),
    pytest.param("route", "points", (_LEG, (600.0, math.nan, 20.0, 0.0)), id="route-nan-lat"),
    pytest.param("route", "points", (_LEG, (600.0, 10.0, math.nan, 0.0)), id="route-nan-lon"),
    pytest.param("route", "points", (_LEG, (600.0, 10.0, 20.0, math.nan)), id="route-nan-alt"),
    pytest.param("scenario", "rain_profile", ((0.0, math.inf),), id="rain-inf-rate"),
    pytest.param("scenario", "rain_profile", ((0.0, math.nan),), id="rain-nan-rate"),
    pytest.param("scenario", "rain_profile", ((math.nan, 5.0),), id="rain-nan-start"),
])
def test_constructors_reject_nan(part, field, value):
    # the parser's finite check covers files only; library callers meet these
    s = resolve_scenario("scenario-6")
    with pytest.raises(ConfigError) as err:
        if part == "scenario":
            replace(s, **{field: value})
        else:
            replace(getattr(s, part), **{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("part, field, value", [
    pytest.param("route", "points", ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0)), id="ragged-points"),
    pytest.param("route", "points", ((0.0, 1.0, 2.0),), id="short-points"),
    pytest.param("route", "points", ((0.0, 1.0, 2.0, {}),), id="points-object"),
    pytest.param("scenario", "rain_profile", ((0.0, 1.0), (5.0,)), id="ragged-rain"),
    pytest.param("scenario", "rain_profile", ((0.0, 1.0, 2.0),), id="wide-rain"),
])
def test_constructors_reject_ragged_tables(part, field, value):
    # numpy would raise a bare ValueError for these; the field is named
    s = resolve_scenario("scenario-6")
    with pytest.raises(ConfigError) as err:
        if part == "scenario":
            replace(s, **{field: value})
        else:
            replace(getattr(s, part), **{field: value})
    assert err.value.field == field


def test_scenario_checks_channel_conformance():
    # 400 MHz cannot be carried on a 15 kHz grid
    wide = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=400.0, scs_khz=15, n_rb=25,
                     mcs=Mcs("QPSK", 0.5))
    with pytest.raises(ConfigError):
        _scenario(phy=wide)


def test_scenario_rejects_bandwidth_mismatch():
    # the CNR noise bandwidth (aircraft) and the PHY channel must agree
    wide = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=10.0, scs_khz=15, n_rb=25,
                     mcs=Mcs("QPSK", 0.5))
    with pytest.raises(ConfigError) as exc:
        _scenario(phy=wide)
    assert exc.value.field == "bandwidth_mhz"
    _scenario(aircraft=_aircraft(bandwidth_mhz=10.0), phy=wide)


def test_rain_rate_steps_at_profile_times():
    s = _scenario(rain_profile=((0.0, 0.0), (600.0, 25.0), (900.0, 0.0)))
    assert s.rain_rate_at(0.0) == 0.0
    assert s.rain_rate_at(599.9) == 0.0
    assert s.rain_rate_at(600.0) == 25.0
    assert s.rain_rate_at(899.9) == 25.0
    assert s.rain_rate_at(900.0) == 0.0
    assert s.rain_rate_at(7200.0) == 0.0
    # an array of times, with samples landing exactly on the step times
    times = np.array([0.0, 599.9, 600.0, 899.9, 900.0, 7200.0])
    assert s.rain_rate_at(times).tolist() == [0.0, 0.0, 25.0, 25.0, 0.0, 0.0]


def test_rain_rate_last_of_equal_start_times_wins():
    s = _scenario(rain_profile=((0.0, 1.0), (300.0, 5.0), (300.0, 7.0), (600.0, 2.0)))
    assert s.rain_rate_at(300.0) == 7.0
    times = np.array([299.9, 300.0, 300.1, 600.0])
    assert s.rain_rate_at(times).tolist() == [1.0, 7.0, 7.0, 2.0]


def test_rain_rate_zero_before_first_entry_and_without_profile():
    assert _scenario().rain_rate_at(100.0) == 0.0
    assert _scenario(rain_profile=((100.0, 5.0),)).rain_rate_at(50.0) == 0.0


# === serialization and resolution ===

@pytest.mark.parametrize("sid", sorted(SCENARIO_IDS))
def test_serialize_round_trips_builtins(sid):
    spec = builtin_catalog().scenarios[sid]
    doc = serialize_scenario(spec)
    text = json.dumps(doc)  # must be plain-JSON representable
    reparsed = parse_catalog(json.loads(text))
    assert list(reparsed.scenarios) == [sid]
    assert reparsed.scenarios[sid] == spec


def test_documents_with_unread_keys_still_load():
    # constellation pattern, payload antenna_type/beams/hpbw_deg/band,
    # aircraft antenna_type/position and scenario band are no longer part
    # of the schema; old documents carry them
    spec = builtin_catalog().scenarios["scenario-11"]
    doc = serialize_scenario(spec)
    doc["scenarios"][0]["band"] = "Ka"
    for aircraft in doc["aircraft"].values():
        aircraft.update(antenna_type="phased array",
                        position="under_blades" if "rotor" in aircraft else "main_body")
    for constellation in doc["constellations"].values():
        constellation["pattern"] = "star"
        for band, payload in constellation["payloads"].items():
            payload.update(antenna_type="direct radiating array", beams=256, hpbw_deg=2.5,
                           band=band)
    assert parse_catalog(doc).scenarios["scenario-11"] == spec


def test_readme_example_runs_and_omitted_keys_take_spec_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--step", "60", "--frames", "5",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "demo" / "report.json").exists()

    spec = load_catalog(path).scenarios["demo"]
    scenario = doc["scenarios"][0]
    owners = [(spec, scenario), (spec.phy, scenario["phy"]),
              (spec.phy.mcs, scenario["phy"]["mcs"]),
              (spec.aircraft, doc["aircraft"][spec.aircraft.name]),
              (spec.constellation, doc["constellations"][spec.constellation.name]),
              (spec.payload, doc["constellations"][spec.constellation.name]["payloads"]["S"])]
    omitted = [(owner, f) for owner, obj in owners for f in fields(owner)
               if f.name not in obj
               and (f.default is not MISSING or f.default_factory is not MISSING)]
    assert len(omitted) >= 10
    for owner, f in omitted:
        default = f.default if f.default is not MISSING else f.default_factory()
        assert getattr(owner, f.name) == default, (type(owner).__name__, f.name)
    # the loiter keys it omits take LoiterSpec's defaults
    flight = {k: float(v) for k, v in scenario["flight"].items() if k != "type"}
    assert spec.route == LoiterSpec(**flight, duration_s=spec.duration_s).route


def test_every_number_field_of_a_spec_declares_a_domain():
    # a table (a route's points, a rain profile) declares one a column
    for cls in spec_classes():
        hints = get_type_hints(cls)
        for f in fields(cls):
            assert ("domain" in f.metadata) == holds_numbers(hints[f.name]), (cls, f.name)
            assert ("columns" in f.metadata) == holds_table(hints[f.name]), (cls, f.name)
    assert {cls.__name__ for cls, _, _, _ in domains()} == {
        "AircraftSpec", "RotorSpec", "ConstellationSpec", "RfPayloadSpec", "ScenarioSpec",
        "FlightRoute", "LoiterSpec", "PhyConfig", "Mcs", "BandAtmosphere", "LossModel"}
    assert [key for _, _, _, key in domains() if "." in key] == [
        "rain_profile.start_s", "rain_profile.mm_per_h", "points.time_s", "points.lat_deg",
        "points.lon_deg", "points.alt_m"]


def test_readme_domain_table_is_the_declared_domains():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def rows(header):
        table = readme.split(header + "\n", 1)[1].split("\n\n", 1)[0]
        return [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[1:]]

    assert rows("| spec | key | domain | why |") == [
        [f"`{cls.__name__}`", f"`{key}`", f"`{meta['domain']}`", meta["why"]]
        for cls, _, meta, key in domains()]
    # the run parameters' block
    assert rows("| call | parameter | domain | why |") == [
        [f"`{call}`", f"`{f.name}`", f"`{meta['domain']}`", meta["why"]]
        for call, f, meta in run_parameter_domains()]
    # the names: the specs' fields, then the run parameters'
    assert rows("| spec or call | key | names | why |") == [
        [f"`{owner}`", f"`{key}`", ", ".join(f"`{name}`" for name in meta["names"]),
         meta["why"]] for owner, key, meta in declared_names()]


@pytest.mark.parametrize("override, field", [
    ({"rain_height_km": -3}, "rain_height_km"),
    ({"rain_height_km": 0}, "rain_height_km"),
    ({"slant_cap_km": -20}, "slant_cap_km"),
    ({"bands": {"Ka": {"zenith_gas_db": -0.6}}}, "zenith_gas_db"),
    ({"bands": {"Ka": {"zenith_cloud_db": -0.8}}}, "zenith_cloud_db"),
    ({"bands": {"Ka": {"rain_k": -0.15}}}, "rain_k"),
    ({"rain_heigth_km": 3}, "rain_heigth_km"),
    ({"bands": {"Ka": {"rain_kk": 0.15}}}, "rain_kk"),
    ({"bands": {"W": {"rain_k": -1.0}}}, "bands"),  # no aircraft flies W: never read
    (None, None),
    ({"bands": {"Ka": {"zenith_gas_db": 0, "zenith_cloud_db": 0, "rain_k": 0}}}, None),
    ({"rain_height_km": "high"}, "rain_height_km"),
    ({"band": {"Ka": {"rain_k": 0.2}}}, "band"),  # "band" for "bands": an object, not a number
    ({"bands": {"Ka": {"rain_k": [0.2]}}}, "rain_k"),
])
def test_loss_model_overrides_are_validated(override, field):
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["scenarios"][0]["loss_model"] = override
    if field is None:  # no overrides, and zero coefficients, are valid
        parse_catalog(doc)
        return
    with pytest.raises(ConfigError) as err:
        parse_catalog(doc)
    assert err.value.field == field


def test_loss_model_overrides():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["scenarios"][0]["loss_model"] = {
        "rain_height_km": 4.0, "bands": {"Ka": {"rain_k": 0.2}}}
    model = parse_catalog(doc).scenarios["scenario-6"].loss_model
    default = LossModel()
    assert model.rain_height_km == 4.0
    assert model.slant_cap_km == default.slant_cap_km
    # a band entry replaces only what it names
    assert model.band("Ka") == replace(default.band("Ka"), rain_k=0.2)
    assert model.band("S") == default.band("S")
    # a band no aircraft can fly would never be read
    doc["scenarios"][0]["loss_model"]["bands"]["W"] = {"rain_k": 0.5}
    with pytest.raises(ConfigError, match="'W'") as err:
        parse_catalog(doc)
    assert err.value.field == "bands"


ALPHA_900 = dict(n_blades=3, blade_width_m=0.093, rpm=1280.0, shaft_offset_m=0.5,
                 rotor_height_m=0.12, tip_radius_m=0.9)


@pytest.mark.parametrize("owner, field", [
    *[("rotor", f) for f in ("blade_width_m", "rpm", "shaft_offset_m", "rotor_height_m",
                             "tip_radius_m")],
    ("loss_model", "rain_height_km"),
    ("loss_model", "slant_cap_km"),
    *[("band", f) for f in ("zenith_gas_db", "zenith_cloud_db", "rain_k", "rain_alpha")],
    ("mcs", "coding_gain_db"),
    ("phy", "carrier_ghz"),
    ("phy", "overhead"),
])
def test_nan_fails_range_checks(owner, field):
    # library callers bypass the parser's finite check, so the range
    # checks themselves must reject NaN
    nan = math.nan
    with pytest.raises(ConfigError) as err:
        if owner == "rotor":
            RotorSpec(**{**ALPHA_900, field: nan})
        elif owner == "loss_model":
            replace(LossModel(), **{field: nan})
        elif owner == "band":
            replace(LossModel().band("Ka"), **{field: nan})
        elif owner == "phy":
            replace(_PHY, **{field: nan})
        else:
            Mcs("QPSK", 0.5, **{field: nan})
    assert err.value.field == field


@pytest.mark.parametrize("where, key, value, field", [
    ("scenario", "margin_db", "none", "margin_db"),
    ("scenario", "rain_profile", [[0.0, "heavy"]], "rain_profile"),
    ("phy", "n_rb", "many", "n_rb"),
    ("phy", "n_rb", float("inf"), "n_rb"),
    ("mcs", "code_rate", None, "code_rate"),
    ("aircraft", "max_gain_dbi", {"dbi": 17.0}, "max_gain_dbi"),
    ("aircraft", "beamwidth_deg", [1.0, "wide"], "beamwidth_deg"),
    ("constellation", "sats_per_plane", "22x", "sats_per_plane"),
    ("constellation", "raan_deg", {"spacing_deg": "thirty"}, "spacing_deg"),
    ("constellation", "inclination_deg", [53.5] * 11 + ["steep"], "inclination_deg"),
    # wrong container types
    ("scenario", "loss_model", {"bands": [1, 2]}, "bands"),
    ("scenario", "loss_model", [1], "loss_model"),
    ("scenario", "rain_profile", [[0.0]], "rain_profile"),
    ("scenario", "rain_profile", 5, "rain_profile"),
    ("scenario", "phy", 5, "phy"),
    # integer fields take whole numbers only
    ("phy", "n_rb", 41.9, "n_rb"),
    ("constellation", "sats_per_plane", 22.7, "sats_per_plane"),
    # the hysteresis margin must be finite and >= 0
    ("scenario", "handover_hysteresis_deg", -3.0, "handover_hysteresis_deg"),
    ("scenario", "handover_hysteresis_deg", float("nan"), "handover_hysteresis_deg"),
    ("scenario", "handover_hysteresis_deg", float("inf"), "handover_hysteresis_deg"),
    # more container shapes
    ("doc", "scenarios", 5, "scenarios"),
    ("aircraft", "rotor", 5, "rotor"),
    ("scenario", "flight", {"type": "waypoints", "points": [[0.0, 60.0, 25.0]]}, "points"),
    # strings float() reads as non-finite numbers
    ("scenario", "margin_db", "nan", "margin_db"),
    ("aircraft", "max_gain_dbi", "-Infinity", "max_gain_dbi"),
    # flags take JSON true or false, and names take strings
    ("aircraft", "steerable", "false", "steerable"),
    ("aircraft", "steerable", 1, "steerable"),
    ("scenario", "randomize_blade_phase", "no", "randomize_blade_phase"),
    ("scenario", "id", 5, "id"),
    ("scenario", "id", [1], "id"),
    ("scenario", "aircraft", ["UAV-1"], "aircraft"),
    ("scenario", "constellation", {"LEO-2": 1}, "constellation"),
    ("mcs", "modulation", ["QPSK"], "modulation"),
    # JSON true and false are not the numbers 1 and 0
    ("scenario", "margin_db", True, "margin_db"),
    ("aircraft", "max_gain_dbi", False, "max_gain_dbi"),
    ("mcs", "code_rate", True, "code_rate"),
    ("constellation", "sats_per_plane", True, "sats_per_plane"),
    ("aircraft", "beamwidth_deg", [1.0, True], "beamwidth_deg"),
    ("constellation", "inclination_deg", True, "inclination_deg"),
    ("constellation", "raan_deg", {"spacing_deg": 30.0, "start_deg": False}, "start_deg"),
    ("scenario", "rain_profile", [[0.0, True]], "rain_profile"),
])
def test_non_numeric_values_are_config_errors(where, key, value, field):
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    scenario = doc["scenarios"][0]
    obj = {"scenario": scenario, "phy": scenario["phy"], "mcs": scenario["phy"]["mcs"],
           "aircraft": doc["aircraft"]["UAV-1"],
           "constellation": doc["constellations"]["LEO-2"], "doc": doc}[where]
    obj[key] = value
    with pytest.raises(ConfigError) as err:
        parse_catalog(doc)
    assert err.value.field == field


def _numeric_leaves(obj, key=None):
    """(container, index, key) of each number in a serialized document.

    A list contributes its first and last entries only: the parser reads
    every entry of a list the same way, and the flight paths hold
    thousands of them.  ``key`` is the nearest object key above the leaf.
    """
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = [(i, obj[i]) for i in sorted({0, len(obj) - 1})] if obj else []
    else:
        return
    for index, value in items:
        leaf_key = index if isinstance(obj, dict) else key
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield obj, index, leaf_key
        else:
            yield from _numeric_leaves(value, leaf_key)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("sid", sorted(SCENARIO_IDS))
def test_non_finite_numbers_are_config_errors(sid, bad):
    doc = serialize_scenario(builtin_catalog().scenarios[sid])
    leaves = list(_numeric_leaves(doc))
    assert len(leaves) > 40
    for container, index, key in leaves:
        good = container[index]
        container[index] = bad
        with pytest.raises(ConfigError) as err:
            parse_catalog(doc)
        assert err.value.field == key
        container[index] = good
    # the document is whole again, and its JSON form with NaN or Infinity
    # in place of a number fails the same way
    assert parse_catalog(doc).scenarios[sid] == builtin_catalog().scenarios[sid]
    doc["scenarios"][0]["margin_db"] = bad
    with pytest.raises(ConfigError) as err:
        parse_catalog(json.loads(json.dumps(doc)))
    assert err.value.field == "margin_db"


def test_numeric_strings_still_load():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    scenario = doc["scenarios"][0]
    scenario["loss_model"] = {"rain_height_km": "3.5"}
    scenario["phy"]["n_rb"] = str(scenario["phy"]["n_rb"])
    doc["constellations"]["LEO-2"]["sats_per_plane"] = 22.0
    spec = parse_catalog(doc).scenarios["scenario-6"]
    assert spec.loss_model.rain_height_km == 3.5
    assert spec.phy == builtin_catalog().scenarios["scenario-6"].phy
    assert spec.constellation == builtin_catalog().constellations["LEO-2"]


def test_resolve_by_builtin_id():
    assert resolve_scenario("scenario-19").id == "scenario-19"


def test_resolve_by_file(tmp_path):
    spec = builtin_catalog().scenarios["scenario-6"]
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(serialize_scenario(spec)))
    assert resolve_scenario(str(path)) == spec


def test_resolve_unknown_token():
    with pytest.raises(UnknownReferenceError, match="neither"):
        resolve_scenario("scenario-99")


def test_resolve_rejects_multi_scenario_file(tmp_path):
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["scenarios"].append({**doc["scenarios"][0], "id": "twin"})
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_scenario(str(path))


def test_parse_rejects_duplicate_ids():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["scenarios"].append(dict(doc["scenarios"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_catalog(doc)


def test_parse_rejects_dangling_aircraft_reference():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["aircraft"] = {}
    with pytest.raises(UnknownReferenceError):
        parse_catalog(doc)


def test_parse_rejects_non_object_document():
    with pytest.raises(ScenarioFormatError):
        parse_catalog([1, 2, 3])


def test_parse_reports_missing_keys():
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    del doc["scenarios"][0]["duration_h"]
    with pytest.raises(ConfigError, match="missing required key"):
        parse_catalog(doc)


def test_load_catalog_file_errors(tmp_path):
    with pytest.raises(ScenarioFormatError):
        load_catalog(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_catalog(bad)


def test_replace_revalidates():
    # dataclasses.replace re-runs the cross-checks on the new combination
    s = _scenario()
    with pytest.raises(ConfigError, match="payload"):
        replace(s, aircraft=_aircraft(band="Ka"))
