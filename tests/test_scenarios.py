import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from rwasim.constants import EARTH_RADIUS
from rwasim.errors import ConfigError, ScenarioFormatError, UnknownReferenceError
from rwasim.phy import Mcs, PhyConfig
from rwasim.scenarios import (
    AircraftSpec,
    ConstellationSpec,
    FlightRoute,
    RfPayloadSpec,
    ScenarioSpec,
    builtin_catalog,
    load_catalog,
    loiter_route,
    parse_catalog,
    resolve_scenario,
    serialize_scenario,
)

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


def test_builtin_aircraft_spot_checks():
    cat = builtin_catalog()
    uav2 = cat.aircraft["UAV-2"]
    assert uav2.band == "S"
    assert uav2.max_gain_dbi == 5.15
    assert uav2.position == "under_blades"
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
    assert s11.payload.beams == 256


# === aircraft ===

def _aircraft(**overrides) -> AircraftSpec:
    base = dict(
        name="testbed",
        antenna_type="patch",
        steerable=False,
        band="S",
        bandwidth_mhz=5.0,
        beamwidth_deg=(60.0, 60.0),
        max_gain_dbi=6.0,
        position="main_body",
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
        _aircraft(position="tail")
    with pytest.raises(ConfigError):
        _aircraft(bandwidth_mhz=0.0)
    with pytest.raises(ConfigError):
        _aircraft(beamwidth_deg=(10.0, 5.0))
    with pytest.raises(ConfigError):
        _aircraft(rx_noise_temp_k=-1.0)


def test_rotor_required_exactly_under_blades():
    uav2 = builtin_catalog().aircraft["UAV-2"]
    with pytest.raises(ConfigError):
        _aircraft(position="under_blades")          # no rotor given
    with pytest.raises(ConfigError):
        _aircraft(rotor=uav2.rotor)                 # rotor on a main_body mount


def test_payload_validation():
    good = dict(band="S", antenna_type="patch", beams=1,
                beam_eirp_dbw=8.0, hpbw_deg=90.0, gain_over_t_dbk=-21.0)
    RfPayloadSpec(**good)
    with pytest.raises(ConfigError):
        RfPayloadSpec(**{**good, "band": "L"})
    with pytest.raises(ConfigError):
        RfPayloadSpec(**{**good, "beams": 0})
    with pytest.raises(ConfigError):
        RfPayloadSpec(**{**good, "hpbw_deg": 0.0})


def test_constellation_validation():
    payloads = {"S": builtin_catalog().constellations["LEO-2"].payloads["S"]}
    good = dict(name="t", altitude_km=720.0, planes=2,
                inclinations_deg=(53.0, 53.0), raans_deg=(0.0, 180.0),
                sats_per_plane=3, pattern="delta", payloads=payloads)
    c = ConstellationSpec(**good)
    assert c.total_sats == 6
    assert c.orbit_radius_km == pytest.approx(EARTH_RADIUS + 720.0)
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "inclinations_deg": (53.0,)})
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "raans_deg": (0.0,)})
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "pattern": "spiral"})
    with pytest.raises(ConfigError):
        ConstellationSpec(**{**good, "altitude_km": -5.0})


# === flight routes ===

def test_route_interpolates_and_clamps():
    route = FlightRoute(((0.0, 50.0, 10.0, 100.0), (100.0, 51.0, 12.0, 300.0)))
    assert route.duration_s == 100.0
    assert route.position(50.0) == pytest.approx((50.5, 11.0, 200.0))
    assert route.position(-20.0) == pytest.approx((50.0, 10.0, 100.0))
    assert route.position(500.0) == pytest.approx((51.0, 12.0, 300.0))


def test_route_crosses_antimeridian_the_short_way():
    route = FlightRoute(((0.0, 10.0, 179.9, 1000.0), (600.0, 10.0, -179.9, 1000.0)))
    assert route.position(150.0)[1] == pytest.approx(179.95)
    assert route.position(450.0)[1] == pytest.approx(-179.95)
    assert route.position(300.0)[1] == pytest.approx(-180.0)


def test_route_validation():
    with pytest.raises(ConfigError):
        FlightRoute(())
    with pytest.raises(ConfigError):
        FlightRoute(((0.0, 50.0, 10.0, 100.0), (0.0, 51.0, 10.0, 100.0)))
    with pytest.raises(ConfigError):
        FlightRoute(((0.0, 95.0, 10.0, 100.0),))
    with pytest.raises(ConfigError):
        FlightRoute(((0.0, 50.0, 10.0, -2.0),))


def test_route_must_start_at_time_zero():
    # a later start would hold the aircraft still until then and never
    # fly the end of the route
    with pytest.raises(ConfigError) as exc:
        FlightRoute(((100.0, 10.0, 20.0, 0.0), (700.0, 10.0, 20.2, 0.0)))
    assert exc.value.field == "points"


def test_loiter_starts_north_of_center():
    route = loiter_route(50.0, 15.0, 400.0, 8.0, 25.0, 600.0)
    t0, lat0, lon0, alt0 = route.points[0]
    assert t0 == 0.0
    assert alt0 == 400.0
    assert lat0 == pytest.approx(50.0 + math.degrees(8.0 / EARTH_RADIUS))
    assert lon0 == pytest.approx(15.0)


def test_loiter_covers_duration_at_interval():
    route = loiter_route(50.0, 15.0, 400.0, 8.0, 25.0, 123.0, waypoint_interval_s=5.0)
    times = [p[0] for p in route.points]
    assert times[1] - times[0] == 5.0
    assert route.duration_s >= 123.0


def test_loiter_ground_speed_matches_request():
    speed = 30.0
    route = loiter_route(45.0, 0.0, 500.0, 5.0, speed, 300.0)
    (t0, lat0, lon0, _), (t1, lat1, lon1, _) = route.points[:2]
    dlat = lat1 - lat0
    dlon = (lon1 - lon0) * math.cos(math.radians(45.0))
    chord_km = math.radians(math.hypot(dlat, dlon)) * EARTH_RADIUS
    assert chord_km / (t1 - t0) == pytest.approx(speed / 1000.0, rel=1e-3)


def test_loiter_validation():
    with pytest.raises(ConfigError):
        loiter_route(50.0, 15.0, 400.0, 0.0, 25.0, 600.0)
    with pytest.raises(ConfigError):
        loiter_route(50.0, 15.0, 400.0, 8.0, -1.0, 600.0)
    with pytest.raises(ConfigError):
        loiter_route(50.0, 15.0, 400.0, 8.0, 25.0, -600.0)


@given(
    lat=st.floats(-70.0, 70.0),
    radius=st.floats(1.0, 20.0),
    speed=st.floats(5.0, 60.0),
    bearing=st.floats(0.0, 360.0),
)
def test_loiter_waypoints_equidistant_from_center(lat, radius, speed, bearing):
    route = loiter_route(lat, 10.0, 300.0, radius, speed, 120.0,
                         start_bearing_deg=bearing)
    for _, plat, plon, _ in route.points:
        dlat = plat - lat
        dlon = (plon - 10.0) * math.cos(math.radians(lat))
        r_km = math.radians(math.hypot(dlat, dlon)) * EARTH_RADIUS
        assert r_km == pytest.approx(radius, rel=1e-9)


# === scenario cross-validation ===

_PHY = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=5.0, scs_khz=15, n_rb=25,
                 mcs=Mcs("QPSK", 0.5))


def _scenario(**overrides) -> ScenarioSpec:
    payload = RfPayloadSpec(band="S", antenna_type="patch", beams=1,
                            beam_eirp_dbw=8.0, hpbw_deg=90.0, gain_over_t_dbk=-21.0)
    base = dict(
        id="unit",
        aircraft=_aircraft(),
        constellation=ConstellationSpec(
            name="shell", altitude_km=1000.0, planes=1,
            inclinations_deg=(53.0,), raans_deg=(0.0,), sats_per_plane=1,
            pattern="single", payloads={"S": payload}),
        direction="uplink",
        band="S",
        duration_s=600.0,
        route=FlightRoute(((0.0, 50.0, 10.0, 100.0), (600.0, 50.1, 10.0, 100.0))),
        phy=_PHY,
        handover_threshold_deg=30.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_scenario_accepts_consistent_config():
    s = _scenario()
    assert s.payload.band == "S"
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


def test_scenario_rejects_band_mismatch_with_antenna():
    with pytest.raises(ConfigError, match="band"):
        _scenario(band="Ka")


def test_scenario_rejects_missing_satellite_payload():
    ku_aircraft = _aircraft(band="Ku")
    with pytest.raises(ConfigError, match="payload"):
        _scenario(aircraft=ku_aircraft, band="Ku")


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
    with pytest.raises(ConfigError):
        _scenario(rain_profile=((0.0, -3.0),))


def test_scenario_rejects_nonpositive_reference_bandwidth():
    with pytest.raises(ConfigError):
        _scenario(cnr_prime_bandwidth_mhz=0.0)


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
    with pytest.raises(ConfigError):
        replace(s, band="Ka")
