import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwasim import orbit
from rwasim.constants import EARTH_RADIUS, MU_EARTH
from rwasim.orbit import (
    _BLOCK_ELEMENTS,
    KeplerianElements,
    aircraft_track,
    build_access_timeline,
    circular_speed,
    doppler_khz,
    eci_to_ecef,
    expand_constellation,
    geodetic_to_ecef,
    look_angles,
    mean_motion,
    orbital_period,
    propagate,
    select_serving,
)
from rwasim.scenarios import FlightRoute, builtin_catalog, resolve_scenario

GEO_RADIUS = 42164.14


def test_geo_period():
    # 2*pi*sqrt(a^3/mu) for the geostationary radius: one sidereal day
    assert orbital_period(GEO_RADIUS) == pytest.approx(86163.9997, abs=0.01)
    assert abs(orbital_period(GEO_RADIUS) - 86164.0) < 10.0


def test_leo2_speed_matches_vis_viva():
    # sqrt(mu/a) at 720 km altitude
    a = EARTH_RADIUS + 720.0
    assert circular_speed(a) == pytest.approx(math.sqrt(MU_EARTH / 7098.14), rel=1e-12)
    assert circular_speed(a) == pytest.approx(7.4937053, abs=1e-6)


def test_mean_motion_rejects_nonpositive():
    with pytest.raises(ValueError):
        mean_motion(0.0)
    with pytest.raises(ValueError):
        circular_speed(-1.0)


def test_propagate_epoch_anomaly():
    el = KeplerianElements(7000.0, 53.0, 40.0, 0.0)
    pos, vel = propagate(el, 0.0)
    # at zero argument of latitude the satellite sits on the ascending node
    expect = 7000.0 * np.array([math.cos(math.radians(40)), math.sin(math.radians(40)), 0.0])
    assert pos == pytest.approx(expect)
    assert float(np.linalg.norm(vel)) == pytest.approx(circular_speed(7000.0), rel=1e-12)


def test_propagate_radius_conserved_over_period():
    el = KeplerianElements(EARTH_RADIUS + 720.0, 53.5, 10.0, 77.0)
    period = orbital_period(el.semi_major_axis_km)
    for t in np.linspace(0.0, period, 97):
        pos, _ = propagate(el, float(t))
        r = float(np.linalg.norm(pos))
        assert abs(r - el.semi_major_axis_km) / el.semi_major_axis_km < 1e-6
    # and the orbit closes
    p0, _ = propagate(el, 0.0)
    p1, _ = propagate(el, period)
    assert p1 == pytest.approx(p0, abs=1e-5)


def test_propagate_velocity_orthogonal_to_radius():
    el = KeplerianElements(8000.0, 70.0, 120.0, 33.0)
    pos, vel = propagate(el, 1234.5)
    assert float(pos @ vel) == pytest.approx(0.0, abs=1e-6)


def test_eci_to_ecef_identity_at_epoch():
    pos = np.array([7000.0, 0.0, 0.0])
    vel = np.array([0.0, 7.5, 0.0])
    r, _ = eci_to_ecef(pos, vel, 0.0)
    assert r == pytest.approx(pos)


def test_eci_to_ecef_quarter_day_swaps_axes():
    # after a quarter sidereal rotation the inertial +x direction appears
    # at -y in the Earth-fixed frame
    quarter = 0.25 * 2.0 * math.pi / 7.2921159e-5
    pos = np.array([7000.0, 0.0, 0.0])
    r, _ = eci_to_ecef(pos, np.zeros(3), quarter)
    assert r[0] == pytest.approx(0.0, abs=1e-6)
    assert r[1] == pytest.approx(-7000.0, rel=1e-9)


def test_geostationary_velocity_near_zero():
    # equatorial satellite at GEO radius: Earth-fixed speed ~ 0
    el = KeplerianElements(GEO_RADIUS, 0.0, 0.0, 0.0)
    for t in (0.0, 10000.0, 43082.0):
        pos, vel = propagate(el, t)
        _, v_ecef = eci_to_ecef(pos, vel, t)
        assert float(np.linalg.norm(v_ecef)) * 1000.0 < 5.0  # m/s


def test_zenith_pass_geometry():
    obs = geodetic_to_ecef(0.0, 0.0, 0.0)
    sat = np.array([EARTH_RADIUS + 720.0, 0.0, 0.0])
    view = look_angles(obs, 0.0, 0.0, sat, np.array([0.0, 7.5, 0.0]))
    assert view.elevation_deg == pytest.approx(90.0)
    assert view.slant_range_km == pytest.approx(720.0)
    # at closest approach the range rate vanishes (velocity tangential)
    assert view.range_rate_kms == pytest.approx(0.0, abs=1e-12)


def test_look_angles_cardinal_azimuth():
    obs = geodetic_to_ecef(0.0, 0.0, 0.0)
    # satellite displaced toward geographic north shows azimuth 0
    north = geodetic_to_ecef(5.0, 0.0, 720e3)
    view = look_angles(obs, 0.0, 0.0, north, np.zeros(3))
    assert view.azimuth_deg == pytest.approx(0.0, abs=1e-9)
    east = geodetic_to_ecef(0.0, 5.0, 720e3)
    view = look_angles(obs, 0.0, 0.0, east, np.zeros(3))
    assert view.azimuth_deg == pytest.approx(90.0, abs=1e-9)


def test_look_angles_observer_velocity_shifts_range_rate():
    obs = geodetic_to_ecef(0.0, 0.0, 0.0)
    sat = np.array([EARTH_RADIUS + 720.0, 0.0, 0.0])
    v_sat = np.array([1.0, 0.0, 0.0])  # receding radially
    fixed = look_angles(obs, 0.0, 0.0, sat, v_sat)
    chasing = look_angles(obs, 0.0, 0.0, sat, v_sat,
                          observer_vel_ecef=np.array([1.0, 0.0, 0.0]))
    assert fixed.range_rate_kms == pytest.approx(1.0)
    assert chasing.range_rate_kms == pytest.approx(0.0, abs=1e-12)


def test_doppler_oracles():
    assert doppler_khz(0.0, 30.0) == 0.0
    # approaching at 5.25 km/s on a 30 GHz carrier
    assert doppler_khz(-5.25, 30.0) == pytest.approx(525.3634, abs=0.001)
    assert doppler_khz(-3.6, 2.0) == pytest.approx(24.0166, abs=0.001)


@given(rate=st.floats(-8.0, 8.0), f=st.floats(0.5, 40.0))
def test_doppler_antisymmetric_and_linear(rate, f):
    assert doppler_khz(-rate, f) == pytest.approx(-doppler_khz(rate, f), rel=1e-12)
    assert doppler_khz(2.0 * rate, f) == pytest.approx(2.0 * doppler_khz(rate, f), rel=1e-12)


def test_range_rate_matches_numeric_derivative():
    # LEO pass over a fixed observer: analytic range rate vs finite difference
    el = KeplerianElements(EARTH_RADIUS + 1050.0, 89.0, 0.0, -20.0)
    obs = geodetic_to_ecef(45.0, 0.0, 0.0)
    dt = 0.05
    for t in np.linspace(0.0, 600.0, 31):
        views = []
        for tt in (t, t + dt):
            pos, vel = propagate(el, float(tt))
            r, v = eci_to_ecef(pos, vel, float(tt))
            views.append(look_angles(obs, 45.0, 0.0, r, v))
        numeric = (views[1].slant_range_km - views[0].slant_range_km) / dt
        assert views[0].range_rate_kms == pytest.approx(numeric, abs=1e-3)


# --- constellation expansion ---

def test_leo1_expansion():
    cat = builtin_catalog()
    elements = expand_constellation(cat.constellations["LEO-1"])
    assert len(elements) == 288
    # third plane of the 15-degree spacing rule
    per_plane = 24
    assert elements[2 * per_plane].raan_deg == pytest.approx(30.0)
    assert all(e.inclination_deg == pytest.approx(89.0) for e in elements)
    # in-plane phasing is uniform
    assert elements[1].arg_latitude_deg - elements[0].arg_latitude_deg == pytest.approx(15.0)


def test_geo_expansion():
    cat = builtin_catalog()
    elements = expand_constellation(cat.constellations["GEO"])
    assert len(elements) == 1
    assert elements[0].inclination_deg == pytest.approx(6.0)
    assert elements[0].semi_major_axis_km == pytest.approx(EARTH_RADIUS + 35786.0)


def test_meo_expansion():
    cat = builtin_catalog()
    elements = expand_constellation(cat.constellations["MEO"])
    assert len(elements) == 24
    incs = sorted({e.inclination_deg for e in elements})
    assert incs == [pytest.approx(70.0), pytest.approx(90.0)]
    raans = [elements[i * 6].raan_deg for i in range(4)]
    assert raans == [pytest.approx(0.0), pytest.approx(90.0),
                     pytest.approx(45.0), pytest.approx(135.0)]


def test_delta_constellation_phasing():
    cat = builtin_catalog()
    leo2 = cat.constellations["LEO-2"]
    elements = expand_constellation(leo2)
    assert len(elements) == 264
    if leo2.phasing_factor:
        shift = leo2.phasing_factor * 360.0 / leo2.total_sats
        diff = (elements[22].arg_latitude_deg - elements[0].arg_latitude_deg) % 360.0
        assert diff == pytest.approx(shift % 360.0)


# --- serving selection ---

def test_select_serving_single_visible():
    els = np.array([50.0])
    assert select_serving(els, None, 35.0) == 0


def test_select_serving_handover_on_drop():
    els = np.array([34.0, 60.0])
    # serving sat 0 fell below the 35 deg mask: hand over to the best
    assert select_serving(els, 0, 35.0) == 1
    # but while it holds the mask nothing changes
    assert select_serving(np.array([36.0, 60.0]), 0, 35.0) == 0


def test_select_serving_outage():
    els = np.array([10.0, 20.0])
    assert select_serving(els, 0, 35.0) is None
    assert select_serving(els, None, 35.0) is None


def test_select_serving_hysteresis():
    # acquiring from an outage needs threshold + hysteresis...
    els = np.array([35.2])
    assert select_serving(els, None, 35.0, hysteresis_deg=0.5) is None
    assert select_serving(np.array([35.6]), None, 35.0, hysteresis_deg=0.5) == 0
    # ...but an established link only needs the threshold itself
    assert select_serving(els, 0, 35.0, hysteresis_deg=0.5) == 0


def test_look_angles_stack_matches_single():
    obs = geodetic_to_ecef(30.0, 40.0, 500.0)
    sats = np.array([geodetic_to_ecef(31.0, 41.0, 550e3), geodetic_to_ecef(25.0, 47.0, 1200e3)])
    vels = np.array([[1.0, -2.0, 3.0], [-4.0, 0.5, 7.0]])
    stack = look_angles(obs, 30.0, 40.0, sats, vels)
    for k in range(2):
        single = look_angles(obs, 30.0, 40.0, sats[k], vels[k])
        assert stack.elevation_deg[k] == pytest.approx(single.elevation_deg, rel=1e-12)
        assert stack.azimuth_deg[k] == pytest.approx(single.azimuth_deg, rel=1e-12)
        assert stack.range_rate_kms[k] == pytest.approx(single.range_rate_kms, rel=1e-12)


# --- access timeline kernel ---

ANTIMERIDIAN_HOP = FlightRoute(((0.0, 10.0, 179.9, 1000.0), (600.0, 10.0, -179.9, 1000.0)))


def test_aircraft_speed_across_antimeridian():
    # 0.2 deg of longitude at 10 deg latitude in 600 s: about 36.5 m/s
    lat, lon = math.radians(10.0), math.radians(0.2)
    central = 2.0 * math.asin(math.cos(lat) * math.sin(lon / 2.0))
    expect_ms = central * (EARTH_RADIUS + 1.0) / 600.0 * 1000.0
    assert expect_ms == pytest.approx(36.5, abs=0.1)
    _, lons, _, velocity = aircraft_track(ANTIMERIDIAN_HOP, np.array([30.0, 300.0, 570.0]))
    speed_ms = np.linalg.norm(velocity, axis=0) * 1000.0
    assert speed_ms == pytest.approx(np.full(3, expect_ms), rel=0.01)
    assert np.all((lons >= -180.0) & (lons < 180.0))


def _reference_timeline(scenario, step_s):
    """Per-step access history from the single-sample public functions."""
    elements = expand_constellation(scenario.constellation)
    route = scenario.route
    n_steps = int(math.floor(scenario.duration_s / step_s + 1e-9))
    sat_id = np.full(n_steps, -1)
    cols = np.full((4, n_steps), np.nan)
    current = None
    for i in range(n_steps):
        t = i * step_s
        lat, lon, alt = route.position(t)
        obs = geodetic_to_ecef(lat, lon, alt)
        t0, t1 = max(t - 0.05, 0.0), min(t + 0.05, route.duration_s)
        obs_vel = (geodetic_to_ecef(*route.position(t1))
                   - geodetic_to_ecef(*route.position(t0))) / (t1 - t0)
        states = [propagate(e, t) for e in elements]
        r, v = eci_to_ecef(np.array([s[0] for s in states]),
                           np.array([s[1] for s in states]), t)
        view = look_angles(obs, lat, lon, r, v, obs_vel)
        current = select_serving(view.elevation_deg, current,
                                 scenario.handover_threshold_deg,
                                 scenario.handover_hysteresis_deg)
        if current is not None:
            sat_id[i] = current
            cols[:, i] = [view.elevation_deg[current], view.azimuth_deg[current],
                          view.slant_range_km[current], view.range_rate_kms[current]]
    return sat_id, cols


def _assert_kernel_matches_reference(scenario, step_s):
    access = build_access_timeline(scenario, step_s)
    sat_id, cols = _reference_timeline(scenario, step_s)
    assert np.array_equal(access.sat_id, sat_id)
    got = np.array([access.elevation_deg, access.azimuth_deg,
                    access.slant_range_km, access.range_rate_kms])
    np.testing.assert_allclose(got, cols, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(access.doppler_khz, doppler_khz(cols[3], scenario.phy.carrier_ghz),
                               rtol=1e-9, atol=0.0)
    assert np.all(access.elevation_deg[access.served] >= scenario.handover_threshold_deg)
    return access


def _walker(base, planes, per_plane, altitude_km, inclination_deg, raan0_deg,
            phasing, offset_deg):
    return replace(base.constellation, altitude_km=altitude_km, planes=planes,
                   sats_per_plane=per_plane, inclinations_deg=(inclination_deg,) * planes,
                   raans_deg=tuple(raan0_deg + k * 360.0 / planes for k in range(planes)),
                   phasing_factor=phasing, anomaly_offset_deg=offset_deg)


@st.composite
def _scenarios(draw):
    base = resolve_scenario("scenario-7")
    planes = draw(st.integers(1, 12))
    per_plane = draw(st.integers(1, 300 // planes))
    constellation = _walker(
        base, planes, per_plane,
        altitude_km=draw(st.floats(400.0, 36000.0)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        raan0_deg=draw(st.floats(0.0, 360.0)),
        phasing=draw(st.integers(0, planes - 1)),
        offset_deg=draw(st.floats(0.0, 360.0)))
    step_s = draw(st.floats(1.0, 120.0))
    n_steps = draw(st.integers(0, max(1, 3000 // constellation.total_sats)))
    duration = n_steps * step_s
    # waypoint legs; starting near +-180 deg makes many routes cross the antimeridian
    lat = draw(st.floats(-80.0, 80.0))
    lon = draw(st.one_of(st.floats(-180.0, 180.0), st.sampled_from([179.95, -179.95])))
    legs = draw(st.integers(1, 4))
    span = max(duration, 1.0)
    points = [(0.0, lat, lon, draw(st.floats(0.0, 3000.0)))]
    for k in range(1, legs + 1):
        lat = min(85.0, max(-85.0, lat + draw(st.floats(-0.2, 0.2))))
        lon = (lon + draw(st.floats(-0.2, 0.2)) + 180.0) % 360.0 - 180.0
        t = span if k == legs else k * span / legs
        points.append((t, lat, lon, draw(st.floats(0.0, 3000.0))))
    return replace(base, constellation=constellation, route=FlightRoute(tuple(points)),
                   duration_s=duration,
                   handover_threshold_deg=draw(st.floats(0.0, 60.0)),
                   handover_hysteresis_deg=draw(st.floats(0.0, 2.0))), step_s


def _lone_satellite_passes():
    """One equatorial 400 km satellite passing over a parked aircraft, 2 s steps.

    Nothing else is in view, and the satellite rises within a block of
    64 rows while it is still beyond the mask's reach at the block's
    middle row: without the drift term of the candidate bound the
    acquisition slips to a later block.
    """
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 0.0, 0.0, 0.0), (6000.0, 0.0, 0.0, 0.0)))
    return replace(base, constellation=_walker(base, 1, 1, 400.0, 0.0, 0.0, 0, 0.0),
                   route=route, duration_s=6000.0, handover_threshold_deg=0.0,
                   handover_hysteresis_deg=0.0), 2.0


@settings(max_examples=40, deadline=None)
@given(case=_scenarios(),
       block_elements=st.floats(6.0, 14.0).map(lambda k: int(2.0 ** k)))
@example(case=_lone_satellite_passes(), block_elements=64)
def test_kernel_matches_per_step_reference(case, block_elements):
    # blocks of 64 to 2^14 satellite-steps, drawn log-uniform, often split
    # a flight, so handovers, outages and the candidate bound meet block edges
    scenario, step_s = case
    with mock.patch.object(orbit, "_BLOCK_ELEMENTS", block_elements):
        _assert_kernel_matches_reference(scenario, step_s)


def test_kernel_handover_across_block_boundary():
    # 300 satellites over an antimeridian hop: three blocks of 54 time
    # steps, and a handover on the first step of the second block
    base = resolve_scenario("scenario-7")
    scenario = replace(
        base, constellation=_walker(base, 12, 25, 550.0, 53.0, 0.0, 1, 11.0),
        route=ANTIMERIDIAN_HOP, duration_s=600.0, handover_threshold_deg=20.0)
    rows = _BLOCK_ELEMENTS // scenario.constellation.total_sats
    access = _assert_kernel_matches_reference(scenario, 4.0)
    assert len(access) > 2 * rows
    ids = access.sat_id
    switches = np.flatnonzero((ids[1:] != ids[:-1]) & (ids[1:] >= 0) & (ids[:-1] >= 0)) + 1
    assert np.any(np.abs(switches - rows * np.round(switches / rows)) <= 1)


# --- candidate filter and event scan ---

def _walker_scenario(planes, per_plane, altitude_km, inclination_deg, route, duration_s,
                     threshold_deg):
    base = resolve_scenario("scenario-7")
    return replace(base, constellation=_walker(base, planes, per_plane, altitude_km,
                                               inclination_deg, 0.0, 1, 11.0),
                   route=route, duration_s=duration_s, handover_threshold_deg=threshold_deg)


def test_kernel_fast_aircraft_moves_the_candidate_set():
    # 30 deg of longitude per 40 s leg, 3 deg per 4 s step: over a block of
    # 54 rows the aircraft's zenith moves far more than a satellite drifts
    points = tuple((40.0 * k, 20.0, (30.0 * k + 180.0) % 360.0 - 180.0, 1000.0)
                   for k in range(16))
    scenario = _walker_scenario(12, 25, 550.0, 53.0, FlightRoute(points), 600.0, 20.0)
    access = _assert_kernel_matches_reference(scenario, 4.0)
    assert access.handover_count() >= 10


def test_kernel_outage_across_block_boundary():
    # a 40 deg mask over 300 satellites: an outage over rows 85 to 125
    # runs from the second block of 54 rows into the third
    scenario = _walker_scenario(12, 25, 550.0, 53.0, ANTIMERIDIAN_HOP, 600.0, 40.0)
    access = _assert_kernel_matches_reference(scenario, 4.0)
    rows = _BLOCK_ELEMENTS // scenario.constellation.total_sats
    starts = np.arange(rows, len(access), rows)
    ids = access.sat_id
    assert np.any(access.served)
    assert np.any((ids[starts - 1] < 0) & (ids[starts] < 0))


@pytest.mark.parametrize("threshold_deg", [0.0, 85.0])
def test_kernel_extreme_thresholds(threshold_deg):
    # one equatorial plane passing over an aircraft on the equator, so
    # satellites reach the zenith; at 85 deg each is served for seconds
    route = FlightRoute(((0.0, 0.0, 10.0, 500.0), (600.0, 0.0, 10.2, 500.0)))
    scenario = _walker_scenario(1, 40, 550.0, 0.0, route, 600.0, threshold_deg)
    access = _assert_kernel_matches_reference(scenario, 1.0)
    assert len(np.unique(access.sat_id[access.served])) >= 2


def test_kernel_single_geo_satellite():
    base = resolve_scenario("scenario-15b")
    access = _assert_kernel_matches_reference(replace(base, duration_s=1800.0), 10.0)
    assert np.all(access.served)


def test_kernel_climb_changes_the_reach():
    # a geostationary satellite 50 deg of arc from an aircraft climbing to
    # 6,000 km: it clears a 30 deg mask from the ground but not from the
    # top, and the reach falls by more than the satellite drifts
    base = resolve_scenario("scenario-15b")
    route = FlightRoute(((0.0, 0.0, 50.0, 0.0), (600.0, 0.0, 50.0, 6.0e6)))
    scenario = replace(base, constellation=_walker(base, 1, 1, 35786.0, 0.0, 0.0, 0, 0.0),
                       route=route, duration_s=600.0, handover_threshold_deg=30.0)
    access = _assert_kernel_matches_reference(scenario, 10.0)
    assert access.served[0] and not access.served[-1]
