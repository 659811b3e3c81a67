import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwasim import orbit
from rwasim.constants import EARTH_RADIUS, EARTH_ROTATION_RATE, MU_EARTH
from rwasim.orbit import (
    _BLOCK_SPAN_S,
    _CHUNK_PAIRS,
    _PASS_ANGLES,
    KeplerianElements,
    build_access_timeline,
    circular_speed,
    doppler_khz,
    mean_motion,
    orbital_period,
    propagate,
)
from rwasim.scenarios import FlightRoute, LoiterSpec, builtin_catalog, resolve_scenario

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


def _parked(lat_deg, lon_deg, alt_m=0.0, duration_s=1.0):
    return FlightRoute(((0.0, lat_deg, lon_deg, alt_m), (duration_s, lat_deg, lon_deg, alt_m)))


def _one_satellite_access(altitude_km, inclination_deg, raan_deg, phase_deg, route,
                          duration_s=1.0, step_s=1.0):
    """Access timeline of one satellite, served whenever it is above the horizon.

    ``phase_deg`` is its argument of latitude at t = 0.
    """
    base = resolve_scenario("scenario-7")
    constellation = _walker(base, 1, 1, altitude_km, inclination_deg, raan_deg, 0, phase_deg)
    return build_access_timeline(
        replace(base, constellation=constellation, route=route, duration_s=duration_s,
                handover_threshold_deg=0.0, handover_hysteresis_deg=0.0), step_s)


def test_eci_to_ecef_identity_at_epoch():
    # the frames coincide at t = 0: a satellite on its ascending node at
    # RAAN 40 deg is straight above 0 N 40 E
    access = _one_satellite_access(720.0, 53.0, 40.0, 0.0, _parked(0.0, 40.0))
    assert access.elevation_deg[0] == pytest.approx(90.0, abs=1e-6)
    assert access.slant_range_km[0] == pytest.approx(720.0, rel=1e-12)


def test_eci_to_ecef_quarter_day_swaps_axes():
    # after a quarter sidereal rotation the inertial +x direction appears
    # at -y in the Earth-fixed frame, above 0 N 90 W
    quarter = 0.25 * 2.0 * math.pi / EARTH_ROTATION_RATE
    radius = EARTH_RADIUS + 720.0
    phase_deg = -math.degrees(mean_motion(radius) * quarter) % 360.0  # at +x after a quarter day
    access = _one_satellite_access(720.0, 0.0, 0.0, phase_deg,
                                   _parked(0.0, -90.0, 0.0, 2 * quarter),
                                   duration_s=2 * quarter, step_s=quarter)
    assert access.times_s[1] == quarter
    assert access.elevation_deg[1] == pytest.approx(90.0, abs=1e-6)
    assert access.slant_range_km[1] == pytest.approx(720.0, rel=1e-9)


def test_geostationary_velocity_near_zero():
    # equatorial satellite at GEO radius: still in the Earth-fixed frame,
    # so seen off its sub-satellite point its range rate stays near zero
    route = _parked(20.0, 30.0, 0.0, 50000.0)
    access = _one_satellite_access(GEO_RADIUS - EARTH_RADIUS, 0.0, 0.0, 0.0, route,
                                   duration_s=50000.0, step_s=10000.0)
    assert np.all(access.served)
    assert np.all(np.abs(access.range_rate_kms) * 1000.0 < 5.0)  # m/s


def test_zenith_pass_geometry():
    access = _one_satellite_access(720.0, 0.0, 0.0, 0.0, _parked(0.0, 0.0))
    assert access.elevation_deg[0] == pytest.approx(90.0)
    assert access.slant_range_km[0] == pytest.approx(720.0)
    # at closest approach the range rate vanishes (velocity tangential)
    assert access.range_rate_kms[0] == pytest.approx(0.0, abs=1e-12)


def test_look_angles_cardinal_azimuth():
    # a satellite 5 deg of arc north, east, south or west of the aircraft
    for inclination_deg, phase_deg, azimuth_deg in [(90.0, 5.0, 0.0), (0.0, 5.0, 90.0),
                                                    (90.0, -5.0, 180.0), (0.0, -5.0, 270.0)]:
        access = _one_satellite_access(720.0, inclination_deg, 0.0, phase_deg, _parked(0.0, 0.0))
        turn = (access.azimuth_deg[0] - azimuth_deg + 180.0) % 360.0 - 180.0
        assert turn == pytest.approx(0.0, abs=1e-9), azimuth_deg


def test_look_angles_observer_velocity_shifts_range_rate():
    # a satellite at the zenith, seen from a parked aircraft and from one
    # climbing straight toward it at 1 km/s
    parked = _one_satellite_access(720.0, 0.0, 0.0, 0.0, _parked(0.0, 0.0, 0.0, 10.0))
    climbing = _one_satellite_access(720.0, 0.0, 0.0, 0.0,
                                     FlightRoute(((0.0, 0.0, 0.0, 0.0), (10.0, 0.0, 0.0, 1e4))))
    assert parked.range_rate_kms[0] == pytest.approx(0.0, abs=1e-12)
    assert climbing.range_rate_kms[0] == pytest.approx(-1.0, rel=1e-9)


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
    # LEO pass over a parked aircraft at 45 N, sampled every 50 ms: the
    # range rate agrees with the slope of the range between samples
    dt = 0.05
    access = _one_satellite_access(1050.0, 89.0, 0.0, 25.0, _parked(45.0, 0.0, 0.0, 600.0),
                                   duration_s=600.0, step_s=dt)
    assert np.all(access.served)
    slope = np.diff(access.slant_range_km) / dt
    mean_rate = 0.5 * (access.range_rate_kms[1:] + access.range_rate_kms[:-1])
    assert np.ptp(access.range_rate_kms) > 5.0  # the pass turns from approach to recession
    np.testing.assert_allclose(mean_rate, slope, rtol=0.0, atol=1e-6)


# --- constellation expansion ---

def _satellite_angles(spec):
    # inclination, RAAN and epoch phase of every satellite, plane-major
    inclination, raan, phase = orbit._shell_angles(spec)
    return tuple(np.broadcast_to(column, phase.shape).ravel()
                 for column in (inclination, raan, phase))


def test_leo1_expansion():
    cat = builtin_catalog()
    inclination, raan, phase = _satellite_angles(cat.constellations["LEO-1"])
    assert len(inclination) == len(raan) == len(phase) == 288
    # third plane of the 15-degree spacing rule
    per_plane = 24
    assert raan[2 * per_plane] == pytest.approx(30.0)
    assert np.all(inclination == pytest.approx(89.0))
    # in-plane phasing is uniform
    assert phase[1] - phase[0] == pytest.approx(15.0)


def test_geo_expansion():
    cat = builtin_catalog()
    inclination, raan, phase = _satellite_angles(cat.constellations["GEO"])
    assert len(inclination) == len(raan) == len(phase) == 1
    assert inclination[0] == pytest.approx(6.0)
    assert cat.constellations["GEO"].orbit_radius_km == pytest.approx(EARTH_RADIUS + 35786.0)


def test_meo_expansion():
    cat = builtin_catalog()
    inclination, raan, phase = _satellite_angles(cat.constellations["MEO"])
    assert len(inclination) == len(raan) == len(phase) == 24
    assert sorted(set(inclination)) == [pytest.approx(70.0), pytest.approx(90.0)]
    assert list(raan[::6]) == [pytest.approx(0.0), pytest.approx(90.0),
                               pytest.approx(45.0), pytest.approx(135.0)]


def test_delta_constellation_phasing():
    cat = builtin_catalog()
    leo2 = cat.constellations["LEO-2"]
    _, _, phase = _satellite_angles(leo2)
    assert len(phase) == 264
    if leo2.phasing_factor:
        shift = leo2.phasing_factor * 360.0 / leo2.total_sats
        diff = (phase[22] - phase[0]) % 360.0
        assert diff == pytest.approx(shift % 360.0)


# --- serving selection ---
# The rule as the per-step oracle below states it; the kernel tests hold
# build_access_timeline to the oracle.

def test_select_serving_single_visible():
    assert _serve(-1, np.array([50.0]), 35.0, 0.5) == 0


def test_select_serving_handover_on_drop():
    els = np.array([34.0, 60.0])
    # serving sat 0 fell below the 35 deg mask: hand over to the best
    assert _serve(0, els, 35.0, 0.5) == 1
    # but while it holds the mask nothing changes
    assert _serve(0, np.array([36.0, 60.0]), 35.0, 0.5) == 0


def test_select_serving_outage():
    els = np.array([10.0, 20.0])
    assert _serve(0, els, 35.0, 0.5) == -1
    assert _serve(-1, els, 35.0, 0.5) == -1


def test_select_serving_hysteresis():
    # acquiring from an outage needs threshold + hysteresis...
    els = np.array([35.2])
    assert _serve(-1, els, 35.0, 0.5) == -1
    assert _serve(-1, np.array([35.6]), 35.0, 0.5) == 0
    # ...but an established link only needs the threshold itself
    assert _serve(0, els, 35.0, 0.5) == 0


# --- access timeline kernel ---

ANTIMERIDIAN_HOP = FlightRoute(((0.0, 10.0, 179.9, 1000.0), (600.0, 10.0, -179.9, 1000.0)))


def test_aircraft_speed_across_antimeridian():
    # 0.2 deg of longitude at 10 deg latitude in 600 s: about 36.5 m/s
    lat, lon = math.radians(10.0), math.radians(0.2)
    central = 2.0 * math.asin(math.cos(lat) * math.sin(lon / 2.0))
    expect_ms = central * (EARTH_RADIUS + 1.0) / 600.0 * 1000.0
    assert expect_ms == pytest.approx(36.5, abs=0.1)
    _, _, velocity = ANTIMERIDIAN_HOP.state(np.array([0.0, 30.0, 300.0, 570.0]))
    speed_ms = np.linalg.norm(velocity, axis=0) * 1000.0
    assert speed_ms == pytest.approx(np.full(4, expect_ms), rel=1e-9)
    _, lons, _ = ANTIMERIDIAN_HOP.track(np.linspace(0.0, 600.0, 601))
    assert np.all((lons >= -180.0) & (lons < 180.0))


@pytest.mark.parametrize("center_lat_deg", [0.0, 62.0, 89.95, -89.95])
def test_loiter_flies_at_its_speed(center_lat_deg):
    # 3,601 s leaves a last leg of 1 s after the 5 s ones; every leg,
    # that one included, is flown at the requested speed
    route = LoiterSpec(center_lat_deg, 10.0, 500.0, 15.0, 35.0, 3601.0).route
    assert route.duration_s == 3601.0
    assert np.diff(route.points[-2:, 0]) == pytest.approx([1.0])
    times = np.concatenate([np.arange(0.0, 3601.0, 0.7), [3600.5]])
    _, _, velocity = route.state(times)
    speed_ms = np.linalg.norm(velocity, axis=0) * 1000.0
    np.testing.assert_allclose(speed_ms, 35.0, rtol=1e-6)
    lat, _, _ = route.track(times)
    assert np.all((lat >= -90.0) & (lat <= 90.0))


def test_velocity_is_zero_past_the_end():
    route = LoiterSpec(62.0, 25.0, 500.0, 15.0, 35.0, 60.0).route
    up, radius, velocity = route.state(np.array([59.9, 60.0, 61.0, 1e6]))
    assert np.linalg.norm(velocity[:, 0]) * 1000.0 == pytest.approx(35.0, rel=1e-6)
    assert np.all(velocity[:, 1:] == 0.0)
    # and the aircraft holds still on the last waypoint
    np.testing.assert_allclose(up[:, 1:], np.repeat(up[:, 1:2], 3, axis=1), rtol=0, atol=0)


def test_polar_loiter_runs():
    # the circle encloses the pole: 15 km around 89.95 deg N
    base = resolve_scenario("scenario-7")
    route = LoiterSpec(89.95, 10.0, 500.0, 15.0, 35.0, 3600.0).route
    lat, _, _ = route.track(np.arange(0.0, 3600.0, 1.0))
    assert 89.8 < lat.min() and lat.max() < 90.0
    access = build_access_timeline(replace(base, route=route, duration_s=3600.0), 10.0)
    assert np.any(access.served)
    served = access.served
    assert np.all(np.isfinite(access.azimuth_deg[served]))
    assert np.all(np.isfinite(access.range_rate_kms[served]))


def test_leg_over_the_exact_pole():
    # from 89.5 deg N 0 deg E to 89.5 deg N 180 deg E over the pole, which
    # is reached at t = 300 s, a sampled step
    base = resolve_scenario("scenario-15b")
    route = FlightRoute(((0.0, 89.5, 0.0, 1000.0), (600.0, 89.5, 180.0, 1000.0)))
    assert route.position(300.0)[0] == pytest.approx(90.0, abs=1e-9)
    access = build_access_timeline(
        replace(base, constellation=_walker(base, 6, 20, 1000.0, 87.0, 0.0, 1, 0.0),
                route=route, duration_s=600.0, handover_threshold_deg=0.0), 10.0)
    assert access.served[30]
    assert np.all(np.isfinite(access.azimuth_deg[access.served]))


# --- independent per-step oracle ---
# Plain numpy from the textbook definitions: rotation matrices for the
# orbit plane and the Earth, omega x r by np.cross, an ENU matrix for the
# local horizon.  It shares no code with rwasim.orbit but doppler_khz, so
# it checks the kernel's frames, look angles, range rate and handover
# rule, not only its blocking and bookkeeping.

OMEGA_EARTH = np.array([0.0, 0.0, EARTH_ROTATION_RATE])


def _rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _enu(lat_deg, lon_deg):
    """Rows: the east, north and up unit vectors, in ECEF."""
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    return np.array([
        [-math.sin(lon), math.cos(lon), 0.0],
        [-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat)],
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)],
    ])


def _aircraft_ecef(lat_deg, lon_deg, alt_m):
    return (EARTH_RADIUS + alt_m / 1000.0) * _enu(lat_deg, lon_deg)[2]


# Absolute floors for values that cross zero: rounding moves a range rate
# by about 1e-13 km/s and an elevation by about 1e-10 deg.
RANGE_RATE_ATOL_KMS = 1e-9
ELEVATION_ATOL_DEG = 1e-9
# satellites within this of the highest elevation are tied, and the lowest
# id among them is taken
TIE_DEG = 1e-10
# azimuths are not compared this close to the zenith, where they are undefined
ZENITH_TOL_DEG = 1e-6


def _serve(current, elevation_deg, threshold_deg, hysteresis_deg):
    """The serving satellite for one step, -1 in an outage.

    Keep the current satellite while it is at or above the threshold,
    else take the highest one; from an outage it must clear the threshold
    plus the hysteresis.  Of satellites that hold the threshold within
    ``TIE_DEG`` of the highest, the lowest id is taken.
    """
    if current >= 0 and elevation_deg[current] >= threshold_deg:
        return current
    highest = np.max(elevation_deg)
    needed = threshold_deg + (hysteresis_deg if current < 0 else 0.0)
    tied = (elevation_deg >= highest - TIE_DEG) & (elevation_deg >= threshold_deg)
    return int(np.argmax(tied)) if highest >= needed else -1


def _aircraft_velocity(route, t, up):
    """ECEF velocity (km/s) of the aircraft at time ``t``, where its local
    vertical is ``up``: zero from the last waypoint on, else from the ends
    of the leg it flies, which turns through their angle about the leg's
    pole and climbs their altitude difference, both at a constant rate.
    """
    times, lats, lons, alts = np.asarray(route.points).T
    k = np.searchsorted(times, t, side="right") - 1
    if k == len(times) - 1:
        return np.zeros(3)
    start, end = _enu(lats[k], lons[k])[2], _enu(lats[k + 1], lons[k + 1])[2]
    normal = np.cross(start, end)
    turn = math.atan2(np.linalg.norm(normal), start @ end)
    dt = times[k + 1] - times[k]
    radius = EARTH_RADIUS + (alts[k] + (alts[k + 1] - alts[k]) * (t - times[k]) / dt) / 1000.0
    along = np.cross(normal, up) / np.linalg.norm(normal) if turn > 0 else np.zeros(3)
    return radius * turn / dt * along + (alts[k + 1] - alts[k]) / 1000.0 / dt * up


def _reference_timeline(scenario, step_s):
    """Per-step serving satellite and its (elevation, azimuth, range, range rate)."""
    spec = scenario.constellation
    a = spec.orbit_radius_km
    n = math.sqrt(MU_EARTH / a ** 3)
    # plane-major: satellite k of plane p, Walker phasing F * 360 / total per plane
    plane = np.array([_rot_z(math.radians(raan)) @ _rot_x(math.radians(inc))
                      for inc, raan in zip(spec.inclinations_deg, spec.raans_deg)
                      for _ in range(spec.sats_per_plane)])
    phase = np.radians([spec.anomaly_offset_deg + k * 360.0 / spec.sats_per_plane
                        + p * spec.phasing_factor * 360.0 / spec.total_sats
                        for p in range(spec.planes) for k in range(spec.sats_per_plane)])
    route = scenario.route
    # at least the sample at t = 0 when the flight has any duration
    n_steps = max(int(scenario.duration_s > 0),
                  int(math.floor(scenario.duration_s / step_s + 1e-9)))
    sat_id = np.full(n_steps, -1)
    cols = np.full((4, n_steps), np.nan)
    current = -1
    for i in range(n_steps):
        t = i * step_s
        u = phase + n * t
        cos_u, sin_u, zero = np.cos(u), np.sin(u), np.zeros_like(u)
        to_ecef = _rot_z(-EARTH_ROTATION_RATE * t) @ plane
        r = a * np.einsum("kij,kj->ki", to_ecef, np.stack([cos_u, sin_u, zero], 1))
        v = (a * n * np.einsum("kij,kj->ki", to_ecef, np.stack([-sin_u, cos_u, zero], 1))
             - np.cross(OMEGA_EARTH, r))
        lat, lon, alt = route.position(t)
        obs_vel = _aircraft_velocity(route, t, _enu(lat, lon)[2])
        rel = r - _aircraft_ecef(lat, lon, alt)
        east, north, up = _enu(lat, lon) @ rel.T
        elevation = np.degrees(np.arctan2(up, np.hypot(east, north)))
        current = _serve(current, elevation, scenario.handover_threshold_deg,
                         scenario.handover_hysteresis_deg)
        if current >= 0:
            dist = np.linalg.norm(rel[current])
            sat_id[i] = current
            cols[:, i] = [elevation[current],
                          math.degrees(math.atan2(east[current], north[current])) % 360.0,
                          dist, rel[current] @ (v[current] - obs_vel) / dist]
    return sat_id, cols


def _assert_kernel_matches_reference(scenario, step_s):
    access = build_access_timeline(scenario, step_s)
    sat_id, (elevation, azimuth, slant_range, range_rate) = _reference_timeline(scenario, step_s)
    assert np.array_equal(access.sat_id, sat_id)
    np.testing.assert_allclose(access.elevation_deg, elevation, rtol=1e-9,
                               atol=ELEVATION_ATOL_DEG)
    np.testing.assert_allclose(access.slant_range_km, slant_range, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(access.range_rate_kms, range_rate, rtol=1e-9,
                               atol=RANGE_RATE_ATOL_KMS)
    carrier = scenario.phy.carrier_ghz
    np.testing.assert_allclose(access.doppler_khz, doppler_khz(range_rate, carrier), rtol=1e-9,
                               atol=abs(doppler_khz(RANGE_RATE_ATOL_KMS, carrier)))
    served = access.served
    # the azimuth is undefined at the zenith
    aimed = served & (elevation < 90.0 - ZENITH_TOL_DEG)
    turn = (access.azimuth_deg[aimed] - azimuth[aimed] + 180.0) % 360.0 - 180.0
    np.testing.assert_allclose(turn, 0.0, rtol=0.0, atol=1e-9 * 360.0)
    assert np.all(np.isnan(access.azimuth_deg[~served]))
    assert np.all(access.elevation_deg[served] >= scenario.handover_threshold_deg)
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


def _meo_passes():
    """24 MEO satellites over a slow aircraft, 500 steps of 30 s.

    Several satellites clear the 10 deg mask at once, so with blocks of 8
    rows, 240 cosines a pass and 256 pairs a chunk, a candidate pass of 80
    rows holds several chunks, and the served satellite carries over chunk
    edges inside a pass.
    """
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 40.0, 10.0, 500.0), (15000.0, 41.0, 12.0, 500.0)))
    return replace(base, constellation=_walker(base, 3, 8, 8000.0, 55.0, 0.0, 1, 0.0),
                   route=route, duration_s=15000.0, handover_threshold_deg=10.0), 30.0


def _satellite_at_the_zenith():
    """Four 400 km satellites on planes at 1 deg, RAAN 0/90/180/270, phasing 3,
    over an aircraft parked at 1 deg N 0 deg E at 0 m, 0 deg mask, 10
    steps of 1 s: satellite 3 starts exactly at the zenith, where the
    azimuth is undefined (kernel 270.15 deg, per-step reference 270.05).
    """
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 1.0, 0.0, 0.0), (10.0, 1.0, 0.0, 0.0)))
    return replace(base, constellation=_walker(base, 4, 1, 400.0, 1.0, 0.0, 3, 0.0),
                   route=route, duration_s=10.0, handover_threshold_deg=0.0,
                   handover_hysteresis_deg=0.0), 1.0


def _mega_shell_passes():
    """The 4,392 satellites of tools/mega_shell.json over a slow aircraft,
    12 steps of 60 s under a 25 deg mask: a pass of the default budget
    takes 9 one-row blocks, so the flight crosses a pass edge."""
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 45.0, 10.0, 500.0), (720.0, 45.2, 10.3, 500.0)))
    return replace(base, constellation=_walker(base, 72, 61, 550.0, 53.0, 0.0, 1, 0.0),
                   route=route, duration_s=720.0, handover_threshold_deg=25.0), 60.0


@settings(max_examples=40, deadline=None)
@given(case=_scenarios(), block_span_s=st.floats(1.0, 2000.0),
       pass_angles=st.floats(0.0, 16.0).map(lambda k: int(2.0 ** k)),
       chunk_pairs=st.floats(2.0, 14.0).map(lambda k: int(2.0 ** k)))
@example(case=_lone_satellite_passes(), block_span_s=128.0, pass_angles=_PASS_ANGLES,
         chunk_pairs=2 ** 14)
@example(case=_meo_passes(), block_span_s=240.0, pass_angles=240, chunk_pairs=256)
@example(case=_satellite_at_the_zenith(), block_span_s=_BLOCK_SPAN_S, pass_angles=_PASS_ANGLES,
         chunk_pairs=_CHUNK_PAIRS)
@example(case=_mega_shell_passes(), block_span_s=_BLOCK_SPAN_S, pass_angles=_PASS_ANGLES,
         chunk_pairs=_CHUNK_PAIRS)
def test_kernel_matches_per_step_reference(case, block_span_s, pass_angles, chunk_pairs):
    # blocks of 1 s to 2000 s, passes of one block up to 2^16 (satellite,
    # block) cosines, past the default, and chunks of 4 to 2^14 pairs,
    # drawn log-uniform, often split a flight and cut chunks inside blocks,
    # so handovers, outages and the candidate bound meet pass, block and
    # chunk edges
    scenario, step_s = case
    with mock.patch.object(orbit, "_BLOCK_SPAN_S", block_span_s), \
            mock.patch.object(orbit, "_PASS_ANGLES", pass_angles), \
            mock.patch.object(orbit, "_CHUNK_PAIRS", chunk_pairs):
        _assert_kernel_matches_reference(scenario, step_s)


def test_pass_product_stays_single_threaded():
    # a pass's product is (satellites x 6) @ (6 x blocks) with at most
    # _PASS_ANGLES (satellite, block) cosines for a shell of up to that many
    # satellites, so m * n * k <= 6 * _PASS_ANGLES.  OpenBLAS starts
    # threads above 4 * 65,536, and the budget is the largest within it
    assert 6 * _PASS_ANGLES <= 4 * 65_536 < 6 * (_PASS_ANGLES + 1)


@pytest.mark.parametrize("step_s", [1.0, 4.0, 10.0, 30.0, 60.0])
def test_every_builtin_takes_one_pass(step_s):
    # a pass takes _PASS_ANGLES // satellites blocks of _block_rows rows
    for spec in builtin_catalog().scenarios.values():
        n_steps = int(math.floor(spec.duration_s / step_s + 1e-9))
        blocks = -(-n_steps // _block_rows(step_s))
        assert blocks <= _PASS_ANGLES // spec.constellation.total_sats, spec.id


def _block_rows(step_s):
    """Rows per block of the kernel's candidate bound."""
    return max(1, int(_BLOCK_SPAN_S / step_s))


def _chunk_starts(scenario, step_s):
    """The kernel's access timeline, checked, and the first rows of its
    chunks after the first, as the kernel cut them."""
    sizes = []
    scan = orbit._scan_chunk

    def spy(row, sat, elevation, served, *rest):
        sizes.append(len(served))
        return scan(row, sat, elevation, served, *rest)

    with mock.patch.object(orbit, "_scan_chunk", spy):
        access = _assert_kernel_matches_reference(scenario, step_s)
    return access, np.cumsum(sizes)[:-1]


def _switches(sat_id):
    """Rows that hand over from one satellite to another."""
    return np.flatnonzero((sat_id[1:] != sat_id[:-1]) & (sat_id[1:] >= 0) & (sat_id[:-1] >= 0)) + 1


def _handover_scenario(offset_deg):
    # 300 satellites over an antimeridian hop, 150 steps of 4 s
    base = resolve_scenario("scenario-7")
    return replace(
        base, constellation=_walker(base, 12, 25, 550.0, 53.0, 0.0, 1, offset_deg),
        route=ANTIMERIDIAN_HOP, duration_s=600.0, handover_threshold_deg=20.0)


def test_kernel_handover_across_block_boundary():
    # blocks of 15 steps, and a handover on step 45, the first step of
    # the fourth
    rows = _block_rows(4.0)
    access = _assert_kernel_matches_reference(_handover_scenario(13.0), 4.0)
    assert len(access) > 2 * rows
    switches = _switches(access.sat_id)
    assert np.any(switches % rows == 0)


def test_kernel_handover_on_chunk_edge():
    # at most 16 pairs a chunk, with 2 to 4 candidates a block: chunks cut
    # blocks of 15 steps, and the handover on step 115 is the first step
    # of a chunk inside the eighth block
    with mock.patch.object(orbit, "_CHUNK_PAIRS", 16):
        access, starts = _chunk_starts(_handover_scenario(11.0), 4.0)
    inside = starts[starts % _block_rows(4.0) != 0]
    assert len(inside) > 2
    assert np.intersect1d(_switches(access.sat_id), inside).size > 0


# --- candidate filter and event scan ---

def _walker_scenario(planes, per_plane, altitude_km, inclination_deg, route, duration_s,
                     threshold_deg):
    base = resolve_scenario("scenario-7")
    return replace(base, constellation=_walker(base, planes, per_plane, altitude_km,
                                               inclination_deg, 0.0, 1, 11.0),
                   route=route, duration_s=duration_s, handover_threshold_deg=threshold_deg)


def test_kernel_fast_aircraft_moves_the_candidate_set():
    # 30 deg of longitude per 40 s leg, 3 deg per 4 s step: over a block of
    # 15 rows the aircraft's zenith moves far more than a satellite drifts
    points = tuple((40.0 * k, 20.0, (30.0 * k + 180.0) % 360.0 - 180.0, 1000.0)
                   for k in range(16))
    scenario = _walker_scenario(12, 25, 550.0, 53.0, FlightRoute(points), 600.0, 20.0)
    access = _assert_kernel_matches_reference(scenario, 4.0)
    assert access.handover_count() >= 10


def test_kernel_outage_across_block_boundary():
    # a 40 deg mask over 300 satellites: an outage over rows 85 to 125
    # runs across the block edges at rows 90, 105 and 120
    scenario = _walker_scenario(12, 25, 550.0, 53.0, ANTIMERIDIAN_HOP, 600.0, 40.0)
    access = _assert_kernel_matches_reference(scenario, 4.0)
    rows = _block_rows(4.0)
    starts = np.arange(rows, len(access), rows)
    ids = access.sat_id
    assert np.any(access.served)
    assert np.any((ids[starts - 1] < 0) & (ids[starts] < 0))


def test_kernel_outage_on_chunk_edge():
    # at most 6 pairs a chunk, with up to 2 candidates a block: chunks cut
    # blocks of 15 steps, the outage over rows 85 to 125 runs across chunk
    # edges inside blocks, and the link is acquired on row 126, the first
    # of a chunk inside the ninth block
    scenario = _walker_scenario(12, 25, 550.0, 53.0, ANTIMERIDIAN_HOP, 600.0, 40.0)
    with mock.patch.object(orbit, "_CHUNK_PAIRS", 6):
        access, starts = _chunk_starts(scenario, 4.0)
    inside = starts[starts % _block_rows(4.0) != 0]
    ids = access.sat_id
    assert np.any((ids[inside - 1] < 0) & (ids[inside] < 0))
    assert np.any((ids[inside - 1] < 0) & (ids[inside] >= 0))


def test_kernel_memory_is_bounded():
    # 288 satellites under a 10 deg mask over 50,000 steps of 1 s: about
    # 12 candidates a step, so one chunk for the whole flight would hold
    # 625,000 pairs and take several times the bound below
    n_steps = 50_000
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 50.0, 10.0, 1000.0), (float(n_steps), 52.0, 14.0, 1000.0)))
    scenario = replace(base, route=route, duration_s=float(n_steps), handover_threshold_deg=10.0)
    assert scenario.constellation.total_sats == 288
    tracemalloc.start()
    try:
        access = build_access_timeline(scenario, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(access) == n_steps
    # step-sized columns (the aircraft's state, the rotated zenith and the
    # served geometry) peak at about 60 floats a step; a chunk's
    # temporaries stay under 128 floats a pair of the budget
    assert peak < 8 * (80 * n_steps + 128 * _CHUNK_PAIRS)


def test_kernel_memory_is_bounded_for_a_mega_shell():
    # 4,392 satellites at 20,000 km under a 0 deg mask leave about 1,570
    # candidates a block: a 60-row block alone holds about 94,000 pairs,
    # so the chunks must cut blocks to stay under the bound
    n_steps = 600
    base = resolve_scenario("scenario-7")
    route = FlightRoute(((0.0, 45.0, 10.0, 1000.0), (float(n_steps), 45.1, 10.2, 1000.0)))
    scenario = replace(base, constellation=_walker(base, 72, 61, 20000.0, 53.0, 0.0, 1, 0.0),
                       route=route, duration_s=float(n_steps), handover_threshold_deg=0.0)
    tracemalloc.start()
    try:
        access = build_access_timeline(scenario, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(access.served)
    assert peak < 8 * (80 * n_steps + 128 * _CHUNK_PAIRS)


def test_kernel_ties_go_to_the_lowest_id():
    # two planes at RAAN 0 and 360 deg put two satellites at one position
    base = resolve_scenario("scenario-7")
    constellation = replace(_walker(base, 2, 1, 550.0, 53.0, 0.0, 0, 0.0), raans_deg=(0.0, 360.0))
    route = FlightRoute(((0.0, 0.0, 10.0, 0.0), (3000.0, 0.0, 10.0, 0.0)))
    access = build_access_timeline(replace(base, constellation=constellation, route=route,
                                           duration_s=3000.0, handover_threshold_deg=10.0), 10.0)
    assert np.any(access.served)
    assert np.all(access.sat_id[access.served] == 0)


def test_scan_tie_must_hold_the_threshold():
    # satellite 0 is within the tie of satellite 1 but just under the 10
    # deg threshold: satellite 1 is acquired, and the scan ends
    served = np.full(2, -1)
    elevation = np.array([10.0 - 5e-11, 10.0 - 5e-11, 10.0 + 1e-11, 10.0 + 1e-11])
    assert orbit._scan_chunk(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]), elevation, served,
                             -1, 10.0, 10.0) == 1
    assert served.tolist() == [1, 1]


@pytest.mark.parametrize("scenario_id", ["scenario-6", "scenario-19"])
def test_kernel_opening_tie_goes_to_the_lowest_id(scenario_id):
    # at t = 0 satellites 204 and 225 of LEO-2 are the highest, a few 1e-14
    # deg apart, which rounding alone orders: the tie goes to 204
    scenario = resolve_scenario(scenario_id)
    assert build_access_timeline(scenario, 60.0).sat_id[0] == 204
    assert _reference_timeline(replace(scenario, duration_s=60.0), 60.0)[0][0] == 204


@pytest.mark.parametrize("step_s", [7200.0, 7201.0, 1e9])
def test_a_step_longer_than_the_flight_takes_the_first_sample(step_s):
    # at 7,201 s scenario-7's 7,200 s flight took no sample, and its run
    # exited 3 with "no satellite above 40.0 deg"
    scenario = resolve_scenario("scenario-7")
    access = _assert_kernel_matches_reference(scenario, step_s)
    assert access.times_s.tolist() == [0.0] and access.served.all()
    # a flight of no duration still takes none
    assert len(build_access_timeline(replace(scenario, duration_s=0.0), step_s)) == 0


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
    # the Karman line: it stands 32.69 deg high from the ground and 32.56
    # deg from the top, so it clears a 32.6 deg mask at the start but not
    # at the end, and the reach falls by more than the satellite drifts
    base = resolve_scenario("scenario-15b")
    route = FlightRoute(((0.0, 0.0, 50.0, 0.0), (600.0, 0.0, 50.0, 1.0e5)))
    scenario = replace(base, constellation=_walker(base, 1, 1, 35786.0, 0.0, 0.0, 0, 0.0),
                       route=route, duration_s=600.0, handover_threshold_deg=32.6,
                       handover_hysteresis_deg=0.0)
    access = _assert_kernel_matches_reference(scenario, 10.0)
    assert access.served[0] and not access.served[-1]


def test_served_is_one_read_only_mask_per_timeline():
    # under a 60 deg mask scenario-19 has outages
    scenario = replace(builtin_catalog().scenarios["scenario-19"], handover_threshold_deg=60.0)
    access = build_access_timeline(scenario, 60.0)
    served = access.served
    assert served.dtype == bool and served.tolist() == (access.sat_id >= 0).tolist()
    assert 0 < np.count_nonzero(served) < len(access)
    assert access.served is served
    with pytest.raises(ValueError):
        served[0] = not served[0]
    # a timeline made from another gets its own mask
    other = replace(access, sat_id=np.where(served, -1, 0))
    assert other.served.tolist() == (~served).tolist()
    assert access.served is served
