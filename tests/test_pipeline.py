import csv
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from output_columns import output_columns, slot_columns
from rwasim import orbit as orbit_module
from rwasim import phy as phy_module
from rwasim import pipeline
from rwasim.blades import (REGEN_FRACTION, RotorSpec, blocked_ms, crossing, regenerations,
                           schedule, slot_blocked_ms)
from rwasim.cli import main
from rwasim.constants import EARTH_ROTATION_RATE
from rwasim.errors import ConfigError
from rwasim.linkbudget import (atmospheric_loss, compute_cnr, fspl, off_boresight_gain,
                               pointing_offset, rescale_cnr)
from rwasim.orbit import AccessTimeline, build_access_timeline, circular_speed
from rwasim.phy import (FRAME_MS, FrameStats, Mcs, PhyConfig, aggregate, erased_slots,
                        simulate_frames, transport_block_size)
from rwasim.pipeline import (
    _CSV_CHUNK_ROWS,
    BLADE_FIELDS,
    _write_csv,
    blade_overlay,
    build_report,
    compare_reports,
    link_timeline,
    run_scenario,
    sweep_cnr,
    write_outputs,
    write_sweep_csv,
)
from rwasim.scenarios import (
    AircraftSpec,
    ConstellationSpec,
    FlightRoute,
    LoiterSpec,
    RfPayloadSpec,
    ScenarioSpec,
    builtin_catalog,
    serialize_scenario,
)

REPORT_KEYS = {
    "scenario_id", "seed", "mode", "step_s", "n_frames", "duration_s",
    "direction", "band", "carrier_ghz", "bandwidth_mhz", "access_percent",
    "handovers", "elevation_deg", "doppler_abs_khz", "loss_db", "cnr_db",
    "cnr_prime_db", "ber", "data_rate_mbps", "slot_loss_fraction",
    "n_slots", "n_erased",
}


def _overhead_geo(gain_over_t=22.0, lon=5.0, threshold=10.0, duration=60.0,
                  **overrides) -> ScenarioSpec:
    """A one-satellite scenario with the terminal almost under the slot.

    The satellite is geosynchronous over ~5 deg E, so a route on the
    equator at that longitude sees it near zenith for the whole (short)
    flight: access is 100 %, there are no handovers, and the link
    barely moves -- a controllable fixture for output-format tests.
    """
    payload = RfPayloadSpec(beam_eirp_dbw=40.0, gain_over_t_dbk=gain_over_t)
    constellation = ConstellationSpec(
        name="GEO-S", altitude_km=35786.0, planes=1, inclinations_deg=(6.0,),
        raans_deg=(20.0,), sats_per_plane=1,
        payloads={"S": payload}, anomaly_offset_deg=-15.0)
    aircraft = AircraftSpec(
        name="testbed", steerable=True, band="S",
        bandwidth_mhz=5.0, beamwidth_deg=(60.0, 60.0), max_gain_dbi=6.0,
        tx_power_dbw=10.0)
    route = FlightRoute(((0.0, 0.0, lon, 100.0),
                         (duration + 60.0, 0.0, lon, 100.0)))
    base = dict(
        id="geo-overhead", aircraft=aircraft, constellation=constellation,
        direction="uplink", duration_s=duration, route=route,
        phy=PhyConfig(carrier_ghz=2.0, bandwidth_mhz=5.0, scs_khz=15,
                      n_rb=25, mcs=Mcs("QPSK", 0.5)),
        handover_threshold_deg=threshold)
    base.update(overrides)
    return ScenarioSpec(**base)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# === end-to-end runs ===

def test_run_produces_report_and_files(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=5.0, n_frames=20,
                          mode="expected", out_dir=tmp_path)
    rep = result.report
    assert set(rep) == REPORT_KEYS
    assert rep["access_percent"] == 100.0
    assert rep["handovers"] == 0
    assert rep["elevation_deg"]["avg"] == pytest.approx(88.18, abs=0.1)
    assert rep["cnr_db"]["avg"] == pytest.approx(9.98, abs=0.05)
    assert rep["n_slots"] == 20 * 10      # 15 kHz grid: 10 slots per frame
    assert rep["n_erased"] == 0
    assert rep["data_rate_mbps"] == pytest.approx(4.2)
    target = tmp_path / "geo-overhead"
    for name in ("access.csv", "link.csv", "slots.csv", "report.json"):
        assert (target / name).exists()
    assert not (target / "blades.csv").exists()   # no rotor on this airframe


def test_report_json_matches_in_memory_report(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=5.0, n_frames=10,
                          mode="expected", out_dir=tmp_path)
    on_disk = json.loads((tmp_path / "geo-overhead" / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(result.report))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("sid", sorted(builtin_catalog().scenarios))
def test_report_json_is_strict(tmp_path, sid, mode):
    # NaN and Infinity are not JSON, though Python's json reads and writes them
    assert main(["run", "--scenario", sid, "--mode", mode, "--step", "60", "--frames", "20",
                 "--out", str(tmp_path)]) == 0
    json.loads((tmp_path / sid / "report.json").read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("prime", [None, 1.0], ids=["no-cnr-prime", "cnr-prime"])
def test_report_recomputable_from_csvs(tmp_path, prime):
    run_scenario(_overhead_geo(cnr_prime_bandwidth_mhz=prime), step_s=5.0, n_frames=20,
                 mode="mc", seed=3, out_dir=tmp_path)
    target = tmp_path / "geo-overhead"
    rep = json.loads((target / "report.json").read_text())
    access = _read_csv(target / "access.csv")
    link = _read_csv(target / "link.csv")
    slots = _read_csv(target / "slots.csv")

    served = [int(r["sat_id"]) >= 0 for r in access]
    assert rep["access_percent"] == pytest.approx(
        100.0 * sum(served) / len(served))
    ids = [int(r["sat_id"]) for r, s in zip(access, served) if s]
    assert rep["handovers"] == sum(a != b for a, b in zip(ids, ids[1:]))

    els = [float(r["elevation_deg"]) for r, s in zip(access, served) if s]
    assert rep["elevation_deg"]["avg"] == pytest.approx(np.mean(els), rel=1e-9)
    assert rep["elevation_deg"]["min"] == pytest.approx(np.min(els), rel=1e-9)
    dops = [abs(float(r["doppler_khz"])) for r, s in zip(access, served) if s]
    assert rep["doppler_abs_khz"]["max"] == pytest.approx(np.max(dops), rel=1e-9)

    losses = [float(r["total_db"]) for r, s in zip(link, served) if s]
    cnrs = [float(r["cnr_db"]) for r, s in zip(link, served) if s]
    assert rep["loss_db"]["avg"] == pytest.approx(np.mean(losses), rel=1e-9)
    assert rep["cnr_db"]["avg"] == pytest.approx(np.mean(cnrs), rel=1e-9)
    if prime is None:
        assert rep["cnr_prime_db"] is None
    else:
        # the served CNR over the reference bandwidth: + 10 log10(B / B')
        primes = np.array(cnrs) + 10.0 * math.log10(rep["bandwidth_mhz"] / prime)
        for key, value in (("min", primes.min()), ("max", primes.max()),
                           ("avg", primes.mean())):
            assert rep["cnr_prime_db"][key] == pytest.approx(value, rel=1e-9), key

    bits = sum(float(r["payload_bits"]) for r in slots)
    errors = sum(float(r["bit_errors"]) for r in slots)
    erased = sum(int(r["erased"]) for r in slots)
    assert rep["n_slots"] == len(slots)
    assert rep["n_erased"] == erased
    assert rep["ber"] == pytest.approx(errors / bits, rel=1e-9)
    assert rep["slot_loss_fraction"] == pytest.approx(erased / len(slots))
    decoded_bits = sum(float(r["payload_bits"]) for r in slots
                       if not int(r["erased"]) and float(r["bit_errors"]) == 0)
    assert rep["data_rate_mbps"] == pytest.approx(
        decoded_bits / (rep["n_frames"] * FRAME_MS) / 1000.0, rel=1e-9)


def test_report_recomputable_from_csvs_expected_mode(tmp_path):
    # expected mode reports unrounded BER x payload and decode-probability
    # weighted payload, so these come from the ber and decode_prob columns
    spec = builtin_catalog().scenarios["scenario-7"]
    run_scenario(spec, step_s=10.0, n_frames=200, mode="expected", seed=0,
                 out_dir=tmp_path)
    target = tmp_path / "scenario-7"
    rep = json.loads((target / "report.json").read_text())
    slots = _read_csv(target / "slots.csv")

    bits = [float(r["payload_bits"]) for r in slots]
    erased = sum(int(r["erased"]) for r in slots)
    assert rep["n_slots"] == len(slots)
    assert rep["n_erased"] == erased > 0
    assert rep["slot_loss_fraction"] == pytest.approx(erased / len(slots))
    errors = sum(float(r["ber"]) * b for r, b in zip(slots, bits))
    assert rep["ber"] == pytest.approx(errors / sum(bits), rel=1e-9)
    delivered = sum(float(r["decode_prob"]) * b for r, b in zip(slots, bits))
    assert rep["data_rate_mbps"] > 0.0
    assert rep["data_rate_mbps"] == pytest.approx(
        delivered / (rep["n_frames"] * FRAME_MS) / 1000.0, rel=1e-9)


def test_same_seed_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_scenario(_overhead_geo(gain_over_t=12.0), step_s=5.0, n_frames=20,
                     mode="mc", seed=11, out_dir=tmp_path / sub)
    for name in ("access.csv", "link.csv", "slots.csv", "report.json"):
        a = (tmp_path / "a" / "geo-overhead" / name).read_bytes()
        b = (tmp_path / "b" / "geo-overhead" / name).read_bytes()
        assert a == b, name


def test_seed_changes_monte_carlo_draws():
    mid = _overhead_geo(gain_over_t=12.0)   # CNR ~0 dB: plenty of bit errors
    r0 = run_scenario(mid, step_s=5.0, n_frames=20, mode="mc", seed=0)
    r1 = run_scenario(mid, step_s=5.0, n_frames=20, mode="mc", seed=1)
    assert not np.array_equal(r0.slots.bit_errors, r1.slots.bit_errors)
    assert r0.report["ber"] == pytest.approx(r1.report["ber"], rel=0.2)


def test_randomized_blade_phase_follows_the_seed(tmp_path):
    fixed = builtin_catalog().scenarios["scenario-15a"]
    randomized = replace(fixed, randomize_blade_phase=True)

    def erased(spec, seed, out=None):
        return run_scenario(spec, step_s=60.0, n_frames=50, mode="mc", seed=seed,
                            out_dir=out).slots.erased

    # a fixed phase erases the same slots whatever the seed
    assert np.array_equal(erased(fixed, 1), erased(fixed, 2))
    first = erased(randomized, 1, tmp_path / "a")
    erased(randomized, 1, tmp_path / "b")
    for path in (tmp_path / "a" / fixed.id).iterdir():
        assert path.read_bytes() == (tmp_path / "b" / fixed.id / path.name).read_bytes(), path
    assert np.any(first)
    assert not np.array_equal(first, erased(randomized, 2))


def test_cnr_prime_rescales_by_bandwidth_ratio():
    result = run_scenario(_overhead_geo(cnr_prime_bandwidth_mhz=1.0),
                          step_s=5.0, n_frames=5, mode="expected")
    rep = result.report
    assert rep["cnr_prime_db"]["avg"] - rep["cnr_db"]["avg"] == pytest.approx(
        10.0 * math.log10(5.0 / 1.0), rel=1e-9)


def test_run_without_visible_satellite_raises():
    # same orbit, but the aircraft sits on the far side of the planet
    with pytest.raises(RuntimeError, match="no satellite"):
        run_scenario(_overhead_geo(lon=180.0), step_s=5.0, n_frames=5)


def test_zero_frames_still_reports_geometry():
    rep = run_scenario(_overhead_geo(), step_s=5.0, n_frames=0).report
    assert rep["n_slots"] == 0
    assert rep["ber"] == 0.0
    assert rep["access_percent"] == 100.0


def test_zero_frames_writes_header_only_slots_csv(tmp_path):
    run_scenario(_overhead_geo(), step_s=5.0, n_frames=0, out_dir=tmp_path)
    assert (tmp_path / "geo-overhead" / "slots.csv").read_bytes() == (
        b"slot_index,t_start_ms,erased,cnr_db,payload_bits,bit_errors,"
        b"ber,decode_prob\r\n")


def test_rotorcraft_run_writes_blade_table(tmp_path):
    spec = builtin_catalog().scenarios["scenario-15b"]
    result = run_scenario(spec, step_s=60.0, n_frames=10, mode="expected",
                          out_dir=tmp_path)
    assert len(result.blade_rows), "rotor aircraft must produce schedule segments"
    rows = _read_csv(tmp_path / "scenario-15b" / "blades.csv")
    assert list(rows[0]) == ["elevation_deg", "d_rotor_m", "phi_deg",
                             "t_int_ms", "t_lnk_ms", "duty_cycle"]
    for row in rows:
        blocked = float(row["t_int_ms"])
        clear = float(row["t_lnk_ms"])
        assert blocked > 0.0
        assert float(row["duty_cycle"]) == pytest.approx(
            blocked / (blocked + clear), rel=1e-9)
    assert result.report["n_erased"] > 0


def test_rotor_erased_is_the_same_in_any_block_of_frames():
    # 1,000 frames of 80 slots: two blocks at the default 2**16 slots, one
    # frame a block, three frames a block.  Every frame has its own blocked
    # time, outages' 0 among them, and the rotor turns from a fixed phase.
    spec = replace(builtin_catalog().scenarios["scenario-15a"], blade_phase_ms=7.3)
    rotor, num = spec.aircraft.rotor, spec.phy.numerology
    spf = num.slots_per_frame
    frame_blocked = blocked_ms(rotor, np.linspace(20.0, 89.0, 1000))
    frame_blocked[::7] = 0.0
    offsets = np.arange(1000) * FRAME_MS + 7.3
    want = erased_slots(slot_blocked_ms(schedule(rotor, frame_blocked), offsets, num.slot_ms,
                                        spf), num)
    assert 0 < np.count_nonzero(want) < want.size
    for block_slots in (2**16, 1, 3 * spf):
        with mock.patch.object(pipeline, "_BLOCK_SLOTS", block_slots):
            got = pipeline._rotor_erased(spec, frame_blocked, seed=0)
        assert got.dtype == bool
        assert np.array_equal(got, want)


def test_write_outputs_returns_scenario_directory(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=10.0, n_frames=2,
                          mode="expected")
    target = write_outputs(result, tmp_path)
    assert target == tmp_path / "geo-overhead"


# === link budget and blade overlay against a per-sample reference ===

def _rain_reference(profile, t):
    rate = 0.0
    for start, value in profile:
        if t >= start:
            rate = value
    return rate


def _reference_link(scenario, access):
    """fspl, gas, rain, cloud, total and CNR rows, one sample at a time."""
    aircraft = scenario.aircraft
    cols = np.full((6, len(access)), np.nan)
    cols[5] = -np.inf
    for i in np.flatnonzero(access.served):
        el, az = float(access.elevation_deg[i]), float(access.azimuth_deg[i])
        rate = _rain_reference(scenario.rain_profile, float(access.times_s[i]))
        gas, cloud, rain = atmospheric_loss(scenario.loss_model, scenario.band, el, rate)
        free = fspl(float(access.slant_range_km[i]), scenario.phy.carrier_ghz)
        total = free + gas + rain + cloud
        penalty = 0.0
        if not aircraft.steerable:
            offset = pointing_offset(aircraft.boresight_elevation_deg,
                                     aircraft.boresight_azimuth_deg, el, az)
            penalty = aircraft.max_gain_dbi - off_boresight_gain(
                aircraft.max_gain_dbi, aircraft.beamwidth_mid_deg, offset)
        if scenario.direction == "uplink":
            eirp, gain_over_t = aircraft.eirp_dbw, scenario.payload.gain_over_t_dbk
        else:
            eirp, gain_over_t = scenario.payload.beam_eirp_dbw, aircraft.receive_gain_over_t_dbk
        cols[:, i] = [free, gas, rain, cloud, total,
                      compute_cnr(eirp, gain_over_t, total, aircraft.bandwidth_mhz,
                                  pointing_penalty_db=penalty, margin_db=scenario.margin_db)]
    return cols


def _reference_blades(rotor, access):
    """Segment index per sample and segment rows under the 5 % rule, one sample at a time."""
    segment = np.full(len(access), -1)
    rows = []
    current = None
    for i in np.flatnonzero(access.served):
        el = float(access.elevation_deg[i])
        candidate = schedule(rotor, float(blocked_ms(rotor, el)))
        have, want = (None, None) if current is None else (current.blocked_ms, candidate.blocked_ms)
        if (current is None
                or ((have == 0.0 or want == 0.0) and have != want)
                or (have != 0.0 and want != 0.0 and abs(want - have) / have > REGEN_FRACTION)):
            current = candidate
            radius, arc = crossing(rotor, el)
            rows.append((el, radius, arc, current.blocked_ms, current.clear_ms,
                         current.duty_cycle))
        segment[i] = len(rows) - 1
    return segment, np.array(rows, dtype=float).reshape(-1, 6)


def _overlay_by_schedule_timeline(scenario, access):
    """`blade_overlay` derived from a timeline of schedules: `blocked_ms` of the
    served samples, its `regenerations` and their `schedule`, the crossing
    again at each segment's first sample, and the rows by `np.rec.fromarrays`."""
    rotor = scenario.aircraft.rotor
    segment = np.full(len(access), -1)
    if rotor is None:
        return segment, np.rec.fromarrays([np.empty(0)] * len(BLADE_FIELDS), names=BLADE_FIELDS)
    served = access.sat_id >= 0
    el = access.elevation_deg[served]
    blocked = blocked_ms(rotor, el)
    served_segment, starts = regenerations(blocked)
    schedules = schedule(rotor, blocked[starts])
    segment[served] = served_segment
    first_el = el[np.flatnonzero(np.diff(served_segment, prepend=-1))]
    radius, arc = crossing(rotor, first_el)
    return segment, np.rec.fromarrays([first_el, radius, arc, schedules.blocked_ms,
                                       schedules.clear_ms, schedules.duty_cycle],
                                      names=BLADE_FIELDS)


def _overlay_cases():
    catalog = builtin_catalog().scenarios
    rotors = [sid for sid, spec in sorted(catalog.items()) if spec.aircraft.rotor is not None]
    cases = [pytest.param(catalog[sid], step_s, id=f"{sid}-{step_s:g}s")
             for sid in rotors for step_s in (1.0, 4.0)]
    # under a 60 deg mask scenario-19 has outages
    cases.append(pytest.param(replace(catalog["scenario-19"], handover_threshold_deg=60.0), 1.0,
                              id="scenario-19-outages"))
    none = next(sid for sid, spec in sorted(catalog.items()) if spec.aircraft.rotor is None)
    cases.append(pytest.param(catalog[none], 4.0, id=f"{none}-no-rotor"))
    return cases


@pytest.mark.parametrize("scenario, step_s", _overlay_cases())
def test_blade_overlay_is_bit_for_bit_the_schedule_timeline_one(scenario, step_s):
    access = build_access_timeline(scenario, step_s)
    segment, rows = blade_overlay(scenario, access)
    want_segment, want_rows = _overlay_by_schedule_timeline(scenario, access)
    assert segment.dtype == want_segment.dtype
    assert segment.tolist() == want_segment.tolist()
    assert type(rows) is np.recarray
    assert rows.dtype == want_rows.dtype
    assert [rows.dtype[name] for name in BLADE_FIELDS] == [np.dtype(float)] * len(BLADE_FIELDS)
    assert rows.tobytes() == want_rows.tobytes()
    if scenario.aircraft.rotor is None:
        assert len(rows) == 0 and np.all(segment == -1)
    else:
        assert len(rows) > 1
        assert (segment == -1).tolist() == (access.sat_id < 0).tolist()


@st.composite
def _link_cases(draw):
    base = builtin_catalog().scenarios[draw(st.sampled_from(sorted(builtin_catalog().scenarios)))]
    step_s = draw(st.sampled_from([1.0, 7.5, 60.0]))
    n = draw(st.integers(0, 60))
    times = np.arange(n) * step_s
    served = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    # slow drifts keep a blade schedule in force, jumps rebuild it
    steps = draw(st.lists(st.one_of(st.floats(-0.3, 0.3), st.floats(-60.0, 60.0)),
                          min_size=n, max_size=n))
    el = np.clip(draw(st.floats(0.5, 90.0)) + np.cumsum(steps), 0.5, 90.0)
    azimuth = np.array(draw(st.lists(st.floats(0.0, 359.99), min_size=n, max_size=n)))
    slant = np.array(draw(st.lists(st.floats(300.0, 40000.0), min_size=n, max_size=n)))
    access = AccessTimeline(
        times_s=times, sat_id=np.where(served, 0, -1),
        elevation_deg=np.where(served, el, np.nan),
        azimuth_deg=np.where(served, azimuth, np.nan),
        slant_range_km=np.where(served, slant, np.nan),
        range_rate_kms=np.zeros(n), doppler_khz=np.zeros(n))

    rotor = draw(st.one_of(st.none(), st.builds(
        RotorSpec, n_blades=st.integers(1, 6), blade_width_m=st.floats(0.05, 3.0),
        rpm=st.sampled_from([380.0, 395.0, 400.0, 1280.0]) | st.floats(100.0, 3000.0),
        shaft_offset_m=st.floats(0.0, 4.0), rotor_height_m=st.floats(0.1, 1.0),
        tip_radius_m=st.floats(0.5, 6.0))))
    aircraft = replace(
        base.aircraft, steerable=draw(st.booleans()),
        boresight_elevation_deg=draw(st.floats(0.0, 90.0)),
        boresight_azimuth_deg=draw(st.floats(0.0, 360.0)), rotor=rotor)
    directions = ["downlink"] + (["uplink"] if aircraft.tx_power_dbw is not None else [])
    # rain steps land on sample times, between them, and share start times
    starts = sorted(draw(st.lists(st.one_of(st.sampled_from(list(times) or [0.0]),
                                            st.floats(0.0, max(n * step_s, 1.0))),
                                  max_size=5)))
    profile = tuple((t, draw(st.sampled_from([0.0, 5.0]) | st.floats(0.0, 60.0)))
                    for t in starts)
    scenario = replace(
        base, aircraft=aircraft, direction=draw(st.sampled_from(directions)),
        phy=replace(base.phy, ntn_band=None), rain_profile=profile,
        margin_db=draw(st.floats(0.0, 5.0)),
        cnr_prime_bandwidth_mhz=draw(st.none() | st.floats(1.0, 400.0)))
    return scenario, access


@settings(max_examples=150, deadline=None)
@given(case=_link_cases())
def test_link_and_blades_match_per_sample_reference(case):
    scenario, access = case
    link = link_timeline(scenario, access)
    want = _reference_link(scenario, access)
    got = np.array([link.fspl_db, link.gas_db, link.rain_db, link.cloud_db,
                    link.total_db, link.cnr_db])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    prime = scenario.cnr_prime_bandwidth_mhz
    if access.served.any():
        report = build_report(scenario, access, link, FrameStats(0, 0, 0.0, 0.0, 0.0),
                              1.0, 0, "mc", 0)
        if prime is None:
            assert report["cnr_prime_db"] is None
        else:
            rescaled = rescale_cnr(want[5][access.served], scenario.aircraft.bandwidth_mhz,
                                   prime)
            np.testing.assert_allclose(
                [report["cnr_prime_db"][k] for k in ("min", "max", "avg")],
                [rescaled.min(), rescaled.max(), rescaled.mean()], rtol=1e-12, atol=0.0)

    segment, rows = blade_overlay(scenario, access)
    rotor = scenario.aircraft.rotor
    if rotor is None:
        assert np.all(segment == -1) and len(rows) == 0
        return
    want_segment, want_rows = _reference_blades(rotor, access)
    assert np.array_equal(segment, want_segment)
    got_rows = np.array([(r.elevation_deg, r.radius_m, r.arc_deg, r.blocked_ms,
                          r.clear_ms, r.duty_cycle) for r in rows], dtype=float).reshape(-1, 6)
    np.testing.assert_allclose(got_rows, want_rows, rtol=1e-12, atol=0.0)
    assert np.all(rows.clear_ms >= 0.0)


# === whole random scenarios ===

@st.composite
def _run_cases(draw):
    base = builtin_catalog().scenarios[draw(st.sampled_from(sorted(builtin_catalog().scenarios)))]
    planes = draw(st.integers(1, 6))
    altitude = draw(st.floats(500.0, 2000.0))
    constellation = replace(
        base.constellation, altitude_km=altitude, planes=planes,
        sats_per_plane=draw(st.integers(1, 10)),
        inclinations_deg=(draw(st.floats(30.0, 100.0)),) * planes,
        raans_deg=tuple(k * 360.0 / planes for k in range(planes)),
        phasing_factor=draw(st.integers(0, planes - 1)),
        anomaly_offset_deg=draw(st.floats(0.0, 360.0)))
    duration = draw(st.floats(60.0, 1800.0))
    speed_ms = draw(st.floats(5.0, 80.0))
    # loiter centres anywhere, the poles included
    route = LoiterSpec(draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)),
                       draw(st.floats(0.0, 3000.0)), draw(st.floats(1.0, 20.0)),
                       speed_ms, duration).route
    scenario = replace(base, constellation=constellation, route=route, duration_s=duration,
                       handover_threshold_deg=draw(st.floats(0.0, 40.0)))
    return (scenario, speed_ms / 1000.0, draw(st.floats(5.0, 120.0)),
            draw(st.integers(1, 20)), draw(st.sampled_from(["mc", "expected"])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=40, deadline=None)
@given(case=_run_cases())
def test_random_scenario_invariants(case):
    scenario, aircraft_kms, step_s, n_frames, mode, seed = case
    try:
        result = run_scenario(scenario, step_s=step_s, n_frames=n_frames, mode=mode, seed=seed)
    except RuntimeError:
        assert not np.any(build_access_timeline(scenario, step_s).served)
        return
    access, slots = result.access, result.slots
    served = access.served
    assert np.all(access.elevation_deg[served] >= scenario.handover_threshold_deg)
    a = scenario.constellation.orbit_radius_km
    # the loiter flies at exactly its speed; 1 % of it is slack
    limit = circular_speed(a) + EARTH_ROTATION_RATE * a + 1.01 * aircraft_kms
    assert np.all(np.abs(access.range_rate_kms[served]) <= limit)
    n_slots = n_frames * scenario.phy.numerology.slots_per_frame
    assert len(slots) == result.report["n_slots"] == n_slots
    clear = ~slots.erased
    assert np.all((slots.ber[clear] >= 0.0) & (slots.ber[clear] <= 0.5))


@st.composite
def _fractional_step_cases(draw):
    sid = draw(st.sampled_from(sorted(builtin_catalog().scenarios)))
    step_s = draw(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.5])
                  | st.floats(0.05, 5.0).filter(lambda s: s != round(s)))
    n_frames = draw(st.integers(1, 400))
    # frames a whole number of steps apart start on sample times, where a
    # float quotient of time and step can round to either neighbour
    spacing = draw(st.integers(1, 4)) * step_s if draw(st.booleans()) else draw(
        st.floats(0.01, 6.0))
    duration = min(n_frames * spacing, 1800.0)
    return sid, duration, step_s, n_frames, draw(st.sampled_from(["mc", "expected"]))


@settings(max_examples=40, deadline=None)
@given(case=_fractional_step_cases())
def test_frames_take_the_sample_at_their_start(case):
    sid, duration, step_s, n_frames, mode = case
    scenario = replace(builtin_catalog().scenarios[sid], duration_s=duration)
    try:
        result = run_scenario(scenario, step_s=step_s, n_frames=n_frames, mode=mode)
    except RuntimeError:
        assert not np.any(build_access_timeline(scenario, step_s).served)
        return
    times = result.access.times_s
    assert times[0] == 0.0 and np.all(np.diff(times) > 0.0)
    spf = scenario.phy.numerology.slots_per_frame
    starts = np.arange(n_frames) * (scenario.duration_s / n_frames)
    for frame, start in enumerate(starts):
        sample = np.flatnonzero(times <= start)[-1]
        cnr = result.slots.cnr_db[frame * spf:(frame + 1) * spf]
        assert np.all(cnr == result.link.cnr_db[sample]), (frame, start, sample)


# === CSV writer ===

_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]
_COLUMN_ELEMENTS = {
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.bool_: st.booleans(),
    np.float64: st.sampled_from(_EDGE_FLOATS) | st.floats(width=64),
}


def _reference_csv(header, columns) -> bytes:
    """The row-by-row csv.writer format the columnar writer must match."""
    def fmt(value):
        if isinstance(value, (bool, np.bool_, int, np.integer)):
            return str(int(value))
        return format(value, ".10g")

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


# a few values repeated in runs; the fixed pools put -0.0 next to 0.0
# and NaNs of either sign next to the infinities
_RUN_POOLS = {
    np.int64: st.lists(_COLUMN_ELEMENTS[np.int64], min_size=1, max_size=4),
    np.bool_: st.just([False, True]),
    np.float64: (st.sampled_from([[0.0, -0.0], [math.nan, -math.nan, math.inf, -math.inf]])
                 | st.lists(_COLUMN_ELEMENTS[np.float64], min_size=1, max_size=4)),
}


@st.composite
def _csv_tables(draw):
    """Columns of free values and of runs, the runs often shared by neighbours."""
    n_rows = draw(st.sampled_from([0, 1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS,
                                   _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns, heads = [], None
    for dtype in draw(st.lists(st.sampled_from(list(_COLUMN_ELEMENTS)),
                               min_size=1, max_size=6)):
        layout = draw(st.sampled_from(["free", "new runs", "shared runs"]))
        if layout == "free":
            columns.append(draw(arrays(dtype, n_rows, elements=_COLUMN_ELEMENTS[dtype])))
            continue
        if layout == "new runs" or heads is None:
            # runs start on a share of the rows, never next to a chunk
            # boundary
            share = draw(st.sampled_from([0.0, 0.002, 0.05, 0.2, 0.25, 0.3, 0.7]))
            heads = rng.random(n_rows) < share
            for boundary in range(_CSV_CHUNK_ROWS, n_rows, _CSV_CHUNK_ROWS):
                heads[boundary - 3:boundary + 3] = False
            heads[:1] = True
        pool = np.array(draw(_RUN_POOLS[dtype]), dtype=dtype)
        run_values = pool[rng.integers(len(pool), size=np.count_nonzero(heads))]
        columns.append(run_values[np.cumsum(heads) - 1])
    return columns


@settings(max_examples=60, deadline=None)
@given(_csv_tables())
def test_write_csv_matches_row_wise_reference(columns):
    header = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == _reference_csv(header, columns)


def _csv_cells(data: bytes) -> list[tuple[bytes, ...]]:
    """The cells of each column of a CSV file, header first."""
    return list(zip(*(line.split(b",") for line in data.split(b"\r\n")[:-1])))


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_write_outputs_match_row_wise_reference(tmp_path, mode):
    catalog = builtin_catalog().scenarios
    cases = [(spec, 60.0, tmp_path / "builtin") for _, spec in sorted(catalog.items())]
    # every built-in has 100 % access; under a 60 deg mask scenario-19 has
    # 53.4 %, so its 9,000 rows carry NaN and -inf cells across two chunk
    # boundaries
    outage = replace(catalog["scenario-19"], handover_threshold_deg=60.0)
    cases.append((outage, 1.0, tmp_path / "outage"))
    for spec, step_s, out_dir in cases:
        sid = spec.id
        result = run_scenario(spec, step_s=step_s, n_frames=20, mode=mode, seed=0,
                              out_dir=out_dir)
        tables = output_columns(result)
        # only a rotor aircraft has blade segments, and only then a blades.csv
        if spec.aircraft.rotor is None:
            assert not len(result.blade_rows) and not (out_dir / sid / "blades.csv").exists()
            del tables["blades.csv"]
        for name, table in tables.items():
            got = (out_dir / sid / name).read_bytes()
            want = _reference_csv(list(table), list(table.values()))
            for column, got_cells, want_cells in zip(table, _csv_cells(got), _csv_cells(want)):
                assert got_cells == want_cells, f"{sid} {name}: {column}"
            assert got == want, f"{sid} {name}"
    assert 0 < result.report["access_percent"] < 100  # the outage case, run last


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_slots_csv_is_the_same_in_any_block_of_frames(tmp_path, mode):
    # 40 slots a frame: one chunk, chunks of one frame (at a chunk of one
    # row) and of two frames (81 rows, not a multiple of 40)
    spec = builtin_catalog().scenarios["scenario-15b"]
    files = []
    for i, chunk_rows in enumerate([pipeline._CSV_CHUNK_ROWS, 1, 2 * 40 + 1]):
        with mock.patch.object(pipeline, "_CSV_CHUNK_ROWS", chunk_rows):
            run_scenario(spec, step_s=60.0, n_frames=20, mode=mode, out_dir=tmp_path / str(i))
        files.append((tmp_path / str(i) / "scenario-15b" / "slots.csv").read_bytes())
    assert files[0].count(b"\r\n") == 20 * 40 + 1
    assert all(data == files[0] for data in files[1:])


def _random_slot_table(num, first_frame, n_frames, rng):
    n_slots = n_frames * num.slots_per_frame
    return phy_module.SlotTable(
        num, "mc", 1000,
        frame_cnr_db=rng.normal(5.0, 3.0, n_frames), frame_ber=rng.random(n_frames) * 1e-3,
        frame_decode_prob=rng.random(n_frames), erased=rng.random(n_slots) < 0.3,
        bit_errors=rng.integers(0, 3, n_slots), first_frame=first_frame)


@pytest.mark.parametrize("scs_khz", sorted(phy_module.NUMEROLOGIES))
def test_slots_csv_pieces_are_exact_at_every_digit_boundary(tmp_path, scs_khz):
    num = phy_module.NUMEROLOGIES[scs_khz]
    rng = np.random.default_rng(scs_khz)
    # a start time has at most 10 significant digits up to this frame:
    # the frame number's, one integer digit of the offset and its decimals
    decimals = len(format(num.slot_ms, ".10g").partition(".")[2])
    bound = 10 ** (10 - 1 - decimals) - 1
    budget_last = phy_module.MAX_SLOTS // num.slots_per_frame - 1
    assert budget_last <= bound  # every run the slot budget allows is written exactly
    # three frames from each first frame: below and across each power of
    # 10 up to the bound, and ending at the budget and at the bound
    firsts = [10 ** p + d for p in range(1, 7) for d in (-3, -1)]
    firsts = [0, 1, budget_last - 2, bound - 2] + [f for f in firsts if f + 2 <= bound]
    path = tmp_path / "slots.csv"
    for first in firsts:
        table = _random_slot_table(num, first, 3, rng)
        pipeline._write_slots_csv(path, table)
        columns = slot_columns(table)
        assert path.read_bytes() == _reference_csv(list(columns), list(columns.values())), first
    # one frame past the bound the guard raises, where %.10g stops being exact
    past = _random_slot_table(num, bound, 2, rng)
    last_start = float(slot_columns(past)["t_start_ms"][-1])
    assert float(format(last_start, ".10g")) != last_start
    with pytest.raises(ValueError, match="digits"):
        pipeline._write_slots_csv(path, past)


# shares of rows that start a run of bit errors, on either side of the
# writer's _RUN_SHARE; two different shares switch at a random frame
_BIT_ERROR_SHARES = [0.0, 0.05, 0.2, 0.3, 0.7, 1.0]


@st.composite
def _slot_tables(draw):
    """A slot table and the _CSV_CHUNK_ROWS to write it with.

    Tables come in every numerology, start at any frame slots.csv writes
    exactly and carry runs of erasures.  In "expected" mode the bit
    errors are one count a frame and the payload on erased slots, as
    simulate_frames makes them; in "mc" mode they come in runs whose
    share of the rows falls on either side of the writer's run share,
    so both tail layouts are written, at times both in one table.
    """
    num = phy_module.NUMEROLOGIES[draw(st.sampled_from(sorted(phy_module.NUMEROLOGIES)))]
    spf = num.slots_per_frame
    mode = draw(st.sampled_from(["mc", "expected"]))
    n_frames = draw(st.integers(1, 40))
    n_slots = n_frames * spf
    decimals = len(format(num.slot_ms, ".10g").partition(".")[2])
    last = 10 ** (10 - 1 - decimals) - 1
    first_frame = draw(st.integers(0, 30) | st.integers(0, last - n_frames + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    payload = draw(st.integers(0, 2 ** 63 - 1))
    frame_columns = [draw(arrays(np.float64, n_frames, elements=_COLUMN_ELEMENTS[np.float64]))
                     for _ in range(3)]
    toggles = rng.random(n_slots) < draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    erased = (np.cumsum(toggles) + draw(st.integers(0, 1))) % 2 == 1
    if mode == "expected":
        bit_errors = np.repeat(rng.integers(0, payload, size=n_frames, endpoint=True), spf)
        bit_errors[erased] = payload
    else:
        shares = draw(st.lists(st.sampled_from(_BIT_ERROR_SHARES), min_size=1, max_size=2))
        switch = rng.integers(n_frames + 1) * spf
        heads = rng.random(n_slots) < np.where(np.arange(n_slots) < switch, shares[0], shares[-1])
        heads[:1] = True
        pool = np.array(draw(st.lists(_COLUMN_ELEMENTS[np.int64], min_size=1, max_size=4)))
        bit_errors = pool[rng.integers(len(pool), size=np.count_nonzero(heads))][
            np.cumsum(heads) - 1]
    table = phy_module.SlotTable(num, mode, payload, *frame_columns, erased=erased,
                                 bit_errors=bit_errors, first_frame=first_frame)
    # the default, one frame, and sizes that are no multiple of a frame
    chunk_rows = draw(st.sampled_from([pipeline._CSV_CHUNK_ROWS, 1, spf, 2 * spf + 1, 97]))
    return table, chunk_rows


@settings(max_examples=80, deadline=None)
@given(_slot_tables())
def test_slots_csv_matches_row_wise_reference(case):
    table, chunk_rows = case
    columns = slot_columns(table)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slots.csv"
        with mock.patch.object(pipeline, "_CSV_CHUNK_ROWS", chunk_rows):
            pipeline._write_slots_csv(path, table)
        assert path.read_bytes() == _reference_csv(list(columns), list(columns.values()))


def test_slots_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the writer holds one chunk of rows at a time, so ten times the slots
    # peak no higher (about 1 MB); a writer holding a block of expanded
    # slot columns peaks at 4.5 MB at 20,000 frames
    spec = builtin_catalog().scenarios["scenario-7"]
    peaks = []
    for n_frames in (2000, 20000):
        slots = run_scenario(spec, step_s=60.0, n_frames=n_frames, mode="mc").slots
        tracemalloc.start()
        try:
            pipeline._write_slots_csv(tmp_path / "slots.csv", slots)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks
    assert max(peaks) < 4_500_000, peaks


def _over_budget_frames(spec):
    return phy_module.MAX_SLOTS // spec.phy.numerology.slots_per_frame + 1


@pytest.mark.parametrize("sid", ["scenario-19", "scenario-7"])
def test_slot_budget_fails_before_any_work(sid):
    spec = builtin_catalog().scenarios[sid]
    calls = [
        lambda n: run_scenario(spec, step_s=60.0, n_frames=n),
        lambda n: sweep_cnr(spec, 0.0, 10.0, 2, n_frames=n),
    ]
    with mock.patch.object(pipeline, "build_access_timeline", side_effect=AssertionError):
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ConfigError) as err:
                    call(_over_budget_frames(spec))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert err.value.field == "n_frames"
            assert peak < 2**16
    # at the budget the run goes ahead
    with mock.patch.object(phy_module, "MAX_SLOTS", 5 * spec.phy.numerology.slots_per_frame):
        assert len(run_scenario(spec, step_s=600.0, n_frames=5).slots) == phy_module.MAX_SLOTS
        with pytest.raises(ConfigError):
            run_scenario(spec, step_s=600.0, n_frames=6)


def test_step_budget_fails_before_any_work():
    spec = builtin_catalog().scenarios["scenario-19"]  # a rotor: a sweep takes access
    over = spec.duration_s / (orbit_module.MAX_STEPS + 2)
    calls = [
        lambda: run_scenario(spec, step_s=over, n_frames=20),
        lambda: sweep_cnr(spec, 0.0, 10.0, 2, n_frames=20, access_step_s=over),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == "step_s"
        assert peak < 2**16
    # a 24 h flight at a 1 s step fits, and at the budget the run goes ahead
    assert orbit_module.MAX_STEPS >= 24 * 3600
    with mock.patch.object(orbit_module, "MAX_STEPS", 90):
        assert len(build_access_timeline(spec, spec.duration_s / 90)) == 90
        with pytest.raises(ConfigError):
            build_access_timeline(spec, spec.duration_s / 91)


@pytest.mark.parametrize("call, field", [
    # NaN passed `step_s <= 0` and met math.floor: "cannot convert float NaN to integer"
    pytest.param(lambda spec: run_scenario(spec, step_s=math.nan), "step_s", id="run-nan-step"),
    pytest.param(lambda spec: sweep_cnr(spec, 0.0, 10.0, 2, access_step_s=math.nan),
                 "access_step_s", id="sweep-nan-step"),
    # simulate_frames refused it after access, link and overlay had run
    pytest.param(lambda spec: run_scenario(spec, n_frames=-1), "n_frames", id="negative-frames"),
    # these passed the order check and failed in phy after the access pass
    *(pytest.param(lambda spec, lo=lo, hi=hi: sweep_cnr(spec, lo, hi, 2), field,
                   id=f"cnr-{lo}-{hi}")
      for lo, hi, field in ((math.nan, 10.0, "cnr_min_db"), (-math.inf, 10.0, "cnr_min_db"),
                            (0.0, math.nan, "cnr_max_db"), (0.0, math.inf, "cnr_max_db"))),
    # numpy's "expected non-negative integer" and phy's ValueError on the
    # mode, after the access, link and overlay stages; a fractional count
    # failed in phy ("cnr_db must be scalar or per-frame"); an infinite step
    # took no sample and exited 3; a bool was taken for 0 or 1
    *(pytest.param(lambda spec, kw=kw: run_scenario(spec, **kw), next(iter(kw)),
                   id=f"run-{name}")
      for name, kw in (("negative-seed", {"seed": -1}), ("bool-seed", {"seed": True}),
                       ("fractional-seed", {"seed": 2.5}), ("bogus-mode", {"mode": "bogus"}),
                       ("fractional-frames", {"n_frames": 2.5}),
                       ("infinite-step", {"step_s": math.inf}))),
    # the same after a rotor sweep's access pass; a fractional count met
    # np.linspace's TypeError
    *(pytest.param(lambda spec, kw=kw: sweep_cnr(spec, 0.0, 10.0, **{"points": 2, **kw}),
                   field, id=f"sweep-{name}")
      for name, kw, field in (("negative-seed", {"seed": -1}, "seed"),
                              ("bogus-mode", {"mode": "bogus"}, "mode"),
                              ("fractional-points", {"points": 2.5}, "points"))),
    # never checked by a sweep without a rotor, which builds no access timeline
    pytest.param(lambda _: sweep_cnr(builtin_catalog().scenarios["scenario-6"], 0.0, 10.0, 2,
                                     access_step_s=math.inf),
                 "access_step_s", id="rotorless-sweep-infinite-step"),
])
def test_bad_run_parameters_fail_before_any_work(call, field):
    spec = builtin_catalog().scenarios["scenario-19"]  # a rotor: a sweep takes access
    with mock.patch.object(orbit_module, "_shell_angles", side_effect=AssertionError), \
            mock.patch.object(pipeline, "link_timeline", side_effect=AssertionError):
        with pytest.raises(ConfigError) as err:
            call(spec)
    assert err.value.field == field


def _rotor(spec, **changes):
    return replace(spec.aircraft.rotor, **changes)


def _payloads_with_w(spec):
    payloads = spec.constellation.payloads
    return replace(spec.constellation, payloads={**payloads, "W": payloads[spec.band]})


@pytest.mark.parametrize("call, field, said", [
    # a spec took these and ran: 2.5 blades, 41.5 resource blocks, a string
    # flag read as true, and a bool step read as 1 s
    pytest.param(lambda spec: _rotor(spec, n_blades=2.5), "n_blades",
                 "expected an integer, got 2.5", id="fractional-blades"),
    pytest.param(lambda spec: replace(spec.phy, n_rb=41.5), "n_rb",
                 "expected an integer, got 41.5", id="fractional-n-rb"),
    pytest.param(lambda spec: run_scenario(spec, step_s=True), "step_s",
                 "expected a number, got True", id="bool-step"),
    pytest.param(lambda spec: replace(spec, randomize_blade_phase="false"),
                 "randomize_blade_phase", "expected true or false, got 'false'",
                 id="string-randomize"),
    pytest.param(lambda spec: replace(spec.aircraft, steerable="no"), "steerable",
                 "expected true or false, got 'no'", id="string-steerable"),
    # these met a bare TypeError in check_domains' comparisons
    pytest.param(lambda spec: _rotor(spec, rpm="400"), "rpm", "expected a number, got '400'",
                 id="string-rpm"),
    pytest.param(lambda spec: replace(spec, margin_db="3"), "margin_db",
                 "expected a number, got '3'", id="string-margin"),
    pytest.param(lambda spec: run_scenario(spec, step_s="60"), "step_s",
                 "expected a number, got '60'", id="string-step"),
    pytest.param(lambda spec: sweep_cnr(spec, "0", 10.0, 2), "cnr_min_db",
                 "expected a number, got '0'", id="string-cnr"),
    # names outside their declared sets; each had its own check and wording,
    # and an unknown ntn_band passed until validate_channel
    pytest.param(lambda spec: replace(spec.aircraft, band="X"), "band",
                 "'X' is not one of S, Ku, Ka: ", id="band"),
    pytest.param(lambda spec: replace(spec, direction="sideways"), "direction",
                 "'sideways' is not one of uplink, downlink: ", id="direction"),
    pytest.param(lambda spec: replace(spec.phy.mcs, modulation="8PSK"), "modulation",
                 "'8PSK' is not one of QPSK, 16QAM, 64QAM: ", id="modulation"),
    pytest.param(lambda spec: replace(spec.phy, ntn_band="n999"), "ntn_band",
                 "'n999' is not one of n254, ", id="ntn-band"),
    pytest.param(_payloads_with_w, "payloads", "'W' is not one of S, Ku, Ka: ",
                 id="payload-band"),
    pytest.param(lambda spec: run_scenario(spec, mode="bogus"), "mode",
                 "'bogus' is not one of mc, expected: ", id="mode"),
])
def test_every_declared_value_is_admitted_by_kind_and_domain(call, field, said):
    spec = builtin_catalog().scenarios["scenario-7"]  # a rotor under a fixed antenna
    with mock.patch.object(orbit_module, "_shell_angles", side_effect=AssertionError):
        with pytest.raises(ConfigError) as err:
            call(spec)
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}: {said}"), err.value


def test_point_budget_fails_before_any_work(tmp_path, capsys):
    spec = builtin_catalog().scenarios["scenario-19"]  # a rotor: a sweep takes access
    argv = ["sweep", "--scenario", "scenario-19", "--cnr-min", "0", "--cnr-max", "1",
            "--frames", "1", "--out", str(tmp_path / "out")]
    # a trillion points asked numpy for 7.28 TiB, 10^20 for more than it can index
    with mock.patch.object(pipeline, "build_access_timeline", side_effect=AssertionError), \
            mock.patch.object(np, "linspace", side_effect=AssertionError):
        for points in (pipeline.MAX_POINTS + 1, 10 ** 12, 10 ** 20):
            tracemalloc.start()
            try:
                code = main([*argv, "--points", str(points)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert "error: points:" in capsys.readouterr().err
            assert peak < 2**16
    assert not (tmp_path / "out").exists()
    # at the budget the sweep goes ahead
    with mock.patch.object(pipeline, "MAX_POINTS", 3):
        assert len(sweep_cnr(spec, 0.0, 1.0, 3, n_frames=1)) == 3
        with pytest.raises(ConfigError) as err:
            sweep_cnr(spec, 0.0, 1.0, 4, n_frames=1)
        assert err.value.field == "points"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_over_the_slot_budget_exits_2(tmp_path, capsys, command):
    spec = builtin_catalog().scenarios["scenario-19"]
    argv = [command, "--scenario", "scenario-19", "--frames", str(_over_budget_frames(spec)),
            "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--cnr-min", "0", "--cnr-max", "10", "--points", "2"]
    assert main(argv) == 2
    assert "error: n_frames:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_peak(spec, n_frames, mode, out_dir):
    tracemalloc.start()
    try:
        run_scenario(spec, step_s=60.0, n_frames=n_frames, mode=mode, out_dir=out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode, write", [("mc", False), ("expected", True)])
def test_run_memory_per_slot(tmp_path, mode, write):
    # the slot table keeps 9 bytes a slot (the erased flag and the bit
    # errors).  The erased flags are thresholded a block of frames at a
    # time, so no blocked time is held per slot, and the "mc" roll-up
    # counts the bit errors in place: a run peaks at under `bound` bytes
    # for each slot it adds (9.7 in "mc", 10.1 in "expected" written)
    bound = {"mc": 10, "expected": 13}[mode]
    spec = builtin_catalog().scenarios["scenario-19"]  # 80 slots a frame
    out = tmp_path if write else None
    _run_peak(spec, 10, mode, out)  # warm-up
    extra = _run_peak(spec, 2000, mode, out) - _run_peak(spec, 1000, mode, out)
    assert extra < bound * 1000 * 80


# === CNR sweep ===

def test_sweep_waterfall_shape():
    rows = sweep_cnr(_overhead_geo(), -5.0, 15.0, 3, n_frames=5,
                     mode="expected")
    assert [r[0] for r in rows] == [-5.0, 5.0, 15.0]
    bers = [r[1] for r in rows]
    rates = [r[2] for r in rows]
    assert bers[0] > bers[1] > bers[2]
    assert bers[2] < 1e-9                      # clean link decodes everything
    assert rates[0] < 1e-9                     # nothing decodes at -5 dB
    assert rates[2] == pytest.approx(4.2)


def test_sweep_blade_erasures_floor_the_ber():
    spec = builtin_catalog().scenarios["scenario-15b"]
    ((_, ber, _),) = sweep_cnr(spec, 30.0, 30.0, 1, n_frames=5,
                               mode="expected")
    assert 0.01 < ber < 0.5     # erased slots keep the BER up at high CNR


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep_cnr(_overhead_geo(), 0.0, 10.0, 0)
    with pytest.raises(ConfigError):
        sweep_cnr(_overhead_geo(), 10.0, 0.0, 5)
    # a point of no frames has no BER to report
    with pytest.raises(ConfigError) as err:
        sweep_cnr(_overhead_geo(), 0.0, 10.0, 2, n_frames=0)
    assert err.value.field == "n_frames"


def _sweep_reference(spec, cnr_min, cnr_max, points, n_frames, seed, mode, access_step_s):
    # one simulate_frames and aggregate call per grid point, point j with
    # seed + j.  The CNR goes in per frame, as a run passes it: a scalar
    # takes numpy's scalar power, which can differ in the last bit.  The
    # rotor turns from the scenario's blade phase, drawn from the seed
    # when the scenario randomizes it, as in a run.
    num = spec.phy.numerology
    rotor = spec.aircraft.rotor
    blocked = None
    if rotor is not None:
        access = build_access_timeline(spec, access_step_s)
        mean_el = float(np.mean(access.elevation_deg[access.served]))
        phase = spec.blade_phase_ms
        if spec.randomize_blade_phase:
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1ADE)))
            phase += float(rng.uniform(0.0, 1000.0))
        blocked = slot_blocked_ms(schedule(rotor, float(blocked_ms(rotor, mean_el))),
                                  np.arange(n_frames) * FRAME_MS + phase, num.slot_ms,
                                  num.slots_per_frame)
    rows = []
    for j, cnr in enumerate(np.linspace(cnr_min, cnr_max, points).tolist()):
        slots = simulate_frames(spec.phy, np.full(n_frames, cnr), n_frames, blocked,
                                mode=mode, seed=seed + j)
        stats = aggregate(slots, n_frames * FRAME_MS, mode=mode)
        rows.append((cnr, stats.ber, stats.data_rate_mbps))
    return rows


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("sid", sorted(builtin_catalog().scenarios))
def test_sweep_equals_one_simulation_per_point(sid, mode):
    # rotors and none, 20 to 80 slots a frame; the seeds cross 2**63
    spec = builtin_catalog().scenarios[sid]
    seed = 2**63 - 3
    want = _sweep_reference(spec, -5.0, 12.0, 7, 4, seed, mode, 60.0)
    assert sweep_cnr(spec, -5.0, 12.0, 7, n_frames=4, seed=seed, mode=mode,
                     access_step_s=60.0) == want


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("phased", [{"blade_phase_ms": 7.3}, {"randomize_blade_phase": True}])
def test_sweep_erases_the_slots_of_a_run_with_its_blade_phase(phased, mode):
    # at an access step of the whole flight a run and a sweep see one
    # sample, so every frame of the run has the sweep's blocked time; a
    # sweep then erases, at the scenario's blade phase, the run's slots
    spec = replace(builtin_catalog().scenarios["scenario-15b"], **phased)
    step, n_frames, seed = spec.duration_s, 40, 5
    run = run_scenario(spec, step_s=step, n_frames=n_frames, mode=mode, seed=seed)
    swept = []

    def spy(phy, cnr_db, erased, *args, **kwargs):
        swept.append(erased.copy())
        return phy_module.sweep_stats(phy, cnr_db, erased, *args, **kwargs)

    with mock.patch.object(pipeline, "sweep_stats", spy):
        rows = sweep_cnr(spec, 0.0, 10.0, 2, n_frames=n_frames, seed=seed, mode=mode,
                         access_step_s=step)
    assert np.array_equal(swept[0], run.slots.erased)
    unphased = run_scenario(builtin_catalog().scenarios["scenario-15b"], step_s=step,
                            n_frames=n_frames, mode=mode, seed=seed)
    assert not np.array_equal(unphased.slots.erased, run.slots.erased)
    assert rows == _sweep_reference(spec, 0.0, 10.0, 2, n_frames, seed, mode, step)


@pytest.mark.parametrize("draw_slots", [1, 7])
def test_sweep_point_drawn_in_chunks_equals_one_simulation(draw_slots):
    # scenario-19 has 80 slots a frame, so a point of 120 frames is 9,600
    # slots, more than the 2**13 of one draw; at 10 to 11 dB its clear
    # slots both decode and take bit errors
    spec = builtin_catalog().scenarios["scenario-19"]
    want = _sweep_reference(spec, 10.0, 11.0, 3, 120, 2**63 - 1, "mc", 60.0)
    peak = 120 * 80 * transport_block_size(spec.phy.n_rb, spec.phy.mcs, spec.phy.overhead)
    assert any(0.0 < rate < peak / (120 * FRAME_MS * 1e3) for _, _, rate in want)
    with mock.patch.object(phy_module, "_DRAW_SLOTS", draw_slots):
        got = sweep_cnr(spec, 10.0, 11.0, 3, n_frames=120, seed=2**63 - 1, mode="mc",
                        access_step_s=60.0)
    assert got == want


def _sweep_peak(spec, points, n_frames=20, mode="mc"):
    tracemalloc.start()
    try:
        rows = sweep_cnr(spec, -5.0, 20.0, points, n_frames=n_frames, mode=mode,
                         access_step_s=60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == points
    return peak


def test_sweep_memory_is_bounded():
    # scenario-19 has 80 slots a frame, so 200 points of 20 frames are
    # 320,000 slots, about 40 times 2**13.  The points are rolled up one
    # after another, so the long sweep peaks under one point plus 160
    # bytes for each of 2**13 slots.
    spec = builtin_catalog().scenarios["scenario-19"]
    sweep_cnr(spec, -5.0, 20.0, 1, n_frames=20, access_step_s=60.0)  # warm-up
    assert _sweep_peak(spec, 200) < _sweep_peak(spec, 1) + 160 * 2**13
    # a point of 1.6 million slots: its erased flags (1 byte a slot),
    # thresholded from blocked times a block of frames at a time, and "mc"
    # draws of 2**13 slots at a time
    n_slots = 20_000 * 80
    assert _sweep_peak(spec, 3, n_frames=20_000) < 4 * n_slots


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv([(0.0, 0.25, 1.5), (10.0, 0.0, 4.2)], path)
    rows = _read_csv(path)
    assert list(rows[0]) == ["cnr_db", "ber", "data_rate_mbps"]
    assert float(rows[1]["data_rate_mbps"]) == 4.2


# === report comparison ===

def _flatten(diff, prefix=""):
    for key, value in diff.items():
        if isinstance(value, dict) and not {"a", "b"} == set(value):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_compare_identical_reports_is_all_zero():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    diff = compare_reports(rep, json.loads(json.dumps(rep)))
    for key, value in _flatten(diff):
        assert value == 0, key


def test_compare_shows_numeric_deltas_and_value_pairs():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    other = json.loads(json.dumps(rep))
    other["cnr_db"]["avg"] += 2.0
    other["band"] = "Ka"
    assert rep["cnr_prime_db"] is None
    other["cnr_prime_db"] = dict(rep["cnr_db"])
    diff = compare_reports(rep, other)
    assert diff["cnr_db"]["avg"] == pytest.approx(2.0)
    assert diff["band"] == {"a": "S", "b": "Ka"}
    assert diff["cnr_prime_db"] == {"a": None, "b": rep["cnr_db"]}
    # bools are values, not numbers: a pair when they differ, nothing when equal
    assert compare_reports({"x": True, "y": False}, {"x": False, "y": False}) == {
        "x": {"a": True, "b": False}}


def test_compare_rejects_schema_mismatch():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    other = json.loads(json.dumps(rep))
    del other["ber"]
    with pytest.raises(ConfigError, match="schema"):
        compare_reports(rep, other)


# === command line ===

def _scenario_file(tmp_path, spec) -> str:
    path = tmp_path / f"{spec.id}.json"
    path.write_text(json.dumps(serialize_scenario(spec)))
    return str(path)


def test_cli_catalog_lists_builtins(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for sid in ("scenario-6", "scenario-7", "scenario-11",
                "scenario-15a", "scenario-15b", "scenario-19"):
        assert sid in out


def test_cli_run_from_file(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    code = main(["run", "--scenario", token, "--step", "5", "--frames", "10",
                 "--mode", "expected", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "geo-overhead" / "report.json").exists()
    assert "access 100.0%" in capsys.readouterr().out


@pytest.mark.parametrize("sid", sorted(builtin_catalog().scenarios))
def test_cli_serialized_builtin_runs_like_the_builtin(tmp_path, sid):
    # the waypoint array goes through serialize_scenario and back unchanged
    token = _scenario_file(tmp_path, builtin_catalog().scenarios[sid])
    outputs = {}
    for name, scenario in (("by-id", sid), ("from-file", token)):
        assert main(["run", "--scenario", scenario, "--step", "60", "--frames", "10",
                     "--mode", "mc", "--seed", "1", "--out", str(tmp_path / name)]) == 0
        target = tmp_path / name / sid
        outputs[name] = {p.name: p.read_bytes() for p in target.iterdir()}
    assert outputs["from-file"] == outputs["by-id"]


def test_cli_unknown_scenario_is_config_error(capsys):
    assert main(["run", "--scenario", "scenario-99"]) == 2
    assert "error:" in capsys.readouterr().err


_LOITER = {"type": "loiter", "center_lat_deg": 0.0, "center_lon_deg": 5.0,
           "altitude_m": 100.0, "radius_km": 1.0, "speed_ms": 20.0}
_ROTOR = {"n_blades": 3, "blade_width_m": 0.093, "rpm": 1280, "shaft_offset_m": 0.5,
          "rotor_height_m": 0.12, "tip_radius_m": 0.9}
_NO_RPM = {k: v for k, v in _ROTOR.items() if k != "rpm"}
_NO_SPEED = {k: v for k, v in _LOITER.items() if k != "speed_ms"}


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["aircraft"]["testbed"].update(band="X"), "band"),
    (lambda doc: doc["scenarios"][0]["phy"].update(overhead=2.0), "overhead"),
    (lambda doc: doc["scenarios"][0]["phy"].update(overhead=-0.5), "overhead"),
    # the fixture's PHY has no NTN band, so no band range checks the carrier
    (lambda doc: doc["scenarios"][0]["phy"].update(carrier_ghz=0), "carrier_ghz"),
    (lambda doc: doc["scenarios"][0]["phy"].update(carrier_ghz=-2.0), "carrier_ghz"),
    (lambda doc: doc["scenarios"][0].update(flight={**_LOITER, "waypoint_interval_s": 0}),
     "waypoint_interval_s"),
    (lambda doc: doc["scenarios"][0].update(flight={**_LOITER, "waypoint_interval_s": -5}),
     "waypoint_interval_s"),
    # a key that no spec, parser or older document knows is named
    (lambda doc: doc["aircraft"]["testbed"].update(rotr=_ROTOR), "rotr"),
    (lambda doc: doc["aircraft"]["testbed"].update(rotor={**_NO_RPM, "rmp": 400}), "rmp"),
    (lambda doc: doc["scenarios"][0]["phy"].update(overheaad=0.1), "overheaad"),
    (lambda doc: doc["scenarios"][0].update(flight={**_NO_SPEED, "speed": 20.0}), "speed"),
    (lambda doc: doc["scenarios"][0]["flight"].update(speed_ms=20.0), "speed_ms"),
    # an older document's keys load only where such documents had them
    (lambda doc: doc["aircraft"]["testbed"].update(rotor={**_ROTOR, "position": "above"}),
     "position"),
    (lambda doc: doc["aircraft"]["testbed"].update(rotor={**_ROTOR, "rpm": 0}), "rpm"),
    (lambda doc: doc["aircraft"]["testbed"].update(rotor=_NO_RPM), "rpm"),
    (lambda doc: doc["scenarios"][0].update(flight={"type": "orbit"}), "flight.type"),
    (lambda doc: doc["constellations"]["GEO-S"].update(planes=0, inclination_deg=6.0,
                                                       raan_deg=20.0), "planes"),
    (lambda doc: doc["constellations"]["GEO-S"].update(raan_deg="20"), "raan_deg"),
    (lambda doc: doc["constellations"]["GEO-S"].update(
        raan_deg={"spacing_deg": 10.0, "strat_deg": 20.0}), "strat_deg"),
    # a spec field that the parser fills from another key is not read
    (lambda doc: doc["constellations"]["GEO-S"].update(raans_deg=[20.0]), "raans_deg"),
    (lambda doc: doc["scenarios"][0].update(duration_s=60.0), "duration_s"),
    (lambda doc: doc["aircraft"]["testbed"].update(name="other"), "name"),
], ids=["band-X", "overhead-2", "overhead-negative", "carrier-zero", "carrier-negative",
        "interval-zero", "interval-negative", "rotr", "rmp", "overheaad", "loiter-speed",
        "waypoints-speed_ms", "rotor-position", "rpm-zero", "rpm-missing", "flight-type",
        "planes-zero", "raan-string", "raan-rule-strat_deg", "raans_deg", "duration_s",
        "aircraft-name"])
def test_cli_invalid_scenario_file_is_config_error(tmp_path, capsys, edit, field):
    doc = serialize_scenario(_overhead_geo())
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


def test_cli_misspelled_loss_model_key_is_config_error(tmp_path, capsys):
    doc = serialize_scenario(_overhead_geo())
    doc["scenarios"][0]["loss_model"] = {"rain_heigth_km": 3.0}
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    assert "rain_heigth_km" in capsys.readouterr().err


@pytest.mark.parametrize("loss_model, field", [
    ({"rain_height_km": "high"}, "rain_height_km"),
    # "band" for "bands": a band object where a number belongs
    ({"band": {"Ka": {"rain_k": 0.2}}}, "band"),
])
def test_cli_non_numeric_value_is_config_error(tmp_path, capsys, loss_model, field):
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-6"])
    doc["scenarios"][0]["loss_model"] = loss_model
    path = tmp_path / "non-numeric.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "scenario-7", "--step", "60", "--frames", "5"],
    ["sweep", "--scenario", "scenario-7", "--cnr-min", "0", "--cnr-max", "10",
     "--points", "2", "--frames", "5"],
])
def test_cli_negative_seed_is_argument_error(tmp_path, capsys, argv):
    # the library's declared domain refuses it, before any work
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: seed: -1 is outside [0, inf)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--step", "60", "--frames", "-1"], "error: n_frames: -1 is outside"),
    (["run", "--step", "0", "--frames", "5"], "error: step_s: 0.0 is outside"),
    (["run", "--step", "-10", "--frames", "5"], "error: step_s: -10.0 is outside"),
    (["run", "--step", "nan", "--frames", "5"], "error: step_s: nan is outside"),
    (["run", "--step", "inf", "--frames", "5"], "error: step_s: inf is outside"),
    (["sweep", "--cnr-min", "0", "--cnr-max", "10", "--points", "2", "--frames", "-3"],
     "error: n_frames: -3 is outside"),
    (["sweep", "--cnr-min", "nan", "--cnr-max", "10", "--points", "2", "--frames", "5"],
     "error: cnr_min_db: nan is outside"),
    (["sweep", "--cnr-min", "0", "--cnr-max", "inf", "--points", "2", "--frames", "5"],
     "error: cnr_max_db: inf is outside"),
], ids=["run-frames-negative", "run-step-zero", "run-step-negative", "run-step-nan",
        "run-step-inf", "sweep-frames-negative", "sweep-cnr-min-nan", "sweep-cnr-max-inf"])
def test_cli_bad_number_is_argument_error(tmp_path, capsys, argv, message):
    # the library's declared domains refuse these, before any work
    assert main(argv + ["--scenario", "scenario-7", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_cli_sweep_of_no_frames_is_config_error(tmp_path, capsys):
    assert main(["sweep", "--scenario", "scenario-7", "--cnr-min", "0", "--cnr-max", "10",
                 "--points", "2", "--frames", "0", "--out", str(tmp_path / "out")]) == 2
    assert "error: n_frames:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--step", "60", "--frames", "5"],
    ["sweep", "--cnr-min", "0", "--cnr-max", "10", "--points", "2", "--frames", "5"],
], ids=["run", "sweep"])
def test_cli_zero_payload_is_config_error(tmp_path, capsys, argv):
    # a transport block of 0 bits would divide by zero in aggregate
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
    doc["scenarios"][0]["phy"]["overhead"] = 1.0
    path = tmp_path / "zero-payload.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: overhead:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_payload_phy_is_rejected_before_run_and_sweep():
    spec = builtin_catalog().scenarios["scenario-7"]
    for overhead in (1.0, 1.0 - 1e-9):
        with pytest.raises(ConfigError) as err:
            replace(spec, phy=replace(spec.phy, overhead=overhead))
        assert err.value.field == "overhead"


def test_cli_runtime_failure_is_exit_3(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo(lon=180.0))
    assert main(["run", "--scenario", token, "--step", "10",
                 "--out", str(tmp_path / "out")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_sweep_without_service_is_exit_3(tmp_path, capsys):
    # without a served sample there is no elevation to lay the rotor's blades at
    spec = _overhead_geo(lon=180.0)
    rotor = builtin_catalog().aircraft["HELI-Ku"].rotor
    token = _scenario_file(tmp_path, replace(spec, aircraft=replace(spec.aircraft, rotor=rotor)))
    assert main(["sweep", "--scenario", token, "--cnr-min", "30", "--cnr-max", "30",
                 "--points", "1", "--frames", "5", "--out", str(tmp_path / "out")]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "geo-overhead" / "sweep.csv").exists()


def test_cli_sweep_writes_csv(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    code = main(["sweep", "--scenario", token, "--cnr-min", "0",
                 "--cnr-max", "10", "--points", "2", "--frames", "5",
                 "--mode", "expected", "--out", str(tmp_path / "out")])
    assert code == 0
    rows = _read_csv(tmp_path / "out" / "geo-overhead" / "sweep.csv")
    assert len(rows) == 2
    assert list(rows[0]) == ["cnr_db", "ber", "data_rate_mbps"]


def test_cli_compare_roundtrip(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["run", "--scenario", token, "--step", "5", "--frames",
                     "5", "--mode", "expected", "--out", out]) == 0
    capsys.readouterr()
    report = "geo-overhead/report.json"
    assert main(["compare", f"{out_a}/{report}", f"{out_b}/{report}"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["ber"] == 0
    assert diff["cnr_db"]["avg"] == 0


def test_cli_compare_non_json_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("ber = 0.1\n")
    assert main(["compare", str(path), str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("document", [[0, 1], "ab", None])
def test_cli_compare_rejects_a_report_that_is_not_an_object(tmp_path, capsys, document):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document))
    assert main(["compare", str(path), str(path)]) == 2
    assert f"report {path} is not a JSON object" in capsys.readouterr().err


def test_cli_compare_missing_file(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "no.json"),
                 str(tmp_path / "pe.json")]) == 2
