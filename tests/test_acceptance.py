"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (run pytest
with ``-s`` to see them) and then asserts, so the printed summary and
the pytest verdict always agree.  Scenario runs are shared through a
module-level cache to keep the whole gate fast.
"""

import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rwasim.blades import (
    BladeGeometry,
    RotorSpec,
    build_schedule,
    speed_ratios,
)
from rwasim.constants import EARTH_RADIUS, MU_EARTH
from rwasim.errors import ConfigError
from rwasim.orbit import KeplerianElements, circular_speed, orbital_period, propagate
from rwasim.phy import (
    FRAME_MS,
    NTN_BANDS,
    NUMEROLOGIES,
    Mcs,
    PhyConfig,
    aggregate,
    awgn_ber,
    simulate_frames,
    transport_block_size,
    uncoded_ber,
    validate_channel,
)
from rwasim.pipeline import run_scenario
from rwasim.scenarios import builtin_catalog

LEO_MEO_SCENARIOS = ("scenario-6", "scenario-7", "scenario-11",
                     "scenario-15a", "scenario-19")
LEO_SCENARIOS = ("scenario-6", "scenario-7", "scenario-15a", "scenario-19")


@functools.lru_cache(maxsize=None)
def _run(scenario_id: str):
    spec = builtin_catalog().scenarios[scenario_id]
    return run_scenario(spec, step_s=5.0, seed=0, mode="expected", n_frames=100)


def criterion(number: int, summary: str):
    """Print the one-line verdict for a criterion around its assertions."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {summary}")
                raise
            print(f"criterion {number}: PASS - {summary}")
        return wrapper
    return decorate


@criterion(1, "1.6/13.9 ms chop at 30 kHz: 3+-1 erased / 28+-1 clear slots, "
              "slot loss and high-CNR BER in [0.08, 0.12]")
def test_criterion_01_blade_slot_pattern():
    # build the blocked/clear timing directly: 3 blades on a 15.5 ms
    # blade period (rpm = 360 / (0.006 * 3 * 15.5)) with a 1.6 ms arc
    rpm = 360.0 / (0.006 * 3 * 15.5)
    rotor = RotorSpec(3, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 1.6 * rotor.rate_deg_per_ms))
    assert sched.blocked_ms == pytest.approx(1.6)
    assert sched.clear_ms == pytest.approx(13.9)

    phy = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=30.0, scs_khz=30, n_rb=78,
                    mcs=Mcs("QPSK", 0.5))
    slots = simulate_frames(phy, 40.0, 100, schedules=sched, mode="expected")
    runs = []  # run-length encoding of the erasure flags
    for flag in slots.erased.tolist():
        if runs and runs[-1][0] == flag:
            runs[-1][1] += 1
        else:
            runs.append([flag, 1])
    interior = runs[1:-1]  # first/last runs are clipped by the window
    assert interior, "expected alternating erased/clear runs"
    assert all(2 <= n <= 4 for flag, n in interior if flag)
    assert all(27 <= n <= 29 for flag, n in interior if not flag)

    stats = aggregate(slots, 100 * FRAME_MS, mode="expected")
    assert 0.08 <= stats.slot_loss_fraction <= 0.12
    assert 0.08 <= stats.ber <= 0.12


@criterion(2, "1000 random rotors: rotation time = N*(blocked+clear) to 1e-12 ms "
              "and blocked time strictly shrinks with radius")
def test_criterion_02_blade_conservation():
    rng = np.random.default_rng(20240815)
    for _ in range(1000):
        n_blades = int(rng.integers(2, 9))
        width = float(rng.uniform(0.02, 0.5))
        rpm = float(rng.uniform(100.0, 2000.0))
        rotor = RotorSpec(n_blades, width, rpm, 1.0, 0.5,
                          tip_radius_m=50.0)
        # keep the blade arcs non-overlapping: radius above N*width/(2*pi)
        r_lo = n_blades * width
        r1 = float(rng.uniform(r_lo, r_lo + 10.0))
        r2 = r1 + float(rng.uniform(0.1, 5.0))
        sched1 = build_schedule(rotor, BladeGeometry(r1, _arc(width, r1)))
        sched2 = build_schedule(rotor, BladeGeometry(r2, _arc(width, r2)))
        closure = sched1.n_blades * (sched1.blocked_ms + sched1.clear_ms)
        assert abs(sched1.rotation_ms - closure) <= 1e-12
        assert sched2.blocked_ms < sched1.blocked_ms


def _arc(width_m: float, radius_m: float) -> float:
    return width_m * 360.0 / (2.0 * math.pi * radius_m)


@criterion(3, "3.2x rotor speed scales blocked time and rotation time by 1/3.2")
def test_criterion_03_rotor_speed_scaling():
    geometry = BladeGeometry(2.0, 8.0)
    slow = RotorSpec(4, 0.29, 400.0, 1.0, 0.5, 5.0)
    fast = RotorSpec(4, 0.29, 400.0 * 3.2, 1.0, 0.5, 5.0)
    blocked_ratio, rotation_ratio = speed_ratios(fast, slow, geometry)
    assert abs(blocked_ratio - 1.0 / 3.2) <= 1e-9 / 3.2
    assert abs(rotation_ratio - 1.0 / 3.2) <= 1e-9 / 3.2


@criterion(4, "GEO period 86164+-10 s; 720 km circular speed sqrt(mu/a) "
              "+-0.001 km/s; orbit radius conserved to 1e-6 over a period")
def test_criterion_04_orbital_sanity():
    assert abs(orbital_period(EARTH_RADIUS + 35786.0) - 86164.0) <= 10.0

    leo2 = builtin_catalog().constellations["LEO-2"]
    speed = circular_speed(leo2.orbit_radius_km)
    assert abs(speed - math.sqrt(MU_EARTH / leo2.orbit_radius_km)) <= 1e-3

    elements = KeplerianElements(leo2.orbit_radius_km, 53.5, 30.0, 12.0)
    period = orbital_period(leo2.orbit_radius_km)
    for t in np.linspace(0.0, period, 100):
        position, _ = propagate(elements, float(t))
        radius = float(np.linalg.norm(position))
        assert abs(radius - leo2.orbit_radius_km) / leo2.orbit_radius_km <= 1e-6


@criterion(5, "max |Doppler| in [450, 600] kHz on the 720 km Ka uplink "
              "and <= 25 kHz on the geosynchronous link")
def test_criterion_05_doppler_envelope():
    dop_leo = _run("scenario-6").report["doppler_abs_khz"]["max"]
    assert 450.0 <= dop_leo <= 600.0
    dop_geo = _run("scenario-15b").report["doppler_abs_khz"]["max"]
    assert dop_geo <= 25.0


@criterion(6, "average total loss 210+-4 dB (GEO Ku) and 161+-3 dB (1050 km S); "
              "GEO Ku free-space component 207+-1.5 dB")
def test_criterion_06_loss_reproduction():
    geo = _run("scenario-15b")
    assert abs(geo.report["loss_db"]["avg"] - 210.0) <= 4.0
    leo = _run("scenario-7")
    assert abs(leo.report["loss_db"]["avg"] - 161.0) <= 3.0
    fspl_avg = float(np.mean(geo.link.fspl_db[geo.access.served]))
    assert abs(fspl_avg - 207.0) <= 1.5


@criterion(7, "bandwidth-rescaled CNR deltas equal 10*log10(B/B') exactly and "
              "match the reference 30->5 and 400->200 MHz shifts")
def test_criterion_07_cnr_rescale_identity():
    from rwasim.linkbudget import rescale_cnr

    for full, narrow in ((30.0, 5.0), (400.0, 200.0), (36.0, 1.0), (5.0, 5.0)):
        delta = rescale_cnr(0.0, full, narrow) - 0.0
        assert abs(delta - 10.0 * math.log10(full / narrow)) <= 1e-9

    delta_30_5 = 10.0 * math.log10(30.0 / 5.0)
    assert abs(delta_30_5 - (8.8 - 1.1)) <= 0.1
    delta_400_200 = 10.0 * math.log10(400.0 / 200.0)
    assert abs(delta_400_200 - (3.2 - 0.1)) <= 0.1

    # the built-in runs carry the same deltas end to end
    leo = _run("scenario-7").report
    assert abs((leo["cnr_prime_db"]["avg"] - leo["cnr_db"]["avg"])
               - delta_30_5) <= 1e-9
    heli = _run("scenario-15a").report
    assert abs((heli["cnr_prime_db"]["avg"] - heli["cnr_db"]["avg"])
               - delta_400_200) <= 1e-9


@criterion(8, "served elevation never below the mask; LEO/MEO minima in "
              "[34, 41] deg; LEO access >= 99%")
def test_criterion_08_elevation_and_access():
    catalog = builtin_catalog()
    for sid in catalog.scenarios:
        result = _run(sid)
        served_el = result.access.elevation_deg[result.access.served]
        assert float(np.min(served_el)) >= catalog.scenarios[sid].handover_threshold_deg
    for sid in LEO_MEO_SCENARIOS:
        el_min = _run(sid).report["elevation_deg"]["min"]
        assert 34.0 <= el_min <= 41.0, sid
    for sid in LEO_SCENARIOS:
        assert _run(sid).report["access_percent"] >= 99.0, sid


@criterion(9, "Monte-Carlo BER within 3 sigma of the Q-function value for "
              "QPSK/16QAM/64QAM over 1e6 bits; QPSK at 9.6 dB within 1.3x of 1e-5")
def test_criterion_09_phy_oracle():
    for modulation, cnr_db in (("QPSK", 6.8), ("16QAM", 12.0), ("64QAM", 16.0)):
        mcs = Mcs(modulation, 1.0, coding_gain_db=0.0)
        phy = PhyConfig(carrier_ghz=2.0, bandwidth_mhz=30.0, scs_khz=30,
                        n_rb=78, mcs=mcs)
        payload = transport_block_size(78, mcs)
        n_frames = max(1, math.ceil(1e6 / (payload * 20)))
        slots = simulate_frames(phy, cnr_db, n_frames, mode="mc", seed=7)
        n_bits = int(slots.payload_bits.sum())
        assert n_bits >= 1e6
        p = float(awgn_ber(mcs, cnr_db))
        errors = int(slots.bit_errors.sum())
        sigma = math.sqrt(n_bits * p * (1.0 - p))
        assert abs(errors - n_bits * p) < 3.0 * sigma, modulation

    ber_ref = float(uncoded_ber("QPSK", 9.6))
    assert 1e-5 / 1.3 <= ber_ref <= 1e-5 * 1.3


@criterion(10, "every numerology fills exactly 10 ms; all six satellite bands "
               "accept their edge frequencies and reject just beyond them")
def test_criterion_10_frame_structure():
    assert len(NUMEROLOGIES) == 4
    for num in NUMEROLOGIES.values():
        assert num.slots_per_frame * num.slot_ms == FRAME_MS

    assert len(NTN_BANDS) == 6
    for band in NTN_BANDS.values():
        if band.frequency_range == "FR1":
            bw, scs, n_rb = 5.0, 15, 25
        else:
            bw, scs, n_rb = 50.0, 60, 100
        for direction, (f_lo, f_hi) in (("uplink", band.uplink_ghz),
                                        ("downlink", band.downlink_ghz)):
            for carrier in (f_lo, f_hi):
                validate_channel(
                    PhyConfig(carrier, bw, scs, n_rb, Mcs("QPSK", 0.5),
                              ntn_band=band.name), direction)
            for carrier in (f_lo - 1e-6, f_hi + 1e-6):
                try:
                    validate_channel(
                        PhyConfig(carrier, bw, scs, n_rb, Mcs("QPSK", 0.5),
                                  ntn_band=band.name), direction)
                except ConfigError:
                    pass
                else:
                    raise AssertionError(
                        f"{band.name} {direction} accepted {carrier} GHz")


@criterion(11, "same-seed reruns of a built-in scenario write byte-identical files")
def test_criterion_11_determinism():
    spec = builtin_catalog().scenarios["scenario-15b"]
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("first", "second"):
            run_scenario(spec, step_s=15.0, seed=42, mode="mc", n_frames=100,
                         out_dir=Path(tmp) / sub)
        names = ["access.csv", "link.csv", "slots.csv", "blades.csv",
                 "report.json"]
        for name in names:
            first = (Path(tmp) / "first" / spec.id / name).read_bytes()
            second = (Path(tmp) / "second" / spec.id / name).read_bytes()
            assert first == second, name
