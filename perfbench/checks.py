"""Output checks for the benchmark, computed apart from the simulator.

Each ``check_*`` function returns a list of problems; an empty list
means the operation's outputs passed.  Geometry, link budget, slot
counts and the expected-mode BER are recomputed here from the scenario
definition with their closed forms, and the remaining checks test
properties the method must have (thresholds, bounds, recomputable
reports, determinism).  Nothing is compared with stored copies of
earlier output, so a faster implementation with the same behaviour
passes unchanged.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from rwasim.constants import EARTH_RADIUS, EARTH_ROTATION_RATE, MU_EARTH, SPEED_OF_LIGHT

BOLTZMANN_DBW_PER_K_HZ = -228.6
FRAME_MS = 10.0
BITS_PER_SYMBOL = {"QPSK": 2, "16QAM": 4, "64QAM": 6}
# Gray-mapped AWGN BER = coef * Q(sqrt(scale * Eb/N0)) per modulation
BER_FORM = {"QPSK": (1.0, 2.0), "16QAM": (0.75, 0.8), "64QAM": (7.0 / 12.0, 2.0 / 7.0)}

ELEVATION_TOL_DEG = 1e-6
ORBIT_SAMPLES = 48


# === counts implied by the inputs ===

def n_steps(scenario, step_s: float) -> int:
    return int(math.floor(scenario.duration_s / step_s + 1e-9))


def slots_per_frame(scenario) -> int:
    return int(round(10 * scenario.phy.scs_khz / 15))


def payload_bits(phy) -> int:
    bits = phy.n_rb * 12 * 14 * BITS_PER_SYMBOL[phy.mcs.modulation] * phy.mcs.code_rate
    return int(bits * (1.0 - phy.overhead))


def slot_column(slots, name: str, dtype=float) -> np.ndarray:
    """One field of every slot, from a list of slot records or a table of columns."""
    column = getattr(slots, name, None)
    if column is not None:
        return np.asarray(column, dtype=dtype)
    return np.fromiter((getattr(s, name) for s in slots), dtype=dtype, count=len(slots))


# === geometry recomputed from the circular-orbit elements ===

def _elements(constellation):
    planes, per_plane = constellation.planes, constellation.sats_per_plane
    plane = np.repeat(np.arange(planes), per_plane)
    k = np.tile(np.arange(per_plane), planes)
    phase_deg = (constellation.anomaly_offset_deg + k * 360.0 / per_plane
                 + plane * constellation.phasing_factor * 360.0 / (planes * per_plane))
    return (np.radians(np.asarray(constellation.inclinations_deg, dtype=float)[plane]),
            np.radians(np.asarray(constellation.raans_deg, dtype=float)[plane]),
            np.radians(phase_deg))


def satellite_ecef(constellation, times_s: np.ndarray, sat: np.ndarray) -> np.ndarray:
    """Earth-fixed positions (km); ``times_s`` and ``sat`` broadcast together."""
    inc, raan, u0 = _elements(constellation)
    a = EARTH_RADIUS + constellation.altitude_km
    u = u0[sat] + math.sqrt(MU_EARTH / a ** 3) * times_s
    inc, raan = inc[sat], raan[sat]
    x = a * (np.cos(u) * np.cos(raan) - np.sin(u) * np.cos(inc) * np.sin(raan))
    y = a * (np.cos(u) * np.sin(raan) + np.sin(u) * np.cos(inc) * np.cos(raan))
    z = a * np.sin(u) * np.sin(inc)
    theta = EARTH_ROTATION_RATE * times_s
    return np.stack([x * np.cos(theta) + y * np.sin(theta),
                     -x * np.sin(theta) + y * np.cos(theta), z], axis=-1)


def _observer(route, times_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aircraft ECEF position (km) and local up vector at each time."""
    lla = np.array([route.position(float(t)) for t in times_s]).reshape(-1, 3)
    lat, lon = np.radians(lla[:, 0]), np.radians(lla[:, 1])
    up = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1)
    return (EARTH_RADIUS + lla[:, 2:3] / 1000.0) * up, up


def elevations(scenario, times_s: np.ndarray, sat: np.ndarray) -> np.ndarray:
    """Elevation (deg) of satellite ``sat[i]`` (or of all, for a 2-D ``sat``) at ``times_s[i]``."""
    obs, up = _observer(scenario.route, times_s)
    if np.ndim(sat) == 2:
        sats = satellite_ecef(scenario.constellation, times_s[:, None], sat)
        obs, up = obs[:, None, :], up[:, None, :]
    else:
        sats = satellite_ecef(scenario.constellation, times_s, sat)
    rel = sats - obs
    sin_el = np.sum(rel * up, axis=-1) / np.linalg.norm(rel, axis=-1)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def _max_aircraft_speed(route) -> float:
    pts = np.asarray(route.points, dtype=float)
    if len(pts) < 2:
        return 0.0
    lat, lon = np.radians(pts[:, 1]), np.radians(pts[:, 2])
    r = EARTH_RADIUS + pts[:, 3] / 1000.0
    xyz = r[:, None] * np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                                 np.sin(lat)], axis=-1)
    return float(np.max(np.linalg.norm(np.diff(xyz, axis=0), axis=1) / np.diff(pts[:, 0])))


def _switches(sat_id: np.ndarray) -> np.ndarray:
    """Indices where a satellite is acquired or handed over to."""
    prev = np.r_[-1, sat_id[:-1]]
    return np.flatnonzero((sat_id >= 0) & (sat_id != prev))


def count_handovers(sat_id: np.ndarray) -> int:
    ids = sat_id[sat_id >= 0]
    return int(np.count_nonzero(ids[1:] != ids[:-1]))


def check_served_elevation(scenario, times_s, sat_id, elevation_deg, tol=ELEVATION_TOL_DEG) -> list[str]:
    """Served elevation recomputed from the orbit elements at a sample of steps."""
    served = np.flatnonzero(sat_id >= 0)
    if len(served) == 0:
        return ["no served step"]
    pick = served[np.unique(np.linspace(0, len(served) - 1, ORBIT_SAMPLES).astype(int))]
    mine = elevations(scenario, times_s[pick], sat_id[pick])
    err = np.abs(mine - elevation_deg[pick])
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        return [f"elevation at t={times_s[pick][i]:g} s is {elevation_deg[pick][i]:.9f}, "
                f"orbit elements give {mine[i]:.9f}"]
    return []


def check_access(scenario, access) -> list[str]:
    problems = []
    sat_id = np.asarray(access.sat_id)
    served = sat_id >= 0
    el = np.asarray(access.elevation_deg)
    problems += check_served_elevation(scenario, np.asarray(access.times_s), sat_id, el)
    threshold = scenario.handover_threshold_deg
    if np.any(el[served] < threshold - 1e-9):
        problems.append(f"served elevation {np.min(el[served]):.6f} below threshold {threshold}")
    sw = _switches(sat_id)
    if len(sw):
        n_sats = scenario.constellation.planes * scenario.constellation.sats_per_plane
        every = elevations(scenario, np.asarray(access.times_s)[sw],
                           np.broadcast_to(np.arange(n_sats), (len(sw), n_sats)))
        best = every.max(axis=1)
        got = every[np.arange(len(sw)), sat_id[sw]]
        if np.any(got < best - 1e-9):
            i = int(np.argmax(best - got))
            problems.append(f"switch at step {sw[i]} picked sat {sat_id[sw][i]} "
                            f"({got[i]:.6f} deg) below the highest ({best[i]:.6f} deg)")
    rr = np.asarray(access.range_rate_kms)[served]
    doppler = -(rr / SPEED_OF_LIGHT) * scenario.phy.carrier_ghz * 1e6
    if not np.allclose(np.asarray(access.doppler_khz)[served], doppler, rtol=1e-12, atol=1e-9):
        problems.append("doppler differs from -range_rate/c*f")
    a = EARTH_RADIUS + scenario.constellation.altitude_km
    limit = (math.sqrt(MU_EARTH / a) + EARTH_ROTATION_RATE * a
             + 1.01 * _max_aircraft_speed(scenario.route) + 1e-9)
    if np.any(np.abs(rr) > limit):
        problems.append(f"|range rate| {np.max(np.abs(rr)):.4f} km/s above {limit:.4f} km/s")
    if np.any(np.isfinite(el[~served])):
        problems.append("outage step carries a finite elevation")
    return problems


# === link budget ===

def _pointing_penalty(aircraft, el_deg, az_deg) -> np.ndarray:
    if aircraft.steerable:
        return np.zeros_like(el_deg)
    el_b = math.radians(aircraft.boresight_elevation_deg)
    el_t = np.radians(el_deg)
    cos_off = (math.sin(el_b) * np.sin(el_t)
               + math.cos(el_b) * np.cos(el_t) * np.cos(np.radians(az_deg - aircraft.boresight_azimuth_deg)))
    offset = np.degrees(np.arccos(np.clip(cos_off, -1.0, 1.0)))
    hpbw = 0.5 * (aircraft.beamwidth_deg[0] + aircraft.beamwidth_deg[1])
    gain = np.maximum(aircraft.max_gain_dbi - 12.0 * (offset / hpbw) ** 2, -10.0)
    return aircraft.max_gain_dbi - gain


def check_link(scenario, access, link) -> list[str]:
    problems = []
    served = np.asarray(access.sat_id) >= 0
    d = np.asarray(access.slant_range_km)[served]
    f = scenario.phy.carrier_ghz
    fspl = np.asarray(link.fspl_db)[served]
    if not np.allclose(fspl, 92.45 + 20 * np.log10(d) + 20 * np.log10(f), rtol=0, atol=1e-9):
        problems.append("FSPL differs from 92.45 + 20 log d + 20 log f")
    parts = fspl + sum(np.asarray(getattr(link, c))[served] for c in ("gas_db", "rain_db", "cloud_db"))
    total = np.asarray(link.total_db)[served]
    if not np.allclose(total, parts, rtol=0, atol=1e-9):
        problems.append("total loss differs from the sum of its parts")
    aircraft, payload = scenario.aircraft, scenario.payload
    penalty = _pointing_penalty(aircraft, np.asarray(access.elevation_deg)[served],
                                np.asarray(access.azimuth_deg)[served])
    if scenario.direction == "uplink":
        eirp, gt = aircraft.tx_power_dbw + aircraft.max_gain_dbi, payload.gain_over_t_dbk
    else:
        eirp = payload.beam_eirp_dbw
        gt = (aircraft.rx_gain_over_t_dbk if aircraft.rx_gain_over_t_dbk is not None
              else aircraft.max_gain_dbi - 10 * math.log10(aircraft.rx_noise_temp_k))
    cnr = (eirp - penalty + gt - total - scenario.margin_db - BOLTZMANN_DBW_PER_K_HZ
           - 10 * math.log10(aircraft.bandwidth_mhz * 1e6))
    got = np.asarray(link.cnr_db)
    if not np.allclose(got[served], cnr, rtol=0, atol=1e-9):
        problems.append(f"CNR off the link equation by up to {np.max(np.abs(got[served] - cnr)):.3g} dB")
    if np.any(np.isfinite(got[~served])):
        problems.append("outage step carries a finite CNR")
    return problems


# === blades and slots ===

def _duty_cycle(rotor, el_deg: float) -> float:
    radius = abs(rotor.shaft_offset_m - rotor.rotor_height_m / math.tan(math.radians(el_deg)))
    if radius > rotor.tip_radius_m:
        return 0.0
    arc = 360.0 if radius <= 0 else 360.0 * rotor.blade_width_m / (2 * math.pi * radius)
    return rotor.n_blades * min(arc, 360.0 / rotor.n_blades) / 360.0


def check_erasures(scenario, access, blade_rows, slots, step_s, n_frames) -> list[str]:
    """Erased fraction within the duty cycles in force.

    The range is widened by one slot per blade period (slot rounding)
    and by one blade period over the whole window (partial periods at
    its ends); frames flown in an outage carry no blockage.
    """
    erased = slot_column(slots, "erased", bool)
    rotor = scenario.aircraft.rotor
    if rotor is None:
        return [] if not erased.any() else [f"{int(erased.sum())} erased slots without a rotor"]
    problems = []
    duties = []
    for row in blade_rows:
        want = _duty_cycle(rotor, row.elevation_deg)
        if not math.isclose(row.duty_cycle, want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"blade duty {row.duty_cycle:.6f} at {row.elevation_deg:.3f} deg, geometry gives {want:.6f}")
        duties.append(want)
    if not duties or len(erased) == 0:
        return problems + ([] if duties else ["rotor scenario without blade rows"])
    sat_id = np.asarray(access.sat_id)
    frame_idx = np.minimum((np.arange(n_frames) * (scenario.duration_s / n_frames) / step_s).astype(int),
                           len(sat_id) - 1)
    lo = 0.0 if np.any(sat_id[frame_idx] < 0) else min(duties)
    period_ms = 60000.0 / rotor.rpm / rotor.n_blades
    slot_ms = 15.0 / scenario.phy.scs_khz
    window_ms = n_frames * FRAME_MS
    widen = slot_ms / period_ms + period_ms / window_ms
    fraction = float(erased.mean())
    if not lo - widen <= fraction <= max(duties) + widen:
        problems.append(f"erased fraction {fraction:.5f} outside duty range "
                        f"[{lo:.5f}, {max(duties):.5f}] +- {widen:.5f}")
    return problems


def _expected_ber(mcs, cnr_db: float) -> float:
    info_bits = BITS_PER_SYMBOL[mcs.modulation] * mcs.code_rate
    eb_n0 = 10.0 ** ((cnr_db - 10 * math.log10(info_bits) + mcs.coding_gain_db) / 10.0)
    coef, scale = BER_FORM[mcs.modulation]
    return min(coef * 0.5 * math.erfc(math.sqrt(scale * eb_n0) / math.sqrt(2.0)), 0.5)


def check_slots(scenario, slots, report, access, n_frames, mode) -> list[str]:
    problems = []
    n_slots = n_frames * slots_per_frame(scenario)
    if len(slots) != n_slots or report["n_slots"] != n_slots:
        return [f"{len(slots)} slots ({report['n_slots']} in report), want {n_slots}"]
    payload = slot_column(slots, "payload_bits", np.int64)
    errors = slot_column(slots, "bit_errors", np.int64)
    erased = slot_column(slots, "erased", bool)
    ber = slot_column(slots, "ber")
    if np.any(payload != payload_bits(scenario.phy)):
        problems.append("slot payload differs from the transport block size")
    if np.any(errors[erased] != payload[erased]):
        problems.append("erased slot not counted as all bits in error")
    if report["n_erased"] != int(erased.sum()):
        problems.append(f"report n_erased {report['n_erased']} != {int(erased.sum())} erased slots")
    if report["handovers"] != count_handovers(np.asarray(access.sat_id)):
        problems.append("report handovers differ from the access sat_id column")
    total_bits = int(payload.sum())
    elapsed_ms = n_frames * FRAME_MS
    if mode == "expected":
        cnr = slot_column(slots, "cnr_db")
        table = {c: _expected_ber(scenario.phy.mcs, c) for c in np.unique(cnr[~erased]).tolist()}
        want = np.array([table[c] for c in cnr[~erased].tolist()])
        if not np.allclose(ber[~erased], want, rtol=1e-9, atol=1e-300):
            problems.append("expected-mode slot BER differs from the Q-function closed form")
        if np.any(errors[~erased] != np.round(ber[~erased] * payload[~erased])):
            problems.append("expected-mode bit errors are not the rounded expected count")
        report_ber = math.fsum((ber * payload).tolist()) / total_bits
        delivered = math.fsum((payload * slot_column(slots, "decode_prob")).tolist())
    else:
        report_ber = int(errors.sum()) / total_bits
        delivered = int(payload[slot_column(slots, "decoded", bool)].sum())
    if not math.isclose(report["ber"], report_ber, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"report ber {report['ber']!r} != {report_ber!r} from the slots")
    rate = delivered / (elapsed_ms * 1e3)
    if not math.isclose(report["data_rate_mbps"], rate, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"report data rate {report['data_rate_mbps']!r} != {rate!r} from the slots")
    return problems


# === whole operations ===

def check_run(scenario, result, step_s: float, n_frames: int, mode: str) -> list[str]:
    """Every check on one ``run_scenario`` result."""
    access = result.access
    want_steps = n_steps(scenario, step_s)
    if len(access) != want_steps:
        return [f"{len(access)} access steps, want {want_steps}"]
    return (check_access(scenario, access)
            + check_link(scenario, access, result.link)
            + check_slots(scenario, result.slots, result.report, access, n_frames, mode)
            + check_erasures(scenario, access, result.blade_rows, result.slots, step_s, n_frames))


def check_sweep(scenario, rows, cnr_min, cnr_max, points) -> list[str]:
    if len(rows) != points:
        return [f"{len(rows)} sweep rows, want {points}"]
    cnr, ber, rate = (np.array(c, dtype=float) for c in zip(*rows))
    problems = []
    if not np.allclose(cnr, np.linspace(cnr_min, cnr_max, points), rtol=0, atol=1e-12):
        problems.append("sweep grid differs from the requested CNR points")
    if not ber[-1] < ber[0]:
        problems.append(f"BER at the top CNR ({ber[-1]:.3g}) not below the bottom ({ber[0]:.3g})")
    if np.any((ber < 0) | (ber > 1)):
        problems.append("sweep BER outside [0, 1]")
    peak = payload_bits(scenario.phy) * slots_per_frame(scenario) / (FRAME_MS * 1e3)
    if np.any(rate > peak * (1 + 1e-12)):
        problems.append(f"sweep data rate {rate.max():.4f} above the slot peak {peak:.4f} Mbit/s")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def check_written(scenario, target: Path, report: dict, step_s: float, n_frames: int) -> list[str]:
    """Files written by ``rwasim run``; ``report`` is from an in-memory run of the same inputs."""
    problems = []
    names = {"access.csv", "link.csv", "slots.csv", "report.json"}
    if scenario.aircraft.rotor is not None:
        names.add("blades.csv")
    present = {p.name for p in target.iterdir()} if target.is_dir() else set()
    if present != names:
        return [f"output files {sorted(present)}, want {sorted(names)}"]
    if json.loads((target / "report.json").read_text()) != report:
        problems.append("report.json differs from the in-memory report")
    steps = n_steps(scenario, step_s)
    access = _read_csv(target / "access.csv")
    for name, want in (("link.csv", steps), ("slots.csv", n_frames * slots_per_frame(scenario))):
        rows = len(_read_csv(target / name)) - 1
        if rows != want:
            problems.append(f"{name} has {rows} rows, want {want}")
    if len(access) - 1 != steps:
        return problems + [f"access.csv has {len(access) - 1} rows, want {steps}"]
    header, body = access[0], np.array(access[1:], dtype=float)
    col = {name: body[:, header.index(name)] for name in ("time_s", "sat_id", "elevation_deg")}
    problems += check_served_elevation(scenario, col["time_s"], col["sat_id"].astype(int),
                                       col["elevation_deg"])
    return problems
