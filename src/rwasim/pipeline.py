"""End-to-end runs: geometry -> link budget -> blades -> slots -> report.

Everything here is deterministic for a given (scenario, step, seed,
mode): reports carry no timestamps and CSV floats use a fixed format,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blades as bl
from .errors import ConfigError
from .linkbudget import (compute_cnr, off_boresight_gain, path_loss,
                         pointing_offset, rescale_cnr)
from .orbit import AccessTimeline, build_access_timeline
from .phy import FRAME_MS, FrameStats, SlotTable, aggregate, simulate_frames
from .scenarios import ScenarioSpec


@dataclass
class LinkTimeline:
    """Link budget evaluated along the access timeline."""

    times_s: np.ndarray
    fspl_db: np.ndarray
    gas_db: np.ndarray
    rain_db: np.ndarray
    cloud_db: np.ndarray
    total_db: np.ndarray
    doppler_khz: np.ndarray
    cnr_db: np.ndarray               # -inf during outages
    cnr_prime_db: np.ndarray | None  # rescaled CNR when configured
    tx_gain_dbi: np.ndarray
    rx_gain_over_t_dbk: np.ndarray
    bandwidth_mhz: float


def link_timeline(scenario: ScenarioSpec, access: AccessTimeline) -> LinkTimeline:
    """Evaluate the full link budget at every access sample.

    Outage samples keep NaN losses and a CNR of -inf; downlink samples
    apply the aircraft pointing penalty on the receive side, uplink on
    the transmit side.
    """
    n = len(access)
    aircraft = scenario.aircraft
    payload = scenario.payload
    carrier = scenario.phy.carrier_ghz
    bandwidth = aircraft.bandwidth_mhz
    uplink = scenario.direction == "uplink"

    cols = {name: np.full(n, np.nan) for name in
            ("fspl", "gas", "rain", "cloud", "total", "tx_gain", "rx_gt")}
    cnr = np.full(n, -np.inf)

    for i in range(n):
        if access.sat_id[i] < 0:
            continue
        el = float(access.elevation_deg[i])
        rain_rate = scenario.rain_rate_at(float(access.times_s[i]))
        loss = path_loss(scenario.loss_model, scenario.band,
                         float(access.slant_range_km[i]), carrier, el, rain_rate)
        if aircraft.steerable:
            penalty = 0.0
        else:
            offset = pointing_offset(aircraft.boresight_elevation_deg,
                                     aircraft.boresight_azimuth_deg,
                                     el, float(access.azimuth_deg[i]))
            gain = off_boresight_gain(aircraft.max_gain_dbi,
                                      aircraft.beamwidth_mid_deg, offset)
            penalty = aircraft.max_gain_dbi - gain
        if uplink:
            eirp = aircraft.eirp_dbw
            gain_over_t = payload.gain_over_t_dbk
            tx_gain = aircraft.max_gain_dbi - penalty
            rx_gt = gain_over_t
        else:
            eirp = payload.beam_eirp_dbw
            gain_over_t = aircraft.receive_gain_over_t_dbk
            tx_gain = np.nan  # payload specified by EIRP, not gain
            rx_gt = gain_over_t - penalty
        cols["fspl"][i] = loss.fspl_db
        cols["gas"][i] = loss.gas_db
        cols["rain"][i] = loss.rain_db
        cols["cloud"][i] = loss.cloud_db
        cols["total"][i] = loss.total_db
        cols["tx_gain"][i] = tx_gain
        cols["rx_gt"][i] = rx_gt
        cnr[i] = compute_cnr(eirp, gain_over_t, loss.total_db, bandwidth,
                             pointing_penalty_db=penalty,
                             margin_db=scenario.margin_db)

    cnr_prime = None
    if scenario.cnr_prime_bandwidth_mhz is not None:
        cnr_prime = np.where(
            np.isfinite(cnr),
            rescale_cnr(cnr, bandwidth, scenario.cnr_prime_bandwidth_mhz),
            -np.inf)

    return LinkTimeline(
        times_s=access.times_s,
        fspl_db=cols["fspl"], gas_db=cols["gas"], rain_db=cols["rain"],
        cloud_db=cols["cloud"], total_db=cols["total"],
        doppler_khz=access.doppler_khz,
        cnr_db=cnr, cnr_prime_db=cnr_prime,
        tx_gain_dbi=cols["tx_gain"], rx_gain_over_t_dbk=cols["rx_gt"],
        bandwidth_mhz=bandwidth,
    )


# === blade overlay ===

@dataclass(frozen=True)
class BladeRow:
    """One in-force blade schedule segment (for the CSV export)."""

    elevation_deg: float
    radius_m: float
    arc_deg: float
    blocked_ms: float
    clear_ms: float
    duty_cycle: float


def blade_overlay(
    scenario: ScenarioSpec,
    access: AccessTimeline,
) -> tuple[list[bl.BladeSchedule | None], list[BladeRow]]:
    """Per-sample blade schedules plus the distinct-segment rows.

    Returns (schedules, rows): one schedule (or None) per access sample,
    and one row per segment where the schedule was regenerated (the 5 %
    blocked-time rule in :func:`rwasim.blades.schedule_timeline`).
    """
    rotor = scenario.aircraft.rotor
    n = len(access)
    if rotor is None:
        return [None] * n, []
    schedules: list[bl.BladeSchedule | None] = [None] * n
    rows: list[BladeRow] = []
    current: bl.BladeSchedule | None = None
    served_els: list[float] = []
    served_idx: list[int] = []
    for i in range(n):
        if access.sat_id[i] >= 0:
            served_els.append(float(access.elevation_deg[i]))
            served_idx.append(i)
    for sched, el, i in zip(bl.schedule_timeline(rotor, served_els),
                            served_els, served_idx):
        schedules[i] = sched
        if sched is not current:
            current = sched
            geometry = bl.blade_geometry(rotor, el)
            rows.append(BladeRow(
                elevation_deg=el,
                radius_m=math.inf if geometry is None else geometry.radius_m,
                arc_deg=0.0 if geometry is None else geometry.arc_deg,
                blocked_ms=sched.blocked_ms,
                clear_ms=sched.clear_ms,
                duty_cycle=sched.duty_cycle,
            ))
    return schedules, rows


# === reports ===

def _stats(values: np.ndarray) -> dict:
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "avg": float(np.mean(values)),
    }


@dataclass
class RunResult:
    """Everything produced by one scenario run."""

    scenario: ScenarioSpec
    access: AccessTimeline
    link: LinkTimeline
    blade_rows: list[BladeRow]
    slots: SlotTable
    stats: FrameStats
    report: dict


def build_report(
    scenario: ScenarioSpec,
    access: AccessTimeline,
    link: LinkTimeline,
    stats: FrameStats,
    step_s: float,
    seed: int,
    mode: str,
    n_frames: int,
) -> dict:
    """Aggregate a run into the JSON report structure.

    Every number is recomputable from the CSV exports; geometry and
    link statistics cover served samples only.
    """
    served = access.served
    if not np.any(served):
        raise RuntimeError(
            f"scenario {scenario.id}: no satellite above "
            f"{access.threshold_deg} deg at any sample; nothing to report")
    report = {
        "scenario_id": scenario.id,
        "seed": seed,
        "mode": mode,
        "step_s": step_s,
        "n_frames": n_frames,
        "duration_s": scenario.duration_s,
        "direction": scenario.direction,
        "band": scenario.band,
        "carrier_ghz": scenario.phy.carrier_ghz,
        "bandwidth_mhz": link.bandwidth_mhz,
        "access_percent": access.access_percent(),
        "handovers": access.handover_count(),
        "elevation_deg": _stats(access.elevation_deg[served]),
        "doppler_abs_khz": _stats(np.abs(access.doppler_khz[served])),
        "loss_db": _stats(link.total_db[served]),
        "cnr_db": _stats(link.cnr_db[served]),
        "cnr_prime_db": (None if link.cnr_prime_db is None
                         else _stats(link.cnr_prime_db[served])),
        "ber": stats.ber,
        "data_rate_mbps": stats.data_rate_mbps,
        "slot_loss_fraction": stats.slot_loss_fraction,
        "n_slots": stats.n_slots,
        "n_erased": stats.n_erased,
    }
    return report


def run_scenario(
    scenario: ScenarioSpec,
    step_s: float = 1.0,
    seed: int = 0,
    mode: str = "mc",
    n_frames: int = 100,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Run the full pipeline for one scenario.

    The PHY simulation spreads ``n_frames`` 10 ms frames evenly over the
    flight: each frame inherits the CNR and blade schedule in force at
    its start time, and blade blockage phase runs on the continuous
    flight clock so frames sample different points of the rotor period.
    Outputs are written under ``out_dir/<scenario id>/`` when a
    directory is given.
    """
    access = build_access_timeline(scenario, step_s)
    link = link_timeline(scenario, access)
    schedules, blade_rows = blade_overlay(scenario, access)

    n_samples = len(access)
    if n_samples == 0 or n_frames == 0:
        slots = simulate_frames(scenario.phy, 0.0, 0)  # an empty table
        stats = FrameStats(0, 0, 0, max(n_frames, 1) * FRAME_MS, 0.0, 0.0, 0.0)
    else:
        frame_times_s = np.arange(n_frames) * (scenario.duration_s / n_frames)
        frame_idx = np.minimum((frame_times_s / step_s).astype(int), n_samples - 1)
        frame_cnr = link.cnr_db[frame_idx]
        frame_schedules = [schedules[i] for i in frame_idx]
        phase = scenario.blade_phase_ms
        if scenario.randomize_blade_phase:
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1ADE)))
            phase += float(rng.uniform(0.0, 1000.0))
        # Rotor phase advances on the contiguous PHY clock (frames are
        # back to back there even though they sample spread-out flight
        # times); a flight-time clock would strobe the rotor whenever
        # the frame spacing hits a multiple of the blade period.
        offsets = np.arange(n_frames) * FRAME_MS + phase
        slots = simulate_frames(scenario.phy, frame_cnr, n_frames,
                                schedules=frame_schedules,
                                frame_offsets_ms=offsets,
                                mode=mode, seed=seed)
        stats = aggregate(slots, n_frames * FRAME_MS, mode=mode)

    report = build_report(scenario, access, link, stats, step_s, seed, mode, n_frames)
    result = RunResult(scenario, access, link, blade_rows, slots, stats, report)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


# === CSV / JSON output ===

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_outputs(result: RunResult, out_dir: str | Path) -> Path:
    """Write access.csv, link.csv, slots.csv, blades.csv and report.json."""
    target = Path(out_dir) / result.scenario.id
    target.mkdir(parents=True, exist_ok=True)
    access, link, slots = result.access, result.link, result.slots

    _write_csv(target / "access.csv",
               ["time_s", "sat_id", "elevation_deg", "azimuth_deg",
                "slant_range_km", "range_rate_kms", "doppler_khz"],
               ((access.times_s[i], int(access.sat_id[i]), access.elevation_deg[i],
                 access.azimuth_deg[i], access.slant_range_km[i],
                 access.range_rate_kms[i], access.doppler_khz[i])
                for i in range(len(access))))

    _write_csv(target / "link.csv",
               ["time_s", "fspl_db", "gas_db", "rain_db", "cloud_db",
                "total_db", "doppler_khz", "cnr_db"],
               ((link.times_s[i], link.fspl_db[i], link.gas_db[i],
                 link.rain_db[i], link.cloud_db[i], link.total_db[i],
                 link.doppler_khz[i], link.cnr_db[i])
                for i in range(len(link.times_s))))

    _write_csv(target / "slots.csv",
               ["slot_index", "t_start_ms", "erased", "cnr_db",
                "payload_bits", "bit_errors"],
               zip(slots.slot_index.tolist(), slots.t_start_ms.tolist(),
                   slots.erased.tolist(), slots.cnr_db.tolist(),
                   slots.payload_bits.tolist(), slots.bit_errors.tolist()))

    if result.blade_rows:
        _write_csv(target / "blades.csv",
                   ["elevation_deg", "d_rotor_m", "phi_deg", "t_int_ms",
                    "t_lnk_ms", "duty_cycle"],
                   ((r.elevation_deg, r.radius_m, r.arc_deg, r.blocked_ms,
                     r.clear_ms, r.duty_cycle) for r in result.blade_rows))

    with (target / "report.json").open("w") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


# === CNR sweep ===

def sweep_cnr(
    scenario: ScenarioSpec,
    cnr_min_db: float,
    cnr_max_db: float,
    points: int,
    n_frames: int = 100,
    seed: int = 0,
    mode: str = "mc",
    access_step_s: float = 5.0,
) -> list[tuple[float, float, float]]:
    """BER and data rate versus fixed CNR (the waterfall curve).

    The scenario contributes its PHY settings and a representative
    blade schedule (taken at the mean served elevation of a coarse
    access pass); each grid point runs ``n_frames`` frames at constant
    CNR.  Returns (cnr_db, ber, data_rate_mbps) rows.
    """
    if points < 1:
        raise ConfigError("points must be >= 1", field="points")
    if cnr_max_db < cnr_min_db:
        raise ConfigError("cnr-max must be >= cnr-min", field="cnr_max_db")
    schedule = None
    if scenario.aircraft.rotor is not None:
        access = build_access_timeline(scenario, access_step_s)
        served = access.served
        if np.any(served):
            mean_el = float(np.mean(access.elevation_deg[served]))
            schedule = bl.schedule_for_elevation(scenario.aircraft.rotor, mean_el)
    grid = np.linspace(cnr_min_db, cnr_max_db, points)
    rows = []
    for j, cnr in enumerate(grid):
        slots = simulate_frames(scenario.phy, float(cnr), n_frames,
                                schedules=schedule, mode=mode, seed=seed + j)
        stats = aggregate(slots, n_frames * FRAME_MS, mode=mode)
        rows.append((float(cnr), stats.ber, stats.data_rate_mbps))
    return rows


def write_sweep_csv(rows, path: str | Path) -> None:
    _write_csv(Path(path), ["cnr_db", "ber", "data_rate_mbps"], rows)


# === report comparison ===

def compare_reports(report_a: dict, report_b: dict, path: str = "") -> dict:
    """Field-by-field difference of two run reports (b minus a).

    Numeric fields yield deltas, nested objects recurse, and other
    fields are listed side by side when they differ.  Raises
    :class:`ConfigError` when the reports do not share a schema.
    """
    keys_a, keys_b = set(report_a), set(report_b)
    if keys_a != keys_b:
        missing = keys_a.symmetric_difference(keys_b)
        raise ConfigError(
            f"reports do not share a schema at {path or 'top level'}: "
            f"{sorted(missing)} present on one side only")
    out: dict = {}
    for key in sorted(report_a):
        a, b = report_a[key], report_b[key]
        where = f"{path}.{key}" if path else key
        if isinstance(a, dict) and isinstance(b, dict):
            out[key] = compare_reports(a, b, where)
        elif isinstance(a, bool) or isinstance(b, bool):
            if a != b:
                out[key] = {"a": a, "b": b}
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            out[key] = b - a
        elif a is None or b is None:
            if a is not b:
                out[key] = {"a": a, "b": b}
        else:
            if a != b:
                out[key] = {"a": a, "b": b}
    return out
