"""End-to-end runs: geometry -> link budget -> blades -> slots -> report.

Everything here is deterministic for a given (scenario, step, seed,
mode): reports carry no timestamps and CSV floats use a fixed format,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import blades as bl
from .errors import ConfigError, check_domains, domain
from .linkbudget import (atmospheric_loss, compute_cnr, fspl, off_boresight_gain,
                         pointing_offset, rescale_cnr)
from .orbit import AccessTimeline, build_access_timeline
from .phy import (FRAME_MS, FrameStats, SlotTable, aggregate, check_slot_budget,
                  erased_slots, simulate_frames, sweep_stats)
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
    cnr_db: np.ndarray               # -inf during outages


def link_timeline(scenario: ScenarioSpec, access: AccessTimeline) -> LinkTimeline:
    """Evaluate the full link budget at every access sample.

    Outage samples keep NaN losses and a CNR of -inf; downlink samples
    apply the aircraft pointing penalty on the receive side, uplink on
    the transmit side.
    """
    aircraft = scenario.aircraft
    bandwidth = aircraft.bandwidth_mhz
    served = access.served
    el = access.elevation_deg[served]

    fspl_db = fspl(access.slant_range_km[served], scenario.phy.carrier_ghz)
    gas, cloud, rain = atmospheric_loss(scenario.loss_model, scenario.band, el,
                                        scenario.rain_rate_at(access.times_s[served]))
    total = fspl_db + gas + rain + cloud
    if aircraft.steerable:
        penalty = 0.0
    else:
        offset = pointing_offset(aircraft.boresight_elevation_deg,
                                 aircraft.boresight_azimuth_deg,
                                 el, access.azimuth_deg[served])
        penalty = aircraft.max_gain_dbi - off_boresight_gain(
            aircraft.max_gain_dbi, aircraft.beamwidth_mid_deg, offset)
    if scenario.direction == "uplink":
        eirp, gain_over_t = aircraft.eirp_dbw, scenario.payload.gain_over_t_dbk
    else:
        eirp, gain_over_t = scenario.payload.beam_eirp_dbw, aircraft.receive_gain_over_t_dbk
    cnr = compute_cnr(eirp, gain_over_t, total, bandwidth,
                      pointing_penalty_db=penalty, margin_db=scenario.margin_db)

    def column(values, fill=np.nan):
        out = np.full(len(access), fill)
        out[served] = values
        return out

    return LinkTimeline(
        times_s=access.times_s,
        fspl_db=column(fspl_db), gas_db=column(gas), rain_db=column(rain),
        cloud_db=column(cloud), total_db=column(total), cnr_db=column(cnr, -np.inf),
    )


# === blade overlay ===

# The fields of a blade segment row, in blades.csv column order.
BLADE_FIELDS = ("elevation_deg", "radius_m", "arc_deg", "blocked_ms", "clear_ms", "duty_cycle")
_BLADE_DTYPE = np.dtype([(name, float) for name in BLADE_FIELDS])


def blade_overlay(
    scenario: ScenarioSpec,
    access: AccessTimeline,
) -> tuple[np.ndarray, np.recarray]:
    """Blade-schedule segments of the access samples and one row per segment.

    Returns ``(segment, rows)``: the segment in force at each access
    sample (-1 in outages and without a rotor) and a record array with
    one record of the ``BLADE_FIELDS`` per segment (empty without a
    rotor).  :func:`rwasim.blades.regenerations` cuts the served samples
    into segments, from one evaluation of the crossing per served sample.
    """
    rotor = scenario.aircraft.rotor
    segment = np.full(len(access), -1)
    if rotor is None:
        return segment, np.empty(0, _BLADE_DTYPE).view(np.recarray)
    served = access.served
    el = access.elevation_deg[served]
    radius, arc = bl.crossing(rotor, el)
    blocked = bl.arc_blocked_ms(rotor, arc)
    served_segment, starts = bl.regenerations(blocked)
    segment[served] = served_segment
    schedules = bl.schedule(rotor, blocked[starts])
    rows = np.empty(len(starts), _BLADE_DTYPE)
    for name, column in zip(BLADE_FIELDS, (el[starts], radius[starts], arc[starts],
                                           schedules.blocked_ms, schedules.clear_ms,
                                           schedules.duty_cycle)):
        rows[name] = column
    return segment, rows.view(np.recarray)


# === reports ===

def _served(scenario: ScenarioSpec, access: AccessTimeline) -> np.ndarray:
    """The served-sample mask; a RuntimeError when no sample is served."""
    served = access.served
    if not served.any():
        raise RuntimeError(
            f"scenario {scenario.id}: no satellite above "
            f"{scenario.handover_threshold_deg} deg at any sample; nothing to report")
    return served


def _stats(values: np.ndarray) -> dict:
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "avg": float(values.mean()),
    }


@dataclass
class RunResult:
    """Everything produced by one scenario run."""

    scenario: ScenarioSpec
    access: AccessTimeline
    link: LinkTimeline
    blade_rows: np.recarray          # one record per blade segment, BLADE_FIELDS
    slots: SlotTable
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
    link statistics cover served samples only.  ``cnr_prime_db`` is the
    served CNR rescaled to ``cnr_prime_bandwidth_mhz``, when that is set.
    """
    served = _served(scenario, access)
    prime = scenario.cnr_prime_bandwidth_mhz
    return {
        "scenario_id": scenario.id,
        "seed": seed,
        "mode": mode,
        "step_s": step_s,
        "n_frames": n_frames,
        "duration_s": scenario.duration_s,
        "direction": scenario.direction,
        "band": scenario.band,
        "carrier_ghz": scenario.phy.carrier_ghz,
        "bandwidth_mhz": scenario.aircraft.bandwidth_mhz,
        "access_percent": access.access_percent(),
        "handovers": access.handover_count(),
        "elevation_deg": _stats(access.elevation_deg[served]),
        "doppler_abs_khz": _stats(np.abs(access.doppler_khz[served])),
        "loss_db": _stats(link.total_db[served]),
        "cnr_db": _stats(link.cnr_db[served]),
        "cnr_prime_db": (None if prime is None else _stats(rescale_cnr(
            link.cnr_db[served], scenario.aircraft.bandwidth_mhz, prime))),
        "ber": stats.ber,
        "data_rate_mbps": stats.data_rate_mbps,
        "slot_loss_fraction": stats.slot_loss_fraction,
        "n_slots": stats.n_slots,
        "n_erased": stats.n_erased,
    }


# Slots per block of frames in `_rotor_erased`: bounds the blocked times
# and kernel temporaries held at once.
_BLOCK_SLOTS = 2**16


def _rotor_erased(scenario: ScenarioSpec, frame_blocked: np.ndarray, seed: int) -> np.ndarray:
    """Erased flags of every slot of a run's or a sweep point's frames.

    ``frame_blocked`` is the per-blade blocked time (ms) in force in each
    frame (0 in an outage, which blocks nothing).  Rotor phase advances on
    the contiguous PHY clock (frames are back to back there even though
    they sample spread-out flight times), from the scenario's blade phase,
    plus a draw from ``seed`` when it randomizes the phase; a flight-time
    clock would strobe the rotor whenever the frame spacing hits a
    multiple of the blade period.  The blocked times are thresholded a
    block of frames at a time, so those of all the frames are never held
    at once; blocks change no slot's sum.
    """
    phase = scenario.blade_phase_ms
    if scenario.randomize_blade_phase:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1ADE)))
        phase += float(rng.uniform(0.0, 1000.0))
    offsets = np.arange(len(frame_blocked)) * FRAME_MS + phase
    rotor, num = scenario.aircraft.rotor, scenario.phy.numerology
    spf = num.slots_per_frame
    step = max(1, _BLOCK_SLOTS // spf)
    erased = np.empty(len(offsets) * spf, dtype=bool)
    for first in range(0, len(offsets), step):
        f = slice(first, first + step)
        blocked = bl.slot_blocked_ms(bl.schedule(rotor, frame_blocked[f]), offsets[f],
                                     num.slot_ms, spf)
        erased[first * spf:first * spf + blocked.size] = erased_slots(blocked, num)
    return erased


# === run parameters ===

@dataclass
class RunParameters:
    """The settings of a :func:`run_scenario` call, each with its declared domain."""

    step_s: float = domain("(0, inf)", "time moves on; MAX_STEPS bounds it from below")
    seed: int = domain("[0, inf)", "numpy seeds its generators from non-negative integers")
    mode: str
    n_frames: int = domain("[0, inf)", "0 frames report the geometry alone; MAX_SLOTS bounds it")


@dataclass
class SweepParameters:
    """The settings of a :func:`sweep_cnr` call, each with its declared domain."""

    cnr_min_db: float = domain("(-inf, inf)", "a finite CNR; the curve starts there")
    cnr_max_db: float = domain("(-inf, inf)", "a finite CNR, at least cnr_min_db")
    points: int = domain("[1, inf)", "a curve of one point or more; MAX_POINTS bounds it")
    n_frames: int = domain("[1, inf)", "a point of no frames has no BER; MAX_SLOTS bounds it")
    seed: int = domain("[0, inf)", "numpy seeds its generators from non-negative integers")
    mode: str
    access_step_s: float = domain("(0, inf)", "time moves on; MAX_STEPS bounds it from below")


def _checked(settings) -> tuple:
    """The values of ``settings``, an int's as an ``int``; else a ConfigError
    naming the first int field holding no integer (a bool is none), then the
    first value outside its domain, then a ``mode`` not "mc" or "expected"."""
    values = []
    for f in fields(settings):
        value = getattr(settings, f.name)
        whole = f.type == "int"   # the annotation, a string under `from __future__`
        if whole and (isinstance(value, bool) or not hasattr(value, "__index__")):
            raise ConfigError(f"expected an integer, got {value!r}", field=f.name)
        values.append(operator.index(value) if whole else value)
    check_domains(settings)
    if settings.mode not in ("mc", "expected"):
        raise ConfigError(f"expected 'mc' or 'expected', got {settings.mode!r}", field="mode")
    return tuple(values)


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
    directory is given.  A setting outside its domain
    (:class:`RunParameters`), or a run over the slot budget
    (:data:`rwasim.phy.MAX_SLOTS`), is a ConfigError before any work.
    """
    step_s, seed, mode, n_frames = _checked(RunParameters(step_s, seed, mode, n_frames))
    check_slot_budget(n_frames, scenario.phy.numerology)
    access = build_access_timeline(scenario, step_s)
    link = link_timeline(scenario, access)
    segment, blade_rows = blade_overlay(scenario, access)

    n_samples = len(access)
    if n_samples == 0 or n_frames == 0:
        slots = simulate_frames(scenario.phy, 0.0, 0)  # an empty table
        stats = FrameStats(0, 0, 0.0, 0.0, 0.0)
    else:
        frame_times_s = np.arange(n_frames) * (scenario.duration_s / n_frames)
        # the last sample at or before each frame's start; times_s starts
        # at 0, so the index is in [0, n_samples - 1]
        frame_idx = access.times_s.searchsorted(frame_times_s, side="right") - 1
        erased = None
        if len(blade_rows):
            # segment -1 (an outage) picks the appended 0 ms
            frame_blocked = np.append(blade_rows.blocked_ms, 0.0)[segment[frame_idx]]
            erased = _rotor_erased(scenario, frame_blocked, seed)
        slots = simulate_frames(scenario.phy, link.cnr_db[frame_idx], n_frames,
                                mode=mode, seed=seed, erased=erased)
        stats = aggregate(slots, n_frames * FRAME_MS, mode=mode)

    report = build_report(scenario, access, link, stats, step_s, seed, mode, n_frames)
    result = RunResult(scenario, access, link, blade_rows, slots, report)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


# === CSV / JSON output ===

# Rows per `%` call (per join in slots.csv): bounds the formatted text
# held in memory at once.
_CSV_CHUNK_ROWS = 4096

# The last six cells of slots.csv are formatted once per run of equal
# rows while the runs are at most this share of a chunk's rows (see
# `_slot_tails`).
_RUN_SHARE = 0.25


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length numpy columns as CSV with CRLF line ends.

    Int and bool columns are written as ``%d``, float columns as
    ``%.10g``; each chunk of ``_CSV_CHUNK_ROWS`` rows is written with a
    single ``%`` over its flattened values.
    """
    row_spec = ",".join("%d" if col.dtype.kind in "biu" else "%.10g" for col in columns) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [col[start:start + _CSV_CHUNK_ROWS].tolist() for col in columns]
            values = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(row_spec * len(chunk[0]) % values)


# slots.csv writes its slot number and start time from text pieces, not
# by formatting numbers.  A numerology of s = 10 * 2**mu slots a frame
# has slots of 2**-mu ms, mu <= 3.
# - Slot j of frame f starts at 10 * f + j * 2**-mu ms, and the offset
#   j * 2**-mu is below 10 ms.  So the `%.10g` text of the start time is
#   str(f) (nothing for frame 0) followed by the text of the offset, one
#   integer digit and at most mu decimals.  That holds while the time has
#   at most 10 significant digits: the frame number's digits, plus 1,
#   plus mu.  At mu = 3 the slot budget (MAX_SLOTS) allows frames up to
#   999,999, which gives 6 + 1 + 3 = 10 digits; a lower mu leaves more
#   room.  A table past the bound (a 0.0625 ms numerology would allow
#   one) is a ValueError; it is never written another way.
# - s is a multiple of 10, so slot number f * s + j is
#   str(f * s // 10 + j // 10) (nothing when that is 0) followed by the
#   digit j % 10.
_START_DIGITS = 10


def _write_slots_csv(path: Path, slots: SlotTable) -> None:
    """Write ``slots`` as slots.csv, each chunk of whole frames as one join
    of text pieces.

    A row is the slot number's leading digits (one string per 10 slots),
    its last digit, the frame number (one string per frame), the
    start-time offset of its slot in the frame and the six cells of
    `_slot_tails`.  The pieces go into a flat list by extended-slice
    assignment, so no value is formatted per row.
    """
    num = slots.numerology
    spf = num.slots_per_frame
    offsets = ["%.10g" % (j * num.slot_ms) for j in range(spf)]
    decimals = max(len(text.partition(".")[2]) for text in offsets)
    last = slots.first_frame + slots.n_frames - 1
    if len(str(last)) + 1 + decimals > _START_DIGITS:
        raise ValueError(f"frame {last} of {num.slot_ms} ms slots starts past the "
                         f"{_START_DIGITS} digits that slots.csv writes exactly")
    digit_cells = [f"{j % 10}," for j in range(spf)]
    offset_cells = [f"{offset}," for offset in offsets]
    step = max(1, _CSV_CHUNK_ROWS // spf)  # frames per chunk
    with path.open("w", newline="") as fh:
        fh.write("slot_index,t_start_ms,erased,cnr_db,payload_bits,bit_errors,ber,"
                 "decode_prob\r\n")
        for start in range(0, slots.n_frames, step):
            chunk = slots.frames(start, start + step)
            n, rows = chunk.n_frames, len(chunk)
            frame = chunk.first_frame
            frames = list(map(str, range(frame, frame + n)))
            tens = list(map(str, range(frame * spf // 10, (frame + n) * spf // 10)))
            if frame == 0:
                frames[0] = tens[0] = ""
            tails = _slot_tails(chunk)
            k = 4 + len(tails)  # pieces a row
            pieces = [""] * (rows * k)
            # each tens prefix on 10 rows and each frame number on spf rows
            for j in range(10):
                pieces[j * k::10 * k] = tens
            pieces[1::k] = digit_cells * n
            for j in range(spf):
                pieces[j * k + 2::spf * k] = frames
            pieces[3::k] = offset_cells * n
            for i, tail in enumerate(tails):
                pieces[4 + i::k] = tail
            text = "".join(pieces)
            del pieces, tails  # freed before the text is encoded and written
            fh.write(text)


def _slot_tails(chunk: SlotTable) -> list[list[str]]:
    """The last six cells of every row of ``chunk``, as one or three pieces a row.

    The cells ``erased, cnr_db, payload_bits, bit_errors, ber,
    decode_prob`` depend only on the frame, the erased flag and the bit
    errors.  While the runs of rows equal in those three are at most
    ``_RUN_SHARE`` of the rows, each run's cells are formatted once, with
    a single ``%`` over all runs, and the row takes one piece.  Otherwise
    a row takes three: the frame's ``erased,cnr_db,payload_bits,`` head
    for its erased flag, the text of its bit errors (formatted once per
    distinct value) and the frame's ``,ber,decode_prob`` tail for its
    erased flag (``,1,0`` when erased).
    """
    spf = chunk.numerology.slots_per_frame
    erased, bit_errors = chunk.erased, chunk.bit_errors
    heads = np.empty(len(chunk), dtype=bool)
    heads[0] = True
    np.not_equal(erased[1:], erased[:-1], out=heads[1:])
    heads[1:] |= bit_errors[1:] != bit_errors[:-1]
    heads[::spf] = True
    payload = "%d" % chunk.payload
    starts = np.flatnonzero(heads)
    if len(starts) <= len(chunk) * _RUN_SHARE:
        frame = starts // spf
        run_erased = erased[starts]
        values = itertools.chain.from_iterable(zip(
            run_erased.tolist(), chunk.frame_cnr_db[frame].tolist(),
            bit_errors[starts].tolist(),
            np.where(run_erased, 1.0, chunk.frame_ber[frame]).tolist(),
            np.where(run_erased, 0.0, chunk.frame_decode_prob[frame]).tolist()))
        runs = (f"%d,%.10g,{payload},%d,%.10g,%.10g\r\n" * len(starts)
                % tuple(values)).splitlines(True)
        return [np.array(runs, dtype=object)[np.cumsum(heads) - 1].tolist()]
    n = chunk.n_frames
    cnr = ("%.10g\n" * n % tuple(chunk.frame_cnr_db.tolist())).split("\n")[:-1]
    channel = (",%.10g,%.10g\r\n" * n % tuple(itertools.chain.from_iterable(zip(
        chunk.frame_ber.tolist(), chunk.frame_decode_prob.tolist()))))
    # entry 2 * f of the flattened head and tail is frame f's piece for a
    # clear slot, entry 2 * f + 1 for an erased one
    head = np.empty((n, 2), dtype=object)
    head[:, 0] = [f"0,{text},{payload}," for text in cnr]
    head[:, 1] = [f"1,{text},{payload}," for text in cnr]
    tail = np.empty((n, 2), dtype=object)
    tail[:, 0] = channel.splitlines(True)
    tail[:, 1] = ",1,0\r\n"
    pick = np.repeat(np.arange(0, 2 * n, 2), spf) + erased
    values, inverse = np.unique(bit_errors, return_inverse=True)
    text = ("%d\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    return [head.ravel()[pick].tolist(), np.array(text, dtype=object)[inverse].tolist(),
            tail.ravel()[pick].tolist()]


def write_outputs(result: RunResult, out_dir: str | Path) -> Path:
    """Write access.csv, link.csv, slots.csv, blades.csv and report.json."""
    target = Path(out_dir) / result.scenario.id
    target.mkdir(parents=True, exist_ok=True)
    access, link, slots = result.access, result.link, result.slots

    _write_csv(target / "access.csv",
               ["time_s", "sat_id", "elevation_deg", "azimuth_deg",
                "slant_range_km", "range_rate_kms", "doppler_khz"],
               [access.times_s, access.sat_id, access.elevation_deg,
                access.azimuth_deg, access.slant_range_km,
                access.range_rate_kms, access.doppler_khz])

    _write_csv(target / "link.csv",
               ["time_s", "fspl_db", "gas_db", "rain_db", "cloud_db",
                "total_db", "doppler_khz", "cnr_db"],
               [link.times_s, link.fspl_db, link.gas_db, link.rain_db,
                link.cloud_db, link.total_db, access.doppler_khz, link.cnr_db])

    _write_slots_csv(target / "slots.csv", slots)

    rows = result.blade_rows
    if len(rows):
        _write_csv(target / "blades.csv",
                   ["elevation_deg", "d_rotor_m", "phi_deg", "t_int_ms",
                    "t_lnk_ms", "duty_cycle"],
                   [rows[name] for name in BLADE_FIELDS])

    with (target / "report.json").open("w") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


# === CNR sweep ===

# Most points one sweep may take.  A sweep peaks at 220 to 272 bytes a
# point (`tracemalloc`: scenario-6, -7 and -19 at 1 and 20 frames, 20,000
# and 40,000 points, both modes, written or not), so the budget keeps it
# under about 1.4 GB.  More are a ConfigError on points.
MAX_POINTS = 5_000_000


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
    access pass; a RuntimeError when a rotor's pass serves no sample),
    at the blade phase a run with ``seed`` takes; each grid point runs
    ``n_frames`` frames at constant CNR, and grid point ``j`` draws with
    seed ``seed + j``.  The erased slots are the same at every point, so
    they are found once, and
    :func:`rwasim.phy.sweep_stats` rolls up every point without a slot
    table.  A setting outside its domain (:class:`SweepParameters`), a
    point over the slot budget, or more points than ``MAX_POINTS``, is a
    ConfigError before any work.  Returns (cnr_db, ber, data_rate_mbps) rows.
    """
    cnr_min_db, cnr_max_db, points, n_frames, seed, mode, access_step_s = _checked(
        SweepParameters(cnr_min_db, cnr_max_db, points, n_frames, seed, mode, access_step_s))
    if points > MAX_POINTS:
        raise ConfigError(f"{points} points exceed the budget of {MAX_POINTS} sweep points",
                          field="points")
    if cnr_max_db < cnr_min_db:
        raise ConfigError("cnr-max must be >= cnr-min", field="cnr_max_db")
    num = scenario.phy.numerology
    check_slot_budget(n_frames, num)
    rotor = scenario.aircraft.rotor
    if rotor is None:
        erased = np.zeros(n_frames * num.slots_per_frame, dtype=bool)
    else:
        access = build_access_timeline(scenario, access_step_s)
        mean_el = float(np.mean(access.elevation_deg[_served(scenario, access)]))
        frame_blocked = np.full(n_frames, float(bl.blocked_ms(rotor, mean_el)))
        erased = _rotor_erased(scenario, frame_blocked, seed)
    grid = np.linspace(cnr_min_db, cnr_max_db, points)
    stats = sweep_stats(scenario.phy, grid, erased, n_frames * FRAME_MS, mode=mode, seed=seed)
    return [(cnr, ber, rate) for cnr, (ber, rate) in zip(grid.tolist(), stats)]


def write_sweep_csv(rows, path: str | Path) -> None:
    _write_csv(Path(path), ["cnr_db", "ber", "data_rate_mbps"],
               np.array(rows, dtype=float).reshape(-1, 3).T)


# === report comparison ===

def compare_reports(report_a: dict, report_b: dict, path: str = "") -> dict:
    """Field-by-field difference of two run reports (b minus a).

    Numeric fields (not bools) yield deltas, nested objects recurse, and other
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
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            out[key] = b - a
        elif a != b:
            out[key] = {"a": a, "b": b}
    return out
