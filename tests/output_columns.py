"""The columns a run writes to each of its CSV files, taken from the run."""

import numpy as np

from rwasim.phy import FRAME_MS


def slot_columns(slots) -> dict:
    """The columns of slots.csv, expanded from a ``SlotTable``.

    Slot numbers and start times count from the table's ``first_frame``:
    slot ``j`` of frame ``f`` is number ``f * spf + j`` and starts at
    ``f * FRAME_MS + j * slot_ms``.
    """
    num = slots.numerology
    spf = num.slots_per_frame
    first = slots.first_frame * spf
    frames = np.arange(slots.first_frame, slots.first_frame + slots.n_frames)
    return {
        "slot_index": np.arange(first, first + len(slots), dtype=np.int64),
        "t_start_ms": (frames[:, None] * FRAME_MS + np.arange(spf) * num.slot_ms).ravel(),
        "erased": slots.erased, "cnr_db": slots.cnr_db,
        "payload_bits": slots.payload_bits, "bit_errors": slots.bit_errors,
        "ber": slots.ber, "decode_prob": slots.decode_prob}


def output_columns(result) -> dict:
    """``{file name: {column name: numpy column}}`` of a ``RunResult``.

    The tables are those of ``access.csv``, ``link.csv``, ``slots.csv``
    and ``blades.csv``, each with its columns in the written order.
    """
    access, link, blades = result.access, result.link, result.blade_rows
    return {
        "access.csv": {
            "time_s": access.times_s, "sat_id": access.sat_id,
            "elevation_deg": access.elevation_deg, "azimuth_deg": access.azimuth_deg,
            "slant_range_km": access.slant_range_km,
            "range_rate_kms": access.range_rate_kms, "doppler_khz": access.doppler_khz},
        "link.csv": {
            "time_s": link.times_s, "fspl_db": link.fspl_db, "gas_db": link.gas_db,
            "rain_db": link.rain_db, "cloud_db": link.cloud_db, "total_db": link.total_db,
            "doppler_khz": access.doppler_khz, "cnr_db": link.cnr_db},
        "slots.csv": slot_columns(result.slots),
        "blades.csv": {
            "elevation_deg": blades.elevation_deg, "d_rotor_m": blades.radius_m,
            "phi_deg": blades.arc_deg, "t_int_ms": blades.blocked_ms,
            "t_lnk_ms": blades.clear_ms, "duty_cycle": blades.duty_cycle},
    }
