"""Slot-level 5G NR abstraction for non-terrestrial links.

Covers the frame structure (numerology tables), the satellite band
catalog with channel validation, an AWGN bit-error-rate abstraction for
the supported modulations, and a frame simulator that combines a CNR
timeline with rotor-blade erasures into per-slot outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .blades import BladeSchedule
from .errors import ConfigError

FRAME_MS = 10.0
SUBCARRIERS_PER_RB = 12
SYMBOLS_PER_SLOT = 14

# bits per modulation symbol
MODULATION_ORDER = {"QPSK": 2, "16QAM": 4, "64QAM": 6}


# === frame structure ===

@dataclass(frozen=True)
class Numerology:
    """One row of the NR numerology table."""

    scs_khz: int
    slots_per_frame: int
    slot_ms: float
    rb_range: tuple[int, int]          # allowed resource-block counts
    bandwidth_range_mhz: tuple[float, float]


NUMEROLOGIES: dict[int, Numerology] = {
    15: Numerology(15, 10, 1.0, (25, 160), (5.0, 30.0)),
    30: Numerology(30, 20, 0.5, (11, 78), (5.0, 30.0)),
    60: Numerology(60, 40, 0.25, (11, 264), (10.0, 200.0)),
    120: Numerology(120, 80, 0.125, (32, 264), (50.0, 400.0)),
}


def numerology_for(scs_khz: int) -> Numerology:
    """Look up the numerology for a subcarrier spacing."""
    try:
        return NUMEROLOGIES[int(scs_khz)]
    except KeyError:
        raise ConfigError(
            f"unsupported subcarrier spacing {scs_khz} kHz "
            f"(choose from {sorted(NUMEROLOGIES)})",
            field="scs_khz",
        ) from None


# === satellite band catalog ===

@dataclass(frozen=True)
class NtnBand:
    """A satellite NR operating band with its channel constraints."""

    name: str
    frequency_range: str                    # "FR1" or "FR2"
    uplink_ghz: tuple[float, float]
    downlink_ghz: tuple[float, float]
    bandwidths_mhz: tuple[float, ...]
    scs_khz: tuple[int, ...]


NTN_BANDS: dict[str, NtnBand] = {
    "n254": NtnBand("n254", "FR1", (1.61, 1.63), (2.48, 2.50),
                    (5.0, 10.0, 15.0), (15, 30, 60)),
    "n255": NtnBand("n255", "FR1", (1.63, 1.66), (1.53, 1.56),
                    (5.0, 10.0, 15.0, 20.0), (15, 30, 60)),
    "n256": NtnBand("n256", "FR1", (1.98, 2.01), (2.17, 2.20),
                    (5.0, 10.0, 15.0, 20.0, 30.0), (15, 30, 60)),
    "n510": NtnBand("n510", "FR2", (27.50, 28.35), (17.30, 20.20),
                    (50.0, 100.0, 200.0, 400.0), (60, 120)),
    "n511": NtnBand("n511", "FR2", (28.35, 30.00), (17.30, 20.20),
                    (50.0, 100.0, 200.0, 400.0), (60, 120)),
    "n512": NtnBand("n512", "FR2", (27.50, 30.00), (17.30, 20.20),
                    (50.0, 100.0, 200.0, 400.0), (60, 120)),
}


@dataclass(frozen=True)
class Mcs:
    """Modulation and coding selection for the payload."""

    modulation: str
    code_rate: float
    coding_gain_db: float = 6.0

    def __post_init__(self) -> None:
        if self.modulation not in MODULATION_ORDER:
            raise ConfigError(
                f"unknown modulation {self.modulation!r} "
                f"(choose from {sorted(MODULATION_ORDER)})",
                field="modulation",
            )
        if not 0.0 < self.code_rate <= 1.0:
            raise ConfigError("code_rate must be in (0, 1]", field="code_rate")
        if self.coding_gain_db < 0.0:
            raise ConfigError("coding_gain_db must be >= 0", field="coding_gain_db")

    @property
    def bits_per_symbol(self) -> int:
        return MODULATION_ORDER[self.modulation]


@dataclass(frozen=True)
class PhyConfig:
    """Channel and waveform settings for the slot simulation.

    ``ntn_band`` may be None for carriers outside the satellite NR band
    catalog (legacy comparison links); band validation is skipped then,
    numerology constraints still apply.
    """

    carrier_ghz: float
    bandwidth_mhz: float
    scs_khz: int
    n_rb: int
    mcs: Mcs
    ntn_band: str | None = None
    overhead: float = 0.0              # fraction of REs lost to control

    @property
    def numerology(self) -> Numerology:
        return numerology_for(self.scs_khz)


def validate_channel(phy: PhyConfig, direction: str) -> None:
    """Check a channel against band and numerology constraints.

    ``direction`` is "uplink" or "downlink" and selects the frequency
    range of the band to check the carrier against.  Raises
    :class:`ConfigError` naming the offending field; returns None when
    the channel is valid.
    """
    if direction not in ("uplink", "downlink"):
        raise ConfigError("direction must be 'uplink' or 'downlink'", field="direction")
    num = phy.numerology
    lo, hi = num.bandwidth_range_mhz
    if not lo <= phy.bandwidth_mhz <= hi:
        raise ConfigError(
            f"bandwidth {phy.bandwidth_mhz} MHz outside [{lo}, {hi}] MHz "
            f"for {phy.scs_khz} kHz spacing",
            field="bandwidth_mhz",
        )
    rb_lo, rb_hi = num.rb_range
    if not rb_lo <= phy.n_rb <= rb_hi:
        raise ConfigError(
            f"n_rb {phy.n_rb} outside [{rb_lo}, {rb_hi}] "
            f"for {phy.scs_khz} kHz spacing",
            field="n_rb",
        )
    if phy.ntn_band is None:
        return
    try:
        band = NTN_BANDS[phy.ntn_band]
    except KeyError:
        raise ConfigError(
            f"unknown NTN band {phy.ntn_band!r} (choose from {sorted(NTN_BANDS)})",
            field="ntn_band",
        ) from None
    f_lo, f_hi = band.uplink_ghz if direction == "uplink" else band.downlink_ghz
    if not f_lo <= phy.carrier_ghz <= f_hi:
        raise ConfigError(
            f"carrier {phy.carrier_ghz} GHz outside {band.name} "
            f"{direction} range [{f_lo}, {f_hi}] GHz",
            field="carrier_ghz",
        )
    if phy.bandwidth_mhz not in band.bandwidths_mhz:
        raise ConfigError(
            f"bandwidth {phy.bandwidth_mhz} MHz not offered by {band.name} "
            f"(choose from {band.bandwidths_mhz})",
            field="bandwidth_mhz",
        )
    if phy.scs_khz not in band.scs_khz:
        raise ConfigError(
            f"{phy.scs_khz} kHz spacing not offered by {band.name} "
            f"(choose from {band.scs_khz})",
            field="scs_khz",
        )


def transport_block_size(n_rb: int, mcs: Mcs, overhead: float = 0.0) -> int:
    """Payload bits carried by one slot.

    Every resource element (12 subcarriers x 14 symbols per RB) carries
    ``bits_per_symbol * code_rate`` information bits, less the overhead
    fraction reserved for control and reference signals.
    """
    if n_rb < 1:
        raise ValueError("n_rb must be >= 1")
    if not 0.0 <= overhead <= 1.0:
        raise ValueError("overhead must be in [0, 1]")
    re_count = n_rb * SUBCARRIERS_PER_RB * SYMBOLS_PER_SLOT
    return int(re_count * mcs.bits_per_symbol * mcs.code_rate * (1.0 - overhead))


# === AWGN error rates ===

def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def uncoded_ber(modulation: str, eb_n0_db):
    """Gray-mapped AWGN bit error rate at the given Eb/N0 (dB).

    Standard closed forms: QPSK is exact, the square QAM constellations
    use the usual nearest-neighbour approximation.  Accepts scalars or
    arrays; result is clamped to 1/2.
    """
    eb = 10.0 ** (np.asarray(eb_n0_db, dtype=float) / 10.0)
    if modulation == "QPSK":
        ber = q_function(np.sqrt(2.0 * eb))
    elif modulation == "16QAM":
        ber = 0.75 * q_function(np.sqrt(0.8 * eb))
    elif modulation == "64QAM":
        ber = (7.0 / 12.0) * q_function(np.sqrt((2.0 / 7.0) * eb))
    else:
        raise ConfigError(f"unknown modulation {modulation!r}", field="modulation")
    return np.minimum(ber, 0.5)


def awgn_ber(mcs: Mcs, cnr_db, coded: bool = True):
    """Channel bit error rate at the given CNR (dB).

    The symbol rate is assumed to fill the noise bandwidth (Nyquist), so
    Es/N0 equals the CNR; Eb/N0 follows by dividing out the information
    bits per symbol.  Coding is abstracted as a fixed Eb/N0 gain applied
    before the uncoded expression.
    """
    cnr = np.asarray(cnr_db, dtype=float)
    info_bits = mcs.bits_per_symbol * mcs.code_rate
    eb_n0 = cnr - 10.0 * np.log10(info_bits)
    if coded:
        eb_n0 = eb_n0 + mcs.coding_gain_db
    return uncoded_ber(mcs.modulation, eb_n0)


# === frame simulation ===

@dataclass(frozen=True, eq=False)
class SlotTable:
    """Per-slot outcomes of a frame simulation, one numpy column per field.

    Row ``i`` is slot ``i``, in slot order.  An erased slot carries a BER
    of 1, a decode probability of 0 and all of its payload as bit errors.
    """

    slot_index: np.ndarray    # int64
    t_start_ms: np.ndarray    # float64
    erased: np.ndarray        # bool: blocked by a rotor blade
    decoded: np.ndarray       # bool: delivered its payload without error
    payload_bits: np.ndarray  # int64
    bit_errors: np.ndarray    # int64
    cnr_db: np.ndarray        # float64
    ber: np.ndarray           # channel BER applied to the slot (1 if erased)
    decode_prob: np.ndarray   # probability of an error-free block

    def __len__(self) -> int:
        return len(self.slot_index)


@dataclass(frozen=True)
class FrameStats:
    """Aggregate outcome of a frame simulation."""

    n_slots: int
    n_erased: int
    total_bits: int
    elapsed_ms: float
    ber: float
    data_rate_mbps: float
    slot_loss_fraction: float


def _per_frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    # Seeds derive from (run seed, frame index) so a future parallel
    # dispatch of frames cannot change the drawn values.
    return np.random.default_rng(np.random.SeedSequence((seed, frame_index)))


def _blocked_ms(
    schedules: list[BladeSchedule | None],
    frame_offsets_ms: np.ndarray,
    num: Numerology,
) -> np.ndarray:
    """Blade-blocked time (ms) of every slot, as a (frames, slots) array.

    Frame ``f`` sees the blade pulses of :func:`rwasim.blades.blocked_intervals`
    over one frame at phase ``frame_offsets_ms[f] % period``: pulse ``j``
    starts at ``(k0 + j) * period - phase``, is clipped to the frame and
    adds its overlap to every slot it touches.  All frames take pulse
    ``j`` together and pulses are added in order, so each slot sums the
    same terms in the same order as a walk over its frame's intervals.
    Slots blocked for exactly the erase threshold (blade edges on slot
    boundaries) are decided by this arithmetic, so it must not change.
    """
    spf, slot_ms = num.slots_per_frame, num.slot_ms
    blocked = np.zeros((len(schedules), spf))
    rows = np.flatnonzero([s is not None and s.blocked_ms > 0.0 for s in schedules])
    if rows.size == 0:
        return blocked
    width = np.array([schedules[f].blocked_ms for f in rows])[:, None]
    period = np.array([schedules[f].period_ms for f in rows])[:, None]
    phase = np.asarray(frame_offsets_ms, dtype=float)[rows, None] % period
    k0 = np.floor((-phase - width) / period)
    slot = np.arange(spf)
    lo = slot * slot_ms
    total = np.zeros((rows.size, spf))
    # k0 lies up to about 2 * phase / period pulses before the first one
    # that reaches the frame, so pulses past k0 + ceil((FRAME_MS + width)
    # / period) + 3 start after the frame ends; one more is slack for rounding
    for j in range(int(np.max(np.ceil((FRAME_MS + width) / period))) + 4):
        start = (k0 + j) * period - phase
        stop = start + width
        hit = (stop > 0.0) & (start < FRAME_MS)
        start, stop = np.maximum(start, 0.0), np.minimum(stop, FRAME_MS)
        touched = hit & (slot >= np.floor(start / slot_ms)) & (slot < np.ceil(stop / slot_ms))
        overlap = np.minimum(stop, lo + slot_ms) - np.maximum(start, lo)
        total += np.where(touched, overlap, 0.0)
    blocked[rows] = total
    return blocked


def simulate_frames(
    phy: PhyConfig,
    cnr_db,
    n_frames: int,
    schedules: list[BladeSchedule | None] | BladeSchedule | None = None,
    frame_offsets_ms: np.ndarray | None = None,
    mode: str = "mc",
    seed: int = 0,
    erase_threshold: float = 0.5,
) -> SlotTable:
    """Simulate ``n_frames`` 10 ms frames at slot resolution.

    Parameters
    ----------
    cnr_db : scalar, per-frame array (len ``n_frames``) or per-slot
        array.  Frames hold their CNR for all their slots when a
        per-frame array is given.
    schedules : blade schedule applied to every frame, or one per frame
        (None entries mean no rotor).  Blade timing runs on a continuous
        rotor clock: ``frame_offsets_ms`` gives each frame's position on
        that clock (defaults to contiguous frames), so the blockage
        phase advances across frames instead of restarting.
    mode : "mc" draws per-slot bit errors from a binomial distribution
        with per-frame derived seeds; "expected" is deterministic and
        records the expected error count.
    erase_threshold : fraction of a slot that must be blocked for the
        slot to be erased.  0 means any nonzero overlap erases.

    Returns the per-slot outcomes as a :class:`SlotTable` in slot order.
    """
    if mode not in ("mc", "expected"):
        raise ValueError("mode must be 'mc' or 'expected'")
    if not 0.0 <= erase_threshold <= 1.0:
        raise ValueError("erase_threshold must be in [0, 1]")
    if n_frames < 0:
        raise ValueError("n_frames must be >= 0")

    num = phy.numerology
    spf = num.slots_per_frame
    n_slots = n_frames * spf
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)

    cnr = np.array(cnr_db, dtype=float)  # a copy: the table keeps it as a column
    if cnr.ndim == 0:
        cnr_slots = np.full(n_slots, float(cnr))
    elif cnr.shape == (n_frames,):
        cnr_slots = np.repeat(cnr, spf)
    elif cnr.shape == (n_slots,):
        cnr_slots = cnr
    else:
        raise ValueError("cnr_db must be scalar, per-frame or per-slot")

    if isinstance(schedules, BladeSchedule) or schedules is None:
        schedules = [schedules] * n_frames
    if len(schedules) != n_frames:
        raise ValueError("need one blade schedule (or None) per frame")
    if frame_offsets_ms is None:
        frame_offsets_ms = np.arange(n_frames, dtype=float) * FRAME_MS

    blocked = _blocked_ms(schedules, frame_offsets_ms, num)
    # an unblocked slot is never erased, even where the threshold is 0 or
    # so small that erase_threshold * slot_ms underflows to 0
    erased = ((blocked > 0.0) & (blocked >= erase_threshold * num.slot_ms)).ravel()

    channel_ber = awgn_ber(phy.mcs, cnr_slots)
    ber = np.where(erased, 1.0, channel_ber)
    decode_prob = np.where(erased, 0.0, (1.0 - channel_ber) ** payload)
    if mode == "mc":
        bit_errors = np.full(n_slots, payload, dtype=np.int64)
        clear = ~erased.reshape(n_frames, spf)
        frame_errors = bit_errors.reshape(n_frames, spf)
        frame_ber = channel_ber.reshape(n_frames, spf)
        for f in range(n_frames):
            # one array draw gives the same values as one scalar draw per slot
            frame_errors[f, clear[f]] = _per_frame_rng(seed, f).binomial(
                payload, frame_ber[f, clear[f]])
        decoded = ~erased & (bit_errors == 0)
    else:
        bit_errors = np.where(erased, payload, np.round(channel_ber * payload)).astype(np.int64)
        decoded = decode_prob > 0.5

    t_start = (np.arange(n_frames)[:, None] * FRAME_MS
               + np.arange(spf) * num.slot_ms).ravel()
    return SlotTable(
        slot_index=np.arange(n_slots, dtype=np.int64),
        t_start_ms=t_start,
        erased=erased,
        decoded=decoded,
        payload_bits=np.full(n_slots, payload, dtype=np.int64),
        bit_errors=bit_errors,
        cnr_db=cnr_slots,
        ber=ber,
        decode_prob=decode_prob,
    )


def aggregate(slots: SlotTable, elapsed_ms: float, mode: str = "mc") -> FrameStats:
    """Roll a slot table up into run-level statistics.

    BER is total bit errors over total payload bits with erased slots
    counting every bit as an error.  The data rate counts only payload
    delivered by decoded slots ("expected" mode uses each slot's decode
    probability instead of the realized decode flag).
    """
    if elapsed_ms <= 0.0:
        raise ValueError("elapsed_ms must be > 0")
    n_slots = len(slots)
    if n_slots == 0:
        raise ValueError("cannot aggregate an empty slot table")
    payload = slots.payload_bits
    total_bits = int(payload.sum())
    n_erased = int(slots.erased.sum())
    if mode == "expected":
        errors = float(np.sum(slots.ber * payload))
        delivered = float(np.sum(payload * slots.decode_prob))
    else:
        errors = int(slots.bit_errors.sum())
        delivered = int(payload[slots.decoded].sum())
    return FrameStats(
        n_slots=n_slots,
        n_erased=n_erased,
        total_bits=total_bits,
        elapsed_ms=elapsed_ms,
        ber=errors / total_bits,
        data_rate_mbps=delivered / (elapsed_ms * 1e3),
        slot_loss_fraction=n_erased / n_slots,
    )
