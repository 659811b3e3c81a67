"""Slot-level 5G NR abstraction for non-terrestrial links.

Covers the frame structure (numerology tables), the satellite band
catalog with channel validation, an AWGN bit-error-rate abstraction for
the supported modulations, a frame simulator that combines a CNR
timeline with each slot's rotor-blade blocked time into per-slot outcomes,
and the roll-up of a CNR sweep's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_domains, domain

FRAME_MS = 10.0
SUBCARRIERS_PER_RB = 12
SYMBOLS_PER_SLOT = 14

# bits per modulation symbol
MODULATION_ORDER = {"QPSK": 2, "16QAM": 4, "64QAM": 6}

# Second word of the "mc" stream's seed, ``SeedSequence((seed, MC_STREAM_TAG))``;
# fixed, so a run's draws depend on its seed alone.
MC_STREAM_TAG = 0x6D63

# A slot is erased when rotor blades block at least this fraction of it.
ERASE_THRESHOLD = 0.5


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


NTN_BANDS: dict[str, NtnBand] = {
    "n254": NtnBand("n254", "FR1", (1.61, 1.63), (2.48, 2.50), (5.0, 10.0, 15.0)),
    "n255": NtnBand("n255", "FR1", (1.63, 1.66), (1.53, 1.56), (5.0, 10.0, 15.0, 20.0)),
    "n256": NtnBand("n256", "FR1", (1.98, 2.01), (2.17, 2.20), (5.0, 10.0, 15.0, 20.0, 30.0)),
    "n510": NtnBand("n510", "FR2", (27.50, 28.35), (17.30, 20.20), (50.0, 100.0, 200.0, 400.0)),
    "n511": NtnBand("n511", "FR2", (28.35, 30.00), (17.30, 20.20), (50.0, 100.0, 200.0, 400.0)),
    "n512": NtnBand("n512", "FR2", (27.50, 30.00), (17.30, 20.20), (50.0, 100.0, 200.0, 400.0)),
}


@dataclass(frozen=True)
class Mcs:
    """Modulation and coding selection for the payload."""

    modulation: str
    code_rate: float = domain("(0, 1]", "the share of coded bits that carry data")
    coding_gain_db: float = domain("[0, 20]", "Shannon allows 12 dB at BER 1e-6", default=6.0)

    def __post_init__(self) -> None:
        check_domains(self)
        if self.modulation not in MODULATION_ORDER:
            raise ConfigError(
                f"unknown modulation {self.modulation!r} "
                f"(choose from {sorted(MODULATION_ORDER)})",
                field="modulation",
            )

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

    carrier_ghz: float = domain("[0.1, 300]", "VHF to the top of the millimetre-wave band")
    bandwidth_mhz: float = domain("[5, 400]", "NR channels: FR1's narrowest to FR2's widest")
    scs_khz: int = domain("[15, 120]", "NR numerologies 0 to 3; NUMEROLOGIES holds each")
    n_rb: int = domain("[1, 275]", "an NR carrier holds at most 275 resource blocks")
    mcs: Mcs
    ntn_band: str | None = None
    overhead: float = domain("[0, 1]", "the share of REs lost to control", default=0.0)

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def numerology(self) -> Numerology:
        return numerology_for(self.scs_khz)


def validate_channel(phy: PhyConfig, direction: str) -> None:
    """Check a channel against band and numerology constraints, and that
    a slot carries at least one payload bit.

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
    if transport_block_size(phy.n_rb, phy.mcs, phy.overhead) < 1:
        raise ConfigError(f"overhead {phy.overhead} leaves no payload bits in a slot",
                          field="overhead")
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
    """Gaussian tail probability Q(x), with the shape of ``x``.

    ``math.erfc`` is evaluated once per distinct value of ``x``; the
    inputs here hold one CNR per frame or per sweep point, so there are
    few of them.
    """
    x = np.asarray(x, dtype=float)
    values, inverse = np.unique(x, return_inverse=True)
    q = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in values.tolist()])
    return q[inverse].reshape(x.shape)


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


def awgn_ber(mcs: Mcs, cnr_db):
    """Channel bit error rate at the given CNR (dB).

    The symbol rate is assumed to fill the noise bandwidth (Nyquist), so
    Es/N0 equals the CNR; Eb/N0 follows by dividing out the information
    bits per symbol.  Coding is abstracted as a fixed Eb/N0 gain applied
    before the uncoded expression.  A scalar is evaluated as a 1-element
    array, so it gets the same last bits as in any array.
    """
    cnr = np.asarray(cnr_db, dtype=float)
    info_bits = mcs.bits_per_symbol * mcs.code_rate
    eb_n0 = cnr.reshape(-1) - 10.0 * np.log10(info_bits) + mcs.coding_gain_db
    return uncoded_ber(mcs.modulation, eb_n0).reshape(cnr.shape)


# === frame simulation ===

# Most slots one run or one sweep point may simulate: a million frames
# of 80 slots.  A run of 20,000 frames peaks at 10.2 to 10.3 bytes a slot
# with 80 slots a frame and at 17.3 to 19.1 with 10 (`tracemalloc`, both
# modes, written or not; see the README), so the budget keeps it under
# about 1.5 GB.  A larger table is a ConfigError on n_frames.
MAX_SLOTS = 80_000_000

# Slots per binomial call of an "mc" draw: the clear slots of a run or of
# a sweep point are drawn chunk by chunk from its one generator, which
# gives the same values as one call and keeps the draw's temporaries in
# the cache.
_DRAW_SLOTS = 2**13


def _silent(ber: np.ndarray) -> np.ndarray:
    """bool per BER: an "mc" draw at it can only be 0.

    At ``1.0 - p == 1.0`` numpy's binomial takes its inversion path with
    ``(1 - p) ** n == 1``, so it returns 0 after exactly one double from
    the generator, one PCG64 output; at ``p == 0`` it returns 0 and
    consumes nothing.  So the slots of such a BER are set to 0 and the
    generator is advanced past their draws instead of drawing them.
    """
    return 1.0 - ber == 1.0


def check_slot_budget(n_frames: int, numerology: Numerology) -> None:
    """Raise a ConfigError on ``n_frames`` when its slots exceed ``MAX_SLOTS``."""
    spf = numerology.slots_per_frame
    if n_frames * spf > MAX_SLOTS:
        raise ConfigError(
            f"{n_frames} frames of {spf} slots exceed the budget of {MAX_SLOTS} slots "
            f"(at most {MAX_SLOTS // spf} frames at {numerology.scs_khz} kHz spacing)",
            field="n_frames",
        )


def erased_slots(blocked_ms: np.ndarray, numerology: Numerology) -> np.ndarray:
    """bool per slot, in slot order: blocked by rotor blades for
    ``ERASE_THRESHOLD`` of the slot's length or more."""
    return (np.asarray(blocked_ms, float) >= ERASE_THRESHOLD * numerology.slot_ms).ravel()


def _mc_stream(seed: int) -> np.random.Generator:
    """The "mc" draws' generator for ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, MC_STREAM_TAG)))


@dataclass(frozen=True, eq=False)
class SlotTable:
    """Outcomes of a frame simulation: per-frame facts and per-slot columns.

    Only ``erased`` and ``bit_errors`` are stored per slot.  The channel
    (CNR, BER and decode probability) is stored once per frame and the
    payload once per table; ``cnr_db``, ``payload_bits``, ``ber``,
    ``decode_prob`` and ``decoded`` are read-only properties that expand
    them on demand, one numpy array per access.  Row ``i`` is slot ``i``,
    in slot order; slots.csv numbers and times the slots from
    ``first_frame`` and the numerology.  An erased slot carries a BER of
    1, a decode probability of 0 and all of its payload as bit errors.
    """

    numerology: Numerology
    mode: str                       # "mc" or "expected": the rule behind `decoded`
    payload: int                    # payload bits of every slot
    frame_cnr_db: np.ndarray        # float64 per frame
    frame_ber: np.ndarray           # channel BER per frame
    frame_decode_prob: np.ndarray   # probability of an error-free block, per frame
    erased: np.ndarray              # bool per slot: blocked by a rotor blade
    bit_errors: np.ndarray          # int64 per slot
    first_frame: int = 0            # number of the first frame (for a slice)

    def __post_init__(self) -> None:
        n_slots = len(self.frame_cnr_db) * self.numerology.slots_per_frame
        if not len(self.frame_ber) == len(self.frame_decode_prob) == len(self.frame_cnr_db):
            raise ValueError("the per-frame columns differ in length")
        if not len(self.erased) == len(self.bit_errors) == n_slots:
            raise ValueError(f"the slot columns must hold {n_slots} slots")

    def __len__(self) -> int:
        return len(self.erased)

    @property
    def n_frames(self) -> int:
        return len(self.frame_cnr_db)

    def frames(self, start: int, stop: int) -> SlotTable:
        """Frames ``start`` to ``stop`` as a table of views into this one,
        numbered as they are here."""
        spf = self.numerology.slots_per_frame
        start, stop, _ = slice(start, stop).indices(self.n_frames)
        return replace(
            self,
            frame_cnr_db=self.frame_cnr_db[start:stop],
            frame_ber=self.frame_ber[start:stop],
            frame_decode_prob=self.frame_decode_prob[start:stop],
            erased=self.erased[start * spf:stop * spf],
            bit_errors=self.bit_errors[start * spf:stop * spf],
            first_frame=self.first_frame + start,
        )

    def _to_slots(self, per_frame: np.ndarray) -> np.ndarray:
        return np.repeat(per_frame, self.numerology.slots_per_frame)

    @property
    def cnr_db(self) -> np.ndarray:
        return self._to_slots(self.frame_cnr_db)

    @property
    def payload_bits(self) -> np.ndarray:
        return np.full(len(self), self.payload, dtype=np.int64)

    @property
    def ber(self) -> np.ndarray:
        """Channel BER applied to each slot (1 if erased)."""
        ber = self._to_slots(self.frame_ber)
        ber[self.erased] = 1.0
        return ber

    @property
    def decode_prob(self) -> np.ndarray:
        """Probability of an error-free block in each slot (0 if erased)."""
        prob = self._to_slots(self.frame_decode_prob)
        prob[self.erased] = 0.0
        return prob

    @property
    def decoded(self) -> np.ndarray:
        """bool: the slot delivered its payload, in "mc" mode without a bit
        error and in "expected" mode with a decode probability above 1/2."""
        if self.mode == "mc":
            ok = self.bit_errors == 0
        else:
            ok = self._to_slots(self.frame_decode_prob > 0.5)
        ok &= ~self.erased
        return ok


@dataclass(frozen=True)
class FrameStats:
    """Aggregate outcome of a frame simulation."""

    n_slots: int
    n_erased: int
    ber: float
    data_rate_mbps: float
    slot_loss_fraction: float


def simulate_frames(
    phy: PhyConfig,
    cnr_db,
    n_frames: int,
    blocked_ms: np.ndarray | None = None,
    mode: str = "mc",
    seed: int = 0,
    erased: np.ndarray | None = None,
) -> SlotTable:
    """Simulate ``n_frames`` 10 ms frames at slot resolution.

    Parameters
    ----------
    cnr_db : scalar, or per-frame array (len ``n_frames``).  Frames hold
        their CNR for all their slots.
    blocked_ms : rotor-blade blocked time (ms) of every slot, as a
        (``n_frames``, slots per frame) array, for example from
        :func:`rwasim.blades.slot_blocked_ms`.  A slot blocked for
        ``ERASE_THRESHOLD`` of its length or more is erased
        (:func:`erased_slots`).
    erased : the erased flags themselves, one bool per slot in slot
        order, in place of ``blocked_ms``; the table keeps this array.
        Neither argument means no rotor.
    mode : "mc" draws the bit errors of every clear slot, in slot
        order, from one stream seeded with ``(seed, MC_STREAM_TAG)``;
        "expected" is deterministic and records the expected error count.

    Returns the outcomes as a :class:`SlotTable` in slot order.  Raises
    a ConfigError on ``n_frames`` above the slot budget ``MAX_SLOTS``,
    and a ValueError on a NaN CNR (an infinite one is a valid channel).
    """
    if mode not in ("mc", "expected"):
        raise ValueError("mode must be 'mc' or 'expected'")
    if n_frames < 0:
        raise ValueError("n_frames must be >= 0")

    num = phy.numerology
    check_slot_budget(n_frames, num)
    spf = num.slots_per_frame
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)

    cnr = np.array(cnr_db, dtype=float)  # a copy: the table keeps it
    if cnr.shape not in ((), (n_frames,)):
        raise ValueError("cnr_db must be scalar or per-frame")
    # per frame, so a scalar CNR takes numpy's array power like any other
    cnr = np.broadcast_to(cnr, (n_frames,))
    if np.isnan(cnr).any():
        raise ValueError("cnr_db must not be NaN")
    # channel BER per frame: q_function calls erfc once per distinct value
    ber = awgn_ber(phy.mcs, cnr)

    if blocked_ms is not None:
        if erased is not None:
            raise ValueError("give blocked_ms or erased, not both")
        blocked = np.asarray(blocked_ms, float)
        if blocked.shape != (n_frames, spf):
            raise ValueError(
                f"blocked_ms must have shape ({n_frames}, {spf}), got {blocked.shape}")
        erased = erased_slots(blocked, num)
    elif erased is None:
        erased = np.zeros(n_frames * spf, dtype=bool)
    else:
        erased = np.asarray(erased, dtype=bool)
        if erased.shape != (n_frames * spf,):
            raise ValueError(
                f"erased must hold {n_frames * spf} slots, got shape {erased.shape}")

    if mode == "mc":
        bit_errors = np.full(n_frames * spf, payload, dtype=np.int64)
        n_clear = spf - erased.reshape(n_frames, spf).sum(axis=1)
        rng = _mc_stream(seed)
        step = max(1, _DRAW_SLOTS // spf)
        silent = _silent(ber)
        # the first frame of each maximal run of silent or of drawn frames
        # (none without frames)
        starts = [0, *((silent[1:] != silent[:-1]).nonzero()[0] + 1).tolist()][:n_frames]
        for lo, hi in zip(starts, [*starts[1:], n_frames]):
            if silent[lo]:
                # the clear slots take 0 bit errors and the stream moves
                # past the one output each slot with a nonzero BER draws
                f, s = slice(lo, hi), slice(lo * spf, hi * spf)
                bit_errors[s][~erased[s]] = 0
                rng.bit_generator.advance(int(n_clear[f].sum(where=ber[f] > 0.0)))
                continue
            # the clear slots in slot order, a chunk of frames per call
            for first in range(lo, hi, step):
                f = slice(first, min(first + step, hi))
                s = slice(f.start * spf, f.stop * spf)
                p = ber[f].repeat(n_clear[f])
                bit_errors[s][~erased[s]] = rng.binomial(payload, p)
    else:
        bit_errors = np.repeat(np.round(ber * payload).astype(np.int64), spf)
        bit_errors[erased] = payload

    return SlotTable(
        numerology=num,
        mode=mode,
        payload=payload,
        frame_cnr_db=cnr,
        frame_ber=ber,
        frame_decode_prob=(1.0 - ber) ** payload,
        erased=erased,
        bit_errors=bit_errors,
    )


def _expected_rollup(n_slots: int, n_erased: int, n_clear, ber,
                     decode_prob) -> tuple[float, float]:
    """BER and expected decoded slots in "expected" mode, from the slot and
    erased-slot counts and each frame's clear slots, BER and decode
    probability.

    Frames are grouped by BER.  The BER is the erased slots plus each
    group's clear slots times its value, summed exactly and rounded once
    in the division by ``n_slots``: every value is an integer mantissa
    times a power of two, so over the smallest of those powers the sum is
    an integer.  The decoded slots are each group's clear slots times its
    decode probability, summed with ``math.fsum``.
    """
    values, first, inverse = np.unique(ber, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, weights=n_clear)
    decoded = math.fsum((counts * np.asarray(decode_prob)[first]).tolist())
    if np.isnan(values[-1]):   # np.unique puts NaN last
        return math.nan, decoded
    fraction, exponent = np.frexp(values)
    scale = 53 - int(exponent.min())
    errors = sum(count * (mantissa << shift) for count, mantissa, shift in zip(
        counts.astype(np.int64).tolist(), np.ldexp(fraction, 53).astype(np.int64).tolist(),
        (exponent - exponent.min()).tolist()))
    return ((n_erased << scale) + errors) / (n_slots << scale), decoded


def aggregate(slots: SlotTable, elapsed_ms: float, mode: str = "mc") -> FrameStats:
    """Roll a slot table up into run-level statistics.

    BER is total bit errors over total payload bits with erased slots
    counting every bit as an error.  The data rate counts only payload
    delivered by decoded slots ("expected" mode uses each slot's decode
    probability instead of the realized decode flag).  "mc" mode sums
    integer counts; "expected" mode sums per frame, in closed form, with
    :func:`sweep_stats`' arithmetic.
    """
    if elapsed_ms <= 0.0:
        raise ValueError("elapsed_ms must be > 0")
    n_slots = len(slots)
    if n_slots == 0:
        raise ValueError("cannot aggregate an empty slot table")
    payload = slots.payload
    n_erased = int(np.count_nonzero(slots.erased))
    if mode == "expected":
        spf = slots.numerology.slots_per_frame
        n_clear = spf - np.count_nonzero(slots.erased.reshape(-1, spf), axis=1)
        ber, decoded = _expected_rollup(n_slots, n_erased, n_clear, slots.frame_ber,
                                        slots.frame_decode_prob)
    else:
        ber = int(slots.bit_errors.sum()) / (payload * n_slots)
        # an erased slot carries its whole payload (at least a bit) as errors,
        # so the decoded slots are those without one
        decoded = n_slots - int(np.count_nonzero(slots.bit_errors))
    return FrameStats(
        n_slots=n_slots,
        n_erased=n_erased,
        ber=ber,
        data_rate_mbps=payload * decoded / (elapsed_ms * 1e3),
        slot_loss_fraction=n_erased / n_slots,
    )


def sweep_stats(
    phy: PhyConfig,
    cnr_db,
    erased: np.ndarray,
    elapsed_ms: float,
    mode: str = "mc",
    seed: int = 0,
) -> list[tuple[float, float]]:
    """(BER, data rate in Mbit/s) of each point of a CNR grid.

    ``cnr_db`` is a 1-d array of the grid's CNRs.  Every point holds its
    CNR for all its slots, and all points share the erasure pattern
    ``erased`` (bool per slot, from :func:`erased_slots`), so no slot
    table is built.  Point ``j`` gets, to the last bit, what
    :func:`aggregate` gives for :func:`simulate_frames` of its frames
    alone, with its CNR per frame and seed ``seed + j``: in "mc" mode its
    clear slots draw from that seed's stream in slot order, and in
    "expected" mode its frames make one group of :func:`aggregate`'s
    closed form.  A point's stream is its own, so a point whose draws can
    only be 0 (:func:`_silent`) builds none.  A NaN CNR is a ValueError.
    """
    if mode not in ("mc", "expected"):
        raise ValueError("mode must be 'mc' or 'expected'")
    if elapsed_ms <= 0.0:
        raise ValueError("elapsed_ms must be > 0")
    n_slots = len(erased)
    if n_slots == 0:
        raise ValueError("cannot aggregate a point of no slots")
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
    if np.isnan(cnr_db).any():
        raise ValueError("cnr_db must not be NaN")
    ber = awgn_ber(phy.mcs, cnr_db)
    # numpy's array power, as in simulate_frames: Python's float power
    # can differ in the last bit
    decode_prob = (1.0 - ber) ** payload
    n_erased = int(np.count_nonzero(erased))
    n_clear = n_slots - n_erased
    rows = []
    silent = _silent(ber).tolist()
    for j, (p, prob) in enumerate(zip(ber.tolist(), decode_prob.tolist())):
        if mode == "expected":
            point_ber, decoded = _expected_rollup(n_slots, n_erased, [n_clear], [p], [prob])
        else:
            errors, decoded = payload * n_erased, 0
            if silent[j]:  # every clear slot draws 0 bit errors: no stream is built
                decoded = n_clear
            else:
                rng = _mc_stream(seed + j)
                for first in range(0, n_clear, _DRAW_SLOTS):
                    draws = rng.binomial(payload, p, size=min(_DRAW_SLOTS, n_clear - first))
                    errors += int(draws.sum())
                    decoded += len(draws) - int(np.count_nonzero(draws))
            point_ber = errors / (payload * n_slots)
        rows.append((point_ber, payload * decoded / (elapsed_ms * 1e3)))
    return rows
